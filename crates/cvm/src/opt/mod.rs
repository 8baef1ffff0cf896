//! The optimizer: a registry of [`Pass`]es driven to a fixpoint.
//!
//! The same passes run for the `-O` baseline and the `-O safe` (annotated)
//! build — the paper's point is that `KEEP_LIVE` does **not** require
//! suppressing optimizations, only preserving values longer. Several of
//! the passes are exactly the kind that "disguise" pointers:
//!
//! * [`reassociate`] rewrites `p + (i - c)` into `(p - c) + i`, creating an
//!   intermediate that may point *outside* the object (the paper's opening
//!   `p[i-1000]` example);
//! * [`schedule_early`] hoists pure arithmetic upward, past calls — so the
//!   out-of-object intermediate can be the only surviving value when a
//!   collection triggers inside an allocation call;
//! * [`licm`] hoists that displaced base out of a loop, leaving only the
//!   out-of-object pointer live across every allocation in the body;
//! * [`gvn`] merges recomputations across blocks, stretching a derived
//!   pointer's live range over call-bearing paths.
//!
//! With annotations, none of these passes is blocked; the `KeepLive`
//! *base* use simply keeps the original pointer live across the call,
//! which is the whole trick.
//!
//! Every registered pass fires on the paper's own workloads (gcbench's
//! `every_registered_pass_fires_in_the_opt_sweep` pins it). [`dce`] is
//! not registered: reassociate's slot runs it in every sweep, so a
//! registered copy found nothing left to remove.
//!
//! # Driver
//!
//! Passes implement [`Pass`] and are registered (in order) in
//! [`registry`]. The driver sweeps the registered pipeline repeatedly
//! until a full sweep reports zero changes, or [`FIXPOINT_SWEEP_CAP`]
//! sweeps have run. Termination is argued pass-by-pass: every rewrite
//! either strictly removes an instruction (cse/gvn duplicates become
//! moves that copy-prop and the dce in reassociate's slot retire),
//! replaces an instruction with a strictly simpler form that no pass
//! re-complicates (const_fold, sccp rewrites toward constants;
//! `Mul`→`Shl` is one-way), or moves a computation to a place where its
//! own guard no longer fires (reassociate refuses displaced bases it
//! already created, licm's hoisted instructions are no longer in the
//! loop, schedule_early finds every instruction already in its earliest
//! slot). The cap is a backstop, not a crutch — the idempotence property
//! test asserts a second driver run reports zero fires for every pass.
//!
//! A fire counts a pass's own rewrites. Reassociate's slot ends with
//! [`dce`], whether or not the rewrite is on, and does not count dce's
//! removals as fires, so that slot can report zero while it changes the
//! IR: the last sweep of a fixpoint may still remove dead instructions
//! that the sweep before it left.

mod cfg;
mod gvn;
mod licm;
mod reassoc;
mod scalar;
mod sccp;
mod schedule;

#[cfg(test)]
mod tests;

pub use gvn::gvn;
pub use licm::licm;
pub use reassoc::reassociate;
pub use scalar::{const_fold, copy_prop, cse, dce};
pub use sccp::sccp;
pub use schedule::schedule_early;

use crate::ir::*;
use gctrace::{Event, TraceHandle};

/// Optimizer configuration: one enable flag per gated pass. The flags
/// serve the ablation tests (`tests/gc_unsafety.rs` shows each hazard
/// vanish with its disguising passes off, `tests/random_programs.rs`
/// checks that every ablation computes the same values) and gcbench's
/// seed-vs-full `-O` cycle table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptOptions {
    /// Master switch (false = `-g`-style unoptimized code).
    pub enabled: bool,
    /// Run the displacement reassociation pass. Its registry slot runs
    /// [`dce`] either way.
    pub reassociate: bool,
    /// Run the eager scheduler.
    pub schedule: bool,
    /// Run loop-invariant code motion.
    pub licm: bool,
    /// Run global value numbering.
    pub gvn: bool,
    /// Run sparse conditional constant propagation.
    pub sccp: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            enabled: true,
            reassociate: true,
            schedule: true,
            licm: true,
            gvn: true,
            sccp: true,
        }
    }
}

impl OptOptions {
    /// Full optimization (the `-O` rows).
    pub fn full() -> Self {
        Self::default()
    }

    /// No optimization (the `-g` rows).
    pub fn none() -> Self {
        OptOptions {
            enabled: false,
            reassociate: false,
            schedule: false,
            licm: false,
            gvn: false,
            sccp: false,
        }
    }
}

/// A registered optimization pass.
///
/// `run` applies the pass once under `opts` and returns the number of
/// rewrites it performed; the fixpoint driver sums these per sweep and
/// stops when a full sweep fires nothing. A pass its option turns off
/// reports zero. A pass must report zero once it has nothing left to do
/// — a pass that "fires" without changing the function would spin the
/// driver into its sweep cap.
pub trait Pass: Sync {
    /// Stable name used in trace events, Prometheus labels, and tables.
    fn name(&self) -> &'static str;
    /// Apply the pass once under `opts`; returns the number of rewrites.
    fn run(&self, f: &mut FuncIr, opts: &OptOptions) -> usize;
}

macro_rules! register_pass {
    ($ty:ident, $name:literal, $run:expr) => {
        struct $ty;
        impl Pass for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn run(&self, f: &mut FuncIr, opts: &OptOptions) -> usize {
                let run: fn(&mut FuncIr, &OptOptions) -> usize = $run;
                run(f, opts)
            }
        }
    };
}

register_pass!(CopyProp, "copy_prop", |f, _| copy_prop(f));
register_pass!(Sccp, "sccp", |f, o| if o.sccp { sccp(f) } else { 0 });
register_pass!(ConstFold, "const_fold", |f, _| const_fold(f));
// Reassociation ends every run with dce; turned off, its slot still
// sweeps dead temps, so the knob ablates the rewrite alone.
register_pass!(Reassociate, "reassociate", |f, o| {
    if o.reassociate {
        reassociate(f)
    } else {
        dce(f);
        0
    }
});
register_pass!(Gvn, "gvn", |f, o| if o.gvn { gvn(f) } else { 0 });
register_pass!(Cse, "cse", |f, _| cse(f));
register_pass!(Licm, "licm", |f, o| if o.licm { licm(f) } else { 0 });
register_pass!(ScheduleEarly, "schedule_early", |f, o| {
    if o.schedule {
        schedule_early(f)
    } else {
        0
    }
});

/// The registered pipeline, in sweep order. Ordering rationale:
/// copy/constant facts first (copy_prop, sccp, const_fold) so the
/// pattern-matching passes see canonical operands; reassociate before
/// gvn/cse so displaced bases participate in value numbering, and the
/// dce it ends with retires the moves copy_prop and value numbering left
/// dead; licm hoists what value numbering left in loops; the scheduler
/// runs last because it only moves instructions that survived.
pub fn registry() -> &'static [&'static dyn Pass] {
    const REGISTRY: &[&'static dyn Pass] = &[
        &CopyProp,
        &Sccp,
        &ConstFold,
        &Reassociate,
        &Gvn,
        &Cse,
        &Licm,
        &ScheduleEarly,
    ];
    REGISTRY
}

/// Names of every registered pass, in sweep order.
pub fn pass_names() -> Vec<&'static str> {
    registry().iter().map(|p| p.name()).collect()
}

/// Hard cap on driver sweeps per function. The pipeline converges in a
/// handful of sweeps on real programs (the idempotence tests assert it);
/// the cap bounds the damage if a future pass pair oscillates.
pub const FIXPOINT_SWEEP_CAP: usize = 16;

/// Per-function record of what the fixpoint driver did: how many sweeps
/// ran and how many times each registered pass fired (summed across
/// sweeps, in registry order; disabled passes report zero).
#[derive(Debug, Clone, Default)]
pub struct PassLedger {
    /// Number of sweeps the driver ran (including the final all-zero one).
    pub sweeps: usize,
    /// `(pass name, total fires)` in registry order.
    pub fires: Vec<(&'static str, usize)>,
}

impl PassLedger {
    /// Total fires recorded for the named pass.
    pub fn fires_for(&self, pass: &str) -> usize {
        self.fires
            .iter()
            .find(|(n, _)| *n == pass)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

/// Optimizes every function of a program in place, emitting one
/// `("opt", "pass")` event per registered pass that fired and one
/// `("opt", "function")` summary per function.
pub fn optimize_traced(prog: &mut ProgramIr, opts: OptOptions, trace: &TraceHandle) {
    if !opts.enabled {
        return;
    }
    for f in &mut prog.funcs {
        optimize_func_traced(f, opts, trace);
    }
}

/// Runs the fixpoint driver over the registered pipeline and returns the
/// per-pass fire ledger.
pub fn optimize_func_ledger(f: &mut FuncIr, opts: OptOptions) -> PassLedger {
    let passes = registry();
    let mut ledger = PassLedger {
        sweeps: 0,
        fires: passes.iter().map(|p| (p.name(), 0)).collect(),
    };
    if !opts.enabled {
        return ledger;
    }
    while ledger.sweeps < FIXPOINT_SWEEP_CAP {
        ledger.sweeps += 1;
        let mut sweep_fires = 0usize;
        for (i, p) in passes.iter().enumerate() {
            let fires = p.run(f, &opts);
            ledger.fires[i].1 += fires;
            sweep_fires += fires;
        }
        if sweep_fires == 0 {
            break;
        }
    }
    ledger
}

/// Optimizes a single function in place, with per-pass rewrite events.
pub fn optimize_func_traced(f: &mut FuncIr, opts: OptOptions, trace: &TraceHandle) {
    let instrs_before = f.instr_count();
    let ledger = optimize_func_ledger(f, opts);
    for (pass, fires) in &ledger.fires {
        if *fires > 0 {
            trace.emit(|| {
                Event::new("opt", "pass")
                    .field("func", f.name.as_str())
                    .field("pass", *pass)
                    .field("fires", *fires)
            });
        }
    }
    trace.emit(|| {
        Event::new("opt", "function")
            .field("func", f.name.as_str())
            .field("instrs_before", instrs_before)
            .field("instrs_after", f.instr_count())
            .field("sweeps", ledger.sweeps)
            .field("reassociations", ledger.fires_for("reassociate"))
            .field("licm_hoists", ledger.fires_for("licm"))
            .field("scheduler_moves", ledger.fires_for("schedule_early"))
    });
}

/// Per temp (indexed by number): how many operand slots read it.
pub(crate) fn count_uses(f: &FuncIr) -> Vec<usize> {
    let mut uses = vec![0usize; f.temp_count as usize];
    let mut buf = Vec::new();
    for b in &f.blocks {
        for ins in &b.instrs {
            buf.clear();
            ins.uses(&mut buf);
            for &t in &buf {
                uses[t.0 as usize] += 1;
            }
        }
    }
    uses
}

/// A pure expression as a value-numbering key (gvn, cse): a binary
/// operation over two operands, or the address of a frame slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Expr {
    Bin(BinIr, Operand, Operand),
    Frame(u32),
}

impl Expr {
    /// The key of `ins` as written (no operand canonicalisation), if it
    /// is a binary operation or a frame address.
    pub(crate) fn of(ins: &Instr) -> Option<Expr> {
        match ins {
            Instr::Bin { op, a, b, .. } => Some(Expr::Bin(*op, *a, *b)),
            Instr::FrameAddr { offset, .. } => Some(Expr::Frame(*offset)),
            _ => None,
        }
    }

    /// Whether the expression reads `t`.
    pub(crate) fn reads(self, t: Temp) -> bool {
        matches!(self, Expr::Bin(_, a, b) if a.as_temp() == Some(t) || b.as_temp() == Some(t))
    }
}

pub(crate) fn rewrite_operands(ins: &mut Instr, mut f: impl FnMut(Operand) -> Operand) {
    match ins {
        Instr::Mov { src, .. } => *src = f(*src),
        Instr::Bin { a, b, .. } => {
            *a = f(*a);
            *b = f(*b);
        }
        Instr::Load { addr, .. } => *addr = f(*addr),
        Instr::Store { addr, value, .. } => {
            *addr = f(*addr);
            *value = f(*value);
        }
        Instr::MemCopy {
            dst_addr, src_addr, ..
        } => {
            *dst_addr = f(*dst_addr);
            *src_addr = f(*src_addr);
        }
        Instr::Call { target, args, .. } => {
            if let CallTarget::Indirect(o) = target {
                *o = f(*o);
            }
            for a in args {
                *a = f(*a);
            }
        }
        Instr::KeepLive { value, base, .. } => {
            *value = f(*value);
            if let Some(b) = base {
                *b = f(*b);
            }
        }
        Instr::CheckSame { value, base, .. } => {
            *value = f(*value);
            *base = f(*base);
        }
        Instr::Ret { value: Some(v) } => *v = f(*v),
        Instr::Branch { cond, .. } => *cond = f(*cond),
        Instr::Const { .. }
        | Instr::FrameAddr { .. }
        | Instr::Ret { value: None }
        | Instr::Jump { .. } => {}
    }
}
