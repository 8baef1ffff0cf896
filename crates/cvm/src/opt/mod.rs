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
//! * [`gvn`] merges recomputations across blocks, stretching a derived
//!   pointer's live range over call-bearing paths;
//! * [`strength_reduce`] turns `a + i*s` indexing into a pointer that is
//!   *incremented* around the loop — an interior pointer that may be the
//!   only surviving reference when an in-loop allocation collects;
//! * [`dse`] deletes heap stores that are overwritten before any read —
//!   it stops at calls precisely because a call is a collection point and
//!   the store may be what makes a pointer findable.
//!
//! With annotations, none of these passes is blocked; the `KeepLive`
//! *base* use simply keeps the original pointer live across the call,
//! which is the whole trick.
//!
//! # Driver
//!
//! Passes implement [`Pass`] and are registered (in order) in
//! [`registry`]. The driver sweeps the registered pipeline repeatedly
//! until a full sweep reports zero changes, or [`FIXPOINT_SWEEP_CAP`]
//! sweeps have run. Termination is argued pass-by-pass: every rewrite
//! either strictly removes an instruction (dce, dse, cse/gvn duplicates
//! become moves that copy-prop + dce retire), replaces an instruction
//! with a strictly simpler form that no pass re-complicates (const_fold,
//! sccp rewrites toward constants; `Mul`→`Shl` is one-way), or moves a
//! computation to a place where its own guard no longer fires
//! (reassociate refuses displaced bases it already created, licm's
//! hoisted instructions are no longer in the loop, schedule_early finds
//! every instruction already in its earliest slot, strength reduction
//! consumes the `i*s` multiply it matched on). The cap is a backstop,
//! not a crutch — the idempotence property test asserts a second driver
//! run reports zero fires for every pass.

mod cfg;
mod dse;
mod gvn;
mod licm;
mod reassoc;
mod scalar;
mod sccp;
mod schedule;
mod strength;

#[cfg(test)]
mod tests;

pub use dse::dse;
pub use gvn::gvn;
pub use licm::licm;
pub use reassoc::reassociate;
pub use scalar::{const_fold, copy_prop, cse, dce};
pub use sccp::sccp;
pub use schedule::schedule_early;
pub use strength::strength_reduce;

use crate::ir::*;
use gctrace::{Event, TraceHandle};

/// Optimizer configuration: one enable flag per gated pass, so the
/// fuzzer's five-mode oracle can bisect a divergence to the pass that
/// introduced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptOptions {
    /// Master switch (false = `-g`-style unoptimized code).
    pub enabled: bool,
    /// Run the displacement reassociation pass.
    pub reassociate: bool,
    /// Run the eager scheduler.
    pub schedule: bool,
    /// Run loop-invariant code motion.
    pub licm: bool,
    /// Run global value numbering.
    pub gvn: bool,
    /// Run sparse conditional constant propagation.
    pub sccp: bool,
    /// Run dead-store elimination.
    pub dse: bool,
    /// Run strength reduction on address arithmetic.
    pub strength: bool,
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
            dse: true,
            strength: true,
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
            dse: false,
            strength: false,
        }
    }
}

/// A registered optimization pass.
///
/// `run` applies the pass once and returns the number of rewrites it
/// performed; the fixpoint driver sums these per sweep and stops when a
/// full sweep fires nothing. A pass must report zero once it has nothing
/// left to do — a pass that "fires" without changing the function would
/// spin the driver into its sweep cap.
pub trait Pass: Sync {
    /// Stable name used in trace events, Prometheus labels, and tables.
    fn name(&self) -> &'static str;
    /// Whether this pass is enabled under the given options.
    fn enabled(&self, opts: &OptOptions) -> bool;
    /// Apply the pass once; returns the number of rewrites.
    fn run(&self, f: &mut FuncIr) -> usize;
}

macro_rules! register_pass {
    ($ty:ident, $name:literal, $gate:expr, $run:expr) => {
        struct $ty;
        impl Pass for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn enabled(&self, opts: &OptOptions) -> bool {
                let gate: fn(&OptOptions) -> bool = $gate;
                gate(opts)
            }
            fn run(&self, f: &mut FuncIr) -> usize {
                let run: fn(&mut FuncIr) -> usize = $run;
                run(f)
            }
        }
    };
}

register_pass!(CopyProp, "copy_prop", |_| true, copy_prop);
register_pass!(Sccp, "sccp", |o| o.sccp, sccp);
register_pass!(ConstFold, "const_fold", |_| true, const_fold);
register_pass!(Reassociate, "reassociate", |o| o.reassociate, reassociate);
register_pass!(Gvn, "gvn", |o| o.gvn, gvn);
register_pass!(Cse, "cse", |_| true, cse);
register_pass!(Dse, "dse", |o| o.dse, dse);
register_pass!(Licm, "licm", |o| o.licm, licm);
register_pass!(Strength, "strength", |o| o.strength, strength_reduce);
register_pass!(Dce, "dce", |_| true, dce);
register_pass!(
    ScheduleEarly,
    "schedule_early",
    |o| o.schedule,
    schedule_early
);

/// The registered pipeline, in sweep order. Ordering rationale:
/// copy/constant facts first (copy_prop, sccp, const_fold) so the
/// pattern-matching passes see canonical operands; reassociate before
/// gvn/cse so displaced bases participate in value numbering; dse after
/// cse's load elimination; licm before strength reduction so invariant
/// operands are already hoisted when induction candidates are matched;
/// dce sweeps the corpses; the scheduler runs last because it only moves
/// instructions that survived.
pub fn registry() -> &'static [&'static dyn Pass] {
    const REGISTRY: &[&'static dyn Pass] = &[
        &CopyProp,
        &Sccp,
        &ConstFold,
        &Reassociate,
        &Gvn,
        &Cse,
        &Dse,
        &Licm,
        &Strength,
        &Dce,
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

/// Optimizes every function of a program in place.
pub fn optimize(prog: &mut ProgramIr, opts: OptOptions) {
    optimize_traced(prog, opts, &TraceHandle::disabled());
}

/// [`optimize`] with a trace: emits one `("opt", "pass")` event per
/// registered pass that fired and one `("opt", "function")` summary per
/// function.
pub fn optimize_traced(prog: &mut ProgramIr, opts: OptOptions, trace: &TraceHandle) {
    if !opts.enabled {
        return;
    }
    for f in &mut prog.funcs {
        optimize_func_traced(f, opts, trace);
    }
}

/// Optimizes a single function in place.
pub fn optimize_func(f: &mut FuncIr, opts: OptOptions) {
    optimize_func_traced(f, opts, &TraceHandle::disabled());
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
            if !p.enabled(&opts) {
                continue;
            }
            let fires = p.run(f);
            ledger.fires[i].1 += fires;
            sweep_fires += fires;
        }
        if sweep_fires == 0 {
            break;
        }
    }
    ledger
}

/// [`optimize_func`] with per-pass rewrite events.
pub fn optimize_func_traced(f: &mut FuncIr, opts: OptOptions, trace: &TraceHandle) {
    let instrs_before = instr_count(f);
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
            .field("instrs_after", instr_count(f))
            .field("sweeps", ledger.sweeps)
            .field("reassociations", ledger.fires_for("reassociate"))
            .field("licm_hoists", ledger.fires_for("licm"))
            .field("scheduler_moves", ledger.fires_for("schedule_early"))
    });
}

pub(crate) fn instr_count(f: &FuncIr) -> usize {
    f.blocks.iter().map(|b| b.instrs.len()).sum()
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
