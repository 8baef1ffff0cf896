//! The peephole postprocessor ("A Postprocessor" section).
//!
//! "It first performs a simple global, intraprocedural analysis that
//! allows us to identify possible uses of register values. It subsequently
//! looks for one of the following three patterns inside each basic block
//! and transforms them appropriately:
//!
//! 1. `add x,y,z; …; ld [z]`   →  `…; ld [x+y]`
//! 2. `mov x,z;   …; …z…`      →  `…; …x…`
//! 3. `add x,y,z; mov z,w`     →  `add x,y,w`
//!
//! … the important \[constraint\] is that the register z should have no
//! other uses. … The transformation could not apply if z were originally
//! mentioned as the second argument of a KEEP_LIVE."
//!
//! The "no other uses" condition is a *value*-level condition checked with
//! a global register liveness analysis (the paper's "simple global,
//! intraprocedural analysis"): the value in `z` must die at its single
//! consumer. `KEEP_LIVE` markers participate: a marker's base registers
//! are live (that is the marker's whole point) and block any rewrite that
//! would lose them — the paper's safety arguments (1)–(3) hold verbatim.
//!
//! The liveness is solved once up front and solved again only after a
//! pattern rewrites. Reusing it until then is exact, not an
//! approximation: every pattern returns after its first rewrite, and a
//! pattern that rewrote nothing left the function untouched, so the
//! liveness in hand is still the function's liveness when the next
//! pattern, block or round consults it.

use crate::asm::{AsmFunc, AsmInstr, Reg, RegImm};
use gctrace::{Event, TraceHandle};

/// What the postprocessor did to one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// Pattern 1 applications (load folding).
    pub loads_folded: usize,
    /// Pattern 2 applications (copy forwarding).
    pub movs_forwarded: usize,
    /// Pattern 3 applications (add/mov fusion).
    pub add_movs_fused: usize,
}

impl PeepholeStats {
    /// Total rewrites applied.
    pub fn total(&self) -> usize {
        self.loads_folded + self.movs_forwarded + self.add_movs_fused
    }

    fn merge(&mut self, other: PeepholeStats) {
        self.loads_folded += other.loads_folded;
        self.movs_forwarded += other.movs_forwarded;
        self.add_movs_fused += other.add_movs_fused;
    }
}

/// Runs the postprocessor over a whole program.
pub fn postprocess_program(funcs: &mut [AsmFunc]) -> PeepholeStats {
    postprocess_program_traced(funcs, &TraceHandle::disabled())
}

/// [`postprocess_program`] with a trace: emits one
/// `("peephole", "function")` event per function whose code the
/// postprocessor changed, carrying the per-pattern rewrite counts and the
/// size delta.
pub fn postprocess_program_traced(funcs: &mut [AsmFunc], trace: &TraceHandle) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    for f in funcs {
        let size_before = f.size_bytes();
        let fs = postprocess(f);
        stats.merge(fs);
        if fs.total() > 0 {
            trace.emit(|| {
                Event::new("peephole", "function")
                    .field("func", f.name.as_str())
                    .field("loads_folded", fs.loads_folded)
                    .field("movs_forwarded", fs.movs_forwarded)
                    .field("add_movs_fused", fs.add_movs_fused)
                    .field("size_before", size_before)
                    .field("size_after", f.size_bytes())
            });
        }
    }
    stats
}

/// Runs the postprocessor over one function until no pattern applies.
pub fn postprocess(f: &mut AsmFunc) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    let mut lv = AsmLiveness::compute(f);
    loop {
        let round = one_round(f, &mut lv);
        if round.total() == 0 {
            return stats;
        }
        stats.merge(round);
    }
}

/// Successor block indices of block `bi` (Bcc targets, Ba target, and the
/// fallthrough when the block does not end in `ba`/`ret`).
fn successors(f: &AsmFunc, bi: usize) -> Vec<usize> {
    let b = &f.blocks[bi];
    let mut out = Vec::new();
    for ins in &b.instrs {
        if let AsmInstr::Bcc { target, .. } = ins {
            out.push(*target as usize);
        }
    }
    match b.instrs.last() {
        Some(AsmInstr::Ba { target }) => out.push(*target as usize),
        Some(AsmInstr::Ret) => {}
        _ => {
            if bi + 1 < f.blocks.len() {
                out.push(bi + 1);
            }
        }
    }
    out.retain(|&s| s < f.blocks.len());
    out
}

/// A set of machine registers, one bit per [`Reg`] (a `u8`): every set
/// operation is four word operations and none allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegSet([u64; 4]);

impl RegSet {
    const ALL: RegSet = RegSet([u64::MAX; 4]);

    /// Adds `r`.
    pub fn insert(&mut self, r: Reg) {
        self.0[usize::from(r.0 / 64)] |= 1 << (r.0 % 64);
    }

    fn remove(&mut self, r: Reg) {
        self.0[usize::from(r.0 / 64)] &= !(1 << (r.0 % 64));
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: Reg) -> bool {
        self.0[usize::from(r.0 / 64)] & (1 << (r.0 % 64)) != 0
    }

    fn union(self, other: RegSet) -> RegSet {
        RegSet(std::array::from_fn(|w| self.0[w] | other.0[w]))
    }

    fn intersection(self, other: RegSet) -> RegSet {
        RegSet(std::array::from_fn(|w| self.0[w] & other.0[w]))
    }

    fn difference(self, other: RegSet) -> RegSet {
        RegSet(std::array::from_fn(|w| self.0[w] & !other.0[w]))
    }
}

/// Global register liveness over the assembly — the paper's "simple
/// global, intraprocedural analysis".
pub struct AsmLiveness {
    /// Registers live at each block entry.
    pub live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl AsmLiveness {
    /// Computes liveness for a function. `KEEP_LIVE` markers read both
    /// their value and base registers, so protected values stay live.
    pub fn compute(f: &AsmFunc) -> AsmLiveness {
        let nb = f.blocks.len();
        let succs: Vec<Vec<usize>> = (0..nb).map(|bi| successors(f, bi)).collect();
        // Per block, the registers read before any write in it (`uses`)
        // and the registers it writes (`defs`): live_in is then
        // uses ∪ (live_out − defs).
        let mut uses = vec![RegSet::default(); nb];
        let mut defs = vec![RegSet::default(); nb];
        for (bi, b) in f.blocks.iter().enumerate() {
            for ins in b.instrs.iter().rev() {
                if let Some(d) = ins.writes() {
                    uses[bi].remove(d);
                    defs[bi].insert(d);
                }
                for r in ins.reads() {
                    uses[bi].insert(r);
                }
            }
        }
        let mut live_in = vec![RegSet::default(); nb];
        let mut live_out = vec![RegSet::default(); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nb).rev() {
                let out = succs[bi]
                    .iter()
                    .fold(RegSet::default(), |acc, &s| acc.union(live_in[s]));
                let inn = uses[bi].union(out.difference(defs[bi]));
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        AsmLiveness { live_in, live_out }
    }

    /// Whether register `r` is live immediately *after* instruction `idx`
    /// of block `bi`: the first later instruction of the block that
    /// mentions `r` reads it, or none does and `r` is live out of the
    /// block.
    pub fn live_after(&self, f: &AsmFunc, bi: usize, idx: usize, r: Reg) -> bool {
        for ins in f.blocks[bi].instrs.iter().skip(idx + 1) {
            if ins.reads().any(|x| x == r) {
                return true;
            }
            if ins.writes() == Some(r) {
                return false;
            }
        }
        self.live_out[bi].contains(r)
    }
}

/// One pattern: applies at most one rewrite inside block `bi`.
type Pattern = fn(&mut AsmFunc, usize, &AsmLiveness) -> PeepholeStats;

/// One pass of the three patterns over every block. `lv` is `f`'s
/// liveness on entry and on return; it is solved again only after a
/// rewrite (see the module docs for why that is exact).
fn one_round(f: &mut AsmFunc, lv: &mut AsmLiveness) -> PeepholeStats {
    const PATTERNS: [Pattern; 3] = [
        pattern1_fold_load,
        pattern3_fuse_add_mov,
        pattern2_forward_mov,
    ];
    let mut stats = PeepholeStats::default();
    for bi in 0..f.blocks.len() {
        for pattern in PATTERNS {
            let applied = pattern(f, bi, lv);
            if applied.total() > 0 {
                stats.merge(applied);
                *lv = AsmLiveness::compute(f);
            }
        }
    }
    stats
}

/// Whether any instruction in `instrs` writes `r`.
fn writes_reg(instrs: &[AsmInstr], r: Reg) -> bool {
    instrs.iter().any(|i| i.writes() == Some(r))
}

/// Whether any instruction in `instrs` reads `r`, ignoring `KEEP_LIVE`
/// *value* mentions (those are retargeted when a rewrite applies) but
/// counting marker *bases* (the paper's constraint).
fn reads_reg_strict(instrs: &[AsmInstr], r: Reg) -> bool {
    instrs.iter().any(|i| match i {
        AsmInstr::KeepLive { base, .. } => *base == Some(r),
        other => other.reads().any(|x| x == r),
    })
}

/// Whether `r` is mentioned as a `KEEP_LIVE` base anywhere in `instrs`.
fn is_marker_base(instrs: &[AsmInstr], r: Reg) -> bool {
    instrs
        .iter()
        .any(|i| matches!(i, AsmInstr::KeepLive { base: Some(b), .. } if *b == r))
}

/// Pattern 1: `add x,y,z; …; ld/st [z+0]` → indexed access. Valid when the
/// value in `z` dies at the access (either the access overwrites `z` or
/// `z` is dead afterwards), nothing between reads `z` (marker values are
/// retargeted), `x`/`y` survive untouched, and `z` is not a marker base in
/// the region.
fn pattern1_fold_load(f: &mut AsmFunc, bi: usize, lv: &AsmLiveness) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    let mut i = 0;
    while i < f.blocks[bi].instrs.len() {
        let AsmInstr::Alu {
            op: crate::asm::AluOp::Add,
            rd: z,
            rs: x,
            op2,
        } = f.blocks[bi].instrs[i]
        else {
            i += 1;
            continue;
        };
        // Note z == x (or z == y) is *allowed*: deleting the add leaves the
        // old source value in the register, and the folded `ld [x+y]`
        // recombines it — the same value reaches memory. The safety checks
        // below (no reads of z in between, z dead after the access) make
        // this sound.
        // Find the consuming memory access.
        let mut consumer = None;
        {
            let b = &f.blocks[bi];
            for j in i + 1..b.instrs.len() {
                match &b.instrs[j] {
                    AsmInstr::Ld {
                        base,
                        off: RegImm::Imm(0),
                        ..
                    } if *base == z => {
                        consumer = Some(j);
                        break;
                    }
                    AsmInstr::St {
                        base,
                        off: RegImm::Imm(0),
                        rs,
                        ..
                    } if *base == z && *rs != z => {
                        consumer = Some(j);
                        break;
                    }
                    other => {
                        if other.writes() == Some(z) {
                            break;
                        }
                        if reads_reg_strict(std::slice::from_ref(other), z) {
                            break;
                        }
                    }
                }
            }
        }
        let Some(j) = consumer else {
            i += 1;
            continue;
        };
        let b = &f.blocks[bi];
        let between = &b.instrs[i + 1..j];
        // Safety constraints, per the paper's argument (1).
        let x_ok = !writes_reg(between, x);
        let y_ok = match op2 {
            RegImm::Reg(y) => !writes_reg(between, y),
            RegImm::Imm(_) => true,
        };
        let z_not_base = !is_marker_base(&b.instrs[i..=j], z);
        // The value in z must die at the access.
        let z_dies = b.instrs[j].writes() == Some(z) || !lv.live_after(f, bi, j, z);
        if !x_ok || !y_ok || !z_not_base || !z_dies {
            i += 1;
            continue;
        }
        // Apply: rewrite the access, retarget markers whose value is z to
        // the base x (their protected pointer is now represented by x+y),
        // and delete the add.
        let b = &mut f.blocks[bi];
        match &mut b.instrs[j] {
            AsmInstr::Ld { base, off, .. } | AsmInstr::St { base, off, .. } => {
                *base = x;
                *off = op2;
            }
            _ => unreachable!("consumer is a memory access"),
        }
        for mid in &mut b.instrs[i + 1..j] {
            if let AsmInstr::KeepLive { value, .. } = mid {
                if *value == z {
                    *value = x;
                }
            }
        }
        b.instrs.remove(i);
        stats.loads_folded += 1;
        return stats; // one rewrite per call; `one_round` re-solves liveness
    }
    stats
}

/// Pattern 3: `add x,y,z; mov z,w` → `add x,y,w` when the value in `z`
/// dies at the mov and `z` is not a marker base in between.
fn pattern3_fuse_add_mov(f: &mut AsmFunc, bi: usize, lv: &AsmLiveness) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    let mut i = 0;
    while i + 1 < f.blocks[bi].instrs.len() {
        let AsmInstr::Alu { op, rd: z, rs, op2 } = f.blocks[bi].instrs[i] else {
            i += 1;
            continue;
        };
        let AsmInstr::Mov {
            rd: w,
            src: RegImm::Reg(src),
        } = f.blocks[bi].instrs[i + 1]
        else {
            i += 1;
            continue;
        };
        let z_dies = !lv.live_after(f, bi, i + 1, z);
        if src != z
            || w == z
            || w == rs
            || op2 == RegImm::Reg(w)
            || !z_dies
            || is_marker_base(&f.blocks[bi].instrs[i..=i + 1], z)
        {
            i += 1;
            continue;
        }
        let b = &mut f.blocks[bi];
        b.instrs[i] = AsmInstr::Alu { op, rd: w, rs, op2 };
        b.instrs.remove(i + 1);
        stats.add_movs_fused += 1;
        return stats;
    }
    stats
}

/// Pattern 2: `mov x,z; …z…` → rewrite the uses of `z` to `x` while both
/// registers stay unmodified; delete the mov when the value in `z` dies
/// within the rewritten region.
fn pattern2_forward_mov(f: &mut AsmFunc, bi: usize, lv: &AsmLiveness) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    let mut i = 0;
    while i < f.blocks[bi].instrs.len() {
        let AsmInstr::Mov {
            rd: z,
            src: RegImm::Reg(x),
        } = f.blocks[bi].instrs[i]
        else {
            i += 1;
            continue;
        };
        if z == x || is_marker_base(&f.blocks[bi].instrs, z) {
            i += 1;
            continue;
        }
        // Scan forward: the region ends when x or z is redefined.
        let b = &f.blocks[bi];
        let mut end = b.instrs.len();
        for j in i + 1..b.instrs.len() {
            let ins = &b.instrs[j];
            if ins.writes() == Some(x) || ins.writes() == Some(z) {
                end = j;
                break;
            }
        }
        // z must be dead at the end of the region (either redefined there
        // or not live past it).
        let z_redefined = end < b.instrs.len() && b.instrs[end].writes() == Some(z);
        let z_dead_after = z_redefined
            || !region_reads(&b.instrs[end..], z) && !lv.live_after(f, bi, b.instrs.len() - 1, z);
        // The instruction that redefines z reads its operands first, so it
        // still needs the copied value: its reads of z become reads of x,
        // which nothing has written since the mov (the region ends at the
        // first write of either, and x ≠ z). `GC_same_obj` reads and
        // writes z through one operand, which renaming cannot split.
        let same_operand =
            z_redefined && matches!(b.instrs[end], AsmInstr::CheckSame { value, .. } if value == z);
        let any_use = region_reads(&b.instrs[i + 1..end], z);
        if !z_dead_after || !any_use || same_operand {
            i += 1;
            continue;
        }
        let b = &mut f.blocks[bi];
        for ins in &mut b.instrs[i + 1..end + usize::from(z_redefined)] {
            replace_reads(ins, z, x);
        }
        b.instrs.remove(i);
        stats.movs_forwarded += 1;
        return stats;
    }
    stats
}

fn region_reads(instrs: &[AsmInstr], r: Reg) -> bool {
    instrs.iter().any(|i| i.reads().any(|x| x == r))
}

fn replace_reads(ins: &mut AsmInstr, from: Reg, to: Reg) {
    let fix = |r: &mut Reg| {
        if *r == from {
            *r = to;
        }
    };
    let fix_ri = |ri: &mut RegImm| {
        if let RegImm::Reg(r) = ri {
            if *r == from {
                *r = to;
            }
        }
    };
    match ins {
        AsmInstr::Alu { rs, op2, .. } => {
            fix(rs);
            fix_ri(op2);
        }
        AsmInstr::Mov { src, .. } => fix_ri(src),
        AsmInstr::SetImm { .. } => {}
        AsmInstr::Ld { base, off, .. } => {
            fix(base);
            fix_ri(off);
        }
        AsmInstr::St { rs, base, off, .. } => {
            fix(rs);
            fix(base);
            fix_ri(off);
        }
        AsmInstr::SetCc { a, b, .. } | AsmInstr::Bcc { a, b, .. } => {
            fix(a);
            fix_ri(b);
        }
        AsmInstr::Ba { .. } | AsmInstr::Ret => {}
        AsmInstr::Call { target, .. } => {
            if let crate::asm::AsmCallTarget::Indirect(r) = target {
                fix(r);
            }
        }
        AsmInstr::KeepLive { value, base } => {
            fix(value);
            if let Some(b) = base {
                fix(b);
            }
        }
        AsmInstr::CheckSame { value, base } => {
            fix(value);
            fix(base);
        }
        AsmInstr::BlockCopy { dst, src, .. } => {
            fix(dst);
            fix(src);
        }
    }
}

/// Checks that every `KEEP_LIVE` marker's base register set is unchanged
/// between two versions of a function — the postprocessor "cannot
/// invalidate KEEP_LIVE semantics".
pub fn keep_live_bases_preserved(before: &AsmFunc, after: &AsmFunc) -> bool {
    let collect = |f: &AsmFunc| -> Vec<Option<Reg>> {
        f.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                AsmInstr::KeepLive { base, .. } => Some(*base),
                _ => None,
            })
            .collect()
    };
    collect(before) == collect(after)
}

/// Def-before-use sanity check over a function's assembly: every register
/// read must be preceded by a write on every path, counting the
/// `predefined` registers as written at entry. Used by tests to prove the
/// postprocessor never manufactures reads of undefined registers.
pub fn defined_before_use(f: &AsmFunc, predefined: RegSet) -> bool {
    // Forward dataflow: set of definitely-defined registers per block entry.
    let nb = f.blocks.len();
    let mut defined_in = vec![RegSet::ALL; nb];
    defined_in[0] = predefined;
    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nb {
            let mut cur = defined_in[bi];
            for ins in &f.blocks[bi].instrs {
                if let Some(d) = ins.writes() {
                    cur.insert(d);
                }
            }
            for s in successors(f, bi) {
                let merged = defined_in[s].intersection(cur);
                if merged != defined_in[s] {
                    defined_in[s] = merged;
                    changed = true;
                }
            }
        }
    }
    // Check every read.
    for (bi, &entry) in defined_in.iter().enumerate() {
        let mut cur = entry;
        for ins in &f.blocks[bi].instrs {
            if ins.reads().any(|r| !cur.contains(r)) {
                return false;
            }
            if let Some(d) = ins.writes() {
                cur.insert(d);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{AluOp, AsmBlock};

    fn block(instrs: Vec<AsmInstr>) -> AsmFunc {
        AsmFunc {
            name: "t".into(),
            blocks: vec![AsmBlock { instrs }],
            spill_count: 0,
        }
    }

    fn add(z: u8, x: u8, y: RegImm) -> AsmInstr {
        AsmInstr::Alu {
            op: AluOp::Add,
            rd: Reg(z),
            rs: Reg(x),
            op2: y,
        }
    }

    fn ld(rd: u8, base: u8) -> AsmInstr {
        AsmInstr::Ld {
            rd: Reg(rd),
            base: Reg(base),
            off: RegImm::Imm(0),
            width: 8,
            signed: false,
        }
    }

    #[test]
    fn pattern1_folds_the_papers_sequence() {
        // add %o0,1,%g2 ; ! keep_live ; ldsb [%g2] → ldsb [%o0+1]
        let mut f = block(vec![
            add(2, 1, RegImm::Imm(1)),
            AsmInstr::KeepLive {
                value: Reg(2),
                base: Some(Reg(1)),
            },
            ld(3, 2),
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert_eq!(stats.loads_folded, 1);
        let listing = f.listing();
        assert!(listing.contains("[%r1+1]"), "{listing}");
        assert!(listing.contains("keep_live"), "marker survives: {listing}");
    }

    #[test]
    fn pattern1_folds_with_register_reuse() {
        // Coalesced form: add r1,r2,r1 ; keep_live r1 ; ld [r1+0],r1 — the
        // value in r1 dies at the load; deleting the add leaves old r1,
        // and ld [r1+r2] recomputes the same address.
        let mut f = block(vec![
            add(1, 1, RegImm::Reg(Reg(2))),
            AsmInstr::KeepLive {
                value: Reg(1),
                base: Some(Reg(3)),
            },
            ld(1, 1),
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert_eq!(stats.loads_folded, 1, "{}", f.listing());
        assert!(f.listing().contains("[%r1+%r2]"), "{}", f.listing());
        // Distinct registers fold too.
        let mut f = block(vec![
            add(4, 1, RegImm::Reg(Reg(2))),
            AsmInstr::KeepLive {
                value: Reg(4),
                base: Some(Reg(3)),
            },
            ld(4, 4),
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert_eq!(stats.loads_folded, 1);
        assert!(f.listing().contains("[%r1+%r2]"), "{}", f.listing());
    }

    #[test]
    fn pattern1_refuses_protected_base() {
        // z is itself a KEEP_LIVE base: must not fold.
        let mut f = block(vec![
            add(2, 1, RegImm::Imm(1)),
            AsmInstr::KeepLive {
                value: Reg(4),
                base: Some(Reg(2)),
            },
            ld(3, 2),
            AsmInstr::Ret,
        ]);
        let before = f.clone();
        let stats = postprocess(&mut f);
        assert_eq!(stats.loads_folded, 0);
        assert_eq!(f, before);
    }

    #[test]
    fn pattern1_refuses_when_x_redefined() {
        let mut f = block(vec![
            add(2, 1, RegImm::Imm(1)),
            AsmInstr::SetImm {
                rd: Reg(1),
                value: 0,
            }, // clobbers x
            ld(3, 2),
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert_eq!(stats.loads_folded, 0);
    }

    #[test]
    fn pattern1_refuses_when_z_live_after() {
        let mut f = block(vec![
            add(2, 1, RegImm::Imm(1)),
            ld(3, 2),
            AsmInstr::Mov {
                rd: Reg(5),
                src: RegImm::Reg(Reg(2)),
            }, // z read later
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert_eq!(stats.loads_folded, 0);
    }

    #[test]
    fn pattern3_fuses_add_mov() {
        let mut f = block(vec![
            add(2, 1, RegImm::Reg(Reg(4))),
            AsmInstr::Mov {
                rd: Reg(5),
                src: RegImm::Reg(Reg(2)),
            },
            AsmInstr::St {
                rs: Reg(5),
                base: Reg(6),
                off: RegImm::Imm(0),
                width: 8,
            },
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert!(stats.add_movs_fused >= 1);
        assert!(matches!(
            f.blocks[0].instrs[0],
            AsmInstr::Alu { rd: Reg(5), .. }
        ));
    }

    #[test]
    fn pattern2_forwards_copies() {
        let mut f = block(vec![
            AsmInstr::Mov {
                rd: Reg(2),
                src: RegImm::Reg(Reg(1)),
            },
            AsmInstr::Alu {
                op: AluOp::Add,
                rd: Reg(3),
                rs: Reg(2),
                op2: RegImm::Imm(4),
            },
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert_eq!(stats.movs_forwarded, 1);
        assert!(matches!(
            f.blocks[0].instrs[0],
            AsmInstr::Alu { rs: Reg(1), .. }
        ));
    }

    #[test]
    fn pattern2_keeps_mov_when_x_clobbered() {
        let mut f = block(vec![
            AsmInstr::Mov {
                rd: Reg(2),
                src: RegImm::Reg(Reg(1)),
            },
            AsmInstr::SetImm {
                rd: Reg(1),
                value: 9,
            },
            AsmInstr::Alu {
                op: AluOp::Add,
                rd: Reg(3),
                rs: Reg(2),
                op2: RegImm::Imm(4),
            },
            AsmInstr::Ret,
        ]);
        let stats = postprocess(&mut f);
        assert_eq!(
            stats.movs_forwarded, 0,
            "z used after x changed: keep the mov"
        );
    }

    #[test]
    fn pattern2_never_leaves_a_stale_read_of_z() {
        // mov %r1,%r2; add %r2,4,%r3; add %r2,1,%r2; stx %r2,[%r3]: the
        // region of z = %r2 ends at the add that redefines it, and that
        // add must read x = %r1 once the mov is gone.
        let mut f = block(vec![
            mov(2, 1),
            add(3, 2, RegImm::Imm(4)),
            add(2, 2, RegImm::Imm(1)),
            st(2, 3, RegImm::Imm(0)),
            AsmInstr::Ret,
        ]);
        let before = f.clone();
        let stats = postprocess(&mut f);
        assert_eq!((stats.movs_forwarded, stats.loads_folded), (1, 1));
        assert_eq!(
            f.blocks[0].instrs,
            vec![
                add(2, 1, RegImm::Imm(1)),
                st(2, 1, RegImm::Imm(4)),
                AsmInstr::Ret
            ],
            "{}",
            f.listing()
        );
        assert_eq!(memory_trace(&f), memory_trace(&before));
        // GC_same_obj reads and writes z through one operand, which
        // cannot be renamed apart: the mov stays.
        let mut f = block(vec![
            mov(2, 1),
            add(3, 2, RegImm::Imm(4)),
            AsmInstr::CheckSame {
                value: Reg(2),
                base: Reg(4),
            },
            st(2, 3, RegImm::Imm(0)),
            AsmInstr::Ret,
        ]);
        let before = f.clone();
        assert_eq!(postprocess(&mut f).total(), 0, "{}", f.listing());
        assert_eq!(f, before);
    }

    /// xorshift64*, seeded per test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    fn mov(rd: u8, rs: u8) -> AsmInstr {
        AsmInstr::Mov {
            rd: Reg(rd),
            src: RegImm::Reg(Reg(rs)),
        }
    }

    fn st(rs: u8, base: u8, off: RegImm) -> AsmInstr {
        AsmInstr::St {
            rs: Reg(rs),
            base: Reg(base),
            off,
            width: 8,
        }
    }

    /// A straight-line block over `%r1`–`%r6` of the instructions the
    /// patterns rewrite or must respect, ending in `ret`.
    fn random_block(rng: &mut Rng) -> AsmFunc {
        let reg = |rng: &mut Rng| Reg(1 + rng.below(6) as u8);
        let operand = |rng: &mut Rng| match rng.below(3) {
            0 => RegImm::Imm(rng.below(3) as i64 * 8),
            _ => RegImm::Reg(reg(rng)),
        };
        let offset = |rng: &mut Rng| match rng.below(4) {
            0 => RegImm::Reg(reg(rng)),
            1 => RegImm::Imm(8),
            _ => RegImm::Imm(0),
        };
        let len = 2 + rng.below(11);
        let mut instrs = Vec::new();
        for _ in 0..len {
            instrs.push(match rng.below(10) {
                0..=2 => AsmInstr::Alu {
                    op: AluOp::Add,
                    rd: reg(rng),
                    rs: reg(rng),
                    op2: operand(rng),
                },
                3 | 4 => AsmInstr::Mov {
                    rd: reg(rng),
                    src: RegImm::Reg(reg(rng)),
                },
                5 => AsmInstr::SetImm {
                    rd: reg(rng),
                    value: rng.below(64) as i64,
                },
                6 => AsmInstr::Ld {
                    rd: reg(rng),
                    base: reg(rng),
                    off: offset(rng),
                    width: 8,
                    signed: false,
                },
                7 => AsmInstr::St {
                    rs: reg(rng),
                    base: reg(rng),
                    off: offset(rng),
                    width: 8,
                },
                8 => AsmInstr::KeepLive {
                    value: reg(rng),
                    base: (rng.below(4) != 0).then(|| reg(rng)),
                },
                _ => AsmInstr::CheckSame {
                    value: reg(rng),
                    base: reg(rng),
                },
            });
        }
        instrs.push(AsmInstr::Ret);
        block(instrs)
    }

    /// Runs a one-block function on a concrete machine and returns the
    /// (address, value) pair of every load and store, in order. Registers
    /// start out distinct, memory never written reads a function of its
    /// address, `GC_same_obj` returns its first argument, and `KEEP_LIVE`
    /// does nothing.
    fn memory_trace(f: &AsmFunc) -> Vec<(i64, i64)> {
        let mut regs: [i64; 256] = std::array::from_fn(|r| 0x1000 * r as i64 + 8);
        let mut mem = std::collections::BTreeMap::new();
        let mut trace = Vec::new();
        let at = |r: Reg| usize::from(r.0);
        for ins in &f.blocks[0].instrs {
            let val = |o: RegImm, regs: &[i64; 256]| match o {
                RegImm::Reg(r) => regs[at(r)],
                RegImm::Imm(v) => v,
            };
            match *ins {
                AsmInstr::Alu {
                    op: AluOp::Add,
                    rd,
                    rs,
                    op2,
                } => regs[at(rd)] = regs[at(rs)].wrapping_add(val(op2, &regs)),
                AsmInstr::Mov { rd, src } => regs[at(rd)] = val(src, &regs),
                AsmInstr::SetImm { rd, value } => regs[at(rd)] = value,
                AsmInstr::Ld { rd, base, off, .. } => {
                    let addr = regs[at(base)].wrapping_add(val(off, &regs));
                    let value = *mem.get(&addr).unwrap_or(&(addr ^ 0x5a5a));
                    trace.push((addr, value));
                    regs[at(rd)] = value;
                }
                AsmInstr::St { rs, base, off, .. } => {
                    let addr = regs[at(base)].wrapping_add(val(off, &regs));
                    trace.push((addr, regs[at(rs)]));
                    mem.insert(addr, regs[at(rs)]);
                }
                AsmInstr::KeepLive { .. } | AsmInstr::CheckSame { .. } | AsmInstr::Ret => {}
                ref other => unreachable!("not generated: {other}"),
            }
        }
        trace
    }

    #[test]
    fn postprocess_preserves_the_memory_trace_of_random_blocks() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let mut fired = PeepholeStats::default();
        for case in 0..20_000 {
            let before = random_block(&mut rng);
            let mut after = before.clone();
            fired.merge(postprocess(&mut after));
            assert_eq!(
                memory_trace(&after),
                memory_trace(&before),
                "case {case}: before\n{}after\n{}",
                before.listing(),
                after.listing()
            );
        }
        // Every pattern fires, so the property covers each rewrite.
        assert!(
            fired.loads_folded > 0 && fired.movs_forwarded > 0 && fired.add_movs_fused > 0,
            "{fired:?}"
        );
    }

    #[test]
    fn postprocess_reduces_size_and_preserves_markers() {
        let mut f = block(vec![
            add(2, 1, RegImm::Imm(8)),
            AsmInstr::KeepLive {
                value: Reg(2),
                base: Some(Reg(1)),
            },
            ld(3, 2),
            AsmInstr::Ret,
        ]);
        let before = f.clone();
        let before_size = f.size_bytes();
        postprocess(&mut f);
        assert!(f.size_bytes() < before_size);
        assert!(keep_live_bases_preserved(&before, &f));
    }

    #[test]
    fn traced_postprocess_reports_per_function_rewrites() {
        let mut f = block(vec![
            add(2, 1, RegImm::Imm(8)),
            AsmInstr::KeepLive {
                value: Reg(2),
                base: Some(Reg(1)),
            },
            ld(3, 2),
            AsmInstr::Ret,
        ]);
        let (trace, sink) = TraceHandle::memory();
        let stats = postprocess_program_traced(std::slice::from_mut(&mut f), &trace);
        assert_eq!(stats.loads_folded, 1);
        let events = sink.snapshot();
        assert_eq!(events.len(), 1, "one changed function, one event");
        let e = &events[0];
        assert_eq!((e.stage, e.kind), ("peephole", "function"));
        assert_eq!(e.get("func"), Some(&gctrace::Value::Str("t".into())));
        assert_eq!(e.get("loads_folded"), Some(&gctrace::Value::UInt(1)));
        let before = match e.get("size_before") {
            Some(gctrace::Value::UInt(v)) => *v,
            other => panic!("size_before missing: {other:?}"),
        };
        let after = match e.get("size_after") {
            Some(gctrace::Value::UInt(v)) => *v,
            other => panic!("size_after missing: {other:?}"),
        };
        assert!(after < before, "folding shrank the code");
        // Untouched functions stay silent.
        let mut quiet = block(vec![AsmInstr::Ret]);
        let (trace, sink) = TraceHandle::memory();
        postprocess_program_traced(std::slice::from_mut(&mut quiet), &trace);
        assert!(sink.is_empty());
    }

    #[test]
    fn liveness_respects_branches() {
        // r1 live into the branch target.
        let f = AsmFunc {
            name: "t".into(),
            blocks: vec![
                AsmBlock {
                    instrs: vec![
                        AsmInstr::SetImm {
                            rd: Reg(1),
                            value: 5,
                        },
                        AsmInstr::Bcc {
                            cond: crate::asm::Cond::Ne,
                            a: Reg(2),
                            b: RegImm::Imm(0),
                            target: 1,
                        },
                    ],
                },
                AsmBlock {
                    instrs: vec![
                        AsmInstr::Mov {
                            rd: Reg(3),
                            src: RegImm::Reg(Reg(1)),
                        },
                        AsmInstr::Ret,
                    ],
                },
            ],
            spill_count: 0,
        };
        let lv = AsmLiveness::compute(&f);
        assert!(lv.live_in[1].contains(Reg(1)));
        assert!(lv.live_after(&f, 0, 0, Reg(1)));
    }
}
