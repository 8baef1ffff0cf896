//! Code generation: IR → SPARC-like assembly.
//!
//! Linear-scan register allocation over a machine's register budget (with
//! `%r0` reserved as the frame pointer and the two highest registers as
//! spill scratch), instruction selection with the two foldings real
//! compilers do and the paper's analysis section revolves around:
//!
//! * **address folding** — a single-use `add` feeding a load/store becomes
//!   the load's `[x+y]` addressing mode. A `KEEP_LIVE` result is never an
//!   `add`, so annotated addresses do *not* fold: that is the safe-mode
//!   `add; (empty asm); ldsb` sequence of the paper's Analysis section;
//! * **compare folding** — a single-use comparison feeding a branch
//!   becomes a fused `cmp; bcc`.
//!
//! Generation is linear in the function's size. Each temp's use count,
//! which the single-use tests read, is taken once per function, and the
//! allocator's intervals, hints and locations are vectors indexed by temp:
//! sized from `temp_count`, grown for a temp numbered past it, and read as
//! "no entry" past their end, as a missing map key was. Intervals are
//! allocated in `(start, temp)` order, a temp's hint is its last
//! `Mov`/`KeepLive`/`CheckSame` definition, and the spill choice is the
//! interval that ends last, so the same IR gives the same listing.

use crate::asm::*;
use crate::cost::Machine;
use cvm::ir::{BinIr, Block, CallTarget, FuncIr, Instr, Operand, Temp};
use cvm::liveness::Liveness;

/// Where a temp lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    /// Frame offset of the spill slot.
    Spill(u32),
}

/// The frame-pointer register.
pub const FP: Reg = Reg(0);

/// Generates assembly for every function of a program.
pub fn codegen_program(prog: &cvm::ProgramIr, machine: &Machine) -> Vec<AsmFunc> {
    prog.funcs
        .iter()
        .map(|f| codegen_func(f, machine))
        .collect()
}

/// Generates assembly for one function.
pub fn codegen_func(func: &FuncIr, machine: &Machine) -> AsmFunc {
    let uses = use_counts(func);
    let alloc = allocate(func, machine);
    let blocks = func
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| emit_block(bi, b, &uses, &alloc))
        .collect();
    AsmFunc {
        name: func.name.clone(),
        blocks,
        spill_count: alloc.spill_count,
    }
}

/// The entry for `t` in a table indexed by temp, growing the table for a
/// temp numbered past it.
fn entry<T: Clone + Default>(table: &mut Vec<T>, t: Temp) -> &mut T {
    let i = t.0 as usize;
    if i >= table.len() {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

/// The entry for `t` in a table indexed by temp; `None` past its end.
fn lookup<T: Copy>(table: &[Option<T>], t: Temp) -> Option<T> {
    table.get(t.0 as usize).copied().flatten()
}

/// How many times each temp is used across the function, indexed by temp.
fn use_counts(func: &FuncIr) -> Vec<u32> {
    let mut counts = vec![0; func.temp_count as usize];
    let mut buf = Vec::new();
    for ins in func.blocks.iter().flat_map(|b| &b.instrs) {
        buf.clear();
        ins.uses(&mut buf);
        for &t in &buf {
            *entry(&mut counts, t) += 1;
        }
    }
    counts
}

struct Allocation {
    /// Per temp, where it lives; `None` for a temp with no interval.
    locs: Vec<Option<Loc>>,
    spill_count: u32,
    scratch: [Reg; 2],
}

/// Linear-scan allocation with move-coalescing hints.
fn allocate(func: &FuncIr, machine: &Machine) -> Allocation {
    let regs = machine.regs.max(4);
    let scratch = [Reg((regs - 2) as u8), Reg((regs - 1) as u8)];
    let allocatable: Vec<Reg> = (1..regs - 2).map(|i| Reg(i as u8)).collect();
    // Linear positions.
    let mut pos_of_block_start = Vec::with_capacity(func.blocks.len());
    let mut pos = 0u32;
    for b in &func.blocks {
        pos_of_block_start.push(pos);
        pos += b.instrs.len() as u32 + 1;
    }
    // Intervals from defs/uses plus block-boundary liveness: per temp, its
    // first and last position, if it has any.
    let lv = Liveness::compute(func);
    let mut spans: Vec<Option<(u32, u32)>> = vec![None; func.temp_count as usize];
    let mut touch = |t: Temp, p: u32| {
        let span = entry(&mut spans, t);
        *span = Some(span.map_or((p, p), |(s, e)| (s.min(p), e.max(p))));
    };
    for t in &func.param_temps {
        touch(*t, 0);
    }
    let mut uses_buf = Vec::new();
    for (bi, b) in func.blocks.iter().enumerate() {
        let bstart = pos_of_block_start[bi];
        let bend = bstart + b.instrs.len() as u32;
        for t in lv.live_in[bi].iter() {
            touch(t, bstart);
        }
        for t in lv.live_out[bi].iter() {
            touch(t, bend);
        }
        for (ii, ins) in b.instrs.iter().enumerate() {
            let p = bstart + ii as u32;
            if let Some(d) = ins.dst() {
                touch(d, p);
            }
            uses_buf.clear();
            ins.uses(&mut uses_buf);
            for &u in &uses_buf {
                touch(u, p);
            }
        }
    }
    // Coalescing hints from Mov/KeepLive/CheckSame chains: the last such
    // definition of a temp names its hint.
    let mut hints: Vec<Option<Temp>> = vec![None; func.temp_count as usize];
    for b in &func.blocks {
        for ins in &b.instrs {
            match ins {
                Instr::Mov {
                    dst,
                    src: Operand::Temp(s),
                }
                | Instr::KeepLive {
                    dst,
                    value: Operand::Temp(s),
                    ..
                }
                | Instr::CheckSame {
                    dst,
                    value: Operand::Temp(s),
                    ..
                } => {
                    *entry(&mut hints, *dst) = Some(*s);
                }
                _ => {}
            }
        }
    }
    // Sort intervals by start.
    let mut intervals: Vec<(Temp, u32, u32)> = spans
        .iter()
        .enumerate()
        .filter_map(|(t, span)| span.map(|(s, e)| (Temp(t as u32), s, e)))
        .collect();
    intervals.sort_by_key(|&(t, s, _)| (s, t));
    let mut active: Vec<(u32, Reg, Temp)> = Vec::new(); // (end, reg, temp)
    let mut free: Vec<Reg> = allocatable.clone();
    let mut locs: Vec<Option<Loc>> = vec![None; spans.len()];
    let mut spill_count = 0;
    let mut next_spill_off = func.frame_size;
    for (t, s, e) in intervals {
        // Expire finished intervals. An interval ending exactly where the
        // next begins may share its register: the new temp's defining
        // instruction reads the old one before writing (rd == rs is fine),
        // and this is what lets Mov/KeepLive coalescing hints succeed.
        active.retain(|&(aend, reg, _)| {
            if aend <= s {
                free.push(reg);
                false
            } else {
                true
            }
        });
        // Prefer the hint register when available.
        let hinted = lookup(&hints, t)
            .and_then(|h| lookup(&locs, h))
            .and_then(|l| match l {
                Loc::Reg(r) => Some(r),
                Loc::Spill(_) => None,
            })
            .filter(|r| free.contains(r));
        let reg = match hinted {
            Some(r) => {
                free.retain(|x| *x != r);
                Some(r)
            }
            None => free.pop(),
        };
        match reg {
            Some(r) => {
                locs[t.0 as usize] = Some(Loc::Reg(r));
                active.push((e, r, t));
            }
            None => {
                // Spill the interval that ends last (it or a current one).
                let (victim_idx, &(vend, vreg, vt)) = active
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &(aend, _, _))| aend)
                    .expect("active set is non-empty when out of registers");
                if vend > e {
                    // Steal the victim's register.
                    locs[vt.0 as usize] = Some(Loc::Spill(next_spill_off));
                    next_spill_off += 8;
                    spill_count += 1;
                    locs[t.0 as usize] = Some(Loc::Reg(vreg));
                    active[victim_idx] = (e, vreg, t);
                } else {
                    locs[t.0 as usize] = Some(Loc::Spill(next_spill_off));
                    next_spill_off += 8;
                    spill_count += 1;
                }
            }
        }
    }
    Allocation {
        locs,
        spill_count,
        scratch,
    }
}

struct Emitter<'a> {
    alloc: &'a Allocation,
    out: Vec<AsmInstr>,
}

impl Emitter<'_> {
    /// Materialises an operand into a register (reloading spills and
    /// constants into the given scratch register).
    fn use_op(&mut self, o: Operand, scratch_idx: usize) -> Reg {
        match o {
            Operand::Const(c) => {
                let r = self.alloc.scratch[scratch_idx];
                self.out.push(AsmInstr::SetImm { rd: r, value: c });
                r
            }
            Operand::Temp(t) => match lookup(&self.alloc.locs, t) {
                Some(Loc::Reg(r)) => r,
                Some(Loc::Spill(off)) => {
                    let r = self.alloc.scratch[scratch_idx];
                    self.out.push(AsmInstr::Ld {
                        rd: r,
                        base: FP,
                        off: RegImm::Imm(off as i64),
                        width: 8,
                        signed: false,
                    });
                    r
                }
                None => {
                    // A temp with no interval is dead everywhere; any
                    // register will do and the value is never read.
                    self.alloc.scratch[scratch_idx]
                }
            },
        }
    }

    /// Operand as reg-or-imm (immediates stay immediate when small).
    fn use_ri(&mut self, o: Operand, scratch_idx: usize) -> RegImm {
        match o {
            Operand::Const(c) if (-0x1000..=0xfff).contains(&c) => RegImm::Imm(c),
            other => RegImm::Reg(self.use_op(other, scratch_idx)),
        }
    }

    /// Register to compute a result into.
    fn def_reg(&mut self, t: Temp) -> Reg {
        match lookup(&self.alloc.locs, t) {
            Some(Loc::Reg(r)) => r,
            _ => self.alloc.scratch[0],
        }
    }

    /// Stores a spilled destination back to its slot.
    fn finish_def(&mut self, t: Temp, r: Reg) {
        if let Some(Loc::Spill(off)) = lookup(&self.alloc.locs, t) {
            self.out.push(AsmInstr::St {
                rs: r,
                base: FP,
                off: RegImm::Imm(off as i64),
                width: 8,
            });
        }
    }
}

fn bin_to_alu(op: BinIr) -> Option<AluOp> {
    Some(match op {
        BinIr::Add => AluOp::Add,
        BinIr::Sub => AluOp::Sub,
        BinIr::Mul => AluOp::Mul,
        BinIr::Div => AluOp::Div,
        BinIr::DivU => AluOp::DivU,
        BinIr::Rem => AluOp::Rem,
        BinIr::RemU => AluOp::RemU,
        BinIr::And => AluOp::And,
        BinIr::Or => AluOp::Or,
        BinIr::Xor => AluOp::Xor,
        BinIr::Shl => AluOp::Shl,
        BinIr::Sar => AluOp::Sar,
        BinIr::Shr => AluOp::Shr,
        _ => return None,
    })
}

fn bin_to_cond(op: BinIr) -> Option<Cond> {
    Some(match op {
        BinIr::CmpEq => Cond::Eq,
        BinIr::CmpNe => Cond::Ne,
        BinIr::CmpLt => Cond::Lt,
        BinIr::CmpLe => Cond::Le,
        BinIr::CmpGt => Cond::Gt,
        BinIr::CmpGe => Cond::Ge,
        BinIr::CmpLtU => Cond::LtU,
        BinIr::CmpLeU => Cond::LeU,
        BinIr::CmpGtU => Cond::GtU,
        BinIr::CmpGeU => Cond::GeU,
        _ => return None,
    })
}

/// Per instruction of block `b`, the earlier instruction folded into it
/// (an address add into a load or store, a compare into a branch), which
/// then emits nothing. `uses` counts each temp's uses in the function: a
/// producer folds only into the single use of its result.
fn fold_decisions(b: &Block, uses: &[u32]) -> Vec<Option<usize>> {
    let mut producer_of = vec![None; b.instrs.len()];
    let mut ops = Vec::new();
    for (ci, ins) in b.instrs.iter().enumerate() {
        let addr = match ins {
            Instr::Load {
                addr: Operand::Temp(t),
                ..
            } => Some(*t),
            Instr::Store {
                addr: Operand::Temp(t),
                ..
            } => Some(*t),
            Instr::Branch {
                cond: Operand::Temp(t),
                ..
            } => Some(*t),
            _ => None,
        };
        let Some(t) = addr else { continue };
        if uses.get(t.0 as usize) != Some(&1) {
            continue;
        }
        // Find the producer earlier in this block.
        let Some(pi) = b.instrs[..ci].iter().rposition(|p| p.dst() == Some(t)) else {
            continue;
        };
        let foldable = match (&b.instrs[pi], ins) {
            (Instr::Bin { op: BinIr::Add, .. }, Instr::Load { .. } | Instr::Store { .. }) => true,
            (Instr::Bin { op, .. }, Instr::Branch { .. }) => bin_to_cond(*op).is_some(),
            _ => false,
        };
        if !foldable {
            continue;
        }
        // The producer's operands must not be redefined in between.
        ops.clear();
        b.instrs[pi].uses(&mut ops);
        let clobbered = b.instrs[pi + 1..ci]
            .iter()
            .any(|mid| mid.dst().is_some_and(|d| ops.contains(&d)));
        if clobbered {
            continue;
        }
        producer_of[ci] = Some(pi);
    }
    producer_of
}

fn emit_block(bi: usize, b: &Block, uses: &[u32], alloc: &Allocation) -> AsmBlock {
    let producer_of = fold_decisions(b, uses);
    let mut folded = vec![false; b.instrs.len()];
    for &p in producer_of.iter().flatten() {
        folded[p] = true;
    }
    let mut e = Emitter {
        alloc,
        out: Vec::new(),
    };
    for (ii, ins) in b.instrs.iter().enumerate() {
        if folded[ii] {
            continue; // folded into its consumer
        }
        match ins {
            Instr::Const { dst, value } => {
                let rd = e.def_reg(*dst);
                e.out.push(AsmInstr::SetImm { rd, value: *value });
                e.finish_def(*dst, rd);
            }
            Instr::Mov { dst, src } => {
                let rd = e.def_reg(*dst);
                let s = e.use_ri(*src, 1);
                if s != RegImm::Reg(rd) {
                    e.out.push(AsmInstr::Mov { rd, src: s });
                }
                e.finish_def(*dst, rd);
            }
            Instr::Bin { dst, op, a, b: rhs } => {
                if let Some(alu) = bin_to_alu(*op) {
                    let rs = e.use_op(*a, 0);
                    let op2 = e.use_ri(*rhs, 1);
                    let rd = e.def_reg(*dst);
                    e.out.push(AsmInstr::Alu {
                        op: alu,
                        rd,
                        rs,
                        op2,
                    });
                    e.finish_def(*dst, rd);
                } else {
                    let cond = bin_to_cond(*op).expect("compare op");
                    let ra = e.use_op(*a, 0);
                    let rb = e.use_ri(*rhs, 1);
                    let rd = e.def_reg(*dst);
                    e.out.push(AsmInstr::SetCc {
                        cond,
                        rd,
                        a: ra,
                        b: rb,
                    });
                    e.finish_def(*dst, rd);
                }
            }
            Instr::Load {
                dst,
                addr,
                width,
                signed,
            } => {
                let (base, off) = match producer_of[ii].map(|p| &b.instrs[p]) {
                    Some(Instr::Bin { a, b: rhs, .. }) => {
                        let base = e.use_op(*a, 0);
                        let off = e.use_ri(*rhs, 1);
                        (base, off)
                    }
                    _ => (e.use_op(*addr, 0), RegImm::Imm(0)),
                };
                let rd = e.def_reg(*dst);
                e.out.push(AsmInstr::Ld {
                    rd,
                    base,
                    off,
                    width: *width,
                    signed: *signed,
                });
                e.finish_def(*dst, rd);
            }
            Instr::Store { addr, value, width } => {
                let (base, off) = match producer_of[ii].map(|p| &b.instrs[p]) {
                    Some(Instr::Bin { a, b: rhs, .. }) => {
                        let base = e.use_op(*a, 0);
                        let off = e.use_ri(*rhs, 1);
                        (base, off)
                    }
                    _ => (e.use_op(*addr, 0), RegImm::Imm(0)),
                };
                let rs = e.use_op(*value, 1);
                e.out.push(AsmInstr::St {
                    rs,
                    base,
                    off,
                    width: *width,
                });
            }
            Instr::FrameAddr { dst, offset } => {
                let rd = e.def_reg(*dst);
                e.out.push(AsmInstr::Alu {
                    op: AluOp::Add,
                    rd,
                    rs: FP,
                    op2: RegImm::Imm(*offset as i64),
                });
                e.finish_def(*dst, rd);
            }
            Instr::MemCopy {
                dst_addr,
                src_addr,
                len,
            } => {
                let d = e.use_op(*dst_addr, 0);
                let s = e.use_op(*src_addr, 1);
                e.out.push(AsmInstr::BlockCopy {
                    dst: d,
                    src: s,
                    len: *len,
                });
            }
            Instr::Call {
                dst, target, args, ..
            } => {
                // Argument moves into the (conceptual) out registers.
                for (i, a) in args.iter().enumerate() {
                    let src = e.use_ri(*a, i % 2);
                    e.out.push(AsmInstr::Mov {
                        rd: e.alloc.scratch[0],
                        src,
                    });
                }
                let t = match target {
                    CallTarget::Func(_) => AsmCallTarget::Named(format!("fn{target:?}")),
                    CallTarget::Builtin(b) => AsmCallTarget::Runtime(builtin_name(*b)),
                    CallTarget::Indirect(o) => {
                        let r = e.use_op(*o, 0);
                        AsmCallTarget::Indirect(r)
                    }
                };
                e.out.push(AsmInstr::Call {
                    target: t,
                    args: args.len() as u8,
                });
                if let Some(d) = dst {
                    let rd = e.def_reg(*d);
                    e.out.push(AsmInstr::Mov {
                        rd,
                        src: RegImm::Reg(e.alloc.scratch[0]),
                    });
                    e.finish_def(*d, rd);
                }
            }
            Instr::KeepLive { dst, value, base } => {
                let v = e.use_op(*value, 0);
                let b_reg = base.map(|b| e.use_op(b, 1));
                // The paper's empty asm: the value must occupy the same
                // location as the result.
                let rd = e.def_reg(*dst);
                e.out.push(AsmInstr::KeepLive {
                    value: v,
                    base: b_reg,
                });
                if rd != v {
                    e.out.push(AsmInstr::Mov {
                        rd,
                        src: RegImm::Reg(v),
                    });
                }
                e.finish_def(*dst, rd);
            }
            Instr::CheckSame { dst, value, base } => {
                let v = e.use_op(*value, 0);
                let b_reg = e.use_op(*base, 1);
                e.out.push(AsmInstr::CheckSame {
                    value: v,
                    base: b_reg,
                });
                let rd = e.def_reg(*dst);
                if rd != v {
                    e.out.push(AsmInstr::Mov {
                        rd,
                        src: RegImm::Reg(v),
                    });
                }
                e.finish_def(*dst, rd);
            }
            Instr::Ret { value } => {
                if let Some(v) = value {
                    let src = e.use_ri(*v, 0);
                    e.out.push(AsmInstr::Mov {
                        rd: e.alloc.scratch[0],
                        src,
                    });
                }
                e.out.push(AsmInstr::Ret);
            }
            Instr::Jump { target } => {
                if target.0 as usize != bi + 1 {
                    e.out.push(AsmInstr::Ba { target: target.0 });
                }
            }
            Instr::Branch {
                cond,
                if_true,
                if_false,
            } => {
                match producer_of[ii].map(|p| &b.instrs[p]) {
                    Some(Instr::Bin { op, a, b: rhs, .. }) => {
                        let c = bin_to_cond(*op).expect("fold checked");
                        let ra = e.use_op(*a, 0);
                        let rb = e.use_ri(*rhs, 1);
                        e.out.push(AsmInstr::Bcc {
                            cond: c,
                            a: ra,
                            b: rb,
                            target: if_true.0,
                        });
                    }
                    _ => {
                        let r = e.use_op(*cond, 0);
                        e.out.push(AsmInstr::Bcc {
                            cond: Cond::Ne,
                            a: r,
                            b: RegImm::Imm(0),
                            target: if_true.0,
                        });
                    }
                }
                if if_false.0 as usize != bi + 1 {
                    e.out.push(AsmInstr::Ba { target: if_false.0 });
                }
            }
        }
    }
    AsmBlock { instrs: e.out }
}

fn builtin_name(b: cfront::Builtin) -> &'static str {
    use cfront::Builtin::*;
    match b {
        Malloc => "GC_malloc",
        Calloc => "GC_calloc",
        Realloc => "GC_realloc",
        Free => "GC_free",
        Strlen => "strlen",
        Strcmp => "strcmp",
        Strncmp => "strncmp",
        Strcpy => "strcpy",
        Memcpy => "memcpy",
        Memset => "memset",
        Memcmp => "memcmp",
        Getchar => "getchar",
        Putchar => "putchar",
        Putstr => "putstr",
        Putint => "putint",
        Exit => "exit",
        Abort => "abort",
        GcCollect => "GC_gcollect",
        GcHeapSize => "GC_get_heap_size",
        GcSameObj => "GC_same_obj",
        GcPreIncr => "GC_pre_incr",
        GcPostIncr => "GC_post_incr",
        GcBase => "GC_base",
        KeepLiveFn => "GC_keep_live",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm::{compile, CompileOptions};

    fn gen(src: &str, opts: &CompileOptions) -> Vec<AsmFunc> {
        let prog = compile(src, opts).expect("compiles");
        codegen_program(&prog, &Machine::sparc10())
    }

    const PAPER_F: &str = "char f(char *x) { return x[1]; } int main(void) { return 0; }";

    #[test]
    fn baseline_folds_indexed_load() {
        // The paper's Analysis section: optimized code is a single
        // `ldsb [%o0+1]`.
        let funcs = gen(PAPER_F, &CompileOptions::optimized());
        let listing = funcs[0].listing();
        assert!(
            listing.contains("ldsb [") && listing.contains("+1]"),
            "expected indexed load in:\n{listing}"
        );
        let adds = funcs[0].blocks[0]
            .instrs
            .iter()
            .filter(|i| matches!(i, AsmInstr::Alu { op: AluOp::Add, .. }))
            .count();
        assert_eq!(adds, 0, "no separate add in baseline:\n{listing}");
    }

    #[test]
    fn safe_mode_forces_separate_add() {
        // add %o0,1,%g2 ; (empty asm) ; ldsb [%g2] — the paper's sequence.
        let funcs = gen(PAPER_F, &CompileOptions::optimized_safe());
        let listing = funcs[0].listing();
        assert!(listing.contains("keep_live"), "marker present:\n{listing}");
        let adds = funcs[0].blocks[0]
            .instrs
            .iter()
            .filter(|i| matches!(i, AsmInstr::Alu { op: AluOp::Add, .. }))
            .count();
        assert!(adds >= 1, "separate add required:\n{listing}");
        assert!(listing.contains("+0]"), "non-indexed load:\n{listing}");
    }

    #[test]
    fn safe_build_is_larger() {
        let base = gen(PAPER_F, &CompileOptions::optimized());
        let safe = gen(PAPER_F, &CompileOptions::optimized_safe());
        assert!(safe[0].size_bytes() > base[0].size_bytes());
    }

    #[test]
    fn compare_folds_into_branch() {
        let src = "int main(void) { int i; int s = 0; for (i = 0; i < 10; i++) s += i; return s; }";
        let funcs = gen(src, &CompileOptions::optimized());
        let listing = funcs[0].listing();
        assert!(listing.contains("bl "), "fused compare-branch:\n{listing}");
        assert!(
            !listing.contains("movbl"),
            "no SetCc for the loop test:\n{listing}"
        );
    }

    #[test]
    fn few_registers_cause_spills() {
        // Many simultaneously live values on a 6-register Pentium.
        // Values come from getchar() so the optimizer cannot fold them;
        // all stay live until the last expression.
        let src = r#"
            int main(void) {
                int a = getchar(); int b = getchar(); int c = getchar();
                int d = getchar(); int e = getchar(); int f = getchar();
                int g = getchar(); int h = getchar(); int i = getchar();
                int j = getchar();
                int s1 = a + b; int s2 = c + d; int s3 = e + f;
                int s4 = g + h; int s5 = i + j;
                return (a + b + c + d + e + f + g + h + i + j)
                     * (s1 + s2 + s3 + s4 + s5);
            }
        "#;
        let prog = compile(src, &CompileOptions::optimized()).unwrap();
        let sparc = codegen_func(&prog.funcs[prog.main], &Machine::sparc10());
        let pentium = codegen_func(&prog.funcs[prog.main], &Machine::pentium90());
        assert!(
            pentium.spill_count > sparc.spill_count,
            "pentium {} vs sparc {}",
            pentium.spill_count,
            sparc.spill_count
        );
    }

    #[test]
    fn debug_build_has_frame_traffic() {
        let src = "int main(void) { int x = 1; int y = 2; return x + y; }";
        let opt = gen(src, &CompileOptions::optimized());
        let dbg = gen(src, &CompileOptions::debug());
        let count_mem = |f: &AsmFunc| {
            f.blocks
                .iter()
                .flat_map(|b| &b.instrs)
                .filter(|i| matches!(i, AsmInstr::Ld { .. } | AsmInstr::St { .. }))
                .count()
        };
        assert!(count_mem(&dbg[0]) > count_mem(&opt[0]));
    }
}
