//! Loop-invariant code motion.

use super::cfg::{back_edges, def_counts, insert_preheader, loop_blocks, Dominators};
use crate::ir::*;
use crate::liveness::{Liveness, TempSet};

/// Loop-invariant code motion.
///
/// The paper's opening hazard is precisely a loop optimization: hoisting
/// the displaced base `p - 1000` out of a loop that evaluates `p[i-1000]`
/// leaves only the out-of-object pointer live inside the loop. This pass
/// performs that hoisting honestly: natural loops are found via back
/// edges (our structured lowering emits headers before bodies), a
/// preheader is inserted, and pure single-def instructions whose operands
/// are loop-invariant move to it. `KeepLive`/`CheckSame` are ordering
/// points and never move — but they don't need to: their *base* operand
/// keeps the object visible wherever the arithmetic lands.
///
/// Returns the number of instructions hoisted to preheaders.
pub fn licm(f: &mut FuncIr) -> usize {
    let dom = Dominators::of(f);
    let mut hoisted = 0usize;
    // One liveness serves every loop until a hoist edits the IR.
    let mut lv: Option<Liveness> = None;
    for (latch, header) in back_edges(f, &dom) {
        if header == 0 {
            continue; // entry block cannot take a preheader safely
        }
        let live = lv.get_or_insert_with(|| Liveness::compute(f));
        let n = hoist_loop(f, live, latch, header);
        if n > 0 {
            lv = None;
        }
        hoisted += n;
    }
    hoisted
}

/// Hoists one loop's invariants; `lv` must be the liveness of `f` as it
/// stands. Returns zero exactly when `f` was left untouched.
fn hoist_loop(f: &mut FuncIr, lv: &Liveness, latch: usize, header: usize) -> usize {
    let blocks = loop_blocks(f, latch, header);
    let in_loop = |b: usize| blocks.contains(&b);
    let defs_in_loop = def_counts(f, &blocks);
    // Collect hoistable instructions to a fixpoint. An instruction is
    // taken at most once: its dst has a single in-loop def, and joins
    // `invariant` when it is taken.
    let mut invariant = TempSet::new(f.temp_count);
    let mut to_hoist: Vec<(usize, usize)> = Vec::new(); // (block, instr idx)
    let mut ops = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for &bi in &blocks {
            for (ii, ins) in f.blocks[bi].instrs.iter().enumerate() {
                let pure = matches!(
                    ins,
                    Instr::Bin { .. } | Instr::Const { .. } | Instr::FrameAddr { .. }
                );
                if !pure {
                    continue;
                }
                let Some(d) = ins.dst() else { continue };
                if defs_in_loop[d.0 as usize] != 1 || invariant.contains(d) {
                    continue;
                }
                // The def must be fresh inside the loop (not carried in).
                if lv.live_in[header].contains(d) {
                    continue;
                }
                ops.clear();
                ins.uses(&mut ops);
                let invariant_ops = ops
                    .iter()
                    .all(|&t| invariant.contains(t) || defs_in_loop[t.0 as usize] == 0);
                if invariant_ops {
                    to_hoist.push((bi, ii));
                    invariant.insert(d);
                    changed = true;
                }
            }
        }
    }
    if to_hoist.is_empty() {
        return 0;
    }
    // Build the preheader with the hoisted instructions in dependency
    // order (original program order across blocks is sufficient because
    // operands are invariant).
    to_hoist.sort();
    let mut pre_instrs: Vec<Instr> = Vec::new();
    // Remove from the back so indices stay valid.
    for &(bi, ii) in to_hoist.iter().rev() {
        let ins = f.blocks[bi].instrs.remove(ii);
        pre_instrs.push(ins);
    }
    pre_instrs.reverse();
    insert_preheader(f, header, in_loop, pre_instrs);
    to_hoist.len()
}

#[cfg(test)]
mod licm_tests {
    use super::*;

    fn t(n: u32) -> Temp {
        Temp(n)
    }

    /// bb0: t0=100; jump bb1
    /// bb1: t1 = t0 - 7  (invariant); t2 = t2 + t1; br t2 ? bb1 : bb2
    /// bb2: ret t2
    fn loopy() -> FuncIr {
        FuncIr {
            name: "l".into(),
            blocks: vec![
                Block {
                    instrs: vec![
                        Instr::Const {
                            dst: t(0),
                            value: 100,
                        },
                        Instr::Const {
                            dst: t(2),
                            value: 0,
                        },
                        Instr::Jump { target: BlockId(1) },
                    ],
                },
                Block {
                    instrs: vec![
                        Instr::Bin {
                            dst: t(1),
                            op: BinIr::Sub,
                            a: t(0).into(),
                            b: Operand::Const(7),
                        },
                        Instr::Bin {
                            dst: t(2),
                            op: BinIr::Add,
                            a: t(2).into(),
                            b: t(1).into(),
                        },
                        Instr::Bin {
                            dst: t(3),
                            op: BinIr::CmpLt,
                            a: t(2).into(),
                            b: Operand::Const(1000),
                        },
                        Instr::Branch {
                            cond: t(3).into(),
                            if_true: BlockId(1),
                            if_false: BlockId(2),
                        },
                    ],
                },
                Block {
                    instrs: vec![Instr::Ret {
                        value: Some(t(2).into()),
                    }],
                },
            ],
            temp_count: 4,
            param_temps: vec![],
            frame_size: 0,
            returns_value: true,
        }
    }

    #[test]
    fn hoists_invariant_computation() {
        let mut f = loopy();
        licm(&mut f);
        // The Sub moved to a new preheader block.
        assert_eq!(f.blocks.len(), 4, "{}", f.dump());
        let body = &f.blocks[1].instrs;
        assert!(
            !body
                .iter()
                .any(|i| matches!(i, Instr::Bin { op: BinIr::Sub, .. })),
            "sub left the loop:\n{}",
            f.dump()
        );
        let pre = &f.blocks[3].instrs;
        assert!(pre
            .iter()
            .any(|i| matches!(i, Instr::Bin { op: BinIr::Sub, .. })));
        // bb0 now enters through the preheader.
        assert_eq!(
            f.blocks[0].successors().collect::<Vec<_>>(),
            vec![BlockId(3)]
        );
        assert_eq!(
            f.blocks[3].successors().collect::<Vec<_>>(),
            vec![BlockId(1)]
        );
    }

    #[test]
    fn does_not_hoist_variant_computation() {
        let mut f = loopy();
        licm(&mut f);
        // t2 = t2 + t1 stays (t2 is loop-carried).
        let body = &f.blocks[1].instrs;
        assert!(body
            .iter()
            .any(|i| matches!(i, Instr::Bin { op: BinIr::Add, .. })));
    }

    #[test]
    fn keep_live_is_never_hoisted() {
        let mut f = loopy();
        // Insert a keep_live of an invariant value inside the loop.
        f.temp_count = 5;
        f.blocks[1].instrs.insert(
            1,
            Instr::KeepLive {
                dst: t(4),
                value: t(1).into(),
                base: Some(t(0).into()),
            },
        );
        // Make its result used so DCE-style reasoning can't drop it.
        f.blocks[2].instrs.insert(
            0,
            Instr::Bin {
                dst: t(2),
                op: BinIr::Add,
                a: t(2).into(),
                b: t(4).into(),
            },
        );
        licm(&mut f);
        assert!(
            f.blocks[1]
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::KeepLive { .. })),
            "keep_live stays in the loop:\n{}",
            f.dump()
        );
    }
}
