//! The straight-line scalar passes: copy/constant propagation, constant
//! folding, block-local CSE, and dead-code elimination.

use super::{count_uses, rewrite_operands, Expr};
use crate::ir::*;
use std::collections::HashMap;

/// Block-local copy and constant propagation. Returns the number of
/// operands rewritten.
pub fn copy_prop(f: &mut FuncIr) -> usize {
    let mut fires = 0usize;
    for b in &mut f.blocks {
        let mut env: HashMap<Temp, Operand> = HashMap::new();
        for ins in &mut b.instrs {
            // Rewrite uses through the environment (one step is enough
            // because the environment is kept transitively resolved).
            rewrite_operands(ins, |o| match o {
                Operand::Temp(t) => match env.get(&t) {
                    Some(&r) => {
                        fires += 1;
                        r
                    }
                    None => o,
                },
                c => c,
            });
            // Kill mappings clobbered by this def.
            if let Some(d) = ins.dst() {
                env.remove(&d);
                env.retain(|_, v| v.as_temp() != Some(d));
            }
            // Record new copies.
            match ins {
                Instr::Mov { dst, src } if src.as_temp() != Some(*dst) => {
                    env.insert(*dst, *src);
                }
                Instr::Const { dst, value } => {
                    env.insert(*dst, Operand::Const(*value));
                }
                _ => {}
            }
        }
    }
    fires
}

/// Constant folding and algebraic simplification. Returns the number of
/// instructions simplified.
pub fn const_fold(f: &mut FuncIr) -> usize {
    let mut fires = 0usize;
    for b in &mut f.blocks {
        for ins in &mut b.instrs {
            let replacement = match ins {
                Instr::Bin { dst, op, a, b } => match (a.as_const(), b.as_const()) {
                    (Some(x), Some(y)) => Some(Instr::Const {
                        dst: *dst,
                        value: op.eval(x, y),
                    }),
                    (None, Some(0))
                        if matches!(
                            op,
                            BinIr::Add
                                | BinIr::Sub
                                | BinIr::Or
                                | BinIr::Xor
                                | BinIr::Shl
                                | BinIr::Sar
                                | BinIr::Shr
                        ) =>
                    {
                        Some(Instr::Mov { dst: *dst, src: *a })
                    }
                    (Some(0), None) if *op == BinIr::Add => Some(Instr::Mov { dst: *dst, src: *b }),
                    (None, Some(1)) if matches!(op, BinIr::Mul | BinIr::Div | BinIr::DivU) => {
                        Some(Instr::Mov { dst: *dst, src: *a })
                    }
                    (Some(1), None) if *op == BinIr::Mul => Some(Instr::Mov { dst: *dst, src: *b }),
                    (None, Some(0)) if *op == BinIr::Mul => Some(Instr::Const {
                        dst: *dst,
                        value: 0,
                    }),
                    (None, Some(c)) if *op == BinIr::Mul && c.count_ones() == 1 && c > 0 => {
                        // Strength reduction: multiply by power of two.
                        Some(Instr::Bin {
                            dst: *dst,
                            op: BinIr::Shl,
                            a: *a,
                            b: Operand::Const(c.trailing_zeros() as i64),
                        })
                    }
                    _ => None,
                },
                _ => None,
            };
            if let Some(r) = replacement {
                *ins = r;
                fires += 1;
            }
        }
        // Fold constant branches.
        if let Some(Instr::Branch {
            cond: Operand::Const(c),
            if_true,
            if_false,
        }) = b.instrs.last().cloned()
        {
            let target = if c != 0 { if_true } else { if_false };
            *b.instrs.last_mut().expect("non-empty block") = Instr::Jump { target };
            fires += 1;
        }
    }
    fires
}

/// Block-local common-subexpression elimination (value numbering over
/// pure ops, plus redundant-load elimination up to the next clobber).
/// Returns the number of redundant computations folded into copies.
pub fn cse(f: &mut FuncIr) -> usize {
    let mut fires = 0usize;
    for b in &mut f.blocks {
        let mut avail: HashMap<Expr, Temp> = HashMap::new();
        let mut loads: HashMap<(Operand, u8, bool), Temp> = HashMap::new();
        for ins in &mut b.instrs {
            // Compute the lookup key first (on the unmodified instruction).
            let key = Expr::of(ins);
            let hit = key.and_then(|k| avail.get(&k).copied());
            let load_key = match ins {
                Instr::Load {
                    addr,
                    width,
                    signed,
                    ..
                } => Some((*addr, *width, *signed)),
                _ => None,
            };
            let load_hit = load_key.and_then(|k| loads.get(&k).copied());
            // Rewrite hits into copies.
            if let (Some(_), Some(prev)) = (key, hit) {
                let dst = ins.dst().expect("pure ops define");
                *ins = Instr::Mov {
                    dst,
                    src: prev.into(),
                };
                fires += 1;
            }
            if let (Some(_), Some(prev)) = (load_key, load_hit) {
                let dst = ins.dst().expect("loads define");
                *ins = Instr::Mov {
                    dst,
                    src: prev.into(),
                };
                fires += 1;
            }
            // Clobbers kill all remembered loads.
            if matches!(
                ins,
                Instr::Store { .. } | Instr::MemCopy { .. } | Instr::Call { .. }
            ) {
                loads.clear();
            }
            // The def invalidates every fact mentioning it…
            if let Some(d) = ins.dst() {
                avail.retain(|k, v| *v != d && !k.reads(d));
                loads.retain(|(a, _, _), v| *v != d && a.as_temp() != Some(d));
            }
            // …after which fresh facts become available.
            if let (Some(k), None) = (key, hit) {
                if let Some(dst) = ins.dst() {
                    avail.insert(k, dst);
                }
            }
            if let (Some(k), None, Some(dst)) = (load_key, load_hit, ins.dst()) {
                if matches!(ins, Instr::Load { .. }) {
                    loads.insert(k, dst);
                }
            }
        }
    }
    fires
}

/// Global dead-code elimination over temps. Returns the number of
/// instructions removed.
pub fn dce(f: &mut FuncIr) -> usize {
    let mut fires = 0usize;
    loop {
        let uses = count_uses(f);
        let mut changed = false;
        for b in &mut f.blocks {
            let before = b.instrs.len();
            b.instrs.retain(|ins| {
                if ins.has_side_effects() || ins.is_terminator() {
                    return true;
                }
                match ins.dst() {
                    Some(d) => uses[d.0 as usize] > 0,
                    None => true,
                }
            });
            // Drop no-op moves.
            b.instrs.retain(
                |ins| !matches!(ins, Instr::Mov { dst, src } if src.as_temp() == Some(*dst)),
            );
            if b.instrs.len() != before {
                fires += before - b.instrs.len();
                changed = true;
            }
        }
        if !changed {
            return fires;
        }
    }
}
