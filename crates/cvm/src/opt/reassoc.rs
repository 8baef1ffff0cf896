//! Displacement reassociation.

use super::scalar::dce;
use crate::ir::*;
use std::collections::HashMap;

/// Displacement reassociation: `t1 = i ± c; t2 = p + t1` becomes
/// `t3 = p ± c; t2 = t3 + i` when `t1` has no other use. The new `t3` may
/// point outside any object — this is the paper's disguising hazard,
/// reproduced as an honest strength-style optimization (it enables LICM
/// and scheduling of the displaced base). Returns the number of
/// displacement rewrites applied.
pub fn reassociate(f: &mut FuncIr) -> usize {
    let uses = super::count_uses(f);
    let mut next_temp = f.temp_count;
    let mut fires = 0usize;
    for b in &mut f.blocks {
        // dst → (op, i-operand, c) for `dst = i op c` still valid here.
        let mut defs: HashMap<Temp, (BinIr, Operand, i64)> = HashMap::new();
        let mut new_instrs: Vec<Instr> = Vec::with_capacity(b.instrs.len());
        let invalidate = |defs: &mut HashMap<Temp, (BinIr, Operand, i64)>, d: Temp| {
            // A redefinition kills both the entry for d and any entry whose
            // recorded operand would now read a different value.
            defs.remove(&d);
            defs.retain(|_, (_, i_op, _)| i_op.as_temp() != Some(d));
        };
        for ins in b.instrs.drain(..) {
            match ins {
                Instr::Bin {
                    dst,
                    op: op @ (BinIr::Add | BinIr::Sub),
                    a,
                    b: Operand::Const(c),
                } if a.as_temp() != Some(dst) => {
                    invalidate(&mut defs, dst);
                    defs.insert(dst, (op, a, c));
                    new_instrs.push(Instr::Bin {
                        dst,
                        op,
                        a,
                        b: Operand::Const(c),
                    });
                }
                Instr::Bin {
                    dst,
                    op: BinIr::Add,
                    a: Operand::Temp(p),
                    b: Operand::Temp(t1),
                } if t1 != dst
                    && p != dst
                    && defs.contains_key(&t1)
                    && uses[t1.0 as usize] == 1
                    && !defs.contains_key(&p) =>
                {
                    // p + (i ± c)  →  (p ± c) + i
                    let (op1, i_op, c) = defs[&t1];
                    let t3 = Temp(next_temp);
                    next_temp += 1;
                    new_instrs.push(Instr::Bin {
                        dst: t3,
                        op: op1,
                        a: Operand::Temp(p),
                        b: Operand::Const(c),
                    });
                    new_instrs.push(Instr::Bin {
                        dst,
                        op: BinIr::Add,
                        a: Operand::Temp(t3),
                        b: i_op,
                    });
                    invalidate(&mut defs, dst);
                    fires += 1;
                }
                other => {
                    if let Some(d) = other.dst() {
                        invalidate(&mut defs, d);
                    }
                    new_instrs.push(other);
                }
            }
        }
        b.instrs = new_instrs;
    }
    f.temp_count = next_temp;
    // The original displacement adds may now be dead.
    dce(f);
    fires
}
