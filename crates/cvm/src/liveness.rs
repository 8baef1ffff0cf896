//! Backward liveness analysis over IR temps.
//!
//! Liveness is what makes the GC-safety question *real* in this system:
//! the VM's conservative collector scans, per suspended frame, exactly the
//! temps that are live across the active call — dead registers are not
//! roots, just as a real register allocator would have reused them. A
//! disguised pointer whose original register is dead therefore fails to
//! retain its object (the paper's hazard), while a `KeepLive` base operand
//! extends the base's live range to the protection point (the paper's
//! fix).
//!
//! Code generation uses it for the register allocator's live ranges. The
//! peephole postprocessor's "register `z` should have no other uses"
//! constraint is not checked here: asmpost solves its own register
//! liveness over the generated assembly (`asmpost::peephole::AsmLiveness`).

use crate::ir::{BlockId, FuncIr, Instr, Temp};
use std::collections::HashMap;

/// A dense bitset of temps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TempSet {
    bits: Vec<u64>,
}

impl TempSet {
    /// Creates an empty set sized for `n` temps.
    pub fn new(n: u32) -> Self {
        TempSet {
            bits: vec![0; (n as usize).div_ceil(64)],
        }
    }

    /// Inserts a temp; returns whether it was newly added.
    pub fn insert(&mut self, t: Temp) -> bool {
        let (w, b) = (t.0 as usize / 64, t.0 as usize % 64);
        let was = self.bits[w] & (1 << b) != 0;
        self.bits[w] |= 1 << b;
        !was
    }

    /// Removes a temp.
    pub fn remove(&mut self, t: Temp) {
        let (w, b) = (t.0 as usize / 64, t.0 as usize % 64);
        self.bits[w] &= !(1 << b);
    }

    /// Membership test.
    pub fn contains(&self, t: Temp) -> bool {
        let (w, b) = (t.0 as usize / 64, t.0 as usize % 64);
        self.bits.get(w).map(|x| x & (1 << b) != 0).unwrap_or(false)
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Temp> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    Temp(w as u32 * 64 + bit)
                })
            })
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// Per-function liveness results.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Live-in per block.
    pub live_in: Vec<TempSet>,
    /// Live-out per block.
    pub live_out: Vec<TempSet>,
}

impl Liveness {
    /// Computes liveness for a function.
    pub fn compute(func: &FuncIr) -> Liveness {
        let n = func.temp_count;
        let nb = func.blocks.len();
        let mut live_in = vec![TempSet::new(n); nb];
        let mut live_out = vec![TempSet::new(n); nb];
        // use/def per block.
        let mut gen_sets = vec![TempSet::new(n); nb];
        let mut kill_sets = vec![TempSet::new(n); nb];
        let mut uses = Vec::new();
        for (bi, b) in func.blocks.iter().enumerate() {
            for ins in &b.instrs {
                uses.clear();
                ins.uses(&mut uses);
                for &u in &uses {
                    if !kill_sets[bi].contains(u) {
                        gen_sets[bi].insert(u);
                    }
                }
                if let Some(d) = ins.dst() {
                    kill_sets[bi].insert(d);
                }
            }
        }
        let succs: Vec<Vec<BlockId>> = func
            .blocks
            .iter()
            .map(|b| b.successors().collect())
            .collect();
        // Iterate to fixpoint, word by word and in place:
        // out = ∪ in[succ], in = gen ∪ (out − kill).
        let words = (n as usize).div_ceil(64);
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..nb).rev() {
                for w in 0..words {
                    let out = succs[bi]
                        .iter()
                        .fold(0, |acc, s| acc | live_in[s.0 as usize].bits[w]);
                    let inn = gen_sets[bi].bits[w] | (out & !kill_sets[bi].bits[w]);
                    changed |= out != live_out[bi].bits[w] || inn != live_in[bi].bits[w];
                    live_out[bi].bits[w] = out;
                    live_in[bi].bits[w] = inn;
                }
            }
        }
        Liveness { live_in, live_out }
    }
}

/// Walks each block that holds a `Call` backwards once and calls
/// `at_call(block, index, roots)` at every `Call`, with the temps whose
/// values must be treated as roots while the callee runs: everything
/// live after the call, minus its own result. A function without calls
/// is not analysed at all.
pub(crate) fn visit_call_roots(func: &FuncIr, mut at_call: impl FnMut(usize, usize, &TempSet)) {
    let is_call = |ins: &Instr| matches!(ins, Instr::Call { .. });
    if !func.blocks.iter().any(|b| b.instrs.iter().any(is_call)) {
        return;
    }
    let lv = Liveness::compute(func);
    let mut live = TempSet::new(func.temp_count);
    let mut uses = Vec::new();
    for (bi, b) in func.blocks.iter().enumerate() {
        if !b.instrs.iter().any(is_call) {
            continue;
        }
        live.clone_from(&lv.live_out[bi]);
        for (ii, ins) in b.instrs.iter().enumerate().rev() {
            if let Some(d) = ins.dst() {
                live.remove(d);
            }
            if is_call(ins) {
                at_call(bi, ii, &live);
            }
            uses.clear();
            ins.uses(&mut uses);
            for &u in &uses {
                live.insert(u);
            }
        }
    }
}

/// For every GC point (a `Call` instruction — collections happen inside
/// allocation, per the paper's call-site model), the temps whose values
/// must be treated as roots while the callee runs: everything live after
/// the call, minus its own result. The VM builds its per-instruction root
/// table from the same walk.
pub fn gc_root_maps(func: &FuncIr) -> HashMap<(u32, u32), Vec<Temp>> {
    let mut maps = HashMap::new();
    visit_call_roots(func, |bi, ii, live| {
        maps.insert((bi as u32, ii as u32), live.iter().collect());
    });
    maps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn t(n: u32) -> Temp {
        Temp(n)
    }

    /// fn: t0 = 1; t1 = alloc-call(); t2 = t0 + t1; ret t2
    fn sample() -> FuncIr {
        FuncIr {
            name: "f".into(),
            blocks: vec![Block {
                instrs: vec![
                    Instr::Const {
                        dst: t(0),
                        value: 1,
                    },
                    Instr::Call {
                        dst: Some(t(1)),
                        target: CallTarget::Builtin(cfront::Builtin::Malloc),
                        args: vec![Operand::Const(8)],
                        site: None,
                    },
                    Instr::Bin {
                        dst: t(2),
                        op: BinIr::Add,
                        a: t(0).into(),
                        b: t(1).into(),
                    },
                    Instr::Ret {
                        value: Some(t(2).into()),
                    },
                ],
            }],
            temp_count: 3,
            param_temps: vec![],
            frame_size: 0,
            returns_value: true,
        }
    }

    #[test]
    fn live_across_call_is_a_root() {
        let maps = gc_root_maps(&sample());
        let roots = &maps[&(0, 1)];
        assert!(roots.contains(&t(0)), "t0 is live across the allocation");
        assert!(
            !roots.contains(&t(1)),
            "the call's own result is not yet live"
        );
        assert!(!roots.contains(&t(2)), "t2 is not defined yet");
    }

    #[test]
    fn dead_temp_is_not_a_root() {
        // t0 defined but never used after the call: not a root.
        let f = FuncIr {
            name: "g".into(),
            blocks: vec![Block {
                instrs: vec![
                    Instr::Const {
                        dst: t(0),
                        value: 7,
                    },
                    Instr::Call {
                        dst: Some(t(1)),
                        target: CallTarget::Builtin(cfront::Builtin::Malloc),
                        args: vec![t(0).into()],
                        site: None,
                    },
                    Instr::Ret {
                        value: Some(t(1).into()),
                    },
                ],
            }],
            temp_count: 2,
            param_temps: vec![],
            frame_size: 0,
            returns_value: true,
        };
        let maps = gc_root_maps(&f);
        assert!(maps[&(0, 1)].is_empty(), "arg temp dies at the call");
    }

    #[test]
    fn keep_live_base_extends_range() {
        // t0 (base) would be dead after the add without KeepLive; the
        // KeepLive use keeps it live across the intervening call.
        let f = FuncIr {
            name: "h".into(),
            blocks: vec![Block {
                instrs: vec![
                    Instr::Bin {
                        dst: t(1),
                        op: BinIr::Add,
                        a: t(0).into(),
                        b: Operand::Const(4),
                    },
                    Instr::Call {
                        dst: Some(t(2)),
                        target: CallTarget::Builtin(cfront::Builtin::Malloc),
                        args: vec![Operand::Const(8)],
                        site: None,
                    },
                    Instr::KeepLive {
                        dst: t(3),
                        value: t(1).into(),
                        base: Some(t(0).into()),
                    },
                    Instr::Ret {
                        value: Some(t(3).into()),
                    },
                ],
            }],
            temp_count: 4,
            param_temps: vec![t(0)],
            frame_size: 0,
            returns_value: true,
        };
        let maps = gc_root_maps(&f);
        let roots = &maps[&(0, 1)];
        assert!(
            roots.contains(&t(0)),
            "KeepLive base stays live across the call"
        );
        assert!(roots.contains(&t(1)), "the derived value is live too");
    }

    #[test]
    fn loop_liveness_converges() {
        // bb0: t0 = 10; jump bb1
        // bb1: t1 = t0 - 1; br t1 ? bb1 : bb2
        // bb2: ret t0
        let f = FuncIr {
            name: "l".into(),
            blocks: vec![
                Block {
                    instrs: vec![
                        Instr::Const {
                            dst: t(0),
                            value: 10,
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
                            b: Operand::Const(1),
                        },
                        Instr::Branch {
                            cond: t(1).into(),
                            if_true: BlockId(1),
                            if_false: BlockId(2),
                        },
                    ],
                },
                Block {
                    instrs: vec![Instr::Ret {
                        value: Some(t(0).into()),
                    }],
                },
            ],
            temp_count: 2,
            param_temps: vec![],
            frame_size: 0,
            returns_value: true,
        };
        let lv = Liveness::compute(&f);
        assert!(lv.live_in[1].contains(t(0)));
        assert!(lv.live_out[1].contains(t(0)));
        assert!(lv.live_in[2].contains(t(0)));
        assert!(!lv.live_in[0].contains(t(0)));
    }

    #[test]
    fn tempset_ops() {
        let mut s = TempSet::new(130);
        assert!(s.insert(t(0)));
        assert!(s.insert(t(129)));
        assert!(!s.insert(t(0)));
        assert!(s.contains(t(129)));
        assert_eq!(s.len(), 2);
        s.remove(t(0));
        assert!(!s.contains(t(0)));
        let members: Vec<Temp> = s.iter().collect();
        assert_eq!(members, vec![t(129)]);
    }
}
