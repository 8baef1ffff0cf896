use super::*;

fn t(n: u32) -> Temp {
    Temp(n)
}

fn func(instrs: Vec<Instr>, temp_count: u32) -> FuncIr {
    FuncIr {
        name: "test".into(),
        blocks: vec![Block { instrs }],
        temp_count,
        param_temps: vec![],
        frame_size: 0,
        returns_value: true,
    }
}

#[test]
fn const_fold_arithmetic() {
    let mut f = func(
        vec![
            Instr::Const {
                dst: t(0),
                value: 6,
            },
            Instr::Const {
                dst: t(1),
                value: 7,
            },
            Instr::Bin {
                dst: t(2),
                op: BinIr::Mul,
                a: t(0).into(),
                b: t(1).into(),
            },
            Instr::Ret {
                value: Some(t(2).into()),
            },
        ],
        3,
    );
    copy_prop(&mut f);
    const_fold(&mut f);
    copy_prop(&mut f);
    dce(&mut f);
    assert_eq!(
        f.blocks[0].instrs,
        vec![Instr::Ret {
            value: Some(Operand::Const(42))
        }]
    );
}

#[test]
fn mul_by_power_of_two_becomes_shift() {
    let mut f = func(
        vec![
            Instr::Bin {
                dst: t(1),
                op: BinIr::Mul,
                a: t(0).into(),
                b: Operand::Const(8),
            },
            Instr::Ret {
                value: Some(t(1).into()),
            },
        ],
        2,
    );
    const_fold(&mut f);
    assert!(matches!(
        f.blocks[0].instrs[0],
        Instr::Bin {
            op: BinIr::Shl,
            b: Operand::Const(3),
            ..
        }
    ));
}

#[test]
fn cse_merges_repeated_address_computation() {
    let mut f = func(
        vec![
            Instr::Bin {
                dst: t(1),
                op: BinIr::Add,
                a: t(0).into(),
                b: Operand::Const(8),
            },
            Instr::Bin {
                dst: t(2),
                op: BinIr::Add,
                a: t(0).into(),
                b: Operand::Const(8),
            },
            Instr::Bin {
                dst: t(3),
                op: BinIr::Add,
                a: t(1).into(),
                b: t(2).into(),
            },
            Instr::Ret {
                value: Some(t(3).into()),
            },
        ],
        4,
    );
    cse(&mut f);
    copy_prop(&mut f);
    dce(&mut f);
    let adds = f.blocks[0]
        .instrs
        .iter()
        .filter(|i| {
            matches!(
                i,
                Instr::Bin {
                    op: BinIr::Add,
                    b: Operand::Const(8),
                    ..
                }
            )
        })
        .count();
    assert_eq!(adds, 1, "duplicate add folded: {:?}", f.blocks[0].instrs);
}

#[test]
fn redundant_load_removed_until_store() {
    let mut f = func(
        vec![
            Instr::Load {
                dst: t(1),
                addr: t(0).into(),
                width: 8,
                signed: false,
            },
            Instr::Load {
                dst: t(2),
                addr: t(0).into(),
                width: 8,
                signed: false,
            },
            Instr::Store {
                addr: t(0).into(),
                value: Operand::Const(1),
                width: 8,
            },
            Instr::Load {
                dst: t(3),
                addr: t(0).into(),
                width: 8,
                signed: false,
            },
            Instr::Bin {
                dst: t(4),
                op: BinIr::Add,
                a: t(1).into(),
                b: t(2).into(),
            },
            Instr::Bin {
                dst: t(5),
                op: BinIr::Add,
                a: t(4).into(),
                b: t(3).into(),
            },
            Instr::Ret {
                value: Some(t(5).into()),
            },
        ],
        6,
    );
    cse(&mut f);
    let load_count = f.blocks[0]
        .instrs
        .iter()
        .filter(|i| matches!(i, Instr::Load { .. }))
        .count();
    assert_eq!(load_count, 2, "second load folded, post-store load kept");
}

#[test]
fn dce_removes_dead_but_keeps_side_effects() {
    let mut f = func(
        vec![
            Instr::Const {
                dst: t(0),
                value: 1,
            },
            Instr::Const {
                dst: t(1),
                value: 2,
            },
            Instr::Store {
                addr: Operand::Const(0x10000),
                value: t(1).into(),
                width: 8,
            },
            Instr::Ret { value: None },
        ],
        2,
    );
    dce(&mut f);
    assert_eq!(
        f.blocks[0].instrs.len(),
        3,
        "dead const removed, store kept"
    );
}

#[test]
fn dead_keep_live_is_removable() {
    let mut f = func(
        vec![
            Instr::KeepLive {
                dst: t(1),
                value: t(0).into(),
                base: None,
            },
            Instr::Ret { value: None },
        ],
        2,
    );
    dce(&mut f);
    assert_eq!(f.blocks[0].instrs.len(), 1);
}

#[test]
fn reassociate_creates_displaced_base() {
    // t1 = i - 1000 ; t2 = p + t1  →  t3 = p - 1000 ; t2 = t3 + i
    let mut f = func(
        vec![
            Instr::Bin {
                dst: t(2),
                op: BinIr::Sub,
                a: t(1).into(),
                b: Operand::Const(1000),
            },
            Instr::Bin {
                dst: t(3),
                op: BinIr::Add,
                a: t(0).into(),
                b: t(2).into(),
            },
            Instr::Ret {
                value: Some(t(3).into()),
            },
        ],
        4,
    );
    reassociate(&mut f);
    let dump = f.dump();
    assert!(
        dump.contains("Sub(t0, 1000)"),
        "displaced base created:\n{dump}"
    );
}

#[test]
fn schedule_hoists_arithmetic_above_calls() {
    let mut f = func(
        vec![
            Instr::Bin {
                dst: t(1),
                op: BinIr::Sub,
                a: t(0).into(),
                b: Operand::Const(4),
            },
            Instr::Call {
                dst: Some(t(2)),
                target: CallTarget::Builtin(cfront::Builtin::Malloc),
                args: vec![Operand::Const(8)],
                site: None,
            },
            Instr::Bin {
                dst: t(3),
                op: BinIr::Add,
                a: t(1).into(),
                b: Operand::Const(1),
            },
            Instr::Ret {
                value: Some(t(3).into()),
            },
        ],
        4,
    );
    schedule_early(&mut f);
    // The add depending only on t1 moves above the call.
    assert!(matches!(
        f.blocks[0].instrs[1],
        Instr::Bin { op: BinIr::Add, .. }
    ));
    assert!(matches!(f.blocks[0].instrs[2], Instr::Call { .. }));
}

#[test]
fn schedule_respects_keep_live_ordering() {
    let mut f = func(
        vec![
            Instr::KeepLive {
                dst: t(1),
                value: t(0).into(),
                base: Some(t(0).into()),
            },
            Instr::Call {
                dst: Some(t(2)),
                target: CallTarget::Builtin(cfront::Builtin::Malloc),
                args: vec![Operand::Const(8)],
                site: None,
            },
            Instr::Bin {
                dst: t(3),
                op: BinIr::Add,
                a: t(1).into(),
                b: Operand::Const(1),
            },
            Instr::Ret {
                value: Some(t(3).into()),
            },
        ],
        4,
    );
    schedule_early(&mut f);
    // t3's add uses t1 (the keep_live result): it may hoist above the
    // call but never above the keep_live.
    let kl_pos = f.blocks[0]
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::KeepLive { .. }))
        .expect("keep_live kept");
    let add_pos = f.blocks[0]
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::Bin { op: BinIr::Add, .. }))
        .expect("add kept");
    assert!(add_pos > kl_pos);
}

#[test]
fn copy_prop_through_chain() {
    let mut f = func(
        vec![
            Instr::Const {
                dst: t(0),
                value: 5,
            },
            Instr::Mov {
                dst: t(1),
                src: t(0).into(),
            },
            Instr::Mov {
                dst: t(2),
                src: t(1).into(),
            },
            Instr::Ret {
                value: Some(t(2).into()),
            },
        ],
        3,
    );
    copy_prop(&mut f);
    dce(&mut f);
    assert_eq!(
        f.blocks[0].instrs,
        vec![Instr::Ret {
            value: Some(Operand::Const(5))
        }]
    );
}

#[test]
fn optimizer_never_folds_through_keep_live() {
    // t1 = keeplive(7); t2 = t1 + 1 — t2 must not become Const(8).
    let mut f = func(
        vec![
            Instr::KeepLive {
                dst: t(1),
                value: Operand::Const(7),
                base: None,
            },
            Instr::Bin {
                dst: t(2),
                op: BinIr::Add,
                a: t(1).into(),
                b: Operand::Const(1),
            },
            Instr::Ret {
                value: Some(t(2).into()),
            },
        ],
        3,
    );
    optimize_func_ledger(&mut f, OptOptions::full());
    let dump = f.dump();
    assert!(dump.contains("keep_live"), "keep_live survives: {dump}");
    assert!(
        !dump.contains("ret 8"),
        "no folding through the barrier: {dump}"
    );
}

#[test]
fn registry_names_are_unique_and_ledger_matches() {
    let names = pass_names();
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate pass name registered");
    let mut f = func(vec![Instr::Ret { value: None }], 0);
    let ledger = optimize_func_ledger(&mut f, OptOptions::full());
    assert_eq!(
        ledger.fires.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        names,
        "ledger rows follow registry order"
    );
    assert!(ledger.sweeps >= 1);
}

#[test]
fn disabled_passes_never_fire() {
    // A shape both gated value passes fire on: bb3 recomputes bb0's
    // `t0 + 8` (gvn), and both arms set t1 to 5, so bb3's comparison is
    // a constant (sccp).
    //
    // bb0: t2 = t0 + 8; br t0 ? bb1 : bb2
    // bb1: t1 = 5; jump bb3
    // bb2: t1 = 5; jump bb3
    // bb3: t3 = t0 + 8; t4 = t1 > 4; br t4 ? bb4 : bb5
    // bb4: ret t3
    // bb5: ret t2
    let shape = || {
        let add8 = |dst| Instr::Bin {
            dst,
            op: BinIr::Add,
            a: t(0).into(),
            b: Operand::Const(8),
        };
        let branch = |cond: Temp, if_true, if_false| Instr::Branch {
            cond: cond.into(),
            if_true: BlockId(if_true),
            if_false: BlockId(if_false),
        };
        let arm = Block {
            instrs: vec![
                Instr::Const {
                    dst: t(1),
                    value: 5,
                },
                Instr::Jump { target: BlockId(3) },
            ],
        };
        let ret = |v| Block {
            instrs: vec![Instr::Ret {
                value: Some(t(v).into()),
            }],
        };
        FuncIr {
            name: "gated".into(),
            blocks: vec![
                Block {
                    instrs: vec![add8(t(2)), branch(t(0), 1, 2)],
                },
                arm.clone(),
                arm,
                Block {
                    instrs: vec![
                        add8(t(3)),
                        Instr::Bin {
                            dst: t(4),
                            op: BinIr::CmpGt,
                            a: t(1).into(),
                            b: Operand::Const(4),
                        },
                        branch(t(4), 4, 5),
                    ],
                },
                ret(3),
                ret(2),
            ],
            temp_count: 5,
            param_temps: vec![t(0)],
            frame_size: 0,
            returns_value: true,
        }
    };
    let full = optimize_func_ledger(&mut shape(), OptOptions::full());
    for pass in ["gvn", "sccp"] {
        assert!(full.fires_for(pass) > 0, "{pass} finds nothing to fire on");
    }
    let mut opts = OptOptions::full();
    opts.gvn = false;
    opts.sccp = false;
    let mut f = shape();
    let ledger = optimize_func_ledger(&mut f, opts);
    for pass in ["gvn", "sccp"] {
        assert_eq!(ledger.fires_for(pass), 0, "{pass} fired while disabled");
    }
    assert_eq!(f.blocks[3], shape().blocks[3], "{}", f.dump());
}

#[test]
fn reassociate_off_still_sweeps_dead_temps() {
    // dce runs in reassociate's slot, so turning reassociation off must
    // not keep dead code the full pipeline would remove.
    let mut f = func(
        vec![
            Instr::Bin {
                dst: t(1),
                op: BinIr::Add,
                a: t(0).into(),
                b: Operand::Const(1),
            },
            Instr::Ret {
                value: Some(t(0).into()),
            },
        ],
        2,
    );
    let mut opts = OptOptions::full();
    opts.reassociate = false;
    let ledger = optimize_func_ledger(&mut f, opts);
    assert_eq!(ledger.fires_for("reassociate"), 0);
    assert_eq!(f.instr_count(), 1, "{}", f.dump());
}

#[test]
fn driver_reaches_fixpoint_and_is_idempotent() {
    // A little bit of everything: constants to fold, an overwritten
    // store, and a redundant add.
    let instrs = vec![
        Instr::Const {
            dst: t(1),
            value: 6,
        },
        Instr::Bin {
            dst: t(2),
            op: BinIr::Mul,
            a: t(1).into(),
            b: Operand::Const(7),
        },
        Instr::Store {
            addr: t(0).into(),
            value: t(2).into(),
            width: 8,
        },
        Instr::Store {
            addr: t(0).into(),
            value: Operand::Const(0),
            width: 8,
        },
        Instr::Ret {
            value: Some(t(2).into()),
        },
    ];
    let mut f = func(instrs, 3);
    let first = optimize_func_ledger(&mut f, OptOptions::full());
    assert!(first.sweeps < FIXPOINT_SWEEP_CAP, "driver converged");
    let second = optimize_func_ledger(&mut f, OptOptions::full());
    for (pass, fires) in &second.fires {
        assert_eq!(*fires, 0, "{pass} fired on a second driver run");
    }
    assert_eq!(second.sweeps, 1);
}

mod gvn_tests {
    use super::*;

    /// bb0: t1 = t0 + 8; br t0 ? bb1 : bb2
    /// bb1: t2 = t0 + 8; ret t2   (same value, dominated by bb0)
    /// bb2: ret t1
    #[test]
    fn merges_recomputation_across_blocks() {
        let mut f = FuncIr {
            name: "g".into(),
            blocks: vec![
                Block {
                    instrs: vec![
                        Instr::Bin {
                            dst: t(1),
                            op: BinIr::Add,
                            a: t(0).into(),
                            b: Operand::Const(8),
                        },
                        Instr::Branch {
                            cond: t(0).into(),
                            if_true: BlockId(1),
                            if_false: BlockId(2),
                        },
                    ],
                },
                Block {
                    instrs: vec![
                        Instr::Bin {
                            dst: t(2),
                            op: BinIr::Add,
                            a: t(0).into(),
                            b: Operand::Const(8),
                        },
                        Instr::Ret {
                            value: Some(t(2).into()),
                        },
                    ],
                },
                Block {
                    instrs: vec![Instr::Ret {
                        value: Some(t(1).into()),
                    }],
                },
            ],
            temp_count: 3,
            param_temps: vec![t(0)],
            frame_size: 0,
            returns_value: true,
        };
        assert_eq!(gvn(&mut f), 1);
        assert!(
            matches!(
                f.blocks[1].instrs[0],
                Instr::Mov {
                    dst: Temp(2),
                    src: Operand::Temp(Temp(1))
                }
            ),
            "recomputation became a copy:\n{}",
            f.dump()
        );
        // Second run finds nothing.
        assert_eq!(gvn(&mut f), 0);
    }

    #[test]
    fn commutative_operands_share_a_value() {
        let mut f = func(
            vec![
                Instr::Bin {
                    dst: t(2),
                    op: BinIr::Add,
                    a: t(0).into(),
                    b: t(1).into(),
                },
                Instr::Bin {
                    dst: t(3),
                    op: BinIr::Add,
                    a: t(1).into(),
                    b: t(0).into(),
                },
                Instr::Bin {
                    dst: t(4),
                    op: BinIr::Add,
                    a: t(2).into(),
                    b: t(3).into(),
                },
                Instr::Ret {
                    value: Some(t(4).into()),
                },
            ],
            5,
        );
        assert_eq!(gvn(&mut f), 1, "{}", f.dump());
    }

    #[test]
    fn redefined_temps_never_merge() {
        // t1 is redefined between the two computations: no merge.
        let mut f = func(
            vec![
                Instr::Bin {
                    dst: t(2),
                    op: BinIr::Add,
                    a: t(1).into(),
                    b: Operand::Const(8),
                },
                Instr::Const {
                    dst: t(1),
                    value: 3,
                },
                Instr::Bin {
                    dst: t(3),
                    op: BinIr::Add,
                    a: t(1).into(),
                    b: Operand::Const(8),
                },
                Instr::Bin {
                    dst: t(4),
                    op: BinIr::Add,
                    a: t(2).into(),
                    b: t(3).into(),
                },
                Instr::Ret {
                    value: Some(t(4).into()),
                },
            ],
            5,
        );
        assert_eq!(gvn(&mut f), 0, "{}", f.dump());
    }
}

mod sccp_tests {
    use super::*;

    /// bb0: t0 = 1; br t0 ? bb1 : bb2
    /// bb1: t1 = 5; jump bb3
    /// bb2: t1 = 9; jump bb3    (unreachable once the branch folds)
    /// bb3: t2 = t1 + 1; ret t2
    fn diamond() -> FuncIr {
        FuncIr {
            name: "s".into(),
            blocks: vec![
                Block {
                    instrs: vec![
                        Instr::Const {
                            dst: t(0),
                            value: 1,
                        },
                        Instr::Branch {
                            cond: t(0).into(),
                            if_true: BlockId(1),
                            if_false: BlockId(2),
                        },
                    ],
                },
                Block {
                    instrs: vec![
                        Instr::Const {
                            dst: t(1),
                            value: 5,
                        },
                        Instr::Jump { target: BlockId(3) },
                    ],
                },
                Block {
                    instrs: vec![
                        Instr::Const {
                            dst: t(1),
                            value: 9,
                        },
                        Instr::Jump { target: BlockId(3) },
                    ],
                },
                Block {
                    instrs: vec![
                        Instr::Bin {
                            dst: t(2),
                            op: BinIr::Add,
                            a: t(1).into(),
                            b: Operand::Const(1),
                        },
                        Instr::Ret {
                            value: Some(t(2).into()),
                        },
                    ],
                },
            ],
            temp_count: 3,
            param_temps: vec![],
            frame_size: 0,
            returns_value: true,
        }
    }

    #[test]
    fn constants_flow_through_taken_edges_only() {
        // Plain per-def reasoning would join {5, 9} to varying; SCCP sees
        // bb2 is unreachable and folds t1 to 5.
        let mut f = diamond();
        let fires = sccp(&mut f);
        assert!(fires > 0, "{}", f.dump());
        assert!(
            matches!(
                f.blocks[3].instrs[0],
                Instr::Bin {
                    a: Operand::Const(5),
                    ..
                }
            ),
            "merge-point use folded to the reachable constant:\n{}",
            f.dump()
        );
    }

    #[test]
    fn varying_merges_do_not_fold() {
        let mut f = diamond();
        // Make the branch genuinely two-way: cond becomes a param.
        f.blocks[0].instrs = vec![Instr::Branch {
            cond: t(0).into(),
            if_true: BlockId(1),
            if_false: BlockId(2),
        }];
        f.param_temps = vec![t(0)];
        sccp(&mut f);
        assert!(
            matches!(
                f.blocks[3].instrs[0],
                Instr::Bin {
                    a: Operand::Temp(Temp(1)),
                    ..
                }
            ),
            "two reachable constants stay a temp:\n{}",
            f.dump()
        );
    }

    #[test]
    fn keep_live_results_stay_opaque() {
        let mut f = func(
            vec![
                Instr::KeepLive {
                    dst: t(0),
                    value: Operand::Const(7),
                    base: None,
                },
                Instr::Bin {
                    dst: t(1),
                    op: BinIr::Add,
                    a: t(0).into(),
                    b: Operand::Const(1),
                },
                Instr::Ret {
                    value: Some(t(1).into()),
                },
            ],
            2,
        );
        assert_eq!(sccp(&mut f), 0, "{}", f.dump());
    }
}

mod allocation_preservation_tests {
    use super::*;
    use crate::{compile, CompileOptions};

    fn count_mallocs(f: &FuncIr) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| {
                matches!(
                    i,
                    Instr::Call {
                        target: CallTarget::Builtin(cfront::Builtin::Malloc),
                        ..
                    }
                )
            })
            .count()
    }

    /// The paper's compiler assumption (0): "Every allocation call in the
    /// source results in a corresponding call to an allocation function in
    /// the object code." Our DCE must never elide a malloc whose result is
    /// unused.
    #[test]
    fn unused_allocation_calls_survive_optimization() {
        let src = r#"
            int main(void) {
                malloc(64);
                (void *) malloc(128);
                return 0;
            }
        "#;
        let prog = compile(src, &CompileOptions::optimized()).expect("compiles");
        assert_eq!(count_mallocs(&prog.funcs[prog.main]), 2);
    }

    /// The same assumption, checked per gated value pass: gvn or sccp
    /// enabled alone fires on allocation results that feed a recomputed
    /// address or a branch that folds, and keeps both allocation calls.
    #[test]
    fn each_new_pass_preserves_allocations_alone() {
        let src = r#"
            int main(void) {
                long *p; long *q; long f;
                p = (long *) malloc(64);
                q = (long *) malloc(64);
                if (p[0] > 0) f = 5; else f = 5;
                p[1] = f;
                if (f > 4) { q[0] = 3; } else { q[0] = 4; }  /* sccp */
                putint(p[1] + q[0]);               /* gvn: p + 8 again */
                return 0;
            }
        "#;
        let mut front = CompileOptions::optimized();
        front.opt.enabled = false;
        let unoptimized = compile(src, &front).expect("compiles");
        for pass in ["gvn", "sccp"] {
            let mut opts = OptOptions::full();
            opts.gvn = pass == "gvn";
            opts.sccp = pass == "sccp";
            let mut main = unoptimized.funcs[unoptimized.main].clone();
            let ledger = optimize_func_ledger(&mut main, opts);
            assert!(ledger.fires_for(pass) > 0, "{pass} never fired");
            assert_eq!(count_mallocs(&main), 2, "pass {pass} elided an allocation");
        }
    }
}

mod dominator_tests {
    use super::super::cfg::{back_edges, Dominators};
    use super::*;
    use std::collections::HashSet;

    /// The dataflow formulation the optimizer used before the shared
    /// Cooper–Harvey–Kennedy tree, kept as the reference: per-block
    /// dominator sets iterated down from "every block" to the greatest
    /// fixpoint, bb0 pinned to `{bb0}`, masked-out blocks ignored as
    /// predecessors and left at the full set (so is every block when
    /// bb0 itself is masked out).
    fn reference(f: &FuncIr, mask: &[bool]) -> Vec<HashSet<usize>> {
        let n = f.blocks.len();
        let all: HashSet<usize> = (0..n).collect();
        let mut dom: Vec<HashSet<usize>> = vec![all; n];
        if n == 0 || !mask[0] {
            return dom;
        }
        dom[0] = HashSet::from([0]);
        let preds: Vec<Vec<usize>> = (0..n)
            .map(|b| {
                (0..n)
                    .filter(|&p| mask[p] && f.blocks[p].successors().any(|s| s.0 as usize == b))
                    .collect()
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in (1..n).filter(|&b| mask[b]) {
                let mut new: Option<HashSet<usize>> = None;
                for &p in &preds[b] {
                    new = Some(match new {
                        None => dom[p].clone(),
                        Some(acc) => acc.intersection(&dom[p]).copied().collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                new.insert(b);
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        dom
    }

    /// A function whose block `b` ends in `ret` (no successors), a jump
    /// (one) or a branch on `t0` (two) to `succs[b]`.
    fn cfg(succs: &[Vec<usize>]) -> FuncIr {
        let blocks = succs
            .iter()
            .map(|s| {
                let target = |i: usize| BlockId(s[i] as u32);
                let term = match s.len() {
                    0 => Instr::Ret { value: None },
                    1 => Instr::Jump { target: target(0) },
                    _ => Instr::Branch {
                        cond: t(0).into(),
                        if_true: target(0),
                        if_false: target(1),
                    },
                };
                Block { instrs: vec![term] }
            })
            .collect();
        FuncIr {
            name: "cfg".into(),
            blocks,
            temp_count: 1,
            param_temps: vec![t(0)],
            frame_size: 0,
            returns_value: false,
        }
    }

    fn assert_matches_reference(f: &FuncIr, mask: &[bool], label: &str) {
        let dom = Dominators::masked(f, mask);
        let want = reference(f, mask);
        for (b, want) in want.iter().enumerate() {
            for a in 0..f.blocks.len() {
                assert_eq!(
                    dom.dominates(a, b),
                    want.contains(&a),
                    "{label}: does bb{a} dominate bb{b}? mask={mask:?}\n{}",
                    f.dump()
                );
            }
        }
    }

    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Every pair of blocks against the reference, on random CFGs with
    /// edges back into bb0, dead pred-less blocks jumping into loops,
    /// and unreachable cycles, each under the full mask, an SCCP-style
    /// executable set (a walk from bb0 that follows one or both arms of
    /// each branch) and an arbitrary mask.
    #[test]
    fn dominators_match_the_dataflow_reference() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        for case in 0..600 {
            let n = 1 + rng.below(10);
            let mut succs: Vec<Vec<usize>> = (0..n)
                .map(|_| (0..rng.below(3)).map(|_| rng.below(n)).collect())
                .collect();
            if rng.below(2) == 0 {
                // A dead block with no predecessor entering the graph
                // anywhere (loop bodies included).
                succs.push(vec![rng.below(n)]);
            }
            if rng.below(2) == 0 {
                // An unreachable two-block cycle, maybe leaking out.
                let x = succs.len();
                let exit = (0..rng.below(2)).map(|_| rng.below(n));
                succs.push(vec![x + 1]);
                succs.push(std::iter::once(x).chain(exit).collect());
            }
            let f = cfg(&succs);
            let nb = succs.len();
            assert_matches_reference(&f, &vec![true; nb], &format!("case {case} full"));
            let mut exec = vec![false; nb];
            let mut work = vec![0usize];
            while let Some(b) = work.pop() {
                if std::mem::replace(&mut exec[b], true) {
                    continue;
                }
                match succs[b].as_slice() {
                    [x, y] => match rng.below(3) {
                        0 => work.push(*x),
                        1 => work.push(*y),
                        _ => work.extend([*x, *y]),
                    },
                    s => work.extend_from_slice(s),
                }
            }
            assert_matches_reference(&f, &exec, &format!("case {case} sccp"));
            let any: Vec<bool> = (0..nb).map(|_| rng.below(4) != 0).collect();
            assert_matches_reference(&f, &any, &format!("case {case} arbitrary"));
        }
    }

    /// bb0: jump bb1 — bb1 (header): br bb2, bb3 — bb2 (body): jump bb1
    /// — bb3: ret — bb4 (dead, no predecessor): jump bb2.
    ///
    /// bb4 is a second entry into the loop body, so neither bb0 nor the
    /// header dominates the body and the latch edge is no back edge. A
    /// tree rooted at bb0 alone would call bb2→bb1 a natural loop and
    /// let licm hoist into a preheader that bb4's path skips.
    #[test]
    fn dead_block_entering_a_loop_body_is_a_second_entry() {
        let f = cfg(&[vec![1], vec![2, 3], vec![1], vec![], vec![2]]);
        let dom = Dominators::of(&f);
        assert!(!dom.dominates(0, 1), "bb0 must not dominate the header");
        assert!(
            !dom.dominates(1, 2),
            "the header must not dominate the body"
        );
        assert!(dom.dominates(1, 3) && !dom.dominates(0, 3));
        assert_eq!(back_edges(&f, &dom), vec![]);
        assert_matches_reference(&f, &[true; 5], "regression");
    }

    /// Blocks no root reaches — here a self-loop with no other entry —
    /// stay dominated by every block, as in the greatest fixpoint.
    #[test]
    fn unreached_blocks_are_dominated_by_every_block() {
        let f = cfg(&[vec![], vec![1]]);
        let dom = Dominators::of(&f);
        assert!(dom.dominates(0, 1) && dom.dominates(1, 1));
        assert!(!dom.dominates(1, 0));
        assert_eq!(back_edges(&f, &dom), vec![(1, 1)]);
    }
}
