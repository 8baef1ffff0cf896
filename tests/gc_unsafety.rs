//! Experiment F2: the paper's headline hazard, as a test.
//!
//! The optimizer rewrites a final `p[i-1000]` so the only surviving value
//! points outside the object; with a collection at every allocation the
//! `-O` build loses the object, while the annotated build survives *with
//! the same optimizations enabled*.

use cvm::{compile, compile_and_run, CompileOptions, VmError, VmOptions};
use gcheap::HeapConfig;
use gcsafe::Config;

const SRC: &str = r#"
    char hazard(char *p) {
        char *trigger = (char *) malloc(64);
        long i = (long) trigger[0] + 2000;
        return p[i - 1000];
    }
    int main(void) {
        char *buf = (char *) malloc(4000);
        long j;
        for (j = 0; j < 4000; j++) buf[j] = (char)(j % 50);
        return hazard(buf);
    }
"#;

/// The step budget of every run here: a few times the longest run's
/// 88,139 steps, so a change that breaks a loop exit fails a test at
/// once instead of spinning through the default budget of two billion
/// steps.
const MAX_STEPS: u64 = 400_000;

/// The default options under [`MAX_STEPS`].
fn plain_vm() -> VmOptions {
    VmOptions {
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    }
}

fn aggressive_vm() -> VmOptions {
    VmOptions {
        heap_config: HeapConfig {
            gc_threshold: 1,
            ..HeapConfig::default()
        },
        ..plain_vm()
    }
}

#[test]
fn optimized_build_suffers_premature_collection() {
    let r = compile_and_run(SRC, &CompileOptions::optimized(), &aggressive_vm());
    match r {
        Err(VmError::UseAfterFree { .. }) => {}
        other => panic!("expected premature collection, got {other:?}"),
    }
}

#[test]
fn annotated_build_survives_the_same_optimizations() {
    let r = compile_and_run(SRC, &CompileOptions::optimized_safe(), &aggressive_vm())
        .expect("safe build runs to completion");
    // p[1000] = 1000 % 50 = 0.
    assert_eq!(r.exit_code, 0);
}

#[test]
fn debug_build_is_safe_without_annotations() {
    // "For most compilers, it is possible to guarantee GC-safety by
    // generating fully debuggable code."
    let r =
        compile_and_run(SRC, &CompileOptions::debug(), &aggressive_vm()).expect("-g build runs");
    assert_eq!(r.exit_code, 0);
}

#[test]
fn disabling_the_disguising_passes_also_avoids_the_hazard() {
    // "Such problems are in fact extremely rare with existing compilers" —
    // without reassociation+scheduling the baseline happens to be safe.
    let mut opts = CompileOptions::optimized();
    opts.opt.reassociate = false;
    opts.opt.schedule = false;
    let r = compile_and_run(SRC, &opts, &aggressive_vm()).expect("tame optimizer is safe");
    assert_eq!(r.exit_code, 0);
}

#[test]
fn the_disguise_is_visible_in_the_ir() {
    let prog = compile(SRC, &CompileOptions::optimized()).expect("compiles");
    let f = &prog.funcs[prog.func_index("hazard").expect("defined")];
    let dump = f.dump();
    assert!(
        dump.contains(", 1000)") && dump.contains("Sub(t"),
        "displaced base present:\n{dump}"
    );
    // The displaced base is computed before the allocation call.
    let block0 = dump
        .lines()
        .skip_while(|l| !l.starts_with("bb0"))
        .take_while(|l| !l.starts_with("bb1"))
        .collect::<Vec<_>>()
        .join("\n");
    let sub_pos = block0.find("Sub(t").expect("sub in entry block");
    let call_pos = block0
        .find("call Malloc")
        .expect("allocation in entry block");
    assert!(sub_pos < call_pos, "sub hoisted above the call:\n{block0}");
}

#[test]
fn safe_ir_keeps_the_base_alive_across_the_call() {
    use cvm::ir::Instr;
    use cvm::liveness::gc_root_maps;
    let prog = compile(SRC, &CompileOptions::optimized_safe()).expect("compiles");
    let fi = prog.func_index("hazard").expect("defined");
    let f = &prog.funcs[fi];
    // Find the param temp (p) and the allocation call.
    let p = f.param_temps[0];
    let maps = gc_root_maps(f);
    let mut found_alloc = false;
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, ins) in b.instrs.iter().enumerate() {
            if let Instr::Call { .. } = ins {
                found_alloc = true;
                let roots = &maps[&(bi as u32, ii as u32)];
                assert!(
                    roots.contains(&p),
                    "KEEP_LIVE must keep p (t{}) live across the call; live: {roots:?}\n{}",
                    p.0,
                    f.dump()
                );
            }
        }
    }
    assert!(found_alloc, "hazard contains an allocation call");
}

// ---------------------------------------------------------------------
// The loop form of the hazard: LICM hoists the displaced base to the
// preheader, so inside the loop the only derived value points outside
// the object while allocations trigger collections — the paper's
// "induction variable optimizations" scenario. The variant part of the
// index flows through a load so it stays opaque: were it `t[0] + 1500`,
// a second reassociation sweep would merge the constants into `p + 500`
// — an *interior* pointer the conservative scan recognises — and the
// demonstration would quietly stop demonstrating anything.
// ---------------------------------------------------------------------

const LOOP_SRC: &str = r#"
    long hazard_loop(char *p) {
        long s = 0;
        long j;
        for (j = 0; j < 3; j++) {
            char *t = (char *) malloc(32);   /* GC trigger inside the loop */
            t[0] = 15;
            long i = (long) t[0] * 100;      /* 1500, opaque to the optimizer */
            s += p[i - 1000];
        }
        return s;
    }
    int main(void) {
        char *buf = (char *) malloc(4000);
        long j;
        for (j = 0; j < 4000; j++) buf[j] = (char)(j % 50);
        return (int)(hazard_loop(buf) % 256);
    }
"#;

#[test]
fn loop_hoisted_disguise_also_bites() {
    let r = compile_and_run(LOOP_SRC, &CompileOptions::optimized(), &aggressive_vm());
    match r {
        Err(VmError::UseAfterFree { .. }) => {}
        other => panic!("expected premature collection in the loop form, got {other:?}"),
    }
}

#[test]
fn loop_form_is_safe_when_annotated() {
    let r = compile_and_run(
        LOOP_SRC,
        &CompileOptions::optimized_safe(),
        &aggressive_vm(),
    )
    .expect("annotated loop survives");
    // p[500] = 500 % 50 = 0, three times.
    assert_eq!(r.exit_code, 0);
}

#[test]
fn disabling_licm_hides_the_loop_hazard() {
    let mut opts = CompileOptions::optimized();
    opts.opt.licm = false;
    opts.opt.schedule = false;
    let r = compile_and_run(LOOP_SRC, &opts, &aggressive_vm())
        .expect("without hoisting the base survives in-loop");
    assert_eq!(r.exit_code, 0);
}

// ---------------------------------------------------------------------
// Every annotator configuration the ablation table measures must be
// GC-safe, not only the paper's: each one's `-O` build runs both
// hazards, the loop form and the fuzz corpus's copy of the hazard under
// the paranoid collector, stop-the-world and bounded-pause.
// ---------------------------------------------------------------------

/// The fuzz corpus's displaced-base entry, which also prints its result.
const CORPUS_SRC: &str = include_str!("corpus/displaced_base.c");

/// The ablation table's annotated `-O` builds, by column name.
fn ablation_builds() -> [(&'static str, CompileOptions); 4] {
    let annotated = |config: Config| CompileOptions {
        annotate: Some(config),
        ..CompileOptions::optimized_safe()
    };
    [
        ("safe", CompileOptions::optimized_safe()),
        (
            "no-opt1",
            annotated(Config {
                skip_copies: false,
                ..Config::gc_safe()
            }),
        ),
        (
            "base-heur",
            annotated(Config {
                base_heuristic: true,
                ..Config::gc_safe()
            }),
        ),
        ("naive-call", CompileOptions::optimized_safe_naive()),
    ]
}

#[test]
fn every_ablation_build_survives_the_paranoid_collector() {
    let bounded = VmOptions {
        heap_config: HeapConfig {
            gc_threshold: 1,
            mark_budget_bytes: 64,
            ..HeapConfig::bounded_pause()
        },
        ..plain_vm()
    };
    let programs = [
        ("hazard", SRC),
        ("loop", LOOP_SRC),
        ("displaced_base.c", CORPUS_SRC),
    ];
    for (program, src) in programs {
        let want = compile_and_run(src, &CompileOptions::debug(), &plain_vm())
            .unwrap_or_else(|e| panic!("{program} -g: {e:?}"));
        for (build, copts) in ablation_builds() {
            for (collector, vm) in [("paranoid", aggressive_vm()), ("bounded", bounded.clone())] {
                let got = compile_and_run(src, &copts, &vm)
                    .unwrap_or_else(|e| panic!("{program}, {build} build, {collector}: {e:?}"));
                assert_eq!(
                    (got.exit_code, &got.output),
                    (want.exit_code, &want.output),
                    "{program}, {build} build, {collector}"
                );
            }
        }
    }
}
