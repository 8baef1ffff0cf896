//! Stress: run every workload with a collection at *every* allocation —
//! the asynchronous-collector worst case the paper's multi-threaded
//! discussion targets ("all transformations are safe in a multi-threaded
//! environment, with an asynchronously triggered collector").
//!
//! Under this regime every disguised pointer is fatal, so a clean run of
//! all four allocation-heavy workloads in `-O safe` mode is the strongest
//! empirical form of the paper's correctness argument this repository can
//! execute.

use cvm::{compile_and_run, CompileOptions, VmOptions};
use gcheap::HeapConfig;
use workloads::Scale;

/// The step budget of every run here: a few times the longest run's
/// 1,057,306 steps, so a change that breaks a loop exit fails a test at
/// once instead of spinning through the default budget of two billion
/// steps.
const MAX_STEPS: u64 = 5_000_000;

fn paranoid_vm(input: Vec<u8>) -> VmOptions {
    VmOptions {
        heap_config: HeapConfig {
            gc_threshold: 1,
            ..HeapConfig::default()
        },
        input,
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    }
}

#[test]
fn safe_builds_survive_collection_at_every_allocation() {
    for w in workloads::all() {
        let input = (w.input)(Scale::Tiny);
        let base_vm = VmOptions {
            input: input.clone(),
            max_steps: MAX_STEPS,
            ..VmOptions::default()
        };
        let expected = compile_and_run(w.source, &CompileOptions::optimized(), &base_vm)
            .unwrap_or_else(|e| panic!("{} baseline: {e}", w.name))
            .output;
        let out = compile_and_run(
            w.source,
            &CompileOptions::optimized_safe(),
            &paranoid_vm(input),
        )
        .unwrap_or_else(|e| panic!("{} -O safe under paranoid GC: {e}", w.name));
        assert_eq!(
            out.output, expected,
            "{} output changed under paranoid GC",
            w.name
        );
        assert!(
            out.heap.collections > out.heap.allocations / 2,
            "{}: the paranoid regime really collected ({} collections, {} allocations)",
            w.name,
            out.heap.collections,
            out.heap.allocations
        );
    }
}

#[test]
fn debug_builds_survive_too() {
    // "For most compilers, it is possible to guarantee GC-safety by
    // generating fully debuggable code."
    for w in workloads::all() {
        let input = (w.input)(Scale::Tiny);
        compile_and_run(w.source, &CompileOptions::debug(), &paranoid_vm(input))
            .unwrap_or_else(|e| panic!("{} -g under paranoid GC: {e}", w.name));
    }
}

#[test]
fn annotated_ir_passes_the_static_safety_verifier() {
    // The machine-checked form of the paper's Correctness section: every
    // heap-capable address in the annotated, optimized workloads derives
    // from a protection point.
    for w in workloads::all() {
        let prog = cvm::compile(w.source, &CompileOptions::optimized_safe())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let violations = cvm::verify_program(&prog, false);
        assert!(
            violations.is_empty(),
            "{}: unprotected derived addresses: {:?}",
            w.name,
            violations
        );
    }
}

#[test]
fn unannotated_workloads_do_not_verify() {
    // Sanity for the verifier itself: plain optimized builds of the
    // pointer-heavy workloads contain raw derived addresses.
    let mut flagged = 0;
    for w in workloads::all() {
        let prog = cvm::compile(w.source, &CompileOptions::optimized())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        flagged += cvm::verify_program(&prog, false).len();
    }
    assert!(
        flagged > 10,
        "the verifier finds raw addressing in baselines: {flagged}"
    );
}

#[test]
fn safe_mode_adds_little_register_pressure() {
    // The Analysis section: "If the overhead were primarily due to
    // additional register pressure and hence register spills, one would
    // have expected much more substantial performance degradation on the
    // Intel Pentium machine". Even with six registers, the safe build
    // must add only a handful of spills.
    let pentium = asmpost::Machine::pentium90();
    for w in workloads::all() {
        let count = |opts: &CompileOptions| -> u32 {
            let prog = cvm::compile(w.source, opts).expect("compiles");
            asmpost::codegen_program(&prog, &pentium)
                .iter()
                .map(|f| f.spill_count)
                .sum()
        };
        let base = count(&CompileOptions::optimized());
        let safe = count(&CompileOptions::optimized_safe());
        assert!(
            safe <= base + 8,
            "{}: safe build ballooned Pentium spills ({base} → {safe})",
            w.name
        );
    }
}
