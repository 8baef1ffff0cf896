//! Golden pin of the VM's results over generated programs.
//!
//! gcfuzz seed 1, cases 0..200, each built `-O`, `-O, safe` and
//! `-g, checked`, run once under the default collector. Each build
//! writes one line: the exit code or error text, then the same `vm`
//! fields `tests/gc_golden.rs` pins for the workloads (steps, dynamic
//! instructions, sorted builtin counts, builtin byte work, and FNV-1a
//! digests of the output and of the block counts). The safe builds
//! also record the collections and `objects_freed` of a second run
//! under `gc_threshold: 1`, where every allocation collects.
//!
//! The four tiny workloads in `gc.txt` exercise few of the IR shapes a
//! generated program does; this log covers the interpreter across two
//! hundred of them. On a mismatch the test prints the fresh log to diff
//! against `tests/golden/vm.txt`.

mod common;

use common::vm_line;
use cvm::{CompileOptions, VmOptions};
use gcheap::HeapConfig;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/vm.txt");

const SEED: u64 = 1;
const CASES: u64 = 200;
/// Step budget per run. The generated programs finish in under 10,000
/// steps, so a run that loops away fails fast with `StepLimit` instead
/// of running to the default budget.
const MAX_STEPS: u64 = 1_000_000;

fn case_lines(log: &mut String, case: u64) {
    let source = gcfuzz::generate(SEED, case);
    let modes = [
        ("-O", CompileOptions::optimized(), false),
        ("-O, safe", CompileOptions::optimized_safe(), true),
        ("-g, checked", CompileOptions::debug_checked(), true),
    ];
    let vopts = VmOptions {
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    };
    for (mode, copts, safe) in modes {
        let prog = cvm::compile(&source, &copts)
            .unwrap_or_else(|e| panic!("case {case} {mode}: compile: {e}"));
        write!(log, "case {case} {mode}: ").unwrap();
        match cvm::run_compiled(&prog, &vopts) {
            Ok(out) => write!(log, "exit={} {}", out.exit_code, vm_line(&prog, &out)),
            Err(e) => write!(log, "error={e}"),
        }
        .unwrap();
        if safe {
            let paranoid = VmOptions {
                heap_config: HeapConfig {
                    gc_threshold: 1,
                    ..HeapConfig::default()
                },
                ..vopts.clone()
            };
            match cvm::run_compiled(&prog, &paranoid) {
                Ok(out) => write!(
                    log,
                    " paranoid collections={} objects_freed={}",
                    out.heap.collections, out.heap.objects_freed
                ),
                Err(e) => write!(log, " paranoid error={e}"),
            }
            .unwrap();
        }
        log.push('\n');
    }
}

#[test]
fn vm_results_match_the_golden_log() {
    let mut log = String::new();
    for case in 0..CASES {
        case_lines(&mut log, case);
    }
    if log != GOLDEN {
        let first = log
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(log.lines().count().min(GOLDEN.lines().count()));
        eprintln!("----- fresh VM log -----\n{log}----- end -----");
        panic!(
            "VM results diverged from tests/golden/vm.txt at line {} \
             (fresh log printed above)",
            first + 1
        );
    }
}
