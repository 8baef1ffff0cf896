//! Golden pin of the code generator's output itself.
//!
//! The tables goldens see generated assembly only through cycle and size
//! totals, so a register-allocation or instruction-selection change that
//! happens to keep those sums would pass them. This test pins the
//! assembly: one line per (program, compile options, machine) with, for
//! each function in program order, the FNV-1a digest of its
//! [`asmpost::codegen_program`] listing and its spill count.
//!
//! Programs: the four paper workloads and gcfuzz seed 1, cases 0..99,
//! each built `-O`, `-O, safe`, `-g` and `-g, checked` and generated for
//! all three machines. `-O, safe+post` generates code from the `-O, safe`
//! IR, so these four builds cover all five modes before the peephole.
//!
//! On a mismatch the test prints the freshly generated log, so an
//! intended change to the generated code can be reviewed as a diff of
//! `tests/golden/asm.txt`.

mod common;

use asmpost::Machine;
use common::fnv1a;
use cvm::CompileOptions;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/asm.txt");

/// gcfuzz campaign pinned here: seed and number of cases.
const FUZZ_SEED: u64 = 1;
const FUZZ_CASES: u64 = 100;

fn asm_log() -> String {
    let modes = [
        ("-O", CompileOptions::optimized()),
        ("-O, safe", CompileOptions::optimized_safe()),
        ("-g", CompileOptions::debug()),
        ("-g, checked", CompileOptions::debug_checked()),
    ];
    let mut sources: Vec<(String, String)> = workloads::all()
        .iter()
        .map(|w| (w.name.to_string(), w.source.to_string()))
        .collect();
    for case in 0..FUZZ_CASES {
        sources.push((
            format!("gcfuzz-{FUZZ_SEED}-{case}"),
            gcfuzz::generate(FUZZ_SEED, case),
        ));
    }
    let mut log = String::new();
    for (name, source) in &sources {
        for (mode, copts) in &modes {
            let prog = cvm::compile(source, copts)
                .unwrap_or_else(|e| panic!("{name} {mode}: compile: {e}"));
            for machine in Machine::all() {
                let funcs: Vec<String> = asmpost::codegen_program(&prog, &machine)
                    .iter()
                    .map(|f| format!("{:016x}:{}", fnv1a(f.listing().bytes()), f.spill_count))
                    .collect();
                writeln!(log, "{name} {mode} {}: {}", machine.name, funcs.join(" ")).unwrap();
            }
        }
    }
    log
}

#[test]
fn generated_assembly_matches_the_golden_log() {
    let log = asm_log();
    if log != GOLDEN {
        let first = log
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(log.lines().count().min(GOLDEN.lines().count()));
        eprintln!("----- fresh assembly log -----\n{log}----- end -----");
        panic!(
            "generated assembly diverged from tests/golden/asm.txt at line {} \
             (fresh log printed above)",
            first + 1
        );
    }
}
