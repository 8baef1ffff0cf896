//! Golden pin of the optimizer's output itself.
//!
//! The tables goldens pin the optimizer only through cycle counts, and
//! the collector golden only through VM results; a rewrite that changes
//! the IR without moving either would pass both. This test pins the IR:
//! one line per (program, mode) with the FNV-1a digest of every
//! optimized function's [`cvm::FuncIr::dump`], the optimized instruction
//! count, the fixpoint driver's sweep count, and each registered pass's
//! fires, all summed over the program's functions.
//!
//! Programs: the four paper workloads and gcfuzz seed 1, cases 0..199,
//! each built `-O` and `-O, safe`. Every program is compiled with the
//! optimizer disabled to get the exact pre-optimizer IR, then each
//! function is driven through [`cvm::optimize_func_ledger`] under the
//! mode's real options.
//!
//! On a mismatch the test prints the freshly generated log, so an
//! intended change to the optimizer's output can be reviewed as a diff
//! of `tests/golden/opt_ir.txt`.

mod common;

use common::fnv1a;
use cvm::CompileOptions;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/opt_ir.txt");

/// gcfuzz campaign pinned here: seed and number of cases.
const FUZZ_SEED: u64 = 1;
const FUZZ_CASES: u64 = 200;

fn opt_line(log: &mut String, name: &str, mode: &str, source: &str, copts: &CompileOptions) {
    let mut front = copts.clone();
    front.opt.enabled = false;
    let prog = match cvm::compile(source, &front) {
        Ok(p) => p,
        Err(e) => {
            writeln!(
                log,
                "{name} {mode} error={}",
                e.lines().next().unwrap_or("")
            )
            .unwrap();
            return;
        }
    };
    let mut dumps = String::new();
    let (mut instrs, mut sweeps) = (0usize, 0usize);
    let mut fires: Vec<(&str, usize)> = cvm::pass_names().into_iter().map(|n| (n, 0)).collect();
    for f in &prog.funcs {
        let mut f = f.clone();
        let ledger = cvm::optimize_func_ledger(&mut f, copts.opt);
        dumps.push_str(&f.dump());
        instrs += f.instr_count();
        sweeps += ledger.sweeps;
        for (slot, (_, n)) in fires.iter_mut().zip(&ledger.fires) {
            slot.1 += n;
        }
    }
    let fires: Vec<String> = fires.iter().map(|(p, n)| format!("{p}:{n}")).collect();
    writeln!(
        log,
        "{name} {mode} ir_fnv={:016x} instrs={instrs} sweeps={sweeps} fires=[{}]",
        fnv1a(dumps.bytes()),
        fires.join(" ")
    )
    .unwrap();
}

fn opt_log() -> String {
    let modes = [
        ("-O", CompileOptions::optimized()),
        ("-O, safe", CompileOptions::optimized_safe()),
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
            opt_line(&mut log, name, mode, source, copts);
        }
    }
    log
}

#[test]
fn optimized_ir_matches_the_golden_log() {
    let log = opt_log();
    if log != GOLDEN {
        let first = log
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(log.lines().count().min(GOLDEN.lines().count()));
        eprintln!("----- fresh optimizer log -----\n{log}----- end -----");
        panic!(
            "optimizer output diverged from tests/golden/opt_ir.txt at line {} \
             (fresh log printed above)",
            first + 1
        );
    }
}
