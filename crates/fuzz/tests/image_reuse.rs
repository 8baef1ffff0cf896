//! The fuzz oracle decodes each build once and runs it four times
//! (`cvm::Image`). This pins that reuse on the programs the oracle
//! sees: every regression-corpus entry and a slice of a gcfuzz seed, in
//! each distinct build of the five modes. One image runs under the
//! oracle's four option sets (default, profiled, paranoid and
//! bounded-paranoid) forwards and backwards, and each again after a run
//! that ran out of steps and after one that failed for want of heap.
//! Every run must equal a run of a fresh decode in output, exit code or
//! error, block counts, steps and every `HeapStats` count.

use cvm::{ExecOutcome, Image, VmError, VmOptions};
use gcfuzz::Mode;
use gcheap::HeapConfig;
use std::path::PathBuf;

/// The step budget of every run: the oracle's.
const MAX_STEPS: u64 = gcfuzz::oracle::MAX_STEPS;

/// Generated programs from the seed below.
const PROGRAMS: u64 = 12;

/// What a run reports, with the heap's wall-clock totals zeroed.
type Seen = Result<(Vec<u8>, i64, Vec<Vec<u64>>, u64, gcheap::HeapStats), VmError>;

fn seen(r: Result<ExecOutcome, VmError>) -> Seen {
    r.map(|o| {
        let heap = gcheap::HeapStats {
            total_pause_ns: 0,
            total_mark_ns: 0,
            total_sweep_ns: 0,
            ..o.heap
        };
        (o.output, o.exit_code, o.profile.block_counts, o.steps, heap)
    })
}

/// The oracle's option sets: default, profiled, paranoid (a collection
/// at every allocation, with the snapshot oracle) and bounded-paranoid.
fn oracle_options() -> [VmOptions; 4] {
    let default = VmOptions {
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    };
    [
        default.clone(),
        VmOptions {
            prof: gc_safety::ProfHandle::enabled(),
            ..default.clone()
        },
        VmOptions {
            heap_config: HeapConfig {
                gc_threshold: 1,
                ..HeapConfig::default()
            },
            snapshot_oracle: true,
            ..default.clone()
        },
        VmOptions {
            heap_config: HeapConfig {
                gc_threshold: 1,
                mark_budget_bytes: 64,
                ..HeapConfig::bounded_pause()
            },
            snapshot_oracle: true,
            ..default
        },
    ]
}

fn programs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut corpus: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable corpus file");
            (p.display().to_string(), src)
        })
        .collect();
    corpus.sort();
    assert!(corpus.len() >= 5, "corpus is populated");
    corpus.extend(
        (0..PROGRAMS).map(|case| (format!("seed 5 case {case}"), gcfuzz::generate(5, case))),
    );
    corpus
}

#[test]
fn one_image_runs_like_a_fresh_decode_under_every_oracle_option() {
    let options = oracle_options();
    let mut failed_before = 0;
    for (name, src) in programs() {
        let modes = Mode::all();
        for (i, mode) in modes.iter().enumerate() {
            let copts = mode.compile_options();
            if modes[..i].iter().any(|m| m.compile_options() == copts) {
                continue;
            }
            let prog = cvm::compile(&src, &copts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let fresh: Vec<Seen> = options
                .iter()
                .map(|o| seen(cvm::run_compiled(&prog, o)))
                .collect();
            let steps = fresh[0].as_ref().map_or(MAX_STEPS, |o| o.3);
            // A run cut short by the budget, and one with a single page of
            // heap collecting at every allocation, which runs out of
            // memory once the program holds more than that.
            let stalled = VmOptions {
                max_steps: steps / 2,
                ..options[2].clone()
            };
            let starved = VmOptions {
                heap_bytes: 4096,
                ..options[2].clone()
            };
            let image = Image::new(&prog);
            let label = |k: usize| format!("{name} [{}] options {k}", mode.label());
            for k in (0..options.len()).chain((0..options.len()).rev()) {
                assert_eq!(seen(image.run(&options[k])), fresh[k], "{}", label(k));
            }
            for before in [&stalled, &starved] {
                for (k, want) in fresh.iter().enumerate() {
                    let first = image.run(before);
                    assert_eq!(seen(first.clone()), seen(cvm::run_compiled(&prog, before)));
                    failed_before += u32::from(matches!(
                        first,
                        Err(e) if e != VmError::StepLimit
                    ));
                    assert_eq!(&seen(image.run(&options[k])), want, "{}", label(k));
                }
            }
        }
    }
    assert!(failed_before > 0, "some reuse follows a failed run");
}
