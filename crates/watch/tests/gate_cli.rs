//! The trajectory check end to end through the `bench` binary: a fresh
//! run passes against a committed trajectory aggregated from three
//! repeats however far its wall-clock fields move, and fails — exit 1,
//! the cell and field named — when a deterministic count moves or a cell
//! goes missing or appears.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One synthetic `BENCH_gc.json` run: two matrix cells and one micro
/// cell, with every wall-clock field scaled by `slow` and the micro
/// cell's `words_marked` by `words`.
fn run_doc(slow: u64, words: u64) -> String {
    let cell = |kind: &str, workload: &str, mode: &str, marked: u64, pause: u64| {
        format!(
            "{{\"schema\":\"gc/1\",\"kind\":\"{kind}\",\"workload\":\"{workload}\",\"mode\":\"{mode}\",\
\"collections\":13,\"objects_freed\":900,\"words_marked\":{marked},\"pages_swept\":40,\"roots_scanned\":120,\
\"max_pause_ns\":{},\"total_pause_ns\":{},\"mmu_10ms_permille\":{},\
\"max_pause_cause\":\"threshold\",\"max_pause_site\":\"micro\"}}",
            pause * slow,
            10 * pause * slow,
            1000 / slow,
        )
    };
    format!(
        "[\n  {},\n  {},\n  {}\n]\n",
        cell("matrix", "cfrac", "O", 5_000, 80_000),
        cell("matrix", "cfrac", "g", 5_200, 90_000),
        cell(
            "micro",
            "churn-small",
            "heap-direct",
            7_000 * words,
            200_000
        ),
    )
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, text).expect("write temp file");
    p
}

/// Runs `bench compare committed fresh`: (exit code, stdout).
fn compare(committed: &Path, fresh: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "compare",
            committed.to_str().unwrap(),
            fresh.to_str().unwrap(),
        ])
        .output()
        .expect("bench binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// A committed trajectory folded from three repeats by the same
/// aggregator `tables --bench-json --repeat 3` uses.
fn committed(dir: &Path) -> PathBuf {
    let repeats: Vec<_> = [1, 2, 1]
        .iter()
        .map(|&slow| gcwatch::stats::parse_cells(&run_doc(slow, 1)).expect("repeat parses"))
        .collect();
    let text = gcwatch::aggregate(&repeats).expect("aggregates");
    assert!(text.contains("\"repeats\":3"), "{text}");
    assert!(text.contains("max_pause_ns_mad"), "{text}");
    write(dir, "committed.json", &text)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcwatch-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn wall_clock_moves_pass_and_a_doubled_count_fails() {
    let dir = temp_dir("check");
    let committed = committed(&dir);

    // Ten times slower everywhere, same work: passes, and the report
    // shows the fresh pause beside the committed one.
    let slow = write(&dir, "slow.json", &run_doc(10, 1));
    let (code, report) = compare(&committed, &slow);
    assert_eq!(code, Some(0), "only wall clock moved:\n{report}");
    assert!(report.contains("check: PASS (3 cells"), "{report}");
    assert!(
        report.contains("churn-small/heap-direct max_pause_ns 2000000 (200000 ± 0)"),
        "{report}"
    );

    // The micro cell marks twice the words: exit 1, cell and field named.
    let doubled = write(&dir, "doubled.json", &run_doc(1, 2));
    let (code, report) = compare(&committed, &doubled);
    assert_eq!(code, Some(1), "a moved count must fail:\n{report}");
    assert!(
        report.contains("FAIL churn-small/heap-direct: words_marked committed 7000, fresh 14000"),
        "{report}"
    );
    assert!(report.contains("check: FAIL (1 differences)"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_or_extra_cell_fails() {
    let dir = temp_dir("cells");
    let committed = committed(&dir);
    let full = run_doc(1, 1);
    let micro = full
        .lines()
        .find(|l| l.contains("\"kind\":\"micro\""))
        .expect("doc has the micro cell");

    // The micro cell silently dropped.
    let dropped = full.replace(&format!(",\n{micro}"), "");
    assert_eq!(dropped.lines().count(), full.lines().count() - 1);
    let dropped = write(&dir, "dropped.json", &dropped);
    let (code, report) = compare(&committed, &dropped);
    assert_eq!(code, Some(1), "a skipped cell must fail:\n{report}");
    assert!(
        report.contains("FAIL churn-small/heap-direct: missing from the fresh run"),
        "{report}"
    );

    // A cell the committed trajectory never had.
    let extra = micro.replace("churn-small", "churn-new");
    let grown = full.replace(micro, &format!("{micro},\n{extra}"));
    let grown = write(&dir, "grown.json", &grown);
    let (code, report) = compare(&committed, &grown);
    assert_eq!(code, Some(1), "a new cell must fail:\n{report}");
    assert!(
        report.contains("FAIL churn-new/heap-direct: not in the committed trajectory"),
        "{report}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
