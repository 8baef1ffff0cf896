//! Golden pin of the paper's tables at tiny scale.
//!
//! `tables all --tiny` prints every table the reproduction regenerates:
//! the run-time slowdowns on the three machines, code expansion, the
//! postprocessor's effect, the annotator ablations, the shape verdicts
//! against the paper, register spills and the annotated listing. All of
//! it is deterministic, so it is compared byte for byte against
//! `tests/golden/tables_tiny.txt`, measured on two worker threads, which
//! must not change a byte either.
//!
//! On a mismatch the test prints the fresh output, so an intended change
//! to a table can be reviewed as a diff of the golden file.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../tests/golden/tables_tiny.txt");

#[test]
fn tiny_tables_match_the_golden_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["all", "--tiny", "--jobs", "2"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("tables runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    if fresh != GOLDEN {
        let first = fresh
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(fresh.lines().count().min(GOLDEN.lines().count()));
        eprintln!("----- fresh tables output -----\n{fresh}----- end -----");
        panic!(
            "tables all --tiny diverged from tests/golden/tables_tiny.txt at line {} \
             (fresh output printed above)",
            first + 1
        );
    }
}
