//! The `tables` command line rejects malformed invocations up front:
//! unknown tables and flags, missing or flag-like values, repeated flags,
//! and output flags on tables that measure no matrix all exit with status
//! 2 before any measurement runs, and never mistake the next flag for a
//! file name. A run writes only the files its command line names.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh working directory per case, so stray output files show up.
fn workdir(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tables_cli_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// The names of the files in `dir`, sorted.
fn written(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read work dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn tables(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("tables runs")
}

/// Runs `args` and asserts a usage error: exit 2, nothing on stdout, the
/// expected message on stderr, and no file written in the work dir.
fn assert_rejected(case: &str, args: &[&str], message: &str) {
    let dir = workdir(case);
    let out = tables(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} measured before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains(message),
        "{args:?}: expected '{message}' in {stderr}"
    );
    let written = written(&dir);
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
}

#[test]
fn flag_like_values_are_not_taken_as_file_names() {
    assert_rejected(
        "trace_tiny",
        &["sparc2", "--trace", "--tiny"],
        "--trace requires a value, got flag-like '--tiny'",
    );
}

#[test]
fn trailing_flag_without_value_is_rejected() {
    assert_rejected(
        "trailing_prof",
        &["sparc2", "--tiny", "--prof"],
        "--prof requires a value",
    );
}

#[test]
fn unknown_flags_are_rejected() {
    assert_rejected(
        "unknown_flag",
        &["sparc2", "--tiny", "--jbos", "2"],
        "unknown flag '--jbos'",
    );
}

#[test]
fn unknown_tables_are_rejected_before_measuring() {
    assert_rejected(
        "unknown_table",
        &["nosuch", "--tiny"],
        "unknown table 'nosuch'",
    );
}

#[test]
fn malformed_counts_and_repeats_are_rejected() {
    assert_rejected(
        "jobs_zero",
        &["sparc2", "--tiny", "--jobs", "0"],
        "--jobs takes a positive integer, got '0'",
    );
    assert_rejected(
        "twice",
        &["sparc2", "--tiny", "--tiny"],
        "--tiny given more than once",
    );
    assert_rejected(
        "two_tables",
        &["sparc2", "sparc10", "--tiny"],
        "unexpected argument 'sparc10'",
    );
    assert_rejected(
        "folded_alone",
        &["sparc2", "--tiny", "--folded", "f.txt"],
        "--folded requires --prof",
    );
    assert_rejected(
        "repeat_alone",
        &["sparc2", "--tiny", "--jobs", "2", "--repeat", "3"],
        "--repeat requires --bench-json",
    );
}

#[test]
fn tables_that_measure_no_matrix_reject_output_flags() {
    assert_rejected(
        "analysis_outputs",
        &[
            "analysis",
            "--tiny",
            "--bench-json",
            "x.json",
            "--prof",
            "p.prom",
            "--snap-dir",
            "snaps",
            "--trace",
            "t.jsonl",
        ],
        "--trace does not apply to 'analysis'",
    );
    assert_rejected(
        "spills_timeline",
        &["spills", "--timeline", "tl.json"],
        "--timeline does not apply to 'spills'",
    );
    assert_rejected(
        "spills_folded",
        &["spills", "--tiny", "--folded", "f.txt"],
        "--folded does not apply to 'spills'",
    );
}

#[test]
fn prof_writes_only_the_files_it_is_given() {
    let dir = workdir("prof_only");
    let out = tables(
        &dir,
        &["sparc2", "--tiny", "--jobs", "1", "--prof", "p.prom"],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(written(&dir), ["p.prom"]);
}

#[test]
fn well_formed_invocations_still_run() {
    // `analysis` prints the annotator listing without measuring the
    // matrix, so it exercises the accepted-flags path cheaply.
    let dir = workdir("analysis");
    let out = tables(&dir, &["analysis", "--tiny", "--jobs", "1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "the listing is printed");
}
