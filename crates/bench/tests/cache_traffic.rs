//! The compile cache's traffic over the paper matrix, pinned in a test
//! binary of its own so no concurrent test touches the process-global
//! cache between the snapshots.
//!
//! A serial cold pass compiles each of the four workloads under four
//! distinct option sets: `-O, safe+post` is the `-O, safe` build plus
//! the postprocessor, so it is the one mode that hits. The warm pass
//! repeats every compile and must be served entirely from the cache.

use workloads::Scale;

/// (hits, misses) one serial tiny matrix pass adds to the compile cache.
fn matrix_traffic() -> (u64, u64) {
    let before = gc_safety::cache_stats();
    gcbench::collect_jobs(Scale::Tiny, 1).expect("tiny matrix measures");
    let after = gc_safety::cache_stats();
    (after.hits - before.hits, after.misses - before.misses)
}

#[test]
fn cold_matrix_reuses_only_the_safe_build_and_warm_matrix_is_pure_hits() {
    gc_safety::cache_clear();
    assert_eq!(
        matrix_traffic(),
        (4, 16),
        "cold pass: 4 workloads × 4 option sets miss, -O, safe+post hits"
    );
    assert_eq!(matrix_traffic(), (20, 0), "warm pass: all 20 cells hit");
}
