//! The fuzz oracle's compile-cache traffic, pinned in a test binary of
//! its own so no concurrent test touches the process-global cache
//! between the snapshots.
//!
//! The oracle parses a program once and builds each distinct set of
//! compile options once: on a cold cache that is four misses and no hit
//! per program, because `-O, safe+post` takes `-O, safe`'s verdict
//! without a lookup of its own. An `-O` measurement afterwards is served
//! from the oracle's `-O` build.

use gcfuzz::Mode;

/// Generated programs the test checks.
const PROGRAMS: u64 = 10;

/// (hits, misses) that `work` adds to the compile cache.
fn traffic(work: impl FnOnce()) -> (u64, u64) {
    let before = cvm::compile_cache_stats();
    work();
    let after = cvm::compile_cache_stats();
    (after.hits - before.hits, after.misses - before.misses)
}

#[test]
fn the_oracle_builds_each_distinct_mode_once_and_leaves_its_o_build_cached() {
    let sources: Vec<String> = (0..PROGRAMS)
        .map(|case| gcfuzz::generate(3, case))
        .collect();
    cvm::compile_cache_clear();
    let checks = traffic(|| {
        for src in &sources {
            assert_eq!(gcfuzz::check(src), None, "diverges:\n{src}");
        }
    });
    assert_eq!(
        checks,
        (0, 4 * PROGRAMS),
        "each check misses once per distinct build and never hits"
    );
    let measures = traffic(|| {
        for src in &sources {
            gc_safety::measure_source(src, b"", Mode::O).expect("measures");
        }
    });
    assert_eq!(
        measures,
        (PROGRAMS, 0),
        "each -O measurement hits the oracle's build"
    );
}
