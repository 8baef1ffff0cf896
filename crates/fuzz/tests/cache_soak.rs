//! Fuzz soak with the compilation cache in the loop: running the same
//! campaign twice must produce identical verdicts — the second pass is
//! served entirely from the compile cache, so any divergence means a
//! cached build behaved differently from a cold compile.
//!
//! The case count keeps the campaign's ~4 compile-cache entries per
//! program well under the cache's per-shard FIFO capacity (512 entries
//! over 16 shards): larger campaigns overflow the fuller shards and the
//! warm pass stops being pure hits.

#[test]
fn warm_campaign_verdicts_match_cold_with_a_nonzero_hit_rate() {
    let cold = gcfuzz::run_campaign(7, 60, 4);
    assert!(
        cold.failures.is_empty(),
        "cold campaign diverged: {:?}",
        cold.failures
    );
    let before = cvm::compile_cache_stats();
    let warm = gcfuzz::run_campaign(7, 60, 4);
    let after = cvm::compile_cache_stats();
    assert_eq!(cold, warm, "warm campaign verdicts differ from cold");
    assert!(
        after.hits > before.hits,
        "the warm campaign never hit the compile cache"
    );
    assert_eq!(
        after.misses, before.misses,
        "the warm campaign recompiled something the cold pass cached"
    );
}
