//! The `heap` workload: the collector microbench of `gcbench`, whose
//! schedules allocate straight against the heap, with no VM in the loop,
//! under real collection pressure. The program workloads spend well under
//! 1% of their time in mark and sweep; these schedules are where a change
//! to the collector shows. They are fixed, so the seed changes nothing.

use gcbench::MicroCell;
use gcheap::HeapStats;

/// The schedules, in the order `gcbench::gc_microbench` runs them.
pub const SCHEDULES: [&str; 4] = ["churn-small", "churn-mixed", "graph", "churn-ptr"];

/// Allocations every schedule makes at full size.
const ALLOCATIONS: u64 = 120_000;

/// A schedule's collector work counts, which repeat exactly from run to
/// run.
pub type Counts = [u64; 11];

/// The collector work counts of a schedule's statistics `s`.
pub fn counts(s: &HeapStats) -> Counts {
    [
        s.allocations,
        s.collections,
        s.collections_threshold,
        s.collections_emergency,
        s.collections_nursery,
        s.collections_increment_finish,
        s.mark_increments,
        s.sweep_increments,
        s.barrier_marks,
        s.objects_freed,
        s.bytes_live,
    ]
}

/// Why `cell`, the `i`th schedule run, is wrong, if it is. Every schedule
/// makes all its allocations without a failure, collects and frees, and
/// logs one record per collection; the collections by cause sum to the
/// total.
pub fn check(i: usize, cell: &MicroCell) -> Result<(), String> {
    let s = &cell.stats;
    if SCHEDULES.get(i) != Some(&cell.name) {
        return Err(format!("expected schedule {:?}", SCHEDULES.get(i)));
    }
    if s.allocations != ALLOCATIONS || s.failed_allocations != 0 {
        return Err(format!(
            "{} allocations and {} failed, expected {ALLOCATIONS} and none",
            s.allocations, s.failed_allocations
        ));
    }
    if s.collections == 0 || s.objects_freed == 0 {
        return Err("collected nothing".to_string());
    }
    let by_cause = s.collections_threshold
        + s.collections_emergency
        + s.collections_explicit
        + s.collections_increment_finish
        + s.collections_nursery;
    if by_cause != s.collections {
        return Err(format!(
            "{by_cause} collections by cause, {} in all",
            s.collections
        ));
    }
    let logged = cell.prof.collection_log.len() as u64;
    if logged != s.collections {
        return Err(format!(
            "{logged} collections logged, {} in all",
            s.collections
        ));
    }
    Ok(())
}
