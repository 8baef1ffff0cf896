//! The collection microbench: deterministic allocation schedules driven
//! straight against [`gcheap::GcHeap`] (no VM in the loop), so the
//! mark/sweep costs the matrix cells only brush against — cfrac at paper
//! scale never even crosses the 256 KiB threshold — are measured under
//! real collection pressure. Three schedules mirror the paper's workload
//! shapes:
//!
//! * `churn-small` — cfrac-like: a tight loop of short-lived small
//!   objects with a sliding window of survivors;
//! * `churn-mixed` — gs-like: small objects plus periodic multi-page
//!   buffers, some long-lived;
//! * `graph` — cordtest-like: linked structures the mark phase must
//!   chase through heap memory, dropped in batches;
//! * `churn-ptr` — barrier-heavy: lists rewired across generations so
//!   every allocation is chased by pointer stores into existing objects.
//!
//! Every schedule uses [`HeapConfig::bounded_pause`] (48 KiB threshold,
//! incremental marking, nursery collections), drives
//! allocation exactly the way the VM does
//! ([`GcHeap::alloc_with_roots_sited`]: threshold/increment work at the
//! safe point, retry through an emergency collection on OOM), reports
//! heap pointer stores through [`GcHeap::write_barrier`], and is seeded
//! xorshift-deterministic: the allocation *counts* are byte-identical
//! run to run; only the nanosecond timings move. The counts are the
//! `micro` cells of `BENCH_gc.json`, which CI compares byte for byte
//! with a fresh run; the wall clock times perfbench's `heap` workload.
//! The tests below pin that all four schedules run and collect.
//!
//! Unlike the VM, which hands the heap a [`gcheap::Roots::Lazy`] builder,
//! every schedule builds its full [`RootSet`] before each allocation and
//! passes it prebuilt. That is on purpose: the schedules define the
//! `heap` benchmark workload, and their cost, root building included,
//! stays what that baseline measured.

use gcheap::{GcHeap, HeapConfig, HeapStats, Memory, RootSet};
use gcprof::{ProfData, ProfHandle};
use std::time::Instant;

/// One measured microbench schedule.
#[derive(Debug, Clone)]
pub struct MicroCell {
    /// Schedule name (`churn-small`, `churn-mixed`, `graph`, `churn-ptr`).
    pub name: &'static str,
    /// Final collector statistics for the run.
    pub stats: HeapStats,
    /// Wall-clock time for the whole schedule, in nanoseconds.
    pub wall_ns: u64,
    /// The schedule's profile: the per-collection attribution log (for
    /// timelines and work totals) and the pause timeline.
    pub prof: ProfData,
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }
    fn next(&mut self) -> u64 {
        // xorshift64*, as in tests/common.
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn roots_of(live: &[u64]) -> RootSet {
    let mut roots = RootSet::new();
    for &a in live {
        roots.add_word(a);
    }
    roots
}

/// Allocates like the VM does: one allocation safe point, which under the
/// bounded-pause config advances an in-flight mark cycle by one budgeted
/// increment, begins a cycle or runs a nursery collection at the
/// threshold, and retries through an emergency collection on OOM. Returns
/// `None` only when the heap is exhausted even after collecting.
fn alloc_at_safe_point(
    heap: &mut GcHeap,
    mem: &mut Memory,
    size: u64,
    live: &[u64],
) -> Option<u64> {
    heap.alloc_with_roots_sited(mem, size, &roots_of(live), Some("micro"))
        .ok()
}

fn run_schedule(
    name: &'static str,
    allocs: u64,
    f: impl FnOnce(&mut GcHeap, &mut Memory, u64),
) -> MicroCell {
    // 32 MiB of heap: enough bump region that the multi-page objects in
    // churn-mixed never exhaust contiguity (large pages are not recycled
    // for large objects), so the schedules measure collection cost, not
    // out-of-memory thrash.
    let mut mem = Memory::new(1 << 16, 1 << 16, 32 << 20);
    let mut heap = GcHeap::new(&mem, HeapConfig::bounded_pause());
    // Every schedule runs profiled: the collection log feeds the work
    // totals in BENCH_gc.json and the timeline export.
    let prof = ProfHandle::enabled();
    heap.set_prof(prof.clone());
    let t0 = Instant::now();
    f(&mut heap, &mut mem, allocs);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    MicroCell {
        name,
        stats: heap.stats(),
        wall_ns,
        prof: prof.snapshot().expect("profile is enabled"),
    }
}

fn churn_small(heap: &mut GcHeap, mem: &mut Memory, allocs: u64) {
    let mut rng = Rng::new(1);
    let mut live: Vec<u64> = Vec::new();
    const WINDOW: usize = 512;
    for _ in 0..allocs {
        let size = 8 + rng.below(200);
        if let Some(a) = alloc_at_safe_point(heap, mem, size, &live) {
            live.push(a);
            if live.len() > WINDOW {
                let idx = rng.below(live.len() as u64 / 2) as usize;
                live.swap_remove(idx);
            }
        }
    }
}

fn churn_mixed(heap: &mut GcHeap, mem: &mut Memory, allocs: u64) {
    let mut rng = Rng::new(2);
    let mut live: Vec<u64> = Vec::new();
    let mut old: Vec<u64> = Vec::new();
    for i in 0..allocs {
        let size = if i % 64 == 63 {
            4096 + rng.below(3 * 4096)
        } else {
            16 + rng.below(480)
        };
        let mut all: Vec<u64> = live.clone();
        all.extend_from_slice(&old);
        if let Some(a) = alloc_at_safe_point(heap, mem, size, &all) {
            if i % 16 == 0 && old.len() < 256 {
                old.push(a); // long-lived
            } else {
                live.push(a);
                if live.len() > 384 {
                    let idx = rng.below(live.len() as u64) as usize;
                    live.swap_remove(idx);
                }
            }
        }
    }
}

fn graph(heap: &mut GcHeap, mem: &mut Memory, allocs: u64) {
    let mut rng = Rng::new(3);
    // Rooted list heads; each head chains nodes through heap words so the
    // mark phase traverses pointer-filled memory. Chains are dropped often
    // enough that the live set settles around a few thousand nodes —
    // heavy mark work without ever filling the heap.
    let mut heads: Vec<u64> = Vec::new();
    let mut tails: Vec<u64> = Vec::new();
    for i in 0..allocs {
        let size = 24 + rng.below(104);
        if let Some(a) = alloc_at_safe_point(heap, mem, size, &heads) {
            if heads.is_empty() || (heads.len() < 32 && rng.below(16) == 0) {
                heads.push(a);
                tails.push(a);
            } else {
                let h = rng.below(heads.len() as u64) as usize;
                // Link the previous tail to the new node (and tell the
                // collector: the tail may be old or already scanned).
                mem.write(tails[h], 8, a).expect("node is mapped");
                heap.write_barrier(tails[h], a);
                tails[h] = a;
            }
            // Periodically drop a whole chain.
            if i % 128 == 127 && heads.len() > 8 {
                let idx = rng.below(heads.len() as u64) as usize;
                heads.swap_remove(idx);
                tails.swap_remove(idx);
            }
        }
    }
}

fn churn_ptr(heap: &mut GcHeap, mem: &mut Memory, allocs: u64) {
    let mut rng = Rng::new(4);
    // A rooted table of list heads. Every new node is pushed onto a
    // random list through a heap pointer store, lists are periodically
    // spliced together (the only reference to a whole chain moves into
    // heap memory — old→young stores the cards must catch), and whole
    // lists are dropped. This is the write barrier's microbench: the
    // mutator's pointer graph churns *while* marking is in flight.
    const HEADS: usize = 64;
    let mut heads: Vec<u64> = vec![0; HEADS];
    for i in 0..allocs {
        let size = 16 + rng.below(112);
        let live: Vec<u64> = heads.iter().copied().filter(|&a| a != 0).collect();
        let Some(a) = alloc_at_safe_point(heap, mem, size, &live) else {
            continue;
        };
        let h = rng.below(HEADS as u64) as usize;
        mem.write(a, 8, heads[h]).expect("node is mapped");
        heap.write_barrier(a, heads[h]);
        heads[h] = a;
        if i % 32 == 31 {
            // Splice list `src` onto a node a few links into list `dst`.
            let src = rng.below(HEADS as u64) as usize;
            let dst = rng.below(HEADS as u64) as usize;
            if src != dst && heads[src] != 0 && heads[dst] != 0 {
                let mut p = heads[dst];
                let mut steps = rng.below(8);
                loop {
                    let next = mem.read(p, 8).expect("node is mapped");
                    if next == 0 || steps == 0 {
                        break;
                    }
                    p = next;
                    steps -= 1;
                }
                mem.write(p, 8, heads[src]).expect("node is mapped");
                heap.write_barrier(p, heads[src]);
                heads[src] = 0; // the chain now hangs off heap memory only
            }
        }
        if i % 96 == 95 {
            let d = rng.below(HEADS as u64) as usize;
            heads[d] = 0; // drop a whole list
        }
    }
}

/// Runs every microbench schedule at the given size (`tiny` keeps CI
/// smoke runs under a second) and returns the measured cells in a fixed
/// order.
pub fn gc_microbench(tiny: bool) -> Vec<MicroCell> {
    let n = if tiny { 20_000 } else { 120_000 };
    vec![
        run_schedule("churn-small", n, churn_small),
        run_schedule("churn-mixed", n, churn_mixed),
        run_schedule("graph", n, graph),
        run_schedule("churn-ptr", n, churn_ptr),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_schedules_actually_collect() {
        let cells = gc_microbench(true);
        let names: Vec<&str> = cells.iter().map(|c| c.name).collect();
        assert_eq!(names, ["churn-small", "churn-mixed", "graph", "churn-ptr"]);
        for cell in cells {
            assert!(
                cell.stats.collections > 0,
                "{}: no collections under default threshold",
                cell.name
            );
            assert!(cell.stats.objects_freed > 0, "{}: nothing freed", cell.name);
            assert!(cell.stats.allocations > 0, "{}", cell.name);
            assert_eq!(
                cell.prof.collection_log.len() as u64,
                cell.stats.collections,
                "{}: one attribution record per collection",
                cell.name
            );
            assert!(
                cell.prof
                    .collection_log
                    .iter()
                    .all(|r| r.site.as_deref() == Some("micro")),
                "{}: microbench collections carry the harness site",
                cell.name
            );
            assert_eq!(
                cell.stats.collections_threshold
                    + cell.stats.collections_emergency
                    + cell.stats.collections_explicit
                    + cell.stats.collections_increment_finish
                    + cell.stats.collections_nursery,
                cell.stats.collections,
                "{}: the five cause counters partition the collection count",
                cell.name
            );
            assert!(
                cell.stats.collections_nursery > 0,
                "{}: bounded-pause schedules run nursery collections",
                cell.name
            );
            assert!(
                cell.stats.collections_increment_finish > 0,
                "{}: full collections arrive as finished mark cycles",
                cell.name
            );
            assert!(
                cell.stats.mark_increments > cell.stats.collections_increment_finish,
                "{}: cycles take more than one bounded stop",
                cell.name
            );
            assert!(
                cell.stats.sweep_increments > cell.stats.collections_increment_finish,
                "{}: finishing sweeps are retired in chunks",
                cell.name
            );
        }
    }

    #[test]
    fn microbench_counts_are_deterministic() {
        let a = gc_microbench(true);
        let b = gc_microbench(true);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.stats.allocations, y.stats.allocations, "{}", x.name);
            assert_eq!(x.stats.collections, y.stats.collections, "{}", x.name);
            assert_eq!(x.stats.objects_freed, y.stats.objects_freed, "{}", x.name);
            assert_eq!(x.stats.bytes_live, y.stats.bytes_live, "{}", x.name);
            assert_eq!(
                x.stats.collections_threshold, y.stats.collections_threshold,
                "{}",
                x.name
            );
            assert_eq!(
                x.stats.collections_emergency, y.stats.collections_emergency,
                "{}",
                x.name
            );
            assert_eq!(
                x.stats.collections_nursery, y.stats.collections_nursery,
                "{}",
                x.name
            );
            assert_eq!(
                x.stats.collections_increment_finish, y.stats.collections_increment_finish,
                "{}",
                x.name
            );
            assert_eq!(
                x.stats.mark_increments, y.stats.mark_increments,
                "{}",
                x.name
            );
            assert_eq!(
                x.stats.sweep_increments, y.stats.sweep_increments,
                "{}",
                x.name
            );
            assert_eq!(x.stats.barrier_marks, y.stats.barrier_marks, "{}", x.name);
        }
    }
}
