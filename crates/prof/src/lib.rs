//! # gcprof — low-overhead profiling for the gc-safety pipeline
//!
//! Where gctrace answers "what happened, in order", gcprof answers "how
//! much, and where from": log-bucketed [`Histogram`]s of pause times,
//! allocation sizes and sweep yields, per-allocation-site counters keyed
//! by the VM's shadow call stack, a point-in-time [`HeapCensus`] of the
//! collector's page map, and mutator-utilization ([`mmu_permille`])
//! windows over the pause timeline.
//!
//! The [`ProfHandle`] follows the `TraceHandle` discipline exactly: a
//! thin `Option<Arc<…>>` whose disabled form costs one branch and never
//! evaluates the closures that would build stack keys or walk the heap.
//! Enabled data lives behind a mutex per handle; the measurement matrix
//! gives every (workload, mode) cell its own handle, so cells never
//! contend and per-cell data is deterministic regardless of `--jobs`.
//!
//! Exports: Prometheus text exposition ([`prom`]), flamegraph-folded
//! stacks (assembled by gcbench from [`ProfData::sites`]), and the human
//! `ProfReport` table (also gcbench). Everything timing-free in the
//! exports is byte-identical between serial and parallel runs.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod census;
pub mod hist;
pub mod mmu;
pub mod prom;

pub use census::{ClassCensus, HeapCensus};
pub use hist::{decode_buckets, encode_buckets, Histogram};
pub use mmu::{mmu_permille, Pause, MMU_WINDOWS_NS};
pub use prom::PromWriter;

/// Why a collection ran. Attribution starts here: every pause in an
/// export can be traced back to the mutator action that triggered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectCause {
    /// The allocation-byte threshold was crossed at a safe point.
    #[default]
    Threshold,
    /// A failed allocation forced a collect-and-retry.
    Emergency,
    /// The program (or harness) asked for a collection directly.
    Explicit,
    /// An incremental mark cycle drained its worklist and finished with
    /// the final root re-scan plus sweep. The record's totals cover the
    /// whole cycle (initial root scan, every increment, the finish step).
    IncrementFinish,
    /// A nursery collection: only pages carved since the previous cycle
    /// were collected, guided by the store barrier's remembered-set cards.
    Nursery,
}

impl CollectCause {
    /// Stable lowercase name used in trace events and the Perfetto
    /// timeline.
    pub fn as_str(self) -> &'static str {
        match self {
            CollectCause::Threshold => "threshold",
            CollectCause::Emergency => "emergency",
            CollectCause::Explicit => "explicit",
            CollectCause::IncrementFinish => "increment-finish",
            CollectCause::Nursery => "nursery",
        }
    }

    /// Inverse of [`CollectCause::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "threshold" => Some(CollectCause::Threshold),
            "emergency" => Some(CollectCause::Emergency),
            "explicit" => Some(CollectCause::Explicit),
            "increment-finish" => Some(CollectCause::IncrementFinish),
            "nursery" => Some(CollectCause::Nursery),
            _ => None,
        }
    }
}

/// Everything one collection reports: the trigger, the deterministic
/// phase counters, and the wall-clock phase breakdown. The deterministic
/// fields are safe to export into byte-compared artifacts (traces,
/// timelines); the `*_ns` fields are wall clock and must stay behind the
/// same masking discipline as every other timing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollectionRecord {
    /// What triggered the collection.
    pub cause: CollectCause,
    /// Allocation-site label of the triggering allocation, when the
    /// caller knows it (VM allocations under an enabled handle).
    pub site: Option<String>,
    /// Bytes allocated since the previous collection (captured before
    /// the counter resets).
    pub bytes_since_gc: u64,
    /// Bytes live after the sweep.
    pub bytes_live: u64,
    /// Bytes returned to the free lists by the sweep.
    pub freed_bytes: u64,
    /// Candidate root words scanned.
    pub roots_scanned: u64,
    /// Heap words scanned while draining the mark worklist.
    pub words_marked: u64,
    /// Pages left holding at least one live object after the cycle.
    pub pages_live: u64,
    /// Carved pages the sweep visited.
    pub pages_swept: u64,
    /// Total stop-the-world pause, nanoseconds.
    pub pause_ns: u64,
    /// Mark-phase share of the pause, nanoseconds.
    pub mark_ns: u64,
    /// Sweep-phase share of the pause, nanoseconds.
    pub sweep_ns: u64,
    /// Root-scan share of the mark phase, nanoseconds.
    pub root_scan_ns: u64,
    /// Worklist-drain (heap-scan) share of the mark phase, nanoseconds.
    pub heap_scan_ns: u64,
    /// Sweep nanoseconds per size class as `(object size, ns)` pairs;
    /// object size `0` is the large-object pass. Empty when the heap
    /// skipped per-class timing (no trace or prof handle attached).
    pub class_sweep_ns: Vec<(u32, u64)>,
    /// Bounded mark stops the cycle took: the initial root scan counts
    /// as increment 1, then every budgeted drain stop, including the one
    /// whose root re-scan ended marking. The stop that demands a finish
    /// and the sweep chunks are not counted. `0` for a collection that
    /// finished in the stop that began it (stop-the-world or nursery).
    pub increments: u64,
    /// Heap words scanned by each bounded mark stop, in increment order
    /// (deterministic — safe for byte-compared timelines); the initial
    /// root scan is listed as `0`. A demanded finish step is not listed;
    /// its work is only in `roots_scanned`/`words_marked`, which cover
    /// the whole cycle.
    pub increment_words: Vec<u64>,
    /// Wall-clock stop for each bounded increment, as MMU-ready pauses on
    /// the profile timeline. Same masking discipline as the `*_ns`
    /// fields. Empty for a stop-the-world collection.
    pub increment_pauses: Vec<Pause>,
    /// Young pages the sweep visited (nursery cycles); `0` when the whole
    /// heap was collected.
    pub young_pages_swept: u64,
}

impl CollectionRecord {
    /// The per-class sweep breakdown in the repo's standard sparse string
    /// encoding (`"size:ns size:ns …"`, `-` when empty) — the same shape
    /// `encode_buckets` gives histograms crossing the trace boundary.
    pub fn class_sweep_encoded(&self) -> String {
        if self.class_sweep_ns.is_empty() {
            return "-".to_string();
        }
        let mut out = String::new();
        for (i, (size, ns)) in self.class_sweep_ns.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{size}:{ns}"));
        }
        out
    }

    /// The per-increment scanned-word counts in the same sparse string
    /// encoding (`"w w w"`, `-` when the cycle ran stop-the-world).
    /// Deterministic, so it may cross into byte-compared artifacts.
    pub fn increment_words_encoded(&self) -> String {
        if self.increment_words.is_empty() {
            return "-".to_string();
        }
        let mut out = String::new();
        for (i, w) in self.increment_words.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{w}"));
        }
        out
    }
}

/// Per-allocation-site totals. The site key is the VM's shadow call
/// stack joined with `;`, ending in the `primitive@line:col` site label
/// — already in flamegraph-folded frame order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteStats {
    /// Number of allocations attributed to the stack.
    pub allocs: u64,
    /// Requested bytes attributed to the stack.
    pub bytes: u64,
}

/// Everything one profiled run accumulates.
#[derive(Debug, Clone, Default)]
pub struct ProfData {
    /// Requested allocation sizes (every successful `Heap::alloc`).
    pub alloc_size: Histogram,
    /// Stop-the-world pause per collection, nanoseconds.
    pub pause_ns: Histogram,
    /// Mark-phase share of each pause, nanoseconds.
    pub mark_ns: Histogram,
    /// Sweep-phase share of each pause, nanoseconds.
    pub sweep_ns: Histogram,
    /// Bytes returned to free lists per sweep.
    pub sweep_freed_bytes: Histogram,
    /// Per-call-stack allocation totals, deterministically ordered.
    pub sites: BTreeMap<String, SiteStats>,
    /// Pause timeline for MMU computation (offsets from profile start).
    pub pauses: Vec<Pause>,
    /// Completed collections observed.
    pub collections: u64,
    /// One attribution record per collection, in collection order: the
    /// trigger cause + site, the deterministic phase counters, and the
    /// wall-clock phase breakdown. The Perfetto timeline and the `gc/1`
    /// work sums are built from it.
    pub collection_log: Vec<CollectionRecord>,
    /// Final heap census, recorded when the VM run ends.
    pub census: Option<HeapCensus>,
}

impl ProfData {
    /// Minimum mutator utilization in permille for `window_ns`.
    pub fn mmu_permille(&self, window_ns: u64) -> u64 {
        mmu_permille(&self.pauses, window_ns)
    }
}

struct ProfCell {
    start: Instant,
    data: Mutex<ProfData>,
}

/// The handle the heap and VM record into. Cloning is an `Arc` bump or a
/// `None` copy; the disabled handle does literally nothing — closures
/// passed to the `record_*` methods are never evaluated.
#[derive(Clone, Default)]
pub struct ProfHandle(Option<Arc<ProfCell>>);

impl ProfHandle {
    /// The zero-overhead handle: every `record_*` is a single branch.
    pub fn disabled() -> Self {
        ProfHandle(None)
    }

    /// A fresh, enabled profile starting its timeline now.
    pub fn enabled() -> Self {
        ProfHandle(Some(Arc::new(ProfCell {
            start: Instant::now(),
            data: Mutex::new(ProfData::default()),
        })))
    }

    /// Whether samples will actually be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one successful allocation of `size` requested bytes into
    /// the size histogram. Called by the heap on the allocation path.
    #[inline]
    pub fn record_alloc_size(&self, size: u64) {
        if let Some(cell) = &self.0 {
            cell.data.lock().expect("prof lock").alloc_size.record(size);
        }
    }

    /// Attributes `bytes` to the allocation site identified by the stack
    /// key `key` builds. Called by the VM, which owns the shadow call
    /// stack; when disabled, `key` is never evaluated and no string is
    /// ever built.
    #[inline]
    pub fn record_site(&self, bytes: u64, key: impl FnOnce() -> String) {
        if let Some(cell) = &self.0 {
            let site = key();
            let mut data = cell.data.lock().expect("prof lock");
            let s = data.sites.entry(site).or_default();
            s.allocs += 1;
            s.bytes += bytes;
        }
    }

    /// Nanoseconds elapsed since the profile started — the clock
    /// [`Pause::end_ns`] offsets are measured on. `0` when disabled.
    /// The heap uses this to timestamp the bounded stops of an
    /// incremental cycle as they happen, so the MMU windows see each
    /// short stop where it really fell instead of one summed pause.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Some(cell) => cell.start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Records one completed collection from the [`CollectionRecord`]
    /// `build` produces: the pause/mark/sweep/freed histograms, the pause
    /// timeline for MMU computation, and the attribution log. When
    /// disabled, `build` is never evaluated — the collector pays one
    /// branch and builds no record.
    ///
    /// An incremental cycle lands as one record (so `collections` and the
    /// pause histogram still count cycles), but its MMU timeline entries
    /// are the individual bounded stops: every pause in
    /// `increment_pauses`, then the finish step (the record's total minus
    /// the increments' share).
    #[inline]
    pub fn record_collection(&self, build: impl FnOnce() -> CollectionRecord) {
        if let Some(cell) = &self.0 {
            let end_ns = cell.start.elapsed().as_nanos() as u64;
            let rec = build();
            let mut data = cell.data.lock().expect("prof lock");
            data.pause_ns.record(rec.pause_ns);
            data.mark_ns.record(rec.mark_ns);
            data.sweep_ns.record(rec.sweep_ns);
            data.sweep_freed_bytes.record(rec.freed_bytes);
            let incremental_ns: u64 = rec.increment_pauses.iter().map(|p| p.pause_ns).sum();
            data.pauses.extend(rec.increment_pauses.iter().copied());
            data.pauses.push(Pause {
                end_ns,
                pause_ns: rec.pause_ns.saturating_sub(incremental_ns),
            });
            data.collections += 1;
            data.collection_log.push(rec);
        }
    }

    /// Stores the heap census `build` produces. When disabled, the heap
    /// walk never happens.
    #[inline]
    pub fn record_census(&self, build: impl FnOnce() -> HeapCensus) {
        if let Some(cell) = &self.0 {
            cell.data.lock().expect("prof lock").census = Some(build());
        }
    }

    /// A copy of everything recorded so far; `None` when disabled.
    pub fn snapshot(&self) -> Option<ProfData> {
        self.0
            .as_ref()
            .map(|cell| cell.data.lock().expect("prof lock").clone())
    }
}

impl fmt::Debug for ProfHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "ProfHandle(enabled)"
        } else {
            "ProfHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The zero-cost pin, mirroring gctrace's
    /// `disabled_handle_never_builds_the_event`: a disabled handle must
    /// never evaluate the stack-key or census closures, so the hot
    /// allocation path does no histogram or site work.
    #[test]
    fn disabled_handle_never_evaluates_closures() {
        let h = ProfHandle::disabled();
        let mut key_built = false;
        h.record_site(64, || {
            key_built = true;
            String::from("main;malloc@1:1")
        });
        let mut census_built = false;
        h.record_census(|| {
            census_built = true;
            HeapCensus::default()
        });
        h.record_alloc_size(64);
        let mut record_built = false;
        h.record_collection(|| {
            record_built = true;
            CollectionRecord {
                pause_ns: 10,
                mark_ns: 6,
                sweep_ns: 4,
                freed_bytes: 128,
                ..CollectionRecord::default()
            }
        });
        assert!(!key_built, "disabled handle must not build stack keys");
        assert!(!census_built, "disabled handle must not walk the heap");
        assert!(
            !record_built,
            "disabled handle must not build collection records"
        );
        assert!(!h.is_enabled());
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn enabled_handle_accumulates_everything() {
        let h = ProfHandle::enabled();
        assert!(h.is_enabled());
        h.record_alloc_size(64);
        h.record_alloc_size(100);
        h.record_site(64, || "main;malloc@3:9".into());
        h.record_site(100, || "main;push;malloc@7:2".into());
        h.record_site(36, || "main;push;malloc@7:2".into());
        h.record_collection(|| CollectionRecord {
            cause: CollectCause::Emergency,
            site: Some("main;push;malloc@7:2".into()),
            pause_ns: 1000,
            mark_ns: 600,
            sweep_ns: 400,
            root_scan_ns: 250,
            heap_scan_ns: 350,
            freed_bytes: 4096,
            class_sweep_ns: vec![(16, 300), (0, 100)],
            ..CollectionRecord::default()
        });
        h.record_census(|| HeapCensus {
            live_objects: 2,
            live_bytes: 164,
            ..HeapCensus::default()
        });
        let d = h.snapshot().expect("enabled");
        assert_eq!(d.alloc_size.count(), 2);
        assert_eq!(d.alloc_size.sum(), 164);
        assert_eq!(d.collections, 1);
        assert_eq!(d.pause_ns.count(), d.collections);
        assert_eq!(d.mark_ns.sum() + d.sweep_ns.sum(), 1000);
        assert_eq!(d.pauses.len(), 1);
        assert_eq!(d.collection_log.len(), 1);
        let rec = &d.collection_log[0];
        assert_eq!(rec.cause, CollectCause::Emergency);
        assert_eq!(rec.site.as_deref(), Some("main;push;malloc@7:2"));
        assert_eq!(rec.root_scan_ns + rec.heap_scan_ns, rec.mark_ns);
        assert_eq!(rec.class_sweep_encoded(), "16:300 0:100");
        assert_eq!(CollectionRecord::default().class_sweep_encoded(), "-");
        assert_eq!(d.sites.len(), 2);
        let push = &d.sites["main;push;malloc@7:2"];
        assert_eq!((push.allocs, push.bytes), (2, 136));
        assert_eq!(d.census.as_ref().unwrap().live_bytes, 164);
    }

    #[test]
    fn collect_causes_round_trip() {
        for c in [
            CollectCause::Threshold,
            CollectCause::Emergency,
            CollectCause::Explicit,
            CollectCause::IncrementFinish,
            CollectCause::Nursery,
        ] {
            assert_eq!(CollectCause::parse(c.as_str()), Some(c));
        }
        assert_eq!(CollectCause::parse("bogus"), None);
    }

    #[test]
    fn incremental_records_split_the_mmu_timeline_but_count_once() {
        let h = ProfHandle::enabled();
        h.record_collection(|| CollectionRecord {
            cause: CollectCause::IncrementFinish,
            pause_ns: 1000,
            mark_ns: 900,
            sweep_ns: 100,
            increments: 2,
            increment_words: vec![500, 120],
            increment_pauses: vec![
                Pause {
                    end_ns: 10,
                    pause_ns: 300,
                },
                Pause {
                    end_ns: 20,
                    pause_ns: 200,
                },
            ],
            ..CollectionRecord::default()
        });
        let d = h.snapshot().expect("enabled");
        // One cycle: one histogram entry, one collection, one log record.
        assert_eq!(d.collections, 1);
        assert_eq!(d.pause_ns.count(), 1);
        assert_eq!(d.pause_ns.sum(), 1000);
        assert_eq!(d.collection_log.len(), 1);
        // Three MMU stops: both increments plus the finish step, and the
        // stop durations re-sum to the cycle total.
        assert_eq!(d.pauses.len(), 3);
        assert_eq!(d.pauses[0].pause_ns, 300);
        assert_eq!(d.pauses[1].pause_ns, 200);
        assert_eq!(d.pauses[2].pause_ns, 500);
        assert_eq!(
            d.collection_log[0].increment_words_encoded(),
            "500 120",
            "deterministic increment encoding"
        );
        assert_eq!(CollectionRecord::default().increment_words_encoded(), "-");
    }

    #[test]
    fn clones_share_the_same_profile() {
        let h = ProfHandle::enabled();
        let h2 = h.clone();
        h.record_alloc_size(8);
        h2.record_alloc_size(8);
        assert_eq!(h.snapshot().unwrap().alloc_size.count(), 2);
        assert_eq!(format!("{h:?}"), "ProfHandle(enabled)");
        assert_eq!(
            format!("{:?}", ProfHandle::disabled()),
            "ProfHandle(disabled)"
        );
    }
}
