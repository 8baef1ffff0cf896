//! The conservative mark-sweep collector.
//!
//! Reproduces the collector interface the paper relies on (\[Boehm95\] in
//! its default configuration):
//!
//! * every object is allocated "with at least one extra byte at the end"
//!   so one-past-the-end pointers stay inside the object;
//! * "the garbage collector recognizes any address corresponding to some
//!   place inside a heap allocated object as a valid pointer" — interior
//!   pointers are valid (a configuration switch implements the paper's
//!   *Extensions* mode where heap-resident pointers must point at bases);
//! * `GC_base` / `GC_same_obj` are backed by the page map, and are only as
//!   accurate as the rounded size classes (exactly the paper's caveat).

use crate::mem::{Memory, HEAP_BASE};
use crate::pagemap::{PageDesc, PageMap, SmallPage, PAGE_SHIFT, PAGE_SIZE};
use gcprof::{ClassCensus, CollectCause, CollectionRecord, HeapCensus, ProfHandle};
use gctrace::{Event, TraceHandle};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::Instant;

/// Small-object size classes in bytes. Requests above the largest class
/// become multi-page "large" objects.
pub const SIZE_CLASSES: &[u32] = &[16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048];

/// The byte the sweep writes over every freed object's committed bytes,
/// so that freed memory read without the VM's use-after-free check shows
/// garbage rather than the object it held. Bytes never written stay
/// uncommitted and read zero (see [`Memory::fill_committed`]).
const POISON: u8 = 0xDD;

/// Per size class, `ceil(2^32 / size)`: an offset into a page times it,
/// shifted right by 32, is the offset's slot, with no division. It is
/// exact: the product overshoots `offset / size` by less than
/// `offset / 2^32`, which is below `1 / size` because
/// `offset × size < 2^24`, so it never reaches the next slot.
const SLOT_RECIPROCALS: [u64; SIZE_CLASSES.len()] = {
    let mut r = [0; SIZE_CLASSES.len()];
    let mut ci = 0;
    while ci < r.len() {
        r[ci] = (1u64 << 32).div_ceil(SIZE_CLASSES[ci] as u64);
        ci += 1;
    }
    r
};

/// Under the nursery split, every `FULL_PERIOD`-th collection is a full
/// one; the rest are nursery-only.
const FULL_PERIOD: u64 = 4;

/// Nanoseconds elapsed since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: &Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How the collector treats interior pointers found in the heap.
///
/// Roots (stack, registers, statics) always recognise interior pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointerPolicy {
    /// Interior pointers are valid everywhere (the paper's main setting).
    #[default]
    InteriorEverywhere,
    /// Interior pointers are valid "only if they originate from the stack
    /// or registers"; heap-resident words must point at object bases (the
    /// paper's *Extensions* section).
    InteriorFromRootsOnly,
}

/// Collector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapConfig {
    /// Interior-pointer recognition policy.
    pub policy: PointerPolicy,
    /// Bytes allocated between automatic collections.
    pub gc_threshold: u64,
    /// \[Boehm93\]-style page blacklisting: candidate words observed during
    /// marking that point into *free* heap pages mark those pages as
    /// unusable, so a future allocation cannot be falsely retained by a
    /// pre-existing spurious bit pattern. (The paper cites this as what
    /// makes the everywhere-interior-pointer assumption affordable.)
    pub blacklisting: bool,
    /// Incremental tri-color marking: threshold collections run as a
    /// sequence of bounded stops at allocation safe points instead of one
    /// stop-the-world pause. Requires the mutator to report heap pointer
    /// stores through [`GcHeap::write_barrier`] while
    /// [`GcHeap::marking_active`].
    pub incremental: bool,
    /// Heap bytes scanned per bounded mark increment (incremental mode).
    pub mark_budget_bytes: u64,
    /// Generational young/old page split: pages carved since the last
    /// collection are the nursery, and most collections trace and sweep
    /// only those, using the write barrier's per-page cards to find old→
    /// young pointers. Requires [`GcHeap::write_barrier`] like
    /// `incremental`.
    pub nursery: bool,
    /// Pages visited per bounded sweep stop when an incremental cycle's
    /// sweep is retired in chunks (incremental mode; the page-walk of a
    /// finished cycle is spread over allocation safe points instead of
    /// running inside the stop that ends marking).
    pub sweep_chunk_pages: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            policy: PointerPolicy::InteriorEverywhere,
            gc_threshold: 256 * 1024,
            blacklisting: false,
            incremental: false,
            mark_budget_bytes: 64 * 1024,
            nursery: false,
            sweep_chunk_pages: 64,
        }
    }
}

impl HeapConfig {
    /// The bounded-pause configuration: incremental tri-color marking plus
    /// nursery collections, defaults otherwise. Callers must route heap
    /// pointer stores through [`GcHeap::write_barrier`] /
    /// [`GcHeap::write_barrier_range`] whenever [`GcHeap::barrier_active`].
    pub fn bounded_pause() -> Self {
        HeapConfig {
            incremental: true,
            nursery: true,
            // Nursery collections stay stop-the-world, so their young
            // set (and with it the trace part of their stop) is bounded
            // by the allocation interval between collections.
            gc_threshold: 48 * 1024,
            // A drain stop scans at worst this many bytes of marked
            // objects; at the measured worst-case scan rate that costs
            // about what a nursery trace does.
            mark_budget_bytes: 16 * 1024,
            // Small sweep chunks: page sweeps poison their garbage, so
            // per-page cost is dominated by dead slots, not the walk.
            sweep_chunk_pages: 12,
            ..HeapConfig::default()
        }
    }
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The request that failed, in bytes.
    pub requested: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap exhausted allocating {} bytes", self.requested)
    }
}

impl std::error::Error for OutOfMemory {}

/// Collector statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of completed collections.
    pub collections: u64,
    /// Objects successfully allocated over the heap's lifetime.
    pub allocations: u64,
    /// Bytes successfully requested over the heap's lifetime
    /// (pre-rounding; failed requests are not counted here).
    pub bytes_requested: u64,
    /// Allocation attempts that returned [`OutOfMemory`].
    pub failed_allocations: u64,
    /// Small pages that sweeps found fully empty and returned to the
    /// free page pool for reuse by any size class.
    pub pages_reclaimed: u64,
    /// Objects reclaimed by sweeps.
    pub objects_freed: u64,
    /// Objects currently live (allocated minus freed).
    pub objects_live: u64,
    /// Bytes currently live (rounded slot sizes).
    pub bytes_live: u64,
    /// `GC_same_obj`-style checks performed.
    pub same_obj_checks: u64,
    /// Checks that failed (pointer left its object).
    pub same_obj_failures: u64,
    /// Pages withdrawn from allocation by blacklisting.
    pub blacklisted_pages: u64,
    /// Total stop-the-world pause across all collections, in nanoseconds.
    pub total_pause_ns: u64,
    /// Mark-phase share of the total pause, in nanoseconds.
    pub total_mark_ns: u64,
    /// Sweep-phase share of the total pause, in nanoseconds.
    pub total_sweep_ns: u64,
    /// Collections triggered by the allocation threshold.
    pub collections_threshold: u64,
    /// Collections forced by a failed allocation (collect-and-retry).
    pub collections_emergency: u64,
    /// Collections requested explicitly by the program or harness.
    pub collections_explicit: u64,
    /// Incremental cycles that terminated naturally (grey worklist dry
    /// after the final root re-scan).
    pub collections_increment_finish: u64,
    /// Nursery-only (young-generation) collections.
    pub collections_nursery: u64,
    /// Bounded mark stops taken by incremental cycles: initial root
    /// scans, budgeted increments, and the re-scan stop that ends
    /// marking.
    pub mark_increments: u64,
    /// Bounded sweep stops taken by finishing incremental cycles — the
    /// page-walk of a finished cycle's sweep retired in
    /// [`HeapConfig::sweep_chunk_pages`]-page chunks at allocation safe
    /// points.
    pub sweep_increments: u64,
    /// Objects newly greyed by the Dijkstra store barrier.
    pub barrier_marks: u64,
    /// High-water mark of [`HeapStats::bytes_live`].
    pub peak_bytes_live: u64,
}

/// The set of GC-roots for one collection: address ranges (stack, statics)
/// plus bare register words.
#[derive(Debug, Clone, Default)]
pub struct RootSet {
    /// Half-open address ranges scanned conservatively word-by-word.
    pub ranges: Vec<(u64, u64)>,
    /// Individual candidate words (the register file).
    pub words: Vec<u64>,
}

impl RootSet {
    /// Creates an empty root set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an address range.
    pub fn add_range(&mut self, start: u64, end: u64) -> &mut Self {
        self.ranges.push((start, end));
        self
    }

    /// Adds a register word.
    pub fn add_word(&mut self, word: u64) -> &mut Self {
        self.words.push(word);
        self
    }
}

/// Where an allocation's roots come from. The heap reads roots only when
/// the allocation collects or a mark step re-scans them, so a caller
/// whose roots cost something to gather can hand over a builder instead
/// of a set. A `&RootSet` converts into [`Roots::Built`].
pub enum Roots<'a> {
    /// A root set built before the call.
    Built(&'a RootSet),
    /// Builds the current root set. The heap calls it only when it scans
    /// roots, and at most once per allocation; the mutator does not run
    /// in between, so one set serves every scan of the call.
    Lazy(&'a mut dyn FnMut() -> RootSet),
}

impl<'a> From<&'a RootSet> for Roots<'a> {
    fn from(roots: &'a RootSet) -> Self {
        Roots::Built(roots)
    }
}

/// One allocation's [`Roots`], a lazy set built at most once.
struct RootCache<'a> {
    source: Roots<'a>,
    built: Option<RootSet>,
}

impl RootCache<'_> {
    fn get(&mut self) -> &RootSet {
        match &mut self.source {
            Roots::Built(roots) => roots,
            Roots::Lazy(build) => self.built.get_or_insert_with(build),
        }
    }
}

/// Flat per-page classification mirroring the page map. The mark hot
/// path indexes this instead of walking the fixed-height-2 tree and
/// matching the full descriptor enum; only slot bitmaps and large-object
/// flags still live in the [`PageMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageKind {
    Free,
    Small { ci: u8, obj_size: u32 },
    LargeHead,
    LargeCont { back: u32 },
}

/// Slots in a per-class sweep breakdown: one per size class plus a
/// trailing slot for large objects.
const SWEEP_SLOTS: usize = SIZE_CLASSES.len() + 1;

/// What a cycle's sweep has retired so far: reclamation totals, page
/// counts, and (when the heap is instrumented) per-class timing.
#[derive(Debug, Default)]
struct SweepOutcome {
    /// Objects returned to the free lists.
    objects_swept: u64,
    /// Bytes returned to the free lists (rounded slot sizes).
    bytes_swept: u64,
    /// Carved pages the sweep visited (small + large, head and tail).
    pages_swept: u64,
    /// Pages left holding at least one live object.
    pages_live: u64,
    /// Sweep nanoseconds per size class; zero unless the sweep ran timed.
    class_ns: [u64; SWEEP_SLOTS],
    /// Which classes the sweep visited a page of.
    class_seen: [bool; SWEEP_SLOTS],
}

/// One collection in progress, whatever its cause. Every collection runs
/// the same pipeline — scan the roots into the grey worklist, drain it
/// under a byte budget, sweep a page list, complete — and the cause only
/// picks the budgets and the scope:
///
/// * stop-the-world (threshold, explicit, emergency): unbounded budgets,
///   all of it inside the stop that began it;
/// * nursery: the same, restricted to young pages, with the objects on
///   carded old pages greyed as extra roots;
/// * incremental: the drain and the sweep spread over allocation safe
///   points in [`HeapConfig::mark_budget_bytes`] and
///   [`HeapConfig::sweep_chunk_pages`] steps.
///
/// Tri-color over the existing structures — white = allocated and
/// unmarked, grey = marked but still on the worklist, black = marked and
/// scanned (popped).
#[derive(Debug)]
struct Cycle {
    /// Ranges still to scan as (start, bytes): marked objects, the
    /// unscanned tails of segmented ones, and (nursery) carded old
    /// objects.
    grey: Vec<(u64, u64)>,
    /// Nursery cycle: only young pages are traced and swept.
    young_only: bool,
    /// Site label of the allocation that triggered the collection.
    site: Option<String>,
    /// Allocation debt captured (and reset) when the cycle began.
    bytes_since_gc: u64,
    roots_scanned: u64,
    words_marked: u64,
    objects_marked: u64,
    /// Root-scan share across all stops so far.
    root_scan_ns: u64,
    /// Worklist-drain share across all stops so far.
    heap_scan_ns: u64,
    /// Wall clock of the cycle's completed stops.
    stops_ns: u64,
    /// Bounded mark stops taken (initial root scan + increments); `0`
    /// for a cycle finished inside the stop that began it.
    increments: u64,
    /// Heap words scanned per bounded mark stop.
    increment_words: Vec<u64>,
    /// Per-stop pause entries for the MMU timeline (profiled runs only).
    increment_pauses: Vec<gcprof::Pause>,
    /// Blacklist level at cycle start, for the trace event's delta.
    blacklisted_before: u64,
    /// The pages to sweep, ascending, fixed when marking ends; `pos` is
    /// the walk cursor. Pages carved while a spread sweep is in flight
    /// are not listed, so their (all live-born) objects are never
    /// confused with garbage.
    pages: Vec<usize>,
    pos: usize,
    /// Reclamation totals accumulated across sweep stops.
    swept: SweepOutcome,
}

/// The conservative garbage-collected heap.
#[derive(Debug)]
pub struct GcHeap {
    map: PageMap,
    config: HeapConfig,
    heap_base: u64,
    heap_limit: u64,
    side: Vec<PageKind>,
    /// Per-class page currently serving allocations (lowest free bit
    /// first).
    cursor: Vec<Option<usize>>,
    /// Per-class pages the sweep left with free slots, ascending; the
    /// allocator adopts the lowest when the class has no cursor page or
    /// it is full.
    partial: Vec<VecDeque<usize>>,
    next_page: usize,
    free_pages: Vec<usize>,
    /// Blacklisted pages as a bitmap over page indices.
    bl: Vec<u64>,
    bl_count: u64,
    bytes_since_gc: u64,
    stats: HeapStats,
    trace: TraceHandle,
    prof: ProfHandle,
    /// Incremental cycle whose marking is in progress, if any.
    cycle: Option<Cycle>,
    /// Finished incremental cycle whose sweep is still being retired in
    /// chunks, if any. Never `Some` while `cycle` is.
    sweeping: Option<Cycle>,
    /// Young-generation bit per page: set when the page is carved, cleared
    /// when a collection promotes the whole nursery.
    young: Vec<u64>,
    /// The young pages (small pages and large heads), carve order.
    young_list: Vec<usize>,
    /// Remembered-set card bit per old page, set by the write barrier on
    /// stores into that page; a nursery collection scans carded pages for
    /// old→young pointers and clearing happens at promotion.
    cards: Vec<u64>,
    /// Interned allocation-site labels, first-use order.
    site_names: Vec<String>,
    /// Label → index into `site_names`.
    site_ids: HashMap<String, u32>,
    /// Object base → interned site id, maintained only while attribution
    /// is enabled (the empty map costs one branch per allocation).
    obj_sites: HashMap<u64, u32>,
    /// Whether a snapshot consumer asked for site tagging even without a
    /// trace or profile attached.
    snap_sites: bool,
}

impl GcHeap {
    /// Creates a collector managing the heap region of `mem`.
    pub fn new(mem: &Memory, config: HeapConfig) -> Self {
        let map = PageMap::new(HEAP_BASE, mem.heap_size() as u64);
        let page_count = map.page_count();
        GcHeap {
            map,
            config,
            heap_base: HEAP_BASE,
            heap_limit: HEAP_BASE + page_count as u64 * PAGE_SIZE,
            side: vec![PageKind::Free; page_count],
            cursor: vec![None; SIZE_CLASSES.len()],
            partial: vec![VecDeque::new(); SIZE_CLASSES.len()],
            next_page: 0,
            free_pages: Vec::new(),
            bl: vec![0; page_count.div_ceil(64)],
            bl_count: 0,
            bytes_since_gc: 0,
            stats: HeapStats::default(),
            trace: TraceHandle::disabled(),
            prof: ProfHandle::disabled(),
            cycle: None,
            sweeping: None,
            young: vec![0; page_count.div_ceil(64)],
            young_list: Vec::new(),
            cards: vec![0; page_count.div_ceil(64)],
            site_names: Vec::new(),
            site_ids: HashMap::new(),
            obj_sites: HashMap::new(),
            snap_sites: false,
        }
    }

    /// Routes per-collection timeline events to `trace`. The default
    /// handle is disabled and costs nothing.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Routes profiling samples (allocation sizes, pause histograms,
    /// the pause timeline) to `prof`. The default handle is disabled and
    /// costs one branch per sample site.
    pub fn set_prof(&mut self, prof: ProfHandle) {
        self.prof = prof;
    }

    /// The profiling handle the heap records into.
    pub fn prof(&self) -> &ProfHandle {
        &self.prof
    }

    /// Creates a collector with the default configuration.
    pub fn with_defaults(mem: &Memory) -> Self {
        GcHeap::new(mem, HeapConfig::default())
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Active configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Whether enough allocation has happened that the mutator should
    /// trigger a collection at its next safe point.
    pub fn should_collect(&self) -> bool {
        self.bytes_since_gc >= self.config.gc_threshold
    }

    fn class_index(size: u64) -> Option<usize> {
        SIZE_CLASSES.iter().position(|&c| c as u64 >= size)
    }

    fn bl_contains(&self, p: usize) -> bool {
        self.bl[p / 64] >> (p % 64) & 1 != 0
    }

    /// Blacklists page `p`; returns whether it was newly inserted.
    fn bl_insert(&mut self, p: usize) -> bool {
        let (w, bit) = (p / 64, 1u64 << (p % 64));
        if self.bl[w] & bit != 0 {
            return false;
        }
        self.bl[w] |= bit;
        self.bl_count += 1;
        true
    }

    /// Highest blacklisted page in `[start, end)`, if any — one masked
    /// word scan per 64 pages instead of a per-page set probe.
    fn bl_last_in(&self, start: usize, end: usize) -> Option<usize> {
        let (ws, we) = (start / 64, (end - 1) / 64);
        for w in (ws..=we).rev() {
            let mut word = self.bl[w];
            if w == we {
                let top = (end - 1) % 64;
                if top < 63 {
                    word &= (1u64 << (top + 1)) - 1;
                }
            }
            if w == ws {
                word &= !((1u64 << (start % 64)) - 1);
            }
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
        }
        None
    }

    fn is_young(&self, p: usize) -> bool {
        self.young[p / 64] >> (p % 64) & 1 != 0
    }

    /// Marks a freshly carved page (small page or large head) as nursery.
    fn set_young(&mut self, p: usize) {
        if !self.config.nursery || self.is_young(p) {
            return;
        }
        self.young[p / 64] |= 1 << (p % 64);
        self.young_list.push(p);
    }

    /// Promotes the whole nursery: every collection ends with all
    /// surviving pages old, and the remembered-set cards reset (a full
    /// collection needs no cards; a nursery collection just scanned them).
    fn promote_young(&mut self) {
        for &p in &self.young_list {
            self.young[p / 64] &= !(1 << (p % 64));
        }
        self.young_list.clear();
        if self.config.nursery {
            self.cards.iter_mut().for_each(|w| *w = 0);
        }
    }

    fn take_page(&mut self) -> Option<usize> {
        while let Some(p) = self.free_pages.pop() {
            if !self.bl_contains(p) {
                return Some(p);
            }
            // Blacklisted recycled pages are simply abandoned — the real
            // cost of blacklisting is lost capacity.
        }
        while self.next_page < self.map.page_count() {
            let p = self.next_page;
            self.next_page += 1;
            if !self.bl_contains(p) {
                return Some(p);
            }
        }
        None
    }

    fn take_pages(&mut self, n: usize) -> Option<usize> {
        // Large objects need contiguous pages; only the bump region
        // guarantees contiguity. A window with any blacklisted page is
        // skipped wholesale — jumping past its *last* blacklisted page
        // lands exactly where the old first-hit advance converged, in
        // one step per stretch instead of one per blacklisted page.
        while self.next_page + n <= self.map.page_count() {
            match self.bl_last_in(self.next_page, self.next_page + n) {
                Some(last) => self.next_page = last + 1,
                None => {
                    let p = self.next_page;
                    self.next_page += n;
                    return Some(p);
                }
            }
        }
        None
    }

    /// Allocates `size` bytes plus the paper's extra byte, zeroed.
    /// Returns the object base address.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when neither the free lists nor fresh pages
    /// can satisfy the request; the caller should collect and retry via
    /// [`GcHeap::alloc_with_roots`] or fail.
    pub fn alloc(&mut self, mem: &mut Memory, size: u64) -> Result<u64, OutOfMemory> {
        let effective = size + 1;
        let attempt = if let Some(ci) = Self::class_index(effective) {
            self.alloc_small(ci)
                .map(|addr| (addr, u64::from(SIZE_CLASSES[ci])))
        } else {
            let extent = effective.div_ceil(PAGE_SIZE) * PAGE_SIZE;
            self.alloc_large(effective).map(|addr| (addr, extent))
        };
        let Some((addr, extent)) = attempt else {
            // Failed attempts are counted on their own so `allocations` /
            // `bytes_requested` describe the objects that actually exist.
            self.stats.failed_allocations += 1;
            return Err(OutOfMemory { requested: size });
        };
        self.stats.allocations += 1;
        self.stats.bytes_requested += size;
        if !self.obj_sites.is_empty() {
            // A reclaimed base must not inherit the site of the object
            // that used to live there; sited callers re-tag after this.
            self.obj_sites.remove(&addr);
        }
        mem.fill(addr, 0, extent as usize)
            .expect("object memory is mapped");
        if self.cycle.is_some() {
            // Allocate black: objects born during a mark cycle survive it
            // (they would all be live had the collection run to completion
            // at its trigger point), and their stores are barriered, so
            // they never need scanning by this cycle.
            self.blacken(addr);
        }
        self.bytes_since_gc += extent;
        self.stats.objects_live += 1;
        self.stats.bytes_live += extent;
        self.stats.peak_bytes_live = self.stats.peak_bytes_live.max(self.stats.bytes_live);
        self.prof.record_alloc_size(size);
        Ok(addr)
    }

    /// Allocates with automatic collection: if the threshold has been
    /// reached or memory is exhausted, collects using `roots` and retries.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the heap is exhausted even after a
    /// collection.
    pub fn alloc_with_roots<'a>(
        &mut self,
        mem: &mut Memory,
        size: u64,
        roots: impl Into<Roots<'a>>,
    ) -> Result<u64, OutOfMemory> {
        self.alloc_with_roots_sited(mem, size, roots, None)
    }

    /// [`GcHeap::alloc_with_roots`] carrying the allocation-site label of
    /// the request, so any collection this allocation triggers is
    /// attributed to it. Callers should only build the label when
    /// [`GcHeap::attribution_enabled`] — a `None` site is always correct.
    ///
    /// `roots` is a prebuilt [`RootSet`] or a [`Roots::Lazy`] builder.
    /// The heap asks for roots only when this allocation begins or
    /// finishes a collection (threshold, nursery, emergency) or a mark
    /// step of an incremental cycle re-scans them; an allocation served
    /// without collecting, and every sweep step, reads none. The memory of
    /// a new object is zeroed by [`Memory::fill`], so it commits nothing
    /// until the mutator writes the object.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the heap is exhausted even after a
    /// collection.
    pub fn alloc_with_roots_sited<'a>(
        &mut self,
        mem: &mut Memory,
        size: u64,
        roots: impl Into<Roots<'a>>,
        site: Option<&str>,
    ) -> Result<u64, OutOfMemory> {
        let mut roots = RootCache {
            source: roots.into(),
            built: None,
        };
        let res = self.alloc_sited_inner(mem, size, &mut roots, site);
        if let (Ok(addr), Some(label)) = (&res, site) {
            if self.attribution_enabled() {
                self.tag_site(*addr, label);
            }
        }
        res
    }

    /// Interns `label` and tags the object at `addr` with it, so heap
    /// snapshots can attribute the object to its allocation site.
    fn tag_site(&mut self, addr: u64, label: &str) {
        let id = match self.site_ids.get(label) {
            Some(&id) => id,
            None => {
                let id = self.site_names.len() as u32;
                self.site_names.push(label.to_string());
                self.site_ids.insert(label.to_string(), id);
                id
            }
        };
        self.obj_sites.insert(addr, id);
    }

    fn alloc_sited_inner(
        &mut self,
        mem: &mut Memory,
        size: u64,
        roots: &mut RootCache<'_>,
        site: Option<&str>,
    ) -> Result<u64, OutOfMemory> {
        // `full_swept` means a complete mark+sweep just ran: a failed
        // allocation after one is definitive — a second back-to-back
        // collection cannot free anything more.
        let mut full_swept = false;
        if self.cycle.is_some() {
            // This safe point's share of the in-progress cycle.
            self.mark_step(mem, roots);
        } else if self.sweeping.is_some() {
            // This safe point's chunk of a finished cycle's sweep.
            self.sweep_step(mem);
        } else if self.should_collect() {
            if self.nursery_due() {
                // Young-only collections stay stop-the-world: the nursery
                // is bounded by the allocation threshold, so they are
                // short by construction.
                self.collect_as(mem, roots.get(), CollectCause::Nursery, site);
            } else if self.config.incremental {
                self.begin_cycle(mem, roots.get(), site);
            } else {
                self.collect_as(mem, roots.get(), CollectCause::Threshold, site);
                full_swept = true;
            }
        }
        match self.alloc(mem, size) {
            Ok(a) => Ok(a),
            Err(e) if full_swept => Err(e),
            Err(_) => {
                // Memory is exhausted: finish any in-progress cycle now
                // (the emergency needs the whole heap swept), else run a
                // full stop-the-world collection, then retry once.
                if self.cycle.is_some() {
                    self.collect_as(mem, roots.get(), CollectCause::Emergency, site);
                    return self.alloc(mem, size);
                }
                if self.sweeping.is_some() {
                    // A finished cycle's sweep is still in flight: the
                    // unswept tail may hold exactly the garbage this
                    // request needs, so retire it before declaring an
                    // emergency.
                    self.finish_pending_sweep(mem);
                    if let Ok(a) = self.alloc(mem, size) {
                        return Ok(a);
                    }
                }
                self.collect_as(mem, roots.get(), CollectCause::Emergency, site);
                self.alloc(mem, size)
            }
        }
    }

    /// Whether the next triggered collection should be nursery-only:
    /// with the generational split on, every [`FULL_PERIOD`]-th
    /// collection is a full one and the rest visit only young pages.
    fn nursery_due(&self) -> bool {
        self.config.nursery && !(self.stats.collections + 1).is_multiple_of(FULL_PERIOD)
    }

    /// Whether an attached trace, profile, or snapshot consumer will use
    /// attribution detail (trigger cause, site label, per-class sweep
    /// timing). Callers use this to skip building site strings on the
    /// fast path; the heap uses it to skip per-page sweep timing.
    pub fn attribution_enabled(&self) -> bool {
        self.trace.is_enabled() || self.prof.is_enabled() || self.snap_sites
    }

    /// Declares that heap snapshots will be taken, so allocation sites
    /// must be tagged even without a trace or profile attached (the
    /// snapshot graph attributes retained sizes to sites).
    pub fn set_snap_sites(&mut self, on: bool) {
        self.snap_sites = on;
    }

    /// Serves the lowest free slot of `page` from its allocation bitmap,
    /// or `None` when the page is full.
    fn alloc_in_page(&mut self, page: usize) -> Option<u64> {
        let page_start = self.map.page_addr(page);
        let PageDesc::Small(sp) = self.map.desc_mut(page) else {
            unreachable!("allocation cursor on a non-small page")
        };
        let slot = sp.lowest_free_slot()?;
        sp.set_alloc(slot);
        Some(page_start + slot as u64 * sp.obj_size as u64)
    }

    fn alloc_small(&mut self, ci: usize) -> Option<u64> {
        // Fast path: the class's current page serves lowest-free-bit
        // first, preserving address-ordered allocation.
        if let Some(page) = self.cursor[ci] {
            if let Some(addr) = self.alloc_in_page(page) {
                return Some(addr);
            }
            // Page full; it resurfaces at the next sweep if it thins out.
            self.cursor[ci] = None;
        }
        // Then the lowest page the sweep left with free slots; its free
        // slots are found in its bitmap only now, when the class
        // allocates again.
        if let Some(page) = self.partial[ci].pop_front() {
            self.cursor[ci] = Some(page);
            let addr = self
                .alloc_in_page(page)
                .expect("queued page has a free slot");
            return Some(addr);
        }
        // Carve a fresh page.
        let obj_size = SIZE_CLASSES[ci];
        let page = self.take_page()?;
        let mut sp = SmallPage::new(obj_size);
        sp.set_alloc(0);
        let page_start = self.map.page_addr(page);
        *self.map.desc_mut(page) = PageDesc::Small(sp);
        self.side[page] = PageKind::Small {
            ci: ci as u8,
            obj_size,
        };
        self.set_young(page);
        self.cursor[ci] = Some(page);
        Some(page_start)
    }

    fn alloc_large(&mut self, size: u64) -> Option<u64> {
        let pages = size.div_ceil(PAGE_SIZE) as usize;
        let head = self.take_pages(pages)?;
        *self.map.desc_mut(head) = PageDesc::LargeHead {
            size: pages as u64 * PAGE_SIZE,
            marked: false,
            allocated: true,
        };
        self.side[head] = PageKind::LargeHead;
        self.set_young(head);
        for i in 1..pages {
            *self.map.desc_mut(head + i) = PageDesc::LargeCont(i as u32);
            self.side[head + i] = PageKind::LargeCont { back: i as u32 };
        }
        Some(self.map.page_addr(head))
    }

    /// `GC_base`: the base of the allocated object containing `addr`.
    pub fn base(&self, addr: u64) -> Option<u64> {
        self.map.object_base(addr)
    }

    /// The rounded extent of the object containing `addr`.
    pub fn extent(&self, addr: u64) -> Option<(u64, u64)> {
        self.map.object_extent(addr)
    }

    /// Whether `addr` points into a currently allocated object. The VM
    /// asks this on every heap access it traps, so the flat side table
    /// classifies the page and a multiply by the class's reciprocal finds
    /// the slot; only the slot's allocation bit is read from the page map.
    #[inline(always)]
    pub fn is_allocated(&self, addr: u64) -> bool {
        let off = addr.wrapping_sub(self.heap_base);
        if off >= self.heap_limit - self.heap_base {
            return false;
        }
        let idx = (off >> PAGE_SHIFT) as usize;
        match self.side[idx] {
            PageKind::Free => false,
            PageKind::Small { ci, .. } => {
                let slot = ((off & (PAGE_SIZE - 1)) * SLOT_RECIPROCALS[ci as usize]) >> 32;
                let PageDesc::Small(sp) = self.map.desc(idx) else {
                    unreachable!("side table says small page")
                };
                // An offset in a ragged class's tail gap maps to the slot
                // after the last, whose bit is never set.
                sp.alloc_bit(slot as usize)
            }
            PageKind::LargeHead | PageKind::LargeCont { .. } => {
                self.map.object_base(addr).is_some()
            }
        }
    }

    /// `GC_same_obj`: whether `p` and `q` point into the same allocated
    /// heap object. Updates the check statistics.
    pub fn same_obj(&mut self, p: u64, q: u64) -> bool {
        self.stats.same_obj_checks += 1;
        let ok = self.map.same_object(p, q);
        if !ok {
            self.stats.same_obj_failures += 1;
        }
        ok
    }

    /// Walks the page map and produces a point-in-time [`HeapCensus`]:
    /// live objects/bytes per size class, per-page occupancy deciles for
    /// the fragmentation ratio, large-object totals, and blacklist
    /// pressure. Free pages that sit in the reuse pool and pages the bump
    /// allocator has never touched both count as free; blacklisted pages
    /// are reported separately (they are withdrawn, not occupied).
    pub fn census(&self) -> HeapCensus {
        let mut classes: Vec<ClassCensus> = SIZE_CLASSES
            .iter()
            .map(|&obj_size| ClassCensus {
                obj_size,
                ..ClassCensus::default()
            })
            .collect();
        let mut census = HeapCensus {
            pages_total: self.map.page_count() as u64,
            blacklisted_pages: self.bl_count,
            ..HeapCensus::default()
        };
        for idx in 0..self.next_page {
            match self.map.desc(idx) {
                PageDesc::Free | PageDesc::LargeCont(_) => {}
                PageDesc::Small(sp) => {
                    let ci = SIZE_CLASSES
                        .iter()
                        .position(|&c| c == sp.obj_size)
                        .expect("small page carries a known size class");
                    let live = sp.live_count();
                    let slots = sp.slots() as u64;
                    let c = &mut classes[ci];
                    c.pages += 1;
                    c.slots += slots;
                    c.live_objects += live;
                    c.live_bytes += live * u64::from(sp.obj_size);
                    census.small_pages += 1;
                    census.small_capacity_bytes += slots * u64::from(sp.obj_size);
                    census.occupancy_deciles[HeapCensus::occupancy_decile(live, slots)] += 1;
                }
                PageDesc::LargeHead {
                    size,
                    allocated: true,
                    ..
                } => {
                    census.large_objects += 1;
                    census.large_bytes += size;
                    census.large_pages += size / PAGE_SIZE;
                }
                PageDesc::LargeHead { .. } => {}
            }
        }
        census.free_pages = census.pages_total - census.small_pages - census.large_pages;
        census.live_objects =
            census.large_objects + classes.iter().map(|c| c.live_objects).sum::<u64>();
        census.live_bytes = census.large_bytes + classes.iter().map(|c| c.live_bytes).sum::<u64>();
        census.classes = classes.into_iter().filter(|c| c.pages > 0).collect();
        census
    }

    /// Runs a full stop-the-world mark-sweep collection, attributed as
    /// [`CollectCause::Explicit`] (the program or harness asked for it).
    pub fn collect(&mut self, mem: &mut Memory, roots: &RootSet) {
        self.collect_as(mem, roots, CollectCause::Explicit, None);
    }

    /// Runs a collection attributed to `cause` — and, when the caller
    /// knows it, to the allocation-site label whose request triggered it
    /// — inside one stop: a full mark-sweep, or a young-only one for
    /// [`CollectCause::Nursery`]. The per-collection trace event and the
    /// [`CollectionRecord`] handed to the profile both carry the
    /// attribution plus a phase breakdown finer than mark/sweep:
    /// root-scan vs. heap-scan nanoseconds inside the mark, per-size-class
    /// sweep nanoseconds, and pages visited/live per phase.
    pub fn collect_as(
        &mut self,
        mem: &mut Memory,
        roots: &RootSet,
        cause: CollectCause,
        site: Option<&str>,
    ) {
        if let Some(c) = self.cycle.take() {
            // A collection demanded mid-cycle finishes the cycle under
            // the demanded cause — two overlapping collections would
            // break the tri-color invariant (and the statistics). The
            // mutator ran since the cycle's root scan, so roots are
            // scanned again.
            self.finish(mem, c, Some(roots), cause, &Instant::now());
            return;
        }
        // A finished cycle's sweep still in flight completes as its own
        // collection first; the demanded one then runs on the fully
        // swept heap.
        self.finish_pending_sweep(mem);
        let t0 = Instant::now();
        let c = self.start_cycle(mem, roots, site, cause == CollectCause::Nursery);
        self.finish(mem, c, None, cause, &t0);
    }

    /// Begins a collection: captures the allocation debt and scans the
    /// roots into a fresh grey worklist. A nursery cycle also greys every
    /// allocated object on a carded old page, so its old→young pointers
    /// are traced: any pointer to a young object was stored after the
    /// page was carved, i.e. after the last collection, so the barrier
    /// carded its page.
    fn start_cycle(
        &mut self,
        mem: &Memory,
        roots: &RootSet,
        site: Option<&str>,
        young_only: bool,
    ) -> Cycle {
        let mut c = Cycle {
            grey: Vec::new(),
            young_only,
            site: site.map(str::to_string),
            bytes_since_gc: std::mem::take(&mut self.bytes_since_gc),
            roots_scanned: 0,
            words_marked: 0,
            objects_marked: 0,
            root_scan_ns: 0,
            heap_scan_ns: 0,
            stops_ns: 0,
            increments: 0,
            increment_words: Vec::new(),
            increment_pauses: Vec::new(),
            blacklisted_before: self.stats.blacklisted_pages,
            pages: Vec::new(),
            pos: 0,
            swept: SweepOutcome::default(),
        };
        self.scan_roots(mem, roots, &mut c);
        if young_only {
            for w in 0..self.cards.len() {
                let mut bits = self.cards[w];
                while bits != 0 {
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if idx >= self.next_page {
                        continue;
                    }
                    let page_start = self.map.page_addr(idx);
                    match self.map.desc(idx) {
                        PageDesc::Small(sp) => {
                            let obj = u64::from(sp.obj_size);
                            for bw in 0..sp.words() {
                                let mut a = sp.alloc_word(bw);
                                while a != 0 {
                                    let slot = bw * 64 + a.trailing_zeros() as usize;
                                    a &= a - 1;
                                    c.grey.push((page_start + slot as u64 * obj, obj));
                                }
                            }
                        }
                        PageDesc::LargeHead {
                            size,
                            allocated: true,
                            ..
                        } => c.grey.push((page_start, *size)),
                        _ => {}
                    }
                }
            }
        }
        c
    }

    /// Scans the root set into `c`'s grey worklist; returns the number
    /// of root words scanned. Like [`GcHeap::drain`], it tests each word
    /// against the heap range in place and calls
    /// [`GcHeap::mark_candidate`], which does nothing outside it, only
    /// for a word inside; the count still includes every word.
    fn scan_roots(&mut self, mem: &Memory, roots: &RootSet, c: &mut Cycle) -> u64 {
        let t0 = Instant::now();
        let (mut scanned, mut marked) = (0u64, 0u64);
        let young_only = c.young_only;
        let grey = &mut c.grey;
        let (base, span) = (self.heap_base, self.heap_limit - self.heap_base);
        let mut scan = |word: u64| {
            scanned += 1;
            if word.wrapping_sub(base) < span {
                marked += u64::from(self.mark_candidate(word, true, young_only, grey));
            }
        };
        for &(start, end) in &roots.ranges {
            mem.scan_words(start, end, &mut scan);
        }
        roots.words.iter().for_each(|&word| scan(word));
        let ns = elapsed_ns(&t0);
        c.roots_scanned += scanned;
        c.objects_marked += marked;
        c.root_scan_ns += ns;
        scanned
    }

    /// Scans grey objects until `budget` bytes have been scanned or the
    /// worklist is dry; returns the bytes and words scanned. An object
    /// bigger than the remaining budget is scanned in budget-sized
    /// segments: the unscanned tail goes back on the worklist as a bare
    /// range, so one large object can never blow a single stop. The
    /// segment size saturates, so `u64::MAX` drains everything.
    fn drain(&mut self, mem: &Memory, c: &mut Cycle, budget: u64) -> (u64, u64) {
        let t0 = Instant::now();
        let (mut scanned, mut words, mut marked) = (0u64, 0u64, 0u64);
        let young_only = c.young_only;
        let grey = &mut c.grey;
        let (base, span) = (self.heap_base, self.heap_limit - self.heap_base);
        while scanned < budget {
            let Some((start, size)) = grey.pop() else {
                break;
            };
            let take = size.min((budget - scanned).saturating_add(7) & !7);
            if take < size {
                grey.push((start + take, size - take));
            }
            mem.scan_words(start, start + take, |word| {
                words += 1;
                if word.wrapping_sub(base) < span {
                    marked += u64::from(self.mark_candidate(word, false, young_only, grey));
                }
            });
            scanned += take;
        }
        let ns = elapsed_ns(&t0);
        c.words_marked += words;
        c.objects_marked += marked;
        c.heap_scan_ns += ns;
        (scanned, words)
    }

    /// Finishes `c` inside the current stop (begun at `t0`): drains the
    /// worklist without a budget — around a root re-scan when the cycle
    /// began in an earlier stop — then sweeps every listed page and
    /// completes the collection under `cause`.
    fn finish(
        &mut self,
        mem: &mut Memory,
        mut c: Cycle,
        rescan: Option<&RootSet>,
        cause: CollectCause,
        t0: &Instant,
    ) {
        self.drain(mem, &mut c, u64::MAX);
        if let Some(roots) = rescan {
            self.scan_roots(mem, roots, &mut c);
            self.drain(mem, &mut c, u64::MAX);
        }
        let mark_ns = elapsed_ns(t0);
        self.begin_sweep(&mut c);
        self.sweep_pages(mem, &mut c, usize::MAX);
        self.end_stop(&mut c, elapsed_ns(t0), mark_ns, false);
        self.complete_cycle(c, cause);
    }

    /// Ends marking and lists the pages `c` will sweep. A full cycle
    /// resets the allocator's recycled-slot queues (their free-slot
    /// knowledge predates the new marks) and lists every carved page; a
    /// nursery cycle lists only the young pages and detaches any cursor
    /// sitting on one — a young page was carved since the last
    /// collection, so no sweep has queued it and a cursor is its only
    /// reference. Old pages are then untouched, so their mark bitmaps
    /// stay clear for the next full mark and the queues they sit on stay
    /// valid.
    fn begin_sweep(&mut self, c: &mut Cycle) {
        if c.young_only {
            for ci in 0..SIZE_CLASSES.len() {
                if self.cursor[ci].is_some_and(|p| self.is_young(p)) {
                    self.cursor[ci] = None;
                }
            }
            c.pages = self.young_list.clone();
            c.pages.sort_unstable();
        } else {
            for ci in 0..SIZE_CLASSES.len() {
                self.cursor[ci] = None;
                self.partial[ci].clear();
            }
            c.pages = (0..self.next_page)
                .filter(|&i| !matches!(self.side[i], PageKind::Free))
                .collect();
        }
    }

    /// Sweeps `c`'s listed pages until `budget` pages have actually been
    /// *touched*, and returns whether the list is exhausted. Metering by
    /// pages touched rather than by list entries matters for large
    /// objects: freeing a dead run poisons the whole run, so its head
    /// entry is charged the run length, and one bounded stop frees at
    /// most one oversized object instead of a chunkful of them. The
    /// stop that exhausts the list promotes the nursery.
    fn sweep_pages(&mut self, mem: &mut Memory, c: &mut Cycle, budget: usize) -> bool {
        let timed = self.attribution_enabled();
        let (objects, bytes) = (c.swept.objects_swept, c.swept.bytes_swept);
        let mut touched = 0usize;
        while touched < budget && c.pos < c.pages.len() {
            touched += self.sweep_one_page(mem, c.pages[c.pos], timed, &mut c.swept);
            c.pos += 1;
        }
        let objects = c.swept.objects_swept - objects;
        self.stats.objects_freed += objects;
        self.stats.objects_live -= objects;
        self.stats.bytes_live -= c.swept.bytes_swept - bytes;
        if c.pos < c.pages.len() {
            return false;
        }
        if c.young_only {
            // Surviving young pages joined their queues out of order with
            // the old pages already there; restore ascending order.
            for q in &mut self.partial {
                q.make_contiguous().sort_unstable();
            }
        }
        self.promote_young();
        true
    }

    /// Sweeps one page and returns how many pages it touched.
    ///
    /// Per small page this is word arithmetic — `garbage = alloc & !mark`
    /// drives poisoning (trailing-zeros per dead slot) and a popcount
    /// keeps the statistics exact, then the mark bitmap folds into the
    /// allocation bitmap. Fully empty pages (a word compare) are
    /// reclaimed into the page pool on the spot (without this, a
    /// size-class phase shift — fill with class A, drop it, switch to
    /// class B — can exhaust the heap while every page is pure free
    /// slots, because free slots only ever serve their own class);
    /// blacklisted pages become `Free` but are never handed out again —
    /// the cost of blacklisting is lost capacity. Pages left with free
    /// slots join their class's queue: the allocator finds their free
    /// slots in the bitmap when it adopts the page, so the pause builds
    /// no free lists. Statistics, poisoning, and the census are exact
    /// the moment a sweep finishes. A dead large object's pages are all
    /// released (contiguity cannot be guaranteed once recycled, so those
    /// pages feed small-object allocation only) and count as touched,
    /// because poisoning costs proportional to the run.
    fn sweep_one_page(
        &mut self,
        mem: &mut Memory,
        idx: usize,
        timed: bool,
        out: &mut SweepOutcome,
    ) -> usize {
        let t_page = timed.then(Instant::now);
        let page_start = self.map.page_addr(idx);
        let (slot, touched) = match self.side[idx] {
            PageKind::Free => return 0,
            PageKind::LargeCont { .. } => (SIZE_CLASSES.len(), 0),
            PageKind::Small { ci, .. } => {
                let PageDesc::Small(sp) = self.map.desc_mut(idx) else {
                    unreachable!("sweeping a non-small page")
                };
                let obj = u64::from(sp.obj_size);
                let mut freed: u64 = 0;
                for w in 0..sp.words() {
                    let mut garbage = sp.garbage_word(w);
                    freed += u64::from(garbage.count_ones());
                    while garbage != 0 {
                        let slot = w * 64 + garbage.trailing_zeros() as usize;
                        garbage &= garbage - 1;
                        mem.fill_committed(page_start + slot as u64 * obj, POISON, obj as usize)
                            .expect("freed object is mapped");
                    }
                }
                sp.fold_marks();
                out.objects_swept += freed;
                out.bytes_swept += freed * obj;
                let (empty, has_free) = (sp.is_empty(), sp.has_free_slot());
                if empty {
                    *self.map.desc_mut(idx) = PageDesc::Free;
                    self.side[idx] = PageKind::Free;
                    self.stats.pages_reclaimed += 1;
                    if !self.bl_contains(idx) {
                        self.free_pages.push(idx);
                    }
                } else {
                    out.pages_live += 1;
                    if has_free {
                        self.partial[ci as usize].push_back(idx);
                    }
                }
                (ci as usize, 1)
            }
            PageKind::LargeHead => {
                let PageDesc::LargeHead {
                    size,
                    marked,
                    allocated,
                } = self.map.desc_mut(idx)
                else {
                    unreachable!("sweeping a non-head page")
                };
                let (size, allocated, dead) = (*size, *allocated, *allocated && !*marked);
                *marked = false;
                let run = (size / PAGE_SIZE) as usize;
                if dead {
                    out.objects_swept += 1;
                    out.bytes_swept += size;
                    mem.fill_committed(page_start, POISON, size as usize)
                        .expect("freed object is mapped");
                    for i in idx..idx + run {
                        *self.map.desc_mut(i) = PageDesc::Free;
                        self.side[i] = PageKind::Free;
                        self.free_pages.push(i);
                    }
                } else if allocated {
                    out.pages_live += run as u64;
                }
                (SIZE_CLASSES.len(), if dead { run } else { 1 })
            }
        };
        out.pages_swept += 1;
        out.class_seen[slot] = true;
        if let Some(t) = t_page {
            out.class_ns[slot] += elapsed_ns(&t);
        }
        touched
    }

    /// Charges one stop of `c` to the pause statistics: `mark_ns` of it
    /// to marking, the rest to sweeping. A `bounded` stop — one the
    /// cycle hands back to the mutator after — also lands on the MMU
    /// timeline as its own pause.
    fn end_stop(&mut self, c: &mut Cycle, stop_ns: u64, mark_ns: u64, bounded: bool) {
        c.stops_ns += stop_ns;
        self.stats.total_pause_ns += stop_ns;
        self.stats.total_mark_ns += mark_ns;
        self.stats.total_sweep_ns += stop_ns.saturating_sub(mark_ns);
        if bounded && self.prof.is_enabled() {
            c.increment_pauses.push(gcprof::Pause {
                end_ns: self.prof.now_ns(),
                pause_ns: stop_ns,
            });
        }
    }

    /// Completes a collection: the only place that counts one and reports
    /// it. The single [`CollectionRecord`] (and its trace event) covers
    /// every stop of the cycle; its pause is their sum, and the sweep
    /// share is the remainder after the measured root/heap-scan time, so
    /// the phase partition holds exactly.
    fn complete_cycle(&mut self, c: Cycle, cause: CollectCause) {
        self.stats.collections += 1;
        self.bump_cause(cause);
        if !self.attribution_enabled() {
            return;
        }
        let stats = self.stats;
        let sw = &c.swept;
        let mark_ns = c.root_scan_ns + c.heap_scan_ns;
        let rec = CollectionRecord {
            cause,
            site: c.site,
            bytes_since_gc: c.bytes_since_gc,
            bytes_live: stats.bytes_live,
            freed_bytes: sw.bytes_swept,
            roots_scanned: c.roots_scanned,
            words_marked: c.words_marked,
            pages_live: sw.pages_live,
            pages_swept: sw.pages_swept,
            pause_ns: c.stops_ns,
            mark_ns,
            sweep_ns: c.stops_ns.saturating_sub(mark_ns),
            root_scan_ns: c.root_scan_ns,
            heap_scan_ns: c.heap_scan_ns,
            // Size 0 stands for the large-object slot.
            class_sweep_ns: (0..SWEEP_SLOTS)
                .filter(|&s| sw.class_seen[s])
                .map(|s| (SIZE_CLASSES.get(s).copied().unwrap_or(0), sw.class_ns[s]))
                .collect(),
            increments: c.increments,
            increment_words: c.increment_words,
            increment_pauses: c.increment_pauses,
            young_pages_swept: if c.young_only { sw.pages_swept } else { 0 },
        };
        self.trace.emit(|| {
            Event::new("gc", "collection")
                .field("n", stats.collections)
                .field("cause", cause.as_str())
                .field("site", rec.site.clone().unwrap_or_default())
                .field("bytes_since_gc", rec.bytes_since_gc)
                .field("roots_scanned", rec.roots_scanned)
                .field("words_marked", rec.words_marked)
                .field("objects_marked", c.objects_marked)
                .field("objects_swept", sw.objects_swept)
                .field("bytes_swept", sw.bytes_swept)
                .field("pages_swept", sw.pages_swept)
                .field("pages_live", sw.pages_live)
                .field(
                    "blacklist_hits",
                    stats.blacklisted_pages - c.blacklisted_before,
                )
                .field("objects_live", stats.objects_live)
                .field("bytes_live", stats.bytes_live)
                .field("pause_ns", rec.pause_ns)
                .field("mark_ns", rec.mark_ns)
                .field("sweep_ns", rec.sweep_ns)
                .field("root_scan_ns", rec.root_scan_ns)
                .field("heap_scan_ns", rec.heap_scan_ns)
                .field("class_sweep_ns", rec.class_sweep_encoded())
                .field("increments", rec.increments)
                .field("increment_words", rec.increment_words_encoded())
                .field("young_pages_swept", rec.young_pages_swept)
        });
        self.prof.record_collection(move || rec);
    }

    fn bump_cause(&mut self, cause: CollectCause) {
        match cause {
            CollectCause::Threshold => self.stats.collections_threshold += 1,
            CollectCause::Emergency => self.stats.collections_emergency += 1,
            CollectCause::Explicit => self.stats.collections_explicit += 1,
            CollectCause::IncrementFinish => self.stats.collections_increment_finish += 1,
            CollectCause::Nursery => self.stats.collections_nursery += 1,
        }
    }

    /// If `word` looks like a pointer into a live object, marks it and
    /// pushes it on the worklist, returning whether the object was newly
    /// marked. `from_root` selects the interior-pointer rule per the
    /// configured policy. With `young_only`, pointers into old pages are
    /// ignored entirely — the nursery collection neither marks nor traces
    /// them (old objects are implicitly live, and any old→young pointer
    /// is found through the remembered-set cards instead).
    ///
    /// This is the collector's hottest path: a heap-bounds compare
    /// rejects most candidate words outright, and the flat side table
    /// classifies the page without walking the page-map tree, so a real
    /// pointer costs one descriptor access instead of three.
    fn mark_candidate(
        &mut self,
        word: u64,
        from_root: bool,
        young_only: bool,
        worklist: &mut Vec<(u64, u64)>,
    ) -> bool {
        if word < self.heap_base || word >= self.heap_limit {
            return false;
        }
        let idx = ((word - self.heap_base) >> PAGE_SHIFT) as usize;
        let interior_ok = from_root || self.config.policy == PointerPolicy::InteriorEverywhere;
        match self.side[idx] {
            PageKind::Free => {
                // A heap-range bit pattern with no object behind it is a
                // false pointer in waiting: blacklist its page so nothing
                // is ever allocated where a spurious root already points.
                if self.config.blacklisting && self.bl_insert(idx) {
                    self.stats.blacklisted_pages += 1;
                }
                false
            }
            PageKind::Small { .. } | PageKind::LargeHead if young_only && !self.is_young(idx) => {
                false
            }
            PageKind::Small { obj_size, .. } => {
                let page_start = self.map.page_addr(idx);
                let slot = ((word - page_start) / u64::from(obj_size)) as usize;
                let PageDesc::Small(sp) = self.map.desc_mut(idx) else {
                    unreachable!("side table says small page")
                };
                if slot >= sp.slots() || !sp.alloc_bit(slot) {
                    // A free slot (or the tail gap of a ragged class) is
                    // not an object; pages with live neighbours are never
                    // blacklisted.
                    return false;
                }
                let base = page_start + slot as u64 * u64::from(obj_size);
                if (!interior_ok && base != word) || sp.mark_bit(slot) {
                    return false;
                }
                sp.set_mark(slot);
                worklist.push((base, u64::from(obj_size)));
                true
            }
            PageKind::LargeHead => self.mark_large(idx, word, interior_ok, worklist),
            PageKind::LargeCont { back } => {
                let head = idx - back as usize;
                if young_only && !self.is_young(head) {
                    return false;
                }
                self.mark_large(head, word, interior_ok, worklist)
            }
        }
    }

    /// Marks the large object headed at page `head` if `word` falls
    /// inside its allocated extent.
    fn mark_large(
        &mut self,
        head: usize,
        word: u64,
        interior_ok: bool,
        worklist: &mut Vec<(u64, u64)>,
    ) -> bool {
        let head_addr = self.map.page_addr(head);
        let PageDesc::LargeHead {
            size,
            marked,
            allocated,
        } = self.map.desc_mut(head)
        else {
            unreachable!("side table says large head")
        };
        if !*allocated || word >= head_addr + *size {
            return false;
        }
        if (!interior_ok && word != head_addr) || *marked {
            return false;
        }
        *marked = true;
        worklist.push((head_addr, *size));
        true
    }

    /// Sets the mark bit of the object at `addr` without scanning it —
    /// allocate-black for objects born during a mark cycle.
    fn blacken(&mut self, addr: u64) {
        let idx = ((addr - self.heap_base) >> PAGE_SHIFT) as usize;
        match self.side[idx] {
            PageKind::Small { obj_size, .. } => {
                let page_start = self.map.page_addr(idx);
                let slot = ((addr - page_start) / u64::from(obj_size)) as usize;
                let PageDesc::Small(sp) = self.map.desc_mut(idx) else {
                    unreachable!("side table says small page")
                };
                sp.set_mark(slot);
            }
            PageKind::LargeHead => {
                let PageDesc::LargeHead { marked, .. } = self.map.desc_mut(idx) else {
                    unreachable!("side table says large head")
                };
                *marked = true;
            }
            PageKind::Free | PageKind::LargeCont { .. } => {
                unreachable!("freshly allocated object on a free page")
            }
        }
    }

    /// Whether an incremental mark cycle is in progress (the mutator must
    /// route heap stores through [`GcHeap::write_barrier`] until it ends).
    pub fn marking_active(&self) -> bool {
        self.cycle.is_some()
    }

    /// Whether heap stores must be reported through
    /// [`GcHeap::write_barrier`]: during an incremental mark cycle (the
    /// Dijkstra greying half) and whenever the generational split is on
    /// (the remembered-set card half).
    #[inline]
    pub fn barrier_active(&self) -> bool {
        self.config.nursery || self.cycle.is_some()
    }

    /// The store barrier, called with a heap store's target address and
    /// the value written. Two halves share it:
    ///
    /// * **Cards** (generational): the old page written to is remembered,
    ///   so the next nursery collection re-scans it for old→young
    ///   pointers.
    /// * **Dijkstra greying** (incremental): if the value points at a
    ///   white object while marking is active, the object is greyed —
    ///   storing the only pointer to a white object into an
    ///   already-scanned black object can therefore never lose it.
    ///
    /// Stores outside the heap need no barrier: non-heap locations are
    /// roots, and the cycle's final root re-scan sees them.
    pub fn write_barrier(&mut self, addr: u64, value: u64) {
        if addr < self.heap_base || addr >= self.heap_limit {
            return;
        }
        if self.config.nursery {
            let p = ((addr - self.heap_base) >> PAGE_SHIFT) as usize;
            self.card_page(p);
        }
        if let Some(mut c) = self.cycle.take() {
            let marked = u64::from(self.mark_candidate(value, false, false, &mut c.grey));
            c.objects_marked += marked;
            self.stats.barrier_marks += marked;
            self.cycle = Some(c);
        }
    }

    /// [`GcHeap::write_barrier`] for a bulk store (memcpy/memset/strcpy):
    /// cards every old page the range overlaps, and greys every aligned
    /// word of the written range while marking is active. Call it *after*
    /// the bytes are written, so the scan sees the stored values.
    pub fn write_barrier_range(&mut self, mem: &Memory, addr: u64, len: u64) {
        let end = addr.saturating_add(len);
        if len == 0 || end <= self.heap_base || addr >= self.heap_limit {
            return;
        }
        if self.config.nursery {
            let lo = addr.max(self.heap_base);
            let hi = end.min(self.heap_limit);
            let first = ((lo - self.heap_base) >> PAGE_SHIFT) as usize;
            let last = ((hi - 1 - self.heap_base) >> PAGE_SHIFT) as usize;
            for p in first..=last {
                self.card_page(p);
            }
        }
        if let Some(mut c) = self.cycle.take() {
            let mut marked = 0u64;
            mem.scan_words(addr & !7, (end + 7) & !7, |word| {
                marked += u64::from(self.mark_candidate(word, false, false, &mut c.grey));
            });
            c.objects_marked += marked;
            self.stats.barrier_marks += marked;
            self.cycle = Some(c);
        }
    }

    /// Remembers a store into page `p` (continuations resolve to their
    /// head). Young pages need no card — the nursery collection scans
    /// them anyway — and free pages hold nothing to scan.
    fn card_page(&mut self, mut p: usize) {
        if let PageKind::LargeCont { back } = self.side[p] {
            p -= back as usize;
        }
        if matches!(self.side[p], PageKind::Free) || self.is_young(p) {
            return;
        }
        self.cards[p / 64] |= 1 << (p % 64);
    }

    /// Starts an incremental mark cycle: one bounded stop that scans the
    /// roots into the grey worklist. Subsequent allocation safe points
    /// drive [`GcHeap::mark_step`] until the cycle finishes.
    fn begin_cycle(&mut self, mem: &Memory, roots: &RootSet, site: Option<&str>) {
        let t0 = Instant::now();
        let mut c = self.start_cycle(mem, roots, site, false);
        let roots_scanned = c.roots_scanned;
        self.end_increment(&mut c, &t0, roots_scanned, 0);
        self.cycle = Some(c);
    }

    /// One bounded stop of an in-progress cycle: drains the grey worklist
    /// up to the byte budget. A stop that finds the worklist already dry
    /// re-scans the roots instead, and — if grey stays dry — ends marking
    /// in the same stop and lists the pages for the chunked sweep
    /// (retired by [`GcHeap::sweep_step`] at the next safe points).
    ///
    /// Termination: the grey worklist only ever receives still-white
    /// objects, objects born mid-cycle are black, and marks are never
    /// undone, so the white population shrinks monotonically; every stop
    /// either retires at least one grey object or finds grey dry, and a
    /// dry worklist that survives a root re-scan proves every object
    /// reachable at that instant is marked (heap stores were greyed by
    /// the barrier as they happened).
    fn mark_step(&mut self, mem: &Memory, roots: &mut RootCache<'_>) {
        let mut c = self
            .cycle
            .take()
            .expect("mark_step requires an active cycle");
        // The termination re-scan runs only in a stop whose drain has
        // nothing to do (grey entries are never empty ranges, so that is
        // a dry worklist) — piggybacking it on a full-budget drain would
        // double that stop's cost. As for every collection, the roots are
        // gathered before the stop's clock starts.
        let rescan = c.grey.is_empty().then(|| roots.get());
        let t0 = Instant::now();
        let (_, words) = self.drain(mem, &mut c, self.config.mark_budget_bytes.max(1));
        if let Some(roots) = rescan {
            let rescanned = self.scan_roots(mem, roots, &mut c);
            if c.grey.is_empty() {
                self.begin_sweep(&mut c);
                self.end_increment(&mut c, &t0, rescanned, words);
                self.sweeping = Some(c);
                return;
            }
        }
        self.end_increment(&mut c, &t0, 0, words);
        self.cycle = Some(c);
    }

    /// Closes one bounded mark stop of a spread cycle: its pause, its
    /// entry in the cycle's increment list, and its trace event.
    fn end_increment(&mut self, c: &mut Cycle, t0: &Instant, roots_scanned: u64, words: u64) {
        let stop_ns = elapsed_ns(t0);
        self.end_stop(c, stop_ns, stop_ns, true);
        c.increments += 1;
        c.increment_words.push(words);
        self.stats.mark_increments += 1;
        let (n, increment, grey) = (self.stats.collections + 1, c.increments, c.grey.len());
        self.trace.emit(|| {
            Event::new("gc", "mark-increment")
                .field("n", n)
                .field("increment", increment)
                .field("roots_scanned", roots_scanned)
                .field("words_scanned", words)
                .field("grey", grey as u64)
                .field("pause_ns", stop_ns)
        });
    }

    /// Retires one bounded chunk of a pending sweep:
    /// [`HeapConfig::sweep_chunk_pages`] touched pages from the list
    /// fixed when marking ended. The chunk that exhausts the list
    /// completes the collection.
    fn sweep_step(&mut self, mem: &mut Memory) {
        let t0 = Instant::now();
        let mut c = self
            .sweeping
            .take()
            .expect("sweep_step requires a pending sweep");
        let done = self.sweep_pages(mem, &mut c, self.config.sweep_chunk_pages.max(1));
        self.end_stop(&mut c, elapsed_ns(&t0), 0, true);
        self.stats.sweep_increments += 1;
        if done {
            self.complete_cycle(c, CollectCause::IncrementFinish);
        } else {
            self.sweeping = Some(c);
        }
    }

    /// Retires every remaining chunk of a pending sweep back to back — an
    /// emergency or a demanded collection needs the heap fully swept now.
    fn finish_pending_sweep(&mut self, mem: &mut Memory) {
        while self.sweeping.is_some() {
            self.sweep_step(mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Memory, GcHeap) {
        let mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let heap = GcHeap::with_defaults(&mem);
        (mem, heap)
    }

    fn prebuilt(roots: &RootSet) -> RootCache<'_> {
        RootCache {
            source: Roots::Built(roots),
            built: None,
        }
    }

    #[test]
    fn alloc_returns_zeroed_distinct_objects() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 24).unwrap();
        let b = heap.alloc(&mut mem, 24).unwrap();
        assert_ne!(a, b);
        assert_eq!(mem.read(a, 8).unwrap(), 0);
        assert_eq!(heap.base(a + 10), Some(a));
        assert_eq!(heap.base(b + 10), Some(b));
    }

    #[test]
    fn extra_byte_keeps_one_past_end_inside() {
        let (mut mem, mut heap) = setup();
        // 32 bytes + 1 extra → 48-byte class; one-past-end of the request
        // (base+32) must still resolve to the object.
        let a = heap.alloc(&mut mem, 32).unwrap();
        assert_eq!(heap.base(a + 32), Some(a));
    }

    #[test]
    fn slot_reciprocals_divide_exactly() {
        for (ci, &size) in SIZE_CLASSES.iter().enumerate() {
            for off in 0..PAGE_SIZE {
                assert_eq!(
                    (off * SLOT_RECIPROCALS[ci]) >> 32,
                    off / u64::from(size),
                    "offset {off}, size {size}"
                );
            }
        }
    }

    #[test]
    fn is_allocated_agrees_with_the_page_map() {
        let mut mem = Memory::new(4096, 4096, 64 * PAGE_SIZE as usize);
        let mut heap = GcHeap::with_defaults(&mem);
        let mut kept = RootSet::new();
        // Every class, a ragged one among them, and a large object.
        for (i, &size) in SIZE_CLASSES.iter().chain(&[5000, 48, 48, 48]).enumerate() {
            let a = heap.alloc(&mut mem, u64::from(size) - 1).expect("fits");
            if i % 2 == 0 {
                kept.add_word(a);
            }
        }
        heap.collect(&mut mem, &kept);
        let mut seen = [0; 2];
        let limit = HEAP_BASE + mem.heap_size() as u64;
        for addr in (HEAP_BASE - 8..limit + 8).step_by(8) {
            let allocated = heap.is_allocated(addr);
            assert_eq!(allocated, heap.base(addr).is_some(), "{addr:#x}");
            seen[usize::from(allocated)] += 1;
        }
        assert!(seen[0] > 0 && seen[1] > 0, "{seen:?}");
    }

    #[test]
    fn same_obj_rounds_like_the_paper_says() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 20).unwrap(); // 21 → 32-byte class
        assert!(heap.same_obj(a, a + 31));
        assert!(!heap.same_obj(a, a + 32));
        assert_eq!(heap.stats().same_obj_failures, 1);
    }

    /// A lazy root provider is called only when the heap scans roots:
    /// never below the threshold, once per collecting allocation, and in
    /// a spread cycle at mark stops but never at sweep steps.
    #[test]
    fn lazy_roots_are_built_only_when_scanned() {
        use crate::mem::GLOBAL_BASE;
        use std::cell::Cell;
        let calls = Cell::new(0u64);
        // The provider roots a table of pointers in the globals region.
        let mut build = || {
            calls.set(calls.get() + 1);
            let mut roots = RootSet::new();
            roots.add_range(GLOBAL_BASE, GLOBAL_BASE + 8 * 64);
            roots
        };

        let (mut mem, mut heap) = setup();
        for _ in 0..100 {
            heap.alloc_with_roots(&mut mem, 64, Roots::Lazy(&mut build))
                .unwrap();
        }
        assert_eq!((heap.stats().collections, calls.get()), (0, 0));

        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: 1,
                ..HeapConfig::default()
            },
        );
        for _ in 0..50 {
            let (before, c0) = (heap.stats().collections, calls.get());
            heap.alloc_with_roots(&mut mem, 64, Roots::Lazy(&mut build))
                .unwrap();
            assert_eq!(calls.get() - c0, heap.stats().collections - before);
        }
        assert_eq!(calls.get(), 49);

        let (mut mem, _) = setup();
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: 4096,
                mark_budget_bytes: 256,
                sweep_chunk_pages: 1,
                ..HeapConfig::bounded_pause()
            },
        );
        let (mut sweep_steps, mut drain_steps, mut scanning_steps) = (0, 0, 0);
        for i in 0..4000u64 {
            let (s0, c0) = (heap.stats(), calls.get());
            let a = heap
                .alloc_with_roots(&mut mem, 48, Roots::Lazy(&mut build))
                .unwrap();
            // Keep a sliding window of 64 rooted objects.
            mem.write(GLOBAL_BASE + 8 * (i % 64), 8, a).unwrap();
            let (s1, called) = (heap.stats(), calls.get() - c0);
            let stopped =
                s1.mark_increments > s0.mark_increments || s1.collections > s0.collections;
            assert!(called <= 1, "allocation {i} built its roots {called} times");
            if s1.sweep_increments > s0.sweep_increments && !stopped {
                sweep_steps += 1;
                assert_eq!(called, 0, "sweep step at allocation {i} built roots");
            } else if stopped && called == 0 {
                drain_steps += 1;
            } else if called == 1 {
                assert!(stopped, "allocation {i} built roots without scanning them");
                scanning_steps += 1;
            }
        }
        assert!(heap.stats().mark_increments > 0 && heap.stats().sweep_increments > 0);
        assert!(
            sweep_steps > 0 && drain_steps > 0 && scanning_steps > 0,
            "sweep {sweep_steps}, drain {drain_steps}, scanning {scanning_steps}"
        );
    }

    #[test]
    fn collect_frees_unreachable_keeps_reachable() {
        let (mut mem, mut heap) = setup();
        let keep = heap.alloc(&mut mem, 40).unwrap();
        let lose = heap.alloc(&mut mem, 40).unwrap();
        mem.write(lose, 8, 42).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(keep);
        heap.collect(&mut mem, &roots);
        assert!(heap.is_allocated(keep));
        assert!(!heap.is_allocated(lose));
        assert_eq!(heap.stats().objects_freed, 1);
        // Freed memory is poisoned.
        assert_eq!(mem.read(lose, 1).unwrap(), u64::from(POISON));
    }

    #[test]
    fn collections_commit_no_memory() {
        // Small and large garbage the program never wrote lies past the
        // heap's committed run; freeing it must not commit any of it, in
        // any kind of collection stop.
        let schedules = [
            ("stop-the-world", HeapConfig::default()),
            (
                "bounded",
                HeapConfig {
                    mark_budget_bytes: 256,
                    sweep_chunk_pages: 2,
                    ..HeapConfig::bounded_pause()
                },
            ),
        ];
        for (name, config) in schedules {
            let mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
            let mut heap = GcHeap::new(&mem, config);
            let mut mem = mem;
            let keep = heap.alloc(&mut mem, 64).unwrap();
            mem.write(keep, 8, 7).unwrap();
            let mut roots = RootSet::new();
            roots.add_word(keep);
            let before = mem.committed();
            for i in 0..600 {
                let size = if i % 8 == 0 { 3 * PAGE_SIZE } else { 48 };
                heap.alloc_with_roots(&mut mem, size, &roots).unwrap();
                assert_eq!(mem.committed(), before, "{name}: allocation {i}");
            }
            heap.collect(&mut mem, &roots);
            assert_eq!(mem.committed(), before, "{name}: explicit collection");
            assert!(heap.is_allocated(keep));
            let s = heap.stats();
            assert!(s.objects_freed > 500, "{name}: {s:?}");
            if heap.config().incremental {
                assert!(s.collections_nursery > 0, "{s:?}");
                assert!(s.mark_increments > 0, "{s:?}");
                assert!(s.sweep_increments > 0, "{s:?}");
            } else {
                assert!(s.collections_threshold > 0, "{s:?}");
            }
        }
    }

    #[test]
    fn interior_pointer_roots_retain() {
        let (mut mem, mut heap) = setup();
        let obj = heap.alloc(&mut mem, 100).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(obj + 57); // interior
        heap.collect(&mut mem, &roots);
        assert!(heap.is_allocated(obj));
    }

    #[test]
    fn heap_chain_is_traced() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 16).unwrap();
        let b = heap.alloc(&mut mem, 16).unwrap();
        let c = heap.alloc(&mut mem, 16).unwrap();
        mem.write(a, 8, b).unwrap();
        mem.write(b, 8, c).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(a);
        heap.collect(&mut mem, &roots);
        assert!(heap.is_allocated(a));
        assert!(heap.is_allocated(b));
        assert!(heap.is_allocated(c));
    }

    #[test]
    fn base_only_policy_drops_heap_interior_pointers() {
        let mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                policy: PointerPolicy::InteriorFromRootsOnly,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        let a = heap.alloc(&mut mem, 16).unwrap();
        let b = heap.alloc(&mut mem, 64).unwrap();
        // a holds an *interior* pointer to b — not a base.
        mem.write(a, 8, b + 8).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(a);
        heap.collect(&mut mem, &roots);
        assert!(heap.is_allocated(a));
        assert!(
            !heap.is_allocated(b),
            "interior heap pointer must not retain"
        );
        // But a root interior pointer still works.
        let c = heap.alloc(&mut mem, 64).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(c + 8);
        heap.collect(&mut mem, &roots);
        assert!(heap.is_allocated(c));
    }

    #[test]
    fn large_objects_allocate_and_free() {
        let (mut mem, mut heap) = setup();
        let big = heap.alloc(&mut mem, 3 * 4096).unwrap();
        assert_eq!(heap.base(big + 9000), Some(big));
        heap.collect(&mut mem, &RootSet::new());
        assert!(!heap.is_allocated(big));
    }

    #[test]
    fn reuse_after_collection() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 24).unwrap();
        heap.collect(&mut mem, &RootSet::new());
        let b = heap.alloc(&mut mem, 24).unwrap();
        assert_eq!(a, b, "slot is recycled through the free list");
    }

    #[test]
    fn stack_range_roots() {
        let (mut mem, mut heap) = setup();
        let obj = heap.alloc(&mut mem, 48).unwrap();
        let sp = crate::mem::STACK_BASE + 256;
        mem.write(sp + 16, 8, obj).unwrap();
        let mut roots = RootSet::new();
        roots.add_range(sp, sp + 64);
        heap.collect(&mut mem, &roots);
        assert!(heap.is_allocated(obj));
    }

    #[test]
    fn non_pointer_words_do_not_retain() {
        let (mut mem, mut heap) = setup();
        let obj = heap.alloc(&mut mem, 48).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(12345); // small integer, not a heap address
        roots.add_word(obj - 1); // just below the object (unallocated slot area)
        heap.collect(&mut mem, &roots);
        assert!(!heap.is_allocated(obj) || obj == 0);
    }

    #[test]
    fn failed_allocations_do_not_inflate_stats() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 14); // 4 pages of heap
        let mut heap = GcHeap::with_defaults(&mem);
        let mut mem = mem;
        for _ in 0..8 {
            heap.alloc(&mut mem, 1500).unwrap();
        }
        let before = heap.stats();
        assert!(heap.alloc(&mut mem, 1500).is_err());
        let after = heap.stats();
        assert_eq!(after.allocations, before.allocations);
        assert_eq!(after.bytes_requested, before.bytes_requested);
        assert_eq!(after.failed_allocations, before.failed_allocations + 1);
    }

    #[test]
    fn threshold_collection_is_not_followed_by_a_back_to_back_one() {
        // Exhausted heap + reached threshold: the old driver collected,
        // failed the alloc, then collected again although nothing could
        // have changed in between.
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 14);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: 1,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        let mut keep = Vec::new();
        while let Ok(a) = heap.alloc(&mut mem, 1500) {
            keep.push(a);
        }
        let mut roots = RootSet::new();
        for &a in &keep {
            roots.add_word(a);
        }
        let before = heap.stats().collections;
        assert!(heap.alloc_with_roots(&mut mem, 1500, &roots).is_err());
        assert_eq!(
            heap.stats().collections,
            before + 1,
            "one collection per failed alloc_with_roots, not two"
        );
    }

    #[test]
    fn empty_small_pages_return_to_the_page_pool() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 14); // 4 pages of heap
        let mut heap = GcHeap::with_defaults(&mem);
        let mut mem = mem;
        // Fill the whole heap with 64-byte-class objects, unrooted.
        while heap.alloc(&mut mem, 60).is_ok() {}
        heap.collect(&mut mem, &RootSet::new());
        assert_eq!(heap.stats().pages_reclaimed, 4);
        // A 2048-byte-class allocation needs a fresh page; before the
        // sweep returned empty pages this OOMed.
        assert!(heap.alloc(&mut mem, 1500).is_ok());
    }

    /// Collects `mem` with `roots` under a memory trace and returns the
    /// collection's `roots_scanned` and `words_marked`.
    fn collect_counted(heap: &mut GcHeap, mem: &mut Memory, roots: &RootSet) -> (u64, u64) {
        let (trace, sink) = TraceHandle::memory();
        heap.set_trace(trace);
        heap.collect(mem, roots);
        let evs = sink.snapshot();
        let get = |k: &str| match evs.last().and_then(|e| e.get(k)) {
            Some(gctrace::Value::UInt(u)) => *u,
            other => panic!("field {k}: {other:?}"),
        };
        (get("roots_scanned"), get("words_marked"))
    }

    #[test]
    fn words_at_the_heap_bounds_mark_as_their_objects_say() {
        // Four pages of 2048-byte slots: the first slot starts at the
        // heap's base and the last ends at its limit.
        let fill = || {
            let mut mem = Memory::new(1 << 12, 1 << 12, 1 << 14);
            let mut heap = GcHeap::with_defaults(&mem);
            let mut objs: Vec<u64> =
                std::iter::from_fn(|| heap.alloc(&mut mem, 1500).ok()).collect();
            objs.sort_unstable();
            (mem, heap, objs)
        };
        let (_, heap, objs) = fill();
        let (base, limit) = (heap.heap_base, heap.heap_limit);
        let (first, last) = (objs[0], objs[objs.len() - 1]);
        assert_eq!((first, last + 2048, objs.len()), (base, limit, 8));
        let live = |heap: &GcHeap, objs: &[u64]| -> Vec<u64> {
            objs.iter()
                .copied()
                .filter(|&o| heap.is_allocated(o))
                .collect()
        };
        for (word, hit) in [
            (base - 1, None),
            (base, Some(first)),
            (limit - 1, Some(last)),
            (limit, None),
        ] {
            // As a root: a slot's worth of words is scanned per survivor.
            let (mut mem, mut heap, objs) = fill();
            let mut roots = RootSet::new();
            roots.add_word(word);
            let counts = collect_counted(&mut heap, &mut mem, &roots);
            assert_eq!(live(&heap, &objs), Vec::from_iter(hit), "root {word:#x}");
            assert_eq!(counts, (1, 256 * hit.iter().len() as u64), "root {word:#x}");
            // As a word of a rooted object's body, which scans every word
            // of the holder's slot.
            let (mut mem, mut heap, objs) = fill();
            let holder = objs[1];
            mem.write(holder + 8, 8, word).unwrap();
            let mut roots = RootSet::new();
            roots.add_word(holder);
            let counts = collect_counted(&mut heap, &mut mem, &roots);
            let mut want = vec![holder];
            want.extend(hit);
            want.sort_unstable();
            assert_eq!(live(&heap, &objs), want, "heap word {word:#x}");
            assert_eq!(counts, (1, 256 * want.len() as u64), "heap word {word:#x}");
        }
    }

    #[test]
    fn a_bound_word_on_a_free_page_blacklists_it() {
        // Nothing is allocated: every page is free, so an in-range word
        // blacklists its page, as a root and as a heap word alike.
        let config = HeapConfig {
            blacklisting: true,
            ..HeapConfig::default()
        };
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 14);
        let heap = GcHeap::new(&mem, config.clone());
        let (base, limit) = (heap.heap_base, heap.heap_limit);
        for (word, pages) in [(base - 1, 0), (base, 1), (limit - 1, 1), (limit, 0)] {
            let mut mem = Memory::new(1 << 12, 1 << 12, 1 << 14);
            let mut heap = GcHeap::new(&mem, config.clone());
            let mut roots = RootSet::new();
            roots.add_word(word);
            heap.collect(&mut mem, &roots);
            assert_eq!(heap.stats().blacklisted_pages, pages, "root {word:#x}");
        }
        // A heap word: its holder sits on page 0, so the base word marks
        // the holder instead.
        for (word, pages) in [(base - 1, 0), (base, 0), (limit - 1, 1), (limit, 0)] {
            let mut mem = Memory::new(1 << 12, 1 << 12, 1 << 14);
            let mut heap = GcHeap::new(&mem, config.clone());
            let holder = heap.alloc(&mut mem, 32).unwrap();
            mem.write(holder, 8, word).unwrap();
            let mut roots = RootSet::new();
            roots.add_word(holder);
            heap.collect(&mut mem, &roots);
            assert!(heap.is_allocated(holder));
            assert_eq!(heap.stats().blacklisted_pages, pages, "heap word {word:#x}");
        }
    }

    #[test]
    fn reclaimed_pages_respect_the_blacklist() {
        use crate::pagemap::PAGE_SIZE;
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 14);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                blacklisting: true,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        // Occupy every page with unrooted small objects and reclaim them
        // all, so page 1 sits in the free page pool. A collection with a
        // spurious root into the now-free page 1 must blacklist it even
        // though it is queued for reuse.
        while heap.alloc(&mut mem, 60).is_ok() {}
        heap.collect(&mut mem, &RootSet::new());
        assert_eq!(heap.stats().pages_reclaimed, 4);
        let bogus = crate::mem::HEAP_BASE + PAGE_SIZE + 40;
        let mut roots = RootSet::new();
        roots.add_word(bogus);
        heap.collect(&mut mem, &roots);
        assert_eq!(heap.stats().blacklisted_pages, 1);
        // Refill: nothing may land on the blacklisted page 1.
        while let Ok(a) = heap.alloc(&mut mem, 60) {
            let page = (a - crate::mem::HEAP_BASE) / PAGE_SIZE;
            assert_ne!(page, 1, "allocation on a blacklisted reclaimed page");
        }
    }

    #[test]
    fn oom_then_collect_recovers() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 14); // 4 pages of heap
        let mut heap = GcHeap::with_defaults(&mem);
        let mut mem = mem;
        // Exhaust: 4 pages of 2048-byte objects = 8 objects.
        for _ in 0..8 {
            heap.alloc(&mut mem, 1500).unwrap();
        }
        assert!(heap.alloc(&mut mem, 1500).is_err());
        let got = heap.alloc_with_roots(&mut mem, 1500, &RootSet::new());
        assert!(got.is_ok(), "collection reclaims everything");
    }

    #[test]
    fn blacklisting_withdraws_falsely_pointed_pages() {
        use crate::pagemap::PAGE_SIZE;
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 16); // 16 heap pages
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                blacklisting: true,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        // A spurious root pointing into the (still free) page 3.
        let bogus = crate::mem::HEAP_BASE + 3 * PAGE_SIZE + 40;
        let mut roots = RootSet::new();
        roots.add_word(bogus);
        heap.collect(&mut mem, &roots);
        assert_eq!(heap.stats().blacklisted_pages, 1);
        // Fill the heap: no allocation may land on page 3.
        while let Ok(a) = heap.alloc(&mut mem, 3000) {
            let page = (a - crate::mem::HEAP_BASE) / PAGE_SIZE;
            assert_ne!(page, 3, "allocation on a blacklisted page");
        }
    }

    #[test]
    fn without_blacklisting_the_page_is_usable() {
        use crate::pagemap::PAGE_SIZE;
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 16);
        let mut heap = GcHeap::with_defaults(&mem);
        let mut mem = mem;
        let bogus = crate::mem::HEAP_BASE + 3 * PAGE_SIZE + 40;
        let mut roots = RootSet::new();
        roots.add_word(bogus);
        heap.collect(&mut mem, &roots);
        assert_eq!(heap.stats().blacklisted_pages, 0);
        let mut hit = false;
        while let Ok(a) = heap.alloc(&mut mem, 3000) {
            if (a - crate::mem::HEAP_BASE) / PAGE_SIZE == 3 {
                hit = true;
            }
        }
        assert!(hit, "page 3 is allocatable without blacklisting");
    }

    #[test]
    fn allocated_pages_are_never_blacklisted() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 16);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                blacklisting: true,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        let live = heap.alloc(&mut mem, 100).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(live + 50); // interior pointer to a real object
        heap.collect(&mut mem, &roots);
        assert_eq!(heap.stats().blacklisted_pages, 0);
        assert!(heap.is_allocated(live));
    }

    #[test]
    fn should_collect_after_threshold() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 20);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: 1024,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        assert!(!heap.should_collect());
        for _ in 0..40 {
            heap.alloc(&mut mem, 30).unwrap();
        }
        assert!(heap.should_collect());
        heap.collect(&mut mem, &RootSet::new());
        assert!(!heap.should_collect());
    }

    #[test]
    fn collections_accumulate_pause_time() {
        let (mut mem, mut heap) = setup();
        for _ in 0..50 {
            heap.alloc(&mut mem, 64).unwrap();
        }
        heap.collect(&mut mem, &RootSet::new());
        let after_one = heap.stats();
        assert!(
            after_one.total_pause_ns > 0,
            "a collection takes nonzero time"
        );
        heap.collect(&mut mem, &RootSet::new());
        let after_two = heap.stats();
        assert!(after_two.total_pause_ns > after_one.total_pause_ns);
    }

    #[test]
    fn collection_emits_a_timeline_event() {
        let (mut mem, mut heap) = setup();
        let (trace, sink) = TraceHandle::memory();
        heap.set_trace(trace);
        let keep = heap.alloc(&mut mem, 16).unwrap();
        let child = heap.alloc(&mut mem, 16).unwrap();
        let _lose = heap.alloc(&mut mem, 40).unwrap();
        mem.write(keep, 8, child).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(keep);
        heap.collect(&mut mem, &roots);
        let evs = sink.snapshot();
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert_eq!((e.stage, e.kind), ("gc", "collection"));
        let get = |k: &str| match e.get(k) {
            Some(gctrace::Value::UInt(u)) => *u,
            other => panic!("field {k}: {other:?}"),
        };
        assert_eq!(get("n"), 1);
        assert_eq!(get("roots_scanned"), 1);
        assert_eq!(get("objects_marked"), 2, "keep and child");
        assert_eq!(get("objects_swept"), 1, "the unrooted 40-byte object");
        assert!(get("bytes_swept") >= 40);
        assert_eq!(get("objects_live"), 2);
        assert!(get("pause_ns") > 0);
        assert!(
            get("words_marked") >= 2,
            "both survivors' words were scanned"
        );
    }

    #[test]
    fn pause_splits_into_mark_and_sweep() {
        let (mut mem, mut heap) = setup();
        for _ in 0..200 {
            heap.alloc(&mut mem, 64).unwrap();
        }
        heap.collect(&mut mem, &RootSet::new());
        let s = heap.stats();
        assert!(s.total_mark_ns > 0, "marking takes nonzero time");
        assert!(s.total_sweep_ns > 0, "sweeping takes nonzero time");
        assert!(
            s.total_mark_ns + s.total_sweep_ns <= s.total_pause_ns,
            "the phases partition the pause: {} + {} vs {}",
            s.total_mark_ns,
            s.total_sweep_ns,
            s.total_pause_ns
        );
    }

    #[test]
    fn collection_event_carries_the_phase_split() {
        let (mut mem, mut heap) = setup();
        let (trace, sink) = TraceHandle::memory();
        heap.set_trace(trace);
        heap.alloc(&mut mem, 64).unwrap();
        heap.collect(&mut mem, &RootSet::new());
        let evs = sink.snapshot();
        let e = &evs[0];
        let get = |k: &str| match e.get(k) {
            Some(gctrace::Value::UInt(u)) => *u,
            other => panic!("field {k}: {other:?}"),
        };
        assert!(get("mark_ns") > 0);
        assert_eq!(get("mark_ns") + get("sweep_ns"), get("pause_ns"));
        assert_eq!(
            get("root_scan_ns") + get("heap_scan_ns"),
            get("mark_ns"),
            "root scan + heap scan partition the mark phase"
        );
        let Some(gctrace::Value::Str(cause)) = e.get("cause") else {
            panic!("collection event without a cause: {e:?}");
        };
        assert_eq!(cause, "explicit", "bare collect() is an explicit cause");
        let Some(gctrace::Value::Str(classes)) = e.get("class_sweep_ns") else {
            panic!("collection event without class_sweep_ns: {e:?}");
        };
        assert!(
            classes.split(' ').any(|p| p.starts_with("96:")),
            "the 64-byte request rounds into the 96-byte class: {classes}"
        );
        assert!(get("pages_swept") >= 1);
    }

    /// The attribution pillar: every collection knows why it ran, both in
    /// the [`HeapStats`] cause counters and in the per-collection
    /// [`CollectionRecord`] log, and a threshold/emergency collection
    /// carries the triggering allocation-site label end to end.
    #[test]
    fn collections_carry_cause_and_site_attribution() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 20);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: 2048,
                ..HeapConfig::default()
            },
        );
        let prof = gcprof::ProfHandle::enabled();
        heap.set_prof(prof.clone());
        assert!(heap.attribution_enabled());
        let mut mem = mem;
        // Cross the threshold, then allocate with a site label attached.
        for _ in 0..40 {
            heap.alloc(&mut mem, 64).unwrap();
        }
        assert!(heap.should_collect());
        heap.alloc_with_roots_sited(&mut mem, 64, &RootSet::new(), Some("main;malloc@9:3"))
            .unwrap();
        // And one explicit collection.
        heap.collect(&mut mem, &RootSet::new());
        let s = heap.stats();
        assert_eq!(s.collections, 2);
        assert_eq!(
            (
                s.collections_threshold,
                s.collections_emergency,
                s.collections_explicit
            ),
            (1, 0, 1),
            "cause counters partition the collection count"
        );
        assert_eq!(
            s.collections_threshold
                + s.collections_emergency
                + s.collections_explicit
                + s.collections_increment_finish
                + s.collections_nursery,
            s.collections,
            "the five cause counters partition the collection count"
        );
        let d = prof.snapshot().expect("prof enabled");
        assert_eq!(d.collection_log.len(), 2);
        let first = &d.collection_log[0];
        assert_eq!(first.cause, CollectCause::Threshold);
        assert_eq!(first.site.as_deref(), Some("main;malloc@9:3"));
        assert!(
            first.bytes_since_gc >= 2048,
            "the record captures the allocation debt that tripped the threshold"
        );
        assert_eq!(first.root_scan_ns + first.heap_scan_ns, first.mark_ns);
        assert!(first.pages_swept >= 1);
        assert!(
            !first.class_sweep_ns.is_empty(),
            "instrumented sweeps carry per-class timing"
        );
        let second = &d.collection_log[1];
        assert_eq!(second.cause, CollectCause::Explicit);
        assert_eq!(second.site, None);
    }

    /// With neither trace nor prof attached the sweep must skip per-page
    /// timing and build no records — but cause counters still tally.
    #[test]
    fn uninstrumented_collections_still_count_causes() {
        let (mut mem, mut heap) = setup();
        assert!(!heap.attribution_enabled());
        heap.alloc(&mut mem, 64).unwrap();
        heap.collect(&mut mem, &RootSet::new());
        let s = heap.stats();
        assert_eq!(s.collections_explicit, 1);
    }

    #[test]
    fn peak_bytes_live_is_a_high_water_mark() {
        let (mut mem, mut heap) = setup();
        for _ in 0..10 {
            heap.alloc(&mut mem, 96).unwrap();
        }
        let peak = heap.stats().peak_bytes_live;
        assert_eq!(peak, heap.stats().bytes_live);
        heap.collect(&mut mem, &RootSet::new()); // drops everything
        assert_eq!(heap.stats().bytes_live, 0);
        assert_eq!(heap.stats().peak_bytes_live, peak, "peak survives the drop");
        heap.alloc(&mut mem, 16).unwrap();
        assert_eq!(heap.stats().peak_bytes_live, peak);
    }

    /// The emergency-collection path: a failed allocation that triggers a
    /// collection must still contribute to the pause accounting and the
    /// pause histogram — these pauses are real stop-the-world time even
    /// though the allocation comes back [`OutOfMemory`].
    #[test]
    fn failed_allocation_pause_is_accounted() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 14); // 4 pages of heap
        let mut heap = GcHeap::with_defaults(&mem);
        let prof = gcprof::ProfHandle::enabled();
        heap.set_prof(prof.clone());
        let mut mem = mem;
        let mut keep = Vec::new();
        for _ in 0..8 {
            keep.push(heap.alloc(&mut mem, 1500).unwrap());
        }
        let mut roots = RootSet::new();
        for &a in &keep {
            roots.add_word(a);
        }
        // Heap full, everything rooted, threshold not reached: the alloc
        // fails, the emergency collection frees nothing, the retry fails.
        assert!(!heap.should_collect());
        assert!(heap.alloc_with_roots(&mut mem, 1500, &roots).is_err());
        let s = heap.stats();
        assert_eq!(s.collections, 1, "the emergency collection ran");
        assert!(s.total_pause_ns > 0, "its pause is accounted");
        let d = prof.snapshot().expect("prof enabled");
        assert_eq!(
            d.pause_ns.count(),
            s.collections,
            "the pause histogram saw the emergency collection"
        );
        assert_eq!(d.collections, 1);
    }

    #[test]
    fn census_agrees_with_stats() {
        let (mut mem, mut heap) = setup();
        let mut keep = Vec::new();
        for i in 0..60u64 {
            keep.push(heap.alloc(&mut mem, 16 + (i % 5) * 90).unwrap());
        }
        // One byte under the page multiple so the extra byte doesn't
        // round onto a fourth/third page.
        let _large = heap.alloc(&mut mem, 3 * 4096 - 1).unwrap(); // unrooted
        let large_kept = heap.alloc(&mut mem, 2 * 4096 - 1).unwrap();
        keep.push(large_kept);
        let mut roots = RootSet::new();
        for &a in &keep[..30] {
            roots.add_word(a);
        }
        roots.add_word(large_kept);
        heap.collect(&mut mem, &roots);
        let census = heap.census();
        let s = heap.stats();
        assert_eq!(census.live_objects, s.objects_live);
        assert_eq!(census.live_bytes, s.bytes_live);
        assert_eq!(census.large_objects, 1);
        assert_eq!(census.large_bytes, 2 * 4096);
        assert_eq!(
            census.small_pages + census.large_pages + census.free_pages,
            census.pages_total
        );
        let decile_pages: u64 = census.occupancy_deciles.iter().sum();
        assert_eq!(decile_pages, census.small_pages);
        for c in &census.classes {
            assert!(c.pages > 0);
            assert!(c.live_objects <= c.slots);
            assert_eq!(c.live_bytes, c.live_objects * u64::from(c.obj_size));
        }
        assert!(census.fragmentation_permille() <= 1000);
    }

    #[test]
    fn swept_pages_are_reused_in_address_order() {
        let (mut mem, mut heap) = setup();
        // Two pages of the 32-byte class (128 slots each), alternating
        // keep/drop so both pages survive with free slots.
        let mut keep = Vec::new();
        for i in 0..256 {
            let a = heap.alloc(&mut mem, 24).unwrap();
            if i % 2 == 0 {
                keep.push(a);
            }
        }
        let mut roots = RootSet::new();
        for &a in &keep {
            roots.add_word(a);
        }
        heap.collect(&mut mem, &roots);
        assert_eq!(heap.stats().objects_freed, 128);
        // The next allocation adopts the lowest queued page and serves its
        // lowest free slot: the second-ever object's old address.
        let a = heap.alloc(&mut mem, 24).unwrap();
        assert_eq!(a, crate::mem::HEAP_BASE + 32);
        // 63 more allocations fill page one's holes in address order
        // before the second page is touched.
        let mut prev = a;
        for _ in 0..63 {
            let b = heap.alloc(&mut mem, 24).unwrap();
            assert!(b > prev, "address-ordered reuse");
            assert!(b < crate::mem::HEAP_BASE + PAGE_SIZE);
            prev = b;
        }
        let c = heap.alloc(&mut mem, 24).unwrap();
        assert!(c >= crate::mem::HEAP_BASE + PAGE_SIZE, "page two adopted");
    }

    #[test]
    fn stats_stay_exact_with_partly_free_pages_queued() {
        let (mut mem, mut heap) = setup();
        let mut keep = Vec::new();
        for i in 0..300 {
            let a = heap.alloc(&mut mem, 50 + (i % 3) * 40).unwrap();
            if i % 3 == 0 {
                keep.push(a);
            }
        }
        let mut roots = RootSet::new();
        for &a in &keep {
            roots.add_word(a);
        }
        heap.collect(&mut mem, &roots);
        // Pages with free slots wait on their queues, yet census and
        // stats agree exactly.
        let s = heap.stats();
        let census = heap.census();
        assert!(
            census.classes.iter().any(|c| c.live_objects < c.slots),
            "collection left partly free pages"
        );
        assert_eq!(census.live_objects, s.objects_live);
        assert_eq!(census.live_bytes, s.bytes_live);
        assert_eq!(s.objects_live, keep.len() as u64);
    }

    #[test]
    fn census_sees_blacklisted_pages() {
        use crate::pagemap::PAGE_SIZE;
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 16);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                blacklisting: true,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        let bogus = crate::mem::HEAP_BASE + 3 * PAGE_SIZE + 40;
        let mut roots = RootSet::new();
        roots.add_word(bogus);
        heap.collect(&mut mem, &roots);
        assert_eq!(heap.census().blacklisted_pages, 1);
    }

    /// The classic tri-color violation, deterministically: during a mark
    /// cycle the mutator stores the only pointer to a white object into
    /// an already-scanned (black) object. With the Dijkstra store
    /// barrier the object survives; without it, the cycle provably loses
    /// it.
    #[test]
    fn store_barrier_keeps_a_white_object_stored_into_a_black_one() {
        let run = |barrier: bool| {
            let mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
            let mut heap = GcHeap::new(
                &mem,
                HeapConfig {
                    incremental: true,
                    mark_budget_bytes: 16,
                    ..HeapConfig::default()
                },
            );
            let mut mem = mem;
            let a = heap.alloc(&mut mem, 8).unwrap(); // 16-byte class
            let b = heap.alloc(&mut mem, 8).unwrap(); // the white victim
            let d = heap.alloc(&mut mem, 1500).unwrap(); // ballast keeps the cycle open
            let mut roots = RootSet::new();
            roots.add_word(d);
            roots.add_word(a);
            heap.begin_cycle(&mem, &roots, None); // grey = [d, a]
            assert!(heap.marking_active());
            assert!(heap.barrier_active());
            // One budgeted step scans exactly `a` (16 bytes = the whole
            // budget): `a` is black, `d` still grey, the cycle open.
            heap.mark_step(&mem, &mut prebuilt(&roots));
            assert!(heap.marking_active());
            // The mutator stores the only pointer to white `b` into
            // black `a`; no root holds `b`.
            mem.write(a, 8, b).unwrap();
            if barrier {
                heap.write_barrier(a, b);
            }
            while heap.marking_active() {
                heap.mark_step(&mem, &mut prebuilt(&roots));
            }
            // Marking is over; retire the chunked sweep so the verdict
            // on `b` is final.
            heap.finish_pending_sweep(&mut mem);
            (heap.is_allocated(b), heap.stats())
        };
        let (b_live, s) = run(true);
        assert!(b_live, "the barrier greys b; the finish must not sweep it");
        assert!(s.barrier_marks >= 1, "the barrier mark is counted");
        assert_eq!(s.collections, 1);
        assert_eq!(s.collections_increment_finish, 1);
        assert!(s.mark_increments >= 2, "initial scan plus an increment");
        let (b_live, _) = run(false);
        assert!(!b_live, "without the barrier the cycle loses b");
    }

    #[test]
    fn incremental_marking_preserves_a_rooted_list_and_frees_garbage() {
        let mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                incremental: true,
                mark_budget_bytes: 256,
                gc_threshold: 4096,
                ..HeapConfig::default()
            },
        );
        let prof = gcprof::ProfHandle::enabled();
        heap.set_prof(prof.clone());
        let mut mem = mem;
        // A rooted 50-node linked list, built before any cycle starts.
        let mut nodes = Vec::new();
        let mut prev = 0u64;
        for _ in 0..50 {
            let n = heap.alloc(&mut mem, 64).unwrap();
            if prev != 0 {
                mem.write(prev, 8, n).unwrap();
            }
            nodes.push(n);
            prev = n;
        }
        let mut roots = RootSet::new();
        roots.add_word(nodes[0]);
        // Churn: every allocation is garbage, every safe point advances
        // the collector by at most one bounded stop.
        for _ in 0..300 {
            heap.alloc_with_roots(&mut mem, 64, &roots).unwrap();
        }
        let s = heap.stats();
        assert!(s.collections_increment_finish >= 1, "cycles finished");
        assert!(
            s.mark_increments > 2 * s.collections_increment_finish,
            "cycles take multiple bounded stops ({} stops over {} cycles)",
            s.mark_increments,
            s.collections_increment_finish
        );
        assert_eq!(
            s.collections_threshold, 0,
            "threshold triggers become cycles, not stop-the-world marks"
        );
        assert!(s.objects_freed > 0, "garbage is reclaimed at finishes");
        for &n in &nodes {
            assert!(heap.is_allocated(n), "the rooted list survives");
        }
        assert_eq!(
            s.collections_threshold
                + s.collections_emergency
                + s.collections_explicit
                + s.collections_increment_finish
                + s.collections_nursery,
            s.collections
        );
        let d = prof.snapshot().expect("prof enabled");
        assert_eq!(
            d.pause_ns.count(),
            s.collections,
            "the pause histogram keeps one entry per finished cycle"
        );
        assert!(
            d.pauses.len() as u64 > s.collections,
            "the MMU timeline sees every bounded stop, not just finishes"
        );
    }

    #[test]
    fn explicit_collect_mid_cycle_finishes_the_cycle() {
        let mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                incremental: true,
                mark_budget_bytes: 16,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        let a = heap.alloc(&mut mem, 8).unwrap();
        let lose = heap.alloc(&mut mem, 8).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(a);
        heap.begin_cycle(&mem, &roots, None);
        assert!(heap.marking_active());
        heap.collect(&mut mem, &roots);
        assert!(!heap.marking_active(), "the demand finished the cycle");
        let s = heap.stats();
        assert_eq!(s.collections, 1, "one cycle, one collection");
        assert_eq!(s.collections_explicit, 1, "under the demanded cause");
        assert!(heap.is_allocated(a));
        assert!(!heap.is_allocated(lose));
    }

    #[test]
    fn nursery_collections_skip_old_pages_and_cards_catch_old_to_young() {
        let mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                nursery: true,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        // An object that survives a full collection is old.
        let old = heap.alloc(&mut mem, 64).unwrap();
        let mut roots = RootSet::new();
        roots.add_word(old);
        heap.collect(&mut mem, &roots);
        assert!(heap.is_allocated(old));
        // Young: one object reachable only through `old`, one garbage.
        let kept = heap.alloc(&mut mem, 8).unwrap();
        let lost = heap.alloc(&mut mem, 8).unwrap();
        mem.write(old, 8, kept).unwrap();
        heap.write_barrier(old, kept);
        // Nursery collection with *no* roots at all: `old` must survive
        // (old pages are implicitly live), `kept` must survive through
        // the remembered-set card, `lost` must go.
        heap.collect_as(&mut mem, &RootSet::new(), CollectCause::Nursery, None);
        let s = heap.stats();
        assert_eq!(s.collections_nursery, 1);
        assert!(heap.is_allocated(old), "old pages float through a nursery");
        assert!(heap.is_allocated(kept), "the card kept the old→young edge");
        assert!(!heap.is_allocated(lost), "young garbage is swept");
        // A full collection with no roots reclaims the old generation.
        heap.collect(&mut mem, &RootSet::new());
        assert!(!heap.is_allocated(old));
        assert!(!heap.is_allocated(kept));
    }

    #[test]
    fn generational_schedule_interleaves_nursery_and_full_collections() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 20);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                nursery: true,
                gc_threshold: 2048,
                ..HeapConfig::default()
            },
        );
        let mut mem = mem;
        for _ in 0..400 {
            heap.alloc_with_roots(&mut mem, 64, &RootSet::new())
                .unwrap();
        }
        let s = heap.stats();
        assert!(s.collections_nursery > 0, "most collections are nursery");
        assert!(
            s.collections_threshold > 0,
            "every fourth collection is a full one"
        );
        assert!(
            s.collections_nursery > s.collections_threshold,
            "nursery collections dominate ({} vs {})",
            s.collections_nursery,
            s.collections_threshold
        );
        assert_eq!(
            s.collections_nursery + s.collections_threshold + s.collections_emergency,
            s.collections
        );
        assert!(s.pages_reclaimed > 0, "nursery sweeps recycle pages");
    }
}

impl GcHeap {
    /// Resolves a candidate pointer word to the base of the allocated
    /// object it references, under the same conservative rules as
    /// [`GcHeap::mark_candidate`] — heap bounds, allocation bits, the
    /// interior-pointer policy (roots always allow interior pointers) —
    /// but strictly read-only: no mark bits are set and no pages are
    /// blacklisted. This is the snapshot walk's edge resolver; keeping it
    /// side-effect free is what lets a snapshot be taken mid-cycle
    /// without perturbing the collection it observes.
    fn resolve_candidate(&self, word: u64, from_root: bool) -> Option<u64> {
        if word < self.heap_base || word >= self.heap_limit {
            return None;
        }
        let idx = ((word - self.heap_base) >> PAGE_SHIFT) as usize;
        let interior_ok = from_root || self.config.policy == PointerPolicy::InteriorEverywhere;
        match self.side[idx] {
            PageKind::Free => None,
            PageKind::Small { obj_size, .. } => {
                let page_start = self.map.page_addr(idx);
                let slot = ((word - page_start) / u64::from(obj_size)) as usize;
                let PageDesc::Small(sp) = self.map.desc(idx) else {
                    unreachable!("side table says small page")
                };
                if slot >= sp.slots() || !sp.alloc_bit(slot) {
                    return None;
                }
                let base = page_start + slot as u64 * u64::from(obj_size);
                if !interior_ok && base != word {
                    return None;
                }
                Some(base)
            }
            PageKind::LargeHead => self.resolve_large(idx, word, interior_ok),
            PageKind::LargeCont { back } => {
                self.resolve_large(idx - back as usize, word, interior_ok)
            }
        }
    }

    /// Read-only counterpart of [`GcHeap::mark_large`].
    fn resolve_large(&self, head: usize, word: u64, interior_ok: bool) -> Option<u64> {
        let head_addr = self.map.page_addr(head);
        let PageDesc::LargeHead {
            size, allocated, ..
        } = self.map.desc(head)
        else {
            unreachable!("side table says large head")
        };
        if !*allocated || word >= head_addr + *size {
            return None;
        }
        if !interior_ok && word != head_addr {
            return None;
        }
        Some(head_addr)
    }

    /// One snapshot node per allocated object — ascending page order,
    /// ascending slot order within a page, so node ids are stable across
    /// identical heaps — plus the interned site table in first-use
    /// order. Edges are left empty; [`GcHeap::snapshot`] fills them.
    ///
    /// The walk enumerates allocation bits exactly the way
    /// [`GcHeap::census`] counts them, so the two views agree at every
    /// observation point, mid-cycle included.
    fn snapshot_skeleton(&self) -> (Vec<gcsnap::Node>, Vec<String>) {
        let mut nodes: Vec<gcsnap::Node> = Vec::new();
        let mut sites: Vec<String> = Vec::new();
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut site_of =
            |obj_sites: &HashMap<u64, u32>, site_names: &[String], addr: u64| -> Option<u32> {
                let &hid = obj_sites.get(&addr)?;
                Some(*remap.entry(hid).or_insert_with(|| {
                    sites.push(site_names[hid as usize].clone());
                    (sites.len() - 1) as u32
                }))
            };
        for idx in 0..self.next_page {
            match self.map.desc(idx) {
                PageDesc::Free | PageDesc::LargeCont(_) => {}
                PageDesc::Small(sp) => {
                    let page_start = self.map.page_addr(idx);
                    let young = self.is_young(idx);
                    for slot in 0..sp.slots() {
                        if !sp.alloc_bit(slot) {
                            continue;
                        }
                        let addr = page_start + slot as u64 * u64::from(sp.obj_size);
                        nodes.push(gcsnap::Node {
                            addr,
                            size: u64::from(sp.obj_size),
                            class: sp.obj_size,
                            large: false,
                            young,
                            marked: sp.mark_bit(slot),
                            site: site_of(&self.obj_sites, &self.site_names, addr),
                            edges: Vec::new(),
                        });
                    }
                }
                PageDesc::LargeHead {
                    size,
                    marked,
                    allocated: true,
                } => {
                    let addr = self.map.page_addr(idx);
                    nodes.push(gcsnap::Node {
                        addr,
                        size: *size,
                        class: 0,
                        large: true,
                        young: self.is_young(idx),
                        marked: *marked,
                        site: site_of(&self.obj_sites, &self.site_names, addr),
                        edges: Vec::new(),
                    });
                }
                PageDesc::LargeHead { .. } => {}
            }
        }
        (nodes, sites)
    }

    /// The heap graph without edges or roots: every allocated object as
    /// an address-ordered snapshot node. This is the walk behind
    /// [`GcHeap::dump`] and the census-agreement property tests.
    pub fn snapshot_nodes(&self) -> gcsnap::Snapshot {
        let (nodes, sites) = self.snapshot_skeleton();
        gcsnap::Snapshot {
            sites,
            nodes,
            roots: Vec::new(),
        }
    }

    /// Takes a deterministic heap-graph snapshot: one node per allocated
    /// object, one edge per in-bounds pointer word (resolved with the
    /// marker's conservative rules, read-only), and one root reference
    /// per resolved root word. `range_labels` names `roots.ranges`
    /// positionally (e.g. `["globals", "stack"]`); precise root words are
    /// labeled `reg`. The snapshot carries no wall-clock data: identical
    /// heaps produce identical snapshots.
    pub fn snapshot(
        &self,
        mem: &Memory,
        roots: &RootSet,
        range_labels: &[&str],
    ) -> gcsnap::Snapshot {
        let (mut nodes, sites) = self.snapshot_skeleton();
        let id_of = |nodes: &[gcsnap::Node], base: u64| -> u32 {
            nodes
                .binary_search_by(|n| n.addr.cmp(&base))
                .expect("resolved base is an enumerated node") as u32
        };
        for i in 0..nodes.len() {
            let (addr, size) = (nodes[i].addr, nodes[i].size);
            let mut edges: Vec<u32> = Vec::new();
            mem.scan_words(addr, addr + size, |w| {
                if let Some(base) = self.resolve_candidate(w, false) {
                    edges.push(id_of(&nodes, base));
                }
            });
            edges.sort_unstable();
            edges.dedup();
            nodes[i].edges = edges;
        }
        let mut rr: Vec<gcsnap::RootRef> = Vec::new();
        for (i, &(start, end)) in roots.ranges.iter().enumerate() {
            let label = range_labels.get(i).copied().unwrap_or("root");
            mem.scan_words(start, end, |w| {
                if let Some(base) = self.resolve_candidate(w, true) {
                    rr.push(gcsnap::RootRef {
                        label: label.to_string(),
                        node: id_of(&nodes, base),
                    });
                }
            });
        }
        for &w in &roots.words {
            if let Some(base) = self.resolve_candidate(w, true) {
                rr.push(gcsnap::RootRef {
                    label: "reg".to_string(),
                    node: id_of(&nodes, base),
                });
            }
        }
        rr.sort_by(|a, b| a.node.cmp(&b.node).then_with(|| a.label.cmp(&b.label)));
        rr.dedup();
        gcsnap::Snapshot {
            sites,
            nodes,
            roots: rr,
        }
    }

    /// Renders a one-line-per-page summary of heap occupancy — a
    /// diagnostic analogous to the Boehm collector's `GC_dump` — from
    /// the snapshot walk: the live counts, byte totals, and per-site
    /// roll-up all come from [`GcHeap::snapshot_nodes`], so this view
    /// cannot drift from what snapshots export.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let snap = self.snapshot_nodes();
        // Per-page object counts from the snapshot walk.
        let mut page_live: HashMap<usize, u64> = HashMap::new();
        for n in &snap.nodes {
            *page_live
                .entry(((n.addr - self.heap_base) >> PAGE_SHIFT) as usize)
                .or_insert(0) += 1;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "heap: {} pages used, {} free-listed, {} blacklisted; {} objects / {} bytes live",
            self.next_page,
            self.free_pages.len(),
            self.bl_count,
            snap.objects(),
            snap.bytes()
        );
        for idx in 0..self.next_page {
            let used = page_live.get(&idx).copied().unwrap_or(0);
            match self.map.desc(idx) {
                PageDesc::Free => {
                    let _ = writeln!(out, "  page {idx:4}: free");
                }
                PageDesc::Small(sp) => {
                    let _ = writeln!(
                        out,
                        "  page {idx:4}: {}-byte objects, {used}/{} slots live",
                        sp.obj_size,
                        sp.slots()
                    );
                }
                PageDesc::LargeHead {
                    size, allocated, ..
                } => {
                    let _ = writeln!(
                        out,
                        "  page {idx:4}: large head, {size} bytes, {}",
                        if *allocated { "live" } else { "free" }
                    );
                }
                PageDesc::LargeCont(back) => {
                    let _ = writeln!(out, "  page {idx:4}: large continuation (-{back})");
                }
            }
        }
        for (i, site) in snap.sites.iter().enumerate() {
            let (objs, bytes) = snap
                .nodes
                .iter()
                .filter(|n| n.site == Some(i as u32))
                .fold((0u64, 0u64), |(o, b), n| (o + 1, b + n.size));
            let _ = writeln!(out, "  site {site}: {objs} objects / {bytes} bytes");
        }
        out
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;

    #[test]
    fn dump_reflects_heap_shape() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 16);
        let mut heap = GcHeap::with_defaults(&mem);
        let mut mem = mem;
        heap.alloc(&mut mem, 24).unwrap();
        heap.alloc(&mut mem, 24).unwrap();
        heap.alloc(&mut mem, 5000).unwrap();
        let d = heap.dump();
        assert!(d.contains("32-byte objects, 2/"), "{d}");
        assert!(d.contains("large head, 8192 bytes, live"), "{d}");
        assert!(d.contains("3 pages used"), "pages counted: {d}");
    }

    /// The drift pin: every number `dump` renders must be re-derivable
    /// from `snapshot_nodes`, and the snapshot walk in turn must agree
    /// with the page descriptors' own live counts — so the textual view,
    /// the snapshot view, and the bitmaps cannot diverge unnoticed.
    #[test]
    fn dump_agrees_with_the_snapshot_walk() {
        let mem = Memory::new(1 << 12, 1 << 12, 1 << 18);
        let mut heap = GcHeap::with_defaults(&mem);
        heap.set_prof(ProfHandle::enabled()); // attribution on: sites stick
        let mut mem = mem;
        let roots = RootSet::new();
        for i in 0..20 {
            let site = if i % 2 == 0 { "even@1:1" } else { "odd@2:2" };
            heap.alloc_with_roots_sited(&mut mem, 40 + (i % 3) * 100, &roots, Some(site))
                .unwrap();
        }
        heap.alloc_with_roots_sited(&mut mem, 5000, &roots, Some("big@3:3"))
            .unwrap();
        let snap = heap.snapshot_nodes();
        let d = heap.dump();
        // Header totals come from the snapshot.
        assert!(
            d.contains(&format!(
                "{} objects / {} bytes live",
                snap.objects(),
                snap.bytes()
            )),
            "{d}"
        );
        // Each small-page line's live count equals both the snapshot's
        // node count for that page and the bitmap's live count.
        for idx in 0..heap.next_page {
            let PageDesc::Small(sp) = heap.map.desc(idx) else {
                continue;
            };
            let page_start = heap.map.page_addr(idx);
            let in_page = snap
                .nodes
                .iter()
                .filter(|n| n.addr >= page_start && n.addr < page_start + PAGE_SIZE)
                .count() as u64;
            assert_eq!(in_page, sp.live_count(), "page {idx}");
            assert!(
                d.contains(&format!(
                    "page {idx:4}: {}-byte objects, {in_page}/{} slots live",
                    sp.obj_size,
                    sp.slots()
                )),
                "page {idx} line missing or drifted: {d}"
            );
        }
        // The per-site roll-up renders every tagged site with the
        // snapshot's own counts.
        for (i, site) in snap.sites.iter().enumerate() {
            let (objs, bytes) = snap
                .nodes
                .iter()
                .filter(|n| n.site == Some(i as u32))
                .fold((0u64, 0u64), |(o, b), n| (o + 1, b + n.size));
            assert!(objs > 0, "site {site} tagged nothing");
            assert!(
                d.contains(&format!("site {site}: {objs} objects / {bytes} bytes")),
                "{d}"
            );
        }
        assert_eq!(snap.sites.len(), 3, "all three sites interned");
    }
}
