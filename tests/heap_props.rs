//! Property tests for the conservative collector: against a Rust-side
//! shadow object graph, a collection must keep exactly the shadow-
//! reachable objects (conservatism can only over-retain via ambiguous
//! roots, which this harness avoids by using precise root words).
//! Cases come from the deterministic PRNG in `common`.

mod common;

use common::Rng;
use gcheap::{GcHeap, HeapConfig, Memory, PointerPolicy, RootSet};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object of the given size, rooted.
    Alloc(u16),
    /// Drop the root of object #i (modulo population).
    Unroot(u8),
    /// Store a pointer to object #b into a word of object #a.
    Link(u8, u8),
    /// Clear the first pointer word of object #a.
    Unlink(u8),
    /// Run a collection.
    Collect,
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.index(5) {
        0 => Op::Alloc(8 + rng.below(592) as u16),
        1 => Op::Unroot(rng.next_u8()),
        2 => Op::Link(rng.next_u8(), rng.next_u8()),
        3 => Op::Unlink(rng.next_u8()),
        _ => Op::Collect,
    }
}

fn gen_ops(rng: &mut Rng, max_len: usize) -> Vec<Op> {
    let len = 1 + rng.index(max_len - 1);
    (0..len).map(|_| gen_op(rng)).collect()
}

/// Mostly allocation and linking with a rare explicit collect, so the
/// heap's own safe points drive most collections.
fn gen_churn_ops(rng: &mut Rng, max_len: usize) -> Vec<Op> {
    let len = 1 + rng.index(max_len - 1);
    (0..len)
        .map(|_| match rng.index(20) {
            0 => Op::Collect,
            1..=4 => Op::Unroot(rng.next_u8()),
            5..=9 => Op::Link(rng.next_u8(), rng.next_u8()),
            10..=11 => Op::Unlink(rng.next_u8()),
            _ => Op::Alloc(8 + rng.below(592) as u16),
        })
        .collect()
}

#[derive(Debug, Default)]
struct Shadow {
    /// All ever-allocated objects: address → outgoing links (slot → target).
    objects: HashMap<u64, HashMap<u64, u64>>,
    rooted: Vec<u64>,
}

impl Shadow {
    fn reachable(&self) -> HashSet<u64> {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut work: Vec<u64> = self.rooted.clone();
        while let Some(a) = work.pop() {
            if !seen.insert(a) {
                continue;
            }
            if let Some(links) = self.objects.get(&a) {
                for &t in links.values() {
                    work.push(t);
                }
            }
        }
        seen
    }
}

/// Whether a live object is still *based* at `addr`. The shadow graph is
/// keyed by object base, and page reclamation lets a freed page be
/// re-carved for another size class — an old base can come back as an
/// interior address of a new object, where `is_allocated` (a containment
/// query) would report true for the wrong object.
fn is_live_base(heap: &GcHeap, addr: u64) -> bool {
    heap.base(addr) == Some(addr)
}

impl Shadow {
    /// Forgets every object the heap no longer holds at its base, and
    /// every link into one. Only unreachable objects may be dead — the
    /// per-op check runs first.
    fn prune_dead(&mut self, heap: &GcHeap) {
        let dead: Vec<u64> = self
            .objects
            .keys()
            .copied()
            .filter(|&o| !is_live_base(heap, o))
            .collect();
        for d in dead {
            self.forget(d);
        }
    }

    fn forget(&mut self, d: u64) {
        self.objects.remove(&d);
        self.rooted.retain(|&r| r != d);
        for links in self.objects.values_mut() {
            links.retain(|_, &mut t| t != d);
        }
    }

    /// The reachable objects in address order — the only objects a
    /// mutator can name, so the only ones ops may store into or link to.
    fn reachable_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.reachable().into_iter().collect();
        v.sort();
        v
    }
}

/// Runs `ops` against a heap with `config`, checking the collector
/// against the shadow graph: after every op no shadow-reachable object
/// may have been freed, and after an explicit collection exactly the
/// reachable objects survive. Allocation goes through the safe point
/// (`alloc_with_roots`), so a config with a finite threshold collects
/// on its own — stop-the-world, nursery, or incremental — and link
/// stores are reported to the write barrier whenever it is active.
fn run_ops(ops: &[Op], config: &HeapConfig) {
    let mut mem = Memory::new(1 << 14, 1 << 14, 1 << 22);
    let mut heap = GcHeap::new(&mem, config.clone());
    let mut shadow = Shadow::default();
    let roots_of = |shadow: &Shadow| {
        let mut roots = RootSet::new();
        for &r in &shadow.rooted {
            roots.add_word(r);
        }
        roots
    };
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Alloc(size) => {
                let before = shadow.reachable();
                if let Ok(addr) = heap.alloc_with_roots(&mut mem, *size as u64, &roots_of(&shadow))
                {
                    // A base handed out again was freed on the way in.
                    assert!(
                        !before.contains(&addr),
                        "op {i}: reachable object {addr:#x} was freed and its base reused"
                    );
                    shadow.forget(addr);
                    shadow.objects.insert(addr, HashMap::new());
                    shadow.rooted.push(addr);
                }
            }
            Op::Unroot(i) => {
                if !shadow.rooted.is_empty() {
                    let idx = *i as usize % shadow.rooted.len();
                    shadow.rooted.swap_remove(idx);
                }
            }
            Op::Link(a, b) => {
                let live = shadow.reachable_sorted();
                if live.len() >= 2 {
                    let src = live[*a as usize % live.len()];
                    let dst = live[*b as usize % live.len()];
                    // Store the pointer at the first word (base-aligned so
                    // both pointer policies see it).
                    mem.write(src, 8, dst).expect("object memory is mapped");
                    if heap.barrier_active() {
                        heap.write_barrier(src, dst);
                    }
                    shadow.objects.get_mut(&src).expect("known").insert(0, dst);
                }
            }
            Op::Unlink(a) => {
                let live = shadow.reachable_sorted();
                if !live.is_empty() {
                    let src = live[*a as usize % live.len()];
                    mem.write(src, 8, 0).expect("mapped");
                    shadow.objects.get_mut(&src).expect("known").remove(&0);
                }
            }
            Op::Collect => {
                let roots = roots_of(&shadow);
                heap.collect(&mut mem, &roots);
                if config.incremental {
                    // The first collect may only have finished a cycle
                    // already in flight, whose allocate-black survivors
                    // and floating garbage it legitimately retains.
                    heap.collect(&mut mem, &roots);
                }
                let reachable = shadow.reachable();
                for &obj in shadow.objects.keys() {
                    let alive = is_live_base(&heap, obj);
                    if reachable.contains(&obj) {
                        assert!(alive, "op {i}: reachable object {obj:#x} was collected");
                    } else {
                        assert!(!alive, "op {i}: unreachable object {obj:#x} survived");
                    }
                }
            }
        }
        for obj in shadow.reachable() {
            assert!(
                is_live_base(&heap, obj),
                "op {i} ({op:?}): reachable object {obj:#x} was freed"
            );
        }
        shadow.prune_dead(&heap);
    }
}

fn stop_the_world(policy: PointerPolicy) -> HeapConfig {
    HeapConfig {
        policy,
        gc_threshold: u64::MAX,
        ..HeapConfig::default()
    }
}

#[test]
fn collection_matches_shadow_reachability() {
    let config = stop_the_world(PointerPolicy::InteriorEverywhere);
    for case in 0..64 {
        let mut rng = Rng::for_case("shadow_reachability", case);
        let ops = gen_ops(&mut rng, 80);
        run_ops(&ops, &config);
    }
}

#[test]
fn base_only_policy_matches_when_links_are_bases() {
    // All shadow links store base pointers, so the Extensions-section
    // policy must agree with shadow reachability too.
    let config = stop_the_world(PointerPolicy::InteriorFromRootsOnly);
    for case in 0..64 {
        let mut rng = Rng::for_case("base_only_policy", case);
        let ops = gen_ops(&mut rng, 80);
        run_ops(&ops, &config);
    }
}

/// The same shadow check on the bounded-pause collector, with a
/// threshold and budgets small enough that the ops' own allocations
/// trigger nursery collections and incremental cycles whose marking and
/// sweeping span several ops — so heap links meet the nursery's card
/// scan and the incremental store barrier, not just explicit collects.
#[test]
fn bounded_pause_collection_matches_shadow_reachability() {
    let config = HeapConfig {
        gc_threshold: 1024,
        mark_budget_bytes: 128,
        sweep_chunk_pages: 1,
        ..HeapConfig::bounded_pause()
    };
    for case in 0..128 {
        let mut rng = Rng::for_case("bounded_pause_reachability", case);
        let ops = gen_churn_ops(&mut rng, 240);
        run_ops(&ops, &config);
    }
}

/// A size-class phase shift must never OOM a heap whose objects are all
/// dead: fill the heap with one size class, drop every root, collect,
/// then refill with a *different* class. The refill must reach exactly
/// the capacity a fresh heap offers that class. Before sweeps returned
/// fully-empty small pages to the page pool, the second phase found
/// every page still dedicated to the first class and stopped early.
#[test]
fn page_reclamation_survives_size_class_phase_shifts() {
    let fill = |mem: &mut Memory, heap: &mut GcHeap, size: u64| -> u64 {
        let mut n = 0;
        while heap.alloc(mem, size).is_ok() {
            n += 1;
        }
        n
    };
    let config = HeapConfig {
        gc_threshold: u64::MAX, // no automatic collections
        ..HeapConfig::default()
    };
    for case in 0..32 {
        let mut rng = Rng::for_case("page_reclamation", case);
        // Two sizes far enough apart to land in different size classes.
        let class_a = 8 + rng.below(592);
        let class_b = loop {
            let c = 8 + rng.below(592);
            if c.abs_diff(class_a) > 128 {
                break c;
            }
        };
        // Baseline: how many class-B objects a fresh heap holds.
        let mut mem = Memory::new(1 << 12, 1 << 12, 1 << 16);
        let mut heap = GcHeap::new(&mem, config.clone());
        let fresh_capacity = fill(&mut mem, &mut heap, class_b);
        assert!(fresh_capacity > 0, "case {case}: heap holds nothing");

        // Phase shift: exhaust with class A (unrooted), collect, refill
        // with class B.
        let mut mem = Memory::new(1 << 12, 1 << 12, 1 << 16);
        let mut heap = GcHeap::new(&mem, config.clone());
        let phase_a = fill(&mut mem, &mut heap, class_a);
        assert!(phase_a > 0, "case {case}: phase A allocated nothing");
        heap.collect(&mut mem, &RootSet::new());
        assert!(
            heap.stats().pages_reclaimed > 0,
            "case {case}: empty pages were not reclaimed"
        );
        let phase_b = fill(&mut mem, &mut heap, class_b);
        assert_eq!(
            phase_b, fresh_capacity,
            "case {case}: after {phase_a} dead {class_a}B objects, the \
             reclaimed heap holds fewer {class_b}B objects than a fresh one"
        );
    }
}

/// Histogram bucket placement against an independently computed shadow:
/// every sample lands in exactly the `floor(log2)+1` bucket, bucket
/// counts always sum to the sample count, and sum/min/max track exactly.
#[test]
fn histogram_buckets_partition_the_samples() {
    use gcprof::Histogram;
    for case in 0..64 {
        let mut rng = Rng::for_case("histogram_invariants", case);
        let mut h = Histogram::new();
        let mut shadow = [0u64; gcprof::hist::BUCKETS];
        let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
        let n = 1 + rng.below(200);
        for _ in 0..n {
            // Spread samples across the full bucket range without
            // overflowing the sum accumulator.
            let v = rng.next_u64() >> (8 + rng.index(56));
            h.record(v);
            shadow[if v == 0 {
                0
            } else {
                64 - v.leading_zeros() as usize
            }] += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        assert_eq!(h.count(), n, "case {case}");
        assert_eq!(h.counts().iter().sum::<u64>(), n, "case {case}");
        assert_eq!(h.counts(), &shadow, "case {case}");
        assert_eq!(h.sum(), sum, "case {case}");
        assert_eq!(h.min(), min, "case {case}");
        assert_eq!(h.max(), max, "case {case}");
        // Every occupied bucket's bound covers its samples' range.
        for (i, _) in h.nonzero() {
            assert!(Histogram::bucket_bound(i) >= min, "case {case} bucket {i}");
        }
    }
}

/// The census occupancy-decile bucketing as a law rather than a few
/// spot values: deciles partition `[0, slots]`, are monotone in the live
/// count, clamp full (and corrupt, `live > slots`) pages into decile 9,
/// and — the zero-slot guard at `HeapCensus::occupancy_decile` — a page
/// reporting zero slots lands in decile 0 instead of dividing by zero.
#[test]
fn occupancy_deciles_partition_and_survive_zero_slots() {
    use gcprof::HeapCensus;
    for case in 0..64 {
        let mut rng = Rng::for_case("occupancy_deciles", case);
        for _ in 0..256 {
            let slots = rng.below(513);
            let live = rng.below(slots + 2); // occasionally exceeds slots
            let d = HeapCensus::occupancy_decile(live, slots);
            assert!(d < 10, "case {case}: decile {d} out of range");
            if slots == 0 {
                assert_eq!(d, 0, "case {case}: zero-slot page must bucket to 0");
                continue;
            }
            // The decile's lower boundary really is below this page's
            // occupancy, and (unless clamped) the next boundary above it.
            assert!(
                10 * live >= d as u64 * slots,
                "case {case}: live={live}/{slots} under decile {d}"
            );
            if d < 9 {
                assert!(
                    10 * live < (d as u64 + 1) * slots,
                    "case {case}: live={live}/{slots} over decile {d}"
                );
            }
            if live >= slots {
                assert_eq!(d, 9, "case {case}: full page must clamp to 9");
            }
            // Monotone: one more live slot never lowers the decile.
            assert!(
                HeapCensus::occupancy_decile(live + 1, slots) >= d,
                "case {case}: decile not monotone at live={live}/{slots}"
            );
        }
    }
}

/// The gcprof invariants the fuzzer's oracle also enforces, here driven
/// directly against the heap by the op machine: the size histogram counts
/// exactly the successful allocations, the pause timeline counts exactly
/// the collections, and the census agrees with the heap's statistics.
#[test]
fn prof_instrumentation_matches_heap_statistics() {
    for case in 0..32 {
        let mut rng = Rng::for_case("prof_consistency", case);
        let ops = gen_ops(&mut rng, 80);
        let mut mem = Memory::new(1 << 14, 1 << 14, 1 << 22);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: u64::MAX,
                ..HeapConfig::default()
            },
        );
        let prof = gcprof::ProfHandle::enabled();
        heap.set_prof(prof.clone());
        let mut rooted: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(addr) = heap.alloc(&mut mem, *size as u64) {
                        rooted.push(addr);
                    }
                }
                Op::Unroot(i) => {
                    if !rooted.is_empty() {
                        let idx = *i as usize % rooted.len();
                        rooted.swap_remove(idx);
                    }
                }
                Op::Collect => {
                    let mut roots = RootSet::new();
                    for &r in &rooted {
                        roots.add_word(r);
                    }
                    heap.collect(&mut mem, &roots);
                }
                // Pointer stores don't touch the profiler.
                Op::Link(..) | Op::Unlink(..) => {}
            }
        }
        let data = prof.snapshot().expect("enabled handle snapshots");
        let stats = heap.stats();
        assert_eq!(data.alloc_size.count(), stats.allocations, "case {case}");
        assert_eq!(data.alloc_size.sum(), stats.bytes_requested, "case {case}");
        assert_eq!(data.collections, stats.collections, "case {case}");
        assert_eq!(data.pause_ns.count(), stats.collections, "case {case}");
        assert_eq!(data.mark_ns.count(), stats.collections, "case {case}");
        assert_eq!(data.sweep_ns.count(), stats.collections, "case {case}");
        assert_eq!(
            data.sweep_freed_bytes.count(),
            stats.collections,
            "case {case}"
        );
        assert_eq!(data.pauses.len() as u64, stats.collections, "case {case}");
        for h in [&data.alloc_size, &data.pause_ns, &data.sweep_freed_bytes] {
            assert_eq!(h.counts().iter().sum::<u64>(), h.count(), "case {case}");
        }
        let census = heap.census();
        assert_eq!(census.live_objects, stats.objects_live, "case {case}");
        assert_eq!(census.live_bytes, stats.bytes_live, "case {case}");
        let class_objects: u64 = census.classes.iter().map(|c| c.live_objects).sum();
        assert_eq!(
            class_objects + census.large_objects,
            census.live_objects,
            "case {case}"
        );
    }
}

/// The bitmap heap against a `Vec<bool>` reference model. The shadow
/// keeps one bool per slot of every small page the heap has carved,
/// mirroring what the page's alloc bitmap must say; large objects are
/// tracked by extent. Randomized alloc/unroot/collect sequences then
/// check, at every step:
///
/// * a fresh allocation lands in a slot the shadow says is free, and no
///   *lower* slot of the serving page is free — the cursor and the
///   queued swept pages both hand out the lowest free slot, so reuse is
///   address-ordered within a page;
/// * after every collection the heap's bitmaps agree with the shadow
///   bit-for-bit, probed through `base()` (Some exactly on live slots);
/// * census and `HeapStats` agree with the model exactly — per class
///   and in total — while swept pages with free slots wait on their
///   queues, since collections fold bitmaps and counts eagerly and only
///   free-slot *discovery* waits for allocation;
/// * the whole address sequence replays byte-identically.
#[test]
fn bitmap_heap_matches_boolean_reference_model() {
    use gcheap::{HEAP_BASE, PAGE_SIZE, SIZE_CLASSES};
    let max_small = u64::from(*SIZE_CLASSES.last().expect("classes"));
    let page_of = |addr: u64| HEAP_BASE + (addr - HEAP_BASE) / PAGE_SIZE * PAGE_SIZE;

    #[derive(Default)]
    struct Model {
        /// page start → (slot size, one bool per slot: the alloc bitmap).
        pages: HashMap<u64, (u64, Vec<bool>)>,
        /// large object base → page-rounded extent.
        large: HashMap<u64, u64>,
        allocations: u64,
        freed: u64,
    }

    impl Model {
        fn live_objects(&self) -> u64 {
            let small: usize = self
                .pages
                .values()
                .map(|(_, bits)| bits.iter().filter(|b| **b).count())
                .sum();
            small as u64 + self.large.len() as u64
        }
        fn live_bytes(&self) -> u64 {
            let small: u64 = self
                .pages
                .values()
                .map(|(sz, bits)| sz * bits.iter().filter(|b| **b).count() as u64)
                .sum();
            small + self.large.values().sum::<u64>()
        }
    }

    let run = |ops: &[Op]| -> Vec<u64> {
        let mut mem = Memory::new(1 << 14, 1 << 14, 1 << 21);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: u64::MAX,
                ..HeapConfig::default()
            },
        );
        let mut model = Model::default();
        let mut rooted: Vec<u64> = Vec::new();
        let mut trace: Vec<u64> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Alloc(size) => {
                    let Ok(addr) = heap.alloc(&mut mem, u64::from(*size)) else {
                        continue;
                    };
                    trace.push(addr);
                    model.allocations += 1;
                    rooted.push(addr);
                    let (base, extent) = heap.extent(addr).expect("just allocated");
                    assert_eq!(base, addr, "step {step}: allocation is not a base");
                    if extent <= max_small {
                        let page = page_of(addr);
                        let (sz, bits) = model.pages.entry(page).or_insert_with(|| {
                            (extent, vec![false; (PAGE_SIZE / extent) as usize])
                        });
                        assert_eq!(*sz, extent, "step {step}: page class changed under us");
                        let slot = ((addr - page) / extent) as usize;
                        assert!(!bits[slot], "step {step}: served slot {slot} was occupied");
                        assert!(
                            bits[..slot].iter().all(|b| *b),
                            "step {step}: slot {slot} served while a lower slot is free"
                        );
                        bits[slot] = true;
                    } else {
                        model.large.insert(addr, extent);
                    }
                }
                Op::Unroot(i) => {
                    if !rooted.is_empty() {
                        let idx = *i as usize % rooted.len();
                        rooted.swap_remove(idx);
                    }
                }
                // Links don't exercise the bitmaps; the op stays in the
                // draw so each case's schedule is unchanged.
                Op::Link(..) | Op::Unlink(..) => {}
                Op::Collect => {
                    let keep: HashSet<u64> = rooted.iter().copied().collect();
                    let mut roots = RootSet::new();
                    for &r in &rooted {
                        roots.add_word(r);
                    }
                    heap.collect(&mut mem, &roots);
                    for (page, (sz, bits)) in &mut model.pages {
                        for (slot, bit) in bits.iter_mut().enumerate() {
                            if *bit && !keep.contains(&(page + slot as u64 * *sz)) {
                                *bit = false;
                                model.freed += 1;
                            }
                        }
                    }
                    let dead: Vec<u64> = model
                        .large
                        .keys()
                        .copied()
                        .filter(|a| !keep.contains(a))
                        .collect();
                    model.freed += dead.len() as u64;
                    for a in dead {
                        model.large.remove(&a);
                    }
                    // Fully empty pages are reclaimed by the sweep and may
                    // be re-carved for another class; forget them.
                    model.pages.retain(|_, (_, bits)| bits.iter().any(|b| *b));
                    // Bit-for-bit bitmap agreement, probed through base():
                    // a live slot resolves to its own base, a dead slot
                    // resolves to nothing.
                    for (page, (sz, bits)) in &model.pages {
                        for (slot, bit) in bits.iter().enumerate() {
                            let addr = page + slot as u64 * sz;
                            let want = if *bit { Some(addr) } else { None };
                            assert_eq!(
                                heap.base(addr + sz / 2),
                                want,
                                "step {step}: bitmap disagrees at {addr:#x} slot {slot}"
                            );
                        }
                    }
                    // Census and stats agree with the model exactly, with
                    // or without pages queued for reuse.
                    let stats = heap.stats();
                    let census = heap.census();
                    assert_eq!(stats.allocations, model.allocations, "step {step}");
                    assert_eq!(stats.objects_freed, model.freed, "step {step}");
                    assert_eq!(stats.objects_live, model.live_objects(), "step {step}");
                    assert_eq!(stats.bytes_live, model.live_bytes(), "step {step}");
                    assert_eq!(census.live_objects, stats.objects_live, "step {step}");
                    assert_eq!(census.live_bytes, stats.bytes_live, "step {step}");
                    for c in &census.classes {
                        let (want_objs, want_pages) =
                            model
                                .pages
                                .values()
                                .fold((0u64, 0u64), |(o, p), (sz, bits)| {
                                    if *sz == u64::from(c.obj_size) {
                                        (o + bits.iter().filter(|b| **b).count() as u64, p + 1)
                                    } else {
                                        (o, p)
                                    }
                                });
                        assert_eq!(
                            c.live_objects, want_objs,
                            "step {step} class {}",
                            c.obj_size
                        );
                        assert_eq!(c.pages, want_pages, "step {step} class {}", c.obj_size);
                    }
                    assert_eq!(
                        census.large_objects,
                        model.large.len() as u64,
                        "step {step}"
                    );
                }
            }
        }
        trace
    };

    for case in 0..48 {
        let mut rng = Rng::for_case("bitmap_reference_model", case);
        let ops: Vec<Op> = (0..1 + rng.index(119))
            .map(|_| match rng.index(8) {
                // Weight toward allocation so pages fill, with an
                // occasional large object crossing the page boundary.
                0..=2 => Op::Alloc(8 + rng.below(592) as u16),
                3 => Op::Alloc(2048 + rng.below(8192) as u16),
                4 => Op::Unroot(rng.next_u8()),
                5 => Op::Link(rng.next_u8(), rng.next_u8()),
                _ => Op::Collect,
            })
            .collect();
        let first = run(&ops);
        let second = run(&ops);
        assert_eq!(
            first, second,
            "case {case}: address sequence not deterministic"
        );
    }
}

#[test]
fn base_resolves_everywhere_inside_and_only_inside() {
    for case in 0..96 {
        let mut rng = Rng::for_case("base_resolution", case);
        let size = 1 + rng.below(899) as u16;
        let probe = rng.below(1200) as u16;
        let mut mem = Memory::new(1 << 14, 1 << 14, 1 << 22);
        let mut heap = GcHeap::with_defaults(&mem);
        let addr = heap.alloc(&mut mem, size as u64).expect("fits");
        let (base, extent) = heap.extent(addr).expect("allocated");
        assert_eq!(base, addr);
        // Requested size + 1 extra byte always fit inside the extent.
        assert!(extent > size as u64);
        let p = addr + probe as u64;
        if (probe as u64) < extent {
            assert_eq!(heap.base(p), Some(addr), "size {size}, probe {probe}");
        }
    }
}

#[test]
fn same_obj_is_an_equivalence_within_an_object() {
    for case in 0..96 {
        let mut rng = Rng::for_case("same_obj_equivalence", case);
        let size = 8 + rng.below(492) as u16;
        let a = rng.below(500) as u16;
        let b = rng.below(500) as u16;
        let mut mem = Memory::new(1 << 14, 1 << 14, 1 << 22);
        let mut heap = GcHeap::with_defaults(&mem);
        let addr = heap.alloc(&mut mem, size as u64).expect("fits");
        let (_, extent) = heap.extent(addr).expect("allocated");
        let pa = addr + (a as u64) % extent;
        let pb = addr + (b as u64) % extent;
        assert!(heap.same_obj(pa, pa), "reflexive");
        assert!(heap.same_obj(pa, pb), "interior pointers of one object");
        assert!(heap.same_obj(pb, pa), "symmetric");
    }
}

/// The snapshot walk and the census walk must agree exactly: both
/// enumerate the same allocation bits, so per-class object/byte totals
/// (and the large-object and grand totals) match at *every* observation
/// point — not just at quiescence, but in the middle of an incremental
/// mark cycle.
fn assert_snapshot_matches_census(heap: &GcHeap, when: &str) {
    let census = heap.census();
    let snap = heap.snapshot_nodes();
    let mut by_class: HashMap<u32, (u64, u64)> = HashMap::new();
    let mut large = (0u64, 0u64);
    for n in &snap.nodes {
        if n.large {
            large.0 += 1;
            large.1 += n.size;
        } else {
            let e = by_class.entry(n.class).or_insert((0, 0));
            e.0 += 1;
            e.1 += n.size;
        }
    }
    assert_eq!(census.live_objects, snap.objects(), "total objects {when}");
    assert_eq!(census.live_bytes, snap.bytes(), "total bytes {when}");
    assert_eq!(census.large_objects, large.0, "large objects {when}");
    assert_eq!(census.large_bytes, large.1, "large bytes {when}");
    for c in &census.classes {
        let (objects, bytes) = by_class.remove(&c.obj_size).unwrap_or((0, 0));
        assert_eq!(
            c.live_objects, objects,
            "class {} objects {when}",
            c.obj_size
        );
        assert_eq!(c.live_bytes, bytes, "class {} bytes {when}", c.obj_size);
    }
    assert!(
        by_class.is_empty(),
        "snapshot has classes the census omits {when}: {by_class:?}"
    );
}

#[test]
fn snapshot_totals_agree_with_census_at_every_observation_point() {
    // Interesting observation points only arise under the incremental
    // config: a tiny threshold and mark budget make collections start
    // (and *not* finish) inside ordinary allocation. Count that state to
    // prove the schedule actually exercised it.
    let mut saw_marking = 0u32;
    for case in 0..24 {
        let mut rng = Rng::for_case("snapshot_census", case);
        let mut mem = Memory::new(1 << 14, 1 << 14, 1 << 22);
        let mut heap = GcHeap::new(
            &mem,
            HeapConfig {
                gc_threshold: 2048,
                mark_budget_bytes: 256,
                ..HeapConfig::bounded_pause()
            },
        );
        heap.set_snap_sites(true);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..200 {
            let size = match rng.index(8) {
                // An occasional large object so the large side of the
                // census is exercised too.
                0 => 4096 + rng.below(8192),
                _ => 8 + rng.below(592),
            };
            let mut roots = RootSet::new();
            for &a in &live {
                roots.add_word(a);
            }
            let addr = heap
                .alloc_with_roots_sited(&mut mem, size, &roots, Some("prop@1:1"))
                .expect("schedule fits the heap");
            live.push(addr);
            // A sliding window of survivors: unrooted objects become
            // garbage that the next collection frees.
            if live.len() > 24 {
                live.remove(rng.index(live.len()));
            }
            if heap.marking_active() {
                saw_marking += 1;
            }
            assert_snapshot_matches_census(&heap, &format!("case {case} step {step}"));
        }
        // And at the stable points a profiler would export from.
        let mut roots = RootSet::new();
        for &a in &live {
            roots.add_word(a);
        }
        heap.collect(&mut mem, &roots);
        assert_snapshot_matches_census(&heap, &format!("case {case} post-collect"));
    }
    assert!(saw_marking > 0, "schedule never observed a mid-mark cycle");
}
