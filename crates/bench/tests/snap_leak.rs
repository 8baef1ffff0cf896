//! The leak-diff acceptance story: a deliberately leaky micro schedule
//! driven straight against [`gcheap::GcHeap`] (no VM in the loop), with
//! `begin`/`end` snapshots routed through the `snap/1` schema exactly
//! like `tables --snap-dir` writes them and `bench snap diff` reads them
//! back. The diff must name the leaking allocation site, with retained
//! bytes, as the top growth row — and the steady-churn site must not be
//! blamed.

use gcheap::{GcHeap, HeapConfig, Memory, RootSet};

const STEADY: &str = "steady@7:3";
const LEAK: &str = "leak@21:9";

fn roots(live: &[Vec<u64>]) -> RootSet {
    let mut r = RootSet::new();
    for set in live {
        for &a in set {
            r.add_word(a);
        }
    }
    r
}

/// Collects and snapshots — the stable points a leak hunt compares
/// (mid-cycle floating garbage would only add noise to the begin/end
/// delta).
fn snapshot_at(heap: &mut GcHeap, mem: &mut Memory, live: &[Vec<u64>]) -> gcsnap::ParsedSnap {
    let r = roots(live);
    heap.collect(mem, &r);
    let snap = heap.snapshot(mem, &r, &[]);
    let a = gcsnap::analyze(&snap);
    gcsnap::validate(&gcsnap::to_json("t", &snap, &a)).expect("export validates")
}

#[test]
fn leak_diff_names_the_leaking_site_with_retained_bytes() {
    let mut mem = Memory::new(1 << 16, 1 << 16, 8 << 20);
    let mut heap = GcHeap::new(&mem, HeapConfig::bounded_pause());
    heap.set_snap_sites(true);
    let mut steady: Vec<u64> = Vec::new();
    let mut leaked: Vec<u64> = Vec::new();

    let churn = |heap: &mut GcHeap, mem: &mut Memory, steady: &mut Vec<u64>, leaked: &[u64]| {
        let r = roots(&[steady.clone(), leaked.to_vec()]);
        let a = heap
            .alloc_with_roots_sited(mem, 48, &r, Some(STEADY))
            .expect("steady alloc");
        steady.push(a);
        if steady.len() > 32 {
            steady.remove(0);
        }
    };

    // Warm the steady state up to its sliding window, then freeze the
    // "begin" picture.
    for _ in 0..64 {
        churn(&mut heap, &mut mem, &mut steady, &leaked);
    }
    let begin = snapshot_at(&mut heap, &mut mem, &[steady.clone(), leaked.clone()]);

    // The leaky phase: the same steady churn, plus a site whose objects
    // are never dropped from the root set.
    for _ in 0..256 {
        churn(&mut heap, &mut mem, &mut steady, &leaked);
        let r = roots(&[steady.clone(), leaked.clone()]);
        let l = heap
            .alloc_with_roots_sited(&mut mem, 64, &r, Some(LEAK))
            .expect("leak alloc");
        leaked.push(l);
    }
    let end = snapshot_at(&mut heap, &mut mem, &[steady.clone(), leaked.clone()]);

    let d = gcsnap::diff::diff(&begin, &end);
    let top = d
        .top_growth()
        .expect("the leak shows up as retained growth");
    assert_eq!(top.site, LEAK, "the leaking site is named");
    assert!(
        top.retained_delta() >= 256 * 64,
        "all 256 leaked objects are retained: {}",
        top.retained_delta()
    );
    assert!(d.over_budget(0), "reachable growth trips a zero budget");
    let steady_row = d
        .rows
        .iter()
        .find(|r| r.site == STEADY)
        .expect("steady site is present");
    assert_eq!(
        steady_row.retained_delta(),
        0,
        "the steady churn is not blamed"
    );

    // The rendered table (what `bench snap diff` prints) carries the
    // same attribution.
    let table = gcsnap::diff::render_table(&d, "begin", "end");
    assert!(table.contains(LEAK), "{table}");
    assert!(
        table.contains(&format!("+{}", top.retained_delta())),
        "{table}"
    );
}
