//! A worked leak hunt with heap snapshots: a steady sliding-window
//! churn (site `cache_line@7:3`) next to a drip that is never dropped
//! (site `session@21:9`). Two snapshots and one diff later, the leaky
//! site is named with its retained bytes — the churn site shows zero
//! retained growth even though it allocated the whole time.
//!
//! Run with `cargo run --example leakhunt`.

use gcheap::{GcHeap, HeapConfig, Memory, RootSet};

const CHURN: &str = "cache_line@7:3";
const LEAK: &str = "session@21:9";

fn roots(sets: &[&[u64]]) -> RootSet {
    let mut r = RootSet::new();
    for set in sets {
        for &a in *set {
            r.add_word(a);
        }
    }
    r
}

/// Collect, snapshot, and round-trip through the `snap/1` schema —
/// exactly what `tables --snap-dir` exports and `bench snap diff` reads
/// back.
fn snapshot(
    heap: &mut GcHeap,
    mem: &mut Memory,
    label: &str,
    sets: &[&[u64]],
) -> gcsnap::ParsedSnap {
    let r = roots(sets);
    heap.collect(mem, &r);
    let snap = heap.snapshot(mem, &r, &[]);
    let a = gcsnap::analyze(&snap);
    gcsnap::validate(&gcsnap::to_json(label, &snap, &a)).expect("export validates")
}

fn main() {
    let mut mem = Memory::new(1 << 16, 1 << 16, 8 << 20);
    let mut heap = GcHeap::new(&mem, HeapConfig::bounded_pause());
    heap.set_snap_sites(true);
    let mut window: Vec<u64> = Vec::new();
    let mut sessions: Vec<u64> = Vec::new();

    // Phase 1: warm the steady state, then freeze the "begin" picture.
    for _ in 0..64 {
        let r = roots(&[&window, &sessions]);
        let a = heap
            .alloc_with_roots_sited(&mut mem, 48, &r, Some(CHURN))
            .expect("alloc");
        window.push(a);
        if window.len() > 32 {
            window.remove(0);
        }
    }
    let begin = snapshot(&mut heap, &mut mem, "begin", &[&window, &sessions]);

    // Phase 2: the same churn — plus one 64-byte "session" per tick that
    // nothing ever drops.
    for _ in 0..256 {
        let r = roots(&[&window, &sessions]);
        let a = heap
            .alloc_with_roots_sited(&mut mem, 48, &r, Some(CHURN))
            .expect("alloc");
        window.push(a);
        if window.len() > 32 {
            window.remove(0);
        }
        let r = roots(&[&window, &sessions]);
        let s = heap
            .alloc_with_roots_sited(&mut mem, 64, &r, Some(LEAK))
            .expect("alloc");
        sessions.push(s);
    }
    let end = snapshot(&mut heap, &mut mem, "end", &[&window, &sessions]);

    let d = gcsnap::diff::diff(&begin, &end);
    print!("{}", gcsnap::diff::render_table(&d, "begin", "end"));
    let top = d.top_growth().expect("growth exists");
    println!();
    println!(
        "verdict: site {} retains {:+} bytes more at the end — that is the leak.",
        top.site,
        top.retained_delta()
    );
}
