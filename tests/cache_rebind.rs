//! The compilation cache's re-binding contract at the facade level: two
//! formattings of the same program share one memoized compile, yet the
//! gcprof exports — folded allocation stacks and the pause log's
//! `max_pause_site` attribution — report each formatting's own source
//! coordinates. This is the bug-class the cache's unconditional re-bind
//! exists to prevent: profiles stamped with the donor program's line
//! numbers.

use gc_safety::{cache_stats, measure_source_with, Instruments, Mode, ProfHandle};

/// Only profiling, into `prof`.
fn profiled(prof: &ProfHandle) -> Instruments {
    Instruments {
        prof: prof.clone(),
        ..Instruments::default()
    }
}

/// 1-based (line, col) of the first occurrence of `needle` in `src`.
fn pos_of(src: &str, needle: &str) -> (usize, usize) {
    let off = src.find(needle).expect("needle present");
    let line = src[..off].matches('\n').count() + 1;
    let col = off - src[..off].rfind('\n').map_or(0, |i| i + 1) + 1;
    (line, col)
}

// Enough garbage to cross the 256 KiB collection threshold several
// times, so the pause log is populated and max_pause_site meaningful.
const SRC_A: &str = "int main(void) {\n    long i;\n    for (i = 0; i < 20000; i = i + 1) {\n        char *p = (char *) malloc(64);\n        p[0] = (char) i;\n    }\n    return 0;\n}\n";
const SRC_B: &str = "/* same program, reflowed: the churn site moves */\nint main(void)\n{\n        long i;\n        for (i = 0; i < 20000; i = i + 1)\n        {\n                char *p = (char *) malloc(64);\n                p[0] = (char) i;\n        }\n        return 0;\n}\n";

#[test]
fn shared_cache_entries_still_profile_under_each_formattings_labels() {
    let pa = cfront::parse(SRC_A).unwrap();
    let pb = cfront::parse(SRC_B).unwrap();
    assert_eq!(
        cfront::program_hash(&pa),
        cfront::program_hash(&pb),
        "the two formattings must be hash-equal for the cache to share"
    );
    let (la, ca) = pos_of(SRC_A, "malloc");
    let (lb, cb) = pos_of(SRC_B, "malloc");
    let label_a = format!("malloc@{la}:{ca}");
    let label_b = format!("malloc@{lb}:{cb}");
    assert_ne!(label_a, label_b);

    let prof_a = ProfHandle::enabled();
    let a = measure_source_with(SRC_A, b"", Mode::O, &profiled(&prof_a)).expect("A measures");
    let before = cache_stats();
    let prof_b = ProfHandle::enabled();
    let b = measure_source_with(SRC_B, b"", Mode::O, &profiled(&prof_b)).expect("B measures");
    let after = cache_stats();
    // B's build is served from A's entry: one compile hit, no recompile.
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0)
    );
    assert_eq!(a.output(), b.output(), "formatting cannot change behavior");

    for (m, prof, mine, theirs) in [
        (&a, &prof_a, &label_a, &label_b),
        (&b, &prof_b, &label_b, &label_a),
    ] {
        let d = prof.snapshot().expect("profiled run has data");
        let out = m.outcome.as_ref().expect("run succeeded");
        assert!(
            out.heap.collections > 0,
            "the churn loop must actually collect"
        );
        // Folded allocation stacks carry this formatting's coordinates…
        assert!(
            d.sites.keys().any(|stack| stack.contains(mine.as_str())),
            "sites {:?} missing {mine}",
            d.sites.keys().collect::<Vec<_>>()
        );
        // …and never the other formatting's (donor-coordinate stamping).
        assert!(
            !d.sites.keys().any(|stack| stack.contains(theirs.as_str())),
            "sites leaked the other formatting's label {theirs}"
        );
        // Pause attribution follows the same rule.
        let worst = d
            .collection_log
            .iter()
            .max_by_key(|r| r.pause_ns)
            .expect("collections were logged");
        let site = worst.site.as_deref().expect("worst pause is attributed");
        assert!(
            site.contains(mine.as_str()) && !site.contains(theirs.as_str()),
            "max_pause_site {site:?} must carry this formatting's label {mine}"
        );
    }
}
