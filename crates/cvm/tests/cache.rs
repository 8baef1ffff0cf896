//! The compile cache's soundness contract, pinned from outside the
//! crate: structurally-equal sources share one memoized IR, but
//! everything positional — alloc-site labels, spans, trace streams — is
//! bound to the *requesting* source text, never to whichever formatting
//! happened to populate the cache first. Traced compiles never look the
//! cache up: every stage runs live into the trace, so a stream is always
//! the requesting source's own.
//!
//! The cache and its counters are process-global, and the test harness
//! is threaded, so every test takes `SERIAL` and asserts on counter
//! *deltas* around its own compiles.

use cvm::{compile, compile_cache_stats, compile_traced, CompileOptions};
use gctrace::{Event, TraceHandle, Value};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f`, returning its result and the (hits, misses) the compile
/// cache accrued meanwhile.
fn traffic<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = compile_cache_stats();
    let out = f();
    let after = compile_cache_stats();
    (
        out,
        (after.hits - before.hits, after.misses - before.misses),
    )
}

/// A traced compile's full event stream.
fn traced(src: &str, opts: &CompileOptions) -> Vec<Event> {
    let (trace, sink) = TraceHandle::memory();
    compile_traced(src, opts, &trace).expect("compiles");
    sink.snapshot()
}

/// 1-based (line, col) of the first occurrence of `needle` — what an
/// alloc-site label bound against `src` must report.
fn pos_of(src: &str, needle: &str) -> (usize, usize) {
    let off = src.find(needle).expect("needle present");
    let line = src[..off].matches('\n').count() + 1;
    let col = off - src[..off].rfind('\n').map_or(0, |i| i + 1) + 1;
    (line, col)
}

#[test]
fn hash_equal_sources_share_cached_ir_but_rebind_site_labels() {
    let _guard = SERIAL.lock().unwrap();
    let src_a =
        "int main(void) {\n    char *p = (char *) malloc(24);\n    p[0] = 1;\n    return 0;\n}\n";
    // Same program, different formatting: a leading comment and deeper
    // indentation move the malloc to a different line and column.
    let src_b = "/* rebind pin: formatting only */\nint main(void)\n{\n        char *p = (char *) malloc(24);\n        p[0] = 1;\n        return 0;\n}\n";
    let pa = cfront::parse(src_a).unwrap();
    let pb = cfront::parse(src_b).unwrap();
    assert_eq!(
        cfront::program_hash(&pa),
        cfront::program_hash(&pb),
        "the two formattings must be structurally equal for this pin"
    );
    assert_ne!(
        pos_of(src_a, "malloc"),
        pos_of(src_b, "malloc"),
        "the formatting must actually move the call site"
    );

    let opts = CompileOptions::optimized();
    let prog_a = compile(src_a, &opts).unwrap();
    let (prog_b, delta) = traffic(|| compile(src_b, &opts).unwrap());
    assert_eq!(
        delta,
        (1, 0),
        "the second formatting must be served from the compile cache"
    );

    // Shared artifact, per-requester coordinates: the IRs agree on the
    // stable AST node, and each label lands where *that* source put the
    // call.
    assert_eq!(prog_a.alloc_sites.len(), 1);
    assert_eq!(prog_b.alloc_sites.len(), 1);
    assert_eq!(prog_a.alloc_sites[0].node, prog_b.alloc_sites[0].node);
    let (la, ca) = pos_of(src_a, "malloc");
    let (lb, cb) = pos_of(src_b, "malloc");
    assert_eq!(prog_a.alloc_sites[0].label(), format!("malloc@{la}:{ca}"));
    assert_eq!(prog_b.alloc_sites[0].label(), format!("malloc@{lb}:{cb}"));
    assert_eq!(
        prog_a.alloc_sites[0].span_start,
        src_a.find("malloc").unwrap()
    );
    assert_eq!(
        prog_b.alloc_sites[0].span_start,
        src_b.find("malloc").unwrap()
    );
}

#[test]
fn warm_recompile_is_pure_compile_hits() {
    let _guard = SERIAL.lock().unwrap();
    // Unique to this test so the first pass is genuinely cold.
    let src =
        "int warm_pin(int n) { return n + 41; }\nint main(void) { return warm_pin(1) - 42; }\n";
    let option_sets = [
        CompileOptions::optimized(),
        CompileOptions::optimized_safe(), // also OSafePost's options
        CompileOptions::debug(),
        CompileOptions::debug_checked(),
    ];
    let compile_all = || -> Vec<_> {
        option_sets
            .iter()
            .map(|o| compile(src, o).unwrap())
            .collect()
    };
    let (cold, delta) = traffic(compile_all);
    assert_eq!(delta, (0, option_sets.len() as u64), "first pass is cold");
    let (warm, delta) = traffic(compile_all);
    assert_eq!(
        delta,
        (option_sets.len() as u64, 0),
        "every warm recompile must be a compile-cache hit"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.funcs.len(), w.funcs.len());
        assert_eq!(c.alloc_sites, w.alloc_sites);
    }
}

#[test]
fn traced_compiles_run_live_without_a_cache_lookup() {
    let _guard = SERIAL.lock().unwrap();
    let src =
        "int main(void) {\n    char *p = (char *) malloc(48);\n    p[1] = 7;\n    return 0;\n}\n";
    let opts = CompileOptions::optimized_safe();
    let ((cold, warm), delta) = traffic(|| (traced(src, &opts), traced(src, &opts)));
    assert_eq!(delta, (0, 0), "a traced compile never looks the cache up");
    assert!(
        cold.iter().any(|e| e.stage == "annotate"),
        "audit events present: {cold:?}"
    );
    assert!(
        cold.iter().any(|e| e.stage == "verify"),
        "verifier verdicts present: {cold:?}"
    );
    assert_eq!(cold, warm, "a warm traced compile emits the cold stream");
}

#[test]
fn traced_compile_of_another_formatting_emits_its_own_positions() {
    let _guard = SERIAL.lock().unwrap();
    let src_a =
        "char f(char *p, long i) {\n    return p[i - 1000];\n}\nint main(void) { return 0; }\n";
    let src_b = "/* moved */\nchar f(char *p, long i)\n{\n        return p[i - 1000];\n}\nint main(void) { return 0; }\n";
    let opts = CompileOptions::optimized_safe();
    let a = traced(src_a, &opts);
    let b = traced(src_b, &opts);
    // Every span-carrying audit event names a slice of its own source:
    // the same expression text, at that formatting's offsets.
    let spans = |events: &[Event], src: &str| -> Vec<(usize, String)> {
        events
            .iter()
            .filter_map(|e| match (e.get("span_start"), e.get("span_end")) {
                (Some(Value::UInt(s)), Some(Value::UInt(t))) => {
                    Some((*s as usize, src[*s as usize..*t as usize].to_string()))
                }
                _ => None,
            })
            .collect()
    };
    let (sa, sb) = (spans(&a, src_a), spans(&b, src_b));
    assert!(
        sb.iter().any(|(_, text)| text == "p[i - 1000]"),
        "the subscript is wrapped: {b:?}"
    );
    let texts = |s: &[(usize, String)]| s.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>();
    assert_eq!(texts(&sa), texts(&sb), "same expressions in both streams");
    for ((oa, text), (ob, _)) in sa.iter().zip(&sb) {
        assert_ne!(oa, ob, "{text:?}: B's stream must carry B's offsets");
    }
}

#[test]
fn untraced_compile_after_a_traced_one_is_a_hit() {
    let _guard = SERIAL.lock().unwrap();
    let src =
        "int main(void) {\n    long *q = (long *) calloc(3, 8);\n    q[2] = 5;\n    return 0;\n}\n";
    let opts = CompileOptions::debug_checked();
    let (events, delta) = traffic(|| traced(src, &opts));
    assert_eq!(delta, (0, 0));
    assert!(!events.is_empty(), "the traced compile emitted its stream");
    let (prog, delta) = traffic(|| compile(src, &opts).unwrap());
    assert_eq!(delta, (1, 0), "the traced compile populated the cache");
    let (l, c) = pos_of(src, "calloc");
    assert_eq!(prog.alloc_sites[0].label(), format!("calloc@{l}:{c}"));
}
