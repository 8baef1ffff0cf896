//! Chrome Trace Event Format export of the collection timeline.
//!
//! The output loads directly into Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`: one process per workload, one thread per mode,
//! one `X` (complete) slice per collection with root-scan / heap-scan /
//! sweep sub-slices, and a counter track for live bytes.
//!
//! **The clock is virtual.** Wall-clock nanoseconds differ run to run
//! and across `--jobs` levels, which would break the repo's determinism
//! discipline, so the timeline advances on deterministic work counters
//! instead: mutator time is bytes allocated since the previous
//! collection, root-scan time is roots scanned, heap-scan time is words
//! marked, sweep time is pages swept (scaled so a page reads as ~32
//! ticks). The relative shape of a trace — which collections dominate,
//! how live bytes grow and fall — is faithful; the absolute numbers are
//! ticks, not nanoseconds. Event `args` carry only deterministic fields
//! for the same reason.

use gcprof::CollectionRecord;
use gctrace::json::{JsonValue, Writer};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One (workload, mode) cell's collection log, ready for export.
#[derive(Debug, Clone)]
pub struct TimelineCell {
    /// Workload name — becomes the Perfetto process.
    pub workload: String,
    /// Mode key — becomes the Perfetto thread within the process.
    pub mode: String,
    /// Per-collection attribution records in collection order.
    pub records: Vec<CollectionRecord>,
}

/// Virtual ticks a swept page costs (roughly the bitmap words touched).
const TICKS_PER_SWEPT_PAGE: u64 = 32;

fn phase_durs(r: &CollectionRecord) -> (u64, u64, u64) {
    // Every phase lasts at least one tick so zero-work collections still
    // render as visible slices. For an incremental cycle the words the
    // bounded increments already scanned are rendered as their own
    // `mark-inc` slices, so the final stop's heap-scan slice only shows
    // the finish drain.
    let inc_words: u64 = r.increment_words.iter().sum();
    let root = r.roots_scanned + 1;
    let heap = r.words_marked.saturating_sub(inc_words) + 1;
    let sweep = r.pages_swept * TICKS_PER_SWEPT_PAGE + 1;
    (root, heap, sweep)
}

fn event(
    name: &str,
    ph: &str,
    pid: u64,
    tid: u64,
    ts: u64,
    dur: Option<u64>,
    args: Option<String>,
) -> String {
    let mut w = Writer::new();
    w.str_field("name", name);
    w.str_field("ph", ph);
    if ph != "M" {
        w.str_field("cat", "gc");
    }
    w.uint_field("pid", pid);
    w.uint_field("tid", tid);
    w.uint_field("ts", ts);
    if let Some(d) = dur {
        w.uint_field("dur", d);
    }
    if let Some(a) = args {
        w.raw_field("args", &a);
    }
    w.finish()
}

/// Renders the cells as a Chrome Trace Event Format document. Fully
/// deterministic: same cells in, byte-identical JSON out, regardless of
/// `--jobs` or wall-clock noise.
pub fn chrome_trace(cells: &[TimelineCell]) -> String {
    // Stable pid/tid assignment: first-seen order of workloads and modes.
    let mut workloads: Vec<&str> = Vec::new();
    let mut modes: Vec<&str> = Vec::new();
    for c in cells {
        if !workloads.contains(&c.workload.as_str()) {
            workloads.push(&c.workload);
        }
        if !modes.contains(&c.mode.as_str()) {
            modes.push(&c.mode);
        }
    }
    let pid_of = |w: &str| workloads.iter().position(|&x| x == w).unwrap_or(0) as u64;
    let tid_of = |m: &str| modes.iter().position(|&x| x == m).unwrap_or(0) as u64;

    let mut events: Vec<String> = Vec::new();
    for (pid, w) in workloads.iter().enumerate() {
        let mut a = Writer::new();
        a.str_field("name", w);
        events.push(event(
            "process_name",
            "M",
            pid as u64,
            0,
            0,
            None,
            Some(a.finish()),
        ));
    }
    for c in cells {
        let mut a = Writer::new();
        a.str_field("name", &c.mode);
        events.push(event(
            "thread_name",
            "M",
            pid_of(&c.workload),
            tid_of(&c.mode),
            0,
            None,
            Some(a.finish()),
        ));
    }
    for c in cells {
        let (pid, tid) = (pid_of(&c.workload), tid_of(&c.mode));
        let mut vt: u64 = 0;
        for (n, r) in c.records.iter().enumerate() {
            // Mutator span: the bytes allocated since the last collection
            // advance the virtual clock before the pause begins. An
            // incremental cycle interleaves its bounded mark stops with
            // the mutator: the span is split into equal gaps with one
            // `mark-inc` slice (duration = words that stop scanned)
            // between each, and the finish stop renders as the usual
            // collection slice at the end.
            let stops = r.increment_words.len() as u64;
            if stops > 0 {
                let gap = r.bytes_since_gc / (stops + 1);
                let mut spent = 0;
                for (i, &w) in r.increment_words.iter().enumerate() {
                    vt += gap;
                    spent += gap;
                    let mut a = Writer::new();
                    a.uint_field("increment", i as u64 + 1);
                    a.uint_field("words_scanned", w);
                    events.push(event(
                        "mark-inc",
                        "X",
                        pid,
                        tid,
                        vt,
                        Some(w + 1),
                        Some(a.finish()),
                    ));
                    vt += w + 1;
                }
                vt += r.bytes_since_gc - spent;
            } else {
                vt += r.bytes_since_gc;
            }
            let (root, heap, sweep) = phase_durs(r);
            let total = root + heap + sweep;
            let mut args = Writer::new();
            args.str_field("cause", r.cause.as_str());
            args.str_field("site", r.site.as_deref().unwrap_or("-"));
            args.uint_field("bytes_since_gc", r.bytes_since_gc);
            args.uint_field("roots_scanned", r.roots_scanned);
            args.uint_field("words_marked", r.words_marked);
            args.uint_field("pages_swept", r.pages_swept);
            args.uint_field("pages_live", r.pages_live);
            args.uint_field("freed_bytes", r.freed_bytes);
            args.uint_field("bytes_live", r.bytes_live);
            args.uint_field("increments", r.increments);
            args.uint_field("young_pages_swept", r.young_pages_swept);
            let name = format!("GC #{n} ({})", r.cause.as_str());
            events.push(event(
                &name,
                "X",
                pid,
                tid,
                vt,
                Some(total),
                Some(args.finish()),
            ));
            events.push(event("root-scan", "X", pid, tid, vt, Some(root), None));
            events.push(event(
                "heap-scan",
                "X",
                pid,
                tid,
                vt + root,
                Some(heap),
                None,
            ));
            events.push(event(
                "sweep",
                "X",
                pid,
                tid,
                vt + root + heap,
                Some(sweep),
                None,
            ));
            vt += total;
            // Counter tracks are keyed (pid, name) in the trace model, so
            // the mode goes into the counter name to keep cells separate.
            let mut a = Writer::new();
            a.uint_field("bytes_live", r.bytes_live);
            events.push(event(
                &format!("bytes_live ({})", c.mode),
                "C",
                pid,
                tid,
                vt,
                None,
                Some(a.finish()),
            ));
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        let _ = writeln!(out, "  {e}{sep}");
    }
    out.push_str(
        "],\"displayTimeUnit\":\"ns\",\
\"otherData\":{\"clock\":\"virtual\",\"unit\":\"deterministic work ticks\"}}\n",
    );
    out
}

/// Validates a [`chrome_trace`] document: well-formed JSON, a
/// `traceEvents` array whose `X` events carry non-negative `ts`/`dur`
/// with per-(pid, tid) non-decreasing timestamps, and process/thread
/// name metadata for every (pid, tid) that emits slices. Returns the
/// event count.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = gctrace::json::parse(text)?;
    let Some(JsonValue::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    let mut named_pids: BTreeSet<u64> = BTreeSet::new();
    let mut named_tids: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut last_ts: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = e
            .get("pid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing or negative pid"))?;
        let tid = e
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing or negative tid"))?;
        match ph {
            "M" => match e.get("name").and_then(JsonValue::as_str) {
                Some("process_name") => {
                    named_pids.insert(pid);
                }
                Some("thread_name") => {
                    named_tids.insert((pid, tid));
                }
                other => return Err(format!("event {i}: unknown metadata {other:?}")),
            },
            "X" | "C" => {
                let ts = e
                    .get("ts")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("event {i}: missing or negative ts"))?;
                if ph == "X" {
                    e.get("dur")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("event {i}: missing or negative dur"))?;
                }
                let prev = last_ts.entry((pid, tid)).or_insert(0);
                if ts < *prev {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards on pid {pid} tid {tid} (last {prev})"
                    ));
                }
                *prev = ts;
                if !named_pids.contains(&pid) {
                    return Err(format!("event {i}: pid {pid} has no process_name"));
                }
                if ph == "X" && !named_tids.contains(&(pid, tid)) {
                    return Err(format!("event {i}: pid {pid} tid {tid} has no thread_name"));
                }
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcprof::{CollectCause, CollectionRecord};

    fn rec(n: u64) -> CollectionRecord {
        CollectionRecord {
            cause: if n.is_multiple_of(2) {
                CollectCause::Threshold
            } else {
                CollectCause::Explicit
            },
            site: Some("main;loop;malloc@3:1".into()),
            bytes_since_gc: 1000 * (n + 1),
            bytes_live: 400 * (n + 1),
            freed_bytes: 600,
            roots_scanned: 10 + n,
            words_marked: 50 + n,
            pages_live: 3,
            pages_swept: 4,
            // Wall-clock fields: deliberately different per "run" below to
            // prove they never reach the trace.
            pause_ns: 12345 + n * 7,
            mark_ns: 8000,
            sweep_ns: 4345,
            root_scan_ns: 3000,
            heap_scan_ns: 5000,
            class_sweep_ns: vec![(16, 100), (0, 50)],
            ..CollectionRecord::default()
        }
    }

    fn cells() -> Vec<TimelineCell> {
        vec![
            TimelineCell {
                workload: "cfrac".into(),
                mode: "O".into(),
                records: (0..3).map(rec).collect(),
            },
            TimelineCell {
                workload: "cfrac".into(),
                mode: "g".into(),
                records: (0..2).map(rec).collect(),
            },
            TimelineCell {
                workload: "gs".into(),
                mode: "O".into(),
                records: vec![rec(0)],
            },
        ]
    }

    #[test]
    fn trace_is_well_formed_and_carries_attribution() {
        let text = chrome_trace(&cells());
        let n = validate_chrome_trace(&text).expect("valid trace");
        // 2 process names + 3 thread names + per record: 4 slices + 1 counter.
        assert_eq!(n, 2 + 3 + 6 * (4 + 1));
        assert!(text.contains("\"cause\":\"threshold\""));
        assert!(text.contains("\"cause\":\"explicit\""));
        assert!(text.contains("main;loop;malloc@3:1"));
        assert!(text.contains("root-scan"));
        assert!(text.contains("heap-scan"));
        assert!(text.contains("bytes_live (O)"));
    }

    #[test]
    fn incremental_cycles_render_bounded_mark_slices() {
        let mut r = rec(0);
        r.increments = 2;
        r.increment_words = vec![0, 30]; // initial root scan + one increment
        r.increment_pauses = vec![
            gcprof::Pause {
                end_ns: 1,
                pause_ns: 77,
            },
            gcprof::Pause {
                end_ns: 2,
                pause_ns: 88,
            },
        ];
        r.words_marked = 50; // 30 in the increment, 20 in the finish drain
        let cells = vec![TimelineCell {
            workload: "micro".into(),
            mode: "heap-direct".into(),
            records: vec![r, rec(1)],
        }];
        let text = chrome_trace(&cells);
        validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(text.matches("\"mark-inc\"").count(), 2, "{text}");
        assert!(text.contains("\"words_scanned\":30"), "{text}");
        assert!(text.contains("\"increments\":2"), "{text}");
        // The finish stop's heap-scan slice shows only the finish drain:
        // 50 total words - 30 already rendered as increments + 1 tick.
        assert!(text.contains("\"name\":\"heap-scan\""));
        assert!(text.contains("\"dur\":21"), "{text}");
        // Increment wall-clock never reaches the virtual-clock trace.
        for needle in ["77", "88", "increment_pauses"] {
            assert!(!text.contains(needle), "wall-clock leaked: {needle}");
        }
    }

    #[test]
    fn trace_never_leaks_wall_clock() {
        let text = chrome_trace(&cells());
        for needle in ["pause_ns", "mark_ns", "sweep_ns", "12345", "_scan_ns"] {
            assert!(!text.contains(needle), "wall-clock leaked: {needle}");
        }
        // Perturb only wall-clock fields; the trace must not move.
        let mut wobbled = cells();
        for c in &mut wobbled {
            for r in &mut c.records {
                r.pause_ns += 999_999;
                r.mark_ns += 5;
                r.root_scan_ns = 1;
            }
        }
        assert_eq!(text, chrome_trace(&wobbled));
    }

    #[test]
    fn validator_rejects_backwards_time_and_orphan_threads() {
        let good = chrome_trace(&cells());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Orphan slice: an X event on a tid without thread_name metadata.
        let orphan = "{\"traceEvents\":[\
{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"w\"}},\
{\"name\":\"gc\",\"ph\":\"X\",\"cat\":\"gc\",\"pid\":0,\"tid\":7,\"ts\":5,\"dur\":1}]}";
        let err = validate_chrome_trace(orphan).unwrap_err();
        assert!(err.contains("thread_name"), "{err}");
        // Backwards time within one (pid, tid) lane.
        let back = "{\"traceEvents\":[\
{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"w\"}},\
{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"m\"}},\
{\"name\":\"a\",\"ph\":\"X\",\"cat\":\"gc\",\"pid\":0,\"tid\":0,\"ts\":10,\"dur\":1},\
{\"name\":\"b\",\"ph\":\"X\",\"cat\":\"gc\",\"pid\":0,\"tid\":0,\"ts\":5,\"dur\":1}]}";
        let err = validate_chrome_trace(back).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        assert!(validate_chrome_trace(&good).is_ok());
    }
}
