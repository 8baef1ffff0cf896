//! The parallel measurement driver's determinism contract: a fanned-out
//! `collect` must be indistinguishable from a serial one — cell for cell
//! in the dataset, byte for byte in every rendered table, and event for
//! event in the merged trace stream (wall-clock pause fields aside,
//! which no table consumes).

use gc_safety::{Event, Instruments, Mode, ProfHandle, TraceHandle};
use gcbench::{
    chrome_trace, codesize_table, collect, folded_export, opt_pass_fires, postprocessor_table,
    prof_report, prometheus_export, slowdown_table, snap_exports, validate_chrome_trace, Dataset,
    OptSweep,
};
use gctrace::Value;
use workloads::Scale;

/// Only a trace, into `trace`.
fn traced(trace: TraceHandle) -> Instruments {
    Instruments {
        trace,
        ..Instruments::default()
    }
}

/// Only profiling.
fn profiled() -> Instruments {
    Instruments {
        prof: ProfHandle::enabled(),
        ..Instruments::default()
    }
}

/// Only heap snapshots.
fn snapped() -> Instruments {
    Instruments {
        snap: gcsnap::SnapHandle::enabled(),
        ..Instruments::default()
    }
}

#[test]
fn parallel_collect_equals_serial_cell_for_cell() {
    let bare = Instruments::default();
    let serial = collect(Scale::Tiny, 1, &bare).expect("serial collect");
    let parallel = collect(Scale::Tiny, 4, &bare).expect("parallel collect");
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for ((sn, srow), (pn, prow)) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(sn, pn, "row order is the paper's");
        assert_eq!(srow.len(), prow.len(), "{sn}: same mode set");
        for mode in Mode::all() {
            let s = &srow[&mode];
            let p = &prow[&mode];
            let ctx = format!("{sn} in {}", mode.label());
            assert_eq!(
                s.output(),
                p.output(),
                "{ctx}: program output must not depend on scheduling"
            );
            assert_eq!(s.outcome.is_ok(), p.outcome.is_ok(), "{ctx}");
            assert_eq!(
                s.costs.keys().collect::<Vec<_>>(),
                p.costs.keys().collect::<Vec<_>>(),
                "{ctx}: same machines costed"
            );
            for (machine, sc) in &s.costs {
                let pc = &p.costs[machine];
                assert_eq!(sc.cycles, pc.cycles, "{ctx} on {machine}: cycles");
                assert_eq!(sc.size_bytes, pc.size_bytes, "{ctx} on {machine}: size");
            }
            assert_eq!(
                s.peephole.map(|st| st.total()),
                p.peephole.map(|st| st.total()),
                "{ctx}: peephole work"
            );
        }
    }
    // The acceptance criterion itself: E1–E5 render byte-identically.
    for key in ["sparc2", "sparc10", "pentium90"] {
        assert_eq!(
            slowdown_table(&serial, key),
            slowdown_table(&parallel, key),
            "slowdown table {key} differs"
        );
    }
    assert_eq!(codesize_table(&serial), codesize_table(&parallel));
    assert_eq!(postprocessor_table(&serial), postprocessor_table(&parallel));
}

/// Strips the wall-clock fields (collection pauses) that legitimately
/// differ between two runs of the same deterministic pipeline.
fn normalized(events: Vec<Event>) -> Vec<Event> {
    const WALL_CLOCK: [&str; 8] = [
        "pause_ns",
        "total_pause_ns",
        "max_pause_ns",
        "mark_ns",
        "sweep_ns",
        "root_scan_ns",
        "heap_scan_ns",
        "class_sweep_ns",
    ];
    events
        .into_iter()
        .map(|mut e| {
            e.fields.retain(|(k, _)| !WALL_CLOCK.contains(k));
            e
        })
        .collect()
}

/// Drops the Prometheus families that carry wall-clock timings
/// (`gcprof_pause*`, `gcprof_mark*`, `gcprof_sweep_ns*`, `gcprof_mmu*`)
/// or process-cumulative run-history counters (`gccache_*`, which depend
/// on what compiled earlier in the process); everything left must be
/// byte-identical across schedules.
fn strip_timing_metrics(text: &str) -> String {
    const TIMING: [&str; 5] = [
        "gcprof_pause",
        "gcprof_mark",
        "gcprof_sweep_ns",
        "gcprof_mmu",
        "gccache_",
    ];
    let mut out: String = text
        .lines()
        .filter(|l| {
            let name = l
                .strip_prefix("# HELP ")
                .or_else(|| l.strip_prefix("# TYPE "))
                .unwrap_or(l);
            !TIMING.iter().any(|p| name.starts_with(p))
        })
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

/// The optimizer sweep every Prometheus export carries.
fn sweep() -> OptSweep {
    opt_pass_fires().expect("the optimizer sweep runs")
}

/// Drops the wall-clock lines of the human profile report.
fn strip_timing_report(text: &str) -> String {
    let mut out: String = text
        .lines()
        .filter(|l| !l.starts_with("pause:") && !l.starts_with("mmu:"))
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

/// Every cell's deterministic run results, read straight from the
/// dataset: its cycles on each machine, then VM steps, allocations,
/// bytes requested, collections and the live-bytes high-water mark.
fn deterministic_cells(data: &Dataset) -> Vec<(String, Vec<u64>)> {
    let mut out = Vec::new();
    for (name, results) in &data.rows {
        for (mode, m) in results {
            let mut values: Vec<u64> = m.costs.values().map(|c| c.cycles).collect();
            if let Ok(run) = &m.outcome {
                let h = &run.heap;
                values.extend([
                    run.steps,
                    h.allocations,
                    h.bytes_requested,
                    h.collections,
                    h.peak_bytes_live,
                ]);
            }
            out.push((format!("{name}/{}", mode.key()), values));
        }
    }
    out
}

#[test]
fn instrumented_parallel_exports_match_serial_modulo_timing() {
    let serial = collect(Scale::Tiny, 1, &profiled()).expect("serial instrumented collect");
    let parallel = collect(Scale::Tiny, 4, &profiled()).expect("parallel instrumented collect");
    // Flamegraph folded stacks are fully deterministic: compared raw.
    let folded = folded_export(&serial);
    assert!(!folded.is_empty(), "profiling produced allocation stacks");
    assert_eq!(folded, folded_export(&parallel), "folded stacks differ");
    // Prometheus exposition: valid under the independent parser, and
    // byte-identical once the wall-clock families are dropped.
    let sweep = sweep();
    let s_prom = prometheus_export(&serial, &sweep);
    let p_prom = prometheus_export(&parallel, &sweep);
    gc_safety::prom::validate(&s_prom).expect("serial export parses");
    gc_safety::prom::validate(&p_prom).expect("parallel export parses");
    let s_stripped = strip_timing_metrics(&s_prom);
    assert_eq!(
        s_stripped,
        strip_timing_metrics(&p_prom),
        "deterministic metric families differ"
    );
    for needle in [
        "gcprof_site_bytes_total",
        "gcprof_census_live_bytes",
        "gcprof_alloc_size_bytes_bucket",
        "gcprof_collections_total",
        "# TYPE opt_pass_fires counter",
        "# TYPE opt_fixpoint_sweeps gauge",
    ] {
        assert!(s_stripped.contains(needle), "missing {needle}");
    }
    // Human report: identical modulo wall-clock lines; run results:
    // identical.
    assert_eq!(
        strip_timing_report(&prof_report(&serial)),
        strip_timing_report(&prof_report(&parallel))
    );
    assert_eq!(deterministic_cells(&serial), deterministic_cells(&parallel));
}

#[test]
fn timeline_export_is_byte_identical_at_any_jobs() {
    use gcbench::{gc_microbench, timeline_cells};
    let serial = collect(Scale::Tiny, 1, &profiled()).expect("serial instrumented collect");
    let parallel = collect(Scale::Tiny, 4, &profiled()).expect("parallel instrumented collect");
    // The microbench is rerun for each trace: its wall-clock fields move,
    // but the virtual-clock trace must not — only deterministic counters
    // reach the export.
    let s = chrome_trace(&timeline_cells(&serial, &gc_microbench(true)));
    let p = chrome_trace(&timeline_cells(&parallel, &gc_microbench(true)));
    let events = validate_chrome_trace(&s).expect("timeline is well-formed");
    assert!(events > 0, "timeline has events");
    assert_eq!(s, p, "timeline differs between --jobs 1 and --jobs 4");
    // Every collection slice carries its attribution. The microbench
    // schedules run bounded-pause, so the trajectory must show nursery
    // collections, finished incremental cycles, and their bounded mark
    // stops as first-class slices.
    assert!(
        s.contains("\"cause\":\"nursery\""),
        "nursery causes exported"
    );
    assert!(
        s.contains("\"cause\":\"increment-finish\""),
        "finished cycles exported"
    );
    assert!(
        s.contains("\"name\":\"mark-inc\""),
        "increment slices exported"
    );
    assert!(s.contains("\"site\":\"micro\""), "sites exported");
    assert!(s.contains("root-scan"), "phase sub-slices exported");
    assert!(
        s.contains("\"name\":\"process_name\"") && s.contains("\"name\":\"thread_name\""),
        "Perfetto process/thread metadata present"
    );
}

#[test]
fn warm_cache_exports_are_byte_identical_to_cold() {
    use gcbench::{gc_microbench, timeline_cells};
    // The first pass may or may not be cold (tests share the process-
    // global caches), but the second is fully warm for everything the
    // first compiled — so any divergence below is cache unsoundness.
    gc_safety::cache_clear();
    let cold = collect(Scale::Tiny, 2, &profiled()).expect("cold instrumented collect");
    let warm = collect(Scale::Tiny, 2, &profiled()).expect("warm instrumented collect");
    for key in ["sparc2", "sparc10", "pentium90"] {
        assert_eq!(
            slowdown_table(&cold, key),
            slowdown_table(&warm, key),
            "slowdown table {key} differs cold vs warm"
        );
    }
    assert_eq!(codesize_table(&cold), codesize_table(&warm));
    assert_eq!(postprocessor_table(&cold), postprocessor_table(&warm));
    let folded = folded_export(&cold);
    assert!(!folded.is_empty());
    assert_eq!(folded, folded_export(&warm), "folded stacks differ");
    let sweep = sweep();
    assert_eq!(
        strip_timing_metrics(&prometheus_export(&cold, &sweep)),
        strip_timing_metrics(&prometheus_export(&warm, &sweep)),
        "deterministic metric families differ cold vs warm"
    );
    assert_eq!(
        strip_timing_report(&prof_report(&cold)),
        strip_timing_report(&prof_report(&warm))
    );
    assert_eq!(deterministic_cells(&cold), deterministic_cells(&warm));
    assert_eq!(
        chrome_trace(&timeline_cells(&cold, &gc_microbench(true))),
        chrome_trace(&timeline_cells(&warm, &gc_microbench(true))),
        "timeline differs cold vs warm"
    );
}

#[test]
fn warm_traced_run_reproduces_the_cold_trace_stream() {
    // Traced builds never consult the compile cache — every stage runs
    // live into the trace — so modulo wall-clock fields the two runs'
    // merged streams must be event-for-event identical.
    let (cold_trace, cold_sink) = TraceHandle::memory();
    collect(Scale::Tiny, 2, &traced(cold_trace)).expect("cold traced collect");
    let (warm_trace, warm_sink) = TraceHandle::memory();
    collect(Scale::Tiny, 2, &traced(warm_trace)).expect("warm traced collect");
    let cold = normalized(cold_sink.snapshot());
    let warm = normalized(warm_sink.snapshot());
    assert!(!cold.is_empty());
    assert_eq!(cold.len(), warm.len(), "streams have the same event count");
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(c, w, "event #{i} differs between cold and warm runs");
    }
}

#[test]
fn merged_parallel_trace_matches_the_serial_stream() {
    let (serial_trace, serial_sink) = TraceHandle::memory();
    collect(Scale::Tiny, 1, &traced(serial_trace)).expect("serial collect");
    let (parallel_trace, parallel_sink) = TraceHandle::memory();
    collect(Scale::Tiny, 4, &traced(parallel_trace)).expect("parallel collect");

    let serial = normalized(serial_sink.snapshot());
    let parallel = normalized(parallel_sink.snapshot());
    assert!(!serial.is_empty(), "the traced run produced events");
    assert_eq!(
        serial.len(),
        parallel.len(),
        "streams have the same event count"
    );
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "event #{i} differs between serial and merged");
    }
    // The audit-trail shape the serial driver guaranteed: each workload
    // marker precedes all of that workload's cell events.
    let marker_names: Vec<&Value> = serial
        .iter()
        .filter(|e| (e.stage, e.kind) == ("bench", "workload"))
        .map(|e| e.get("name").expect("marker carries the name"))
        .collect();
    let expected: Vec<Value> = workloads::all()
        .iter()
        .map(|w| Value::Str(w.name.to_string()))
        .collect();
    assert_eq!(
        marker_names,
        expected.iter().collect::<Vec<_>>(),
        "one marker per workload, in paper row order"
    );
}

#[test]
fn snapshot_exports_are_byte_identical_at_any_jobs() {
    let serial = collect(Scale::Tiny, 1, &snapped()).expect("serial snapped collect");
    let parallel = collect(Scale::Tiny, 2, &snapped()).expect("parallel snapped collect");
    let s = snap_exports(&serial).expect("serial exports validate");
    let p = snap_exports(&parallel).expect("parallel exports validate");
    assert!(!s.is_empty(), "the matrix produced snapshots");
    assert_eq!(
        s.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        p.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same documents in the same order"
    );
    // Snapshots carry no wall-clock fields, so no stripping: the whole
    // document is the determinism contract.
    for ((name, sd), (_, pd)) in s.iter().zip(&p) {
        assert_eq!(sd, pd, "{name} differs between --jobs 1 and --jobs 2");
    }
}

#[test]
fn snapshot_exports_are_byte_identical_cold_vs_warm_cache() {
    gc_safety::cache_clear();
    let cold = collect(Scale::Tiny, 2, &snapped()).expect("cold snapped collect");
    let warm = collect(Scale::Tiny, 2, &snapped()).expect("warm snapped collect");
    let c = snap_exports(&cold).expect("cold exports validate");
    let w = snap_exports(&warm).expect("warm exports validate");
    assert!(!c.is_empty(), "the matrix produced snapshots");
    assert_eq!(c, w, "snapshot documents differ cold vs warm");
}

/// One run with every instrument on reproduces what each instrument
/// records on its own.
#[test]
fn instruments_compose_without_disturbing_each_other() {
    let (trace, sink) = TraceHandle::memory();
    let every = Instruments {
        trace,
        prof: ProfHandle::enabled(),
        snap: gcsnap::SnapHandle::enabled(),
    };
    let all = collect(Scale::Tiny, 2, &every).expect("fully instrumented collect");
    let (trace_only, trace_only_sink) = TraceHandle::memory();
    let traced_run = collect(Scale::Tiny, 2, &traced(trace_only)).expect("traced collect");
    let profiled_run = collect(Scale::Tiny, 2, &profiled()).expect("profiled collect");
    let snapped_run = collect(Scale::Tiny, 2, &snapped()).expect("snapped collect");

    // Profiling mirrors its deterministic slice into the trace and adds
    // nothing else: 2 size histograms per cell and a census per cell
    // whose run got to the end.
    let (prof_events, rest): (Vec<Event>, Vec<Event>) =
        sink.snapshot().into_iter().partition(|e| e.stage == "prof");
    assert_eq!(
        normalized(rest),
        normalized(trace_only_sink.snapshot()),
        "the trace without prof events is the trace-only stream"
    );
    let cells: Vec<bool> = all
        .rows
        .iter()
        .flat_map(|(_, results)| results.values().map(|m| m.outcome.is_ok()))
        .collect();
    let finished = cells.iter().filter(|&&ok| ok).count();
    let kinds = |kind: &str| prof_events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(kinds("histogram"), 2 * cells.len());
    assert_eq!(kinds("census"), finished);
    assert_eq!(prof_events.len(), 2 * cells.len() + finished);

    assert_eq!(folded_export(&all), folded_export(&profiled_run));
    // Prometheus reads both instruments: its retained-bytes samples come
    // from the snapshots, every other line from the profiles.
    let split_retained = |prom: &str| -> (Vec<String>, Vec<String>) {
        strip_timing_metrics(prom)
            .lines()
            .map(str::to_string)
            .partition(|l| l.starts_with("gc_retained_bytes{"))
    };
    let sweep = sweep();
    let (all_retained, all_rest) = split_retained(&prometheus_export(&all, &sweep));
    let (profiled_retained, profiled_rest) =
        split_retained(&prometheus_export(&profiled_run, &sweep));
    assert!(!all_retained.is_empty() && profiled_retained.is_empty());
    assert_eq!(all_rest, profiled_rest);
    assert_eq!(
        all_retained,
        split_retained(&prometheus_export(&snapped_run, &sweep)).0
    );
    assert_eq!(
        snap_exports(&all).expect("exports validate"),
        snap_exports(&snapped_run).expect("exports validate")
    );
    for single in [&traced_run, &profiled_run, &snapped_run] {
        assert_eq!(deterministic_cells(&all), deterministic_cells(single));
    }
}
