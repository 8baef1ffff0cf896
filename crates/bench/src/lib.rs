//! # gcbench — regenerates every table and figure of the paper
//!
//! One entry point per paper artifact (see DESIGN.md's experiment index):
//!
//! * E1–E3 — [`slowdown_table`] for `sparc2` / `sparc10` / `pentium90`;
//! * E4 — [`codesize_table`];
//! * E5 — [`postprocessor_table`];
//! * F1 — [`analysis_listing`] (the `char f(char *x){return x[1];}` story).
//!
//! `cargo run -p gcbench --bin tables -- all` prints everything;
//! the Criterion benches under `benches/` print their table and then time
//! the pipeline stage that produces it.

#![warn(missing_docs)]

pub mod chrome;
pub mod micro;

pub use chrome::{chrome_trace, validate_chrome_trace, TimelineCell};
pub use micro::{gc_microbench, MicroCell};

use gc_safety::{
    merge_tagged, Cell, Event, Instruments, Machine, Measured, Mode, ProfData, ProfHandle, Sink,
    TaggedSink, TraceHandle,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use workloads::Scale;

/// All measurements for all workloads, ready for table formatting.
#[derive(Debug)]
pub struct Dataset {
    /// Per-workload mode measurements, in the paper's row order.
    pub rows: Vec<(&'static str, BTreeMap<Mode, Measured>)>,
}

/// Runs every workload in every mode at the given scale.
///
/// The 4 workloads × 5 modes matrix is fanned out across `jobs` scoped
/// worker threads, one (workload, mode) cell at a time, then reassembled
/// in the paper's row order, so tables built from the [`Dataset`] are
/// byte-identical regardless of `jobs` (every cost is a deterministic
/// cycle count, not wall-clock). The cross-mode output-divergence check
/// runs on the assembled rows, so it compares against the `-O` baseline
/// even when cells finish out of order.
///
/// `ins` picks what the run records:
///
/// * an enabled `trace` receives the whole pipeline's event stream. Each
///   cell emits into its own [`TaggedSink`], and the buffered streams are
///   merged into `trace` in deterministic (workload, mode, seq) order,
///   each workload's cells preceded by a `("bench", "workload")` marker,
///   so the sink sees the same stream at any `jobs` (wall-clock fields
///   like `pause_ns` aside);
/// * the run-level `prof` and `snap` handles only switch the per-cell
///   handles on: each cell runs under its own fresh enabled handle, read
///   back from its [`Measured::instruments`], so profiles and snapshots
///   never interleave across workers and every export built from them is
///   byte-identical at any `jobs` (wall-clock timings aside). Nothing is
///   recorded into the run-level handles themselves.
///
/// # Errors
///
/// Build failures and divergence (which would indicate a
/// miscompilation) are reported for the first failing cell in
/// deterministic (workload, mode) order, whichever thread hit it.
pub fn collect(scale: Scale, jobs: usize, ins: &Instruments) -> Result<Dataset, String> {
    let ws = workloads::all();
    let modes = Mode::all();
    let cells: Vec<(usize, usize)> = (0..ws.len())
        .flat_map(|wi| (0..modes.len()).map(move |mi| (wi, mi)))
        .collect();
    // Tag space: (workload, 0) = marker, (workload, 1 + mode) = cell.
    let mut tagged: Vec<Arc<TaggedSink>> = Vec::new();
    if ins.trace.is_enabled() {
        for (wi, w) in ws.iter().enumerate() {
            let marker = Arc::new(TaggedSink::new(wi as u64, 0));
            marker.emit(Event::new("bench", "workload").field("name", w.name));
            tagged.push(marker);
        }
    }
    let (prof_on, snap_on) = (ins.prof.is_enabled(), ins.snap.is_enabled());
    let cell_ins: Vec<Instruments> = cells
        .iter()
        .map(|&(wi, mi)| Instruments {
            trace: if ins.trace.is_enabled() {
                let sink = Arc::new(TaggedSink::new(wi as u64, 1 + mi as u64));
                tagged.push(sink.clone());
                TraceHandle::new(sink)
            } else {
                TraceHandle::disabled()
            },
            prof: prof_on.then(ProfHandle::enabled).unwrap_or_default(),
            snap: snap_on
                .then(gcsnap::SnapHandle::enabled)
                .unwrap_or_default(),
        })
        .collect();
    let slots: Vec<Mutex<Option<Result<Measured, String>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.clamp(1, cells.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(wi, mi)) = cells.get(i) else { break };
                let w = &ws[wi];
                let input = (w.input)(scale);
                let r = gc_safety::measure_source_with(w.source, &input, modes[mi], &cell_ins[i]);
                *slots[i].lock().expect("cell slot") = Some(r);
            });
        }
    });
    // Replay the buffered event streams in serial order before touching
    // the results, so the trace is complete even when assembly errors.
    merge_tagged(&tagged, &ins.trace);
    let mut slots = slots.into_iter();
    let mut rows = Vec::new();
    for w in &ws {
        let mut results = BTreeMap::new();
        for &mode in &modes {
            let cell = slots
                .next()
                .expect("one slot per cell")
                .into_inner()
                .expect("cell slot")
                .expect("every cell was measured");
            results.insert(mode, cell?);
        }
        gc_safety::check_workload_agreement(w, &results)?;
        rows.push((w.name, results));
    }
    Ok(Dataset { rows })
}

fn fmt_cell(c: Cell) -> String {
    c.to_string()
}

/// E1/E2/E3: the run-time slowdown table for one machine, matching the
/// paper's layout (`-O safe`, `-g`, `-g checked` relative to `-O`).
pub fn slowdown_table(data: &Dataset, machine_key: &str) -> String {
    let machine = Machine::by_key(machine_key).expect("known machine key");
    let mut out = String::new();
    let _ = writeln!(out, "{}:", machine.name);
    let _ = writeln!(
        out,
        "{:10}{:>12}{:>8}{:>14}",
        "", "-O, safe", "-g", "-g, checked"
    );
    for (name, results) in &data.rows {
        let row = gc_safety::slowdown_row(results, machine.name, name);
        let _ = writeln!(
            out,
            "{:10}{:>12}{:>8}{:>14}",
            name,
            fmt_cell(row.cells[0].1),
            fmt_cell(row.cells[1].1),
            fmt_cell(row.cells[2].1),
        );
    }
    out
}

/// E4: static code size expansion (processed code only), SPARC encoding.
pub fn codesize_table(data: &Dataset) -> String {
    let machine = Machine::sparc10();
    let mut out = String::new();
    let _ = writeln!(out, "SPARC object code expansion (processed code only):");
    let _ = writeln!(
        out,
        "{:10}{:>12}{:>8}{:>14}",
        "", "-O2, safe", "-g", "-g, checked"
    );
    for (name, results) in &data.rows {
        let row = gc_safety::codesize_row(results, machine.name, name);
        let _ = writeln!(
            out,
            "{:10}{:>12}{:>8}{:>14}",
            name,
            fmt_cell(row.cells[0].1),
            fmt_cell(row.cells[1].1),
            fmt_cell(row.cells[2].1),
        );
    }
    out
}

/// E5: the postprocessor table — residual degradation of peephole-cleaned
/// safe code vs the optimized baseline, on the SPARC 10 (as in the paper).
pub fn postprocessor_table(data: &Dataset) -> String {
    let machine = Machine::sparc10();
    let mut out = String::new();
    let _ = writeln!(out, "After the peephole postprocessor (SPARC 10):");
    let _ = writeln!(out, "{:10}{:>14}{:>12}", "", "running time", "code size");
    for (name, results) in &data.rows {
        let row = gc_safety::postprocessor_row(results, machine.name, name);
        let _ = writeln!(
            out,
            "{:10}{:>14}{:>12}",
            name,
            fmt_cell(row.cells[0].1),
            fmt_cell(row.cells[1].1),
        );
    }
    out
}

/// F1: the Analysis-section listing — `char f(char *x) { return x[1]; }`
/// in baseline, safe, and postprocessed form.
pub fn analysis_listing() -> String {
    let src = "char f(char *x) { return x[1]; } int main(void) { return 0; }";
    let machine = Machine::sparc10();
    let mut out = String::new();
    let base = cvm::compile(src, &cvm::CompileOptions::optimized()).expect("compiles");
    let safe = cvm::compile(src, &cvm::CompileOptions::optimized_safe()).expect("compiles");
    let fi = base.func_index("f").expect("f exists");
    let base_asm = asmpost::codegen_program(&base, &machine);
    let mut safe_asm = asmpost::codegen_program(&safe, &machine);
    let _ = writeln!(
        out,
        "--- normal optimized code (the paper's `ldsb [%o0+1],%o0`) ---"
    );
    let _ = write!(out, "{}", base_asm[fi].listing());
    let _ = writeln!(
        out,
        "\n--- GC-safe code (the paper's add; empty asm; ldsb) ---"
    );
    let _ = write!(out, "{}", safe_asm[fi].listing());
    let stats = asmpost::postprocess_program(&mut safe_asm);
    let _ = writeln!(
        out,
        "\n--- after the peephole postprocessor ({} folds) ---",
        stats.loads_folded
    );
    let _ = write!(out, "{}", safe_asm[fi].listing());
    out
}

/// Ablation table for the paper's Optimizations section: `KEEP_LIVE`
/// counts and measured safe-mode cost under each annotator configuration.
/// Its `-O` column reads the full-registry SPARC 10 cycles from `opt`
/// (the [`opt_cycles`] rows), so one `-O` build serves both tables.
///
/// * **opt 1 off** — copies are wrapped too ("there is clearly no reason
///   to replace the assignment p = q by p = KEEP_LIVE(q, q)");
/// * **opt 3 on** — the slowly-varying base heuristic.
///
/// Optimization 4 (no dereference wraps when collections happen only at
/// call sites) has no column: scheduling hoists a displaced base above an
/// allocating call, so such a build loses objects under a collecting VM.
///
/// # Errors
///
/// Returns a message naming the workload whose build or run failed, or
/// whose `-O` cycles `opt` lacks.
pub fn ablation_table(scale: Scale, opt: &[OptCycles]) -> Result<String, String> {
    use gc_safety::CompileOptions;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Annotator ablations (SPARC 10 cycles, wraps inserted):"
    );
    let _ = writeln!(
        out,
        "{:10}{:>10}{:>12}{:>12}{:>12}{:>13}",
        "", "-O", "safe", "no-opt1", "base-heur", "naive-call"
    );
    let annotated = |config: gcsafe::Config| CompileOptions {
        annotate: Some(config),
        ..CompileOptions::optimized_safe()
    };
    let configs = [
        CompileOptions::optimized_safe(),
        annotated(gcsafe::Config {
            skip_copies: false,
            ..gcsafe::Config::gc_safe()
        }),
        annotated(gcsafe::Config {
            base_heuristic: true,
            ..gcsafe::Config::gc_safe()
        }),
        CompileOptions::optimized_safe_naive(),
    ];
    for w in workloads::all() {
        let base_cycles = opt
            .iter()
            .find(|c| (c.workload, c.machine) == (w.name, "sparc10"))
            .ok_or_else(|| format!("no -O cycles for {}", w.name))?
            .cycles_full;
        let _ = write!(out, "{:10}{:>10}", w.name, base_cycles);
        for copts in &configs {
            let wraps = match &copts.annotate {
                Some(cfg) => {
                    let stats = gcsafe::annotate_program(w.source, cfg)
                        .map_err(|e| format!("{} does not annotate: {e}", w.name))?
                        .result
                        .stats;
                    stats.keep_lives + stats.checks
                }
                None => 0,
            };
            let cycles = cycles_on(&w, scale, copts, &["sparc10"])?[0];
            let pct = (cycles as i128 * 100 / base_cycles as i128) - 100;
            let _ = write!(out, "{:>7}%/{:<4}", pct, wraps);
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

/// Compiles workload `w` under `copts`, runs it on its `scale` input and
/// costs the run on each machine in `keys`, without the postprocessor:
/// the one measurement behind [`ablation_table`] and [`opt_cycles`].
fn cycles_on(
    w: &workloads::Workload,
    scale: Scale,
    copts: &gc_safety::CompileOptions,
    keys: &[&str],
) -> Result<Vec<u64>, String> {
    let prog =
        cvm::compile(w.source, copts).map_err(|e| format!("{} does not compile: {e}", w.name))?;
    let vm = cvm::VmOptions {
        input: (w.input)(scale),
        ..cvm::VmOptions::default()
    };
    let outcome =
        cvm::run_compiled(&prog, &vm).map_err(|e| format!("{} failed to run: {e}", w.name))?;
    Ok(keys
        .iter()
        .map(|key| {
            let machine = Machine::by_key(key).expect("known machine key");
            let asm = asmpost::codegen_program(&prog, &machine);
            asmpost::measure(&asm, &outcome.profile, &machine).cycles
        })
        .collect())
}

/// Renders a human-readable summary of a JSON-Lines trace, as produced by
/// [`gc_safety::JsonlSink`] via `tables --trace <file.jsonl>`.
///
/// Malformed lines are counted and reported, never fatal: a trace cut
/// short by a crash should still summarize.
pub fn trace_report(jsonl: &str) -> String {
    use gctrace::json::{parse_object, JsonValue};
    #[derive(Default)]
    struct Agg {
        total: usize,
        malformed: usize,
        workloads: Vec<String>,
        // annotate
        wraps: u64,
        wraps_by_primitive: BTreeMap<String, u64>,
        skips: u64,
        skips_by_reason: BTreeMap<String, u64>,
        incdecs: u64,
        base_heuristics: u64,
        annotate_summaries: u64,
        // opt
        opt_functions: u64,
        pass_fires: BTreeMap<String, u64>,
        // verify
        verdicts: u64,
        verdicts_clean: u64,
        // gc
        collections: u64,
        total_pause_ns: u64,
        max_pause_ns: u64,
        objects_swept: u64,
        bytes_swept: u64,
        // peephole
        peephole_functions: u64,
        loads_folded: u64,
        movs_forwarded: u64,
        add_movs_fused: u64,
        // vm
        runs: u64,
        steps: u64,
        // prof
        prof_histograms: BTreeMap<String, u64>,
        prof_censuses: u64,
        prof_live_bytes: u64,
    }
    let mut a = Agg::default();
    let get_u64 = |obj: &BTreeMap<String, JsonValue>, key: &str| -> u64 {
        obj.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
    };
    let get_str = |obj: &BTreeMap<String, JsonValue>, key: &str| -> String {
        obj.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        a.total += 1;
        let Ok(obj) = parse_object(line) else {
            a.malformed += 1;
            continue;
        };
        let stage = get_str(&obj, "stage");
        let kind = get_str(&obj, "kind");
        match (stage.as_str(), kind.as_str()) {
            ("bench", "workload") => a.workloads.push(get_str(&obj, "name")),
            ("annotate", "wrap") => {
                a.wraps += 1;
                *a.wraps_by_primitive
                    .entry(get_str(&obj, "primitive"))
                    .or_insert(0) += 1;
            }
            ("annotate", "skip") => {
                a.skips += 1;
                *a.skips_by_reason
                    .entry(get_str(&obj, "reason"))
                    .or_insert(0) += 1;
            }
            ("annotate", "incdec") => a.incdecs += 1,
            ("annotate", "base_heuristic") => a.base_heuristics += 1,
            ("annotate", "summary") => a.annotate_summaries += 1,
            ("opt", "function") => a.opt_functions += 1,
            ("opt", "pass") => {
                *a.pass_fires.entry(get_str(&obj, "pass")).or_insert(0) += get_u64(&obj, "fires");
            }
            ("verify", "verdict") => {
                a.verdicts += 1;
                if obj.get("ok") == Some(&JsonValue::Bool(true)) {
                    a.verdicts_clean += 1;
                }
            }
            ("gc", "collection") => {
                a.collections += 1;
                let pause = get_u64(&obj, "pause_ns");
                a.total_pause_ns += pause;
                a.max_pause_ns = a.max_pause_ns.max(pause);
                a.objects_swept += get_u64(&obj, "objects_swept");
                a.bytes_swept += get_u64(&obj, "bytes_swept");
            }
            ("peephole", "function") => {
                a.peephole_functions += 1;
                a.loads_folded += get_u64(&obj, "loads_folded");
                a.movs_forwarded += get_u64(&obj, "movs_forwarded");
                a.add_movs_fused += get_u64(&obj, "add_movs_fused");
            }
            ("vm", "run") => {
                a.runs += 1;
                a.steps += get_u64(&obj, "steps");
            }
            ("prof", "histogram") => {
                *a.prof_histograms.entry(get_str(&obj, "name")).or_insert(0) +=
                    get_u64(&obj, "count");
            }
            ("prof", "census") => {
                a.prof_censuses += 1;
                a.prof_live_bytes += get_u64(&obj, "live_bytes");
            }
            _ => {}
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "=== Trace report: {} events ===", a.total);
    if a.malformed > 0 {
        let _ = writeln!(out, "  ({} malformed lines skipped)", a.malformed);
    }
    if !a.workloads.is_empty() {
        let _ = writeln!(out, "workloads: {}", a.workloads.join(", "));
    }
    let _ = writeln!(
        out,
        "annotate:  {} wraps, {} skips, {} ++/-- rewrites, {} base-heuristic hits ({} function summaries)",
        a.wraps, a.skips, a.incdecs, a.base_heuristics, a.annotate_summaries
    );
    for (prim, n) in &a.wraps_by_primitive {
        let _ = writeln!(out, "           wrap {prim}: {n}");
    }
    for (reason, n) in &a.skips_by_reason {
        let _ = writeln!(out, "           skip {reason}: {n}");
    }
    let _ = write!(out, "optimizer: {} functions optimized", a.opt_functions);
    for (pass, n) in &a.pass_fires {
        let _ = write!(out, "; {pass} fired {n}x");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "verifier:  {} verdicts, {} clean, {} with violations",
        a.verdicts,
        a.verdicts_clean,
        a.verdicts - a.verdicts_clean
    );
    let _ = writeln!(
        out,
        "collector: {} collections, {:.3} ms total pause, {:.3} ms max pause, {} objects / {} bytes swept",
        a.collections,
        a.total_pause_ns as f64 / 1e6,
        a.max_pause_ns as f64 / 1e6,
        a.objects_swept,
        a.bytes_swept
    );
    let _ = writeln!(
        out,
        "peephole:  {} functions rewritten; {} loads folded, {} movs forwarded, {} add/movs fused",
        a.peephole_functions, a.loads_folded, a.movs_forwarded, a.add_movs_fused
    );
    let _ = writeln!(
        out,
        "vm:        {} runs, {} instructions executed",
        a.runs, a.steps
    );
    if a.prof_censuses > 0 || !a.prof_histograms.is_empty() {
        let hists: Vec<String> = a
            .prof_histograms
            .iter()
            .map(|(name, n)| format!("{name} x{n}"))
            .collect();
        let _ = writeln!(
            out,
            "prof:      {} censuses ({} live bytes), histogram samples: {}",
            a.prof_censuses,
            a.prof_live_bytes,
            if hists.is_empty() {
                "none".to_string()
            } else {
                hists.join(", ")
            }
        );
    }
    out
}

/// Snapshots every profiled (workload, mode) cell of a [`Dataset`], in
/// the deterministic row-major order all exports share. Cells measured
/// without profiling (disabled handles) are skipped.
pub fn prof_cells(data: &Dataset) -> Vec<(&'static str, Mode, ProfData)> {
    let mut out = Vec::new();
    for (name, results) in &data.rows {
        for (mode, m) in results {
            if let Some(d) = m.instruments.prof.snapshot() {
                out.push((*name, *mode, d));
            }
        }
    }
    out
}

/// The gcprof human report: one block per profiled (workload, mode) cell.
///
/// Lines beginning with `pause:` or `mmu:` carry wall-clock timings and
/// are the only nondeterministic content; everything else (allocation
/// histogram, sites, census) is byte-identical at any `--jobs`.
pub fn prof_report(data: &Dataset) -> String {
    let mut out = String::new();
    for (name, mode, d) in prof_cells(data) {
        let _ = writeln!(out, "=== gcprof: {name} / {} ===", mode.label());
        let _ = writeln!(
            out,
            "alloc:     {} objects, {} bytes requested (sizes {}..{})",
            d.alloc_size.count(),
            d.alloc_size.sum(),
            if d.alloc_size.is_empty() {
                0
            } else {
                d.alloc_size.min()
            },
            d.alloc_size.max(),
        );
        let _ = writeln!(
            out,
            "collector: {} collections, {} bytes swept back",
            d.collections,
            d.sweep_freed_bytes.sum(),
        );
        let total_pause: u64 = d.pause_ns.sum();
        let _ = writeln!(
            out,
            "pause:     total {:.3} ms, max {:.3} ms (mark {:.3} ms / sweep {:.3} ms)",
            total_pause as f64 / 1e6,
            if d.pause_ns.is_empty() {
                0
            } else {
                d.pause_ns.max()
            } as f64
                / 1e6,
            d.mark_ns.sum() as f64 / 1e6,
            d.sweep_ns.sum() as f64 / 1e6,
        );
        let mut mmu = String::new();
        for (window_ns, label) in gc_safety::MMU_WINDOWS_NS {
            let _ = write!(mmu, "  {label} {}‰", d.mmu_permille(window_ns));
        }
        let _ = writeln!(out, "mmu:      {mmu}");
        if let Some(c) = &d.census {
            let _ = writeln!(
                out,
                "census:    {} live objects / {} bytes; {} small pages ({}‰ fragmentation), {} large, {} free, {} blacklisted",
                c.live_objects,
                c.live_bytes,
                c.small_pages,
                c.fragmentation_permille(),
                c.large_pages,
                c.free_pages,
                c.blacklisted_pages,
            );
        }
        let mut sites: Vec<_> = d.sites.iter().collect();
        sites.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(b.0)));
        for (stack, stats) in sites.iter().take(5) {
            let _ = writeln!(
                out,
                "site:      {} bytes / {} allocs  {stack}",
                stats.bytes, stats.allocs
            );
        }
    }
    out
}

/// Picks one histogram out of a cell's profile.
type HistPick = fn(&ProfData) -> &gc_safety::Histogram;

/// Prometheus text exposition for a profiled [`Dataset`]: every cell's
/// counters, histograms, site totals, census gauges, and MMU windows,
/// labelled `{workload=..., mode=...}`, the optimizer `sweep`'s pass
/// fires, plus the process-wide compilation cache counters. Metric
/// families whose names start with `gcprof_pause`, `gcprof_mark`,
/// `gcprof_sweep_ns`, `gcprof_mmu`, or `gccache_` carry wall-clock or
/// schedule-dependent data (cache counters race across `--jobs`
/// workers); everything else is deterministic across `--jobs` (the
/// parallel-determinism test relies on that prefix split).
pub fn prometheus_export(data: &Dataset, sweep: &OptSweep) -> String {
    let cells = prof_cells(data);
    let mut w = gc_safety::PromWriter::new();
    w.family(
        "gcprof_collections_total",
        "Completed garbage collections",
        "counter",
    );
    for (name, mode, d) in &cells {
        w.sample(
            "gcprof_collections_total",
            &[("workload", name), ("mode", mode.key())],
            d.collections,
        );
    }
    let hists: [(&str, &str, HistPick); 5] = [
        (
            "gcprof_alloc_size_bytes",
            "Requested allocation sizes",
            |d| &d.alloc_size,
        ),
        (
            "gcprof_sweep_freed_bytes",
            "Bytes returned per sweep",
            |d| &d.sweep_freed_bytes,
        ),
        (
            "gcprof_pause_ns",
            "Stop-the-world pause per collection",
            |d| &d.pause_ns,
        ),
        ("gcprof_mark_ns", "Mark phase of each pause", |d| &d.mark_ns),
        ("gcprof_sweep_ns", "Sweep phase of each pause", |d| {
            &d.sweep_ns
        }),
    ];
    for (metric, help, pick) in hists {
        w.family(metric, help, "histogram");
        for (name, mode, d) in &cells {
            w.histogram(metric, &[("workload", name), ("mode", mode.key())], pick(d));
        }
    }
    w.family(
        "gcprof_site_allocs_total",
        "Allocations per call-stack-qualified allocation site",
        "counter",
    );
    for (name, mode, d) in &cells {
        for (site, stats) in &d.sites {
            w.sample(
                "gcprof_site_allocs_total",
                &[("workload", name), ("mode", mode.key()), ("site", site)],
                stats.allocs,
            );
        }
    }
    w.family(
        "gcprof_site_bytes_total",
        "Bytes allocated per call-stack-qualified allocation site",
        "counter",
    );
    for (name, mode, d) in &cells {
        for (site, stats) in &d.sites {
            w.sample(
                "gcprof_site_bytes_total",
                &[("workload", name), ("mode", mode.key()), ("site", site)],
                stats.bytes,
            );
        }
    }
    w.family(
        "gcprof_census_live_objects",
        "Live objects at end of run",
        "gauge",
    );
    for (name, mode, d) in &cells {
        if let Some(c) = &d.census {
            w.sample(
                "gcprof_census_live_objects",
                &[("workload", name), ("mode", mode.key())],
                c.live_objects,
            );
        }
    }
    w.family(
        "gcprof_census_live_bytes",
        "Live bytes at end of run",
        "gauge",
    );
    for (name, mode, d) in &cells {
        if let Some(c) = &d.census {
            w.sample(
                "gcprof_census_live_bytes",
                &[("workload", name), ("mode", mode.key())],
                c.live_bytes,
            );
        }
    }
    w.family(
        "gcprof_census_pages",
        "Heap pages by kind at end of run",
        "gauge",
    );
    for (name, mode, d) in &cells {
        if let Some(c) = &d.census {
            for (kind, v) in [
                ("small", c.small_pages),
                ("large", c.large_pages),
                ("free", c.free_pages),
                ("blacklisted", c.blacklisted_pages),
            ] {
                w.sample(
                    "gcprof_census_pages",
                    &[("workload", name), ("mode", mode.key()), ("kind", kind)],
                    v,
                );
            }
        }
    }
    w.family(
        "gcprof_census_fragmentation_permille",
        "Unused small-page capacity per mille at end of run",
        "gauge",
    );
    for (name, mode, d) in &cells {
        if let Some(c) = &d.census {
            w.sample(
                "gcprof_census_fragmentation_permille",
                &[("workload", name), ("mode", mode.key())],
                c.fragmentation_permille(),
            );
        }
    }
    w.family(
        "gcprof_census_class_live_bytes",
        "Live bytes per small size class at end of run",
        "gauge",
    );
    for (name, mode, d) in &cells {
        if let Some(c) = &d.census {
            for cls in &c.classes {
                let class = cls.obj_size.to_string();
                w.sample(
                    "gcprof_census_class_live_bytes",
                    &[("workload", name), ("mode", mode.key()), ("class", &class)],
                    cls.live_bytes,
                );
            }
        }
    }
    w.family(
        "gcprof_mmu_permille",
        "Minimum mutator utilization per window",
        "gauge",
    );
    for (name, mode, d) in &cells {
        for (window_ns, label) in gc_safety::MMU_WINDOWS_NS {
            w.sample(
                "gcprof_mmu_permille",
                &[("workload", name), ("mode", mode.key()), ("window", label)],
                d.mmu_permille(window_ns),
            );
        }
    }
    // Dominator-retained bytes per allocation site, from each cell's
    // `end` heap snapshot (top 5 sites by retained size, the same cut
    // `prof_report` applies to shallow site totals). Snapshots carry no
    // wall-clock data, so unlike the pause histograms this one is
    // deterministic across `--jobs` and stays out of the strip list.
    w.family(
        "gc_retained_bytes",
        "Dominator-retained bytes per allocation site (top 5, end-of-run snapshot)",
        "gauge",
    );
    for (name, mode, snaps) in snap_cells(data) {
        let Some((_, snap)) = snaps.iter().find(|(l, _)| l == "end") else {
            continue;
        };
        let a = gcsnap::analyze(snap);
        for r in gcsnap::site_rollup(snap, &a).iter().take(5) {
            w.sample(
                "gc_retained_bytes",
                &[("workload", name), ("mode", mode.key()), ("site", &r.site)],
                r.retained_bytes,
            );
        }
    }
    // Optimizer pass fires and fixpoint-driver statistics over the
    // matrix's optimizer modes. These are a pure function of the sources
    // and the pass registry — no wall-clock, no thread schedule — so the
    // families stay out of the stripped prefixes and must be
    // byte-identical at any `--jobs`.
    w.family(
        "opt_pass_fires",
        "Optimizer pass fires over the matrix's optimizer modes (fixpoint driver)",
        "counter",
    );
    for (pass, fires) in &sweep.fires {
        w.sample("opt_pass_fires", &[("pass", pass)], *fires);
    }
    w.family(
        "opt_fixpoint_sweeps",
        "Fixpoint driver statistics over the matrix's optimizer modes",
        "gauge",
    );
    for (stat, v) in [
        ("functions", sweep.functions),
        ("total", sweep.sweeps_total),
        ("max", sweep.sweeps_max),
    ] {
        w.sample("opt_fixpoint_sweeps", &[("stat", stat)], v);
    }
    // Compilation-cache counters. These are cumulative for the process
    // (not per-cell) and schedule-dependent — racing workers may both
    // miss one key — which is why every family sits under the stripped
    // `gccache_` prefix.
    let cache = gc_safety::cache_stats();
    let stage = ("stage", cache.stage);
    w.family(
        "gccache_lookups_total",
        "Compilation cache lookups by result",
        "counter",
    );
    for (result, n) in [("hit", cache.hits), ("miss", cache.misses)] {
        w.sample("gccache_lookups_total", &[stage, ("result", result)], n);
    }
    for (name, help, kind, v) in [
        (
            "gccache_evictions_total",
            "Compilation cache entries dropped by FIFO eviction",
            "counter",
            cache.evictions,
        ),
        (
            "gccache_entries",
            "Compilation cache resident entries",
            "gauge",
            cache.entries,
        ),
        (
            "gccache_hit_rate_permille",
            "Compilation cache hit rate",
            "gauge",
            cache.hit_rate_permille(),
        ),
    ] {
        w.family(name, help, kind);
        w.sample(name, &[stage], v);
    }
    w.finish()
}

/// One snapped matrix cell: workload, mode, and its labeled snapshots.
type SnapCell = (&'static str, Mode, Vec<(String, gcsnap::Snapshot)>);

/// Every snapped cell in row order, for cells whose
/// [`gcsnap::SnapHandle`] collected anything.
fn snap_cells(data: &Dataset) -> Vec<SnapCell> {
    let mut out = Vec::new();
    for (name, results) in &data.rows {
        for (mode, m) in results {
            if let Some(snaps) = m.instruments.snap.snapshots() {
                if !snaps.is_empty() {
                    out.push((*name, *mode, snaps));
                }
            }
        }
    }
    out
}

/// The `snap/1` heap-graph exports of a snapped [`Dataset`]: one
/// `(file_name, json)` pair per recorded snapshot, named
/// `{workload}__{mode}__{label}.json` in deterministic row order. Every
/// document is round-tripped through [`gcsnap::validate`] before it is
/// returned, so a corrupt export fails here rather than downstream.
/// Snapshots carry no wall-clock data, so the whole export set is
/// byte-identical at any `--jobs` and across cold/warm compilation
/// caches.
///
/// # Errors
///
/// Returns the validator's message for the first export that fails
/// round-trip validation (which would indicate a serializer bug).
pub fn snap_exports(data: &Dataset) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for (name, mode, snaps) in snap_cells(data) {
        for (label, snap) in &snaps {
            let a = gcsnap::analyze(snap);
            let json = gcsnap::to_json(label, snap, &a);
            gcsnap::validate(&json).map_err(|e| {
                format!(
                    "snapshot export {name}/{}/{label} failed validation: {e}",
                    mode.key()
                )
            })?;
            out.push((format!("{name}__{}__{label}.json", mode.key()), json));
        }
    }
    Ok(out)
}

/// Flamegraph-folded stacks of allocated bytes: one line per
/// `workload;mode;call-stack;site`, weight = bytes allocated there. Feed
/// to `flamegraph.pl` / `inferno-flamegraph` as-is. Fully deterministic.
pub fn folded_export(data: &Dataset) -> String {
    let mut out = String::new();
    for (name, mode, d) in prof_cells(data) {
        for (stack, stats) in &d.sites {
            let _ = writeln!(out, "{name};{};{stack} {}", mode.key(), stats.bytes);
        }
    }
    out
}

/// The keys of every `gc/1` cell, in the order [`bench_gc_json`] writes
/// them: the cell's identity, then the collector's work counts.
const GC1_KEYS: [&str; 21] = [
    "schema",
    "kind",
    "workload",
    "mode",
    "allocations",
    "bytes_requested",
    "collections",
    "collections_threshold",
    "collections_emergency",
    "collections_explicit",
    "collections_increment_finish",
    "collections_nursery",
    "objects_freed",
    "pages_reclaimed",
    "peak_bytes_live",
    "mark_increments",
    "sweep_increments",
    "barrier_marks",
    "words_marked",
    "pages_swept",
    "roots_scanned",
];

/// The collector's work trajectory (`BENCH_gc.json`): a JSON array with
/// one flat object per line — first every (workload, mode) matrix cell,
/// then the [`gc_microbench`] schedules. Schema `gc/1`; every consumer
/// keys on `"kind"` (`"matrix"` or `"micro"`). A cell holds only counts
/// (see `GC1_KEYS`): allocations, collections by cause, the collector's
/// increments and barrier marks, and the words marked, pages swept and
/// roots scanned summed over the cell's collection log, so every cell
/// must be profiled. All of it is deterministic, so the document is
/// byte-identical run to run and at any `--jobs`, and CI compares a fresh
/// paper-scale run with the committed file byte for byte.
pub fn bench_gc_json(data: &Dataset, micro: &[MicroCell]) -> String {
    let mut lines = Vec::new();
    for (name, results) in &data.rows {
        for (mode, m) in results {
            let Ok(out) = &m.outcome else { continue };
            let prof = m.instruments.prof.snapshot();
            lines.push(gc1_cell(
                "matrix",
                name,
                mode.key(),
                &out.heap,
                prof.as_ref(),
            ));
        }
    }
    for c in micro {
        let prof = Some(&c.prof);
        lines.push(gc1_cell("micro", c.name, "heap-direct", &c.stats, prof));
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// One line of [`bench_gc_json`]: the cell's identity, its heap's counts
/// and, when the cell was profiled, its collection log's work sums.
fn gc1_cell(
    kind: &str,
    workload: &str,
    mode: &str,
    h: &gcheap::HeapStats,
    prof: Option<&ProfData>,
) -> String {
    let mut w = gctrace::json::Writer::new();
    w.str_field("schema", "gc/1");
    w.str_field("kind", kind);
    w.str_field("workload", workload);
    w.str_field("mode", mode);
    w.uint_field("allocations", h.allocations);
    w.uint_field("bytes_requested", h.bytes_requested);
    w.uint_field("collections", h.collections);
    w.uint_field("collections_threshold", h.collections_threshold);
    w.uint_field("collections_emergency", h.collections_emergency);
    w.uint_field("collections_explicit", h.collections_explicit);
    w.uint_field(
        "collections_increment_finish",
        h.collections_increment_finish,
    );
    w.uint_field("collections_nursery", h.collections_nursery);
    w.uint_field("objects_freed", h.objects_freed);
    w.uint_field("pages_reclaimed", h.pages_reclaimed);
    w.uint_field("peak_bytes_live", h.peak_bytes_live);
    w.uint_field("mark_increments", h.mark_increments);
    w.uint_field("sweep_increments", h.sweep_increments);
    w.uint_field("barrier_marks", h.barrier_marks);
    if let Some(d) = prof {
        let log = &d.collection_log;
        w.uint_field("words_marked", log.iter().map(|r| r.words_marked).sum());
        w.uint_field("pages_swept", log.iter().map(|r| r.pages_swept).sum());
        w.uint_field("roots_scanned", log.iter().map(|r| r.roots_scanned).sum());
    }
    format!("  {}", w.finish())
}

/// Validates a [`bench_gc_json`] document: a non-empty array of `gc/1`
/// cells, each holding exactly the `gc/1` keys, its identity as strings
/// and its counts as non-negative integers. Returns the number of cells.
///
/// # Errors
///
/// Returns a message naming the first malformed cell.
pub fn validate_bench_gc_json(text: &str) -> Result<usize, String> {
    use gctrace::json::JsonValue;
    let JsonValue::Arr(cells) = gctrace::json::parse(text)? else {
        return Err("not a JSON array".into());
    };
    if cells.is_empty() {
        return Err("no cells".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        let JsonValue::Obj(fields) = cell else {
            return Err(format!("cell {i} is not an object"));
        };
        let name = |k: &str| fields.get(k).and_then(JsonValue::as_str).unwrap_or("?");
        let key = format!("{}/{}", name("workload"), name("mode"));
        if name("schema") != "gc/1" {
            return Err(format!("cell {key} has an unknown schema"));
        }
        if let Some(extra) = fields.keys().find(|k| !GC1_KEYS.contains(&k.as_str())) {
            return Err(format!("cell {key} has an unknown field {extra:?}"));
        }
        for (j, field) in GC1_KEYS.iter().enumerate() {
            let v = fields
                .get(*field)
                .ok_or_else(|| format!("cell {key} is missing {field:?}"))?;
            // The first four keys name the cell; the rest are counts.
            let ok = if j < 4 {
                v.as_str().is_some()
            } else {
                v.as_u64().is_some()
            };
            if !ok {
                return Err(format!("cell {key} has a malformed {field:?}"));
            }
        }
    }
    Ok(cells.len())
}

/// Builds the Perfetto timeline cells for `--timeline`: every profiled
/// matrix cell followed by the microbench schedules, each carrying its
/// per-collection attribution log. The order (row-major matrix, then
/// micro) and every record field the Chrome trace consumes are
/// deterministic, so [`chrome_trace`] over this is byte-identical at any
/// `--jobs`.
pub fn timeline_cells(data: &Dataset, micro: &[MicroCell]) -> Vec<TimelineCell> {
    let mut out = Vec::new();
    for (name, mode, d) in prof_cells(data) {
        out.push(TimelineCell {
            workload: name.to_string(),
            mode: mode.key().to_string(),
            records: d.collection_log,
        });
    }
    for cell in micro {
        out.push(TimelineCell {
            workload: cell.name.to_string(),
            mode: "heap-direct".to_string(),
            records: cell.prof.collection_log.clone(),
        });
    }
    out
}

/// Per-pass fire totals and fixpoint-driver statistics over the
/// optimizer sweep: every paper workload, compiled to pre-optimizer IR
/// under each optimizer-running mode, then driven to fixpoint with a
/// ledger attached. Everything here is a deterministic function of the
/// sources and the pass registry — no wall-clock, no thread schedule —
/// so the numbers are byte-identical at any `--jobs` and across
/// cold/warm compilation caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptSweep {
    /// `(pass name, total fires)` in registry order, summed over the sweep.
    pub fires: Vec<(&'static str, u64)>,
    /// Functions driven to fixpoint.
    pub functions: u64,
    /// Total driver sweeps across all functions (each includes the final
    /// all-zero sweep that proves the fixpoint).
    pub sweeps_total: u64,
    /// Maximum sweeps any single function needed.
    pub sweeps_max: u64,
}

/// Runs the optimizer fire-count sweep (see [`OptSweep`]).
///
/// The optimizer-running modes are `-O` and `-O safe`; `-O safe+post`
/// shares the safe build's optimizer configuration (the postprocessor
/// runs after codegen), so counting it would only double the safe rows.
/// Each workload is compiled with the optimizer disabled to obtain the
/// exact pre-optimizer IR, then every function is cloned and driven
/// through [`cvm::optimize_func_ledger`] under the mode's real options.
///
/// # Errors
///
/// Returns a message naming the workload/mode whose front-end failed.
pub fn opt_pass_fires() -> Result<OptSweep, String> {
    let mut sweep = OptSweep {
        fires: cvm::pass_names().iter().map(|n| (*n, 0u64)).collect(),
        functions: 0,
        sweeps_total: 0,
        sweeps_max: 0,
    };
    for w in workloads::all() {
        for mode in [Mode::O, Mode::OSafe] {
            let copts = mode.compile_options();
            let mut front = mode.compile_options();
            front.opt.enabled = false;
            let prog = cvm::compile(w.source, &front)
                .map_err(|e| format!("opt bench: {}/{} front-end: {e}", w.name, mode.key()))?;
            for f in &prog.funcs {
                let mut again = f.clone();
                let ledger = cvm::optimize_func_ledger(&mut again, copts.opt);
                sweep.functions += 1;
                sweep.sweeps_total += ledger.sweeps as u64;
                sweep.sweeps_max = sweep.sweeps_max.max(ledger.sweeps as u64);
                for (slot, (pass, fires)) in sweep.fires.iter_mut().zip(&ledger.fires) {
                    debug_assert_eq!(slot.0, *pass);
                    slot.1 += *fires as u64;
                }
            }
        }
    }
    Ok(sweep)
}

/// Registered passes that never fired across the sweep — the signal the
/// tables runner warns on, and `every_registered_pass_fires_in_the_opt_sweep`
/// fails on: a zero-fire pass is either regressed pattern matching or a
/// registry entry the paper's programs never exercise.
pub fn zero_fire_passes(sweep: &OptSweep) -> Vec<&'static str> {
    sweep
        .fires
        .iter()
        .filter(|(_, fires)| *fires == 0)
        .map(|(pass, _)| *pass)
        .collect()
}

/// Human-readable per-pass fire summary for the tables output.
pub fn opt_report(sweep: &OptSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Optimizer pass fires (paper workloads, -O and -O safe):"
    );
    for (pass, fires) in &sweep.fires {
        let _ = writeln!(out, "  {pass:16}{fires:>8}");
    }
    let _ = writeln!(
        out,
        "  {} functions to fixpoint in {} sweeps (max {} per function, cap {})",
        sweep.functions,
        sweep.sweeps_total,
        sweep.sweeps_max,
        cvm::opt::FIXPOINT_SWEEP_CAP,
    );
    out
}

/// One `-O` cycle-comparison cell: a workload's measured cycles with the
/// seed pipeline (gvn and sccp disabled) against the full registry, on
/// one machine model.
#[derive(Debug, Clone)]
pub struct OptCycles {
    /// Workload name.
    pub workload: &'static str,
    /// Machine key (`sparc2`, `sparc10`, `pentium90`).
    pub machine: &'static str,
    /// Cycles with gvn and sccp disabled.
    pub cycles_seed: u64,
    /// Cycles with the full registry.
    pub cycles_full: u64,
}

/// Measures every paper workload under `-O` with the seed pipeline
/// (gvn and sccp off) and with the full registry, and reports
/// cycles per machine model. Deterministic: the VM's cycle model has no
/// wall-clock input.
///
/// # Errors
///
/// Returns a message naming the workload whose build or run failed.
pub fn opt_cycles(scale: Scale) -> Result<Vec<OptCycles>, String> {
    let keys = ["sparc2", "sparc10", "pentium90"];
    let full = Mode::O.compile_options();
    let mut seed = full.clone();
    seed.opt.gvn = false;
    seed.opt.sccp = false;
    let mut out = Vec::new();
    for w in workloads::all() {
        let seed_cycles = cycles_on(&w, scale, &seed, &keys)?;
        let full_cycles = cycles_on(&w, scale, &full, &keys)?;
        for ((machine, cycles_seed), cycles_full) in
            keys.into_iter().zip(seed_cycles).zip(full_cycles)
        {
            out.push(OptCycles {
                workload: w.name,
                machine,
                cycles_seed,
                cycles_full,
            });
        }
    }
    Ok(out)
}

/// The [`opt_cycles`] rows as a table: seed and full cycles per workload
/// × machine, and the cycles the full registry saves in permille of the
/// seed's, truncated to one decimal and negative where it is slower.
pub fn opt_cycles_table(cycles: &[OptCycles]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Optimizer cycles at -O: seed pipeline (no gvn, sccp) vs full registry:"
    );
    let _ = writeln!(
        out,
        "{:10}{:10}{:>12}{:>12}{:>9}",
        "", "machine", "seed", "full", "saved"
    );
    for c in cycles {
        let tenths = c.cycles_seed.abs_diff(c.cycles_full) * 10_000 / c.cycles_seed;
        let sign = if c.cycles_full > c.cycles_seed {
            "-"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:10}{:10}{:>12}{:>12}{:>9}",
            c.workload,
            c.machine,
            c.cycles_seed,
            c.cycles_full,
            format!("{sign}{}.{}‰", tenths / 10, tenths % 10),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only profiling, as `tables --bench-json` runs the matrix.
    fn profiled() -> Instruments {
        Instruments {
            prof: ProfHandle::enabled(),
            ..Instruments::default()
        }
    }

    /// The parsed cells of a `gc/1` document.
    fn gc1_cells(text: &str) -> Vec<BTreeMap<String, gctrace::json::JsonValue>> {
        let gctrace::json::JsonValue::Arr(cells) = gctrace::json::parse(text).unwrap() else {
            panic!("not an array: {text}");
        };
        cells
            .into_iter()
            .map(|c| match c {
                gctrace::json::JsonValue::Obj(fields) => fields,
                other => panic!("not an object: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn bench_gc_json_is_valid_and_covers_matrix_and_micro() {
        let data = collect(Scale::Tiny, gc_safety::default_jobs(), &profiled())
            .expect("all workloads run");
        let micro = gc_microbench(true);
        let text = bench_gc_json(&data, &micro);
        let cells = validate_bench_gc_json(&text).expect("parses");
        // Cells whose VM run traps (g-checked catching a hazard) carry no
        // heap stats and are skipped, so count from the dataset itself.
        let measured: usize = data
            .rows
            .iter()
            .map(|(_, results)| results.iter().filter(|(_, m)| m.outcome.is_ok()).count())
            .sum();
        assert_eq!(cells, measured + micro.len());
        assert!(
            cells >= 19 + 3,
            "nearly every matrix cell measured: {cells}"
        );
        assert!(text.contains("\"kind\":\"micro\""));
        assert!(text.contains("\"workload\":\"churn-small\""));
        assert!(validate_bench_gc_json("[\n]\n").is_err(), "empty rejected");
        assert!(validate_bench_gc_json("[\n  not json\n]\n").is_err());
        // A wall-clock field, a missing count and a count that is not an
        // integer are each rejected.
        let first = text.lines().nth(1).unwrap().trim_end_matches(',');
        let one = |cell: &str| format!("[\n{cell}\n]\n");
        assert_eq!(validate_bench_gc_json(&one(first)), Ok(1));
        let timed = first.replace("\"schema\"", "\"max_pause_ns\":1,\"schema\"");
        assert!(validate_bench_gc_json(&one(&timed))
            .unwrap_err()
            .contains("unknown field \"max_pause_ns\""));
        let untallied = first.replace(",\"words_marked\":", ",\"words_marked_\":");
        assert!(validate_bench_gc_json(&one(&untallied))
            .unwrap_err()
            .contains("words_marked"));
        // `0.5` prefixed to the count's digits makes it fractional.
        let fractional = first.replace("\"collections\":", "\"collections\":0.5");
        assert!(validate_bench_gc_json(&one(&fractional))
            .unwrap_err()
            .contains("malformed \"collections\""));
    }

    #[test]
    fn bench_gc_json_is_byte_identical_at_any_jobs_and_holds_only_counts() {
        let serial = collect(Scale::Tiny, 1, &profiled()).expect("serial collect");
        let parallel = collect(Scale::Tiny, 4, &profiled()).expect("parallel collect");
        // Each side runs the microbench afresh: its timings move, its
        // counts must not.
        let s = bench_gc_json(&serial, &gc_microbench(true));
        let p = bench_gc_json(&parallel, &gc_microbench(true));
        assert_eq!(s, p, "gc/1 differs between --jobs 1 and --jobs 4");
        for cell in gc1_cells(&s) {
            let keys: Vec<&str> = cell.keys().map(String::as_str).collect();
            let mut want = GC1_KEYS.to_vec();
            want.sort_unstable();
            assert_eq!(keys, want, "a gc/1 cell holds exactly the count keys");
        }
    }

    #[test]
    fn committed_bench_gc_json_is_valid_and_every_cell_collects() {
        // The committed paper-scale trajectory: the 19 matrix cells that
        // run to the end (gawk `-g checked` traps) and the four microbench
        // schedules. Every cell collects often enough for its work counts
        // to measure the collector, not one stray collection.
        let text = include_str!("../../../BENCH_gc.json");
        assert_eq!(validate_bench_gc_json(text), Ok(23));
        for cell in gc1_cells(text) {
            let collections = cell["collections"].as_u64().unwrap();
            assert!(
                collections >= 10,
                "{}/{} collected {collections} times",
                cell["workload"].as_str().unwrap(),
                cell["mode"].as_str().unwrap()
            );
        }
    }

    #[test]
    fn prometheus_export_carries_the_opt_sweep() {
        let sweep = opt_pass_fires().expect("sweep runs");
        let prom = prometheus_export(&Dataset { rows: Vec::new() }, &sweep);
        assert!(prom.contains("# TYPE opt_pass_fires counter\n"), "{prom}");
        assert!(
            prom.contains("# TYPE opt_fixpoint_sweeps gauge\n"),
            "{prom}"
        );
        for (pass, fires) in &sweep.fires {
            let line = format!("opt_pass_fires{{pass=\"{pass}\"}} {fires}\n");
            assert!(prom.contains(&line), "missing {line}");
        }
        let line = format!(
            "opt_fixpoint_sweeps{{stat=\"functions\"}} {}\n",
            sweep.functions
        );
        assert!(prom.contains(&line), "missing {line}");
    }

    #[test]
    fn tiny_dataset_builds_all_tables() {
        let data = collect(
            Scale::Tiny,
            gc_safety::default_jobs(),
            &Instruments::default(),
        )
        .expect("all workloads run");
        let t1 = slowdown_table(&data, "sparc10");
        assert!(t1.contains("cordtest"));
        assert!(t1.contains("gawk"));
        assert!(t1.contains("<fails>"), "gawk checked cell: {t1}");
        let t2 = codesize_table(&data);
        assert!(t2.contains("%"));
        let t3 = postprocessor_table(&data);
        assert!(t3.contains("cordtest"));
    }

    #[test]
    fn shape_envelope_holds_even_at_tiny_scale() {
        let data = collect(
            Scale::Tiny,
            gc_safety::default_jobs(),
            &Instruments::default(),
        )
        .expect("all workloads run");
        let report = paper_comparison(&data);
        assert!(
            !report.contains("SHAPE MISMATCH"),
            "qualitative envelope violated:\n{report}"
        );
        assert!(report.contains("every cell within the paper's qualitative envelope"));
    }

    #[test]
    fn traced_collect_produces_a_complete_jsonl_and_report() {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
        struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let ins = Instruments {
            trace: TraceHandle::new(std::sync::Arc::new(gc_safety::JsonlSink::new(Box::new(
                Shared(buf.clone()),
            )))),
            ..Instruments::default()
        };
        collect(Scale::Tiny, gc_safety::default_jobs(), &ins).expect("all workloads run");
        // Tiny-scale workloads allocate less than the collector's 256 KiB
        // trigger threshold, so add one allocation-heavy measurement to
        // exercise the GC timeline through the same facade path. (The
        // paper-scale `tables --trace` run collects on its own.)
        let churn = r#"
            int main(void) {
                long i;
                for (i = 0; i < 4000; i++) { char *p = (char *) malloc(256); p[0] = 1; }
                return 0;
            }
        "#;
        let m = gc_safety::measure_source_with(churn, b"", Mode::OSafePost, &ins).expect("builds");
        assert!(m.outcome.expect("runs").heap.collections > 0);
        let jsonl = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        // Every line is a valid JSON object with stage and kind.
        let mut stages = std::collections::BTreeSet::new();
        for line in jsonl.lines() {
            let obj = gctrace::json::parse_object(line)
                .unwrap_or_else(|e| panic!("bad line: {e}\n{line}"));
            let stage = obj["stage"]
                .as_str()
                .expect("stage is a string")
                .to_string();
            assert!(obj.contains_key("kind"), "{line}");
            stages.insert(stage);
        }
        // The acceptance criterion: annotation, optimizer, collection, and
        // peephole events are all present for at least one workload.
        for required in ["annotate", "opt", "gc", "peephole", "verify", "vm", "bench"] {
            assert!(
                stages.contains(required),
                "missing stage '{required}' in {stages:?}"
            );
        }
        let report = trace_report(&jsonl);
        assert!(report.contains("=== Trace report:"), "{report}");
        assert!(!report.contains("malformed"), "{report}");
        for needle in ["wraps", "collections", "loads folded", "verdicts", "runs"] {
            assert!(report.contains(needle), "missing '{needle}' in:\n{report}");
        }
        // Workload markers made it through (cordtest is the first row).
        assert!(report.contains("cordtest"), "{report}");
    }

    #[test]
    fn trace_report_tolerates_garbage_lines() {
        let jsonl = "{\"stage\":\"gc\",\"kind\":\"collection\",\"pause_ns\":1000}\nnot json\n";
        let report = trace_report(jsonl);
        assert!(report.contains("1 malformed"), "{report}");
        assert!(report.contains("1 collections"), "{report}");
    }

    #[test]
    fn analysis_listing_shows_the_story() {
        let l = analysis_listing();
        assert!(l.contains("[%r") && l.contains("+1]"), "indexed load: {l}");
        assert!(l.contains("keep_live"), "marker: {l}");
    }

    #[test]
    fn every_registered_pass_fires_in_the_opt_sweep() {
        // A pass stays registered only while the paper's own programs
        // fire it: the sweep drives exactly the four workloads' functions
        // under `-O` and `-O safe`, nothing else, and every registered
        // pass fires somewhere in it. The sweep is deterministic.
        let sweep = opt_pass_fires().expect("sweep runs");
        assert_eq!(zero_fire_passes(&sweep), Vec::<&str>::new());
        let functions: usize = workloads::all()
            .iter()
            .flat_map(|w| {
                [Mode::O, Mode::OSafe]
                    .map(|mode| cvm::compile(w.source, &mode.compile_options()).unwrap())
            })
            .map(|prog| prog.funcs.len())
            .sum();
        assert_eq!(sweep.functions, functions as u64, "paper workloads only");
        assert!(sweep.sweeps_max >= 2);
        assert!(sweep.sweeps_max as usize <= cvm::opt::FIXPOINT_SWEEP_CAP);
        assert_eq!(sweep, opt_pass_fires().expect("sweep reruns"));
    }

    #[test]
    fn full_registry_saves_a_permille_on_gawk_and_gs() {
        // gvn and sccp save at least 1‰ of the seed pipeline's cycles on
        // gawk and gs on every machine; cfrac gains under a permille and
        // cordtest runs slower (gvn's doing, see the next test), so
        // neither is floored.
        let cycles = opt_cycles(Scale::Tiny).expect("opt cycles measure");
        assert_eq!(cycles.len(), 4 * 3, "every workload × machine");
        let floored: Vec<&OptCycles> = cycles
            .iter()
            .filter(|c| matches!(c.workload, "gawk" | "gs"))
            .collect();
        assert_eq!(floored.len(), 2 * 3);
        for c in floored {
            let saved = c.cycles_seed.saturating_sub(c.cycles_full);
            assert!(
                saved * 1000 >= c.cycles_seed,
                "{} on {}: full registry {} cycles against the seed pipeline's {}",
                c.workload,
                c.machine,
                c.cycles_full,
                c.cycles_seed
            );
        }
    }

    #[test]
    fn leaving_out_any_gated_pass_moves_an_o_cycle_cell() {
        // Leave-one-out over the 12 `-O` workload × machine cells: each
        // gated pass changes at least one, so none is dead weight on the
        // paper's programs. gvn is also why the full registry loses to
        // the seed pipeline on cordtest: without it, cordtest's `-O` is
        // cheaper on every machine.
        let keys = ["sparc2", "sparc10", "pentium90"];
        let cells = |copts: &gc_safety::CompileOptions| -> Vec<(&str, Vec<u64>)> {
            workloads::all()
                .iter()
                .map(|w| (w.name, cycles_on(w, Scale::Tiny, copts, &keys).unwrap()))
                .collect()
        };
        let full = Mode::O.compile_options();
        let with_all = cells(&full);
        type TurnOff = fn(&mut cvm::OptOptions);
        let knobs: [(&str, TurnOff); 5] = [
            ("reassociate", |o| o.reassociate = false),
            ("schedule_early", |o| o.schedule = false),
            ("licm", |o| o.licm = false),
            ("gvn", |o| o.gvn = false),
            ("sccp", |o| o.sccp = false),
        ];
        for (pass, turn_off) in knobs {
            let mut copts = full.clone();
            turn_off(&mut copts.opt);
            let without = cells(&copts);
            assert_ne!(without, with_all, "no -O cell moves without {pass}");
            if pass == "gvn" {
                let (name, cordtest) = &without[0];
                assert_eq!(*name, "cordtest");
                for ((machine, off), on) in keys.iter().zip(cordtest).zip(&with_all[0].1) {
                    assert!(
                        off < on,
                        "cordtest on {machine}: {off} cycles without gvn, {on} with"
                    );
                }
            }
        }
    }
}

/// The paper's published numbers, for programmatic shape comparison.
/// `None` marks cells the paper leaves empty (cfrac's `-g` inlining
/// problem, the checked cells it could not run).
pub mod paper {
    /// (program, safe%, -g%, checked%) per machine; `None` = not reported.
    pub type SlowdownRow = (&'static str, Option<i64>, Option<i64>, Option<i64>);

    /// SPARCstation 2 slowdown table.
    pub const SPARC2: &[SlowdownRow] = &[
        ("cordtest", Some(9), Some(54), Some(514)),
        ("cfrac", Some(17), None, None),
        ("gawk", Some(8), Some(25), None), // checked: <fails>
        ("gs", Some(0), Some(33), Some(205)),
    ];

    /// SPARC 10 slowdown table.
    pub const SPARC10: &[SlowdownRow] = &[
        ("cordtest", Some(9), Some(56), Some(529)),
        ("cfrac", Some(8), None, None),
        ("gawk", Some(8), Some(48), None),
        ("gs", Some(5), Some(37), Some(366)),
    ];

    /// Pentium 90 slowdown table.
    pub const PENTIUM90: &[SlowdownRow] = &[
        ("cordtest", Some(12), Some(28), Some(510)),
        ("cfrac", Some(11), None, None),
        ("gawk", Some(9), Some(41), None),
        ("gs", Some(6), Some(17), Some(279)),
    ];

    /// Code-size expansion table.
    pub const CODESIZE: &[SlowdownRow] = &[
        ("cordtest", Some(9), Some(69), Some(130)),
        ("cfrac", Some(6), None, None),
        ("gawk", Some(15), Some(68), None),
        ("gs", Some(19), Some(73), Some(160)),
    ];

    /// Postprocessor table: (program, time%, size%).
    pub const POSTPROCESSOR: &[(&str, i64, i64)] = &[
        ("cordtest", 4, 3),
        ("cfrac", 2, 3),
        ("gawk", 1, 7),
        ("gs", 2, 7),
    ];
}

/// Prints a paper-vs-measured comparison with shape verdicts: the safe
/// column stays under 25%, `-g` lands in the tens of percent, checked
/// runs at least ~1.5× (or fails where the paper's did), and the
/// postprocessor residual stays in single digits.
pub fn paper_comparison(data: &Dataset) -> String {
    let mut out = String::new();
    let machines: [(&str, &str, &[paper::SlowdownRow]); 3] = [
        ("sparc2", "SPARCstation 2", paper::SPARC2),
        ("sparc10", "SPARC 10", paper::SPARC10),
        ("pentium90", "Pentium 90", paper::PENTIUM90),
    ];
    let mut all_ok = true;
    for (key, label, rows) in machines {
        let machine = Machine::by_key(key).expect("known");
        let _ = writeln!(out, "{label} (paper → measured):");
        for (name, results) in &data.rows {
            let row = gc_safety::slowdown_row(results, machine.name, name);
            let prow = rows
                .iter()
                .find(|(n, ..)| n == name)
                .copied()
                .unwrap_or((name, None, None, None));
            let fmt_pair = |p: Option<i64>, m: Cell| -> String {
                let paper_s = p.map(|v| format!("{v}%")).unwrap_or_else(|| "-".into());
                format!("{paper_s} → {m}")
            };
            let safe = row.cells[0].1;
            let g = row.cells[1].1;
            let checked = row.cells[2].1;
            // Shape verdicts.
            let safe_ok = matches!(safe, Cell::Pct(v) if (0..=25).contains(&v));
            let g_ok = matches!(g, Cell::Pct(v) if (10..=120).contains(&v));
            let checked_ok = match checked {
                Cell::Pct(v) => v >= 50,
                Cell::Fails => *name == "gawk",
                Cell::Dash => false,
            };
            let ok = safe_ok && g_ok && checked_ok;
            all_ok &= ok;
            let _ = writeln!(
                out,
                "  {:10} safe {:>14}   -g {:>14}   checked {:>18}   [{}]",
                name,
                fmt_pair(prow.1, safe),
                fmt_pair(prow.2, g),
                fmt_pair(prow.3, checked),
                if ok { "shape ok" } else { "SHAPE MISMATCH" },
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "overall: {}",
        if all_ok {
            "every cell within the paper's qualitative envelope"
        } else {
            "MISMATCHES PRESENT"
        }
    );
    out
}

/// The Analysis-section register-pressure report: "If the overhead were
/// primarily due to additional register pressure and hence register
/// spills, one would have expected much more substantial performance
/// degradation on the Intel Pentium machine". This prints the allocator's
/// spill counts per workload × machine for the baseline and safe builds —
/// the safe build should add few or no spills even on six registers.
pub fn register_pressure_report() -> String {
    use gc_safety::CompileOptions;
    let mut out = String::new();
    let _ = writeln!(out, "Register spills (baseline → safe):");
    let _ = writeln!(
        out,
        "{:10}{:>22}{:>22}{:>22}",
        "", "SPARCstation 2", "SPARC 10", "Pentium 90"
    );
    for w in workloads::all() {
        let base = cvm::compile(w.source, &CompileOptions::optimized()).expect("compiles");
        let safe = cvm::compile(w.source, &CompileOptions::optimized_safe()).expect("compiles");
        let _ = write!(out, "{:10}", w.name);
        for machine in Machine::all() {
            let count = |prog: &cvm::ProgramIr| -> u32 {
                asmpost::codegen_program(prog, &machine)
                    .iter()
                    .map(|f| f.spill_count)
                    .sum()
            };
            let _ = write!(out, "{:>15} → {:<4}", count(&base), count(&safe));
        }
        let _ = writeln!(out);
    }
    out
}
