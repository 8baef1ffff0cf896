//! # gc-safety — end-to-end reproduction pipeline
//!
//! Ties the substrates together into the paper's experiment harness:
//!
//! ```text
//! C source ──(gcsafe annotate?)──► AST ──► IR ──(optimize?)──► VM run
//!                                            │                   │
//!                                            ▼                   ▼
//!                                     asmpost codegen      block profile
//!                                            │                   │
//!                                  (peephole postprocess?)       │
//!                                            └─────── measure ◄──┘
//! ```
//!
//! [`Mode`] enumerates the paper's measurement axes; [`measure_workload`]
//! produces one table row; the `gcbench` crate prints every table.

#![warn(missing_docs)]

use std::collections::BTreeMap;

pub use asmpost::{AsmFunc, CostReport, Machine, PeepholeStats};
pub use cvm::{CompileOptions, ExecOutcome, ProgramIr, VmError, VmOptions};
pub use gccache::StageStats;
pub use gcprof::{
    encode_buckets, prom, HeapCensus, Histogram, ProfData, ProfHandle, PromWriter, SiteStats,
    MMU_WINDOWS_NS,
};
pub use gcsafe::Config as AnnotConfig;
pub use gctrace::{merge_tagged, Event, JsonlSink, MemorySink, Sink, TaggedSink, TraceHandle};
pub use workloads::{Scale, Workload};

/// The paper's compilation/measurement modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    /// `-O`: optimized baseline.
    O,
    /// `-O safe`: GC-safety annotations, then full optimization.
    OSafe,
    /// `-O safe` + the peephole postprocessor.
    OSafePost,
    /// `-g`: fully debuggable code.
    G,
    /// `-g checked`: debuggable plus pointer-arithmetic checking.
    GChecked,
}

impl Mode {
    /// Display name matching the paper's column headers.
    pub fn label(self) -> &'static str {
        match self {
            Mode::O => "-O",
            Mode::OSafe => "-O, safe",
            Mode::OSafePost => "-O, safe+post",
            Mode::G => "-g",
            Mode::GChecked => "-g, checked",
        }
    }

    /// A short, space-free key for contexts where [`Mode::label`]'s
    /// punctuation would collide with a line format: flamegraph folded
    /// stacks (space-separated), Prometheus-friendly label values, file
    /// names.
    pub fn key(self) -> &'static str {
        match self {
            Mode::O => "O",
            Mode::OSafe => "O-safe",
            Mode::OSafePost => "O-safe-post",
            Mode::G => "g",
            Mode::GChecked => "g-checked",
        }
    }

    /// The compile options implementing this mode.
    pub fn compile_options(self) -> CompileOptions {
        match self {
            Mode::O => CompileOptions::optimized(),
            Mode::OSafe | Mode::OSafePost => CompileOptions::optimized_safe(),
            Mode::G => CompileOptions::debug(),
            Mode::GChecked => CompileOptions::debug_checked(),
        }
    }

    /// Whether this mode carries the paper's GC-safety guarantee: a
    /// source-reachable heap object must never be collected, even under a
    /// paranoid collector that runs at every allocation. `-O` is the one
    /// mode without it (disguised pointers may be collected under it).
    pub fn is_safe(self) -> bool {
        !matches!(self, Mode::O)
    }

    /// All modes in table order.
    pub fn all() -> [Mode; 5] {
        [
            Mode::O,
            Mode::OSafe,
            Mode::OSafePost,
            Mode::G,
            Mode::GChecked,
        ]
    }
}

/// The observability handles one measurement runs under. Every handle
/// defaults to disabled, so `Instruments::default()` measures bare, and a
/// disabled handle never builds what it would have recorded.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Structured events from every stage: the annotator's audit, the
    /// optimizer's and verifier's per-function events, the collector's
    /// per-collection timeline, the VM run summary, the peephole rewrites
    /// and one `("bench", "cost")` event per machine.
    pub trace: TraceHandle,
    /// gcprof instrumentation of the heap and VM: allocation-size and
    /// sweep histograms, pause phase timings, per-site allocation
    /// counters and an end-of-run heap census.
    pub prof: ProfHandle,
    /// Deterministic heap-graph snapshots, recorded by the VM at its first
    /// allocation (`begin`) and at the end of the run (`end`).
    pub snap: gcsnap::SnapHandle,
}

/// One fully measured build of one program.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Which mode.
    pub mode: Mode,
    /// Execution result (checking mode may legitimately fail).
    pub outcome: Result<ExecOutcome, VmError>,
    /// Cost per machine (keyed by machine name).
    pub costs: BTreeMap<&'static str, CostReport>,
    /// Peephole statistics for [`Mode::OSafePost`].
    pub peephole: Option<PeepholeStats>,
    /// The handles the measurement ran under: read the profile and the
    /// snapshots from here to assemble reports and exports.
    pub instruments: Instruments,
}

impl Measured {
    /// The program output, if the run succeeded.
    pub fn output(&self) -> Option<&[u8]> {
        self.outcome.as_ref().ok().map(|o| o.output.as_slice())
    }
}

/// Compiles `source` in `mode`, runs it on `input`, and costs the
/// assembly on every machine in [`Machine::all`].
///
/// # Errors
///
/// Returns `Err` only for *build* failures; run-time failures (e.g. a
/// pointer-arithmetic check firing) are reported inside
/// [`Measured::outcome`].
pub fn measure_source(source: &str, input: &[u8], mode: Mode) -> Result<Measured, String> {
    measure_source_with(source, input, mode, &Instruments::default())
}

/// Counters of the pipeline's one compilation cache (see
/// [`cvm::compile_traced`]). Counters are cumulative for the process and
/// — like wall-clock timings — are *not* deterministic across `--jobs`
/// levels (racing workers may both miss the same key), so exports treat
/// them as timing-class data.
pub fn cache_stats() -> StageStats {
    cvm::compile_cache_stats()
}

/// Drops every memoized compilation (counters are preserved). Results
/// never change — only compile time does.
pub fn cache_clear() {
    cvm::compile_cache_clear();
}

/// [`measure_source`] under the handles in `ins` (see [`Instruments`]).
/// When both `trace` and `prof` are enabled, the deterministic slice of
/// the profile (size histograms, census — never wall-clock timings) is
/// also mirrored into the trace as `("prof", "histogram")` and
/// `("prof", "census")` events so trace artifacts stay reproducible.
/// Snapshots carry no wall-clock data, so they are byte-identical across
/// repeated runs and any `--jobs` level.
///
/// Compilation is served from the process-global content-hashed cache
/// (see [`cache_stats`]); hits are byte-identical to cold compiles.
///
/// # Errors
///
/// Same as [`measure_source`].
pub fn measure_source_with(
    source: &str,
    input: &[u8],
    mode: Mode,
    ins: &Instruments,
) -> Result<Measured, String> {
    let Instruments { trace, prof, snap } = ins;
    let prog = cvm::compile_traced(source, &mode.compile_options(), trace)?;
    let vm_opts = VmOptions {
        input: input.to_vec(),
        trace: trace.clone(),
        prof: prof.clone(),
        snap: snap.clone(),
        ..VmOptions::default()
    };
    let outcome = cvm::run_compiled(&prog, &vm_opts);
    let mut costs = BTreeMap::new();
    let mut peephole = None;
    for machine in Machine::all() {
        let mut asm = asmpost::codegen_program(&prog, &machine);
        // The `-O` baseline is postprocessed as well: gcc's -O2 output (the
        // paper's baseline) is already peephole-clean, while our one-pass
        // code generator leaves generic copy/fusion slack that would
        // otherwise understate every overhead column.
        if matches!(mode, Mode::OSafePost | Mode::O) {
            // Peephole events are emitted once, for the machine whose stats
            // the tables report (each machine's rewrite sequence is
            // identical; repeating it per machine would triple the trace).
            let first_machine = peephole.is_none() && mode == Mode::OSafePost;
            let stats = if first_machine {
                asmpost::postprocess_program_traced(&mut asm, trace)
            } else {
                asmpost::postprocess_program(&mut asm)
            };
            if mode == Mode::OSafePost {
                peephole.get_or_insert(stats);
            }
        }
        if let Ok(out) = &outcome {
            let cost = asmpost::measure(&asm, &out.profile, &machine);
            trace.emit(|| {
                Event::new("bench", "cost")
                    .field("mode", mode.label())
                    .field("machine", machine.name)
                    .field("cycles", cost.cycles)
                    .field("size_bytes", cost.size_bytes)
            });
            costs.insert(machine.name, cost);
        }
    }
    if trace.is_enabled() && prof.is_enabled() {
        if let Some(data) = prof.snapshot() {
            // Only the deterministic slice crosses into the trace: traces
            // are compared byte-for-byte in tests and across --jobs, so
            // wall-clock histograms (pause/mark/sweep) stay out.
            for (name, h) in [
                ("alloc_size", &data.alloc_size),
                ("sweep_freed_bytes", &data.sweep_freed_bytes),
            ] {
                trace.emit(|| {
                    Event::histogram(name, h.count(), h.sum(), encode_buckets(h.counts()))
                        .field("mode", mode.label())
                });
            }
            if let Some(census) = &data.census {
                trace.emit(|| {
                    Event::new("prof", "census")
                        .field("mode", mode.label())
                        .field("live_objects", census.live_objects)
                        .field("live_bytes", census.live_bytes)
                        .field("small_pages", census.small_pages)
                        .field("large_pages", census.large_pages)
                        .field("free_pages", census.free_pages)
                        .field("fragmentation_permille", census.fragmentation_permille())
                });
            }
        }
    }
    Ok(Measured {
        mode,
        outcome,
        costs,
        peephole,
        instruments: ins.clone(),
    })
}

/// A table cell: a percentage, a failure marker, or absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// Percent slowdown / expansion relative to the baseline.
    Pct(i64),
    /// The run failed (the paper's `<fails>` for checked gawk).
    Fails,
    /// Not measured.
    Dash,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Pct(p) => write!(f, "{p}%"),
            Cell::Fails => write!(f, "<fails>"),
            Cell::Dash => write!(f, "-"),
        }
    }
}

/// One row of a slowdown/size table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub name: &'static str,
    /// Cells keyed by mode.
    pub cells: Vec<(Mode, Cell)>,
}

/// Measures one workload in every mode.
///
/// # Errors
///
/// Returns `Err` if any build fails or if two successful modes disagree on
/// program output (a miscompilation guard).
pub fn measure_workload(w: &Workload, scale: Scale) -> Result<BTreeMap<Mode, Measured>, String> {
    let input = (w.input)(scale);
    let mut results = BTreeMap::new();
    for mode in Mode::all() {
        results.insert(mode, measure_source(w.source, &input, mode)?);
    }
    check_workload_agreement(w, &results)?;
    Ok(results)
}

/// The default worker count for parallel drivers (the bench matrix,
/// the fuzzer campaign): the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The cross-mode output-divergence check: every successful mode must
/// reproduce the `-O` baseline's output byte-for-byte (the repository's
/// miscompilation guard), and the only tolerated failure is the checked
/// mode aborting on a workload that is expected to (the paper's gawk
/// `<fails>` cell). Runs against assembled results, so it gives the same
/// verdict whether the cells were measured serially or out of order.
///
/// # Errors
///
/// Returns a message naming the workload and mode that failed or
/// diverged.
pub fn check_workload_agreement(
    w: &Workload,
    results: &BTreeMap<Mode, Measured>,
) -> Result<(), String> {
    let baseline = results[&Mode::O]
        .output()
        .ok_or_else(|| {
            format!(
                "{}: baseline run failed: {:?}",
                w.name,
                results[&Mode::O].outcome
            )
        })?
        .to_vec();
    for (mode, m) in results {
        match &m.outcome {
            Ok(out) => {
                if out.output != baseline {
                    return Err(format!(
                        "{}: {} output diverges from baseline",
                        w.name,
                        mode.label()
                    ));
                }
            }
            Err(VmError::CheckFailed { .. }) if *mode == Mode::GChecked && w.checked_fails => {}
            Err(e) => {
                return Err(format!("{}: {} failed: {e}", w.name, mode.label()));
            }
        }
    }
    Ok(())
}

/// Builds the slowdown row for one workload on one machine
/// (`-O safe`, `-g`, `-g checked` relative to `-O`).
pub fn slowdown_row(results: &BTreeMap<Mode, Measured>, machine: &str, name: &'static str) -> Row {
    let base = &results[&Mode::O].costs[machine];
    let cell = |mode: Mode| -> Cell {
        let m = &results[&mode];
        match &m.outcome {
            Ok(_) => Cell::Pct(m.costs[machine].slowdown_pct(base)),
            Err(_) => Cell::Fails,
        }
    };
    Row {
        name,
        cells: vec![
            (Mode::OSafe, cell(Mode::OSafe)),
            (Mode::G, cell(Mode::G)),
            (Mode::GChecked, cell(Mode::GChecked)),
        ],
    }
}

/// Builds the code-size expansion row (static bytes, processed code only).
pub fn codesize_row(results: &BTreeMap<Mode, Measured>, machine: &str, name: &'static str) -> Row {
    let base = &results[&Mode::O].costs[machine];
    let cell = |mode: Mode| -> Cell {
        let m = &results[&mode];
        if m.costs.contains_key(machine) {
            Cell::Pct(m.costs[machine].expansion_pct(base))
        } else {
            Cell::Fails
        }
    };
    Row {
        name,
        cells: vec![
            (Mode::OSafe, cell(Mode::OSafe)),
            (Mode::G, cell(Mode::G)),
            (Mode::GChecked, cell(Mode::GChecked)),
        ],
    }
}

/// Builds the postprocessor row: residual running-time and code-size
/// degradation of postprocessed safe code vs the optimized baseline.
pub fn postprocessor_row(
    results: &BTreeMap<Mode, Measured>,
    machine: &str,
    name: &'static str,
) -> Row {
    let base = &results[&Mode::O].costs[machine];
    let post = &results[&Mode::OSafePost];
    let time = match &post.outcome {
        Ok(_) => Cell::Pct(post.costs[machine].slowdown_pct(base)),
        Err(_) => Cell::Fails,
    };
    let size = Cell::Pct(post.costs[machine].expansion_pct(base));
    Row {
        name,
        cells: vec![(Mode::OSafePost, time), (Mode::OSafePost, size)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r#"
        char f(char *p, long i) { return p[i - 3]; }
        int main(void) {
            char *b = (char *) malloc(64);
            long i;
            for (i = 0; i < 64; i++) b[i] = (char)(i * 2);
            putint(f(b, 13));
            return 0;
        }
    "#;

    #[test]
    fn mode_labels_and_options() {
        assert_eq!(Mode::O.label(), "-O");
        assert_eq!(Mode::GChecked.label(), "-g, checked");
        assert!(Mode::OSafe.compile_options().annotate.is_some());
        assert!(Mode::G.compile_options().lower.all_locals_in_memory);
        assert_eq!(Mode::all().len(), 5);
    }

    #[test]
    fn mode_keys_are_flamegraph_safe() {
        for mode in Mode::all() {
            let k = mode.key();
            assert!(
                k.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
                "{k}"
            );
        }
        let keys: std::collections::BTreeSet<_> = Mode::all().iter().map(|m| m.key()).collect();
        assert_eq!(keys.len(), 5, "keys are distinct");
    }

    #[test]
    fn instrumented_measurement_profiles_and_traces() {
        let prof = ProfHandle::enabled();
        let (trace, sink) = TraceHandle::memory();
        let ins = Instruments {
            trace,
            prof: prof.clone(),
            ..Instruments::default()
        };
        let m = measure_source_with(TOY, b"", Mode::OSafe, &ins).expect("builds");
        assert!(m.instruments.prof.is_enabled());
        let data = prof.snapshot().expect("profile data");
        assert!(data.alloc_size.count() > 0, "allocation sizes recorded");
        assert!(!data.sites.is_empty(), "allocation sites attributed");
        assert!(
            data.sites.keys().all(|k| k.contains("malloc@")),
            "{:?}",
            data.sites
        );
        let census = data.census.expect("final census");
        assert!(census.live_bytes > 0);
        let events = sink.snapshot();
        let hists = events
            .iter()
            .filter(|e| e.stage == "prof" && e.kind == "histogram")
            .count();
        assert_eq!(hists, 2, "alloc_size + sweep_freed_bytes");
        assert_eq!(
            events
                .iter()
                .filter(|e| e.stage == "prof" && e.kind == "census")
                .count(),
            1
        );
        // The untraced, unprofiled path stays unaffected.
        let plain = measure_source(TOY, b"", Mode::OSafe).expect("builds");
        assert!(!plain.instruments.prof.is_enabled());
        assert!(plain.instruments.prof.snapshot().is_none());
    }

    #[test]
    fn cell_display() {
        assert_eq!(Cell::Pct(12).to_string(), "12%");
        assert_eq!(Cell::Fails.to_string(), "<fails>");
        assert_eq!(Cell::Dash.to_string(), "-");
    }

    #[test]
    fn measure_source_produces_costs_for_all_machines() {
        for mode in Mode::all() {
            let m = measure_source(TOY, b"", mode).expect("builds");
            let out = m.outcome.expect("runs");
            assert_eq!(out.output, b"20");
            assert_eq!(m.costs.len(), 3, "{:?}", m.costs.keys());
            for cost in m.costs.values() {
                assert!(cost.cycles > 0);
                assert!(cost.size_bytes > 0);
            }
            if mode == Mode::OSafePost {
                assert!(m.peephole.is_some());
            }
        }
    }

    #[test]
    fn safe_mode_costs_at_least_baseline() {
        let base = measure_source(TOY, b"", Mode::O).expect("builds");
        let safe = measure_source(TOY, b"", Mode::OSafe).expect("builds");
        for (machine, b) in &base.costs {
            let s = &safe.costs[machine];
            assert!(s.cycles >= b.cycles, "{machine}");
            assert!(s.size_bytes >= b.size_bytes, "{machine}");
        }
    }
}
