//! Prints every table and figure of the paper.
//!
//! Usage: `tables [sparc2|sparc10|pentium90|codesize|postprocessor|ablations|
//!                 compare|analysis|spills|all]
//!                [--tiny] [--jobs N] [--trace <file.jsonl>]
//!                [--prof <file.prom>] [--folded <file.txt>]
//!                [--bench-json <file.json>] [--repeat N]
//!                [--timeline <file.json>] [--snap-dir <dir>]`
//!
//! An unknown table or flag, a repeated flag, a flag missing its value,
//! or a value starting with `-` exits with status 2 before anything is
//! measured. So does any flag but `--tiny` and `--jobs` on `analysis` or
//! `spills`, which measure no matrix for the other flags to export, and
//! `--repeat` without the `--bench-json` trajectory it folds.
//!
//! The 4 workloads × 5 modes measurement matrix runs in parallel across
//! `--jobs N` worker threads (default: all cores); every table and trace
//! is byte-identical to a `--jobs 1` serial run.
//!
//! With `--trace`, every pipeline stage's events (annotation audit,
//! optimizer rewrites, verifier verdicts, GC timeline, peephole rewrites,
//! VM run summaries) are appended to `<file.jsonl>` as one JSON object
//! per line, and a human-readable summary is printed at the end.
//!
//! With `--prof`, every cell runs under gcprof instrumentation: the
//! Prometheus exposition is written to `<file.prom>` (validated before it
//! lands) and the human profile report is printed. `--folded`
//! additionally writes flamegraph-folded allocation stacks.
//!
//! With `--timeline`, the per-collection attribution log is exported as a
//! Chrome Trace Event Format document (load it at `ui.perfetto.dev`); the
//! clock is virtual, so the file is byte-identical at any `--jobs`.
//! `--timeline` implies profiling for the matrix cells.
//!
//! `--bench-json` writes the `gc/1` perf trajectory. `--repeat N` reruns
//! the whole measurement N times and writes the median of every
//! wall-clock field (the minimum for `max_pause_ns`, a per-run maximum
//! that noise can only inflate) with a `<field>_mad` noise estimate,
//! asserting every deterministic count identical across repeats. Cells
//! that collected fewer than `MIN_COLLECTIONS` times are reported on
//! stderr.
//!
//! With `--snap-dir`, every matrix cell records deterministic heap-graph
//! snapshots at its first allocation (`begin`) and end of run (`end`),
//! and each is written to `<dir>/{workload}__{mode}__{label}.json` in
//! the versioned `snap/1` schema, round-trip validated before it lands.
//! Snapshots carry no wall-clock data, so the files are byte-identical
//! at any `--jobs` and across cold/warm compilation caches. Diff a pair
//! with `bench snap diff`.

use gc_safety::{Instruments, JsonlSink, ProfHandle, TraceHandle};
use gcbench::*;
use gcsnap::SnapHandle;
use std::collections::HashMap;
use std::sync::Arc;
use workloads::Scale;

/// The tables `tables` can print; the first positional argument picks
/// one (default `all`).
const TABLES: &[&str] = &[
    "sparc2",
    "sparc10",
    "pentium90",
    "codesize",
    "postprocessor",
    "ablations",
    "compare",
    "analysis",
    "spills",
    "all",
];

/// Every flag `tables` accepts, and whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--tiny", false),
    ("--jobs", true),
    ("--trace", true),
    ("--prof", true),
    ("--folded", true),
    ("--bench-json", true),
    ("--repeat", true),
    ("--timeline", true),
    ("--snap-dir", true),
];

/// Parses the command line into the table name and the given flags
/// (valueless flags map to an empty string). Rejects unknown flags,
/// repeated flags, missing values, values that look like flags, extra
/// positional arguments, and unknown table names — all before anything
/// is measured.
fn parse_args(args: &[String]) -> Result<(String, HashMap<&'static str, String>), String> {
    let mut what: Option<String> = None;
    let mut flags: HashMap<&'static str, String> = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if let Some(first) = &what {
                return Err(format!("unexpected argument '{arg}' after table '{first}'"));
            }
            if !TABLES.contains(&arg.as_str()) {
                return Err(format!(
                    "unknown table '{arg}' (expected one of: {})",
                    TABLES.join(", ")
                ));
            }
            what = Some(arg.clone());
            continue;
        }
        let Some(&(name, takes_value)) = FLAGS.iter().find(|(f, _)| f == arg) else {
            return Err(format!("unknown flag '{arg}'"));
        };
        let value = if takes_value {
            match it.next() {
                Some(v) if !v.starts_with('-') => v.clone(),
                Some(v) => return Err(format!("{name} requires a value, got flag-like '{v}'")),
                None => return Err(format!("{name} requires a value")),
            }
        } else {
            String::new()
        };
        if flags.insert(name, value).is_some() {
            return Err(format!("{name} given more than once"));
        }
    }
    Ok((what.unwrap_or_else(|| "all".to_string()), flags))
}

/// Exits with status 2 and a usage error.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value of `r`, or exits with status 1 and its error.
fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// The positive integer value of `flag`, or `default` when absent.
fn positive(flags: &HashMap<&str, String>, flag: &str, default: usize) -> usize {
    match flags.get(flag) {
        None => default,
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => usage_error(&format!("{flag} takes a positive integer, got '{n}'")),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, flags) = parse_args(&args).unwrap_or_else(|e| usage_error(&e));
    let what = what.as_str();
    let flag = |name: &str| flags.get(name).map(String::as_str);
    let scale = if flags.contains_key("--tiny") {
        Scale::Tiny
    } else {
        Scale::Paper
    };
    let trace_path = flag("--trace");
    let prof_path = flag("--prof");
    let folded_path = flag("--folded");
    let bench_json_path = flag("--bench-json");
    let timeline_path = flag("--timeline");
    let snap_dir = flag("--snap-dir");
    if matches!(what, "analysis" | "spills") {
        let unused = FLAGS
            .iter()
            .map(|&(name, _)| name)
            .find(|name| !matches!(*name, "--tiny" | "--jobs") && flags.contains_key(name));
        if let Some(name) = unused {
            usage_error(&format!(
                "{name} does not apply to '{what}', which measures no matrix \
                 (only --tiny and --jobs are accepted)"
            ));
        }
    }
    if folded_path.is_some() && prof_path.is_none() {
        usage_error("--folded requires --prof (profiling must be enabled)");
    }
    if flags.contains_key("--repeat") && bench_json_path.is_none() {
        usage_error("--repeat requires --bench-json (it folds repeated trajectory runs)");
    }
    let repeat = positive(&flags, "--repeat", 1);
    let jobs = positive(&flags, "--jobs", gc_safety::default_jobs());
    let trace = match trace_path {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot create trace file '{path}': {e}");
                    std::process::exit(1);
                }
            };
            TraceHandle::new(Arc::new(JsonlSink::new(Box::new(file))))
        }
        None => TraceHandle::disabled(),
    };

    if what == "analysis" {
        println!("{}", analysis_listing());
        return;
    }
    if what == "spills" {
        println!("{}", register_pressure_report());
        return;
    }
    // The timeline and the trajectory's attribution/MMU fields are built
    // from the per-collection log, so both exports profile the matrix
    // cells just like --prof does (the overhead is uniform across modes,
    // keeping the trajectory self-comparable).
    let prof_on = prof_path.is_some() || timeline_path.is_some() || bench_json_path.is_some();
    let ins = Instruments {
        trace,
        prof: prof_on.then(ProfHandle::enabled).unwrap_or_default(),
        snap: snap_dir.map(|_| SnapHandle::enabled()).unwrap_or_default(),
    };
    let data = or_exit(collect(scale, jobs, &ins));
    match what {
        "sparc2" => print!("{}", slowdown_table(&data, "sparc2")),
        "sparc10" => print!("{}", slowdown_table(&data, "sparc10")),
        "pentium90" => print!("{}", slowdown_table(&data, "pentium90")),
        "codesize" => print!("{}", codesize_table(&data)),
        "postprocessor" => print!("{}", postprocessor_table(&data)),
        "ablations" => {
            let cycles = or_exit(opt_cycles(scale));
            print!("{}", or_exit(ablation_table(scale, &cycles)));
        }
        "compare" => print!("{}", paper_comparison(&data)),
        "all" => {
            println!("Run-time slowdown relative to '-O' (E1-E3)\n");
            for key in ["sparc2", "sparc10", "pentium90"] {
                println!("{}", slowdown_table(&data, key));
            }
            println!("{}", codesize_table(&data));
            println!();
            println!("{}", postprocessor_table(&data));
            println!();
            // The ablation table's `-O` column is the full-registry row
            // of the optimizer cycle table: one `-O` build serves both.
            let cycles = or_exit(opt_cycles(scale));
            println!("{}", or_exit(ablation_table(scale, &cycles)));
            println!();
            println!(
                "Paper vs measured (shape verdicts):\n{}",
                paper_comparison(&data)
            );
            println!("{}", register_pressure_report());

            let sweep = or_exit(opt_pass_fires());
            println!("{}", opt_report(&sweep));
            let zero = zero_fire_passes(&sweep);
            if !zero.is_empty() {
                eprintln!(
                    "warning: {} registered pass(es) never fired on the paper workloads \
                     at -O and -O safe (regressed matching or a pass they never exercise): {}",
                    zero.len(),
                    zero.join(", ")
                );
            }
            println!("{}", opt_cycles_table(&cycles));
            println!("Analysis listing (F1):\n{}", analysis_listing());
        }
        other => unreachable!("parse_args admits only known tables, got '{other}'"),
    }
    let micro = if bench_json_path.is_some() || timeline_path.is_some() {
        Some(gc_microbench(scale == Scale::Tiny))
    } else {
        None
    };
    if let Some(path) = bench_json_path {
        // The perf trajectory: matrix-cell collector stats plus the
        // heap-direct collection microbench, validated before it lands.
        let micro = micro
            .as_deref()
            .expect("micro runs whenever bench-json is requested");
        let mut text = bench_gc_json(&data, micro);
        if repeat > 1 {
            // Robust statistics: rerun the whole measurement and fold
            // the runs (median wall-clock fields, min for the per-run
            // maximum max_pause_ns, MAD as the noise estimate `bench
            // compare` prints). Deterministic counts must not move
            // between repeats; aggregate() enforces that.
            let mut runs = Vec::with_capacity(repeat);
            match gcwatch::stats::parse_cells(&text) {
                Ok(cells) => runs.push(cells),
                Err(e) => {
                    eprintln!("error: generated gc bench json does not parse: {e}");
                    std::process::exit(1);
                }
            }
            // The reruns feed only the trajectory: no trace, no snapshots.
            let prof_only = Instruments {
                prof: ins.prof.clone(),
                ..Instruments::default()
            };
            for r in 1..repeat {
                let rerun = collect(scale, jobs, &prof_only).and_then(|d| {
                    let m = gc_microbench(scale == Scale::Tiny);
                    gcwatch::stats::parse_cells(&bench_gc_json(&d, &m))
                });
                match rerun {
                    Ok(cells) => runs.push(cells),
                    Err(e) => {
                        eprintln!("error: repeat {r} failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            text = match gcwatch::aggregate(&runs) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: aggregating {repeat} repeats: {e}");
                    std::process::exit(1);
                }
            };
        }
        match validate_bench_gc_json(&text) {
            Ok(cells) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("error: cannot write gc bench json '{path}': {e}");
                    std::process::exit(1);
                }
                println!("\ngc perf trajectory: {cells} cells written to {path}");
            }
            Err(e) => {
                eprintln!("error: generated gc bench json does not validate: {e}");
                std::process::exit(1);
            }
        }
        match low_collection_cells(&text, MIN_COLLECTIONS) {
            Ok(low) if !low.is_empty() => {
                let cells: Vec<String> =
                    low.iter().map(|(key, n)| format!("{key} ({n})")).collect();
                eprintln!(
                    "warning: {} cell(s) collected fewer than {MIN_COLLECTIONS} times — \
                     their pause statistics are under-sampled: {}",
                    low.len(),
                    cells.join(", ")
                );
            }
            Ok(_) => {}
            Err(e) => eprintln!("warning: low-collection scan failed: {e}"),
        }
    }
    if let Some(path) = timeline_path {
        let micro = micro
            .as_deref()
            .expect("micro runs whenever timeline is requested");
        let text = gcwatch::chrome_trace(&timeline_cells(&data, micro));
        match gcwatch::validate_chrome_trace(&text) {
            Ok(events) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("error: cannot write timeline '{path}': {e}");
                    std::process::exit(1);
                }
                println!("\ncollection timeline: {events} trace events written to {path} (load at ui.perfetto.dev)");
            }
            Err(e) => {
                eprintln!("error: generated timeline does not validate: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = prof_path {
        let prom = prometheus_export(&data);
        match gc_safety::prom::validate(&prom) {
            Ok(samples) => {
                if let Err(e) = std::fs::write(path, &prom) {
                    eprintln!("error: cannot write prometheus export '{path}': {e}");
                    std::process::exit(1);
                }
                println!("\nprometheus export: {samples} samples written to {path}");
            }
            Err(e) => {
                eprintln!("error: generated prometheus text does not parse: {e}");
                std::process::exit(1);
            }
        }
        if let Some(folded) = folded_path {
            if let Err(e) = std::fs::write(folded, folded_export(&data)) {
                eprintln!("error: cannot write folded stacks '{folded}': {e}");
                std::process::exit(1);
            }
            println!("flamegraph folded stacks written to {folded}");
        }
        println!();
        print!("{}", prof_report(&data));
    }
    if let Some(dir) = snap_dir {
        // Heap-graph snapshots, one `snap/1` document per (cell, label),
        // each round-trip validated before it lands on disk.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create snapshot dir '{dir}': {e}");
            std::process::exit(1);
        }
        match snap_exports(&data) {
            Ok(exports) => {
                let n = exports.len();
                for (name, json) in exports {
                    let path = format!("{dir}/{name}");
                    if let Err(e) = std::fs::write(&path, &json) {
                        eprintln!("error: cannot write snapshot '{path}': {e}");
                        std::process::exit(1);
                    }
                }
                println!("\nheap snapshots: {n} snap/1 documents written to {dir}/");
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    // The process-cumulative compile-cache counters as one ("cache",
    // "stats") event, so traces record how much of the run the cache
    // absorbed. Emitted last: the counters cover everything above.
    ins.trace.emit(|| {
        let s = gc_safety::cache_stats();
        gc_safety::Event::new("cache", "stats")
            .field("stage", s.stage)
            .field("hits", s.hits)
            .field("misses", s.misses)
            .field("evictions", s.evictions)
            .field("entries", s.entries)
    });
    if let Some(path) = trace_path {
        // `File` writes are unbuffered, so the JSONL is already on disk
        // even though `data` still holds handle clones.
        match std::fs::read_to_string(path) {
            Ok(jsonl) => {
                println!();
                print!("{}", trace_report(&jsonl));
                println!("trace written to {path}");
            }
            Err(e) => eprintln!("error: cannot read back trace '{path}': {e}"),
        }
    }
}
