//! Golden pin of the collector's and the VM's deterministic output.
//!
//! Every collection path — stop-the-world, nursery, incremental cycles
//! with chunked sweeps, demanded finishes — is driven here and its
//! deterministic results are compared line for line against
//! `tests/golden/gc.txt`: the [`HeapStats`] counters, the heap census,
//! and one line per [`CollectionRecord`] with every field except the
//! wall-clock ones (`*_ns`, `class_sweep_ns`, `increment_pauses`).
//! Each workload run also pins what the VM itself reports: the exit
//! code or error text, the step count, the dynamic instruction count,
//! the builtin call counts and byte work, and FNV-1a digests of the
//! output bytes and of the per-block execution counts.
//!
//! Two sets of runs feed the log:
//!
//! * the four paper workloads at `Scale::Tiny`, built `-O`, `-O, safe`
//!   (`KeepLive`), `-g` and `-g, checked` (`CheckSame`, and gawk's
//!   checking-mode failure), under the default collector and under
//!   `HeapConfig::bounded_pause`, both with a lowered threshold so
//!   every run collects several times;
//! * one seeded schedule driven straight against the heap (heap-to-heap
//!   links, barriered word and range stores, explicit collections,
//!   large objects) under the default, incremental-only, and
//!   bounded-pause configurations.
//!
//! On a mismatch the test prints the freshly generated log, so an
//! intended change to the collector's output can be reviewed as a diff
//! of the golden file.

mod common;

use common::{vm_line, Rng};
use cvm::{CompileOptions, VmOptions};
use gcheap::{CollectionRecord, GcHeap, HeapConfig, HeapStats, Memory, RootSet};
use gcprof::{HeapCensus, ProfHandle};
use std::fmt::Write;
use workloads::Scale;

const GOLDEN: &str = include_str!("golden/gc.txt");

/// Threshold for the workload runs: tiny inputs allocate between 5 and
/// 90 KiB of slots, far below the default 256 KiB trigger.
const WORKLOAD_THRESHOLD: u64 = 1024;

/// Step budget for the workload runs: the largest pinned run takes
/// 1,232,524 steps, so a change that makes a run loop fails in seconds
/// instead of running out `VmOptions::default()`'s two billion steps.
const WORKLOAD_MAX_STEPS: u64 = 20_000_000;

fn stats_line(s: &HeapStats) -> String {
    format!(
        "stats collections={} allocations={} bytes_requested={} failed_allocations={} \
         pages_reclaimed={} pages_swept_lazily={} sweep_debt_pages={} objects_freed={} \
         objects_live={} bytes_live={} same_obj_checks={} same_obj_failures={} \
         blacklisted_pages={} threshold={} emergency={} explicit={} increment_finish={} \
         nursery={} mark_increments={} sweep_increments={} barrier_marks={} peak_bytes_live={}",
        s.collections,
        s.allocations,
        s.bytes_requested,
        s.failed_allocations,
        s.pages_reclaimed,
        s.pages_swept_lazily,
        s.sweep_debt_pages,
        s.objects_freed,
        s.objects_live,
        s.bytes_live,
        s.same_obj_checks,
        s.same_obj_failures,
        s.blacklisted_pages,
        s.collections_threshold,
        s.collections_emergency,
        s.collections_explicit,
        s.collections_increment_finish,
        s.collections_nursery,
        s.mark_increments,
        s.sweep_increments,
        s.barrier_marks,
        s.peak_bytes_live,
    )
}

fn census_line(c: &HeapCensus) -> String {
    let classes: Vec<String> = c
        .classes
        .iter()
        .map(|k| {
            format!(
                "{}:{}/{}/{}/{}",
                k.obj_size, k.pages, k.slots, k.live_objects, k.live_bytes
            )
        })
        .collect();
    format!(
        "census classes=[{}] large={}/{}/{} small_pages={} small_capacity={} free_pages={} \
         pages_total={} blacklisted={} deciles={:?} live={}/{}",
        classes.join(" "),
        c.large_objects,
        c.large_bytes,
        c.large_pages,
        c.small_pages,
        c.small_capacity_bytes,
        c.free_pages,
        c.pages_total,
        c.blacklisted_pages,
        c.occupancy_deciles,
        c.live_objects,
        c.live_bytes,
    )
}

fn record_line(r: &CollectionRecord) -> String {
    format!(
        "gc cause={} site={} bytes_since_gc={} bytes_live={} freed_bytes={} roots_scanned={} \
         words_marked={} pages_live={} pages_swept={} sweep_debt_pages={} increments={} \
         increment_words={} young_pages_swept={}",
        r.cause.as_str(),
        r.site.as_deref().unwrap_or("-"),
        r.bytes_since_gc,
        r.bytes_live,
        r.freed_bytes,
        r.roots_scanned,
        r.words_marked,
        r.pages_live,
        r.pages_swept,
        r.sweep_debt_pages,
        r.increments,
        r.increment_words_encoded(),
        r.young_pages_swept,
    )
}

fn log_profile(log: &mut String, prof: &ProfHandle) {
    let data = prof.snapshot().expect("profile is enabled");
    for r in &data.collection_log {
        writeln!(log, "  {}", record_line(r)).unwrap();
    }
    if let Some(c) = &data.census {
        writeln!(log, "  {}", census_line(c)).unwrap();
    }
}

fn workload_runs(log: &mut String) {
    let configs = [
        ("default", HeapConfig::default()),
        ("bounded", HeapConfig::bounded_pause()),
    ];
    let modes = [
        ("-O", CompileOptions::optimized()),
        ("-O, safe", CompileOptions::optimized_safe()),
        ("-g", CompileOptions::debug()),
        ("-g, checked", CompileOptions::debug_checked()),
    ];
    for w in workloads::all() {
        let input = (w.input)(Scale::Tiny);
        for (mode, copts) in &modes {
            let prog = cvm::compile(w.source, copts)
                .unwrap_or_else(|e| panic!("{} {mode}: compile: {e}", w.name));
            for (cname, config) in &configs {
                let prof = ProfHandle::enabled();
                let vopts = VmOptions {
                    heap_config: HeapConfig {
                        gc_threshold: WORKLOAD_THRESHOLD,
                        ..config.clone()
                    },
                    input: input.clone(),
                    prof: prof.clone(),
                    max_steps: WORKLOAD_MAX_STEPS,
                    ..VmOptions::default()
                };
                writeln!(log, "run {} {mode} {cname}", w.name).unwrap();
                match cvm::run_compiled(&prog, &vopts) {
                    Ok(out) => writeln!(
                        log,
                        "  exit={} {}\n  {}",
                        out.exit_code,
                        stats_line(&out.heap),
                        vm_line(&prog, &out)
                    ),
                    Err(e) => writeln!(log, "  error={e}"),
                }
                .unwrap();
                log_profile(log, &prof);
            }
        }
    }
}

/// A churning object graph: rooted objects, heap-to-heap links stored
/// through the barrier, bulk copies reported as range stores, periodic
/// multi-page buffers that eventually exhaust the heap's contiguous
/// region (emergency collections, failed allocations), and explicit
/// collections demanded mid-cycle and mid-sweep.
fn heap_schedule(config: HeapConfig) -> (HeapStats, HeapCensus, ProfHandle) {
    let mut mem = Memory::new(1 << 12, 1 << 12, 768 << 10);
    let mut heap = GcHeap::new(&mem, config);
    let prof = ProfHandle::enabled();
    heap.set_prof(prof.clone());
    // Seeded identically under every configuration.
    let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15);
    let mut live: Vec<u64> = Vec::new();
    let mut was_marking = false;
    for i in 0..6000u64 {
        let size = if i % 97 == 96 {
            4096 + rng.below(3 * 4096)
        } else {
            8 + rng.below(300)
        };
        let mut roots = RootSet::new();
        for &a in &live {
            roots.add_word(a);
        }
        // Demand a collection now and then: periodically, during a
        // mark cycle, and right after one ends while its sweep may still
        // be retiring chunks.
        let marking = heap.marking_active();
        if i % 1499 == 1498 || (marking && rng.below(4) == 0) || (was_marking && !marking) {
            heap.collect(&mut mem, &roots);
        }
        was_marking = heap.marking_active();
        let Ok(a) = heap.alloc_with_roots(&mut mem, size, &roots) else {
            continue;
        };
        if !live.is_empty() && rng.below(3) != 0 {
            // Link: the new object hangs off a random rooted one.
            let src = live[rng.below(live.len() as u64) as usize];
            let off = 8 * rng.below(2);
            mem.write(src + off, 8, a).expect("object is mapped");
            if heap.barrier_active() {
                heap.write_barrier(src + off, a);
            }
        }
        if live.len() >= 2 && rng.below(16) == 0 {
            // Bulk copy of two words between rooted objects.
            let from = live[rng.below(live.len() as u64) as usize];
            let to = live[rng.below(live.len() as u64) as usize];
            for k in 0..2 {
                let word = mem.read(from + 8 * k, 8).expect("object is mapped");
                mem.write(to + 8 * k, 8, word).expect("object is mapped");
            }
            if heap.barrier_active() {
                heap.write_barrier_range(&mem, to, 16);
            }
        }
        live.push(a);
        if live.len() > 160 {
            let idx = rng.below(live.len() as u64) as usize;
            live.swap_remove(idx);
        }
    }
    let mut roots = RootSet::new();
    for &a in &live {
        roots.add_word(a);
    }
    heap.collect(&mut mem, &roots);
    heap.sweep_all();
    (heap.stats(), heap.census(), prof)
}

fn schedule_runs(log: &mut String) {
    let configs = [
        ("default", HeapConfig::default()),
        (
            "incremental",
            HeapConfig {
                incremental: true,
                ..HeapConfig::default()
            },
        ),
        ("bounded", HeapConfig::bounded_pause()),
    ];
    for (cname, config) in configs {
        writeln!(log, "schedule {cname}").unwrap();
        let (stats, census, prof) = heap_schedule(config);
        writeln!(log, "  {}", stats_line(&stats)).unwrap();
        writeln!(log, "  {}", census_line(&census)).unwrap();
        log_profile(log, &prof);
    }
}

#[test]
fn collector_output_matches_the_golden_log() {
    let mut log = String::new();
    workload_runs(&mut log);
    schedule_runs(&mut log);
    if log != GOLDEN {
        let first = log
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(log.lines().count().min(GOLDEN.lines().count()));
        eprintln!("----- fresh collector log -----\n{log}----- end -----");
        panic!(
            "collector output diverged from tests/golden/gc.txt at line {} \
             (fresh log printed above)",
            first + 1
        );
    }
}
