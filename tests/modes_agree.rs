//! Cross-mode agreement: every workload produces identical output under
//! `-O`, `-O safe`, `-O safe+post`, and `-g`; `-g checked` agrees too
//! unless the workload contains the pointer bug the checker exists to
//! catch. This is the repository's strongest miscompilation guard.
//!
//! One measurement pass per workload feeds all assertions (measuring is
//! the expensive part: 5 modes × VM run × 3 machine codegens), and the
//! four passes run on scoped worker threads — measuring is embarrassingly
//! parallel across workloads, and every measured quantity the assertions
//! read is a deterministic cycle count.

use gc_safety::{measure_workload, Mode, VmError};
use gctrace::{TraceHandle, Value};
use workloads::Scale;

#[test]
fn workloads_behave_like_the_paper_says() {
    let measured: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = workloads::all()
            .into_iter()
            .map(|w| {
                s.spawn(move || {
                    let r = measure_workload(&w, Scale::Tiny)
                        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                    (w, r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("measurement worker panicked"))
            .collect()
    });
    let mut total_allocs = 0;
    for (w, results) in measured {
        // 1. Cross-mode output agreement.
        let baseline = results[&Mode::O].output().expect("baseline runs").to_vec();
        assert!(!baseline.is_empty(), "{} produces output", w.name);
        for (mode, m) in &results {
            match &m.outcome {
                Ok(out) => assert_eq!(
                    out.output,
                    baseline,
                    "{}: {} diverges",
                    w.name,
                    mode.label()
                ),
                Err(VmError::CheckFailed { func, .. })
                    if *mode == Mode::GChecked && w.checked_fails =>
                {
                    // 2. The paper: gawk "immediately and correctly
                    //    detected a pointer arithmetic error".
                    assert_eq!(w.name, "gawk");
                    assert_eq!(func, "main", "the fields-1 idiom lives in main");
                }
                Err(e) => panic!("{}: {} failed: {e}", w.name, mode.label()),
            }
        }

        // 3. Clean workloads pass the checker (paper: gs had no errors;
        //    cordtest passed after its one benign bug was fixed).
        if !w.checked_fails {
            assert!(
                results[&Mode::GChecked].outcome.is_ok(),
                "{} must pass checking: {:?}",
                w.name,
                results[&Mode::GChecked].outcome
            );
        }

        // 4. Allocation intensity ("very pointer and allocation
        //    intensive") and annotation coverage.
        let heap = results[&Mode::O].outcome.as_ref().expect("ran").heap;
        assert!(heap.allocations > 10, "{} barely allocates", w.name);
        total_allocs += heap.allocations;

        // 5. Safe-mode cost is bounded: never slower than the fully
        //    debuggable build on any machine.
        for machine in ["SPARCstation 2", "SPARC 10", "Pentium 90"] {
            let base = &results[&Mode::O].costs[machine];
            let safe = &results[&Mode::OSafe].costs[machine];
            let g = &results[&Mode::G].costs[machine];
            assert!(
                safe.cycles >= base.cycles,
                "{} on {machine}: safe cannot beat the baseline",
                w.name
            );
            assert!(
                safe.cycles <= g.cycles,
                "{} on {machine}: safe must beat -g (safe={} -g={})",
                w.name,
                safe.cycles,
                g.cycles
            );
        }

        // 6. The postprocessor only removes cost, and never loses a
        //    KEEP_LIVE base.
        if results[&Mode::OSafePost].outcome.is_ok() {
            for machine in ["SPARCstation 2", "SPARC 10", "Pentium 90"] {
                let safe = &results[&Mode::OSafe].costs[machine];
                let post = &results[&Mode::OSafePost].costs[machine];
                assert!(
                    post.cycles <= safe.cycles,
                    "{} on {machine}: postprocessing must not slow code down",
                    w.name
                );
                assert!(post.size_bytes <= safe.size_bytes);
            }
            let stats = results[&Mode::OSafePost].peephole.expect("post ran");
            assert!(stats.total() > 0, "{}: the peephole found work", w.name);
        }
    }
    assert!(
        total_allocs > 300,
        "suite-wide allocation volume: {total_allocs}"
    );
}

/// The annotation audit trail is a faithful ledger: for every workload and
/// every annotating mode, the emitted events agree in count and kind with
/// the annotator's own statistics and its source-edit list.
#[test]
fn audit_trail_agrees_with_the_edit_list_across_all_modes() {
    for w in workloads::all() {
        for mode in Mode::all() {
            let Some(cfg) = mode.compile_options().annotate else {
                continue; // -O and -g run no annotator and emit no audit
            };
            let (trace, sink) = TraceHandle::memory();
            let annotated = gcsafe::annotate_program_traced(w.source, &cfg, &trace)
                .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
            let stats = &annotated.result.stats;
            let events = sink.snapshot();
            let ctx = format!("{} in mode {}", w.name, mode.label());

            assert!(
                events.iter().all(|e| e.stage == "annotate"),
                "{ctx}: non-annotate stage in the audit trail"
            );
            let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
            let known = count("wrap")
                + count("skip")
                + count("incdec")
                + count("base_heuristic")
                + count("summary");
            assert_eq!(known, events.len(), "{ctx}: unknown event kind present");

            // Wrap events mirror the wraps the edit list carries out.
            assert_eq!(
                count("wrap"),
                stats.keep_lives + stats.checks,
                "{ctx}: one wrap event per inserted wrapper"
            );
            assert_eq!(count("incdec"), stats.incdec_specials, "{ctx}");
            assert_eq!(count("base_heuristic"), stats.base_heuristic_hits, "{ctx}");
            let skip_reason = |reason: &str| {
                events
                    .iter()
                    .filter(|e| {
                        e.kind == "skip" && e.get("reason") == Some(&Value::Str(reason.into()))
                    })
                    .count()
            };
            assert_eq!(skip_reason("opt1_copy"), stats.skipped_copies, "{ctx}");

            // Every wrap and ++/-- rewrite becomes source edits; skips
            // edit nothing. The edit list can therefore never be shorter
            // than the wrap count, and an empty audit means an empty list.
            let rewrites = count("wrap") + count("incdec");
            let edits = annotated.result.edits.len();
            assert!(
                edits >= rewrites,
                "{ctx}: {rewrites} rewrite events but only {edits} edits"
            );
            assert_eq!(
                edits == 0,
                rewrites == 0,
                "{ctx}: audit/edit emptiness agrees"
            );

            // The per-function summaries restate the same totals.
            let sum_field = |field: &str| -> u64 {
                events
                    .iter()
                    .filter(|e| e.kind == "summary")
                    .map(|e| match e.get(field) {
                        Some(Value::UInt(v)) => *v,
                        other => panic!("{ctx}: summary field {field} is {other:?}"),
                    })
                    .sum()
            };
            assert_eq!(sum_field("keep_lives") as usize, stats.keep_lives, "{ctx}");
            assert_eq!(sum_field("checks") as usize, stats.checks, "{ctx}");

            // Annotating modes always find work in these pointer-heavy
            // workloads.
            assert!(
                count("wrap") > 0,
                "{ctx}: no wraps in a pointer-heavy workload"
            );
        }
    }
}
