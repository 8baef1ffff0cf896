//! The differential mode-agreement oracle.
//!
//! One generated program, one parse, one verdict over the five modes
//! (`Mode::all()`). Each distinct build is made once: a mode whose
//! compile options and safety repeat an earlier mode's would run the same
//! IR under the same VM options, so it takes that mode's verdict (today
//! `-O, safe+post` takes `-O, safe`'s, as the oracle never runs the
//! peephole). For every build the oracle checks:
//!
//! * the build succeeds, and — for annotated builds — the static
//!   safety verifier reports zero violations;
//! * the program runs to completion (generated programs are ANSI-legal
//!   and bounded, so *any* runtime error is a finding);
//! * two runs produce identical exit code, output, and per-block
//!   execution profile (the VM must be deterministic per mode; block
//!   profiles are not comparable *across* modes, where the IR differs);
//! * for the safe modes, a paranoid run — a collection at every
//!   allocation (`gc_threshold: 1`) — still succeeds with the same exit
//!   code and output. This is the shadow-reachability check: a
//!   source-reachable object that gets collected surfaces as a
//!   `UseAfterFree` or a wrong answer. `-O` is exempt by design — the
//!   paper's point is that it has no such guarantee;
//! * for the safe modes, the same paranoid run again under the
//!   bounded-pause collector (incremental tri-color marking + nursery,
//!   [`HeapConfig::bounded_pause`]): with `gc_threshold: 1` a mark cycle
//!   is in flight across essentially every mutator store, so this is the
//!   write barrier's adversarial workout — a single missed barrier
//!   surfaces as a lost object.
//!
//! Finally every build's `(exit, output)` pair must agree with the `-O`
//! baseline.

use gc_safety::Mode;
use gcheap::HeapConfig;
use std::fmt;

/// Instruction budget per run: generated programs finish in well under
/// a million steps, so hitting this means a runaway (itself a finding).
pub const MAX_STEPS: u64 = 50_000_000;

/// One way a program can fail the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Compilation failed in one mode.
    Build {
        /// Failing mode.
        mode: Mode,
        /// Rendered compiler error.
        error: String,
    },
    /// The static safety verifier flagged an annotated build.
    Verifier {
        /// Failing mode.
        mode: Mode,
        /// Number of violations.
        count: usize,
        /// Rendered first violation.
        first: String,
    },
    /// A run under the default collector failed.
    Run {
        /// Failing mode.
        mode: Mode,
        /// Rendered `VmError`.
        error: String,
    },
    /// Two identical runs disagreed (exit, output, or block profile).
    Nondeterministic {
        /// Offending mode.
        mode: Mode,
    },
    /// Exit code differs from the `-O` baseline.
    Exit {
        /// Disagreeing mode.
        mode: Mode,
        /// Its exit code.
        got: i64,
        /// The baseline's exit code.
        want: i64,
    },
    /// Output bytes differ from the `-O` baseline.
    Output {
        /// Disagreeing mode.
        mode: Mode,
    },
    /// A safe mode failed under the paranoid collector — some
    /// source-reachable object was collected.
    Paranoid {
        /// Failing safe mode.
        mode: Mode,
        /// Rendered `VmError`.
        error: String,
    },
    /// A safe mode survived the paranoid collector but computed a
    /// different answer.
    ParanoidDiffers {
        /// Disagreeing safe mode.
        mode: Mode,
    },
    /// The gcprof instrumentation disagreed with the heap's own
    /// statistics — the census or a histogram lost count somewhere.
    ProfInconsistent {
        /// Offending mode.
        mode: Mode,
        /// What disagreed with what.
        detail: String,
    },
}

impl Divergence {
    /// A stable label for the divergence class, used to keep the
    /// minimizer on the *same* bug while it shrinks.
    pub fn kind(&self) -> (&'static str, Mode) {
        match *self {
            Divergence::Build { mode, .. } => ("build", mode),
            Divergence::Verifier { mode, .. } => ("verifier", mode),
            Divergence::Run { mode, .. } => ("run", mode),
            Divergence::Nondeterministic { mode } => ("nondeterministic", mode),
            Divergence::Exit { mode, .. } => ("exit", mode),
            Divergence::Output { mode } => ("output", mode),
            Divergence::Paranoid { mode, .. } => ("paranoid", mode),
            Divergence::ParanoidDiffers { mode } => ("paranoid-differs", mode),
            Divergence::ProfInconsistent { mode, .. } => ("prof-inconsistent", mode),
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Build { mode, error } => {
                write!(f, "[{}] build failed: {error}", mode.label())
            }
            Divergence::Verifier { mode, count, first } => write!(
                f,
                "[{}] verifier found {count} violation(s), first: {first}",
                mode.label()
            ),
            Divergence::Run { mode, error } => {
                write!(f, "[{}] run failed: {error}", mode.label())
            }
            Divergence::Nondeterministic { mode } => {
                write!(f, "[{}] two identical runs disagreed", mode.label())
            }
            Divergence::Exit { mode, got, want } => {
                write!(f, "[{}] exit code {got} != baseline {want}", mode.label())
            }
            Divergence::Output { mode } => {
                write!(f, "[{}] output differs from the -O baseline", mode.label())
            }
            Divergence::Paranoid { mode, error } => write!(
                f,
                "[{}] paranoid collector run failed: {error}",
                mode.label()
            ),
            Divergence::ParanoidDiffers { mode } => write!(
                f,
                "[{}] paranoid collector run computed a different answer",
                mode.label()
            ),
            Divergence::ProfInconsistent { mode, detail } => write!(
                f,
                "[{}] profiler disagrees with heap statistics: {detail}",
                mode.label()
            ),
        }
    }
}

fn default_vm() -> cvm::VmOptions {
    cvm::VmOptions {
        max_steps: MAX_STEPS,
        ..cvm::VmOptions::default()
    }
}

fn paranoid_vm() -> cvm::VmOptions {
    cvm::VmOptions {
        heap_config: HeapConfig {
            gc_threshold: 1,
            ..HeapConfig::default()
        },
        // Cross-check the snapshot graph against the VM's shadow
        // liveness at end of run: after a full collect + sweep, every
        // surviving object must be reachable in the snapshot.
        snapshot_oracle: true,
        ..default_vm()
    }
}

/// The paranoid collector again, but bounded-pause: incremental marking
/// with a deliberately tiny budget (so cycles span many mutator stores)
/// plus nursery collections. Exercises the Dijkstra write barrier and the
/// remembered-set cards under the least forgiving schedule.
fn bounded_paranoid_vm() -> cvm::VmOptions {
    cvm::VmOptions {
        heap_config: HeapConfig {
            gc_threshold: 1,
            mark_budget_bytes: 64,
            ..HeapConfig::bounded_pause()
        },
        snapshot_oracle: true,
        ..default_vm()
    }
}

/// The gcprof-vs-heap consistency oracle, run once per mode on the first
/// instrumented run: every successful allocation must land in the size
/// histogram, every collection in the pause timeline, and the end-of-run
/// census must agree with the heap's own live-object accounting — both
/// against [`gcheap::HeapStats`] and internally (class totals sum to the
/// whole).
fn prof_consistency(
    mode: Mode,
    prof: &gc_safety::ProfHandle,
    r: &cvm::ExecOutcome,
) -> Option<Divergence> {
    let fail = |detail: String| Some(Divergence::ProfInconsistent { mode, detail });
    let Some(data) = prof.snapshot() else {
        return fail("enabled handle produced no snapshot".into());
    };
    if data.alloc_size.count() != r.heap.allocations {
        return fail(format!(
            "alloc_size histogram holds {} samples, heap performed {} allocations",
            data.alloc_size.count(),
            r.heap.allocations
        ));
    }
    if data.collections != r.heap.collections || data.pause_ns.count() != r.heap.collections {
        return fail(format!(
            "profiler saw {} collections ({} pauses), heap performed {}",
            data.collections,
            data.pause_ns.count(),
            r.heap.collections
        ));
    }
    let Some(census) = &data.census else {
        return fail("no end-of-run census recorded".into());
    };
    if census.live_objects != r.heap.objects_live || census.live_bytes != r.heap.bytes_live {
        return fail(format!(
            "census counts {} objects / {} bytes live, heap stats say {} / {}",
            census.live_objects, census.live_bytes, r.heap.objects_live, r.heap.bytes_live
        ));
    }
    let class_objects: u64 = census.classes.iter().map(|c| c.live_objects).sum();
    let class_bytes: u64 = census.classes.iter().map(|c| c.live_bytes).sum();
    if class_objects + census.large_objects != census.live_objects
        || class_bytes + census.large_bytes != census.live_bytes
    {
        return fail(format!(
            "census classes sum to {class_objects} objects / {class_bytes} bytes \
             + {} large / {} bytes, but totals claim {} / {}",
            census.large_objects, census.large_bytes, census.live_objects, census.live_bytes
        ));
    }
    None
}

/// Runs the full differential check. `None` means all five modes agree;
/// `Some` carries the first divergence in deterministic mode order.
///
/// The source is parsed once, and every build starts from that AST
/// ([`cvm::compile_parsed`]). A mode whose compile options and safety
/// repeat an earlier mode's takes that mode's verdict without a build of
/// its own: its checks would run the same IR under the same VM options,
/// on a VM whose determinism the earlier mode's checks already showed.
/// Today that is `-O, safe+post`, whose build is `-O, safe`'s (the oracle
/// never runs the peephole). A parse error is a [`Divergence::Build`] of
/// the first mode, rendered as [`cvm::compile`] renders it.
pub fn check(source: &str) -> Option<Divergence> {
    let modes = Mode::all();
    let parsed = match cfront::parse(source) {
        Ok(p) => p,
        Err(e) => {
            return Some(Divergence::Build {
                mode: modes[0],
                error: e.render(source),
            })
        }
    };
    let mut baseline: Option<(i64, Vec<u8>)> = None;
    for (i, &mode) in modes.iter().enumerate() {
        let opts = mode.compile_options();
        if modes[..i]
            .iter()
            .any(|m| m.compile_options() == opts && m.is_safe() == mode.is_safe())
        {
            continue;
        }
        let prog = match cvm::compile_parsed(&parsed, source, &opts) {
            Ok(p) => p,
            Err(error) => return Some(Divergence::Build { mode, error }),
        };
        if opts.annotate.is_some() {
            let violations = cvm::verify_program(&prog, false);
            if let Some(v) = violations.first() {
                return Some(Divergence::Verifier {
                    mode,
                    count: violations.len(),
                    first: v.to_string(),
                });
            }
        }
        let prof = gc_safety::ProfHandle::enabled();
        let r1 = match cvm::run_compiled(
            &prog,
            &cvm::VmOptions {
                prof: prof.clone(),
                ..default_vm()
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                return Some(Divergence::Run {
                    mode,
                    error: e.to_string(),
                })
            }
        };
        if let Some(d) = prof_consistency(mode, &prof, &r1) {
            return Some(d);
        }
        match cvm::run_compiled(&prog, &default_vm()) {
            Ok(r2)
                if r2.exit_code == r1.exit_code
                    && r2.output == r1.output
                    && r2.profile.block_counts == r1.profile.block_counts => {}
            _ => return Some(Divergence::Nondeterministic { mode }),
        }
        if mode.is_safe() {
            for opts in [paranoid_vm(), bounded_paranoid_vm()] {
                match cvm::run_compiled(&prog, &opts) {
                    Ok(rp) if rp.exit_code == r1.exit_code && rp.output == r1.output => {}
                    Ok(_) => return Some(Divergence::ParanoidDiffers { mode }),
                    Err(e) => {
                        return Some(Divergence::Paranoid {
                            mode,
                            error: e.to_string(),
                        })
                    }
                }
            }
        }
        match &baseline {
            None => baseline = Some((r1.exit_code, r1.output)),
            Some((exit, output)) => {
                if r1.exit_code != *exit {
                    return Some(Divergence::Exit {
                        mode,
                        got: r1.exit_code,
                        want: *exit,
                    });
                }
                if r1.output != *output {
                    return Some(Divergence::Output { mode });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_well_behaved_program_passes() {
        let src = "int main(void) { putint(42); putchar(10); return 42; }";
        assert_eq!(check(src), None);
    }

    #[test]
    fn a_build_error_is_reported_for_the_first_mode() {
        let d = check("int main(void) { return undeclared; }").expect("diverges");
        assert_eq!(d.kind(), ("build", Mode::O));
    }

    #[test]
    fn a_parse_error_is_the_first_modes_build_error() {
        let src = "int main(void) { return 1 +; }";
        let error = cvm::compile(src, &Mode::O.compile_options()).expect_err("does not parse");
        assert_eq!(
            check(src),
            Some(Divergence::Build {
                mode: Mode::O,
                error
            })
        );
    }

    #[test]
    fn a_runtime_error_is_a_finding() {
        let d = check("int main(void) { abort(); return 0; }").expect("diverges");
        assert_eq!(d.kind(), ("run", Mode::O));
    }

    #[test]
    fn the_paper_hazard_survives_in_safe_modes() {
        // The displaced-base hazard: the paranoid safe-mode runs are the
        // shadow-reachability teeth. `-O` is exempt (and would fail).
        let src = r#"
            char hazard(char *p) {
                char *trigger = (char *) malloc(64);
                long i = (long) trigger[0] + 2000;
                return p[i - 1000];
            }
            int main(void) {
                char *buf = (char *) malloc(4000);
                long j;
                for (j = 0; j < 4000; j++) buf[j] = (char)(j % 50);
                return hazard(buf);
            }
        "#;
        assert_eq!(check(src), None);
    }

    #[test]
    fn a_hidden_pointer_makes_the_first_safe_mode_diverge() {
        // Source-unsafe: the only pointer to `p`'s object is hidden in `h`
        // across an allocation. Under the paranoid collector that
        // allocation frees the object and hands its slot to `q`, so the
        // read through the recovered pointer sees `q`'s value. `-O` makes
        // no paranoid run, so the first safe mode is the one to diverge.
        let src = r#"
            int main(void) {
                long *p = (long *) malloc(4 * sizeof(long));
                long *q;
                long h;
                p[0] = 7;
                h = (long) p ^ 21845;
                p = 0;
                q = (long *) malloc(4 * sizeof(long));
                q[0] = 9;
                p = (long *) (h ^ 21845);
                return (int) p[0];
            }
        "#;
        let d = check(src).expect("diverges");
        assert_eq!(d.kind(), ("paranoid-differs", Mode::OSafe), "{d}");
    }
}
