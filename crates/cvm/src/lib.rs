//! # cvm — compiler backend and executing VM
//!
//! Plays the role of gcc + the target machine in the paper's pipeline:
//!
//! * [`lower`](mod@lower) — AST → three-address [`ir`], with a register
//!   regime (`-O`-style) and an everything-in-memory regime (`-g`-style);
//! * [`opt`] — the optimizer, including the pointer-*disguising* passes
//!   the paper warns about (displacement reassociation, eager scheduling)
//!   and full support for the `KEEP_LIVE` barrier semantics;
//! * [`liveness`] — temp liveness; dead registers are not GC roots, which
//!   is what makes the hazard real;
//! * [`vm`] — an interpreter over the simulated address space with the
//!   conservative collector attached and per-block execution profiles;
//! * [`machine`] — cycle cost models for the paper's three machines.
//!
//! ## Example: allocate, mutate, survive
//!
//! ```
//! use cvm::{compile, run_compiled, CompileOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     int main(void) {
//!         char *p = (char *) malloc(8);
//!         p[0] = 42;
//!         return p[0];
//!     }
//! "#;
//! let prog = compile(src, &CompileOptions::optimized())?;
//! let outcome = run_compiled(&prog, &cvm::VmOptions::default())?;
//! assert_eq!(outcome.exit_code, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ir;
pub mod liveness;
pub mod lower;
pub mod machine;
pub mod opt;
pub mod verify;
pub mod vm;

pub use ir::{BinIr, Block, BlockId, CallTarget, FuncIr, Instr, Operand, ProgramIr, Temp};
pub use liveness::{gc_root_maps, Liveness, TempSet};
pub use lower::{lower, LowerError, LowerOptions};
pub use machine::Machine;
pub use opt::{
    optimize, optimize_func, optimize_func_ledger, optimize_func_traced, optimize_traced,
    pass_names, OptOptions, PassLedger,
};
pub use verify::{verify_func, verify_program, verify_program_traced, Violation};
pub use vm::{run, ExecOutcome, Profile, VmError, VmOptions};

pub use gctrace::TraceHandle;

use gcsafe::Config as AnnotConfig;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// End-to-end compilation options: the paper's measurement axes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Annotation config, if the gcsafe/checked preprocessor runs.
    pub annotate: Option<AnnotConfig>,
    /// Optimizer settings.
    pub opt: OptOptions,
    /// Lowering regime.
    pub lower: LowerOptions,
}

impl CompileOptions {
    /// `-O`: plain optimized build (the baseline).
    pub fn optimized() -> Self {
        CompileOptions {
            annotate: None,
            opt: OptOptions::full(),
            lower: LowerOptions::default(),
        }
    }

    /// `-O safe`: annotated for GC-safety, then optimized.
    pub fn optimized_safe() -> Self {
        CompileOptions {
            annotate: Some(AnnotConfig::gc_safe()),
            ..Self::optimized()
        }
    }

    /// `-O safe` with the paper's strawman `KEEP_LIVE` implementation: a
    /// real call to an opaque identity function ("terribly inefficient").
    pub fn optimized_safe_naive() -> Self {
        let mut o = Self::optimized_safe();
        o.lower.keep_live_as_call = true;
        o
    }

    /// `-g`: fully debuggable (all locals in memory, no optimizer).
    pub fn debug() -> Self {
        CompileOptions {
            annotate: None,
            opt: OptOptions::none(),
            lower: LowerOptions {
                all_locals_in_memory: true,
                keep_live_as_call: false,
            },
        }
    }

    /// `-g checked`: debuggable plus pointer-arithmetic checking.
    pub fn debug_checked() -> Self {
        CompileOptions {
            annotate: Some(AnnotConfig::checked()),
            ..Self::debug()
        }
    }
}

/// Compiles C-subset source through parse → (annotate) → lower →
/// (optimize).
///
/// # Errors
///
/// Returns a rendered parse/sema/lowering error message.
pub fn compile(source: &str, options: &CompileOptions) -> Result<ProgramIr, String> {
    compile_traced(source, options, &TraceHandle::disabled())
}

/// [`compile`] for a program the caller has already parsed from
/// `source`, so one parse can serve several builds. It looks the program
/// up in the compile cache, clones the AST into the stages on a miss
/// only, and re-binds alloc sites to `source`: the result equals
/// `compile(source, options)`.
///
/// # Errors
///
/// Returns a rendered sema/lowering error message.
pub fn compile_parsed(
    parsed: &cfront::Program,
    source: &str,
    options: &CompileOptions,
) -> Result<ProgramIr, String> {
    compile_ast(
        Cow::Borrowed(parsed),
        source,
        options,
        &TraceHandle::disabled(),
    )
}

/// [`compile`] with a trace: the annotator's audit events, the
/// optimizer's per-pass rewrite events, and — for annotated builds — the
/// static verifier's per-function verdicts all flow to `trace`.
///
/// Compiles are memoized in one process-global cache keyed by the
/// structural program hash and the full [`CompileOptions`], so every
/// formatting of a program shares one entry. An untraced compile looks
/// the key up and inserts on a miss. A traced compile skips the lookup:
/// its events embed source positions, so every stage runs live into
/// `trace` and the result is then inserted — a warm traced compile emits
/// exactly what a cold one does. Alloc-site labels are re-bound to the
/// requesting source on every path, so a hit is byte-identical to a cold
/// compile.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_traced(
    source: &str,
    options: &CompileOptions,
    trace: &TraceHandle,
) -> Result<ProgramIr, String> {
    let parsed = cfront::parse(source).map_err(|e| e.render(source))?;
    compile_ast(Cow::Owned(parsed), source, options, trace)
}

/// Compiles a parsed program through the cache, for [`compile_traced`]
/// and [`compile_parsed`]: on a miss an owned AST moves into the stages
/// and a borrowed one is cloned.
fn compile_ast(
    parsed: Cow<'_, cfront::Program>,
    source: &str,
    options: &CompileOptions,
    trace: &TraceHandle,
) -> Result<ProgramIr, String> {
    let key = (cfront::program_hash(&parsed), options.clone());
    let spans = node_spans(&parsed);
    let cached = if trace.is_enabled() {
        None
    } else {
        compile_cache().get(&key)
    };
    let mut ir = match cached {
        Some(ir) => (*ir).clone(),
        None => {
            let ir = compile_live(parsed.into_owned(), source, options, trace)?;
            compile_cache().insert(key, Arc::new(ir.clone()));
            ir
        }
    };
    ir.rebind_alloc_sites(&spans, source);
    Ok(ir)
}

/// Runs every stage for `parsed`: (annotate) → lower → optimize, plus the
/// static verifier for annotated builds when someone is listening.
fn compile_live(
    parsed: cfront::Program,
    source: &str,
    options: &CompileOptions,
    trace: &TraceHandle,
) -> Result<ProgramIr, String> {
    let (program, sema) = match &options.annotate {
        Some(cfg) => {
            let annotated = gcsafe::annotate_parsed_traced(parsed, source, cfg, trace)
                .map_err(|e| e.render(source))?;
            (annotated.program, annotated.sema)
        }
        None => {
            let mut program = parsed;
            let sema = cfront::analyze(&mut program).map_err(|e| e.render(source))?;
            (program, sema)
        }
    };
    let mut ir = lower(&program, &sema, options.lower).map_err(|e| e.to_string())?;
    optimize_traced(&mut ir, options.opt, trace);
    // The verifier is observability-only here: run it (and emit verdicts)
    // only when someone is listening, and only for annotated builds where
    // a clean verdict is the expected invariant.
    if trace.is_enabled() && options.annotate.is_some() {
        let _ = verify_program_traced(&ir, false, trace);
    }
    Ok(ir)
}

fn compile_cache() -> &'static gccache::Cache<(u64, CompileOptions), Arc<ProgramIr>> {
    static CACHE: OnceLock<gccache::Cache<(u64, CompileOptions), Arc<ProgramIr>>> = OnceLock::new();
    CACHE.get_or_init(|| gccache::Cache::new("compile", 512))
}

/// Counters of the compile cache (see [`compile_traced`]).
pub fn compile_cache_stats() -> gccache::StageStats {
    compile_cache().stats()
}

/// Drops every memoized compile (counters are cumulative). Safe at any
/// time: a cleared cache only changes speed, never results.
pub fn compile_cache_clear() {
    compile_cache().clear();
}

/// Builds the requester's `NodeId → span.start` table for alloc-site
/// re-binding. Only function bodies matter: allocation calls cannot occur
/// in global initializers.
fn node_spans(program: &cfront::Program) -> HashMap<cfront::NodeId, usize> {
    let mut spans = HashMap::new();
    for f in &program.funcs {
        if let Some(body) = &f.body {
            for stmt in &body.stmts {
                cfront::ast::visit_exprs(stmt, &mut |e| {
                    spans.insert(e.id, e.span.start);
                });
            }
        }
    }
    spans
}

/// Runs a compiled program.
///
/// # Errors
///
/// Propagates [`VmError`].
pub fn run_compiled(prog: &ProgramIr, opts: &VmOptions) -> Result<ExecOutcome, VmError> {
    vm::run(prog, opts)
}

/// Compiles and runs in one call.
///
/// # Errors
///
/// Compilation errors are rendered into [`VmError::Malformed`].
pub fn compile_and_run(
    source: &str,
    copts: &CompileOptions,
    vopts: &VmOptions,
) -> Result<ExecOutcome, VmError> {
    let prog = compile(source, copts).map_err(VmError::Malformed)?;
    run_compiled(&prog, vopts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The step budget of every run here: a few times the longest run's
    /// 500,009 steps (`gc_reclaims_garbage_during_run`), so a change that
    /// breaks a loop exit fails a test at once instead of spinning through
    /// the default budget of two billion steps.
    const MAX_STEPS: u64 = 2_000_000;

    /// The default options under [`MAX_STEPS`].
    fn opts() -> VmOptions {
        VmOptions {
            max_steps: MAX_STEPS,
            ..VmOptions::default()
        }
    }

    fn run_src(src: &str) -> ExecOutcome {
        compile_and_run(src, &CompileOptions::optimized(), &opts()).expect("program runs")
    }

    fn run_all_modes(src: &str, input: &[u8]) -> Vec<(String, ExecOutcome)> {
        let modes = [
            ("-O", CompileOptions::optimized()),
            ("-O safe", CompileOptions::optimized_safe()),
            ("-g", CompileOptions::debug()),
            ("-g checked", CompileOptions::debug_checked()),
        ];
        modes
            .into_iter()
            .map(|(name, c)| {
                let v = VmOptions {
                    input: input.to_vec(),
                    ..opts()
                };
                let out = compile_and_run(src, &c, &v).unwrap_or_else(|e| panic!("{name}: {e}"));
                (name.to_string(), out)
            })
            .collect()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
            int main(void) { return fib(10); }
        "#;
        assert_eq!(run_src(src).exit_code, 55);
    }

    #[test]
    fn loops_and_arrays() {
        let src = r#"
            int main(void) {
                int a[10];
                int i;
                int s = 0;
                for (i = 0; i < 10; i++) a[i] = i * i;
                for (i = 0; i < 10; i++) s += a[i];
                return s;
            }
        "#;
        assert_eq!(run_src(src).exit_code, 285);
    }

    #[test]
    fn heap_linked_list() {
        let src = r#"
            struct node { long v; struct node *next; };
            int main(void) {
                struct node *head = 0;
                long i;
                long s = 0;
                for (i = 0; i < 100; i++) {
                    struct node *n = (struct node *) malloc(sizeof(struct node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                while (head) { s += head->v; head = head->next; }
                return (int)(s % 256);
            }
        "#;
        // sum 0..99 = 4950; 4950 % 256 = 86
        assert_eq!(run_src(src).exit_code, 86);
    }

    #[test]
    fn strings_and_io() {
        let src = r#"
            int main(void) {
                char *msg = "hi";
                putstr(msg);
                putchar('!');
                putint(123);
                return 0;
            }
        "#;
        assert_eq!(run_src(src).output, b"hi!123");
    }

    #[test]
    fn getchar_consumes_input() {
        let src = r#"
            int main(void) {
                int c;
                int n = 0;
                while ((c = getchar()) != -1) { if (c == 'x') n++; }
                return n;
            }
        "#;
        let v = VmOptions {
            input: b"axxbx".to_vec(),
            ..opts()
        };
        let out = compile_and_run(src, &CompileOptions::optimized(), &v).unwrap();
        assert_eq!(out.exit_code, 3);
    }

    #[test]
    fn switch_with_fallthrough() {
        let src = r#"
            int classify(int c) {
                int r = 0;
                switch (c) {
                    case 1:
                    case 2: r = 10; break;
                    case 3: r = 20; break;
                    default: r = 30;
                }
                return r;
            }
            int main(void) {
                return classify(1) + classify(2) + classify(3) + classify(9);
            }
        "#;
        assert_eq!(run_src(src).exit_code, 10 + 10 + 20 + 30);
    }

    #[test]
    fn function_pointers_dispatch() {
        let src = r#"
            int add(int a, int b) { return a + b; }
            int mul(int a, int b) { return a * b; }
            int main(void) {
                int (*ops[2])(int, int);
                ops[0] = add;
                ops[1] = mul;
                return ops[0](3, 4) + ops[1](3, 4);
            }
        "#;
        assert_eq!(run_src(src).exit_code, 19);
    }

    #[test]
    fn all_modes_agree_on_output() {
        let src = r#"
            struct cell { long v; struct cell *next; };
            struct cell *push(struct cell *head, long v) {
                struct cell *c = (struct cell *) malloc(sizeof(struct cell));
                c->v = v;
                c->next = head;
                return c;
            }
            int main(void) {
                struct cell *head = 0;
                long i;
                long sum = 0;
                char buf[32];
                for (i = 1; i <= 50; i++) head = push(head, i * 3);
                while (head) { sum += head->v; head = head->next; }
                buf[0] = 'S'; buf[1] = 0;
                putstr(buf);
                putint(sum);
                return 0;
            }
        "#;
        let results = run_all_modes(src, b"");
        let baseline = &results[0].1;
        assert_eq!(baseline.output, b"S3825");
        for (name, out) in &results[1..] {
            assert_eq!(out.output, baseline.output, "{name} output diverges");
            assert_eq!(out.exit_code, baseline.exit_code, "{name} exit diverges");
        }
    }

    #[test]
    fn gc_reclaims_garbage_during_run() {
        let src = r#"
            int main(void) {
                long i;
                char *keep = (char *) malloc(64);
                keep[0] = 7;
                for (i = 0; i < 50000; i++) {
                    char *junk = (char *) malloc(64);
                    junk[0] = (char) i;
                }
                return keep[0];
            }
        "#;
        let v = VmOptions {
            heap_bytes: 4 << 20, // 4 MiB forces many collections
            ..opts()
        };
        let out = compile_and_run(src, &CompileOptions::optimized(), &v).unwrap();
        assert_eq!(out.exit_code, 7, "reachable object survives");
        assert!(out.heap.collections > 0, "collections happened");
        assert!(out.heap.objects_freed > 10_000, "garbage was reclaimed");
    }

    #[test]
    fn checked_mode_catches_out_of_object_arithmetic() {
        // The classic one-before-the-array idiom the paper calls "a common
        // bug (sometimes referred to incorrectly as a 'technique')".
        let src = r#"
            int main(void) {
                long *a = (long *) malloc(10 * sizeof(long));
                long *one_based = a - 1;
                one_based[1] = 5;
                return (int) one_based[1];
            }
        "#;
        let ok = compile_and_run(src, &CompileOptions::optimized(), &opts());
        assert!(ok.is_ok(), "unchecked build tolerates the idiom");
        let checked = compile_and_run(src, &CompileOptions::debug_checked(), &opts());
        match checked {
            Err(VmError::CheckFailed { .. }) => {}
            other => panic!("checked mode must fail, got {other:?}"),
        }
    }

    #[test]
    fn checked_mode_allows_legal_arithmetic() {
        let src = r#"
            int main(void) {
                char *s = (char *) malloc(16);
                char *p = s;
                int i;
                for (i = 0; i < 15; i++) *p++ = 'a';
                *p = 0;
                return (int) strlen(s);
            }
        "#;
        let out = compile_and_run(src, &CompileOptions::debug_checked(), &opts())
            .expect("legal arithmetic passes the checker");
        assert_eq!(out.exit_code, 15);
    }

    #[test]
    fn struct_copy_assignment() {
        let src = r#"
            struct pair { long a; long b; };
            int main(void) {
                struct pair x;
                struct pair y;
                x.a = 3; x.b = 4;
                y = x;
                y.b = 9;
                return (int)(x.a + x.b + y.a + y.b);
            }
        "#;
        assert_eq!(run_src(src).exit_code, 19);
    }

    #[test]
    fn global_variables_and_initializers() {
        let src = r#"
            int counter = 5;
            long table[4] = {10, 20, 30, 40};
            char *greeting = "yo";
            int bump(void) { counter++; return counter; }
            int main(void) {
                bump(); bump();
                return counter + (int) table[2] + (int) strlen(greeting);
            }
        "#;
        assert_eq!(run_src(src).exit_code, 7 + 30 + 2);
    }

    #[test]
    fn ternary_and_logical_ops() {
        let src = r#"
            int crash(void) { abort(); return 0; }
            int main(void) {
                int a = 5;
                int b = 0;
                int c = (a && !b) ? 10 : 20;
                int d = (a || b) ? 1 : 2;
                int e = (b && crash()) ? 99 : 3;
                return c + d + e;
            }
        "#;
        assert_eq!(run_src(src).exit_code, 14);
    }

    #[test]
    fn step_limit_enforced() {
        let src = "int main(void) { for(;;); return 0; }";
        let v = VmOptions {
            max_steps: 10_000,
            ..VmOptions::default()
        };
        let r = compile_and_run(src, &CompileOptions::optimized(), &v);
        assert_eq!(r.unwrap_err(), VmError::StepLimit);
    }

    #[test]
    fn profile_counts_blocks() {
        let src = r#"
            int main(void) {
                int i;
                int s = 0;
                for (i = 0; i < 17; i++) s += i;
                return s;
            }
        "#;
        let out = run_src(src);
        let total: u64 = out.profile.block_counts.iter().flatten().sum();
        assert!(total >= 17, "loop blocks counted: {total}");
    }

    #[test]
    fn naive_keep_live_is_correct_but_much_slower() {
        // The paper: the external-identity-function implementation "is,
        // of course, terribly inefficient".
        let src = r#"
            int main(void) {
                char *a = (char *) malloc(64);
                long i;
                long s = 0;
                for (i = 0; i < 60; i++) a[i] = (char)(i & 7);
                for (i = 0; i < 60; i++) s += a[i];
                putint(s);
                return 0;
            }
        "#;
        let fast = compile_and_run(src, &CompileOptions::optimized_safe(), &opts())
            .expect("asm-style KEEP_LIVE runs");
        let naive = compile_and_run(src, &CompileOptions::optimized_safe_naive(), &opts())
            .expect("call-style KEEP_LIVE runs");
        assert_eq!(fast.output, naive.output, "same semantics");
        let count_calls = |o: &ExecOutcome| {
            o.profile
                .builtin_calls
                .get(&cfront::sema::Builtin::KeepLiveFn)
                .copied()
                .unwrap_or(0)
        };
        assert_eq!(count_calls(&fast), 0);
        assert!(count_calls(&naive) >= 120, "a call per protected access");
    }

    #[test]
    fn traced_compile_emits_optimizer_and_verifier_events() {
        let src = "char f(char *p, long i) { return p[i - 1000]; } int main(void){ return 0; }";
        let (trace, sink) = TraceHandle::memory();
        let traced = compile_traced(src, &CompileOptions::optimized_safe(), &trace).unwrap();
        let untraced = compile(src, &CompileOptions::optimized_safe()).unwrap();
        assert_eq!(
            traced.funcs.len(),
            untraced.funcs.len(),
            "tracing is observation-only"
        );
        let events = sink.snapshot();
        let summaries: Vec<_> = events
            .iter()
            .filter(|e| e.stage == "opt" && e.kind == "function")
            .collect();
        assert_eq!(
            summaries.len(),
            traced.funcs.len(),
            "one summary per function"
        );
        let verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.stage == "verify" && e.kind == "verdict")
            .collect();
        assert_eq!(
            verdicts.len(),
            traced.funcs.len(),
            "one verdict per function"
        );
        assert!(
            verdicts
                .iter()
                .all(|e| e.get("ok") == Some(&gctrace::Value::Bool(true))),
            "annotated builds verify clean: {verdicts:?}"
        );
        assert!(
            events.iter().any(|e| e.stage == "annotate"),
            "annotation audit events flow through the same sink"
        );
    }

    #[test]
    fn traced_run_emits_a_vm_summary() {
        let src = r#"
            int main(void) {
                long i;
                for (i = 0; i < 2000; i++) { char *p = (char *) malloc(256); p[0] = 1; }
                putstr("done");
                return 3;
            }
        "#;
        let prog = compile(src, &CompileOptions::optimized()).unwrap();
        let (trace, sink) = TraceHandle::memory();
        let v = VmOptions {
            heap_bytes: 1 << 18, // small heap forces collections
            trace,
            ..opts()
        };
        let out = run_compiled(&prog, &v).expect("program runs");
        let events = sink.snapshot();
        let runs: Vec<_> = events
            .iter()
            .filter(|e| e.stage == "vm" && e.kind == "run")
            .collect();
        assert_eq!(runs.len(), 1);
        let run = runs[0];
        assert_eq!(run.get("exit_code"), Some(&gctrace::Value::Int(3)));
        assert_eq!(run.get("steps"), Some(&gctrace::Value::UInt(out.steps)));
        assert_eq!(run.get("output_bytes"), Some(&gctrace::Value::UInt(4)));
        assert_eq!(
            run.get("collections"),
            Some(&gctrace::Value::UInt(out.heap.collections))
        );
        // The collector shares the handle: its timeline lands in the same
        // sink, one event per collection.
        let gcs = events
            .iter()
            .filter(|e| e.stage == "gc" && e.kind == "collection")
            .count();
        assert_eq!(gcs as u64, out.heap.collections);
        assert!(
            out.heap.collections > 0,
            "small heap collected at least once"
        );
    }

    #[test]
    fn alloc_sites_resolve_to_source_positions() {
        let src = "int main(void) {\n    char *p = (char *) malloc(8);\n    char *q = (char *) calloc(2, 4);\n    p[0] = 1; q[0] = 2;\n    return 0;\n}\n";
        let prog = compile(src, &CompileOptions::optimized()).unwrap();
        assert_eq!(prog.alloc_sites.len(), 2, "{:?}", prog.alloc_sites);
        let labels: Vec<String> = prog.alloc_sites.iter().map(|s| s.label()).collect();
        assert_eq!(labels[0], "malloc@2:24", "{:?}", prog.alloc_sites);
        assert_eq!(labels[1], "calloc@3:24", "{:?}", prog.alloc_sites);
        assert!(prog.alloc_sites.iter().all(|s| s.func == "main"));
    }

    #[test]
    fn profiled_run_attributes_allocations_to_call_stacks() {
        let src = r#"
            struct cell { long v; struct cell *next; };
            struct cell *push(struct cell *head, long v) {
                struct cell *c = (struct cell *) malloc(sizeof(struct cell));
                c->v = v;
                c->next = head;
                return c;
            }
            int main(void) {
                struct cell *head = 0;
                long i;
                for (i = 0; i < 10; i++) head = push(head, i);
                return 0;
            }
        "#;
        let prog = compile(src, &CompileOptions::optimized()).unwrap();
        let prof = gcprof::ProfHandle::enabled();
        let v = VmOptions {
            prof: prof.clone(),
            ..opts()
        };
        run_compiled(&prog, &v).expect("program runs");
        let data = prof.snapshot().expect("enabled handle snapshots");
        assert_eq!(data.sites.len(), 1, "one allocation site: {:?}", data.sites);
        let (key, stats) = data.sites.iter().next().unwrap();
        assert!(
            key.starts_with("main;push;malloc@"),
            "stack-qualified site key: {key}"
        );
        assert_eq!(stats.allocs, 10);
        assert_eq!(stats.bytes, 10 * 16);
        // The heap side of the handle sees the same allocations.
        assert_eq!(data.alloc_size.count(), 10);
        let census = data.census.as_ref().expect("final census recorded");
        assert_eq!(
            census.live_objects,
            census.classes.iter().map(|c| c.live_objects).sum::<u64>()
        );
    }

    #[test]
    fn safe_mode_ir_contains_keep_live() {
        let src = "char f(char *p, long i) { return p[i - 1000]; } int main(void){ return 0; }";
        let base = compile(src, &CompileOptions::optimized()).unwrap();
        let safe = compile(src, &CompileOptions::optimized_safe()).unwrap();
        let f_base = &base.funcs[base.func_index("f").unwrap()];
        let f_safe = &safe.funcs[safe.func_index("f").unwrap()];
        assert!(!f_base.dump().contains("keep_live"));
        assert!(f_safe.dump().contains("keep_live"), "{}", f_safe.dump());
    }
}
