//! Property tests over randomly generated C programs: every compilation
//! mode must compute the same result. This hunts optimizer and lowering
//! miscompilations far beyond the hand-written cases. Cases come from
//! the deterministic PRNG in `common`.

mod common;

use common::Rng;
use cvm::{compile_and_run, CompileOptions, VmOptions};
use gc_safety::Mode;
use std::path::Path;

/// A tiny expression AST we generate and then print as C.
#[derive(Debug, Clone)]
enum E {
    Var(usize),
    Lit(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Cmp(Box<E>, Box<E>),
    Cond(Box<E>, Box<E>, Box<E>),
}

impl E {
    fn print(&self) -> String {
        match self {
            E::Var(i) => format!("v{}", i % 4),
            E::Lit(v) => format!("{v}"),
            E::Add(a, b) => format!("({} + {})", a.print(), b.print()),
            E::Sub(a, b) => format!("({} - {})", a.print(), b.print()),
            E::Mul(a, b) => format!("({} * {})", a.print(), b.print()),
            // Divisor forced nonzero to stay within defined C behaviour.
            E::Div(a, b) => format!("({} / (({} & 7) + 1))", a.print(), b.print()),
            E::Cmp(a, b) => format!("({} < {})", a.print(), b.print()),
            E::Cond(c, t, f) => format!("({} ? {} : {})", c.print(), t.print(), f.print()),
        }
    }
}

fn gen_expr(rng: &mut Rng, depth: u32) -> E {
    if depth == 0 || rng.chance(1, 3) {
        return if rng.chance(1, 2) {
            E::Var(rng.index(4))
        } else {
            E::Lit(rng.range_i64(-50, 50))
        };
    }
    match rng.index(6) {
        0 => E::Add(
            gen_expr(rng, depth - 1).into(),
            gen_expr(rng, depth - 1).into(),
        ),
        1 => E::Sub(
            gen_expr(rng, depth - 1).into(),
            gen_expr(rng, depth - 1).into(),
        ),
        2 => E::Mul(
            gen_expr(rng, depth - 1).into(),
            gen_expr(rng, depth - 1).into(),
        ),
        3 => E::Div(
            gen_expr(rng, depth - 1).into(),
            gen_expr(rng, depth - 1).into(),
        ),
        4 => E::Cmp(
            gen_expr(rng, depth - 1).into(),
            gen_expr(rng, depth - 1).into(),
        ),
        _ => E::Cond(
            gen_expr(rng, depth - 1).into(),
            gen_expr(rng, depth - 1).into(),
            gen_expr(rng, depth - 1).into(),
        ),
    }
}

/// A statement: assignment, loop-accumulate, or pointer round-trip.
#[derive(Debug, Clone)]
enum S {
    Assign(usize, E),
    AddAssign(usize, E),
    IfElse(E, usize, E, E),
    LoopSum(usize, u8, E),
    HeapRoundTrip(usize, E),
}

impl S {
    fn print(&self) -> String {
        match self {
            S::Assign(v, e) => format!("    v{} = {};\n", v % 4, e.print()),
            S::AddAssign(v, e) => format!("    v{} += {};\n", v % 4, e.print()),
            S::IfElse(c, v, t, f) => format!(
                "    if ({}) v{} = {}; else v{} = {};\n",
                c.print(),
                v % 4,
                t.print(),
                v % 4,
                f.print()
            ),
            S::LoopSum(v, n, e) => format!(
                "    for (it = 0; it < {}; it++) v{} += ({}) & 1023;\n",
                n % 8,
                v % 4,
                e.print()
            ),
            S::HeapRoundTrip(v, e) => format!(
                "    {{ long *cell = (long *) malloc(sizeof(long)); *cell = {}; v{} = *cell + 1; }}\n",
                e.print(),
                v % 4
            ),
        }
    }
}

fn gen_stmt(rng: &mut Rng) -> S {
    match rng.index(5) {
        0 => S::Assign(rng.index(4), gen_expr(rng, 3)),
        1 => S::AddAssign(rng.index(4), gen_expr(rng, 3)),
        2 => S::IfElse(
            gen_expr(rng, 3),
            rng.index(4),
            gen_expr(rng, 3),
            gen_expr(rng, 3),
        ),
        3 => S::LoopSum(rng.index(4), rng.next_u8(), gen_expr(rng, 3)),
        _ => S::HeapRoundTrip(rng.index(4), gen_expr(rng, 3)),
    }
}

fn gen_stmts(rng: &mut Rng, max_len: usize) -> Vec<S> {
    let len = 1 + rng.index(max_len - 1);
    (0..len).map(|_| gen_stmt(rng)).collect()
}

fn program_from(stmts: &[S]) -> String {
    let mut body = String::new();
    for s in stmts {
        body.push_str(&s.print());
    }
    format!(
        "int main(void) {{\n\
         \x20   long v0 = 1; long v1 = 2; long v2 = 3; long v3 = 4;\n\
         \x20   long it = 0;\n\
         {body}\
         \x20   putint((v0 + v1 * 3 + v2 * 5 + v3 * 7) & 0xffffff);\n\
         \x20   return 0;\n\
         }}\n"
    )
}

fn run_mode(src: &str, copts: &CompileOptions) -> Result<Vec<u8>, String> {
    let v = VmOptions {
        max_steps: 20_000_000,
        ..VmOptions::default()
    };
    compile_and_run(src, copts, &v)
        .map(|o| o.output)
        .map_err(|e| e.to_string())
}

#[test]
fn every_mode_computes_the_same_value() {
    for case in 0..48 {
        let mut rng = Rng::for_case("every_mode_same", case);
        let src = program_from(&gen_stmts(&mut rng, 10));
        let baseline = run_mode(&src, &CompileOptions::optimized())
            .unwrap_or_else(|e| panic!("-O failed on:\n{src}\n{e}"));
        for (name, opts) in [
            ("-O safe", CompileOptions::optimized_safe()),
            ("-g", CompileOptions::debug()),
            ("-g checked", CompileOptions::debug_checked()),
        ] {
            let got =
                run_mode(&src, &opts).unwrap_or_else(|e| panic!("{name} failed on:\n{src}\n{e}"));
            assert_eq!(got, baseline, "{name} diverges on:\n{src}");
        }
    }
}

#[test]
fn compiling_a_parsed_program_equals_compiling_its_source() {
    // `compile_parsed` is what the fuzz oracle builds every mode with, so
    // its result, alloc-site labels included, must equal `compile`'s in
    // every mode, on a cold cache (each path runs the stages itself) and
    // on a warm one (each path serves the other's entry).
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut sources: Vec<String> = std::fs::read_dir(corpus)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| std::fs::read_to_string(p).expect("readable corpus file"))
        .collect();
    sources.extend((0..16).map(|case| {
        let mut rng = Rng::for_case("every_mode_same", case);
        program_from(&gen_stmts(&mut rng, 10))
    }));
    sources.extend((0..16).map(|case| gcfuzz::generate(5, case)));
    for src in &sources {
        let parsed = cfront::parse(src).unwrap_or_else(|e| panic!("{e}:\n{src}"));
        for mode in Mode::all() {
            let opts = mode.compile_options();
            let label = mode.label();
            cvm::compile_cache_clear();
            let want = cvm::compile(src, &opts);
            assert!(want.is_ok(), "{label}: {want:?}");
            let warm = cvm::compile_parsed(&parsed, src, &opts);
            assert_eq!(warm, want, "{label} warm, on:\n{src}");
            cvm::compile_cache_clear();
            let cold = cvm::compile_parsed(&parsed, src, &opts);
            assert_eq!(cold, want, "{label} cold, on:\n{src}");
            assert_eq!(cvm::compile(src, &opts), want, "{label} warm, on:\n{src}");
        }
    }
}

#[test]
fn optimizer_ablations_agree() {
    for case in 0..48 {
        let mut rng = Rng::for_case("optimizer_ablations", case);
        let src = program_from(&gen_stmts(&mut rng, 8));
        let baseline = run_mode(&src, &CompileOptions::optimized())
            .unwrap_or_else(|e| panic!("-O failed on:\n{src}\n{e}"));
        // Each disguising pass individually disabled must not change results.
        type Ablate = fn(&mut cvm::OptOptions);
        let single: [(&str, Ablate); 5] = [
            ("reassociate", |o| o.reassociate = false),
            ("schedule", |o| o.schedule = false),
            ("licm", |o| o.licm = false),
            ("gvn", |o| o.gvn = false),
            ("sccp", |o| o.sccp = false),
        ];
        for (name, ablate) in single {
            let mut opts = CompileOptions::optimized();
            ablate(&mut opts.opt);
            let got =
                run_mode(&src, &opts).unwrap_or_else(|e| panic!("ablation failed:\n{src}\n{e}"));
            assert_eq!(got, baseline, "ablation (no {name}) diverges on:\n{src}");
        }
    }
}

#[test]
fn optimizer_is_idempotent_on_generated_programs() {
    // The fixpoint driver stops when a sweep reports zero changes, so a
    // program that already went through `-O` must be a fixed point: a
    // second driver run reports zero fires for *every* registered pass,
    // on every function of any generator program.
    let opts = CompileOptions::optimized();
    for case in 0..40 {
        let src = gcfuzz::generate(11, case);
        let prog = cvm::compile(&src, &opts).unwrap_or_else(|e| panic!("case {case}: {e}"));
        for f in &prog.funcs {
            let mut again = f.clone();
            let ledger = cvm::optimize_func_ledger(&mut again, opts.opt);
            for (pass, fires) in &ledger.fires {
                assert_eq!(
                    *fires,
                    0,
                    "case {case}: pass {pass} fired {fires}x on a second run over `{}`:\n{}",
                    f.name,
                    f.dump()
                );
            }
            assert_eq!(&again, f, "case {case}: second run changed `{}`", f.name);
        }
    }
}
