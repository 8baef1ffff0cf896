//! Property tests for the frontend: pretty-print/re-parse round trips
//! over randomly generated programs, and edit-list algebra. Cases are
//! generated with the deterministic PRNG in `common` (the build is
//! offline, so no external property-testing framework).

mod common;

use cfront::edit::EditList;
use common::Rng;

// ---------------------------------------------------------------------
// Random C program generation (well-formed by construction).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CExpr {
    Var(usize),
    Lit(i64),
    Bin(&'static str, Box<CExpr>, Box<CExpr>),
    Neg(Box<CExpr>),
    Ternary(Box<CExpr>, Box<CExpr>, Box<CExpr>),
}

impl CExpr {
    fn print(&self) -> String {
        match self {
            CExpr::Var(i) => format!("x{}", i % 3),
            CExpr::Lit(v) => format!("{v}"),
            CExpr::Bin(op, a, b) => format!("({} {op} {})", a.print(), b.print()),
            CExpr::Neg(a) => format!("(-({}))", a.print()),
            CExpr::Ternary(c, t, f) => {
                format!("({} ? {} : {})", c.print(), t.print(), f.print())
            }
        }
    }
}

const OPS: [&str; 10] = ["+", "-", "*", "&", "|", "^", "<<", "<", "==", "&&"];

fn gen_cexpr(rng: &mut Rng, depth: u32) -> CExpr {
    if depth == 0 || rng.chance(1, 3) {
        return if rng.chance(1, 2) {
            CExpr::Var(rng.index(3))
        } else {
            CExpr::Lit(rng.range_i64(-99, 99))
        };
    }
    match rng.index(3) {
        0 => CExpr::Bin(
            OPS[rng.index(OPS.len())],
            gen_cexpr(rng, depth - 1).into(),
            gen_cexpr(rng, depth - 1).into(),
        ),
        1 => CExpr::Neg(gen_cexpr(rng, depth - 1).into()),
        _ => CExpr::Ternary(
            gen_cexpr(rng, depth - 1).into(),
            gen_cexpr(rng, depth - 1).into(),
            gen_cexpr(rng, depth - 1).into(),
        ),
    }
}

/// parse → pretty-print → parse → pretty-print is a fixpoint: the
/// second print must equal the first (printer/parser agree on
/// precedence and associativity).
fn assert_roundtrip_fixpoint(e: &CExpr) {
    let src = format!(
        "long f(long x0, long x1, long x2) {{ return {}; }}",
        e.print()
    );
    let prog1 = cfront::parse(&src).expect("generated source parses");
    let printed1 = cfront::pretty::program_to_c(&prog1);
    let prog2 =
        cfront::parse(&printed1).unwrap_or_else(|err| panic!("reparse failed: {err}\n{printed1}"));
    let printed2 = cfront::pretty::program_to_c(&prog2);
    assert_eq!(printed1, printed2, "not a fixpoint for:\n{src}");
}

#[test]
fn pretty_print_roundtrip_is_a_fixpoint() {
    for case in 0..128 {
        let mut rng = Rng::for_case("roundtrip_fixpoint", case);
        let e = gen_cexpr(&mut rng, 4);
        assert_roundtrip_fixpoint(&e);
    }
}

/// Historical shrink from the fuzzer: `x0 + (-(-1))` once reprinted
/// differently on the second pass.
#[test]
fn regression_neg_of_negative_literal() {
    let e = CExpr::Bin(
        "+",
        CExpr::Var(0).into(),
        CExpr::Neg(CExpr::Lit(-1).into()).into(),
    );
    assert_roundtrip_fixpoint(&e);
}

/// The step budget of every run here: a few times the longest run's 15
/// steps, so a change that breaks a loop exit fails the test at once
/// instead of spinning through the default budget of two billion steps.
const MAX_STEPS: u64 = 100;

/// The printed program is semantically identical to the original:
/// both compile and compute the same value.
#[test]
fn pretty_printed_program_computes_the_same() {
    for case in 0..128 {
        let mut rng = Rng::for_case("print_semantics", case);
        let body = gen_cexpr(&mut rng, 4).print();
        let src = format!(
            "int main(void) {{ long x0 = 5; long x1 = -3; long x2 = 7;\n\
             putint(({body}) & 0xffff); return 0; }}"
        );
        let printed = cfront::pretty::program_to_c(&cfront::parse(&src).expect("parses"));
        let run = |s: &str| {
            cvm::compile_and_run(
                s,
                &cvm::CompileOptions::optimized(),
                &cvm::VmOptions {
                    max_steps: MAX_STEPS,
                    ..cvm::VmOptions::default()
                },
            )
            .expect("runs")
            .output
        };
        assert_eq!(
            run(&src),
            run(&printed),
            "print changed semantics of:\n{src}"
        );
    }
}

/// Non-overlapping edits: bytes outside all edited ranges survive
/// application verbatim, in order.
#[test]
fn edits_preserve_untouched_bytes() {
    for case in 0..128 {
        let mut rng = Rng::for_case("edit_bytes", case);
        let src: String = (0..rng.range_i64(20, 60))
            .map(|_| (b'a' + rng.next_u8() % 26) as char)
            .collect();
        let n_cuts = rng.index(6);
        let mut cuts: Vec<(usize, usize, String)> = (0..n_cuts)
            .map(|_| {
                let pos = rng.index(50);
                let len = 1 + rng.index(3);
                let ins: String = (0..rng.index(6))
                    .map(|_| (b'A' + rng.next_u8() % 26) as char)
                    .collect();
                (pos, len, ins)
            })
            .collect();
        // Normalise to sorted, non-overlapping edits inside the string.
        let mut spans: Vec<(usize, usize, String)> = Vec::new();
        let mut last_end = 0usize;
        cuts.sort_by_key(|c| c.0);
        for (pos, len, ins) in cuts {
            let pos = pos.min(src.len());
            if pos < last_end {
                continue;
            }
            let len = len.min(src.len() - pos);
            spans.push((pos, len, ins));
            last_end = pos + len;
        }
        let mut el = EditList::new();
        for (pos, len, ins) in &spans {
            el.replace(*pos, *len, ins.clone());
        }
        let out = el.apply(&src).expect("valid edits apply");
        // Reconstruct the expectation directly.
        let mut expect = String::new();
        let mut cursor = 0usize;
        for (pos, len, ins) in &spans {
            expect.push_str(&src[cursor..*pos]);
            expect.push_str(ins);
            cursor = pos + len;
        }
        expect.push_str(&src[cursor..]);
        assert_eq!(out, expect, "edits {spans:?} misapplied to {src:?}");
    }
}

/// Applying an empty edit list is the identity for any source.
#[test]
fn empty_edit_list_is_identity() {
    for case in 0..64 {
        let mut rng = Rng::for_case("empty_edits", case);
        let src: String = (0..rng.index(200))
            .map(|_| {
                // Mixed printable ASCII plus the odd multibyte char.
                match rng.index(12) {
                    0 => 'λ',
                    1 => '\n',
                    _ => (b' ' + rng.next_u8() % 95) as char,
                }
            })
            .collect();
        assert_eq!(EditList::new().apply(&src).expect("applies"), src);
    }
}
