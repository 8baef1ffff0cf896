//! Acceptance: the minimizer, pointed at a program carrying the
//! paper's known `-O` hazard (a displaced base whose object is
//! collected while only the disguise survives), shrinks it to a
//! corpus-style reproducer automatically.

use cvm::{compile_and_run, CompileOptions, VmError, VmOptions};
use gcheap::HeapConfig;

/// The step budget of every run here, the minimizer's candidates
/// included: a few times the longest run's 48,147 steps, so a change
/// that breaks a loop exit fails the test at once instead of spinning
/// through the default budget of two billion steps.
const MAX_STEPS: u64 = 200_000;

fn paranoid() -> VmOptions {
    VmOptions {
        heap_config: HeapConfig {
            gc_threshold: 1,
            ..HeapConfig::default()
        },
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    }
}

/// The permanent divergence the paper is about: the `-O` build dies of
/// premature collection under a paranoid collector while the annotated
/// build, with the same optimizations, survives.
fn shows_the_hazard(src: &str) -> bool {
    let unsafe_dies = matches!(
        compile_and_run(src, &CompileOptions::optimized(), &paranoid()),
        Err(VmError::UseAfterFree { .. })
    );
    let safe_survives =
        compile_and_run(src, &CompileOptions::optimized_safe(), &paranoid()).is_ok();
    unsafe_dies && safe_survives
}

#[test]
fn the_known_hazard_shrinks_to_a_corpus_style_reproducer() {
    // The gc_unsafety.rs hazard buried under dead helpers, globals, and
    // noise statements.
    let src = r#"
        long table_a;
        long table_b;
        long scale(long x) { return x * 3 + 1; }
        long twiddle(long *v, long n) {
            long i;
            long s;
            s = 0;
            for (i = 0; i < n; i = i + 1) { s = s + v[i]; }
            return s;
        }
        char hazard(char *p) {
            char *trigger = (char *) malloc(64);
            long i = (long) trigger[0] + 2000;
            return p[i - 1000];
        }
        int main(void) {
            char *buf = (char *) malloc(4000);
            long j;
            long waste;
            waste = 0;
            for (j = 0; j < 10; j = j + 1) { waste = waste + scale(j); }
            for (j = 0; j < 4000; j++) buf[j] = (char)(j % 50);
            if (waste > 10000) { putint(waste); } else { waste = waste - 1; }
            return hazard(buf);
        }
    "#;
    assert!(shows_the_hazard(src), "the seeded hazard is live");

    let small = gcfuzz::minimize(src, &mut |s| shows_the_hazard(s));

    assert!(
        shows_the_hazard(&small),
        "still the same bug after shrinking"
    );
    cfront::parse(&small).expect("reproducer parses");
    assert!(
        small.len() < src.len() / 2,
        "shrunk below half the input:\n{small}"
    );
    for gone in ["scale", "twiddle", "waste", "table_a", "table_b"] {
        assert!(!small.contains(gone), "noise '{gone}' removed:\n{small}");
    }
    assert!(
        small.contains("hazard") && small.contains("malloc"),
        "the essence survives:\n{small}"
    );
}
