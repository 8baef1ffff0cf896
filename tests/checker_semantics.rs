//! Checker semantics straight from the paper's prose.

use cvm::{compile_and_run, CompileOptions, VmError, VmOptions};

/// The step budget of every run here: a few times the longest run's 229
/// steps, so a change that breaks a loop exit fails a test at once
/// instead of spinning through the default budget of two billion steps.
const MAX_STEPS: u64 = 1_000;

fn run_checked(src: &str) -> Result<i64, VmError> {
    let vm = VmOptions {
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    };
    compile_and_run(src, &CompileOptions::debug_checked(), &vm).map(|o| o.exit_code)
}

#[test]
fn cast_based_field_overflow_is_caught() {
    // "If we cast a 'struct A *' to 'struct B *', accesses to fields of
    // the resulting pointer will be checked to verify that they are
    // within the allocated object."
    let src = r#"
        struct a { long x; };
        struct b { long f0; long f1; long f2; long f3; long f4; long f5; long f6; long f7; };
        int main(void) {
            struct a *small = (struct a *) malloc(sizeof(struct a));
            struct b *lied = (struct b *) small;
            lied->f0 = 1;            /* within the (rounded) object: fine */
            return (int) lied->f7;   /* far past the end: must be caught */
        }
    "#;
    match run_checked(src) {
        Err(VmError::CheckFailed { .. }) => {}
        other => panic!("expected CheckFailed, got {other:?}"),
    }
}

#[test]
fn rounded_sizes_make_checking_inexact() {
    // "Our checking is not completely accurate, since the garbage
    // collector rounds up object sizes." A one-field overflow that stays
    // inside the size-class slot is tolerated.
    let src = r#"
        struct a { long x; };          /* 8 bytes + extra byte → 16-byte slot */
        struct b { long f0; char c; }; /* c at offset 8: inside the slot */
        int main(void) {
            struct a *small = (struct a *) malloc(sizeof(struct a));
            struct b *lied = (struct b *) small;
            lied->c = 7;
            return lied->c;
        }
    "#;
    assert_eq!(run_checked(src).expect("slack access tolerated"), 7);
}

#[test]
fn one_past_the_end_is_legal() {
    // "Either may also point one past the end of the object, which we
    // handle by allocating all heap objects with at least one extra byte."
    let src = r#"
        int main(void) {
            char *a = (char *) malloc(10);
            char *end = a + 10;       /* one past the end: legal ANSI C */
            char *p;
            long n = 0;
            for (p = a; p != end; p++) { *p = 1; n += *p; }
            return (int) n;
        }
    "#;
    assert_eq!(run_checked(src).expect("one-past-end is fine"), 10);
}

#[test]
fn hashing_pointer_values_is_fine() {
    // "Hashing on pointer values is no problem, since we effectively
    // assume a nonmoving garbage collector."
    let src = r#"
        int main(void) {
            char *p = (char *) malloc(40);
            long h = ((long) p >> 4) % 97;    /* ptr→int, arithmetic on int */
            return h >= 0 && h < 97 ? 0 : 1;
        }
    "#;
    assert_eq!(run_checked(src).expect("pointer hashing passes"), 0);
}

#[test]
fn pointer_int_round_trip_without_arithmetic_is_benign() {
    // "conversion of a pointer to an integer and back, without
    // intervening arithmetic, is benign".
    let src = r#"
        int main(void) {
            char *p = (char *) malloc(16);
            long as_int = (long) p;
            char *q = (char *) as_int;
            *q = 42;
            return *p;
        }
    "#;
    assert_eq!(run_checked(src).expect("round trip is benign"), 42);
}

#[test]
fn small_int_to_pointer_never_dereferenced_is_tolerated() {
    // "the common practice of converting very small integers to pointers
    // that are never dereferenced" — e.g. sentinel values.
    let src = r#"
        int main(void) {
            char *sentinel = (char *) 1;
            char *p = (char *) malloc(8);
            if (p == sentinel) return 9;
            return 0;
        }
    "#;
    assert_eq!(run_checked(src).expect("sentinels are fine"), 0);
}

#[test]
fn subscript_past_extent_is_caught() {
    let src = r#"
        int main(void) {
            long *a = (long *) malloc(4 * sizeof(long));
            long i;
            long s = 0;
            for (i = 0; i <= 8; i++) s += a[i]; /* runs off the object */
            return (int) s;
        }
    "#;
    match run_checked(src) {
        Err(VmError::CheckFailed { .. }) => {}
        other => panic!("expected CheckFailed, got {other:?}"),
    }
}
