//! # workloads — the paper's benchmark programs, miniaturized
//!
//! The paper measures "a small collection of small-to-medium-sized C
//! programs, mostly drawn from the Zorn benchmark suite … all of these
//! programs are very pointer and allocation intensive". The originals are
//! not redistributable here, so this crate carries four miniature
//! stand-ins written in the supported C subset that preserve the
//! behaviours the paper's measurements depend on:
//!
//! * [`cordtest`] — the cord (rope) string package and its test;
//! * [`cfrac`] — factoring over a heap-allocated bignum package;
//! * [`gawk`] — field splitting + hash tallying, **including the
//!   one-before-the-array pointer bug** the paper's checker caught
//!   (the `<fails>` table cell);
//! * [`gs`] — a PostScript-flavoured object/stack interpreter with
//!   prepended object headers and a function-pointer dispatch table.
//!
//! Every program reads its scale parameters from the input stream, so one
//! source serves both test-sized and paper-sized runs.

#![warn(missing_docs)]

pub mod cfrac;
pub mod cordtest;
pub mod gawk;
pub mod gs;

/// How big a run to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Tiny inputs for unit tests (sub-second interpreted runs).
    Tiny,
    /// The scale used by the table-regeneration harness.
    #[default]
    Paper,
}

/// A named benchmark: C source plus input generator.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Program name as it appears in the paper's tables.
    pub name: &'static str,
    /// C-subset source text.
    pub source: &'static str,
    /// Whether the checking-mode run is expected to abort with a pointer
    /// arithmetic error (the paper's gawk `<fails>` cell).
    pub checked_fails: bool,
    /// Input stream for the given scale.
    pub input: fn(Scale) -> Vec<u8>,
}

// Paper-scale inputs are sized so every collecting (workload, mode)
// cell crosses the 256 KiB collection threshold at least ten times, so
// the trajectory's work counts measure the collector rather than one
// stray collection. The counts are deterministic, so the floor is
// checked against the committed BENCH_gc.json, not tuned per machine.

fn cordtest_input(scale: Scale) -> Vec<u8> {
    match scale {
        Scale::Tiny => cordtest::input(1, 40),
        Scale::Paper => cordtest::input(5, 1800),
    }
}

fn cfrac_input(scale: Scale) -> Vec<u8> {
    // Paper scale is sized so every mode cell crosses the 256 KiB
    // collection threshold well over ten times — with big_mod_small's
    // scratch copies, each number factored churns tens of kilobytes of
    // short-lived digit arrays.
    let numbers = match scale {
        Scale::Tiny => cfrac::default_numbers(3),
        Scale::Paper => cfrac::default_numbers(120),
    };
    cfrac::input(&numbers)
}

fn gawk_input(scale: Scale) -> Vec<u8> {
    match scale {
        Scale::Tiny => gawk::input(30),
        Scale::Paper => gawk::input(6000),
    }
}

fn gs_input(scale: Scale) -> Vec<u8> {
    match scale {
        Scale::Tiny => gs::input(40),
        Scale::Paper => gs::input(18000),
    }
}

/// All four workloads in the paper's table order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "cordtest",
            source: cordtest::SOURCE,
            checked_fails: false,
            input: cordtest_input,
        },
        Workload {
            name: "cfrac",
            source: cfrac::SOURCE,
            checked_fails: false,
            input: cfrac_input,
        },
        Workload {
            name: "gawk",
            source: gawk::SOURCE,
            checked_fails: true,
            input: gawk_input,
        },
        Workload {
            name: "gs",
            source: gs::SOURCE,
            checked_fails: false,
            input: gs_input,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
