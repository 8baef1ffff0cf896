//! The programs of the program workloads, drawn from the seed.
//!
//! * `matrix` — the paper's four programs at a scale where every build
//!   that runs to the end collects at least once and a pass takes a few
//!   seconds;
//! * `fuzz` — gcfuzz programs of the campaign named by the seed, drawn
//!   in equal numbers from each tenth of the generator's size range.
//!
//! The `heap` workload runs no programs: see `heap`.

use workloads::{cfrac, cordtest, gawk, gs};

/// Fuzz programs per run, in [`SIZE_BANDS`] bands of equal count.
const FUZZ_PROGRAMS: usize = 150;

/// Source-size bands of the fuzz draw. The peephole pass costs more than
/// linearly in program size, so a plain draw of a few hundred programs
/// would move the workload's times by several percent from seed to
/// seed; a draw stratified by size does not.
const SIZE_BANDS: usize = 10;

/// Programs of a fixed reference campaign that set the band edges.
const REFERENCE_PROGRAMS: u64 = 500;

/// The fuzz draw: the campaign `seed`'s programs in case order, each kept
/// while its size band has room.
fn fuzz(seed: u64) -> Vec<Program> {
    let mut sizes: Vec<usize> = (0..REFERENCE_PROGRAMS)
        .map(|case| gcfuzz::generate(u64::MAX, case).len())
        .collect();
    sizes.sort_unstable();
    let edges: Vec<usize> = (1..SIZE_BANDS)
        .map(|b| sizes[b * sizes.len() / SIZE_BANDS])
        .collect();
    let quota = FUZZ_PROGRAMS / SIZE_BANDS;
    let mut filled = [0; SIZE_BANDS];
    let mut programs = Vec::new();
    for case in 0.. {
        if programs.len() == FUZZ_PROGRAMS {
            break;
        }
        let source = gcfuzz::generate(seed, case);
        let band = edges.partition_point(|&edge| edge <= source.len());
        if filled[band] < quota {
            filled[band] += 1;
            programs.push(Program {
                name: format!("fuzz {seed}/{case}"),
                source,
                input: Vec::new(),
                check: Check::Oracle,
            });
        }
    }
    programs
}

/// A program and what its runs must show.
pub struct Program {
    /// Name in diagnostics.
    pub name: String,
    /// C source.
    pub source: String,
    /// Bytes served to `getchar`.
    pub input: Vec<u8>,
    /// What makes a run right.
    pub check: Check,
}

/// What makes a run right.
pub enum Check {
    /// Every mode prints what `-O` prints, except that a program with a
    /// pointer-arithmetic bug must fail the check in `-g, checked`.
    AgreeWithO {
        /// Whether the program has such a bug.
        checked_fails: bool,
    },
    /// The five-mode fuzz oracle accepts the program, and it runs at `-O`.
    Oracle,
}

/// The programs of the program workload `workload` (`matrix` or `fuzz`)
/// for `seed`.
pub fn draw(workload: &str, seed: u64) -> Vec<Program> {
    match workload {
        "matrix" => workloads::all()
            .into_iter()
            .map(|w| Program {
                name: w.name.to_string(),
                source: w.source.to_string(),
                input: match w.name {
                    "cordtest" => cordtest::input(1, 1800),
                    "cfrac" => cfrac::input(&cfrac::default_numbers(12)),
                    "gawk" => gawk::input(1000),
                    "gs" => gs::input(2500),
                    other => panic!("no benchmark scale for workload {other}"),
                },
                check: Check::AgreeWithO {
                    checked_fails: w.checked_fails,
                },
            })
            .collect(),
        "fuzz" => fuzz(seed),
        other => panic!("{other} is not a program workload"),
    }
}
