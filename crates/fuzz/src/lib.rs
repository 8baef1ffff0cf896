//! # gcfuzz — differential mode-agreement fuzzer
//!
//! The paper's claim is behavioural: the GC-safety annotations change
//! *nothing* about what a program computes, in any mode, while the safe
//! modes additionally survive a collector that runs at every allocation.
//! gcfuzz turns that claim into a randomized test:
//!
//! * [`gen`] — a seeded, deterministic generator of C programs in the
//!   cfront subset, biased toward the paper's pointer-disguising
//!   patterns (displaced bases, last-use cursor arithmetic);
//! * [`oracle`] — parses each program once, builds it once per distinct
//!   compile options of the five [`Mode`]s, and checks build success, verifier cleanliness, per-mode determinism,
//!   cross-mode exit/output agreement, and paranoid-collector survival
//!   for the safe modes;
//! * [`minimize`](mod@minimize) — a delta-debugging shrinker that works
//!   on parsed ASTs through the cfront pretty-printer round-trip.
//!
//! [`run_campaign`] fans cases out across scoped worker threads (the
//! same pattern as the bench matrix) and reassembles findings in case
//! order, so a campaign's report is byte-identical regardless of
//! `--jobs`. Divergent cases are re-generated from their index and
//! minimized while preserving the divergence class.

#![warn(missing_docs)]

pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod rng;

pub use gc_safety::{default_jobs, Mode};
pub use gen::generate;
pub use minimize::minimize;
pub use oracle::{check, Divergence};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One divergent case, with its shrunken reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReport {
    /// Index of the case within the campaign (`0..count`).
    pub case_index: u64,
    /// The full generated program.
    pub source: String,
    /// The divergence the oracle found.
    pub divergence: Divergence,
    /// The minimized program, still showing the same divergence class.
    pub minimized: String,
}

/// A whole campaign's findings, in case order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The campaign seed.
    pub seed: u64,
    /// Number of cases generated and checked.
    pub count: u64,
    /// Divergent cases (empty when all modes agree everywhere).
    pub failures: Vec<CaseReport>,
}

/// Generates and checks `count` cases from `seed` across `jobs` worker
/// threads. Deterministic: the report depends only on `(seed, count)`.
pub fn run_campaign(seed: u64, count: u64, jobs: usize) -> Report {
    let slots: Vec<Mutex<Option<Option<Divergence>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.clamp(1, count.max(1) as usize);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as u64;
                if i >= count {
                    break;
                }
                let src = gen::generate(seed, i);
                let verdict = oracle::check(&src);
                *slots[i as usize].lock().expect("case slot") = Some(verdict);
            });
        }
    });
    let mut failures = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        let verdict = slot
            .into_inner()
            .expect("case slot")
            .expect("every case was checked");
        if let Some(divergence) = verdict {
            let source = gen::generate(seed, i as u64);
            let kind = divergence.kind();
            let minimized = minimize::minimize(&source, &mut |s| {
                oracle::check(s).is_some_and(|d| d.kind() == kind)
            });
            failures.push(CaseReport {
                case_index: i as u64,
                source,
                divergence,
                minimized,
            });
        }
    }
    Report {
        seed,
        count,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_campaign_is_clean() {
        let report = run_campaign(11, 8, 2);
        for f in &report.failures {
            eprintln!("case {}: {}\n{}", f.case_index, f.divergence, f.minimized);
        }
        assert!(report.failures.is_empty());
    }

    #[test]
    fn campaigns_are_reproducible_regardless_of_jobs() {
        assert_eq!(run_campaign(7, 6, 1), run_campaign(7, 6, 3));
    }
}
