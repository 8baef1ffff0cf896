//! The regression verdict: candidate `BENCH_gc.json` vs budgets, and
//! optionally vs a baseline run through the noise gate.
//!
//! Three checks per cell, any failure fails the gate:
//!
//! 1. **Budget ceiling** — `max_pause_ns` above the cell's budgeted
//!    ceiling fails outright. Ceilings are seeded with margin
//!    (`seed-budgets`), so only a real regression crosses one.
//! 2. **Permille floor** — a budgeted `<name>_floor_permille` checks the
//!    candidate's `<name>_permille` field: below the floor fails, and so
//!    does a candidate cell that does not export the field at all. MMU
//!    floors (`mmu_10ms_floor_permille`) catch the collector eating more
//!    of the mutator's time.
//! 3. **Noise gate** (only with a baseline) — the candidate's
//!    `max_pause_ns` may exceed the baseline median by at most
//!    `max(k·MAD, rel_slack, abs_slack)`; see [`crate::budgets::Gate`].
//!    The MAD comes from the baseline's `max_pause_ns_mad` field when the
//!    baseline was aggregated with `--repeat`, else 0 (the relative and
//!    absolute slacks still protect single-run baselines).
//!
//! Cell-set mismatches are **hard failures**, not notes. A cell present
//! in the baseline or the budgets file but missing from the candidate
//! means a workload was silently skipped — the gate cannot vouch for a
//! run it never saw. A candidate cell absent from the baseline (or
//! collecting without a budget) has no ceiling gating it. The matrix
//! does legitimately grow, but exactly once per growth: pass
//! `allow_new_cells` (`--allow-new-cells` on the CLI) to accept new
//! cells for that run and then reseed the budgets. Missing cells fail
//! regardless of the flag.

use crate::budgets::Budgets;
use crate::stats::{cell_key, parse_cells};
use gctrace::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One cell's comparison outcome.
#[derive(Debug, Clone)]
pub struct CellVerdict {
    /// `workload/mode` key.
    pub cell: String,
    /// Candidate `max_pause_ns`.
    pub cand_pause: u64,
    /// Baseline median `max_pause_ns`, when a baseline was given and has
    /// the cell.
    pub base_pause: Option<u64>,
    /// Budgeted ceiling, when the budgets file has the cell.
    pub budget: Option<u64>,
    /// Failure descriptions; empty means the cell passed.
    pub failures: Vec<String>,
    /// Non-fatal notes (zero collections, new cells accepted by
    /// `allow_new_cells`).
    pub notes: Vec<String>,
}

/// The whole comparison: per-cell verdicts plus the rendered diff table.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Every candidate cell in document order.
    pub cells: Vec<CellVerdict>,
}

impl Verdict {
    /// True when no cell failed any check.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| c.failures.is_empty())
    }

    /// The failing cells' keys.
    pub fn failing_cells(&self) -> Vec<&str> {
        self.cells
            .iter()
            .filter(|c| !c.failures.is_empty())
            .map(|c| c.cell.as_str())
            .collect()
    }

    /// The human-readable diff table: one row per cell with baseline,
    /// candidate, budget, and verdict columns, followed by failure and
    /// note details.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let key_w = self
            .cells
            .iter()
            .map(|c| c.cell.len())
            .max()
            .unwrap_or(4)
            .max("cell".len());
        let _ = writeln!(
            out,
            "{:key_w$}  {:>14}  {:>14}  {:>14}  verdict",
            "cell", "base max_pause", "cand max_pause", "budget"
        );
        for c in &self.cells {
            let base = c
                .base_pause
                .map_or_else(|| "-".to_string(), |v| v.to_string());
            let budget = c.budget.map_or_else(|| "-".to_string(), |v| v.to_string());
            let verdict = if c.failures.is_empty() { "ok" } else { "FAIL" };
            let _ = writeln!(
                out,
                "{:key_w$}  {:>14}  {:>14}  {:>14}  {}",
                c.cell, base, c.cand_pause, budget, verdict
            );
        }
        for c in &self.cells {
            for f in &c.failures {
                let _ = writeln!(out, "FAIL {}: {f}", c.cell);
            }
            for n in &c.notes {
                let _ = writeln!(out, "note {}: {n}", c.cell);
            }
        }
        let _ = writeln!(
            out,
            "{}",
            if self.passed() {
                "gate: PASS"
            } else {
                "gate: FAIL"
            }
        );
        out
    }
}

fn u(cell: &BTreeMap<String, JsonValue>, key: &str) -> Option<u64> {
    cell.get(key).and_then(JsonValue::as_u64)
}

/// Compares a candidate `BENCH_gc.json` against budgets and an optional
/// baseline document. See the module docs for the checks.
///
/// `allow_new_cells` downgrades the "cell absent from baseline" and
/// "cell collecting without a budget" failures to notes — for the one
/// run where the matrix intentionally grew. Cells *missing* from the
/// candidate fail regardless.
///
/// # Errors
///
/// Returns a message if either document fails to parse or the candidate
/// is empty.
pub fn compare(
    baseline: Option<&str>,
    candidate: &str,
    budgets: &Budgets,
    allow_new_cells: bool,
) -> Result<Verdict, String> {
    let cand_cells = parse_cells(candidate)?;
    if cand_cells.is_empty() {
        return Err("candidate has no cells".into());
    }
    let base_cells: BTreeMap<String, BTreeMap<String, JsonValue>> = match baseline {
        Some(text) => parse_cells(text)?
            .into_iter()
            .map(|c| (cell_key(&c), c))
            .collect(),
        None => BTreeMap::new(),
    };
    let mut seen = Vec::new();
    let mut cells = Vec::new();
    for cand in &cand_cells {
        let key = cell_key(cand);
        seen.push(key.clone());
        let cand_pause = u(cand, "max_pause_ns").unwrap_or(0);
        let mut v = CellVerdict {
            cell: key.clone(),
            cand_pause,
            base_pause: None,
            budget: None,
            failures: Vec::new(),
            notes: Vec::new(),
        };
        let collections = u(cand, "collections").unwrap_or(0);
        if collections == 0 {
            v.notes
                .push("zero collections: pause budgets vacuous for this cell".into());
        }
        if !budgets.cells.is_empty() && !budgets.cells.contains_key(&key) && collections > 0 {
            // Zero-collection cells are exempt: `seed-budgets` never
            // writes ceilings for them, so their absence is expected.
            let what = "new cell: collects but has no budget, so its pauses are ungated";
            if allow_new_cells {
                v.notes
                    .push(format!("{what} (accepted; reseed budgets to cover it)"));
            } else {
                v.failures.push(format!(
                    "{what} (pass --allow-new-cells, then reseed budgets)"
                ));
            }
        }
        if let Some(b) = budgets.cells.get(&key) {
            v.budget = b.max_pause_ns;
            if let Some(ceiling) = b.max_pause_ns {
                if cand_pause > ceiling {
                    v.failures.push(format!(
                        "max_pause_ns {cand_pause} exceeds budget ceiling {ceiling}"
                    ));
                }
            }
            for (base, floor) in &b.floors_permille {
                let field = format!("{base}_permille");
                match u(cand, &field) {
                    Some(got) if got < *floor => v
                        .failures
                        .push(format!("{field} {got} is below floor {floor}")),
                    Some(_) => {}
                    None => v
                        .failures
                        .push(format!("{field} budgeted but not exported by candidate")),
                }
            }
        }
        if let Some(base) = base_cells.get(&key) {
            let base_pause = u(base, "max_pause_ns").unwrap_or(0);
            let base_mad = u(base, "max_pause_ns_mad").unwrap_or(0);
            v.base_pause = Some(base_pause);
            let allowance = budgets.gate.allowance(base_pause, base_mad);
            if cand_pause > base_pause.saturating_add(allowance) {
                v.failures.push(format!(
                    "max_pause_ns {cand_pause} exceeds baseline {base_pause} + allowance {allowance} \
(k_mad={}, mad={base_mad})",
                    budgets.gate.k_mad
                ));
            }
        } else if baseline.is_some() {
            let what = "new cell: absent from baseline, so the noise gate cannot see it";
            if allow_new_cells {
                v.notes.push(format!("{what} (accepted)"));
            } else {
                v.failures.push(format!("{what} (pass --allow-new-cells)"));
            }
        }
        cells.push(v);
    }
    // Cells the baseline or the budgets file expects but the candidate
    // never produced: a silently skipped cell must fail the gate, flag
    // or no flag — there is no run to vouch for.
    let absent: std::collections::BTreeSet<&String> = base_cells
        .keys()
        .chain(budgets.cells.keys())
        .filter(|k| !seen.contains(*k))
        .collect();
    for key in absent {
        let origin = match (
            base_cells.contains_key(key),
            budgets.cells.contains_key(key),
        ) {
            (true, true) => "baseline and budgets",
            (true, false) => "baseline",
            _ => "budgets",
        };
        cells.push(CellVerdict {
            cell: key.clone(),
            cand_pause: 0,
            base_pause: base_cells.get(key).and_then(|c| u(c, "max_pause_ns")),
            budget: budgets.cells.get(key).and_then(|b| b.max_pause_ns),
            failures: vec![format!(
                "cell present in {origin} but missing from candidate — a skipped cell cannot pass"
            )],
            notes: Vec::new(),
        });
    }
    Ok(Verdict { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budgets;

    fn doc(cells: &[(&str, &str, u64, u64, Option<u64>)]) -> String {
        // (workload, mode, collections, max_pause_ns, mad)
        let lines: Vec<String> = cells
            .iter()
            .map(|(w, m, coll, pause, mad)| {
                let mad = mad.map_or(String::new(), |v| format!(",\"max_pause_ns_mad\":{v}"));
                format!(
                    "  {{\"schema\":\"gc/1\",\"kind\":\"matrix\",\"workload\":\"{w}\",\"mode\":\"{m}\",\
\"collections\":{coll},\"max_pause_ns\":{pause}{mad}}}"
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }

    #[test]
    fn budget_ceiling_catches_a_doubled_pause_and_names_the_cell() {
        let baseline = doc(&[("churn-small", "heap-direct", 40, 1_000_000, Some(30_000))]);
        let budgets = budgets::seed(&baseline, 1500).unwrap();
        // Clean candidate: same pause, passes.
        let clean = compare(Some(&baseline), &baseline, &budgets, false).unwrap();
        assert!(clean.passed(), "{}", clean.table());
        // 2× inflation: fails the ceiling AND the noise gate, names the cell.
        let inflated = doc(&[("churn-small", "heap-direct", 40, 2_000_000, None)]);
        let v = compare(Some(&baseline), &inflated, &budgets, false).unwrap();
        assert!(!v.passed());
        assert_eq!(v.failing_cells(), vec!["churn-small/heap-direct"]);
        let table = v.table();
        assert!(table.contains("churn-small/heap-direct"), "{table}");
        assert!(table.contains("FAIL"), "{table}");
        assert!(table.contains("budget ceiling 1500000"), "{table}");
    }

    #[test]
    fn noise_gate_allows_wobble_within_k_mad() {
        let baseline = doc(&[("w", "O", 10, 1_000_000, Some(50_000))]);
        let mut budgets = Budgets::default();
        budgets.gate.k_mad = 5;
        budgets.gate.rel_slack_permille = 0;
        budgets.gate.abs_slack_ns = 0;
        // +4 MAD: inside the allowance.
        let wobble = doc(&[("w", "O", 10, 1_200_000, None)]);
        assert!(compare(Some(&baseline), &wobble, &budgets, false)
            .unwrap()
            .passed());
        // +6 MAD: outside.
        let regress = doc(&[("w", "O", 10, 1_300_001, None)]);
        let v = compare(Some(&baseline), &regress, &budgets, false).unwrap();
        assert!(!v.passed());
        assert!(v.table().contains("allowance 250000"), "{}", v.table());
    }

    #[test]
    fn budgets_only_mode_needs_no_baseline() {
        let cand = doc(&[("w", "O", 10, 900_000, None)]);
        let b = budgets::parse("[\"w/O\"]\nmax_pause_ns = 1000000\n").unwrap();
        assert!(compare(None, &cand, &b, false).unwrap().passed());
        let hot = doc(&[("w", "O", 10, 1_100_000, None)]);
        assert!(!compare(None, &hot, &b, false).unwrap().passed());
    }

    #[test]
    fn mmu_floors_below_budget_fail_the_cell() {
        let cand = "[\n  {\"schema\":\"gc/1\",\"kind\":\"micro\",\"workload\":\"m\",\"mode\":\"heap-direct\",\
\"collections\":5,\"max_pause_ns\":100,\"mmu_10ms_permille\":300}\n]\n";
        let b = budgets::parse("[\"m/heap-direct\"]\nmmu_10ms_floor_permille = 400\n").unwrap();
        let v = compare(None, cand, &b, false).unwrap();
        assert!(!v.passed());
        assert!(v.table().contains("below floor 400"), "{}", v.table());
    }

    #[test]
    fn missing_cells_are_hard_failures_with_no_escape_hatch() {
        // Baseline cell the candidate never produced: fails, flag or not.
        let base = doc(&[("gone", "O", 3, 50, None), ("w", "O", 10, 1_000, None)]);
        let cand = doc(&[("w", "O", 10, 1_000, None)]);
        for allow in [false, true] {
            let v = compare(Some(&base), &cand, &Budgets::default(), allow).unwrap();
            assert!(!v.passed(), "allow={allow}: {}", v.table());
            assert_eq!(v.failing_cells(), vec!["gone/O"]);
            assert!(
                v.table().contains("missing from candidate"),
                "{}",
                v.table()
            );
        }
        // The same protection in budgets-only mode (CI has no baseline).
        let b =
            budgets::parse("[\"gone/O\"]\nmax_pause_ns = 100\n[\"w/O\"]\nmax_pause_ns = 2000\n")
                .unwrap();
        let v = compare(None, &cand, &b, true).unwrap();
        assert!(!v.passed(), "{}", v.table());
        assert!(
            v.table().contains("present in budgets but missing"),
            "{}",
            v.table()
        );
    }

    #[test]
    fn budgeted_floors_the_candidate_does_not_export_are_hard_failures() {
        // A trajectory that stops exporting a floored field must not pass
        // its floor silently, flag or not.
        let cand = doc(&[("w", "O", 10, 1_000, None)]);
        let b = budgets::parse("[\"w/O\"]\nmmu_10ms_floor_permille = 400\n").unwrap();
        for allow in [false, true] {
            let v = compare(None, &cand, &b, allow).unwrap();
            assert!(!v.passed(), "allow={allow}: {}", v.table());
            assert_eq!(v.failing_cells(), vec!["w/O"]);
            assert!(
                v.table()
                    .contains("mmu_10ms_permille budgeted but not exported"),
                "{}",
                v.table()
            );
        }
    }

    #[test]
    fn new_cells_fail_unless_explicitly_allowed() {
        let base = doc(&[("w", "O", 10, 1_000, None)]);
        let cand = doc(&[("w", "O", 10, 1_000, None), ("fresh", "g", 4, 900, None)]);
        // Unbudgeted + absent from baseline: named failure on the new cell.
        let v = compare(Some(&base), &cand, &Budgets::default(), false).unwrap();
        assert!(!v.passed(), "{}", v.table());
        assert_eq!(v.failing_cells(), vec!["fresh/g"]);
        assert!(v.table().contains("absent from baseline"), "{}", v.table());
        // The escape hatch downgrades it to a note.
        let v = compare(Some(&base), &cand, &Budgets::default(), true).unwrap();
        assert!(v.passed(), "{}", v.table());
        assert!(v.table().contains("note fresh/g"), "{}", v.table());
        // A collecting cell without a budget is equally ungated.
        let b = budgets::parse("[\"w/O\"]\nmax_pause_ns = 2000\n").unwrap();
        let v = compare(None, &cand, &b, false).unwrap();
        assert!(!v.passed(), "{}", v.table());
        assert!(v.table().contains("has no budget"), "{}", v.table());
        assert!(compare(None, &cand, &b, true).unwrap().passed());
    }

    #[test]
    fn zero_collection_cells_get_a_note() {
        let cand = doc(&[("idle", "O", 0, 0, None)]);
        let v = compare(None, &cand, &Budgets::default(), false).unwrap();
        assert!(v.passed());
        assert!(v.table().contains("zero collections"), "{}", v.table());
        // Unbudgeted but vacuous: `seed-budgets` skips zero-collection
        // cells, so the new-cell check must not fire for them.
        let b = budgets::parse("[\"w/O\"]\nmax_pause_ns = 2000\n").unwrap();
        let both = doc(&[("idle", "O", 0, 0, None), ("w", "O", 10, 1_000, None)]);
        assert!(compare(None, &both, &b, false).unwrap().passed());
    }
}
