//! The trajectory check: a fresh `BENCH_gc.json` against the committed
//! one.
//!
//! The collector's work is deterministic, so a fresh run of the same tree
//! reproduces the committed trajectory's counts exactly: the same cells
//! in the same order, and in every cell every field that
//! [`aggregate`](crate::stats::aggregate) holds fixed across repeats —
//! allocations, collections by cause, objects freed, and the words
//! marked, pages swept and roots scanned that the collections summed to.
//! [`compare`] requires exactly that and names every cell and field that
//! differs. Wall-clock fields move run to run, so they are only printed,
//! each fresh value beside the committed value and its MAD, as advice for
//! a reader; no threshold on them can fail the check. The worst pause's
//! cause and site follow the wall clock and are ignored, and so are the
//! `_mad` and `repeats` fields that `--repeat` adds.

use crate::stats::{cell_key, is_attribution_field, is_wall_clock_field, parse_cells};
use gctrace::json::JsonValue;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

type Cell = BTreeMap<String, JsonValue>;

/// The outcome of [`compare`].
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Cells in the committed trajectory.
    pub cells: usize,
    /// One line per fresh wall-clock value: cell, field, fresh value,
    /// committed value and MAD.
    pub advisory: Vec<String>,
    /// One line per missing, extra or misplaced cell and per differing
    /// field; empty when the check passes.
    pub differences: Vec<String>,
}

impl Verdict {
    /// True when every cell and every deterministic field matched.
    pub fn passed(&self) -> bool {
        self.differences.is_empty()
    }

    /// The printed report: the advisory wall-clock rows, then one `FAIL`
    /// line per difference, then the verdict.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall clock (advisory): cell field fresh (committed ± MAD)"
        );
        for line in &self.advisory {
            let _ = writeln!(out, "  {line}");
        }
        for d in &self.differences {
            let _ = writeln!(out, "FAIL {d}");
        }
        let _ = if self.passed() {
            writeln!(
                out,
                "check: PASS ({} cells, every deterministic field equal)",
                self.cells
            )
        } else {
            writeln!(out, "check: FAIL ({} differences)", self.differences.len())
        };
        out
    }
}

/// True for the fields a fresh run must reproduce exactly: everything
/// but wall-clock values, the worst pause's attribution, and the fields
/// `--repeat` adds.
fn is_deterministic_field(key: &str) -> bool {
    !(is_wall_clock_field(key)
        || is_attribution_field(key)
        || key.ends_with("_mad")
        || key == "repeats")
}

/// A field's value as printed in the report.
fn show(v: Option<&JsonValue>) -> String {
    match v {
        None => "absent".into(),
        Some(JsonValue::Str(s)) => format!("{s:?}"),
        Some(v) => match v.as_u64() {
            Some(n) => n.to_string(),
            None => format!("{v:?}"),
        },
    }
}

/// Checks the `fresh` trajectory against the `committed` one; see the
/// module docs.
///
/// # Errors
///
/// Returns a message if either document fails to parse or the committed
/// one has no cells.
pub fn compare(committed: &str, fresh: &str) -> Result<Verdict, String> {
    let committed = parse_cells(committed)?;
    let fresh = parse_cells(fresh)?;
    if committed.is_empty() {
        return Err("the committed trajectory has no cells".into());
    }
    let keys = |cells: &[Cell]| cells.iter().map(cell_key).collect::<Vec<_>>();
    let (want, got) = (keys(&committed), keys(&fresh));
    let mut differences = Vec::new();
    for key in want.iter().filter(|k| !got.contains(k)) {
        differences.push(format!("{key}: missing from the fresh run"));
    }
    for key in got.iter().filter(|k| !want.contains(k)) {
        differences.push(format!("{key}: not in the committed trajectory"));
    }
    if differences.is_empty() && want != got {
        let at = want.iter().zip(&got).position(|(w, g)| w != g).unwrap_or(0);
        differences.push(format!(
            "{}: cell {at} of the committed trajectory, but the fresh run has {} there",
            want[at], got[at]
        ));
    }
    let fresh_by_key: BTreeMap<String, &Cell> = got.iter().cloned().zip(&fresh).collect();
    let mut advisory = Vec::new();
    for (key, old) in want.iter().zip(&committed) {
        let Some(new) = fresh_by_key.get(key) else {
            continue;
        };
        let fields: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
        for field in fields {
            let (a, b) = (old.get(field.as_str()), new.get(field.as_str()));
            if is_deterministic_field(field) {
                if a != b {
                    differences.push(format!(
                        "{key}: {field} committed {}, fresh {}",
                        show(a),
                        show(b)
                    ));
                }
            } else if is_wall_clock_field(field) && !field.ends_with("_mad") {
                let mad = old.get(&format!("{field}_mad"));
                let mad = mad.map_or(String::new(), |m| format!(" ± {}", show(Some(m))));
                advisory.push(format!("{key} {field} {} ({}{mad})", show(b), show(a)));
            }
        }
    }
    Ok(Verdict {
        cells: want.len(),
        advisory,
        differences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cells: &[(&str, u64, u64)]) -> String {
        // (workload, words_marked, max_pause_ns)
        let lines: Vec<String> = cells
            .iter()
            .map(|(w, words, pause)| {
                format!(
                    "  {{\"schema\":\"gc/1\",\"kind\":\"micro\",\"workload\":\"{w}\",\
\"mode\":\"heap-direct\",\"collections\":4,\"words_marked\":{words},\
\"max_pause_ns\":{pause},\"max_pause_cause\":\"nursery\"}}"
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }

    #[test]
    fn wall_clock_and_attribution_are_advisory() {
        let committed = doc(&[("a", 100, 1_000), ("b", 200, 2_000)]);
        let fresh =
            doc(&[("a", 100, 9_000), ("b", 200, 20_000)]).replace("\"nursery\"", "\"threshold\"");
        let v = compare(&committed, &fresh).unwrap();
        assert!(v.passed(), "{}", v.report());
        assert_eq!(v.cells, 2);
        assert!(
            v.report()
                .contains("b/heap-direct max_pause_ns 20000 (2000)"),
            "{}",
            v.report()
        );
    }

    #[test]
    fn a_moved_count_names_its_cell_and_field() {
        let committed = doc(&[("a", 100, 1_000), ("b", 200, 2_000)]);
        let fresh = doc(&[("a", 100, 1_000), ("b", 400, 2_000)]);
        let v = compare(&committed, &fresh).unwrap();
        assert_eq!(
            v.differences,
            ["b/heap-direct: words_marked committed 200, fresh 400"]
        );
        assert!(v.report().contains("check: FAIL (1 differences)"));
    }

    #[test]
    fn a_field_on_one_side_only_differs() {
        let committed = doc(&[("a", 100, 1_000)]);
        let fresh = committed.replace(",\"words_marked\":100", "");
        let v = compare(&committed, &fresh).unwrap();
        assert_eq!(
            v.differences,
            ["a/heap-direct: words_marked committed 100, fresh absent"]
        );
    }

    #[test]
    fn cells_must_match_in_set_and_order() {
        let committed = doc(&[("a", 1, 1), ("b", 2, 2)]);
        let v = compare(&committed, &doc(&[("a", 1, 1)])).unwrap();
        assert_eq!(v.differences, ["b/heap-direct: missing from the fresh run"]);
        let v = compare(&committed, &doc(&[("a", 1, 1), ("b", 2, 2), ("c", 3, 3)])).unwrap();
        assert_eq!(
            v.differences,
            ["c/heap-direct: not in the committed trajectory"]
        );
        let v = compare(&committed, &doc(&[("b", 2, 2), ("a", 1, 1)])).unwrap();
        assert_eq!(
            v.differences,
            ["a/heap-direct: cell 0 of the committed trajectory, but the fresh run has b/heap-direct there"]
        );
    }

    #[test]
    fn repeat_fields_are_ignored_and_mads_shown() {
        let runs: Vec<_> = [900u64, 1_000, 1_300]
            .iter()
            .map(|&p| parse_cells(&doc(&[("a", 100, p)])).unwrap())
            .collect();
        let committed = crate::aggregate(&runs).unwrap();
        let v = compare(&committed, &doc(&[("a", 100, 5_000)])).unwrap();
        assert!(v.passed(), "{}", v.report());
        assert_eq!(v.advisory, ["a/heap-direct max_pause_ns 5000 (900 ± 100)"]);
    }
}
