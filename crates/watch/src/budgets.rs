//! Perf budgets: per-cell pause ceilings and permille floors (MMU), plus
//! the noise gate's knobs, in a deliberately tiny TOML subset.
//!
//! The subset is: `#` comments, `[section]` headers (quotes around the
//! section name are stripped, so `["cfrac/O"]` addresses the cell keyed
//! `cfrac/O`), and `key = value` pairs where the value is an unsigned
//! integer or a quoted string. Nothing else — no arrays, no nesting, no
//! dotted keys — because budgets never need more and the repo takes no
//! dependencies.
//!
//! ```toml
//! [gate]
//! k_mad = 5                 # fail beyond median + 5·MAD …
//! rel_slack_permille = 250  # … or +25%, whichever allowance is larger
//! abs_slack_ns = 200000     # never fail a sub-0.2ms absolute wobble
//!
//! ["churn-small/heap-direct"]
//! max_pause_ns = 1500000    # hard ceiling, noise gate or not
//! mmu_10ms_floor_permille = 400
//! ```

use std::collections::BTreeMap;

/// The noise gate's thresholds: a candidate fails against a baseline only
/// beyond `median + max(k_mad·MAD, rel_slack, abs_slack)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// MAD multiplier: how many robust standard-deviations of run-to-run
    /// noise a candidate may exceed the baseline median by.
    pub k_mad: u64,
    /// Relative slack in permille of the baseline median.
    pub rel_slack_permille: u64,
    /// Absolute slack in nanoseconds — the floor under both, so cells
    /// with microsecond pauses are not gated on scheduler jitter.
    pub abs_slack_ns: u64,
}

impl Default for Gate {
    fn default() -> Self {
        Gate {
            k_mad: 5,
            rel_slack_permille: 250,
            abs_slack_ns: 200_000,
        }
    }
}

impl Gate {
    /// The allowance above the baseline median for one cell.
    pub fn allowance(&self, base_median: u64, base_mad: u64) -> u64 {
        (self.k_mad * base_mad)
            .max(base_median * self.rel_slack_permille / 1000)
            .max(self.abs_slack_ns)
    }
}

/// One cell's budget: an optional hard pause ceiling plus floors on
/// permille-valued fields (`mmu_1ms`, `mmu_10ms`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellBudget {
    /// Hard ceiling on the cell's `max_pause_ns`; exceeding it fails the
    /// gate regardless of noise.
    pub max_pause_ns: Option<u64>,
    /// Floors keyed by field base name: `("mmu_10ms", 400)` means the
    /// candidate cell's `mmu_10ms_permille` must be ≥ 400. A value below
    /// its floor fails the gate.
    pub floors_permille: Vec<(String, u64)>,
}

/// A parsed budgets file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budgets {
    /// The noise-gate knobs (`[gate]` section; defaults if absent).
    pub gate: Gate,
    /// Per-cell budgets keyed `workload/mode`.
    pub cells: BTreeMap<String, CellBudget>,
}

/// Parses the TOML subset described in the module docs.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn parse(text: &str) -> Result<Budgets, String> {
    let mut budgets = Budgets::default();
    let mut section: Option<String> = None;
    for (ln, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(i) if !raw[..i].contains('"') => &raw[..i],
            _ => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().trim_matches('"').to_string();
            if name.is_empty() {
                return Err(format!("line {}: empty section name", ln + 1));
            }
            section = Some(name);
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected key = value: {line:?}", ln + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let uint = || -> Result<u64, String> {
            value.parse::<u64>().map_err(|_| {
                format!(
                    "line {}: {key} wants an unsigned integer, got {value:?}",
                    ln + 1
                )
            })
        };
        match section.as_deref() {
            Some("gate") => match key {
                "k_mad" => budgets.gate.k_mad = uint()?,
                "rel_slack_permille" => budgets.gate.rel_slack_permille = uint()?,
                "abs_slack_ns" => budgets.gate.abs_slack_ns = uint()?,
                other => return Err(format!("line {}: unknown gate key {other:?}", ln + 1)),
            },
            Some(cell) => {
                let entry = budgets.cells.entry(cell.to_string()).or_default();
                if key == "max_pause_ns" {
                    entry.max_pause_ns = Some(uint()?);
                } else if let Some(base) = key.strip_suffix("_floor_permille") {
                    if base.is_empty() {
                        return Err(format!("line {}: unknown cell key {key:?}", ln + 1));
                    }
                    entry.floors_permille.push((base.to_string(), uint()?));
                } else {
                    return Err(format!("line {}: unknown cell key {key:?}", ln + 1));
                }
            }
            None => return Err(format!("line {}: key before any [section]", ln + 1)),
        }
    }
    Ok(budgets)
}

/// Renders budgets back to the TOML subset (stable ordering — suitable
/// for committing).
pub fn render(budgets: &Budgets) -> String {
    let mut out = String::new();
    out.push_str("# GC perf budgets — consumed by `bench compare` (gcwatch).\n");
    out.push_str("# Ceilings are wall-clock and machine-dependent; regenerate with\n");
    out.push_str("# `bench seed-budgets` after intentional perf changes.\n\n");
    out.push_str("[gate]\n");
    out.push_str(&format!("k_mad = {}\n", budgets.gate.k_mad));
    out.push_str(&format!(
        "rel_slack_permille = {}\n",
        budgets.gate.rel_slack_permille
    ));
    out.push_str(&format!("abs_slack_ns = {}\n", budgets.gate.abs_slack_ns));
    for (cell, b) in &budgets.cells {
        out.push_str(&format!("\n[\"{cell}\"]\n"));
        if let Some(p) = b.max_pause_ns {
            out.push_str(&format!("max_pause_ns = {p}\n"));
        }
        for (base, floor) in &b.floors_permille {
            out.push_str(&format!("{base}_floor_permille = {floor}\n"));
        }
    }
    out
}

/// Seeds budgets from a measured `BENCH_gc.json` document: every cell
/// that collected at least once gets a `max_pause_ns` ceiling of
/// `observed · margin_permille / 1000`, and cells exporting MMU windows
/// get floors of `observed · 1000 / margin_permille` (i.e. the same
/// margin, inverted, since MMU regressions move *down*).
///
/// # Errors
///
/// Propagates parse errors from the document.
pub fn seed(bench_json: &str, margin_permille: u64) -> Result<Budgets, String> {
    let cells = crate::stats::parse_cells(bench_json)?;
    let mut budgets = Budgets::default();
    for cell in &cells {
        let key = crate::stats::cell_key(cell);
        let collections = cell
            .get("collections")
            .and_then(gctrace::json::JsonValue::as_u64)
            .unwrap_or(0);
        if collections == 0 {
            continue;
        }
        let mut b = CellBudget::default();
        if let Some(p) = cell
            .get("max_pause_ns")
            .and_then(gctrace::json::JsonValue::as_u64)
        {
            b.max_pause_ns = Some((p.max(1) as u128 * margin_permille as u128 / 1000) as u64);
        }
        for (field, _) in cell.iter().filter(|(k, _)| k.starts_with("mmu_")) {
            let Some(base) = field.strip_suffix("_permille") else {
                continue;
            };
            if base.ends_with("_mad") {
                continue;
            }
            if let Some(v) = cell.get(field).and_then(gctrace::json::JsonValue::as_u64) {
                let floor = v * 1000 / margin_permille.max(1);
                b.floors_permille.push((base.to_string(), floor));
            }
        }
        budgets.cells.insert(key, b);
    }
    Ok(budgets)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# top comment
[gate]
k_mad = 4
rel_slack_permille = 100   # ten percent
abs_slack_ns = 50000

["cfrac/O"]
max_pause_ns = 2000000

["churn-small/heap-direct"]
max_pause_ns = 1500000
mmu_10ms_floor_permille = 400
"#;

    #[test]
    fn parse_round_trips_through_render() {
        let b = parse(SAMPLE).expect("parses");
        assert_eq!(b.gate.k_mad, 4);
        assert_eq!(b.gate.abs_slack_ns, 50_000);
        assert_eq!(b.cells.len(), 2);
        assert_eq!(b.cells["cfrac/O"].max_pause_ns, Some(2_000_000));
        assert_eq!(
            b.cells["churn-small/heap-direct"].floors_permille,
            vec![("mmu_10ms".to_string(), 400)]
        );
        let again = parse(&render(&b)).expect("render output parses");
        assert_eq!(b, again);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        assert!(parse("k = 1").unwrap_err().contains("before any"));
        assert!(parse("[gate]\nwat = 1")
            .unwrap_err()
            .contains("unknown gate key"));
        assert!(parse("[\"c/O\"]\nwat = 1")
            .unwrap_err()
            .contains("unknown cell key"));
        let err = parse("[gate]\nk_mad = soon").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn gate_allowance_takes_the_largest_slack() {
        let g = Gate {
            k_mad: 5,
            rel_slack_permille: 100,
            abs_slack_ns: 1000,
        };
        assert_eq!(g.allowance(10_000, 500), 2500); // 5·MAD wins
        assert_eq!(g.allowance(100_000, 10), 10_000); // 10% wins
        assert_eq!(g.allowance(100, 0), 1000); // absolute floor wins
    }

    #[test]
    fn seed_skips_zero_collection_cells_and_inverts_mmu() {
        let doc = "[\n  \
{\"schema\":\"gc/1\",\"kind\":\"matrix\",\"workload\":\"idle\",\"mode\":\"O\",\"collections\":0,\"max_pause_ns\":0},\n  \
{\"schema\":\"gc/1\",\"kind\":\"micro\",\"workload\":\"churn-small\",\"mode\":\"heap-direct\",\
\"collections\":40,\"max_pause_ns\":1000000,\"mmu_10ms_permille\":600}\n]\n";
        let b = seed(doc, 1500).expect("seeds");
        assert!(!b.cells.contains_key("idle/O"));
        let cell = &b.cells["churn-small/heap-direct"];
        assert_eq!(cell.max_pause_ns, Some(1_500_000));
        assert_eq!(cell.floors_permille, vec![("mmu_10ms".to_string(), 400)]);
    }
}
