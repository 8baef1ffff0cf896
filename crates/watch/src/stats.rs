//! Robust statistics over repeated benchmark runs.
//!
//! Wall-clock numbers on a shared machine are noisy and heavy-tailed;
//! mean/stddev chase outliers. The trajectory therefore stores the
//! **median** of N repeats for every timing field, plus the **median
//! absolute deviation** (MAD) as its noise estimate, which
//! [`compare`](crate::compare::compare) prints beside a fresh run's
//! values. Deterministic counts are not averaged — they are asserted
//! byte-identical across repeats, because a count that moves between runs
//! is a bug, not noise.
//!
//! One field gets a different estimator: `max_pause_ns` is the maximum
//! over every stop in a run, and a single descheduling event landing in
//! any one of hundreds of stops inflates it — the per-run maximum is
//! biased upward in *every* run, so the median across repeats inherits
//! the bias. The workload is deterministic and noise is strictly
//! additive, so the **minimum** across repeats is the consistent
//! estimator of the noise-free worst pause; that is what the aggregate
//! stores (its MAD companion still reports the observed spread).

use gctrace::json::{JsonValue, Writer};
use std::collections::BTreeMap;

/// The median of a sample, rounded toward the lower middle pair average.
/// Returns 0 for an empty slice.
pub fn median(xs: &[u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        // Midpoint of the two middle samples; u64-safe.
        let a = v[n / 2 - 1];
        let b = v[n / 2];
        a / 2 + b / 2 + (a % 2 + b % 2) / 2
    }
}

/// The median absolute deviation from the median — a robust spread
/// estimate: 50% of samples lie within one MAD of the median, outliers
/// barely move it. Returns 0 for fewer than two samples.
pub fn mad(xs: &[u64]) -> u64 {
    if xs.len() < 2 {
        return 0;
    }
    let m = median(xs);
    let devs: Vec<u64> = xs.iter().map(|&x| x.abs_diff(m)).collect();
    median(&devs)
}

/// Parses a `BENCH_gc.json` document (one flat object per line between
/// the array brackets) into its cells, in document order.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_cells(text: &str) -> Result<Vec<BTreeMap<String, JsonValue>>, String> {
    let mut cells = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        cells.push(gctrace::json::parse_object(line).map_err(|e| format!("bad cell: {e}"))?);
    }
    Ok(cells)
}

/// The `workload/mode` key a cell is addressed by everywhere in gcwatch
/// (compare reports, aggregation errors).
pub fn cell_key(cell: &BTreeMap<String, JsonValue>) -> String {
    let w = cell
        .get("workload")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let m = cell.get("mode").and_then(JsonValue::as_str).unwrap_or("?");
    format!("{w}/{m}")
}

/// True for fields that carry wall-clock time (or a quantity derived from
/// it) and therefore move run to run: `*_ns`, throughput, and the MMU
/// utilisation windows, which are computed over the wall-clock pause
/// timeline.
pub fn is_wall_clock_field(key: &str) -> bool {
    key.ends_with("_ns") || key == "allocs_per_sec" || key.starts_with("mmu_")
}

/// Fields that *attribute* a wall-clock extreme (which cause/site owned
/// the worst pause). They legitimately differ between repeats; the
/// aggregate keeps the value from the repeat whose `max_pause_ns` was
/// smallest — the same repeat the aggregated `max_pause_ns` comes from.
pub(crate) fn is_attribution_field(key: &str) -> bool {
    key == "max_pause_cause" || key == "max_pause_site"
}

/// Fields that are a *maximum over many stops within one run*. Additive
/// noise can only push a per-run maximum up, never down, so the minimum
/// across repeats is the consistent estimator of the noise-free value
/// (the median would keep the noise floor of the typical run).
fn is_extreme_field(key: &str) -> bool {
    key == "max_pause_ns"
}

/// Folds N parsed runs of the same benchmark into one document:
///
/// * every wall-clock field becomes its median across repeats plus a
///   `<field>_mad` companion — except `max_pause_ns`, which takes the
///   minimum across repeats (see the module docs for why);
/// * attribution strings come from the repeat whose `max_pause_ns` is
///   smallest;
/// * every other field is asserted identical across repeats (an unequal
///   count is an error, not noise);
/// * each cell gains a `repeats` field.
///
/// With a single run the document passes through unchanged except for
/// `repeats:1` (no `_mad` fields — there is no spread to estimate).
///
/// # Errors
///
/// Returns a message if the runs disagree on cell identity/order or on
/// any deterministic field.
pub fn aggregate(runs: &[Vec<BTreeMap<String, JsonValue>>]) -> Result<String, String> {
    let Some(first) = runs.first() else {
        return Err("no runs to aggregate".into());
    };
    for (i, run) in runs.iter().enumerate() {
        if run.len() != first.len() {
            return Err(format!(
                "run {i} has {} cells, run 0 has {}",
                run.len(),
                first.len()
            ));
        }
    }
    let mut lines = Vec::new();
    for ci in 0..first.len() {
        let key = cell_key(&first[ci]);
        for (ri, run) in runs.iter().enumerate() {
            if cell_key(&run[ci]) != key {
                return Err(format!(
                    "cell order differs: run {ri} has {} where run 0 has {key}",
                    cell_key(&run[ci])
                ));
            }
            if run[ci].contains_key("repeats") {
                return Err(format!("{key}: run {ri} is already aggregated"));
            }
        }
        // The repeat with the smallest (least noise-inflated) worst pause
        // owns the attribution strings, matching the aggregated
        // max_pause_ns itself.
        let pauses: Vec<u64> = runs
            .iter()
            .map(|r| {
                r[ci]
                    .get("max_pause_ns")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            })
            .collect();
        let rep_for_attrib = pauses
            .iter()
            .enumerate()
            .min_by_key(|(_, &p)| p)
            .map_or(0, |(i, _)| i);

        let mut w = Writer::new();
        for (field, v0) in &first[ci] {
            if is_wall_clock_field(field) {
                let samples: Vec<u64> = runs
                    .iter()
                    .map(|r| r[ci].get(field).and_then(JsonValue::as_u64).unwrap_or(0))
                    .collect();
                let agg = if is_extreme_field(field) {
                    samples.iter().copied().min().unwrap_or(0)
                } else {
                    median(&samples)
                };
                w.uint_field(field, agg);
                if runs.len() > 1 {
                    w.uint_field(&format!("{field}_mad"), mad(&samples));
                }
            } else if is_attribution_field(field) {
                let v = runs[rep_for_attrib][ci]
                    .get(field)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                w.str_field(field, v);
            } else {
                for (ri, run) in runs.iter().enumerate() {
                    if run[ci].get(field) != Some(v0) {
                        return Err(format!(
                            "{key}: deterministic field {field:?} differs between run 0 and run {ri}"
                        ));
                    }
                }
                match v0 {
                    JsonValue::Str(s) => w.str_field(field, s),
                    JsonValue::Num(n) if n.trunc() == *n && *n >= 0.0 => {
                        w.uint_field(field, *n as u64);
                    }
                    JsonValue::Num(n) => w.float_field(field, *n),
                    JsonValue::Bool(b) => w.bool_field(field, *b),
                    other => {
                        return Err(format!("{key}: unsupported value in {field:?}: {other:?}"))
                    }
                }
            }
        }
        w.uint_field("repeats", runs.len() as u64);
        lines.push(format!("  {}", w.finish()));
    }
    Ok(format!("[\n{}\n]\n", lines.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 9]), 5);
        assert_eq!(median(&[3, 1, 2]), 2);
        // One wild outlier barely moves median or MAD.
        let calm = [100, 104, 96, 101, 99];
        let wild = [100, 104, 96, 101, 9900];
        assert_eq!(median(&calm), 100);
        assert_eq!(median(&wild), 101);
        assert!(mad(&wild) <= 4, "MAD ignores the outlier: {}", mad(&wild));
    }

    fn doc(pause: u64, collections: u64) -> String {
        format!(
            "[\n  {{\"schema\":\"gc/1\",\"kind\":\"matrix\",\"workload\":\"w\",\"mode\":\"O\",\
\"collections\":{collections},\"max_pause_ns\":{pause},\"max_pause_cause\":\"threshold\"}}\n]\n"
        )
    }

    #[test]
    fn aggregate_mins_extremes_medians_wall_clock_and_pins_counts() {
        let runs: Vec<_> = [900u64, 1000, 4000]
            .iter()
            .map(|&p| parse_cells(&doc(p, 12)).unwrap())
            .collect();
        let out = aggregate(&runs).unwrap();
        let cells = parse_cells(&out).unwrap();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        // max_pause_ns is a per-run maximum: noise only inflates it, so
        // the aggregate takes the least-inflated repeat, not the median.
        assert_eq!(c.get("max_pause_ns").unwrap().as_u64(), Some(900));
        assert_eq!(c.get("max_pause_ns_mad").unwrap().as_u64(), Some(100));
        assert_eq!(c.get("collections").unwrap().as_u64(), Some(12));
        assert_eq!(c.get("repeats").unwrap().as_u64(), Some(3));
        assert_eq!(
            c.get("max_pause_cause").unwrap().as_str(),
            Some("threshold")
        );
    }

    fn doc_with_total(pause: u64, total: u64) -> String {
        format!(
            "[\n  {{\"schema\":\"gc/1\",\"kind\":\"matrix\",\"workload\":\"w\",\"mode\":\"O\",\
\"collections\":3,\"max_pause_ns\":{pause},\"total_pause_ns\":{total}}}\n]\n"
        )
    }

    #[test]
    fn only_extreme_fields_take_the_min() {
        let runs: Vec<_> = [(900u64, 5000u64), (1000, 6000), (4000, 9000)]
            .iter()
            .map(|&(p, t)| parse_cells(&doc_with_total(p, t)).unwrap())
            .collect();
        let out = aggregate(&runs).unwrap();
        let c = &parse_cells(&out).unwrap()[0];
        assert_eq!(c.get("max_pause_ns").unwrap().as_u64(), Some(900));
        // Plain wall-clock sums still take the median.
        assert_eq!(c.get("total_pause_ns").unwrap().as_u64(), Some(6000));
    }

    #[test]
    fn aggregate_rejects_deterministic_drift() {
        let runs = vec![
            parse_cells(&doc(1000, 12)).unwrap(),
            parse_cells(&doc(1000, 13)).unwrap(),
        ];
        let err = aggregate(&runs).unwrap_err();
        assert!(err.contains("collections"), "{err}");
        assert!(err.contains("w/O"), "names the cell: {err}");
    }

    #[test]
    fn single_run_aggregate_adds_no_mad_fields() {
        let runs = vec![parse_cells(&doc(1000, 12)).unwrap()];
        let out = aggregate(&runs).unwrap();
        assert!(!out.contains("_mad"), "{out}");
        assert!(out.contains("\"repeats\":1"), "{out}");
    }
}
