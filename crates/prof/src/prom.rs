//! Prometheus text exposition (version 0.0.4) writer and validator.
//!
//! The writer produces the classic `# HELP` / `# TYPE` / sample-line
//! format; the validator is a small independent parser used by the
//! `tables` binary (and CI) to assert that whatever we wrote actually
//! parses as exposition text. All sample values are integers — gcprof
//! deliberately exports permille instead of floating ratios so output
//! stays byte-stable.

use std::fmt::Write as _;

/// Builds Prometheus exposition text.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

impl PromWriter {
    /// A fresh, empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is one of `counter`, `gauge`, `histogram`.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        let _ = writeln!(self.out, "# HELP {name} {}", help.replace('\n', " "));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                debug_assert!(valid_name(k), "bad label name {k:?}");
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// Exports a [`crate::Histogram`] as a Prometheus histogram family:
    /// cumulative `_bucket` lines with power-of-two `le` bounds over the
    /// occupied range, then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &crate::Histogram) {
        let mut cumulative = 0u64;
        let top = h.nonzero().last().map(|(i, _)| i).unwrap_or(0);
        let bucket_name = format!("{name}_bucket");
        for (i, &c) in h.counts().iter().enumerate().take(top + 1) {
            cumulative += c;
            let bound = crate::Histogram::bucket_bound(i).to_string();
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", &bound));
            self.sample(&bucket_name, &ls, cumulative);
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        self.sample(&bucket_name, &ls, h.count());
        self.sample(&format!("{name}_sum"), labels, h.sum());
        self.sample(&format!("{name}_count"), labels, h.count());
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line: metric name, raw label pairs, numeric value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    /// Label value for `key`, if present.
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The label set minus `skip`, canonicalized for grouping the series
    /// of one histogram family by base labels.
    fn base_key(&self, skip: &str) -> String {
        let mut ls: Vec<&(String, String)> =
            self.labels.iter().filter(|(k, _)| k != skip).collect();
        ls.sort();
        ls.iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Parses exposition text, returning the number of sample lines, or a
/// description of the first malformed line. The metric types are the
/// three the writer emits (`counter`, `gauge`, `histogram`) plus
/// `untyped`. Families declared `# TYPE … histogram` get the structural
/// checks scrapers rely on: `_bucket` series with increasing `le` bounds
/// and cumulative counts ending at an `+Inf` bucket that matches
/// `_count`, and `_sum` present per series.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut samples: Vec<(usize, Sample)> = Vec::new();
    let mut families: Vec<(String, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split_whitespace().next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {n}: HELP with bad metric name {name:?}"));
                }
            } else if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {n}: TYPE with bad metric name {name:?}"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "untyped") {
                    return Err(format!("line {n}: unknown metric type {kind:?}"));
                }
                families.push((name.to_string(), kind.to_string()));
            }
            // Other comment lines are legal and ignored.
            continue;
        }
        let s = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        samples.push((n, s));
    }
    for (name, kind) in &families {
        if kind == "histogram" {
            validate_histogram_family(name, &samples)?;
        }
    }
    Ok(samples.len())
}

/// Structural checks for one declared histogram family.
fn validate_histogram_family(name: &str, samples: &[(usize, Sample)]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let bucket_name = format!("{name}_bucket");
    // Base label set -> the `(line, le, value)` series in document order.
    let mut groups: BTreeMap<String, Vec<(usize, f64, f64)>> = BTreeMap::new();
    for (n, s) in samples {
        if s.name != bucket_name {
            continue;
        }
        let le = s
            .label("le")
            .ok_or_else(|| format!("line {n}: {bucket_name} sample without le label"))?;
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>()
                .map_err(|_| format!("line {n}: bad le bound {le:?}"))?
        };
        groups
            .entry(s.base_key("le"))
            .or_default()
            .push((*n, le, s.value));
    }
    if groups.is_empty() {
        return Err(format!(
            "histogram family {name} declared but has no {bucket_name} samples"
        ));
    }
    let find = |suffix: &str, key: &str| -> Option<f64> {
        let full = format!("{name}{suffix}");
        samples
            .iter()
            .find(|(_, s)| s.name == full && s.base_key("le") == key)
            .map(|(_, s)| s.value)
    };
    for (key, series) in &groups {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_v = 0.0f64;
        for (n, le, v) in series {
            if *le <= prev_le {
                return Err(format!("line {n}: {bucket_name} le bounds not increasing"));
            }
            if *v < prev_v {
                return Err(format!("line {n}: {bucket_name} counts not cumulative"));
            }
            prev_le = *le;
            prev_v = *v;
        }
        let (_, last_le, last_v) = *series.last().expect("non-empty series");
        if !last_le.is_infinite() {
            return Err(format!(
                "histogram {name}{{{key}}} missing le=\"+Inf\" bucket"
            ));
        }
        let count = find("_count", key)
            .ok_or_else(|| format!("histogram {name}{{{key}}} missing _count"))?;
        if count != last_v {
            return Err(format!(
                "histogram {name}{{{key}}}: +Inf bucket {last_v} != _count {count}"
            ));
        }
        find("_sum", key).ok_or_else(|| format!("histogram {name}{{{key}}} missing _sum"))?;
    }
    Ok(())
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    let name = &line[..i];
    if !valid_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut rest = &line[i..];
    let mut labels = Vec::new();
    if let Some(after) = rest.strip_prefix('{') {
        let close = find_label_close(after).ok_or("unterminated label set")?;
        labels = parse_labels(&after[..close])?;
        rest = &after[close + 1..];
    }
    let value = rest.trim();
    if value.is_empty() {
        return Err("missing sample value".into());
    }
    // A value, optionally followed by a timestamp.
    let mut parts = value.split_whitespace();
    let v = parts.next().unwrap();
    let parsed = match v {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        _ => v
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {v:?}"))?,
    };
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp {ts:?}"))?;
    }
    if parts.next().is_some() {
        return Err("trailing garbage after sample".into());
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value: parsed,
    })
}

/// Index of the `}` closing the label set, skipping quoted values.
fn find_label_close(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    if s.is_empty() {
        return Ok(labels);
    }
    let mut rest = s;
    loop {
        let eq = rest.find('=').ok_or("label without '='")?;
        let name = &rest[..eq];
        if !valid_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value not quoted")?;
        let mut end = None;
        let mut escaped = false;
        let mut value = String::new();
        for (i, c) in after.char_indices() {
            if escaped {
                match c {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    _ => return Err(format!("bad escape \\{c} in label value")),
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((name.to_string(), value));
        rest = &after[end + 1..];
        if rest.is_empty() {
            return Ok(labels);
        }
        rest = rest
            .strip_prefix(',')
            .ok_or("expected ',' between labels")?;
        if rest.is_empty() {
            return Ok(labels); // trailing comma is tolerated by scrapers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn writer_output_validates() {
        let mut w = PromWriter::new();
        w.family(
            "gcprof_collections_total",
            "Completed collections",
            "counter",
        );
        w.sample(
            "gcprof_collections_total",
            &[("workload", "cfrac"), ("mode", "O-safe")],
            7,
        );
        let mut h = Histogram::new();
        h.record(100);
        h.record(3000);
        w.family("gcprof_pause_ns", "Stop-the-world pause", "histogram");
        w.histogram("gcprof_pause_ns", &[("mode", "g")], &h);
        let text = w.finish();
        let n = validate(&text).expect("writer output must parse");
        // 1 counter + bucket lines + +Inf + sum + count.
        assert!(n >= 5, "{text}");
        assert!(text.contains(r#"gcprof_pause_ns_bucket{mode="g",le="+Inf"} 2"#));
        assert!(text.contains("gcprof_pause_ns_sum{mode=\"g\"} 3100"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.sample("m", &[("site", "a\"b\\c\nd")], 1);
        let text = w.finish();
        assert_eq!(text, "m{site=\"a\\\"b\\\\c\\nd\"} 1\n");
        assert_eq!(validate(&text), Ok(1));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate("1bad_name 3").is_err());
        assert!(validate("m{x=3} 1").is_err());
        assert!(validate("m{x=\"unterminated} 1").is_err());
        assert!(validate("m ").is_err());
        assert!(validate("m notanumber").is_err());
        assert!(validate("# TYPE m flavor").is_err());
        assert!(validate("m 1 2 3").is_err());
        assert_eq!(validate("m{} 4\n\n# just a comment\nm2 0.5 1700"), Ok(2));
    }

    #[test]
    fn validator_enforces_histogram_family_structure() {
        // Declared histogram with no bucket samples at all.
        assert!(validate("# TYPE h histogram\nh_sum 1\nh_count 1").is_err());
        // Bucket counts that go backwards.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5";
        assert!(validate(bad).unwrap_err().contains("not cumulative"));
        // le bounds that do not increase.
        let bad = "# TYPE h histogram\nh_bucket{le=\"4\"} 1\nh_bucket{le=\"2\"} 2\n\
                   h_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2";
        assert!(validate(bad).unwrap_err().contains("not increasing"));
        // Missing the +Inf bucket.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1";
        assert!(validate(bad).unwrap_err().contains("+Inf"));
        // +Inf bucket disagrees with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4";
        assert!(validate(bad).unwrap_err().contains("_count"));
        // Missing _sum.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3";
        assert!(validate(bad).unwrap_err().contains("_sum"));
        // A well-formed family, with two label series, passes.
        let good = "# TYPE h histogram\n\
                    h_bucket{mode=\"g\",le=\"1\"} 1\nh_bucket{mode=\"g\",le=\"+Inf\"} 2\n\
                    h_sum{mode=\"g\"} 9\nh_count{mode=\"g\"} 2\n\
                    h_bucket{mode=\"O\",le=\"+Inf\"} 0\n\
                    h_sum{mode=\"O\"} 0\nh_count{mode=\"O\"} 0";
        assert_eq!(validate(good), Ok(7));
    }

    #[test]
    fn validator_rejects_summary_families() {
        // The writer emits no summary, so the validator accepts none.
        let text = "# TYPE s summary\ns{quantile=\"0.5\"} 2\ns_sum 2\ns_count 1";
        assert!(validate(text)
            .unwrap_err()
            .contains("unknown metric type \"summary\""));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(2);
        h.record(2);
        let mut w = PromWriter::new();
        w.histogram("x", &[], &h);
        let text = w.finish();
        assert!(text.contains("x_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("x_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("x_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("x_count 3"), "{text}");
        assert_eq!(validate(&text).unwrap(), 6);
    }
}
