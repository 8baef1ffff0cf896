//! The timeline and snapshot CLI.
//!
//! ```text
//! bench validate-timeline <timeline.json>
//! bench snap diff <a.json> <b.json> [--budget-bytes N]
//! ```
//!
//! `validate-timeline` checks a Perfetto timeline. `snap diff` validates
//! two `snap/1` heap snapshots, prints per-site retained-size growth, and
//! exits 1 when reachable growth exceeds `--budget-bytes` (default 0,
//! i.e. any reachable growth fails). Usage errors exit 2.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench validate-timeline <timeline.json>\n  \
bench snap diff <a.json> <b.json> [--budget-bytes N]"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("snap") => {
            if args.get(1).map(String::as_str) != Some("diff") {
                return Ok(usage());
            }
            let mut budget_bytes = 0u64;
            let mut pos = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                if a == "--budget-bytes" {
                    budget_bytes = it
                        .next()
                        .ok_or("--budget-bytes wants a number")?
                        .parse()
                        .map_err(|e| format!("--budget-bytes: {e}"))?;
                } else {
                    pos.push(a.clone());
                }
            }
            let [a_path, b_path] = pos.as_slice() else {
                return Ok(usage());
            };
            let a = gcsnap::validate(&read(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
            let b = gcsnap::validate(&read(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
            let d = gcsnap::diff::diff(&a, &b);
            print!("{}", gcsnap::diff::render_table(&d, &a.label, &b.label));
            Ok(if d.over_budget(budget_bytes) {
                if let Some(top) = d.top_growth() {
                    eprintln!(
                        "bench: reachable growth {} bytes exceeds budget {budget_bytes}; \
largest retained growth at site {} ({:+} bytes)",
                        d.reachable_growth,
                        top.site,
                        top.retained_delta()
                    );
                } else {
                    eprintln!(
                        "bench: reachable growth {} bytes exceeds budget {budget_bytes}",
                        d.reachable_growth
                    );
                }
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("validate-timeline") => {
            let [path] = &args[1..] else {
                return Ok(usage());
            };
            let n = gcbench::validate_chrome_trace(&read(path)?)?;
            eprintln!("{path}: {n} events, well-formed");
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
