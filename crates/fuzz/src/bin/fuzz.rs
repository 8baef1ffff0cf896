//! Differential mode-agreement fuzzing campaign.
//!
//! Usage: `fuzz [--seed N] [--count N] [--jobs N]`
//!
//! Generates `--count` deterministic random programs from `--seed` and
//! checks each against the oracle in all five modes (see the gcfuzz
//! crate docs): one parse per program, and one build per distinct set
//! of compile options. Divergent cases are minimized and printed as
//! ready-to-commit corpus entries. Exit code: 0 when every case agrees,
//! 1 when any diverges, 2 on bad arguments.

fn flag(args: &[String], name: &str) -> Option<u64> {
    match args.iter().position(|a| a == name).map(|i| args.get(i + 1)) {
        Some(Some(n)) => match n.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: {name} takes a non-negative integer, got '{n}'");
                std::process::exit(2);
            }
        },
        Some(None) => {
            eprintln!("error: {name} requires a value");
            std::process::exit(2);
        }
        None => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        if a.starts_with("--") && !matches!(a.as_str(), "--seed" | "--count" | "--jobs") {
            eprintln!("error: unknown flag '{a}'");
            eprintln!("usage: fuzz [--seed N] [--count N] [--jobs N]");
            std::process::exit(2);
        }
    }
    let seed = flag(&args, "--seed").unwrap_or(1);
    let count = flag(&args, "--count").unwrap_or(100);
    let jobs = match flag(&args, "--jobs") {
        Some(0) => {
            eprintln!("error: --jobs must be at least 1");
            std::process::exit(2);
        }
        Some(n) => n as usize,
        None => gcfuzz::default_jobs(),
    };

    let report = gcfuzz::run_campaign(seed, count, jobs);
    for f in &report.failures {
        println!("==== case {} (seed {seed}) ====", f.case_index);
        println!("divergence: {}", f.divergence);
        println!("--- minimized reproducer ---");
        println!("{}", f.minimized);
    }
    println!(
        "gcfuzz: {count} case(s) with seed {seed}: {} divergence(s)",
        report.failures.len()
    );
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
