//! End-to-end and per-layer benchmark of the GC-safety pipeline.
//!
//! ```text
//! perfbench --workload <matrix|fuzz|heap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The program workloads, `matrix` and `fuzz`, are sets of programs drawn
//! from the seed (see `programs`). An operation measures one program in
//! one mode as `tables` does (build, run on the VM under the collector,
//! code generation, peephole and cycle costing on the three machine
//! models), or, in the fuzz workload, puts one program through the
//! five-mode fuzz oracle and then measures it at `-O`. A pass runs every
//! operation once, in an order drawn from the seed, with the compile
//! caches emptied first. In the `heap` workload an operation is one
//! schedule of the collector microbench, and a pass runs all four (see
//! `heap`). The run repeats passes until `--seconds` have passed and
//! checks every result.
//!
//! A shared machine may change speed for seconds at a time, so each
//! operation's time is its best over the passes. `op_ms` is the median of
//! those best times, `pass_s` their sum. `setup_s` is the median of the
//! run's set-ups. A program workload's set-up draws its programs; it is
//! timed once before the first pass and again after each pass until
//! [`SETUPS`] are timed. The heap workload's set-up is the part of each
//! pass outside its schedules' timed spans: building each schedule's
//! heap, and gathering its statistics and freeing it afterwards.
//!
//! With `--trace 0` operations call the library as a user does; with
//! `--trace 1` they run layer by layer inside spans (see `pipeline`) and
//! the run reports each layer's time and work per operation instead. A
//! traced run first makes one untimed pass through the library itself,
//! whose outputs and costs every traced operation must repeat. The last
//! line of output is one JSON object with the verdict and the metrics.

mod heap;
mod layers;
mod pipeline;
mod programs;

use gc_safety::{Mode, VmError};
use gcfuzz::rng::Rng;
use layers::Layers;
use pipeline::{Costs, Memo};
use programs::{Check, Program};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["matrix", "fuzz", "heap"];

/// Set-ups a program workload's run times; the reported set-up time is
/// their median.
const SETUPS: usize = 15;

/// Set-ups timed after each pass while fewer than [`SETUPS`] are, so that
/// a slow spell of the machine does not set most of them.
const SETUPS_PER_GAP: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") && !value.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let name = take("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|&&w| w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// How operations run: through the library, or layer by layer in spans.
enum Exec {
    Plain,
    Traced { memo: Memo, layers: Layers },
}

/// What one measurement printed (or why it failed to run), and its
/// costs.
type Measured = (Result<Vec<u8>, VmError>, Costs);

impl Exec {
    /// Empties the compile caches.
    fn fresh(&mut self) {
        gc_safety::cache_clear();
        if let Exec::Traced { memo, .. } = self {
            memo.clear();
        }
    }

    fn measure(&mut self, p: &Program, mode: Mode) -> Result<Measured, String> {
        let (outcome, costs) = match self {
            Exec::Plain => {
                let m = gc_safety::measure_source(&p.source, &p.input, mode)?;
                let costs = m
                    .costs
                    .iter()
                    .map(|(&name, c)| (name, (c.cycles, c.size_bytes)))
                    .collect();
                (m.outcome, costs)
            }
            Exec::Traced { memo, layers } => {
                pipeline::measure(&p.source, &p.input, mode, memo, layers)?
            }
        };
        Ok((outcome.map(|o| o.output), costs))
    }

    fn oracle(&mut self, source: &str) -> Result<(), String> {
        match self {
            Exec::Plain => gcfuzz::check(source).map_or(Ok(()), |d| Err(d.to_string())),
            Exec::Traced { memo, layers } => pipeline::oracle(source, memo, layers),
        }
    }
}

/// What one operation produced, which every later run of it must repeat.
#[derive(PartialEq)]
enum Outcome {
    /// What a program printed (or why it failed to run), and its costs.
    Program(Measured),
    /// A heap schedule's collector work counts.
    Heap(heap::Counts),
}

/// One operation: a program in one mode, a program through the fuzz
/// oracle (`mode` is `None`), or a heap schedule by its index (`mode` is
/// `None`).
type Op = (usize, Option<Mode>);

/// A workload's operations, and the runs' results so far.
struct Bench {
    workload: &'static str,
    seed: u64,
    /// A program workload's programs; none for `heap`.
    programs: Vec<Program>,
    order: Rng,
    /// Each operation's best time, in nanoseconds.
    best_ns: BTreeMap<Op, u64>,
    /// What each operation produced the first time it ran.
    first: BTreeMap<Op, Outcome>,
    /// Set-up times, in seconds.
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Bench {
    fn new(workload: &'static str, seed: u64) -> Bench {
        let mut bench = Bench {
            workload,
            seed,
            programs: Vec::new(),
            order: Rng::new(seed),
            best_ns: BTreeMap::new(),
            first: BTreeMap::new(),
            setups: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
        };
        bench.set_up();
        bench
    }

    fn is_heap(&self) -> bool {
        self.workload == "heap"
    }

    /// Draws a program workload's programs, timed as a set-up. The heap
    /// workload has nothing to draw; its passes time its set-up.
    fn set_up(&mut self) {
        if self.is_heap() {
            return;
        }
        let t = Instant::now();
        let programs = programs::draw(self.workload, self.seed);
        self.setups.push(t.elapsed().as_secs_f64());
        self.programs = programs;
    }

    fn ops(&self, p: usize) -> Vec<Op> {
        match self.programs[p].check {
            Check::Oracle => vec![(p, None)],
            Check::AgreeWithO { .. } => Mode::all().into_iter().map(|m| (p, Some(m))).collect(),
        }
    }

    /// Runs one program operation and returns what its measurement
    /// produced, or `Err` for a failure to build or run.
    fn op(&self, exec: &mut Exec, (p, mode): Op) -> Result<Measured, String> {
        let program = &self.programs[p];
        match mode {
            Some(mode) => exec.measure(program, mode),
            None => {
                exec.oracle(&program.source)?;
                exec.measure(program, Mode::O)
            }
        }
    }

    /// Counts an operation that took `d`, and keeps its best time.
    fn time(&mut self, op: Op, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let best = self.best_ns.entry(op).or_insert(ns);
        *best = (*best).min(ns);
        self.attempted += 1;
    }

    /// Checks that `outcome` repeats what `op` produced the first time.
    fn repeats(&mut self, op: Op, what: &str, outcome: Outcome) {
        match self.first.get(&op) {
            None => {
                self.first.insert(op, outcome);
            }
            Some(first) if *first == outcome => {}
            Some(_) => {
                self.wrong += 1;
                eprintln!("wrong: {what}: differs from its first run");
            }
        }
    }

    /// Times one program operation, and checks what it produced against
    /// its program's expectation and its first run. Returns the
    /// program's output, or `None` if the operation failed.
    fn timed(&mut self, exec: &mut Exec, op: Op) -> Option<Result<Vec<u8>, VmError>> {
        let t = Instant::now();
        let result = self.op(exec, op);
        self.time(op, t.elapsed());
        let what = format!(
            "{} {}",
            self.programs[op.0].name,
            op.1.map_or("", Mode::label)
        );
        let measured = match result {
            Ok(measured) => measured,
            Err(e) => {
                self.failed += 1;
                eprintln!("failed: {what}: {e}");
                return None;
            }
        };
        let output = measured.0.clone();
        if matches!(self.programs[op.0].check, Check::Oracle) && output.is_err() {
            self.wrong += 1;
            eprintln!("wrong: {what}: {output:?}");
        }
        self.repeats(op, &what, Outcome::Program(measured));
        Some(output)
    }

    fn pass(&mut self, exec: &mut Exec) {
        if self.is_heap() {
            self.heap_pass(exec);
        } else {
            self.program_pass(exec);
        }
    }

    /// One pass over every program operation, programs in an order drawn
    /// from the seed and each program's modes in table order. Programs
    /// checked against `-O` are checked once the pass has all their
    /// modes.
    fn program_pass(&mut self, exec: &mut Exec) {
        exec.fresh();
        let mut order: Vec<usize> = (0..self.programs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.order.index(i + 1));
        }
        for p in order {
            let mut outputs = BTreeMap::new();
            for op in self.ops(p) {
                if let Some(output) = self.timed(exec, op) {
                    outputs.insert(op.1, output);
                }
            }
            if let Check::AgreeWithO { checked_fails } = self.programs[p].check {
                self.agree_with_o(p, checked_fails, &outputs);
            }
        }
    }

    /// One run of the collector microbench: each schedule's time from its
    /// own span, the time outside the spans as a set-up, and in traced
    /// runs each schedule's collector layers.
    fn heap_pass(&mut self, exec: &mut Exec) {
        let t = Instant::now();
        let cells = gcbench::gc_microbench(false);
        let call = t.elapsed();
        let spans: Duration = cells.iter().map(|c| Duration::from_nanos(c.wall_ns)).sum();
        self.setups.push(call.saturating_sub(spans).as_secs_f64());
        if cells.len() != heap::SCHEDULES.len() {
            self.wrong += 1;
            eprintln!(
                "wrong: {} schedules ran, expected {}",
                cells.len(),
                heap::SCHEDULES.len()
            );
        }
        for (i, cell) in cells.iter().enumerate() {
            let span = Duration::from_nanos(cell.wall_ns);
            self.time((i, None), span);
            if let Exec::Traced { layers, .. } = exec {
                layers.split_gc(span, &cell.stats);
            }
            if let Err(e) = heap::check(i, cell) {
                self.wrong += 1;
                eprintln!("wrong: {}: {e}", cell.name);
            }
            let counts = Outcome::Heap(heap::counts(&cell.stats));
            self.repeats((i, None), cell.name, counts);
        }
    }

    /// The paper's agreement rule: every mode prints what `-O` prints,
    /// except that a program with a pointer-arithmetic bug must fail the
    /// check in `-g, checked`.
    fn agree_with_o(
        &mut self,
        p: usize,
        checked_fails: bool,
        outputs: &BTreeMap<Option<Mode>, Result<Vec<u8>, VmError>>,
    ) {
        let Some(Ok(base)) = outputs.get(&Some(Mode::O)) else {
            self.wrong += 1;
            eprintln!("wrong: {} -O did not run", self.programs[p].name);
            return;
        };
        for (mode, output) in outputs {
            let expect_fail = *mode == Some(Mode::GChecked) && checked_fails;
            let agrees = match output {
                Ok(out) => !expect_fail && out == base,
                Err(VmError::CheckFailed { .. }) => expect_fail,
                Err(_) => false,
            };
            if !agrees {
                self.wrong += 1;
                eprintln!(
                    "wrong: {} {} disagrees with -O",
                    self.programs[p].name,
                    mode.map_or("", Mode::label)
                );
            }
        }
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut bench = Bench::new(args.workload, args.seed);
    let mut exec = if args.trace {
        // Traced operations run a copy of the library's calls; what the
        // library itself produces, in one untimed pass, is what they must
        // repeat.
        bench.pass(&mut Exec::Plain);
        Exec::Traced {
            memo: Memo::default(),
            layers: Layers::default(),
        }
    } else {
        Exec::Plain
    };
    let reference_ops = bench.attempted;

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed() < budget {
        bench.pass(&mut exec);
        for _ in 0..SETUPS_PER_GAP {
            if bench.setups.len() < SETUPS {
                bench.set_up();
            }
        }
        passes += 1;
    }
    let ops = bench.attempted - reference_ops;
    eprintln!(
        "{} seed {}: {passes} passes, {ops} operations in {:.3} s, {} failed, {} wrong; {} set-ups",
        args.workload,
        args.seed,
        start.elapsed().as_secs_f64(),
        bench.failed,
        bench.wrong,
        bench.setups.len()
    );

    let metrics: Vec<(&str, f64, &str)> = match &exec {
        Exec::Plain => {
            let mut best_ms: Vec<f64> = bench.best_ns.values().map(|&ns| ns as f64 / 1e6).collect();
            vec![
                ("op_ms", median(&mut best_ms), "ms"),
                ("pass_s", best_ms.iter().sum::<f64>() / 1e3, "s"),
                ("setup_s", median(&mut bench.setups), "s"),
            ]
        }
        Exec::Traced { layers, .. } => layers.metrics(ops),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.failed == 0 && bench.wrong == 0,
        bench.attempted,
        bench.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
