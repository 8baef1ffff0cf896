//! The pipeline one layer at a time, for traced runs: the calls the
//! library's `measure_source` and the fuzz oracle make, each inside a
//! span. A [`Memo`] stands in for the library's compile and code caches,
//! so a traced operation does the work an untraced one does.
//!
//! The copy leaves out some of the library's work: re-binding
//! allocation-site labels to the requesting source and cloning the IR
//! out of the compile cache on every compile, the lowering cache that
//! modes with the same annotation and lowering options share, and the
//! fuzz oracle's check of the profiler against the heap statistics.
//! Traced runs check every output and cost against an untimed pass
//! through the library, so a copy that comes to compute something else
//! shows as wrong results.

use crate::layers::{Count, Layer, Layers};
use gc_safety::{AsmFunc, ExecOutcome, Machine, Mode, ProgramIr, TraceHandle, VmError, VmOptions};
use gcheap::HeapConfig;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// `(cycles, size_bytes)` by machine name.
pub type Costs = BTreeMap<&'static str, (u64, u64)>;

/// Builds by structural program hash and compile options, as the library
/// keys them: the optimized IR and the code generator's output per
/// machine.
#[derive(Default)]
pub struct Memo {
    builds: HashMap<(u64, gc_safety::CompileOptions), Build>,
}

struct Build {
    ir: ProgramIr,
    asm: BTreeMap<&'static str, Vec<AsmFunc>>,
}

impl Memo {
    /// Forgets every build, as the library's `cache_clear` does.
    pub fn clear(&mut self) {
        self.builds.clear();
    }

    /// Parses and hashes `source`, as every library compile does, and
    /// builds it in `mode` unless a build with the same options is
    /// remembered.
    fn build(&mut self, source: &str, mode: Mode, l: &mut Layers) -> Result<&mut Build, String> {
        let (program, hash) = l
            .time(Layer::Parse, || {
                cfront::parse(source).map(|program| {
                    let hash = cfront::program_hash(&program);
                    (program, hash)
                })
            })
            .map_err(|e| e.render(source))?;
        let key = (hash, mode.compile_options());
        if !self.builds.contains_key(&key) {
            let ir = compile(program, source, &key.1, l)?;
            let build = Build {
                ir,
                asm: BTreeMap::new(),
            };
            self.builds.insert(key.clone(), build);
        }
        Ok(self.builds.get_mut(&key).expect("build was just inserted"))
    }
}

/// Annotates or analyzes, lowers and optimizes a parsed program.
fn compile(
    mut program: cfront::Program,
    source: &str,
    opts: &gc_safety::CompileOptions,
    l: &mut Layers,
) -> Result<ProgramIr, String> {
    let sema = match &opts.annotate {
        Some(cfg) => {
            let annotated = l
                .time(Layer::Annotate, || {
                    gcsafe::annotate_parsed_traced(program, source, cfg, &TraceHandle::disabled())
                })
                .map_err(|e| e.render(source))?;
            program = annotated.program;
            annotated.sema
        }
        None => l
            .time(Layer::Parse, || cfront::analyze(&mut program))
            .map_err(|e| e.render(source))?,
    };
    let mut ir = l
        .time(Layer::Lower, || cvm::lower(&program, &sema, opts.lower))
        .map_err(|e| e.to_string())?;
    let fires: usize = l.time(Layer::Optimize, || {
        if !opts.opt.enabled {
            return 0;
        }
        ir.funcs
            .iter_mut()
            .map(|f| {
                let ledger = cvm::optimize_func_ledger(f, opts.opt);
                ledger.fires.iter().map(|(_, n)| n).sum::<usize>()
            })
            .sum()
    });
    l.count(Count::OptFires, fires as u64);
    let instrs: usize = ir
        .funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.instrs.len())
        .sum();
    l.count(Count::IrInstrs, instrs as u64);
    Ok(ir)
}

/// Runs `ir` on the VM; the collector's share of the run goes to the
/// collector layers.
fn execute(ir: &ProgramIr, opts: &VmOptions, l: &mut Layers) -> Result<ExecOutcome, VmError> {
    let t = Instant::now();
    let r = cvm::run_compiled(ir, opts);
    match &r {
        Ok(out) => {
            l.split_gc(t.elapsed(), &out.heap);
            l.count(Count::VmSteps, out.steps);
        }
        Err(_) => l.add(Layer::Mutator, t.elapsed()),
    }
    r
}

/// `measure_source` layer by layer: build, run on `input`, then code
/// generation, peephole (for `-O` and `-O, safe+post`) and costing on
/// every machine.
pub fn measure(
    source: &str,
    input: &[u8],
    mode: Mode,
    memo: &mut Memo,
    l: &mut Layers,
) -> Result<(Result<ExecOutcome, VmError>, Costs), String> {
    let build = memo.build(source, mode, l)?;
    let vm = VmOptions {
        input: input.to_vec(),
        ..VmOptions::default()
    };
    let outcome = execute(&build.ir, &vm, l);
    let mut costs = Costs::new();
    for machine in Machine::all() {
        let mut asm = match build.asm.get(machine.name) {
            Some(asm) => asm.clone(),
            None => {
                let asm = l.time(Layer::Codegen, || {
                    asmpost::codegen_program(&build.ir, &machine)
                });
                build.asm.insert(machine.name, asm.clone());
                asm
            }
        };
        if matches!(mode, Mode::O | Mode::OSafePost) {
            let stats = l.time(Layer::Peephole, || asmpost::postprocess_program(&mut asm));
            l.count(Count::PeepholeRewrites, stats.total() as u64);
        }
        if let Ok(out) = &outcome {
            let cost = l.time(Layer::Cost, || {
                asmpost::measure(&asm, &out.profile, &machine)
            });
            costs.insert(machine.name, (cost.cycles, cost.size_bytes));
        }
    }
    Ok((outcome, costs))
}

/// The fuzz oracle's checks (`gcfuzz::check`) layer by layer: in every
/// mode, build; verify annotated builds; run twice and compare; run the
/// safe modes under the paranoid stop-the-world and bounded-pause
/// collectors; agree with `-O`. `Err` describes the first divergence.
pub fn oracle(source: &str, memo: &mut Memo, l: &mut Layers) -> Result<(), String> {
    let vm = || VmOptions {
        max_steps: gcfuzz::oracle::MAX_STEPS,
        ..VmOptions::default()
    };
    let paranoid = [
        HeapConfig {
            gc_threshold: 1,
            ..HeapConfig::default()
        },
        HeapConfig {
            gc_threshold: 1,
            mark_budget_bytes: 64,
            ..HeapConfig::bounded_pause()
        },
    ];
    let mut baseline: Option<(i64, Vec<u8>)> = None;
    for mode in Mode::all() {
        let ir = &memo.build(source, mode, l)?.ir;
        if mode.compile_options().annotate.is_some() {
            let violations = l.time(Layer::Annotate, || cvm::verify_program(ir, false));
            if let Some(v) = violations.first() {
                return Err(format!("[{}] verifier: {v}", mode.label()));
            }
        }
        let first = VmOptions {
            prof: gc_safety::ProfHandle::enabled(),
            ..vm()
        };
        let r1 = execute(ir, &first, l).map_err(|e| format!("[{}] run: {e}", mode.label()))?;
        let same = |r: &ExecOutcome| r.exit_code == r1.exit_code && r.output == r1.output;
        match execute(ir, &vm(), l) {
            Ok(r2) if same(&r2) && r2.profile.block_counts == r1.profile.block_counts => {}
            _ => return Err(format!("[{}] nondeterministic", mode.label())),
        }
        if mode.is_safe() {
            for heap_config in &paranoid {
                let opts = VmOptions {
                    heap_config: heap_config.clone(),
                    snapshot_oracle: true,
                    ..vm()
                };
                match execute(ir, &opts, l) {
                    Ok(r) if same(&r) => {}
                    other => return Err(format!("[{}] paranoid: {other:?}", mode.label())),
                }
            }
        }
        match &baseline {
            None => baseline = Some((r1.exit_code, r1.output)),
            Some((exit, output)) if (exit, output) != (&r1.exit_code, &r1.output) => {
                return Err(format!("[{}] disagrees with -O", mode.label()));
            }
            Some(_) => {}
        }
    }
    Ok(())
}
