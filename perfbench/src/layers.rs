//! Per-layer spans and work counts for traced runs.
//!
//! A span wraps one call from the benchmark into one layer of the
//! pipeline. Spans never nest, so a layer's total is its self time. The
//! collector runs inside the VM or a heap schedule, so its time comes
//! from the heap's own mark and sweep accounting and is taken out of the
//! enclosing span.

use gcheap::HeapStats;
use std::time::{Duration, Instant};

/// A timed layer.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// Lexing, parsing and the structural program hash, plus semantic
    /// analysis for unannotated builds.
    Parse,
    /// The GC-safety annotator with the semantic analyses it runs, and
    /// the static safety verifier over annotated IR where the caller
    /// runs it (the fuzz oracle).
    Annotate,
    /// AST to IR lowering.
    Lower,
    /// The fixpoint optimizer.
    Optimize,
    /// IR to assembly for one machine.
    Codegen,
    /// The peephole postprocessor.
    Peephole,
    /// Cycle and size costing of assembly against a block profile.
    Cost,
    /// The VM interpreting, or a heap schedule allocating and storing
    /// pointers, outside the collector.
    Mutator,
    /// Collector mark phase.
    GcMark,
    /// Collector sweep phase.
    GcSweep,
}

const LAYER_NAMES: [&str; 10] = [
    "parse_ms",
    "annotate_ms",
    "lower_ms",
    "optimize_ms",
    "codegen_ms",
    "peephole_ms",
    "cost_ms",
    "mutator_ms",
    "gc_mark_ms",
    "gc_sweep_ms",
];

/// A work count recorded at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub enum Count {
    /// IR instructions left after optimization.
    IrInstrs,
    /// Optimizer pass fires.
    OptFires,
    /// Peephole rewrites.
    PeepholeRewrites,
    /// VM instructions executed.
    VmSteps,
    /// Heap allocations.
    Allocations,
    /// Collections of any cause.
    Collections,
    /// Objects reclaimed by sweeps.
    ObjectsFreed,
}

const COUNT_NAMES: [&str; 7] = [
    "ir_instrs",
    "opt_fires",
    "peephole_rewrites",
    "vm_steps",
    "allocations",
    "collections",
    "objects_freed",
];

/// Totals over the measured operations of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    ns: [u64; LAYER_NAMES.len()],
    counts: [u64; COUNT_NAMES.len()],
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Layers {
    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.add(layer, t.elapsed());
        r
    }

    /// Adds `d` to `layer`.
    pub fn add(&mut self, layer: Layer, d: Duration) {
        self.ns[layer as usize] += nanos(d);
    }

    /// Adds `n` to `count`.
    pub fn count(&mut self, count: Count, n: u64) {
        self.counts[count as usize] += n;
    }

    /// Books a VM run or heap schedule that took `span` and left the
    /// collector statistics `heap`: the heap's mark and sweep time go to
    /// the collector layers,
    /// the rest of `span` to the mutator, and the heap's work counts to
    /// theirs.
    pub fn split_gc(&mut self, span: Duration, heap: &HeapStats) {
        let (mark, sweep) = (heap.total_mark_ns, heap.total_sweep_ns);
        self.ns[Layer::GcMark as usize] += mark;
        self.ns[Layer::GcSweep as usize] += sweep;
        self.ns[Layer::Mutator as usize] += nanos(span).saturating_sub(mark + sweep);
        self.count(Count::Allocations, heap.allocations);
        self.count(Count::Collections, heap.collections);
        self.count(Count::ObjectsFreed, heap.objects_freed);
    }

    /// Every layer's time and every count, per operation over `ops`
    /// operations, as `(name, value, unit)`.
    pub fn metrics(&self, ops: u64) -> Vec<(&'static str, f64, &'static str)> {
        let ops = ops.max(1) as f64;
        let times = LAYER_NAMES
            .iter()
            .zip(self.ns)
            .map(|(&name, ns)| (name, ns as f64 / 1e6 / ops, "ms"));
        let counts = COUNT_NAMES
            .iter()
            .zip(self.counts)
            .map(|(&name, n)| (name, n as f64 / ops, "count"));
        times.chain(counts).collect()
    }
}
