//! Component microbenchmarks: the substrates' hot paths (parser, sema,
//! annotator, collector, page-map lookups), an ablation of the
//! annotator's optimizations, the VM's per-step cost, and code
//! generation.

mod timing;

use asmpost::Machine;
use cvm::{CompileOptions, VmOptions};
use gcheap::{GcHeap, HeapConfig, Memory, RootSet};
use timing::bench;

/// VM step-cost kernels, each a loop made mostly of one kind of step:
/// arithmetic on temps, loads and stores into a heap object, loads and
/// stores into a stack array, calls and returns, and string builtins on
/// a heap string and a global one.
const STEP_KERNELS: &[(&str, &str)] = &[
    (
        "alu",
        "int main(void) { long i; long s = 1;
           for (i = 0; i < 100000; i++) { s = s + (i ^ (s >> 3)) * 3 - (s & 7); }
           return (int) (s & 127); }",
    ),
    (
        "heap",
        "int main(void) { long i; long *p = (long *) malloc(64 * sizeof(long));
           for (i = 0; i < 64; i++) p[i] = i;
           for (i = 0; i < 100000; i++) { p[i & 63] = p[(i + 1) & 63] + i; }
           return (int) (p[5] & 127); }",
    ),
    (
        "frame",
        "int main(void) { long i; long a[64];
           for (i = 0; i < 64; i++) a[i] = i;
           for (i = 0; i < 100000; i++) { a[i & 63] = a[(i + 1) & 63] + i; }
           return (int) (a[5] & 127); }",
    ),
    (
        "call",
        "long f(long x, long y) { return x + y; }
         int main(void) { long i; long s = 0;
           for (i = 0; i < 50000; i++) { s = f(s, i); }
           return (int) (s & 127); }",
    ),
    (
        "string",
        "int main(void) { long i; long s = 0; char *h = (char *) malloc(32);
           strcpy(h, \"a heap string, 27 bytes long\");
           for (i = 0; i < 20000; i++) {
             s = s + strlen(h) + strcmp(h, \"a heap string, 27 bytes lonG\") + strlen(\"global\"); }
           return (int) (s & 127); }",
    ),
];

/// The paranoid kernel: an allocating loop that keeps every eighth
/// object on a list, run with a collection at every allocation.
const PARANOID_KERNEL: &str = "int main(void) { long i; long *p; long *keep = 0;
    for (i = 0; i < 2000; i++) {
      p = (long *) malloc(32);
      p[0] = (long) keep;
      if (i % 8 == 0) keep = p; }
    return 0; }";

/// Times every step-cost kernel at `-O` and `-g`, printing each run's
/// step count and the median nanoseconds per step.
fn step_costs() {
    println!("== vm step cost ==");
    for (name, src) in STEP_KERNELS {
        for (mode, copts) in [
            ("O", CompileOptions::optimized()),
            ("g", CompileOptions::debug()),
        ] {
            let prog = cvm::compile(src, &copts).expect("compiles");
            let run = || cvm::run_compiled(&prog, &VmOptions::default()).expect("runs");
            let steps = run().steps;
            let ns = bench(&format!("vm_{name}_{mode}"), 2, 20, || run().exit_code);
            println!(
                "{:<28} {steps} steps, {:.2} ns/step",
                "",
                ns as f64 / steps as f64
            );
        }
    }
}

/// Times [`PARANOID_KERNEL`] at `-O` with a collection at every
/// allocation, as the fuzz oracle's paranoid reruns collect, printing
/// the median nanoseconds per collection.
fn paranoid_cost() {
    println!("== paranoid collection cost ==");
    let prog = cvm::compile(PARANOID_KERNEL, &CompileOptions::optimized()).expect("compiles");
    let opts = VmOptions {
        heap_config: HeapConfig {
            gc_threshold: 1,
            ..HeapConfig::default()
        },
        ..VmOptions::default()
    };
    let run = || cvm::run_compiled(&prog, &opts).expect("runs");
    let collections = run().heap.collections;
    let ns = bench("vm_paranoid_O", 2, 20, || run().exit_code);
    println!(
        "{:<28} {collections} collections, {:.0} ns/collection",
        "",
        ns as f64 / collections as f64
    );
}

/// Times code generation (register allocation and instruction selection,
/// before the peephole) of two workloads' `-g, checked` builds for each
/// machine.
fn codegen_costs() {
    println!("== codegen ==");
    let machines = [
        ("sparc2", Machine::sparc2()),
        ("sparc10", Machine::sparc10()),
        ("pentium90", Machine::pentium90()),
    ];
    for name in ["cordtest", "cfrac"] {
        let src = workloads::by_name(name).expect("exists").source;
        let prog = cvm::compile(src, &CompileOptions::debug_checked()).expect("compiles");
        for (key, machine) in &machines {
            bench(&format!("codegen_{name}_{key}"), 2, 20, || {
                asmpost::codegen_program(&prog, machine)
            });
        }
    }
}

fn main() {
    step_costs();
    paranoid_cost();
    codegen_costs();

    let src = workloads::by_name("gs").expect("exists").source;

    println!("== components ==");

    bench("parse_gs", 2, 20, || cfront::parse(src).expect("parses"));

    bench("annotate_gs_safe", 2, 20, || {
        gcsafe::annotate_program(src, &gcsafe::Config::gc_safe()).expect("annotates")
    });

    bench("annotate_gs_checked", 2, 20, || {
        gcsafe::annotate_program(src, &gcsafe::Config::checked()).expect("annotates")
    });

    // Ablation: optimization 1 (copy suppression) off.
    let no_opt1 = gcsafe::Config {
        skip_copies: false,
        ..gcsafe::Config::gc_safe()
    };
    bench("annotate_gs_no_opt1", 2, 20, || {
        gcsafe::annotate_program(src, &no_opt1).expect("annotates")
    });

    bench("gc_alloc_collect_cycle", 2, 20, || {
        let mut mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::with_defaults(&mem);
        let mut keep = Vec::new();
        for i in 0..2000u64 {
            let a = heap.alloc(&mut mem, 32).expect("fits");
            if i % 7 == 0 {
                keep.push(a);
            }
        }
        let mut roots = RootSet::new();
        for &k in &keep {
            roots.add_word(k);
        }
        heap.collect(&mut mem, &roots);
        heap.stats().objects_live
    });

    {
        let mut mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::with_defaults(&mem);
        let objs: Vec<u64> = (0..512)
            .map(|_| heap.alloc(&mut mem, 48).expect("fits"))
            .collect();
        bench("page_map_base_lookup", 2, 20, || {
            let mut acc = 0u64;
            for &o in &objs {
                acc = acc.wrapping_add(heap.base(o + 17).expect("interior resolves"));
            }
            acc
        });
    }
}
