//! Component microbenchmarks: the substrates' hot paths (parser, sema,
//! annotator, collector, page-map lookups) plus an ablation of the
//! annotator's optimizations.

mod timing;

use gcheap::{GcHeap, Memory, RootSet};
use timing::bench;

fn main() {
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
