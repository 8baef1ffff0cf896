//! E1–E3: regenerates the paper's three slowdown tables, then times the
//! full measurement pipeline on the smallest workload.

mod timing;

use gcbench::{collect, slowdown_table};
use timing::bench;
use workloads::Scale;

fn main() {
    // Print the actual paper tables once (paper scale).
    match collect(Scale::Paper, gc_safety::default_jobs(), &Default::default()) {
        Ok(data) => {
            println!("\n=== E1–E3: run-time slowdown relative to -O ===");
            for key in ["sparc2", "sparc10", "pentium90"] {
                println!("{}", slowdown_table(&data, key));
            }
        }
        Err(e) => eprintln!("table generation failed: {e}"),
    }
    let w = workloads::by_name("cordtest").expect("exists");
    bench("measure_cordtest_tiny", 1, 10, || {
        gc_safety::measure_workload(&w, Scale::Tiny).expect("runs")
    });
}
