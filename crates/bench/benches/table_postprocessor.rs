//! E5: regenerates the paper's postprocessor table, then times the
//! peephole pass itself.

mod timing;

use gcbench::{collect, postprocessor_table};
use timing::bench;
use workloads::Scale;

fn main() {
    match collect(Scale::Tiny, gc_safety::default_jobs(), &Default::default()) {
        Ok(data) => {
            println!("\n=== E5: after the peephole postprocessor ===");
            println!("{}", postprocessor_table(&data));
        }
        Err(e) => eprintln!("table generation failed: {e}"),
    }
    let w = workloads::by_name("cordtest").expect("exists");
    let prog = cvm::compile(w.source, &cvm::CompileOptions::optimized_safe()).expect("compiles");
    let machine = asmpost::Machine::sparc10();
    let asm = asmpost::codegen_program(&prog, &machine);
    bench("peephole_cordtest", 1, 10, || {
        let mut copy = asm.clone();
        asmpost::postprocess_program(&mut copy)
    });
}
