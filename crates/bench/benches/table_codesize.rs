//! E4: regenerates the paper's object-code-size table, then times the
//! codegen stage.

mod timing;

use gcbench::{codesize_table, collect};
use timing::bench;
use workloads::Scale;

fn main() {
    match collect(Scale::Tiny, gc_safety::default_jobs(), &Default::default()) {
        Ok(data) => {
            println!("\n=== E4: code size expansion ===");
            println!("{}", codesize_table(&data));
        }
        Err(e) => eprintln!("table generation failed: {e}"),
    }
    let w = workloads::by_name("gs").expect("exists");
    let prog = cvm::compile(w.source, &cvm::CompileOptions::optimized_safe()).expect("compiles");
    let machine = asmpost::Machine::sparc10();
    bench("codegen_gs_safe", 1, 10, || {
        asmpost::codegen_program(&prog, &machine)
    });
}
