//! The peephole postprocessor never manufactures a read of a register
//! that nothing defines.
//!
//! Every function of the four paper workloads and of a gcfuzz sample is
//! built `-O` and `-O safe` on all three machines (`-O safe+post` is the
//! `-O safe` build postprocessed, so it adds no input) and then
//! postprocessed. Only the frame pointer and the registers live into the
//! function's entry block count as defined at entry, so a rewrite that
//! leaves a stale read behind reads a register the input never read
//! before writing it, and the def-before-use check sees it. The
//! postprocessed function must also keep every `KEEP_LIVE` base and must
//! not grow.

use asmpost::codegen::FP;
use asmpost::peephole::{defined_before_use, keep_live_bases_preserved, AsmLiveness};
use asmpost::{codegen_program, postprocess, Machine};
use gc_safety::Mode;

fn check(label: &str, source: &str) {
    for mode in [Mode::O, Mode::OSafe] {
        let prog = cvm::compile(source, &mode.compile_options())
            .unwrap_or_else(|e| panic!("{label} {}: {e}", mode.label()));
        for machine in Machine::all() {
            for f in codegen_program(&prog, &machine) {
                let what = format!("{label} {} {} {}", mode.label(), machine.name, f.name);
                let mut entry = AsmLiveness::compute(&f).live_in[0];
                entry.insert(FP);
                assert!(
                    defined_before_use(&f, entry),
                    "{what}: input fails its own check:\n{}",
                    f.listing()
                );
                let mut post = f.clone();
                postprocess(&mut post);
                assert!(
                    defined_before_use(&post, entry),
                    "{what}: peephole introduced an undefined read:\n{}\nfrom\n{}",
                    post.listing(),
                    f.listing()
                );
                assert!(
                    keep_live_bases_preserved(&f, &post),
                    "{what}: a KEEP_LIVE base changed"
                );
                assert!(post.size_bytes() <= f.size_bytes(), "{what}: code grew");
            }
        }
    }
}

#[test]
fn paper_workloads_keep_every_read_defined() {
    for w in workloads::all() {
        check(w.name, w.source);
    }
}

#[test]
fn gcfuzz_programs_keep_every_read_defined() {
    for seed in 1..=2 {
        for case in 0..50 {
            let label = format!("gcfuzz seed {seed} case {case}");
            check(&label, &gcfuzz::generate(seed, case));
        }
    }
}
