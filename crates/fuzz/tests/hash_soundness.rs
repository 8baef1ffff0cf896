//! Hash-soundness property test over the fuzz generator's corpus: the
//! structural hash every pipeline cache keys on must be (a) invariant
//! under formatting — comment/whitespace edits and a pretty-print →
//! re-parse round trip — and (b) sound as a cache key: texts that share
//! a hash must behave identically, since the cache serves one's artifact
//! for the other. Every tenth program is built and run as its source,
//! its reformatted text and its pretty-printed text, which share a hash
//! but differ in text (180 VM runs). If two distinct generated programs
//! ever land on the same hash, both are run too. (With a 64-bit
//! structural FNV over a few hundred programs, such collisions are not
//! expected at all.)

use cvm::{compile, run_compiled, CompileOptions, VmOptions};
use std::collections::HashMap;

/// The step budget of every run here: a few times the 7,288 steps of the
/// longest run over the whole corpus, so a change that breaks a loop
/// exit fails the test at once instead of spinning through the default
/// budget of two billion steps.
const MAX_STEPS: u64 = 30_000;

fn behavior(source: &str) -> Vec<(Vec<u8>, i64)> {
    let vm = VmOptions {
        max_steps: MAX_STEPS,
        ..VmOptions::default()
    };
    // Two option sets bracket the pipeline: the full optimizer and the
    // checked debug build exercise different lowering and annotation.
    [CompileOptions::optimized(), CompileOptions::debug_checked()]
        .iter()
        .map(|opts| {
            let prog = compile(source, opts).expect("generated programs compile");
            let out = run_compiled(&prog, &vm).expect("generated programs run");
            (out.output, out.exit_code)
        })
        .collect()
}

#[test]
fn generator_corpus_hashes_are_format_invariant_and_collision_sound() {
    let mut by_hash: HashMap<u64, String> = HashMap::new();
    let mut corpus = 0u64;
    for seed in [1, 2] {
        for case in 0..150 {
            let src = gcfuzz::gen::generate(seed, case);
            let parsed = cfront::parse(&src).expect("generator output parses");
            let h = cfront::program_hash(&parsed);
            corpus += 1;

            // Formatting edits must not move the hash: a comment header,
            // blank lines, and trailing whitespace are all invisible.
            let reformatted = format!(
                "/* corpus {seed}/{case} */\n\n{}\n",
                src.replace('\n', " \n")
            );
            let reparsed = cfront::parse(&reformatted).expect("reformatted source parses");
            assert_eq!(
                h,
                cfront::program_hash(&reparsed),
                "formatting edit moved the hash (seed {seed} case {case})"
            );

            // Pretty-print → re-parse round trip is hash-invariant.
            let pretty = cfront::pretty::program_to_c(&parsed);
            let round = cfront::parse(&pretty).expect("pretty output parses");
            assert_eq!(
                h,
                cfront::program_hash(&round),
                "pretty round trip moved the hash (seed {seed} case {case})"
            );

            // The three texts share a hash, so they must share behaviour.
            if case % 10 == 0 {
                let expected = behavior(&src);
                for (what, text) in [("reformatted", &reformatted), ("pretty", &pretty)] {
                    assert_eq!(
                        behavior(text),
                        expected,
                        "{what} text behaves differently (seed {seed} case {case})"
                    );
                }
            }

            match by_hash.insert(h, src.clone()) {
                None => {}
                Some(prev) if prev == src => {}
                Some(prev) => {
                    // A genuine cross-program collision: the cache would
                    // serve one program's artifact for the other, which
                    // is only sound if they behave identically.
                    assert_eq!(
                        behavior(&prev),
                        behavior(&src),
                        "hash collision between behaviorally distinct programs \
                         (seed {seed} case {case}) — the cache key is unsound"
                    );
                }
            }
        }
    }
    // The property is vacuous unless the corpus was diverse: almost
    // every generated program should have its own hash.
    assert!(
        by_hash.len() as u64 > corpus * 9 / 10,
        "corpus too degenerate: {} distinct hashes from {corpus} programs",
        by_hash.len()
    );
}
