//! Shared helpers for the integration tests: a deterministic PRNG for
//! the randomized ones, and the VM result line the goldens pin.
//!
//! The container builds fully offline, so the suite hand-rolls its
//! randomness instead of depending on an external property-testing
//! crate: an xorshift64* generator with fixed per-test seeds. Failures
//! reproduce exactly — each case prints the generated program on
//! panic, and the seed arithmetic is pure.

// Shared by several test binaries; none of them uses every helper.
#![allow(dead_code)]

use cvm::{ExecOutcome, ProgramIr};

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// One line of what a VM run reports: the step count, the dynamic
/// instruction count, the sorted builtin call counts, the builtin byte
/// work, and FNV-1a digests of the output bytes and of the per-block
/// execution counts.
pub fn vm_line(prog: &ProgramIr, out: &ExecOutcome) -> String {
    let mut builtins: Vec<String> = out
        .profile
        .builtin_calls
        .iter()
        .map(|(b, n)| format!("{b:?}:{n}"))
        .collect();
    builtins.sort();
    let blocks = out.profile.block_counts.iter().flat_map(|counts| {
        std::iter::once(counts.len() as u64)
            .chain(counts.iter().copied())
            .flat_map(u64::to_le_bytes)
    });
    format!(
        "vm steps={} dynamic_instrs={} builtins=[{}] builtin_byte_work={} output_fnv={:016x} \
         blocks_fnv={:016x}",
        out.steps,
        out.profile.dynamic_instrs(prog),
        builtins.join(" "),
        out.profile.builtin_byte_work,
        fnv1a(out.output.iter().copied()),
        fnv1a(blocks),
    )
}

/// xorshift64* — tiny, fast, and plenty good for test-case generation.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; `seed` must be nonzero (0 is remapped).
    pub fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// A per-case seed derived from a test label and case index.
    pub fn for_case(label: &str, case: u64) -> Self {
        Rng::new(fnv1a(label.bytes()) ^ case.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi` (half-open, hi > lo).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.below((hi - lo) as u64) as i64)
    }

    /// Uniform usize in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// A u8 with full range.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }

    /// A full-range i32.
    pub fn next_i32(&mut self) -> i32 {
        self.next_u64() as i32
    }

    /// True with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[test]
fn rng_is_deterministic_and_varied() {
    let mut a = Rng::for_case("t", 1);
    let mut b = Rng::for_case("t", 1);
    let mut c = Rng::for_case("t", 2);
    let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
    let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
    assert_eq!(xs, ys, "same seed, same stream");
    assert_ne!(xs, zs, "different case, different stream");
    let mut r = Rng::new(7);
    let mut counts = [0usize; 4];
    for _ in 0..4000 {
        counts[r.index(4)] += 1;
    }
    for &n in &counts {
        assert!(n > 800, "quadrant badly under-sampled: {counts:?}");
    }
}
