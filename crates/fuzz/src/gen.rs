//! Seeded random generator of C programs in the cfront subset.
//!
//! Every program is a pure function of `(seed, case_index)`: same pair,
//! same bytes. The shapes are deliberately biased toward the paper's
//! pointer-disguising patterns — displaced bases (`a[i - D]` whose only
//! surviving intermediate points outside the object), last-use cursor
//! arithmetic (`*p++` where the advanced pointer is dead after the final
//! load), and backward walks from a one-past-the-end pointer — each with
//! an allocation positioned to trigger a collection while the disguise
//! is the only reference. Under a paranoid collector this is exactly the
//! traffic that separates `-O` from the safe modes.
//!
//! The emitted programs are ANSI-legal at the source level (no
//! out-of-object pointers are ever *written* in the source; the
//! disguises are the optimizer's doing), terminate in bounded steps, and
//! take no input, so all five modes must agree on exit code and output.

use crate::rng::Rng;
use std::fmt::Write as _;

/// A malloc'd array owned by `main`.
struct ArrayVar {
    name: String,
    len: i64,
}

/// One generated helper function; all take `(long *a, long n)` except
/// `CharWalk`, which takes `(char *s)`.
enum Kernel {
    /// Displaced base: allocation before the loop, `a[i - D]` inside.
    SumDisplaced { disp: i64 },
    /// The LICM form: an allocation inside the loop body, so the hoisted
    /// displaced base must survive a collection on every iteration.
    LoopAllocDisplaced { disp: i64 },
    /// Last-use cursor: `s + *p++` with a fresh allocation between loads.
    CursorWalk,
    /// Backward walk from the one-past-the-end pointer with `--p`.
    BackWalk,
    /// In-place update; exercises stores through a derived pointer.
    StrideWrite { mul: i64, add: i64 },
    /// Data-dependent branching over the elements.
    CondSum,
    /// `memcpy` into a fresh allocation, then sum the copy — block
    /// builtins route through `Memory::copy`.
    MemCopySum,
    /// `switch` dispatch on the element value.
    SwitchMix,
    /// A `do`/`while` cursor (callers guarantee `n > 0`).
    DoWhileWalk,
    /// NUL-terminated byte cursor over a `char` array.
    CharWalk,
    /// Stores overwritten before any use; the surviving store writes
    /// through a derived pointer while a fresh allocation sits between
    /// iterations. Written as bait for dead-store elimination, a pass
    /// the optimizer no longer has; it stays because changing what the
    /// generator emits would move perfbench's `fuzz` draw and the fuzz
    /// goldens.
    DeadStore { pad: i64 },
    /// Loop-carried `a[i * stride]` address arithmetic, a scaled index
    /// live across the churn allocation. Written as bait for strength
    /// reduction, also gone; it stays for the same reason.
    StrideIndex { stride: i64 },
    /// A branch whose condition is constant only after constants merge
    /// across a join — SCCP bait; one arm of the inner branch is dead.
    ConstBranch { c: i64 },
    /// `strlen` plus a byte peek over a `char` array.
    StrLenSum,
}

impl Kernel {
    fn takes_chars(&self) -> bool {
        matches!(self, Kernel::CharWalk | Kernel::StrLenSum)
    }

    fn emit(&self, out: &mut String, name: &str) {
        match self {
            Kernel::SumDisplaced { disp } => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long *t;\n\
                     \x20   long i;\n\
                     \x20   long s;\n\
                     \x20   t = (long *) malloc(32);\n\
                     \x20   t[0] = n;\n\
                     \x20   s = t[0] - n;\n\
                     \x20   for (i = {disp}; i < n + {disp}; i = i + 1) {{\n\
                     \x20       s = s + a[i - {disp}];\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::LoopAllocDisplaced { disp } => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long i;\n\
                     \x20   long s;\n\
                     \x20   s = 0;\n\
                     \x20   for (i = {disp}; i < n + {disp}; i = i + 1) {{\n\
                     \x20       long *t;\n\
                     \x20       t = (long *) malloc(16);\n\
                     \x20       t[0] = i;\n\
                     \x20       s = s + a[i - {disp}] + t[0] - i;\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::CursorWalk => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long *p;\n\
                     \x20   long *t;\n\
                     \x20   long s;\n\
                     \x20   p = a;\n\
                     \x20   s = 0;\n\
                     \x20   while (n-- > 0) {{\n\
                     \x20       t = (long *) malloc(16);\n\
                     \x20       t[0] = s;\n\
                     \x20       s = t[0] + *p++;\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::BackWalk => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long *p;\n\
                     \x20   long *t;\n\
                     \x20   long s;\n\
                     \x20   t = (long *) malloc(24);\n\
                     \x20   t[0] = n;\n\
                     \x20   s = t[0] - n;\n\
                     \x20   p = a + n;\n\
                     \x20   while (p != a) {{\n\
                     \x20       --p;\n\
                     \x20       s = s + *p;\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::StrideWrite { mul, add } => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long i;\n\
                     \x20   for (i = 0; i < n; i = i + 1) {{\n\
                     \x20       a[i] = a[i] * {mul} + {add};\n\
                     \x20   }}\n\
                     \x20   return a[n - 1];\n\
                     }}\n\n"
                );
            }
            Kernel::CondSum => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long i;\n\
                     \x20   long s;\n\
                     \x20   s = 0;\n\
                     \x20   for (i = 0; i < n; i = i + 1) {{\n\
                     \x20       if (a[i] % 2 != 0) {{\n\
                     \x20           s = s + a[i];\n\
                     \x20       }} else {{\n\
                     \x20           s = s - a[i];\n\
                     \x20       }}\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::MemCopySum => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long *d;\n\
                     \x20   long s;\n\
                     \x20   long i;\n\
                     \x20   d = (long *) malloc(n * sizeof(long));\n\
                     \x20   memcpy(d, a, n * sizeof(long));\n\
                     \x20   s = 0;\n\
                     \x20   for (i = 0; i < n; i = i + 1) {{\n\
                     \x20       s = s + d[i];\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::SwitchMix => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long i;\n\
                     \x20   long s;\n\
                     \x20   s = 0;\n\
                     \x20   for (i = 0; i < n; i = i + 1) {{\n\
                     \x20       switch (a[i] % 3) {{\n\
                     \x20       case 0:\n\
                     \x20           s = s + a[i];\n\
                     \x20           break;\n\
                     \x20       case 1:\n\
                     \x20           s = s - a[i];\n\
                     \x20           break;\n\
                     \x20       default:\n\
                     \x20           s = s + 1;\n\
                     \x20           break;\n\
                     \x20       }}\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::DoWhileWalk => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long *p;\n\
                     \x20   long s;\n\
                     \x20   p = a;\n\
                     \x20   s = 0;\n\
                     \x20   do {{\n\
                     \x20       s = s + *p;\n\
                     \x20       p = p + 1;\n\
                     \x20       n = n - 1;\n\
                     \x20   }} while (n > 0);\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::CharWalk => {
                let _ = write!(
                    out,
                    "long {name}(char *s) {{\n\
                     \x20   long *t;\n\
                     \x20   long n;\n\
                     \x20   t = (long *) malloc(16);\n\
                     \x20   t[0] = 1;\n\
                     \x20   n = 0;\n\
                     \x20   while (*s) {{\n\
                     \x20       n = n + *s * t[0];\n\
                     \x20       s = s + 1;\n\
                     \x20   }}\n\
                     \x20   return n;\n\
                     }}\n\n"
                );
            }
            Kernel::DeadStore { pad } => {
                // `t[0] = s + pad` is overwritten before any use; only
                // `t[0] = i * 3` survives. The RHS of the surviving store
                // is load-free so no load sits between the two stores.
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long *t;\n\
                     \x20   long i;\n\
                     \x20   long s;\n\
                     \x20   t = (long *) malloc(32);\n\
                     \x20   s = 0;\n\
                     \x20   for (i = 0; i < n; i = i + 1) {{\n\
                     \x20       t[0] = s + {pad};\n\
                     \x20       t[0] = i * 3;\n\
                     \x20       s = s + t[0] + a[i];\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::StrideIndex { stride } => {
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long i;\n\
                     \x20   long s;\n\
                     \x20   long m;\n\
                     \x20   s = 0;\n\
                     \x20   m = n / {stride};\n\
                     \x20   for (i = 0; i < m; i = i + 1) {{\n\
                     \x20       long *t;\n\
                     \x20       t = (long *) malloc(16);\n\
                     \x20       t[0] = i;\n\
                     \x20       s = s + a[i * {stride}] + t[0] - i;\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n"
                );
            }
            Kernel::ConstBranch { c } => {
                // Both arms of the join bind the same constant, so only
                // SCCP (not plain folding) proves the inner condition.
                let _ = write!(
                    out,
                    "long {name}(long *a, long n) {{\n\
                     \x20   long f;\n\
                     \x20   long i;\n\
                     \x20   long s;\n\
                     \x20   long *t;\n\
                     \x20   t = (long *) malloc(16);\n\
                     \x20   t[0] = n;\n\
                     \x20   if (n > 4) {{\n\
                     \x20       f = {c};\n\
                     \x20   }} else {{\n\
                     \x20       f = {c};\n\
                     \x20   }}\n\
                     \x20   s = t[0] - n;\n\
                     \x20   for (i = 0; i < n; i = i + 1) {{\n\
                     \x20       if (f > {lim}) {{\n\
                     \x20           s = s + a[i];\n\
                     \x20       }} else {{\n\
                     \x20           s = s - a[i] * 2;\n\
                     \x20       }}\n\
                     \x20   }}\n\
                     \x20   return s;\n\
                     }}\n\n",
                    lim = c - 1
                );
            }
            Kernel::StrLenSum => {
                let _ = write!(
                    out,
                    "long {name}(char *s) {{\n\
                     \x20   long n;\n\
                     \x20   n = (long) strlen(s);\n\
                     \x20   return n * 5 + s[0];\n\
                     }}\n\n"
                );
            }
        }
    }
}

fn pick_kernel(r: &mut Rng, has_chars: bool) -> Kernel {
    // Weighted toward the disguising patterns the paper is about.
    let disp = [5i64, 64, 1000][r.index(3)];
    match r.index(if has_chars { 16 } else { 14 }) {
        0 | 1 => Kernel::SumDisplaced { disp },
        2 | 3 => Kernel::LoopAllocDisplaced { disp },
        4 => Kernel::CursorWalk,
        5 => Kernel::BackWalk,
        6 => Kernel::StrideWrite {
            mul: r.range_i64(2, 6),
            add: r.range_i64(-9, 10),
        },
        7 => Kernel::CondSum,
        8 => Kernel::MemCopySum,
        9 => Kernel::SwitchMix,
        10 => Kernel::DoWhileWalk,
        11 => Kernel::DeadStore {
            pad: r.range_i64(1, 9),
        },
        12 => Kernel::StrideIndex {
            stride: [2i64, 3, 4][r.index(3)],
        },
        13 => Kernel::ConstBranch {
            c: r.range_i64(1, 7),
        },
        14 => Kernel::CharWalk,
        _ => Kernel::StrLenSum,
    }
}

/// Generates the program for `(seed, case_index)`. Deterministic:
/// identical inputs produce identical bytes.
pub fn generate(seed: u64, case_index: u64) -> String {
    let label = format!("gcfuzz-{seed}");
    let mut r = Rng::for_case(&label, case_index);

    let n_arrays = 1 + r.index(2);
    let has_chars = r.chance(1, 3);
    let arrays: Vec<ArrayVar> = (0..n_arrays)
        .map(|i| ArrayVar {
            name: format!("a{i}"),
            len: r.range_i64(8, 33),
        })
        .collect();
    let char_len = r.range_i64(6, 24);

    let n_kernels = 1 + r.index(3);
    let kernels: Vec<Kernel> = (0..n_kernels)
        .map(|_| pick_kernel(&mut r, has_chars))
        .collect();

    let mut src = format!("/* gcfuzz seed={seed} case={case_index} */\n");
    for (i, k) in kernels.iter().enumerate() {
        k.emit(&mut src, &format!("k{i}"));
    }

    // main: declarations first (C89 style), then the phases.
    src.push_str("int main(void) {\n");
    for a in &arrays {
        let _ = writeln!(src, "    long *{};", a.name);
    }
    if has_chars {
        src.push_str("    char *c0;\n");
    }
    src.push_str("    long acc;\n    long j;\n");
    let inline_cursor = r.chance(1, 2);
    if inline_cursor {
        src.push_str("    long *p;\n");
    }
    src.push_str("    acc = 0;\n");

    for a in &arrays {
        let (name, len) = (&a.name, a.len);
        let mul = r.range_i64(1, 7);
        let off = r.range_i64(-25, 26);
        let _ = write!(
            src,
            "    {name} = (long *) malloc({len} * sizeof(long));\n\
             \x20   for (j = 0; j < {len}; j = j + 1) {{\n\
             \x20       {name}[j] = j * {mul} + {off};\n\
             \x20   }}\n"
        );
    }
    if has_chars {
        let _ = write!(
            src,
            "    c0 = (char *) malloc({});\n\
             \x20   for (j = 0; j < {char_len}; j = j + 1) {{\n\
             \x20       c0[j] = (char)(97 + j % 26);\n\
             \x20   }}\n\
             \x20   c0[{char_len}] = (char)0;\n",
            char_len + 1
        );
    }

    // Garbage churn: short-lived objects the collector may reclaim.
    if r.chance(2, 3) {
        let g = r.range_i64(4, 13);
        let _ = write!(
            src,
            "    for (j = 0; j < {g}; j = j + 1) {{\n\
             \x20       long *junk;\n\
             \x20       junk = (long *) malloc(40);\n\
             \x20       junk[0] = j * 3;\n\
             \x20       acc = acc + junk[0] - j * 3;\n\
             \x20   }}\n"
        );
    }
    if r.chance(1, 3) {
        src.push_str("    gc_collect();\n");
    }

    for (i, k) in kernels.iter().enumerate() {
        let calls = 1 + usize::from(r.chance(1, 3));
        for _ in 0..calls {
            if k.takes_chars() {
                let _ = writeln!(src, "    acc = acc * 31 + k{i}(c0);");
            } else {
                let a = &arrays[r.index(arrays.len())];
                let _ = writeln!(src, "    acc = acc * 31 + k{i}({}, {});", a.name, a.len);
            }
        }
    }

    if r.chance(1, 3) {
        let t = r.range_i64(1, 9);
        let e = r.range_i64(-9, 0);
        let _ = writeln!(src, "    acc = acc + (acc % 2 != 0 ? {t} : {e});");
    }
    if inline_cursor {
        let a = &arrays[r.index(arrays.len())];
        let _ = write!(
            src,
            "    p = {};\n\
             \x20   j = {};\n\
             \x20   while (j-- > 0) {{\n\
             \x20       acc = acc + *p++;\n\
             \x20   }}\n",
            a.name, a.len
        );
    }
    if r.chance(1, 3) {
        src.push_str("    gc_collect();\n");
    }

    src.push_str(
        "    putint(acc);\n\
         \x20   putchar(10);\n\
         \x20   return (int)(acc % 256);\n\
         }\n",
    );
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(3, 7), generate(3, 7));
        assert_ne!(generate(3, 7), generate(3, 8), "cases vary");
        assert_ne!(generate(3, 7), generate(4, 7), "seeds vary");
    }

    #[test]
    fn generated_programs_parse() {
        for case in 0..50 {
            let src = generate(1, case);
            cfront::parse(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        }
    }
}
