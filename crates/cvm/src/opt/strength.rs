//! Strength reduction on address arithmetic.
//!
//! Classic induction-variable reduction restricted to the address shape
//! the paper cares about: a loop that computes `addr = base + j*s` from
//! a basic induction variable `j = j ± c` is rewritten to maintain a
//! running pointer instead. Only chains containing a real multiply are
//! reduced — unit-width indexing reaches this pass as a shift (courtesy
//! of const_fold), and a shift is as cheap as the replacement add on
//! every machine model, so reducing it would trade nothing for a
//! loop-long pointer live range (register pressure, spills). Stride
//! indexing (`a[i*3]`) keeps its multiply and is the shape that wins:
//!
//! ```text
//! preheader:  tm  = j * s
//!             ptr = base + tm
//! loop:       addr = mov ptr          (replaces base + j*s)
//!             …
//!             j   = j + c
//!             ptr = ptr + c*s         (immediately after the increment)
//! ```
//!
//! The multiply leaves the loop entirely (dce retires it once its only
//! use is gone), which is the cycle win. The hazard is the point: `ptr`
//! is a *manufactured interior pointer* — after the transformation the
//! loop may hold no direct copy of `base` at all, only a pointer into
//! the middle of the object, live across every allocation call in the
//! body. The conservative collector must recognise interior pointers
//! (`g`/`g-checked`), and the annotated builds rely on the annotator's
//! `KeepLive` base threading having pinned `base` *before* this pass ran.
//!
//! Soundness of the placement: the pointer increment is inserted
//! immediately after the unique in-loop increment of `j`, so the
//! invariant `ptr == base + j*s` holds at every instruction of the loop
//! except between those two adjacent instructions — in particular at the
//! replaced address computation. The scheduler cannot re-order a use of
//! `ptr` across the increment (anti-dependence) and is block-local, so
//! the invariant survives later sweeps.

use super::cfg::{back_edges, def_counts, loop_blocks, Dominators};
use super::count_uses;
use crate::ir::*;
use crate::liveness::Liveness;
use std::collections::{BTreeMap, HashMap};

/// Runs induction-variable strength reduction on address arithmetic;
/// returns the number of `base + j*s` computations reduced.
pub fn strength_reduce(f: &mut FuncIr) -> usize {
    let dom = Dominators::of(f);
    // Group latches by header: a header with several back edges
    // (`continue` statements) has the union of their natural loops as
    // its body, and per-latch views would miscount in-loop definitions.
    let mut loops: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (latch, header) in back_edges(f, &dom) {
        if header == 0 {
            continue; // entry block cannot take a preheader safely
        }
        loops.entry(header).or_default().push(latch);
    }
    let mut fires = 0usize;
    // One liveness serves every loop until a reduction edits the IR.
    let mut lv: Option<Liveness> = None;
    for (header, latches) in loops {
        // Re-scan per loop: reducing one loop appends a preheader block
        // and shifts instruction indices, so candidate positions must be
        // fresh. Block ids of existing blocks never change, so the
        // header/latch ids collected above stay valid.
        let n = reduce_loop(f, &mut lv, header, &latches);
        if n > 0 {
            lv = None;
        }
        fires += n;
    }
    fires
}

struct Candidate {
    /// Position of `addr = base + m` (replaced with `addr = mov ptr`).
    /// The matched `m = j*s` stays put: once its only use is gone, dce
    /// retires it.
    add: (usize, usize),
    addr: Temp,
    /// The scale instruction, re-emitted in the preheader.
    scale_op: BinIr,
    scale: i64,
    j: Temp,
    /// Position of the unique in-loop `j = j ± c`.
    inc: (usize, usize),
    /// `ptr` advances by this per iteration: `±c * s` (or `±c << k`).
    delta: i64,
    base: Operand,
}

/// Reduces one loop. `lv` caches the liveness of `f` as it stands,
/// solved only once an induction variable is found. Returns zero
/// exactly when `f` was left untouched.
fn reduce_loop(
    f: &mut FuncIr,
    lv: &mut Option<Liveness>,
    header: usize,
    latches: &[usize],
) -> usize {
    let mut in_loop = vec![false; f.blocks.len()];
    for &latch in latches {
        for bi in loop_blocks(f, latch, header) {
            in_loop[bi] = true;
        }
    }
    let blocks: Vec<usize> = (0..f.blocks.len()).filter(|&b| in_loop[b]).collect();
    let defs_in_loop = def_counts(f, &blocks);
    let in_loop_defs = |t: Temp| defs_in_loop[t.0 as usize];
    let invariant = |o: Operand| match o {
        Operand::Temp(t) => in_loop_defs(t) == 0,
        Operand::Const(_) => true,
    };
    // Basic induction variables, keyed by j; the position recorded is
    // the instruction after which j holds its advanced value. Two forms:
    //
    // * `j = j ± c` in one instruction (hand-written IR, post-copy-prop
    //   shapes);
    // * the split form lowering actually emits for loop variables —
    //   `tmp = j ± c` followed by `j = mov tmp` (the mov is j's unique
    //   in-loop def; the non-SSA loop temp cannot be copy-propagated
    //   away). The pointer increment must anchor on the *mov*: between
    //   the add and the mov, j still holds the pre-increment value.
    let mut ivs: HashMap<Temp, ((usize, usize), i64)> = HashMap::new();
    // `tmp = j ± c` adds seen per temp: tmp -> (j, step).
    let mut stepped: HashMap<Temp, (Temp, i64)> = HashMap::new();
    for &bi in &blocks {
        for (ii, ins) in f.blocks[bi].instrs.iter().enumerate() {
            match ins {
                Instr::Bin { dst, op, a, b } => {
                    let step = match (op, a, b) {
                        (BinIr::Add, Operand::Temp(t), Operand::Const(c)) => Some((*t, *c)),
                        (BinIr::Add, Operand::Const(c), Operand::Temp(t)) => Some((*t, *c)),
                        (BinIr::Sub, Operand::Temp(t), Operand::Const(c)) => {
                            Some((*t, c.wrapping_neg()))
                        }
                        _ => None,
                    };
                    if let Some((t, c)) = step {
                        if t == *dst && in_loop_defs(*dst) == 1 {
                            ivs.insert(*dst, ((bi, ii), c));
                        } else if in_loop_defs(*dst) == 1 {
                            stepped.insert(*dst, (t, c));
                        }
                    }
                }
                Instr::Mov {
                    dst,
                    src: Operand::Temp(t),
                } => {
                    if let Some(&(j, c)) = stepped.get(t) {
                        if j == *dst && in_loop_defs(*dst) == 1 {
                            ivs.insert(*dst, ((bi, ii), c));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    if ivs.is_empty() {
        return 0;
    }
    let uses = count_uses(f);
    let lv = lv.get_or_insert_with(|| Liveness::compute(f));
    // Derived scaled values m = j*s / j<<k: single in-loop def, single
    // global use, fresh each iteration. Array indexing with an explicit
    // stride lowers to a two-level chain — `m1 = j*stride; m2 = m1*width`
    // (either level may reach us as a shift) — so a scaled value is also
    // recognised through one single-use intermediate, with the two
    // constant factors combined into one multiplier.
    struct Scaled {
        /// Position of the *last* instruction of the chain (feeds the add).
        pos: (usize, usize),
        /// Position of the *first* instruction of the chain — the
        /// increment-ordering guard must cover the whole chain.
        chain_start: (usize, usize),
        j: Temp,
        op: BinIr,
        scale: i64,
        inc: (usize, usize),
        delta: i64,
    }
    // Effective constant multiplier of one Mul/Shl-by-constant level.
    let factor = |op: BinIr, c: i64| -> Option<i64> {
        match op {
            BinIr::Mul => Some(c),
            BinIr::Shl if (0..64).contains(&c) => Some(1i64.wrapping_shl(c as u32)),
            _ => None,
        }
    };
    let as_scale = |ins: &Instr| -> Option<(Temp, Temp, i64, bool)> {
        let Instr::Bin { dst, op, a, b } = ins else {
            return None;
        };
        let (t, c) = match (a, b) {
            (Operand::Temp(t), Operand::Const(c)) => (*t, *c),
            (Operand::Const(c), Operand::Temp(t)) if *op == BinIr::Mul => (*t, *c),
            _ => return None,
        };
        Some((*dst, t, factor(*op, c)?, *op == BinIr::Mul))
    };
    let mut scaled: HashMap<Temp, Scaled> = HashMap::new();
    for &bi in &blocks {
        for (ii, ins) in f.blocks[bi].instrs.iter().enumerate() {
            let Some((dst, src, outer, outer_mul)) = as_scale(ins) else {
                continue;
            };
            // Either `src` is the induction variable itself, or it is a
            // single-use scale of the IV earlier in this block. At least
            // one chain level must be an actual multiply: eliminating a
            // shift (alu-priced on every machine model) buys nothing,
            // while the manufactured pointer is live across the whole
            // loop — pure register pressure. A multiply reaching this
            // pass has a non-power-of-two constant (const_fold already
            // turned the rest into shifts), so the eliminated op is a
            // real multiply and the reduction is a genuine cycle win.
            let (j, mult, chain_start) = if ivs.contains_key(&src) {
                if !outer_mul {
                    continue;
                }
                (src, outer, (bi, ii))
            } else {
                let Some(inner) =
                    f.blocks[bi].instrs[..ii]
                        .iter()
                        .enumerate()
                        .find_map(|(pi, pins)| match as_scale(pins) {
                            Some((d, t, m, im)) if d == src => Some((pi, t, m, im)),
                            _ => None,
                        })
                else {
                    continue;
                };
                let (pi, t, m, inner_mul) = inner;
                if !(inner_mul || outer_mul)
                    || !ivs.contains_key(&t)
                    || in_loop_defs(src) != 1
                    || uses[src.0 as usize] != 1
                    || lv.live_in[header].contains(src)
                {
                    continue;
                }
                (t, m.wrapping_mul(outer), (bi, pi))
            };
            let Some(&(inc, step)) = ivs.get(&j) else {
                continue;
            };
            if dst == j
                || in_loop_defs(dst) != 1
                || uses[dst.0 as usize] != 1
                || lv.live_in[header].contains(dst)
            {
                continue;
            }
            scaled.insert(
                dst,
                Scaled {
                    pos: (bi, ii),
                    chain_start,
                    j,
                    op: BinIr::Mul,
                    scale: mult,
                    inc,
                    delta: step.wrapping_mul(mult),
                },
            );
        }
    }
    if scaled.is_empty() {
        return 0;
    }
    // The unique use must be `addr = base + m` with an invariant base.
    let mut cands: Vec<Candidate> = Vec::new();
    for &bi in &blocks {
        for (ii, ins) in f.blocks[bi].instrs.iter().enumerate() {
            let Instr::Bin {
                dst,
                op: BinIr::Add,
                a,
                b,
            } = ins
            else {
                continue;
            };
            let (m, base) = match (a, b) {
                (Operand::Temp(t), other) if scaled.contains_key(t) => (*t, *other),
                (other, Operand::Temp(t)) if scaled.contains_key(t) => (*t, *other),
                _ => continue,
            };
            if !invariant(base)
                || base.as_temp() == Some(*dst)
                || *dst == m
                || in_loop_defs(*dst) != 1
                || lv.live_in[header].contains(*dst)
            {
                continue;
            }
            let s = &scaled[&m];
            if *dst == s.j {
                continue;
            }
            // The scale chain must feed the add in straight-line order
            // with no increment of j in between: otherwise the original
            // address reflects the pre-increment j while `ptr` has
            // already advanced. Lowered indexing always emits the chain
            // adjacent in one block, so this rejects nothing real.
            if s.pos.0 != bi || s.pos.1 >= ii {
                continue;
            }
            if s.inc.0 == bi && s.chain_start.1 < s.inc.1 && s.inc.1 < ii {
                continue;
            }
            cands.push(Candidate {
                add: (bi, ii),
                addr: *dst,
                scale_op: s.op,
                scale: s.scale,
                j: s.j,
                inc: s.inc,
                delta: s.delta,
                base,
            });
            // `m` has exactly one use, so it cannot match again.
            scaled.remove(&m);
        }
    }
    if cands.is_empty() {
        return 0;
    }
    cands.sort_by_key(|c| c.add);
    // Apply: replacements first (positions stay valid), then pointer
    // increments back-to-front (insertions shift later indices), then
    // the preheader.
    let mut pre: Vec<Instr> = Vec::new();
    let mut inserts: Vec<(usize, usize, Instr)> = Vec::new();
    let mut next_temp = f.temp_count;
    for c in &cands {
        let tm = Temp(next_temp);
        let ptr = Temp(next_temp + 1);
        next_temp += 2;
        pre.push(Instr::Bin {
            dst: tm,
            op: c.scale_op,
            a: Operand::Temp(c.j),
            b: Operand::Const(c.scale),
        });
        pre.push(Instr::Bin {
            dst: ptr,
            op: BinIr::Add,
            a: c.base,
            b: Operand::Temp(tm),
        });
        f.blocks[c.add.0].instrs[c.add.1] = Instr::Mov {
            dst: c.addr,
            src: Operand::Temp(ptr),
        };
        // The multiply at c.mul now computes an unused temp; dce takes it.
        inserts.push((
            c.inc.0,
            c.inc.1,
            Instr::Bin {
                dst: ptr,
                op: BinIr::Add,
                a: Operand::Temp(ptr),
                b: Operand::Const(c.delta),
            },
        ));
    }
    f.temp_count = next_temp;
    inserts.sort_by_key(|&(bi, ii, _)| (bi, ii));
    for (bi, ii, ins) in inserts.into_iter().rev() {
        f.blocks[bi].instrs.insert(ii + 1, ins);
    }
    super::cfg::insert_preheader(f, header, |b| in_loop.get(b).copied().unwrap_or(false), pre);
    cands.len()
}
