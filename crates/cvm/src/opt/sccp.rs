//! Sparse conditional constant propagation.
//!
//! Evaluates the function over a three-point lattice (unknown / constant
//! / varying) while tracking which blocks are reachable: a branch whose
//! condition is a known constant only makes its taken edge reachable, so
//! constants that merge identically over *reachable* definitions fold
//! even when a dead path would have disagreed. The transform rewrites
//! temp uses whose lattice value is a single constant into immediate
//! operands; `const_fold` then collapses the enclosing instructions and
//! constant branches on the same sweep, which widens the set of
//! never-taken edges the next sweep can exploit.
//!
//! GC relevance: collapsing a branch to a jump deletes every collection
//! point on the dead path from the cycle tables — and shortens the live
//! ranges the annotator reasoned about. `KeepLive`/`CheckSame`/`Call`/
//! `Load` results are lattice-varying by construction, so no constant is
//! ever propagated *through* a barrier (the `keep_live(7)` test shape
//! stays un-folded).
//!
//! Because the IR is not SSA, a temp's lattice value is the join over
//! all of its reachable definitions, and a use is only rewritten when
//! some definition of the temp dominates it (first-iteration reads of a
//! loop-carried temp otherwise observe the VM's zero-initialised frame,
//! not a definition on a dominating path).

use super::cfg::Dominators;
use super::rewrite_operands;
use crate::ir::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lat {
    Unknown,
    Const(i64),
    Varying,
}

fn join(a: Lat, b: Lat) -> Lat {
    match (a, b) {
        (Lat::Unknown, x) | (x, Lat::Unknown) => x,
        (Lat::Const(x), Lat::Const(y)) if x == y => Lat::Const(x),
        _ => Lat::Varying,
    }
}

/// Runs sparse conditional constant propagation; returns the number of
/// operands rewritten to constants.
pub fn sccp(f: &mut FuncIr) -> usize {
    let n = f.blocks.len();
    let tn = f.temp_count as usize;
    let mut reach = vec![false; n];
    if n == 0 {
        return 0;
    }
    reach[0] = true;
    let mut lat = vec![Lat::Unknown; tn];
    for &p in &f.param_temps {
        if (p.0 as usize) < tn {
            lat[p.0 as usize] = Lat::Varying;
        }
    }
    let op_lat = |o: Operand, lat: &[Lat]| match o {
        Operand::Const(c) => Lat::Const(c),
        Operand::Temp(t) => lat.get(t.0 as usize).copied().unwrap_or(Lat::Varying),
    };
    // Propagate to a fixpoint; both the lattice and the reachable set
    // only grow monotonically, so this terminates.
    loop {
        let mut changed = false;
        for bi in 0..n {
            if !reach[bi] {
                continue;
            }
            for ins in &f.blocks[bi].instrs {
                let val = match ins {
                    Instr::Const { dst, value } => Some((*dst, Lat::Const(*value))),
                    Instr::Mov { dst, src } => Some((*dst, op_lat(*src, &lat))),
                    Instr::Bin { dst, op, a, b } => {
                        let v = match (op_lat(*a, &lat), op_lat(*b, &lat)) {
                            (Lat::Const(x), Lat::Const(y)) => Lat::Const(op.eval(x, y)),
                            (Lat::Unknown, _) | (_, Lat::Unknown) => Lat::Unknown,
                            _ => Lat::Varying,
                        };
                        Some((*dst, v))
                    }
                    // Barriers, calls, loads, frame addresses: opaque.
                    _ => ins.dst().map(|d| (d, Lat::Varying)),
                };
                if let Some((d, v)) = val {
                    if let Some(slot) = lat.get_mut(d.0 as usize) {
                        let j = join(*slot, v);
                        if j != *slot {
                            *slot = j;
                            changed = true;
                        }
                    }
                }
            }
            // Mark successor edges executable.
            let (x, y) = match f.blocks[bi].instrs.last() {
                Some(Instr::Jump { target }) => (Some(*target), None),
                Some(Instr::Branch {
                    cond,
                    if_true,
                    if_false,
                }) => match op_lat(*cond, &lat) {
                    Lat::Const(c) => (Some(if c != 0 { *if_true } else { *if_false }), None),
                    _ => (Some(*if_true), Some(*if_false)),
                },
                _ => (None, None),
            };
            for s in x.into_iter().chain(y).map(|s| s.0 as usize) {
                if s < n && !reach[s] {
                    reach[s] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Transform: rewrite dominated uses of constant temps in reachable
    // blocks into immediates. Dominance is taken over the reachable
    // subgraph: an unreachable arm of a merge must not hide that the
    // reachable definition covers every executable path.
    let dom = Dominators::masked(f, &reach);
    // Every reachable definition as (temp, block, index), sorted so a
    // temp's sites are one contiguous run.
    let mut def_sites: Vec<(Temp, usize, usize)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        for (ii, ins) in b.instrs.iter().enumerate() {
            if let Some(d) = ins.dst() {
                def_sites.push((d, bi, ii));
            }
        }
    }
    def_sites.sort_unstable();
    let mut fires = 0usize;
    for bi in (0..n).filter(|&bi| reach[bi]) {
        for ii in 0..f.blocks[bi].instrs.len() {
            let dominated = |t: Temp| {
                let first = def_sites.partition_point(|s| s.0 < t);
                def_sites[first..]
                    .iter()
                    .take_while(|s| s.0 == t)
                    .any(|&(_, dbi, dii)| {
                        (dbi == bi && dii < ii) || (dbi != bi && dom.dominates(dbi, bi))
                    })
            };
            rewrite_operands(&mut f.blocks[bi].instrs[ii], |o| match o {
                Operand::Temp(t) => match lat.get(t.0 as usize) {
                    Some(Lat::Const(c)) if dominated(t) => {
                        fires += 1;
                        Operand::Const(*c)
                    }
                    _ => o,
                },
                c => c,
            });
        }
    }
    fires
}
