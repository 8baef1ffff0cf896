//! Global value numbering.
//!
//! Subsumes block-local CSE for pure expressions: a recomputation of
//! `p + 8` in a block dominated by an identical computation becomes a
//! copy of the earlier result. This is a disguise generator — the merged
//! temp's live range now stretches across every call on the path between
//! the two occurrences, so the derived (possibly displaced) pointer is
//! exactly what the conservative collector sees when one of those calls
//! collects. The annotator's `KeepLive` base operands keep the true base
//! findable; GVN itself never folds through a `KeepLive`/`CheckSame`
//! result because those dsts are not pure expressions.
//!
//! The IR is not SSA — temps are freely redefined — so expression keys
//! are only compared over temps with at most one definition in the whole
//! function (params count as a definition). A replacement additionally
//! requires, for every temp operand, that its unique definition
//! *dominates the source occurrence*, and that the source dominates the
//! target. That makes the copy sound even when the operand's definition
//! sits inside a loop: any path that re-executes the definition and then
//! reaches the target must re-pass the source (otherwise a path from
//! entry through the definition to the target would bypass the source,
//! contradicting source-dominates-target), so the source's result is
//! recomputed from the operand value the target would have used.

use super::cfg::Dominators;
use super::Expr;
use crate::ir::*;
use std::collections::HashMap;

/// Runs global value numbering; returns the number of cross- or
/// in-block recomputations replaced with copies.
pub fn gvn(f: &mut FuncIr) -> usize {
    // Definition counts and sites, with the implicit entry binding of
    // every param counted as a definition (site: function entry).
    // Both are indexed by temp number; a site is the last definition.
    let mut defs = vec![0u32; f.temp_count as usize];
    let mut def_site: Vec<Option<(usize, usize)>> = vec![None; f.temp_count as usize];
    for &p in &f.param_temps {
        defs[p.0 as usize] += 1;
    }
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, ins) in b.instrs.iter().enumerate() {
            if let Some(d) = ins.dst() {
                defs[d.0 as usize] += 1;
                def_site[d.0 as usize] = Some((bi, ii));
            }
        }
    }
    let single_def = |o: Operand| match o {
        Operand::Temp(t) => defs[t.0 as usize] <= 1,
        Operand::Const(_) => true,
    };
    let dom = Dominators::of(f);
    // An operand value is pinned at position `at` when it is a constant,
    // a never-redefined param, a never-written temp (the VM's
    // zero-initialised frame), or a single-def temp whose definition
    // dominates `at`.
    let pinned_at = |o: Operand, at: (usize, usize)| match o {
        Operand::Const(_) => true,
        Operand::Temp(t) => match def_site[t.0 as usize] {
            None => true, // param entry binding or never written
            Some((dbi, dii)) => {
                (dbi == at.0 && dii < at.1) || (dbi != at.0 && dom.dominates(dbi, at.0))
            }
        },
    };
    // Collect occurrences of pure expressions over single-def operands.
    struct Occ {
        bi: usize,
        ii: usize,
        dst: Temp,
        /// Reusable as a copy source: dst is single-def and every
        /// operand's definition dominates this occurrence.
        source: bool,
    }
    let mut table: HashMap<Expr, Vec<Occ>> = HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, ins) in b.instrs.iter().enumerate() {
            let Some(dst) = ins.dst() else { continue };
            let key = match Expr::of(ins) {
                Some(Expr::Bin(op, a, b)) if single_def(a) && single_def(b) => {
                    // The dst must not feed its own operands (a single-def
                    // self-reference would read an undefined value).
                    if a.as_temp() == Some(dst) || b.as_temp() == Some(dst) {
                        continue;
                    }
                    // Canonicalize commutative operand order so `a+b`
                    // and `b+a` share a value number (any consistent
                    // order does).
                    if op.commutative() && a > b {
                        Expr::Bin(op, b, a)
                    } else {
                        Expr::Bin(op, a, b)
                    }
                }
                Some(key @ Expr::Frame(_)) => key,
                _ => continue,
            };
            let operands_pinned = match key {
                Expr::Bin(_, a, b) => pinned_at(a, (bi, ii)) && pinned_at(b, (bi, ii)),
                Expr::Frame(_) => true,
            };
            let source = single_def(Operand::Temp(dst)) && operands_pinned;
            table.entry(key).or_default().push(Occ {
                bi,
                ii,
                dst,
                source,
            });
        }
    }
    // Rewrite each occurrence that is dominated by an earlier reusable
    // occurrence of the same value.
    let mut fires = 0usize;
    for occs in table.values() {
        for target in occs {
            let src = occs
                .iter()
                .filter(|s| {
                    s.source
                        && s.dst != target.dst
                        && ((s.bi == target.bi && s.ii < target.ii)
                            || (s.bi != target.bi && dom.dominates(s.bi, target.bi)))
                })
                .min_by_key(|s| (s.bi, s.ii));
            if let Some(s) = src {
                f.blocks[target.bi].instrs[target.ii] = Instr::Mov {
                    dst: target.dst,
                    src: Operand::Temp(s.dst),
                };
                fires += 1;
            }
        }
    }
    fires
}
