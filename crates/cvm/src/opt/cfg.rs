//! Small CFG analyses shared by the loop and global passes.

use crate::ir::*;
use gcsnap::{dominator_tree, DomTree, VIRTUAL_ROOT};

/// The dominator tree of a function's CFG, answering "does block `a`
/// dominate block `b`" in O(1) from each block's preorder interval.
///
/// The tree is [`gcsnap::dominator_tree`] (Cooper–Harvey–Kennedy) under
/// a virtual root whose children are bb0 and every other block with no
/// predecessor: a dead block that jumps into a loop body is a second
/// entry, so bb0 does not dominate that loop's header. A block no root
/// reaches (an unreachable cycle) is dominated by every block — the
/// greatest-fixpoint answer of the dataflow formulation.
pub(super) struct Dominators {
    /// Per block: preorder number in the dominator tree.
    pre: Vec<u32>,
    /// Per block: number of blocks it dominates, itself included; zero
    /// for blocks no root reaches.
    size: Vec<u32>,
}

impl Dominators {
    /// Dominators over the whole CFG.
    pub(super) fn of(f: &FuncIr) -> Self {
        Self::build(f, |_| true)
    }

    /// Dominators over the subgraph where `mask` holds: masked-out
    /// blocks are ignored as predecessors, so an unreachable edge into a
    /// merge point does not dilute the dominators of the reachable path
    /// (SCCP queries this with its executable-block set). Masked-out
    /// blocks answer as unreached — callers must not query them.
    pub(super) fn masked(f: &FuncIr, mask: &[bool]) -> Self {
        Self::build(f, |b| mask[b])
    }

    fn build(f: &FuncIr, keep: impl Fn(usize) -> bool) -> Self {
        let n = f.blocks.len();
        // Per block: its kept successors (at most two), and whether any
        // kept block jumps to it.
        let mut succ = vec![([0u32; 2], 0usize); n];
        let mut has_pred = vec![false; n];
        for (bi, b) in f.blocks.iter().enumerate() {
            if !keep(bi) {
                continue;
            }
            for s in b.successors().map(|t| t.0 as usize) {
                if keep(s) {
                    let (list, len) = &mut succ[bi];
                    list[*len] = s as u32;
                    *len += 1;
                    has_pred[s] = true;
                }
            }
        }
        // Without bb0 there are no roots, and every block is unreached.
        let roots: Vec<u32> = (0..n)
            .filter(|&b| keep(0) && keep(b) && (b == 0 || !has_pred[b]))
            .map(|b| b as u32)
            .collect();
        let DomTree { idom, rpo } = dominator_tree(n, &roots, |b| {
            let (list, len) = &succ[b as usize];
            &list[..*len]
        });
        // Subtree sizes (children before parents: reverse RPO), then
        // preorder numbers handing each child the next free slot of its
        // parent's interval (parents before children: RPO).
        let mut size = vec![0u32; n];
        for &b in rpo.iter().rev() {
            size[b as usize] += 1;
            let d = idom[b as usize];
            if d != VIRTUAL_ROOT {
                size[d as usize] += size[b as usize];
            }
        }
        // `next[n]` is the virtual root's.
        let mut pre = vec![0u32; n];
        let mut next = vec![0u32; n + 1];
        for &b in &rpo {
            let (b, d) = (b as usize, idom[b as usize]);
            let parent = if d == VIRTUAL_ROOT { n } else { d as usize };
            pre[b] = next[parent];
            next[parent] += size[b];
            next[b] = pre[b] + 1;
        }
        Dominators { pre, size }
    }

    /// Whether `a` dominates `b` (every block dominates itself).
    pub(super) fn dominates(&self, a: usize, b: usize) -> bool {
        self.size[b] == 0
            || (self.pre[a] <= self.pre[b] && self.pre[b] < self.pre[a] + self.size[a])
    }
}

/// True back edges (latch, header): u→v with v dominating u (switch
/// lowering also produces harmless backward-numbered forward edges).
pub(super) fn back_edges(f: &FuncIr, dom: &Dominators) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for h in b.successors().map(|t| t.0 as usize) {
            if dom.dominates(h, bi) {
                edges.push((bi, h));
            }
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

/// Natural loop of the back edge latch→header: header plus every block
/// that reaches the latch without passing through the header.
pub(super) fn loop_blocks(f: &FuncIr, latch: usize, header: usize) -> Vec<usize> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); f.blocks.len()];
    for (bi, b) in f.blocks.iter().enumerate() {
        for s in b.successors().map(|t| t.0 as usize) {
            preds[s].push(bi);
        }
    }
    let mut in_loop = vec![false; f.blocks.len()];
    in_loop[header] = true;
    let mut work = vec![latch];
    while let Some(b) = work.pop() {
        if in_loop[b] {
            continue;
        }
        in_loop[b] = true;
        work.extend_from_slice(&preds[b]);
    }
    (0..f.blocks.len()).filter(|&b| in_loop[b]).collect()
}

/// Per temp (indexed by number): how many instructions of `blocks`
/// define it.
pub(super) fn def_counts(f: &FuncIr, blocks: &[usize]) -> Vec<u32> {
    let mut defs = vec![0u32; f.temp_count as usize];
    for &bi in blocks {
        for d in f.blocks[bi].instrs.iter().filter_map(Instr::dst) {
            defs[d.0 as usize] += 1;
        }
    }
    defs
}

/// Appends a preheader block holding `instrs` followed by a jump to
/// `header`, and redirects every predecessor of `header` outside
/// `in_loop` to it. Returns the new block's id.
pub(super) fn insert_preheader(
    f: &mut FuncIr,
    header: usize,
    in_loop: impl Fn(usize) -> bool,
    mut instrs: Vec<Instr>,
) -> BlockId {
    let pre_id = BlockId(f.blocks.len() as u32);
    instrs.push(Instr::Jump {
        target: BlockId(header as u32),
    });
    f.blocks.push(Block { instrs });
    for bi in 0..f.blocks.len() - 1 {
        if in_loop(bi) {
            continue;
        }
        let block = &mut f.blocks[bi];
        if let Some(last) = block.instrs.last_mut() {
            match last {
                Instr::Jump { target } if target.0 as usize == header => *target = pre_id,
                Instr::Branch {
                    if_true, if_false, ..
                } => {
                    if if_true.0 as usize == header {
                        *if_true = pre_id;
                    }
                    if if_false.0 as usize == header {
                        *if_false = pre_id;
                    }
                }
                _ => {}
            }
        }
    }
    pre_id
}
