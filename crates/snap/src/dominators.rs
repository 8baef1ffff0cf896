//! Reachability, immediate dominators, and retained sizes over a
//! [`Snapshot`]'s stable node ids.
//!
//! The dominator tree is computed by [`dominator_tree`], the iterative
//! Cooper–Harvey–Kennedy algorithm ("A Simple, Fast Dominance
//! Algorithm") over a virtual root connected to every root: process
//! nodes in reverse postorder, intersecting the candidate dominators of
//! each node's processed predecessors, until a fixed point. On reducible
//! and irreducible graphs alike this converges in a handful of passes,
//! and it needs nothing but a few `Vec<u32>`s — no semidominator
//! buckets. The function is graph-generic: [`analyze`] runs it over the
//! heap graph with the root-referenced nodes as roots, and the
//! optimizer in `cvm` runs it over control-flow graphs.
//!
//! Retained size of a node `v` is the total size of the nodes `v`
//! dominates (including itself): exactly the bytes that become
//! unreachable if `v`'s incoming references disappear.

use crate::Snapshot;

/// Sentinel id for the virtual super-root in [`Analysis::idom`] and
/// [`DomTree::idom`].
pub const VIRTUAL_ROOT: u32 = u32::MAX;

/// The derived view of a snapshot: reachability, dominators, retained
/// sizes, and floating-garbage totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Per node: reachable from the recorded roots.
    pub reachable: Vec<bool>,
    /// Per node: immediate dominator id, [`VIRTUAL_ROOT`] when the node
    /// is dominated only by the root set itself. Unreachable nodes also
    /// carry [`VIRTUAL_ROOT`]; check [`Analysis::reachable`] first.
    pub idom: Vec<u32>,
    /// Per node: retained bytes (own size + dominated subtree); zero for
    /// unreachable nodes.
    pub retained: Vec<u64>,
    /// Objects reachable from the roots.
    pub reachable_objects: u64,
    /// Bytes (rounded extents) reachable from the roots.
    pub reachable_bytes: u64,
    /// Allocated-but-unreachable objects: floating garbage the sweep has
    /// not yet retired (unfinished cycles, or simply no collection since
    /// the objects died).
    pub floating_objects: u64,
    /// Bytes of floating garbage.
    pub floating_bytes: u64,
}

/// Per-site aggregation across one snapshot, used by the Prometheus
/// export and the leak diff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteRollup {
    /// The site label, or `(unattributed)` for unlabeled allocations.
    pub site: String,
    /// Allocated objects carrying this site (reachable or floating).
    pub objects: u64,
    /// Shallow bytes: the sum of those objects' rounded sizes.
    pub shallow_bytes: u64,
    /// Retained bytes: the sum of retained sizes of this site's
    /// dominator-tree-topmost reachable nodes (a node is skipped when a
    /// dominator ancestor carries the same site, so nothing is counted
    /// twice).
    pub retained_bytes: u64,
}

/// The dominator tree of a graph whose roots all hang off one virtual
/// root, as computed by [`dominator_tree`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomTree {
    /// Per node: immediate dominator id, [`VIRTUAL_ROOT`] when the node
    /// is dominated only by the virtual root. Nodes no root reaches also
    /// carry [`VIRTUAL_ROOT`]; they are exactly the nodes missing from
    /// [`DomTree::rpo`].
    pub idom: Vec<u32>,
    /// The nodes the roots reach, in reverse postorder of a depth-first
    /// search from the virtual root (roots taken in the given order). A
    /// node's immediate dominator always precedes it.
    pub rpo: Vec<u32>,
}

/// Immediate dominators of the `n`-node graph whose successors are
/// `succ(v)`, under a virtual root whose children are `roots`.
///
/// `d` dominates `v` when every path from a root to `v` passes through
/// `d`, so a node reached from two roots by disjoint paths is dominated
/// by the virtual root alone. Iterative Cooper–Harvey–Kennedy over the
/// reached subgraph; unreached predecessors are ignored.
pub fn dominator_tree<'g>(n: usize, roots: &[u32], succ: impl Fn(u32) -> &'g [u32]) -> DomTree {
    // Reverse postorder from the virtual root: collect a postorder
    // iteratively (node, next-successor index), then reverse it. The
    // virtual root is not numbered.
    let mut reached = vec![false; n];
    let mut rpo: Vec<u32> = Vec::with_capacity(n);
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for &r in roots {
        if reached[r as usize] {
            continue;
        }
        reached[r as usize] = true;
        stack.push((r, 0));
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if let Some(&t) = succ(v).get(*next) {
                *next += 1;
                if !reached[t as usize] {
                    reached[t as usize] = true;
                    stack.push((t, 0));
                }
            } else {
                rpo.push(v);
                stack.pop();
            }
        }
    }
    rpo.reverse();
    // Position in reverse postorder; the virtual root is implicitly
    // before everything.
    let mut rpo_num = vec![u32::MAX; n];
    for (i, &v) in rpo.iter().enumerate() {
        rpo_num[v as usize] = i as u32;
    }

    // Predecessors over the reached subgraph, flattened: those of `v`
    // are `preds[start[v]..start[v + 1]]`.
    let mut start = vec![0u32; n + 1];
    for &v in &rpo {
        for &t in succ(v) {
            start[t as usize + 1] += 1;
        }
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut preds = vec![0u32; start[n] as usize];
    for &v in &rpo {
        for &t in succ(v) {
            preds[fill[t as usize] as usize] = v;
            fill[t as usize] += 1;
        }
    }
    let mut is_root = vec![false; n];
    for &r in roots {
        is_root[r as usize] = true;
    }

    // CHK fixed point. `idom` entries start undefined (the VIRTUAL_ROOT
    // sentinel plus a `defined` bitmap keep "undefined" and "dominated
    // by the virtual root" distinct during iteration).
    let mut idom = vec![VIRTUAL_ROOT; n];
    let mut defined = vec![false; n];
    let intersect = |idom: &[u32], mut x: u32, mut y: u32| {
        while x != y {
            if x == VIRTUAL_ROOT || y == VIRTUAL_ROOT {
                return VIRTUAL_ROOT;
            }
            // Walk the deeper (larger rpo number) side up.
            if rpo_num[x as usize] > rpo_num[y as usize] {
                x = idom[x as usize];
            } else {
                y = idom[y as usize];
            }
        }
        x
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &v in &rpo {
            let vi = v as usize;
            let mut new_idom = is_root[vi].then_some(VIRTUAL_ROOT);
            for &p in &preds[start[vi] as usize..start[vi + 1] as usize] {
                if !defined[p as usize] {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, p, cur),
                });
            }
            let new_idom = new_idom.expect("reached node has a processed predecessor");
            if !defined[vi] || idom[vi] != new_idom {
                idom[vi] = new_idom;
                defined[vi] = true;
                changed = true;
            }
        }
    }
    DomTree { idom, rpo }
}

/// Computes reachability, dominators, and retained sizes for `snap`.
pub fn analyze(snap: &Snapshot) -> Analysis {
    let n = snap.nodes.len();
    // Virtual-root children: the unique root-referenced nodes,
    // ascending (RootRefs are sorted by node id).
    let mut roots: Vec<u32> = snap.roots.iter().map(|r| r.node).collect();
    roots.dedup();
    let DomTree { idom, rpo } = dominator_tree(n, &roots, |v| &snap.nodes[v as usize].edges);
    let mut a = Analysis {
        reachable: vec![false; n],
        idom,
        retained: vec![0; n],
        ..Analysis::default()
    };
    for &v in &rpo {
        a.reachable[v as usize] = true;
    }

    // Retained sizes: seed with own size, then fold each node into its
    // immediate dominator in reverse RPO (children before ancestors —
    // an idom always precedes its dominated nodes in RPO).
    for &v in &rpo {
        a.retained[v as usize] = snap.nodes[v as usize].size;
    }
    for &v in rpo.iter().rev() {
        let d = a.idom[v as usize];
        if d != VIRTUAL_ROOT {
            a.retained[d as usize] += a.retained[v as usize];
        }
    }

    for (v, node) in snap.nodes.iter().enumerate() {
        if a.reachable[v] {
            a.reachable_objects += 1;
            a.reachable_bytes += node.size;
        } else {
            a.floating_objects += 1;
            a.floating_bytes += node.size;
        }
    }
    a
}

/// Label used for nodes whose allocation carried no site.
pub const UNATTRIBUTED: &str = "(unattributed)";

/// Aggregates a snapshot per allocation site, sorted by retained bytes
/// descending, then shallow bytes descending, then label.
pub fn site_rollup(snap: &Snapshot, a: &Analysis) -> Vec<SiteRollup> {
    use std::collections::BTreeMap;
    let mut by_site: BTreeMap<&str, SiteRollup> = BTreeMap::new();
    let label_of = |v: usize| snap.site_of(v as u32).unwrap_or(UNATTRIBUTED);
    for (v, node) in snap.nodes.iter().enumerate() {
        let e = by_site.entry(label_of(v)).or_default();
        e.objects += 1;
        e.shallow_bytes += node.size;
    }
    // Retained: only dominator-topmost nodes of each site contribute, so
    // a site never counts bytes both at a node and at its dominated
    // descendant.
    for (v, _) in snap.nodes.iter().enumerate() {
        if !a.reachable[v] {
            continue;
        }
        let site = label_of(v);
        let mut anc = a.idom[v];
        let mut topmost = true;
        while anc != VIRTUAL_ROOT {
            if label_of(anc as usize) == site {
                topmost = false;
                break;
            }
            anc = a.idom[anc as usize];
        }
        if topmost {
            by_site.get_mut(site).expect("seeded above").retained_bytes += a.retained[v];
        }
    }
    let mut rows: Vec<SiteRollup> = by_site
        .into_iter()
        .map(|(site, mut r)| {
            r.site = site.to_string();
            r
        })
        .collect();
    rows.sort_by(|x, y| {
        y.retained_bytes
            .cmp(&x.retained_bytes)
            .then(y.shallow_bytes.cmp(&x.shallow_bytes))
            .then(x.site.cmp(&y.site))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Node, RootRef};

    fn node(addr: u64, size: u64, edges: Vec<u32>) -> Node {
        Node {
            addr,
            size,
            class: size as u32,
            large: false,
            young: false,
            marked: false,
            site: None,
            edges,
        }
    }

    fn snap_of(sizes: &[u64], edges: &[(u32, u32)], roots: &[u32]) -> Snapshot {
        let mut nodes: Vec<Node> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| node(0x1000_0000 + i as u64 * 64, s, Vec::new()))
            .collect();
        for &(f, t) in edges {
            nodes[f as usize].edges.push(t);
        }
        for n in &mut nodes {
            n.edges.sort_unstable();
            n.edges.dedup();
        }
        let mut rs: Vec<RootRef> = roots
            .iter()
            .map(|&r| RootRef {
                label: "root".into(),
                node: r,
            })
            .collect();
        rs.sort_by_key(|r| r.node);
        Snapshot {
            sites: Vec::new(),
            nodes,
            roots: rs,
        }
    }

    struct Rng(u64);
    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
        }
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Brute-force reachability with node `cut` removed.
    fn reachable_without(snap: &Snapshot, cut: Option<u32>) -> Vec<bool> {
        let mut seen = vec![false; snap.nodes.len()];
        let mut work: Vec<u32> = snap
            .roots
            .iter()
            .map(|r| r.node)
            .filter(|&r| Some(r) != cut)
            .collect();
        while let Some(v) = work.pop() {
            if seen[v as usize] {
                continue;
            }
            seen[v as usize] = true;
            for &t in &snap.nodes[v as usize].edges {
                if Some(t) != cut && !seen[t as usize] {
                    work.push(t);
                }
            }
        }
        seen
    }

    #[test]
    fn chain_retains_its_tail() {
        // root -> 0 -> 1 -> 2, sizes 16/32/64.
        let s = snap_of(&[16, 32, 64], &[(0, 1), (1, 2)], &[0]);
        let a = analyze(&s);
        assert_eq!(a.retained, vec![112, 96, 64]);
        assert_eq!(a.idom, vec![VIRTUAL_ROOT, 0, 1]);
        assert_eq!(a.reachable_bytes, 112);
        assert_eq!(a.floating_objects, 0);
    }

    #[test]
    fn diamond_joins_at_the_root() {
        // root -> 0; 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: node 3 is dominated
        // by 0, not by either branch.
        let s = snap_of(&[8, 8, 8, 8], &[(0, 1), (0, 2), (1, 3), (2, 3)], &[0]);
        let a = analyze(&s);
        assert_eq!(a.idom[3], 0);
        assert_eq!(a.retained, vec![32, 8, 8, 8]);
    }

    #[test]
    fn multi_rooted_node_is_dominated_by_the_root_set() {
        // Two roots each reach node 2 through different paths.
        let s = snap_of(&[8, 8, 8], &[(0, 2), (1, 2)], &[0, 1]);
        let a = analyze(&s);
        assert_eq!(a.idom[2], VIRTUAL_ROOT);
        assert_eq!(a.retained, vec![8, 8, 8]);
    }

    #[test]
    fn floating_garbage_is_counted_not_retained() {
        let s = snap_of(&[8, 16], &[], &[0]);
        let a = analyze(&s);
        assert!(a.reachable[0] && !a.reachable[1]);
        assert_eq!(a.retained[1], 0);
        assert_eq!((a.floating_objects, a.floating_bytes), (1, 16));
    }

    #[test]
    fn cycles_converge_and_retain_as_a_unit() {
        // root -> 0 -> 1 -> 2 -> 1 (cycle 1<->2 entered at 1).
        let s = snap_of(&[8, 8, 8], &[(0, 1), (1, 2), (2, 1)], &[0]);
        let a = analyze(&s);
        assert_eq!(a.idom, vec![VIRTUAL_ROOT, 0, 1]);
        assert_eq!(a.retained, vec![24, 16, 8]);
    }

    /// The satellite oracle: on randomized graphs, retained(v) must
    /// equal the bytes that drop out of reachability when v is removed —
    /// the defining property of dominator-based retained sizes.
    #[test]
    fn retained_matches_remove_and_recount_oracle() {
        for case in 0..96u64 {
            let mut rng = Rng::new(case.wrapping_mul(0x9E37_79B9) + 1);
            let n = 2 + rng.below(22) as usize;
            let sizes: Vec<u64> = (0..n).map(|_| 8 + rng.below(64) * 8).collect();
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let m = rng.below(3 * n as u64 + 1);
            for _ in 0..m {
                edges.push((rng.below(n as u64) as u32, rng.below(n as u64) as u32));
            }
            let mut roots: Vec<u32> = (0..n as u32).filter(|_| rng.below(4) == 0).collect();
            if roots.is_empty() {
                roots.push(rng.below(n as u64) as u32);
            }
            let s = snap_of(&sizes, &edges, &roots);
            let a = analyze(&s);
            let full = reachable_without(&s, None);
            for v in 0..n {
                assert_eq!(full[v], a.reachable[v], "case {case}: reachability of {v}");
                if !full[v] {
                    continue;
                }
                let without = reachable_without(&s, Some(v as u32));
                let lost: u64 = (0..n)
                    .filter(|&u| full[u] && !without[u])
                    .map(|u| s.nodes[u].size)
                    .sum();
                assert_eq!(
                    a.retained[v], lost,
                    "case {case}: retained of node {v} (n={n}, roots={roots:?})"
                );
            }
            // Totals partition the heap.
            assert_eq!(
                a.reachable_bytes + a.floating_bytes,
                s.bytes(),
                "case {case}"
            );
        }
    }

    /// Brute-force reachability in an adjacency-list graph from `roots`,
    /// with node `cut` removed.
    fn reach_without(succ: &[Vec<u32>], roots: &[u32], cut: Option<u32>) -> Vec<bool> {
        let mut seen = vec![false; succ.len()];
        let mut work: Vec<u32> = roots.iter().copied().filter(|&r| Some(r) != cut).collect();
        while let Some(v) = work.pop() {
            if !seen[v as usize] {
                seen[v as usize] = true;
                work.extend(succ[v as usize].iter().filter(|&&t| Some(t) != cut));
            }
        }
        seen
    }

    /// The shared function against the definition on random multi-root
    /// graphs with cycles, self-loops, duplicate roots and unreachable
    /// nodes: `d` dominates `b` iff removing `d` cuts `b` off from every
    /// root, and the reverse postorder lists exactly the reached nodes,
    /// each after its immediate dominator.
    #[test]
    fn dominator_tree_matches_remove_and_reach_oracle() {
        for case in 0..200u64 {
            let mut rng = Rng::new(case.wrapping_mul(0x51_7CC1) + 7);
            let n = 1 + rng.below(16) as usize;
            let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
            for _ in 0..rng.below(2 * n as u64 + 2) {
                let (f, t) = (rng.below(n as u64), rng.below(n as u64));
                succ[f as usize].push(t as u32);
            }
            let roots: Vec<u32> = (0..1 + rng.below(3))
                .map(|_| rng.below(n as u64) as u32)
                .collect();
            let tree = dominator_tree(n, &roots, |v| &succ[v as usize]);
            let full = reach_without(&succ, &roots, None);
            let mut pos = vec![usize::MAX; n];
            for (i, &v) in tree.rpo.iter().enumerate() {
                pos[v as usize] = i;
            }
            for b in 0..n {
                assert_eq!(full[b], pos[b] != usize::MAX, "case {case}: reach of {b}");
                if !full[b] {
                    assert_eq!(tree.idom[b], VIRTUAL_ROOT, "case {case}: unreached {b}");
                    continue;
                }
                let mut ancestors = vec![false; n];
                let mut d = tree.idom[b];
                while d != VIRTUAL_ROOT {
                    assert!(pos[d as usize] < pos[b], "case {case}: idom after {b}");
                    ancestors[d as usize] = true;
                    d = tree.idom[d as usize];
                }
                for d in (0..n).filter(|&d| d != b) {
                    let cut = !reach_without(&succ, &roots, Some(d as u32))[b];
                    assert_eq!(
                        ancestors[d], cut,
                        "case {case}: does {d} dominate {b}? (succ={succ:?}, roots={roots:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn site_rollup_never_double_counts() {
        // Both nodes of a chain carry the same site: only the top one
        // contributes its retained size.
        let mut s = snap_of(&[16, 32], &[(0, 1)], &[0]);
        s.sites = vec!["malloc@1:1".into()];
        s.nodes[0].site = Some(0);
        s.nodes[1].site = Some(0);
        let a = analyze(&s);
        let rows = site_rollup(&s, &a);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].site, "malloc@1:1");
        assert_eq!(rows[0].objects, 2);
        assert_eq!(rows[0].shallow_bytes, 48);
        assert_eq!(rows[0].retained_bytes, 48);
    }
}
