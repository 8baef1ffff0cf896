//! gcsnap: deterministic heap-graph snapshots for the conservative
//! collector — the graph itself, not just aggregate counts.
//!
//! A [`Snapshot`] is one node per allocated heap object (address-ordered
//! stable ids, rounded size, size class, young/old generation, mark bit,
//! and the `malloc@line:col` allocation site the VM tags allocations
//! with) plus one edge per in-bounds pointer word, resolved with exactly
//! the conservative rules the marker uses. On top of the raw graph,
//! [`analyze`] computes reachability from the recorded roots, an
//! immediate-dominator tree ([`dominator_tree`], iterative
//! Cooper–Harvey–Kennedy over the stable ids, which cvm's optimizer
//! also runs over control-flow graphs), per-node **retained sizes**
//! (the bytes that would be freed if this node's incoming references
//! vanished), per-site retained roll-ups, and unreachable-but-unswept
//! ("floating garbage") accounting.
//!
//! The [`schema`] module serializes snapshots in the versioned `snap/1`
//! JSON schema and re-validates them with a strict round-trip parser
//! that recomputes the analysis; [`diff`] attributes heap growth between
//! two snapshots to allocation sites. Everything here is deterministic:
//! no wall-clock, no hashing of addresses, no randomized iteration
//! order — two runs of the same program produce byte-identical exports.

use std::sync::{Arc, Mutex};

pub mod diff;
mod dominators;
pub mod schema;

pub use dominators::{
    analyze, dominator_tree, site_rollup, Analysis, DomTree, SiteRollup, UNATTRIBUTED, VIRTUAL_ROOT,
};
pub use schema::{to_json, validate, ParsedSnap};

/// One heap object in a snapshot. Its id is its index in
/// [`Snapshot::nodes`]; nodes are emitted in ascending address order, so
/// ids are stable across identical heaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Object base address (simulated address space).
    pub addr: u64,
    /// Rounded extent: the slot size for small objects, the page-rounded
    /// size for large ones.
    pub size: u64,
    /// The size class (slot size in bytes) for small objects, `0` for
    /// large (page-spanning) objects.
    pub class: u32,
    /// Whether the object spans whole pages rather than a bitmap slot.
    pub large: bool,
    /// Whether the object's page is still in the young generation.
    pub young: bool,
    /// The object's mark bit at snapshot time (meaningful mid-cycle).
    pub marked: bool,
    /// Index into [`Snapshot::sites`], if the allocation carried a site.
    pub site: Option<u32>,
    /// Outgoing edges as target node ids, ascending and deduplicated.
    /// Self-edges are kept (an object may point into itself).
    pub edges: Vec<u32>,
}

/// One root reference: a conservatively resolved pointer from outside
/// the heap (a root range or a precise root word) to a heap object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootRef {
    /// Provenance label, e.g. `globals`, `stack`, `reg`.
    pub label: String,
    /// The referenced node id.
    pub node: u32,
}

/// A deterministic point-in-time heap graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Interned allocation-site labels, in first-use (node) order.
    pub sites: Vec<String>,
    /// All allocated objects, ascending by address.
    pub nodes: Vec<Node>,
    /// Root references, sorted by `(node, label)` and deduplicated.
    pub roots: Vec<RootRef>,
}

impl Snapshot {
    /// Total allocated objects (live or floating).
    pub fn objects(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Total allocated bytes (rounded extents).
    pub fn bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.size).sum()
    }

    /// The site label of a node, if any.
    pub fn site_of(&self, node: u32) -> Option<&str> {
        self.nodes[node as usize]
            .site
            .map(|s| self.sites[s as usize].as_str())
    }
}

/// The shared store behind an enabled [`SnapHandle`].
type SnapStore = Arc<Mutex<Vec<(String, Snapshot)>>>;

/// A cheap, cloneable handle collecting labeled snapshots, mirroring
/// `gcprof::ProfHandle`: the disabled handle costs one branch and never
/// evaluates the snapshot closure.
#[derive(Debug, Clone, Default)]
pub struct SnapHandle(Option<SnapStore>);

impl SnapHandle {
    /// A handle that drops everything (the default).
    pub fn disabled() -> Self {
        SnapHandle(None)
    }

    /// A handle that collects labeled snapshots.
    pub fn enabled() -> Self {
        SnapHandle(Some(Arc::default()))
    }

    /// Whether snapshots are being collected.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a labeled snapshot; `f` is only evaluated when enabled.
    pub fn record(&self, label: &str, f: impl FnOnce() -> Snapshot) {
        if let Some(cell) = &self.0 {
            let snap = f();
            cell.lock()
                .expect("snap store poisoned")
                .push((label.to_string(), snap));
        }
    }

    /// The snapshots recorded so far (label, graph), in record order;
    /// `None` when disabled.
    pub fn snapshots(&self) -> Option<Vec<(String, Snapshot)>> {
        self.0
            .as_ref()
            .map(|cell| cell.lock().expect("snap store poisoned").clone())
    }
}

/// Escapes a string for inclusion in a JSON document (used by the
/// schema writer for site and root labels).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_evaluates() {
        let h = SnapHandle::disabled();
        h.record("begin", || panic!("must not run"));
        assert!(!h.is_enabled());
        assert!(h.snapshots().is_none());
    }

    #[test]
    fn enabled_handle_collects_in_order() {
        let h = SnapHandle::enabled();
        h.record("begin", Snapshot::default);
        h.record("end", Snapshot::default);
        let got = h.snapshots().expect("enabled");
        assert_eq!(
            got.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
            ["begin", "end"]
        );
    }

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
