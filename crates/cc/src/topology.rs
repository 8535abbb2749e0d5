//! Static topology of a CC tree.
//!
//! When a parent CC amends a child's read proposal (§4.3.1) it needs to know
//! whether the proposing version's writer lives in the *same child subtree*
//! as the reader — without learning anything else about the sibling's
//! internals, which is what preserves modularity. The [`Topology`] answers
//! exactly these membership questions from static data derived from the
//! tree specification; the dynamic part (which group wrote a given
//! version) is stamped on the version itself
//! ([`Version::group`](tebaldi_storage::Version::group)), so a membership
//! test is a field read and a topology lookup.

use std::collections::HashMap;
use tebaldi_storage::{GroupId, NodeId};

/// How a transaction relates to a node on its root→leaf path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneSel {
    /// At a non-leaf node the transaction belongs to the `i`-th child
    /// subtree.
    Child(u32),
    /// At its leaf node the transaction is an individual member of the
    /// group.
    Leaf,
}

/// Static membership information for one CC tree.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// `(node, group)` → child index of the subtree of `node` containing
    /// `group`. Absent when the group is not below the node (or the node is
    /// the group's own leaf).
    child_of: HashMap<(NodeId, GroupId), u32>,
    /// Leaf node → group it hosts.
    leaf_group: HashMap<NodeId, GroupId>,
}

impl Topology {
    /// Creates an empty topology; populated by the tree builder.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Records that `group`'s leaf lies in the `child_idx`-th subtree of
    /// `node`.
    pub fn record_child(&mut self, node: NodeId, group: GroupId, child_idx: u32) {
        self.child_of.insert((node, group), child_idx);
    }

    /// Records that `node` is the leaf hosting `group`.
    pub fn record_leaf(&mut self, node: NodeId, group: GroupId) {
        self.leaf_group.insert(node, group);
    }

    /// Child index of the subtree of `node` containing `group`, if any.
    pub fn child_lane(&self, node: NodeId, group: GroupId) -> Option<u32> {
        self.child_of.get(&(node, group)).copied()
    }

    /// The group hosted by `node` when `node` is a leaf.
    pub fn leaf_group(&self, node: NodeId) -> Option<GroupId> {
        self.leaf_group.get(&node).copied()
    }

    /// True when `group` lies anywhere below `node` (including `node` being
    /// its leaf).
    pub fn in_subtree(&self, node: NodeId, group: GroupId) -> bool {
        self.leaf_group(node) == Some(group) || self.child_of.contains_key(&(node, group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the topology of the paper's Figure 4.2-like tree:
    /// root N0 with children [N1 (leaf g0), N2], N2 with children
    /// [N3 (leaf g1), N4 (leaf g2)].
    fn sample() -> Topology {
        let mut t = Topology::new();
        t.record_leaf(NodeId(1), GroupId(0));
        t.record_leaf(NodeId(3), GroupId(1));
        t.record_leaf(NodeId(4), GroupId(2));
        t.record_child(NodeId(0), GroupId(0), 0);
        t.record_child(NodeId(0), GroupId(1), 1);
        t.record_child(NodeId(0), GroupId(2), 1);
        t.record_child(NodeId(2), GroupId(1), 0);
        t.record_child(NodeId(2), GroupId(2), 1);
        t
    }

    #[test]
    fn child_lanes() {
        let t = sample();
        assert_eq!(t.child_lane(NodeId(0), GroupId(0)), Some(0));
        assert_eq!(t.child_lane(NodeId(0), GroupId(2)), Some(1));
        assert_eq!(t.child_lane(NodeId(2), GroupId(2)), Some(1));
        assert_eq!(t.child_lane(NodeId(2), GroupId(0)), None);
    }

    #[test]
    fn subtree_membership() {
        let t = sample();
        assert!(t.in_subtree(NodeId(0), GroupId(1)));
        assert!(t.in_subtree(NodeId(2), GroupId(1)));
        assert!(!t.in_subtree(NodeId(2), GroupId(0)));
        assert!(t.in_subtree(NodeId(3), GroupId(1)));
        assert!(!t.in_subtree(NodeId(3), GroupId(2)));
    }

    #[test]
    fn leaf_lookup() {
        let t = sample();
        assert_eq!(t.leaf_group(NodeId(4)), Some(GroupId(2)));
        assert_eq!(t.leaf_group(NodeId(0)), None);
    }
}
