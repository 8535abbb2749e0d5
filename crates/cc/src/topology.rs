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
//! test is a field read and a range compare.
//!
//! [`Topology::of`] numbers a specification in one pre-order walk: a node's
//! id comes before its children's, each instance copy of a leaf is a
//! consecutive leaf node (and a lane of its own at the parent), and groups
//! are numbered in leaf order. So the groups below any node form one range
//! of ids, and "does `group` lie in this subtree" is `start <= group < end`.
//! An id the tree does not have — [`GroupId::NONE`], or one past the last
//! group that a version of an older tree still names after a
//! reconfiguration — lies in no range: it is foreign to every node.

use crate::mechanism::Lane;
use crate::tree::{CcNodeSpec, CcTreeSpec};
use std::ops::Range;
use tebaldi_storage::{GroupId, NodeId};

/// Static membership information for one CC tree.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Indexed by node id.
    nodes: Vec<TopoNode>,
}

#[derive(Clone, Debug)]
struct TopoNode {
    /// The parent and this node's lane there; `None` at the root.
    parent: Option<(NodeId, u32)>,
    /// The ids of the groups below this node (its own, at a leaf).
    groups: Range<u32>,
    /// The children, lane by lane.
    children: Vec<NodeId>,
}

impl Topology {
    /// The empty topology: no node, so every group is foreign everywhere.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Numbers `spec` (see the module docs) and returns its topology with
    /// the spec node of every node, in node-id order: a leaf split by
    /// instance appears once per copy. A root leaf is one node whatever
    /// its `instance_partitions` ([`CcTreeSpec::validate`] refuses a split
    /// one).
    pub fn of(spec: &CcTreeSpec) -> (Topology, Vec<&CcNodeSpec>) {
        let mut topology = Topology::new();
        let mut order = Vec::new();
        topology.number(&spec.root, None, 0, &mut order);
        (topology, order)
    }

    /// Numbers `spec`'s subtree from group `first`; returns its end.
    fn number<'s>(
        &mut self,
        spec: &'s CcNodeSpec,
        parent: Option<(NodeId, u32)>,
        first: u32,
        order: &mut Vec<&'s CcNodeSpec>,
    ) -> u32 {
        let id = self.nodes.len();
        let mut end = first + u32::from(spec.is_leaf());
        self.nodes.push(TopoNode {
            parent,
            groups: first..end,
            children: Vec::new(),
        });
        order.push(spec);
        for child in &spec.children {
            let copies = if child.is_leaf() {
                child.instance_partitions.max(1)
            } else {
                1
            };
            for _ in 0..copies {
                let lane = self.nodes[id].children.len() as u32;
                let child_id = NodeId(self.nodes.len() as u32);
                self.nodes[id].children.push(child_id);
                end = self.number(child, Some((NodeId(id as u32), lane)), end, order);
            }
        }
        self.nodes[id].groups.end = end;
        end
    }

    fn node(&self, node: NodeId) -> Option<&TopoNode> {
        self.nodes.get(node.0 as usize)
    }

    /// `node`'s parent and its lane there; `None` at the root.
    pub(crate) fn parent(&self, node: NodeId) -> Option<(NodeId, u32)> {
        self.node(node)?.parent
    }

    /// `node`'s children, lane by lane.
    pub(crate) fn children(&self, node: NodeId) -> &[NodeId] {
        self.node(node).map_or(&[], |n| &n.children)
    }

    /// True when `group` belongs to the same group as a transaction on
    /// `lane` at `node`: the subtree of child `c` for [`Lane::Child`]`(c)`,
    /// the leaf's own group for [`Lane::Leaf`].
    pub fn same_group(&self, node: NodeId, lane: Lane, group: GroupId) -> bool {
        let Some(at) = self.node(node) else {
            return false;
        };
        match lane {
            Lane::Child(c) => at
                .children
                .get(c as usize)
                .is_some_and(|child| self.in_subtree(*child, group)),
            Lane::Leaf => at.children.is_empty() && at.groups.start == group.0,
        }
    }

    /// True when `group` lies anywhere below `node` (including `node` being
    /// its leaf).
    pub fn in_subtree(&self, node: NodeId, group: GroupId) -> bool {
        self.node(node).is_some_and(|n| n.groups.contains(&group.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::CcKind;
    use tebaldi_storage::TxnTypeId;

    /// The paper's Figure 4.2-like tree: root N0 with children [N1 (leaf
    /// g0), N2], N2 with children [N3 (leaf g1), N4 (leaf g2)].
    fn sample() -> Topology {
        let leaf = |ty| CcNodeSpec::leaf(CcKind::TwoPl, "leaf", vec![TxnTypeId(ty)]);
        let spec = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![
                leaf(0),
                CcNodeSpec::inner(CcKind::TwoPl, "inner", vec![leaf(1), leaf(2)]),
            ],
        ));
        Topology::of(&spec).0
    }

    #[test]
    fn child_lanes() {
        let t = sample();
        assert!(t.same_group(NodeId(0), Lane::Child(0), GroupId(0)));
        assert!(t.same_group(NodeId(0), Lane::Child(1), GroupId(2)));
        assert!(t.same_group(NodeId(2), Lane::Child(1), GroupId(2)));
        assert!(!t.same_group(NodeId(2), Lane::Child(0), GroupId(0)));
        assert!(!t.same_group(NodeId(2), Lane::Child(2), GroupId(2)));
        assert_eq!(t.children(NodeId(2)), [NodeId(3), NodeId(4)]);
        assert_eq!(t.parent(NodeId(4)), Some((NodeId(2), 1)));
        assert_eq!(t.parent(NodeId(0)), None);
    }

    #[test]
    fn subtree_membership() {
        let t = sample();
        assert!(t.in_subtree(NodeId(0), GroupId(1)));
        assert!(t.in_subtree(NodeId(2), GroupId(1)));
        assert!(!t.in_subtree(NodeId(2), GroupId(0)));
        assert!(t.in_subtree(NodeId(3), GroupId(1)));
        assert!(!t.in_subtree(NodeId(3), GroupId(2)));
        assert!(!t.in_subtree(NodeId(0), GroupId(3)));
        assert!(!t.in_subtree(NodeId(0), GroupId::NONE));
    }

    #[test]
    fn leaf_lookup() {
        let t = sample();
        assert!(t.same_group(NodeId(4), Lane::Leaf, GroupId(2)));
        assert!(!t.same_group(NodeId(4), Lane::Leaf, GroupId(1)));
        assert!(!t.same_group(NodeId(0), Lane::Leaf, GroupId(0)));
        assert!(!t.same_group(NodeId(5), Lane::Leaf, GroupId(0)));
    }
}
