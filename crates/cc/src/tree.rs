//! CC-tree specifications and the runtime tree.
//!
//! A [`CcTreeSpec`] is the *configuration* of hierarchical MCC: which
//! mechanism runs at every node, how transaction types are partitioned into
//! leaf groups, and whether a leaf is further split by instance
//! (partition-by-instance, §5.4.2). Specifications are plain serializable
//! data so the automatic configurator can generate, compare and persist
//! them.
//!
//! [`CcTree::build`] turns a specification into a runtime tree.
//! [`Topology::of`] numbers the nodes and groups and gives the static
//! topology every mechanism consults for subtree-membership questions;
//! then one loop over the nodes, in node-id order, builds each node's
//! mechanism, running the CC-specific preprocessing of §5.4.2 off the
//! node's spec (runtime pipelining's static analysis, SSI's read-only-lane
//! / batching decision), and each group's root→leaf path (with lanes) is
//! read off the parent links.

use crate::events::EventSink;
use crate::mechanism::{CcKind, CcMechanism, Lane, NodeEnv};
use crate::nocc::NoCc;
use crate::oracle::TsOracle;
use crate::procinfo::ProcedureSet;
use crate::registry::TxnRegistry;
use crate::rp::Rp;
use crate::rp_analysis::analyze;
use crate::ssi::{Ssi, SsiConfig, SsiCounters};
use crate::topology::Topology;
use crate::tso::Tso;
use crate::twopl::TwoPl;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use tebaldi_obs::MetricsRegistry;
use tebaldi_storage::{GroupId, NodeId, TxnTypeId};

/// One node of a CC-tree specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CcNodeSpec {
    /// Mechanism running at this node.
    pub kind: CcKind,
    /// Human-readable label used in tree printouts.
    pub label: String,
    /// Children (empty for leaf nodes).
    pub children: Vec<CcNodeSpec>,
    /// Transaction types assigned to this node (leaf nodes only).
    pub txn_types: Vec<TxnTypeId>,
    /// Partition-by-instance factor: a leaf with `instance_partitions > 1`
    /// is split into that many identical copies and instances are assigned
    /// to copies by an input hash (the per-flight TSO groups of §4.6.2).
    pub instance_partitions: u32,
}

impl CcNodeSpec {
    /// A leaf node hosting the given transaction types.
    pub fn leaf(kind: CcKind, label: &str, txn_types: Vec<TxnTypeId>) -> Self {
        CcNodeSpec {
            kind,
            label: label.to_string(),
            children: Vec::new(),
            txn_types,
            instance_partitions: 1,
        }
    }

    /// A leaf split by instance into `partitions` copies.
    pub fn leaf_by_instance(
        kind: CcKind,
        label: &str,
        txn_types: Vec<TxnTypeId>,
        partitions: u32,
    ) -> Self {
        let mut node = CcNodeSpec::leaf(kind, label, txn_types);
        node.instance_partitions = partitions.max(1);
        node
    }

    /// An inner node federating the given children.
    pub fn inner(kind: CcKind, label: &str, children: Vec<CcNodeSpec>) -> Self {
        CcNodeSpec {
            kind,
            label: label.to_string(),
            children,
            txn_types: Vec::new(),
            instance_partitions: 1,
        }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// All transaction types in this subtree.
    pub fn all_types(&self) -> Vec<TxnTypeId> {
        let mut out = self.txn_types.clone();
        for child in &self.children {
            out.extend(child.all_types());
        }
        out
    }

    /// Depth of the subtree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    fn describe_into(&self, indent: usize, out: &mut String) {
        out.push_str(&"  ".repeat(indent));
        out.push_str(self.kind.name());
        if !self.label.is_empty() {
            out.push_str(&format!(" [{}]", self.label));
        }
        if !self.txn_types.is_empty() {
            let tys: Vec<String> = self.txn_types.iter().map(|t| format!("{t:?}")).collect();
            out.push_str(&format!(" {{{}}}", tys.join(", ")));
        }
        if self.instance_partitions > 1 {
            out.push_str(&format!(" x{}", self.instance_partitions));
        }
        out.push('\n');
        for child in &self.children {
            child.describe_into(indent + 1, out);
        }
    }
}

/// A complete CC-tree specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CcTreeSpec {
    /// The root node.
    pub root: CcNodeSpec,
}

impl CcTreeSpec {
    /// Wraps a root node.
    pub fn new(root: CcNodeSpec) -> Self {
        CcTreeSpec { root }
    }

    /// A single-group, single-mechanism ("monolithic") configuration.
    pub fn monolithic(kind: CcKind, txn_types: Vec<TxnTypeId>) -> Self {
        CcTreeSpec::new(CcNodeSpec::leaf(kind, "all", txn_types))
    }

    /// All transaction types covered by the spec.
    pub fn types(&self) -> Vec<TxnTypeId> {
        self.root.all_types()
    }

    /// Number of tree levels.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Checks structural well-formedness: every type appears exactly once,
    /// inner nodes have at least one child, leaf nodes have at least one
    /// type, TSO runs only at leaves (see [`tso`](crate::tso)), and a root
    /// leaf is not split by instance: its copies would have no common
    /// ancestor to order their transactions against each other.
    pub fn validate(&self) -> Result<(), String> {
        if self.root.is_leaf() && self.root.instance_partitions > 1 {
            return Err(format!(
                "root leaf {:?} must not be split by instance",
                self.root.label
            ));
        }
        fn walk(node: &CcNodeSpec, seen: &mut HashSet<TxnTypeId>) -> Result<(), String> {
            if node.is_leaf() {
                if node.txn_types.is_empty() {
                    return Err(format!("leaf {:?} has no transaction types", node.label));
                }
            } else if !node.txn_types.is_empty() {
                return Err(format!(
                    "inner node {:?} must not own transaction types directly",
                    node.label
                ));
            } else if node.kind == CcKind::Tso {
                return Err(format!("TSO node {:?} must be a leaf", node.label));
            }
            for ty in &node.txn_types {
                if !seen.insert(*ty) {
                    return Err(format!(
                        "transaction type {ty:?} assigned to multiple groups"
                    ));
                }
            }
            for child in &node.children {
                walk(child, seen)?;
            }
            Ok(())
        }
        let mut seen = HashSet::new();
        walk(&self.root, &mut seen)?;
        if seen.is_empty() {
            return Err("configuration covers no transaction types".to_string());
        }
        Ok(())
    }

    /// A printable representation of the tree (for logs and experiments).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.root.describe_into(0, &mut out);
        out
    }
}

/// One step of a root→leaf execution path.
#[derive(Clone)]
pub struct PathEntry {
    /// Node id.
    pub node: NodeId,
    /// The mechanism instance at the node.
    pub mechanism: Arc<dyn CcMechanism>,
    /// The executing transaction's lane at this node.
    pub lane: Lane,
}

/// The runtime CC tree.
pub struct CcTree {
    spec: CcTreeSpec,
    nodes: Vec<Arc<dyn CcMechanism>>,
    /// Indexed by group id.
    paths: Vec<Vec<PathEntry>>,
    /// type → its groups, one per instance copy of its leaf.
    groups_of_type: HashMap<TxnTypeId, Vec<GroupId>>,
}

impl std::fmt::Debug for CcTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CcTree")
            .field("nodes", &self.nodes.len())
            .field("groups", &self.paths.len())
            .finish()
    }
}

/// Shared services needed to build a runtime tree.
#[derive(Clone)]
pub struct TreeServices {
    /// Transaction directory shared with the engine.
    pub registry: Arc<TxnRegistry>,
    /// Timestamp oracle shared with the engine.
    pub oracle: Arc<TsOracle>,
    /// Blocking-event sink.
    pub events: Arc<dyn EventSink>,
    /// Bound on internal waits.
    pub wait_timeout: Duration,
    /// Where the nodes count what they do (an SSI node's
    /// [`SsiCounters`]).
    pub metrics: Arc<MetricsRegistry>,
}

impl CcTree {
    /// Builds the runtime tree for `spec`: one mechanism per node of
    /// [`Topology::of`], in node-id order, and each group's path read off
    /// the parent links.
    pub fn build(
        spec: CcTreeSpec,
        procedures: &ProcedureSet,
        services: &TreeServices,
    ) -> Result<CcTree, String> {
        spec.validate()?;
        let (topology, spec_nodes) = Topology::of(&spec);
        let topology = Arc::new(topology);
        let mut nodes: Vec<Arc<dyn CcMechanism>> = Vec::new();
        for (id, at) in spec_nodes.iter().enumerate() {
            let node = NodeId(id as u32);
            let env = NodeEnv {
                node,
                registry: Arc::clone(&services.registry),
                topology: Arc::clone(&topology),
                events: Arc::clone(&services.events),
                oracle: Arc::clone(&services.oracle),
                wait_timeout: services.wait_timeout,
            };
            nodes.push(match at.kind {
                CcKind::TwoPl => Arc::new(TwoPl::new(env)),
                CcKind::NoCc => Arc::new(NoCc),
                CcKind::Tso => Arc::new(Tso::new(env)),
                CcKind::Rp => {
                    let types = at.all_types();
                    let infos: Vec<_> = types.iter().filter_map(|ty| procedures.get(*ty)).collect();
                    Arc::new(Rp::new(env, analyze(&infos)))
                }
                CcKind::Ssi => {
                    let children = topology.children(node);
                    let read_only_lanes: HashSet<u32> = (0..)
                        .zip(children)
                        .filter(|(_, c)| {
                            procedures.all_read_only(&spec_nodes[c.0 as usize].all_types())
                        })
                        .map(|(lane, _)| lane)
                        .collect();
                    // Read-only-root optimisation (§4.4.3): at the root with
                    // at most one update child subtree, batching is
                    // unnecessary.
                    let update_lanes = children.len() - read_only_lanes.len();
                    let config = if id == 0 && children.is_empty() {
                        SsiConfig::monolithic()
                    } else if id == 0 && update_lanes <= 1 {
                        SsiConfig::root_read_only(read_only_lanes)
                    } else {
                        SsiConfig {
                            read_only_lanes,
                            ..SsiConfig::default()
                        }
                    };
                    let counters = SsiCounters::registered(&services.metrics, node);
                    Arc::new(Ssi::new(env, config).with_counters(counters))
                }
            });
        }
        let mut paths = Vec::new();
        let mut groups_of_type: HashMap<TxnTypeId, Vec<GroupId>> = HashMap::new();
        for (id, leaf) in spec_nodes.iter().enumerate().filter(|(_, n)| n.is_leaf()) {
            let group = GroupId(paths.len() as u32);
            let mut path = Vec::new();
            let mut step = Some((NodeId(id as u32), Lane::Leaf));
            while let Some((node, lane)) = step {
                let mechanism = Arc::clone(&nodes[node.0 as usize]);
                path.push(PathEntry {
                    node,
                    mechanism,
                    lane,
                });
                step = topology.parent(node).map(|(p, c)| (p, Lane::Child(c)));
            }
            path.reverse();
            paths.push(path);
            for ty in &leaf.txn_types {
                groups_of_type.entry(*ty).or_default().push(group);
            }
        }
        Ok(CcTree {
            spec,
            nodes,
            paths,
            groups_of_type,
        })
    }

    /// The specification this tree was built from.
    pub fn spec(&self) -> &CcTreeSpec {
        &self.spec
    }

    /// The leaf group of an instance of `ty` whose partition key hashes to
    /// `instance_seed` (ignored when the leaf is not split by instance).
    pub fn group_for(&self, ty: TxnTypeId, instance_seed: u64) -> Option<GroupId> {
        let groups = self.groups_of_type(ty);
        (!groups.is_empty()).then(|| groups[(instance_seed as usize) % groups.len()])
    }

    /// All groups hosting a type.
    pub fn groups_of_type(&self, ty: TxnTypeId) -> &[GroupId] {
        self.groups_of_type.get(&ty).map_or(&[], |v| v.as_slice())
    }

    /// The root→leaf path of a group.
    pub fn path(&self, group: GroupId) -> Option<&[PathEntry]> {
        self.paths.get(group.0 as usize).map(|p| p.as_slice())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf groups.
    pub fn group_count(&self) -> usize {
        self.paths.len()
    }

    /// The smallest GC watermark across every mechanism in the tree.
    pub fn low_watermark(&self) -> tebaldi_storage::Timestamp {
        self.nodes
            .iter()
            .map(|mechanism| mechanism.low_watermark())
            .min()
            .unwrap_or(tebaldi_storage::Timestamp::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use crate::procinfo::{AccessMode, ProcedureInfo};
    use tebaldi_storage::TableId;

    fn procedures() -> ProcedureSet {
        let mut set = ProcedureSet::new();
        set.insert(ProcedureInfo::new(
            TxnTypeId(0),
            "update_a",
            vec![
                (TableId(0), AccessMode::Write),
                (TableId(1), AccessMode::Write),
            ],
        ));
        set.insert(ProcedureInfo::new(
            TxnTypeId(1),
            "update_b",
            vec![(TableId(1), AccessMode::Write)],
        ));
        set.insert(ProcedureInfo::new(
            TxnTypeId(2),
            "read_all",
            vec![
                (TableId(0), AccessMode::Read),
                (TableId(1), AccessMode::Read),
            ],
        ));
        set
    }

    fn services() -> TreeServices {
        TreeServices {
            registry: Arc::new(TxnRegistry::default()),
            oracle: Arc::new(TsOracle::new()),
            events: Arc::new(NullSink),
            wait_timeout: Duration::from_millis(50),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    fn three_layer_spec() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![
                CcNodeSpec::leaf(CcKind::NoCc, "readers", vec![TxnTypeId(2)]),
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "updates",
                    vec![
                        CcNodeSpec::leaf(CcKind::Rp, "a", vec![TxnTypeId(0)]),
                        CcNodeSpec::leaf(CcKind::TwoPl, "b", vec![TxnTypeId(1)]),
                    ],
                ),
            ],
        ))
    }

    #[test]
    fn spec_validation() {
        assert!(three_layer_spec().validate().is_ok());
        // Duplicate type.
        let bad = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::TwoPl,
            "root",
            vec![
                CcNodeSpec::leaf(CcKind::TwoPl, "a", vec![TxnTypeId(0)]),
                CcNodeSpec::leaf(CcKind::TwoPl, "b", vec![TxnTypeId(0)]),
            ],
        ));
        assert!(bad.validate().is_err());
        // Empty leaf.
        let empty = CcTreeSpec::new(CcNodeSpec::leaf(CcKind::TwoPl, "x", vec![]));
        assert!(empty.validate().is_err());
        assert_eq!(three_layer_spec().depth(), 3);
        assert!(three_layer_spec().describe().contains("SSI"));
    }

    #[test]
    fn spec_validation_rejects_an_inner_tso() {
        let leaf = |kind, ty| CcNodeSpec::leaf(kind, "leaf", vec![TxnTypeId(ty)]);
        let inner_tso = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Tso,
            "root",
            vec![leaf(CcKind::TwoPl, 0), leaf(CcKind::Rp, 1)],
        ));
        assert_eq!(
            inner_tso.validate(),
            Err("TSO node \"root\" must be a leaf".to_string())
        );
        assert!(CcTree::build(inner_tso, &procedures(), &services()).is_err());
        // The same leaves under 2PL, and TSO as a leaf, are fine.
        let tso_leaf = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::TwoPl,
            "root",
            vec![leaf(CcKind::Tso, 0), leaf(CcKind::Rp, 1)],
        ));
        assert!(tso_leaf.validate().is_ok());
    }

    /// The copies of a root leaf split by instance would each be a tree of
    /// their own: two TSO copies could both install an uncommitted version
    /// of one key and both commit.
    #[test]
    fn spec_validation_rejects_a_root_leaf_split_by_instance() {
        let types = vec![TxnTypeId(0)];
        let split = CcTreeSpec::new(CcNodeSpec::leaf_by_instance(CcKind::Tso, "all", types, 2));
        assert_eq!(
            split.validate(),
            Err("root leaf \"all\" must not be split by instance".to_string())
        );
        assert!(CcTree::build(split, &procedures(), &services()).is_err());
        // One copy is the monolithic leaf, and a split leaf below the root
        // is fine.
        let one = CcNodeSpec::leaf_by_instance(CcKind::Tso, "all", vec![TxnTypeId(0)], 1);
        assert!(CcTreeSpec::new(one.clone()).validate().is_ok());
        let mut below = one;
        below.instance_partitions = 2;
        let inner = CcTreeSpec::new(CcNodeSpec::inner(CcKind::TwoPl, "root", vec![below]));
        assert!(inner.validate().is_ok());
    }

    #[test]
    fn build_three_layer_tree() {
        let tree = CcTree::build(three_layer_spec(), &procedures(), &services()).unwrap();
        assert_eq!(tree.group_count(), 3);
        assert_eq!(tree.node_count(), 5);
        // Path of the RP group: SSI root -> 2PL inner -> RP leaf.
        let g = tree.group_for(TxnTypeId(0), 0).unwrap();
        let path = tree.path(g).unwrap();
        assert_eq!(path.len(), 3);
        let root = &tree.spec().root;
        assert_eq!(root.kind, CcKind::Ssi);
        assert_eq!(root.children[1].kind, CcKind::TwoPl);
        assert_eq!(root.children[1].children[0].kind, CcKind::Rp);
        assert_eq!(path[2].lane, Lane::Leaf);
        // The readers sit right below the root, in a lane of their own;
        // both update groups share the root's other lane and the 2PL node.
        let readers = tree.path(tree.group_for(TxnTypeId(2), 0).unwrap()).unwrap();
        let b = tree.path(tree.group_for(TxnTypeId(1), 0).unwrap()).unwrap();
        assert_eq!(readers.len(), 2);
        assert_eq!(readers[0].node, path[0].node);
        assert_eq!(b[0].lane, path[0].lane);
        assert_ne!(readers[0].lane, path[0].lane);
        assert_eq!(b[1].node, path[1].node);
        assert_ne!(b[1].lane, path[1].lane);
    }

    /// The path of Table 4.1's "RP - RP" tree (`OverheadMicro::layered`):
    /// an RP node above an RP leaf. A transaction's step at one says
    /// nothing of its step at the other.
    #[test]
    fn steps_at_two_rp_nodes_on_one_path_are_independent() {
        use crate::mechanism::{Access, TxnCtx};
        use crate::{CcError, WaitLabel};
        use tebaldi_storage::{Key, TableId, TxnId};
        let spec = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Rp,
            "overhead",
            vec![CcNodeSpec::leaf(CcKind::Rp, "rp", vec![TxnTypeId(0)])],
        ));
        let services = services();
        let tree = CcTree::build(spec, &procedures(), &services).unwrap();
        let [inner, leaf] = tree.path(tree.group_for(TxnTypeId(0), 0).unwrap()).unwrap() else {
            panic!("a two-node path");
        };
        for id in 1..=3 {
            services.registry.register(TxnId(id), TxnTypeId(0));
        }
        // Table 1 is step 1 of `update_a` at both nodes.
        let enter_step_1 = |at: &PathEntry, ctx: &mut TxnCtx| {
            let key = Key::simple(TableId(1), ctx.txn.0);
            at.mechanism
                .before_access(ctx, at.lane, &key, Access::Write)
        };
        let trailer = |id| {
            let mut ctx = TxnCtx::new(TxnId(id), TxnTypeId(0), GroupId(0));
            ctx.rp_trails = vec![(inner.node, TxnId(1)), (leaf.node, TxnId(1))];
            ctx
        };
        // T1 enters step 1 at the leaf only.
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        enter_step_1(leaf, &mut t1).unwrap();
        assert_eq!(t1.rp_steps, vec![(leaf.node, 1)]);
        // T2, trailing T1 at both nodes, follows it at the leaf at once and
        // waits at the inner node, where T1 is still in step 0.
        let mut t2 = trailer(2);
        enter_step_1(leaf, &mut t2).unwrap();
        assert_eq!(
            enter_step_1(inner, &mut t2),
            Err(CcError::Timeout(WaitLabel::PipelineStep))
        );
        // Once T1 enters step 1 at the inner node too, a trailer passes both.
        enter_step_1(inner, &mut t1).unwrap();
        let mut t3 = trailer(3);
        enter_step_1(inner, &mut t3).unwrap();
        enter_step_1(leaf, &mut t3).unwrap();
    }

    #[test]
    fn instance_partitioned_leaf_expands_into_copies() {
        let spec = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::TwoPl,
            "root",
            vec![CcNodeSpec::leaf_by_instance(
                CcKind::Tso,
                "per_flight",
                vec![TxnTypeId(0), TxnTypeId(1)],
                4,
            )],
        ));
        let tree = CcTree::build(spec, &procedures(), &services()).unwrap();
        assert_eq!(tree.group_count(), 4);
        assert_eq!(tree.groups_of_type(TxnTypeId(0)).len(), 4);
        // Instances with different seeds can land in different groups.
        let g0 = tree.group_for(TxnTypeId(0), 0).unwrap();
        let g1 = tree.group_for(TxnTypeId(0), 1).unwrap();
        assert_ne!(g0, g1);
        // Deterministic assignment for the same seed.
        assert_eq!(tree.group_for(TxnTypeId(0), 1), Some(g1));
    }

    #[test]
    fn monolithic_spec_builds_single_node() {
        let spec = CcTreeSpec::monolithic(CcKind::TwoPl, vec![TxnTypeId(0), TxnTypeId(1)]);
        let tree = CcTree::build(spec, &procedures(), &services()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.group_count(), 1);
        let g = tree.group_for(TxnTypeId(1), 7).unwrap();
        assert_eq!(tree.path(g).unwrap().len(), 1);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = three_layer_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: CcTreeSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
