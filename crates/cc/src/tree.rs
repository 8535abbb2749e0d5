//! CC-tree specifications and the runtime tree.
//!
//! A [`CcTreeSpec`] is the *configuration* of hierarchical MCC: which
//! mechanism runs at every node, how transaction types are partitioned into
//! leaf groups, and whether a leaf is further split by instance
//! (partition-by-instance, §5.4.2). Specifications are plain serializable
//! data so the automatic configurator can generate, compare and persist
//! them.
//!
//! [`CcTree::build`] turns a specification into a runtime tree: one
//! mechanism instance per node, a root→leaf path (with lanes) per leaf
//! group, and the static [`Topology`] every mechanism consults for
//! subtree-membership questions. Building also runs the CC-specific
//! preprocessing of §5.4.2: runtime pipelining's static analysis and SSI's
//! read-only-lane / batching decision.

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
    /// type, and TSO runs only at leaves (see [`tso`](crate::tso)).
    pub fn validate(&self) -> Result<(), String> {
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

/// Assignment of transaction instances to leaf groups.
#[derive(Clone, Debug, Default)]
pub struct GroupMap {
    /// type → groups (one entry per instance partition).
    by_type: HashMap<TxnTypeId, Vec<GroupId>>,
}

impl GroupMap {
    /// The leaf group of an instance of `ty` whose partition key hashes to
    /// `instance_seed` (ignored when the leaf is not instance-partitioned).
    pub fn group_for(&self, ty: TxnTypeId, instance_seed: u64) -> Option<GroupId> {
        let groups = self.by_type.get(&ty)?;
        if groups.is_empty() {
            return None;
        }
        Some(groups[(instance_seed as usize) % groups.len()])
    }

    /// All groups hosting instances of `ty`.
    pub fn groups_of_type(&self, ty: TxnTypeId) -> &[GroupId] {
        self.by_type.get(&ty).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All registered types.
    pub fn types(&self) -> Vec<TxnTypeId> {
        let mut tys: Vec<TxnTypeId> = self.by_type.keys().copied().collect();
        tys.sort_unstable();
        tys
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
    paths: HashMap<GroupId, Vec<PathEntry>>,
    group_map: GroupMap,
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
    /// [`SsiCounters`](crate::ssi::SsiCounters)).
    pub metrics: Arc<MetricsRegistry>,
}

impl CcTree {
    /// Builds the runtime tree for `spec`.
    pub fn build(
        spec: CcTreeSpec,
        procedures: &ProcedureSet,
        services: &TreeServices,
    ) -> Result<CcTree, String> {
        spec.validate()?;

        // Pass 1: assign node ids and group ids, record topology and lanes.
        struct FlatLeaf {
            node: NodeId,
            group: GroupId,
            kind: CcKind,
            types: Vec<TxnTypeId>,
            /// (ancestor node, child index at that ancestor), root first.
            ancestors: Vec<(NodeId, u32)>,
        }
        struct FlatInner {
            node: NodeId,
            kind: CcKind,
            /// Types in this node's subtree (for RP analysis).
            subtree_types: Vec<TxnTypeId>,
            /// Child lanes whose subtree is entirely read-only (for SSI).
            read_only_lanes: HashSet<u32>,
            /// Number of children (after instance-partition expansion).
            child_count: u32,
            is_root: bool,
        }

        let mut topology = Topology::new();
        let mut leaves: Vec<FlatLeaf> = Vec::new();
        let mut inners: Vec<FlatInner> = Vec::new();
        let mut next_node: u32 = 0;
        let mut next_group: u32 = 0;

        // Recursive expansion. Returns the list of groups in the subtree.
        #[allow(clippy::too_many_arguments)]
        fn expand(
            spec_node: &CcNodeSpec,
            ancestors: &[(NodeId, u32)],
            is_root: bool,
            procedures: &ProcedureSet,
            topology: &mut Topology,
            leaves: &mut Vec<FlatLeaf>,
            inners: &mut Vec<FlatInner>,
            next_node: &mut u32,
            next_group: &mut u32,
        ) -> Vec<GroupId> {
            if spec_node.is_leaf() {
                let mut groups = Vec::new();
                for _ in 0..spec_node.instance_partitions.max(1) {
                    let node = NodeId(*next_node);
                    *next_node += 1;
                    let group = GroupId(*next_group);
                    *next_group += 1;
                    topology.record_leaf(node, group);
                    for (anc, lane) in ancestors {
                        topology.record_child(*anc, group, *lane);
                    }
                    leaves.push(FlatLeaf {
                        node,
                        group,
                        kind: spec_node.kind,
                        types: spec_node.txn_types.clone(),
                        ancestors: ancestors.to_vec(),
                    });
                    groups.push(group);
                }
                groups
            } else {
                let node = NodeId(*next_node);
                *next_node += 1;
                let mut all_groups = Vec::new();
                let mut read_only_lanes = HashSet::new();
                let mut child_count = 0u32;
                for child in &spec_node.children {
                    // A leaf with instance partitions expands into several
                    // sibling copies; each copy is its own lane.
                    let copies = if child.is_leaf() {
                        child.instance_partitions.max(1)
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        let lane = child_count;
                        child_count += 1;
                        let mut anc = ancestors.to_vec();
                        anc.push((node, lane));
                        let child_groups = if child.is_leaf() {
                            // Expand exactly one copy at a time.
                            let mut single = child.clone();
                            single.instance_partitions = 1;
                            expand(
                                &single, &anc, false, procedures, topology, leaves, inners,
                                next_node, next_group,
                            )
                        } else {
                            expand(
                                child, &anc, false, procedures, topology, leaves, inners,
                                next_node, next_group,
                            )
                        };
                        if procedures.all_read_only(&child.all_types()) {
                            read_only_lanes.insert(lane);
                        }
                        all_groups.extend(child_groups);
                    }
                }
                inners.push(FlatInner {
                    node,
                    kind: spec_node.kind,
                    subtree_types: spec_node.all_types(),
                    read_only_lanes,
                    child_count,
                    is_root,
                });
                all_groups
            }
        }

        expand(
            &spec.root,
            &[],
            true,
            procedures,
            &mut topology,
            &mut leaves,
            &mut inners,
            &mut next_node,
            &mut next_group,
        );

        let topology = Arc::new(topology);

        // Pass 2: instantiate mechanisms.
        let make_env = |node: NodeId| NodeEnv {
            node,
            registry: Arc::clone(&services.registry),
            topology: Arc::clone(&topology),
            events: Arc::clone(&services.events),
            oracle: Arc::clone(&services.oracle),
            wait_timeout: services.wait_timeout,
        };
        let build_mechanism = |node: NodeId,
                               kind: CcKind,
                               subtree_types: &[TxnTypeId],
                               read_only_lanes: &HashSet<u32>,
                               is_root: bool,
                               child_count: u32|
         -> Result<Arc<dyn CcMechanism>, String> {
            Ok(match kind {
                CcKind::TwoPl => Arc::new(TwoPl::new(make_env(node))),
                CcKind::NoCc => Arc::new(NoCc),
                CcKind::Tso => Arc::new(Tso::new(make_env(node))),
                CcKind::Rp => {
                    let infos: Vec<&crate::procinfo::ProcedureInfo> = subtree_types
                        .iter()
                        .filter_map(|ty| procedures.get(*ty))
                        .collect();
                    Arc::new(Rp::new(make_env(node), analyze(&infos)))
                }
                CcKind::Ssi => {
                    // Read-only-root optimisation (§4.4.3): at the root with
                    // at most one update child subtree, batching is
                    // unnecessary.
                    let update_lanes = child_count.saturating_sub(read_only_lanes.len() as u32);
                    let config = if is_root && child_count == 0 {
                        SsiConfig::monolithic()
                    } else if is_root && update_lanes <= 1 {
                        SsiConfig::root_read_only(read_only_lanes.iter().copied())
                    } else {
                        SsiConfig {
                            batching: true,
                            read_only_lanes: read_only_lanes.clone(),
                            safe_snapshots: false,
                        }
                    };
                    let counters = SsiCounters::registered(&services.metrics, node);
                    Arc::new(Ssi::new(make_env(node), config).with_counters(counters))
                }
            })
        };

        let mut nodes: Vec<Arc<dyn CcMechanism>> = Vec::new();
        let mut mechanism_of: HashMap<NodeId, Arc<dyn CcMechanism>> = HashMap::new();
        for inner in &inners {
            let mech = build_mechanism(
                inner.node,
                inner.kind,
                &inner.subtree_types,
                &inner.read_only_lanes,
                inner.is_root,
                inner.child_count,
            )?;
            mechanism_of.insert(inner.node, Arc::clone(&mech));
            nodes.push(mech);
        }
        for leaf in &leaves {
            let mech = build_mechanism(
                leaf.node,
                leaf.kind,
                &leaf.types,
                &HashSet::new(),
                leaf.ancestors.is_empty(),
                0,
            )?;
            mechanism_of.insert(leaf.node, Arc::clone(&mech));
            nodes.push(mech);
        }

        // Pass 3: per-group paths and group map.
        let mut paths: HashMap<GroupId, Vec<PathEntry>> = HashMap::new();
        let mut by_type: HashMap<TxnTypeId, Vec<GroupId>> = HashMap::new();
        for leaf in &leaves {
            let mut path = Vec::new();
            for (anc, lane) in &leaf.ancestors {
                path.push(PathEntry {
                    node: *anc,
                    mechanism: Arc::clone(&mechanism_of[anc]),
                    lane: Lane::child(*lane),
                });
            }
            path.push(PathEntry {
                node: leaf.node,
                mechanism: Arc::clone(&mechanism_of[&leaf.node]),
                lane: Lane::leaf(),
            });
            paths.insert(leaf.group, path);
            for ty in &leaf.types {
                by_type.entry(*ty).or_default().push(leaf.group);
            }
        }

        Ok(CcTree {
            spec,
            nodes,
            paths,
            group_map: GroupMap { by_type },
        })
    }

    /// The specification this tree was built from.
    pub fn spec(&self) -> &CcTreeSpec {
        &self.spec
    }

    /// Group assignment for a transaction instance.
    pub fn group_for(&self, ty: TxnTypeId, instance_seed: u64) -> Option<GroupId> {
        self.group_map.group_for(ty, instance_seed)
    }

    /// All groups hosting a type.
    pub fn groups_of_type(&self, ty: TxnTypeId) -> &[GroupId] {
        self.group_map.groups_of_type(ty)
    }

    /// The root→leaf path of a group.
    pub fn path(&self, group: GroupId) -> Option<&[PathEntry]> {
        self.paths.get(&group).map(|p| p.as_slice())
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
        assert_eq!(path[2].lane, Lane::leaf());
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
