//! The four-phase concurrency-control mechanism interface (§4.3.1).
//!
//! Tebaldi observes that most CC protocols determine the ordering of a
//! transaction in four phases — start, execution, validation, commit — and
//! runs every phase in two passes over the transaction's root→leaf path:
//! a **top-down** pass where parents constrain their children (blocking or
//! aborting operations, assigning timestamps/batches) and a **bottom-up**
//! pass where children propose read versions and report dependency sets.
//!
//! [`CcMechanism`] is that interface. The engine (in `tebaldi-core`) owns
//! the passes; mechanisms only implement their per-phase logic and remain
//! unaware of each other, which is what preserves MCC's modularity.

use crate::error::CcResult;
use crate::events::EventSink;
use crate::oracle::TsOracle;
use crate::registry::TxnRegistry;
use crate::topology::Topology;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use tebaldi_storage::{Chain, GroupId, Key, NodeId, Timestamp, TxnId, TxnTypeId, Value, Version};

/// How a transaction relates to the node whose mechanism is being invoked,
/// one per node of its root→leaf path. A `Lane` is passed to every
/// mechanism call so the same mechanism instance can serve both as an inner
/// node (conflicts between *child subtrees*) and as a leaf (conflicts
/// between *individual transactions*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// At a non-leaf node the transaction belongs to the `i`-th child
    /// subtree.
    Child(u32),
    /// At its leaf node the transaction is an individual member of the
    /// group.
    Leaf,
}

impl Lane {
    /// A numeric lane used by lock tables: transactions in the same child
    /// subtree share a lane (their conflicts are delegated to the child);
    /// at a leaf every transaction gets its own lane.
    pub fn lock_lane(&self, txn: TxnId) -> u64 {
        match self {
            Lane::Child(c) => *c as u64,
            Lane::Leaf => (1u64 << 63) | txn.0,
        }
    }
}

/// What an operation does to its key: the intent the top-down pass of the
/// execution phase acts on ([`CcMechanism::before_access`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// A read.
    Read,
    /// A blind write (or delete).
    Write,
    /// A read-modify-write: the read and the write of one key as one
    /// operation. Its write intent is declared before the read, so a
    /// mechanism that orders writes more strictly than reads takes the
    /// stricter order at once instead of upgrading after the read (two
    /// readers that both upgrade deadlock).
    Update,
}

impl Access {
    /// Whether the operation reads the key.
    pub fn reads(self) -> bool {
        self != Access::Write
    }

    /// Whether the operation may write the key.
    pub fn writes(self) -> bool {
        self != Access::Read
    }
}

/// A candidate version proposed during the bottom-up read pass.
#[derive(Clone, Debug, PartialEq)]
pub struct VersionPick {
    /// Transaction that wrote the candidate.
    pub writer: TxnId,
    /// The writer's leaf group ([`Version::group`](tebaldi_storage::Version::group)).
    pub group: GroupId,
    /// The candidate value.
    pub value: Value,
    /// Whether the writer had committed at proposal time.
    pub committed: bool,
    /// Commit timestamp when committed.
    pub commit_ts: Option<Timestamp>,
}

impl VersionPick {
    /// Builds a pick from a stored version.
    pub fn from_version(v: &tebaldi_storage::Version) -> VersionPick {
        VersionPick {
            writer: v.writer,
            group: v.group,
            value: v.value.clone(),
            committed: v.is_committed(),
            commit_ts: v.commit_ts(),
        }
    }
}

/// Per-transaction context threaded through every phase.
///
/// Owned by the executing client thread: what the transaction's own calls
/// need. What *other* transactions read of it (status, type, RP step) is on
/// its [`TxnRegistry`] entry; per-key state sits in the mechanisms.
#[derive(Clone, Debug)]
pub struct TxnCtx {
    /// Transaction id.
    pub txn: TxnId,
    /// Static type.
    pub ty: TxnTypeId,
    /// Leaf group the instance was assigned to.
    pub group: GroupId,
    /// Dependency set: transactions that must commit before this one
    /// (read-from and pipeline-order dependencies), reported bottom-up.
    pub deps: HashSet<TxnId>,
    /// Ordering-only dependencies: transactions that must *finish* (commit
    /// or abort) before this one commits so a parent CC never observes an
    /// order contradicting the child's (e.g. TSO's smaller-timestamp
    /// transactions, §4.4.4). Unlike `deps`, an aborted ordering dependency
    /// does not force this transaction to abort.
    pub order_deps: HashSet<TxnId>,
    /// Keys written so far (needed for commit/abort in storage and for the
    /// write set of the transaction's commit record).
    pub write_keys: Vec<Key>,
    /// Its TSO timestamp, stamped by the `begin` of the (leaf-only, so at
    /// most one) TSO node on its path; the engine tags its versions with it.
    pub order_ts: Option<Timestamp>,
    /// Keys the transaction promises to write, set before the start phase
    /// (TSO promises, §4.4.4; the leaf's `begin` registers them).
    pub promised_keys: Vec<Key>,
    /// Set by a mechanism that wants the whole transaction aborted even if
    /// the current call cannot return an error (e.g. pivot marking).
    pub must_abort: bool,
    /// The transaction's record at each SSI node of its path, pushed by
    /// that node's `begin` and dropped by its `finish` — so the node's
    /// calls on behalf of this transaction need no lookup in shared state.
    pub ssi: Vec<crate::ssi::SsiHandle>,
    /// Its step at each RP node where it step-committed, as `(node, step)`;
    /// the node publishes each on the registry entry for its trailers.
    pub rp_steps: Vec<(NodeId, usize)>,
    /// The transactions it trails in the pipeline of each RP node, as
    /// `(node, blocker)` pairs (§4.4.2's trailing rule).
    pub rp_trails: Vec<(NodeId, TxnId)>,
    /// Declared read-only: the engine sets it, before the start phase, from
    /// [`ProcedureInfo::read_only`](crate::ProcedureInfo::read_only) when
    /// the transaction runs whole on this database — never for one part of
    /// a distributed transaction, whose other parts may write. The engine
    /// refuses a write of such a transaction before anything of it runs.
    pub read_only: bool,
    /// Set by the engine while it picks the read of a read-modify-write,
    /// under the key's latch and after every `validate_write` of the write
    /// passed: a write installed under the same hold may follow. A
    /// mechanism that tracks readers for later writers (SSI's SIREAD table)
    /// may register nothing for such a read; when the update declines to
    /// write, the engine clears the flag and picks again, as a plain read,
    /// under the same hold.
    pub update_read: bool,
}

impl TxnCtx {
    /// Creates a fresh context.
    pub fn new(txn: TxnId, ty: TxnTypeId, group: GroupId) -> Self {
        TxnCtx {
            txn,
            ty,
            group,
            deps: HashSet::new(),
            order_deps: HashSet::new(),
            write_keys: Vec::new(),
            order_ts: None,
            promised_keys: Vec::new(),
            must_abort: false,
            ssi: Vec::new(),
            rp_steps: Vec::new(),
            rp_trails: Vec::new(),
            read_only: false,
            update_read: false,
        }
    }

    /// Records a dependency on another transaction (ignored for self and
    /// for the bootstrap loader).
    pub fn add_dep(&mut self, dep: TxnId) {
        if dep != self.txn && !dep.is_bootstrap() {
            self.deps.insert(dep);
        }
    }

    /// Records an ordering-only dependency (see [`TxnCtx::order_deps`]).
    pub fn add_order_dep(&mut self, dep: TxnId) {
        if dep != self.txn && !dep.is_bootstrap() {
            self.order_deps.insert(dep);
        }
    }
}

/// Shared services handed to each mechanism when the tree is built.
#[derive(Clone)]
pub struct NodeEnv {
    /// The CC-tree node this mechanism instance occupies.
    pub node: NodeId,
    /// Transaction directory.
    pub registry: Arc<TxnRegistry>,
    /// Static tree topology.
    pub topology: Arc<Topology>,
    /// Blocking-event sink (profiler).
    pub events: Arc<dyn EventSink>,
    /// Timestamp oracle.
    pub oracle: Arc<TsOracle>,
    /// Bound on every internal wait ([`cc::wait`](crate::wait)); doubles as
    /// deadlock resolution.
    pub wait_timeout: Duration,
}

impl std::fmt::Debug for NodeEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeEnv").field("node", &self.node).finish()
    }
}

impl NodeEnv {
    /// True when a version written in `group` (its
    /// [`group`](tebaldi_storage::Version::group)) belongs to the same
    /// "group" as a transaction on `lane` from this node's point of view:
    /// the same child subtree for an inner node, the node's own group for a
    /// leaf ([`Topology::same_group`]).
    pub fn same_group(&self, lane: Lane, group: GroupId) -> bool {
        self.topology.same_group(self.node, lane, group)
    }

    /// True when a version written in `group` comes from anywhere in this
    /// node's subtree.
    pub fn in_subtree(&self, group: GroupId) -> bool {
        self.topology.in_subtree(self.node, group)
    }
}

#[cfg(test)]
impl NodeEnv {
    /// The environment every unit test of this crate builds its mechanism
    /// on: node 0, no profiler, a fresh oracle. With `lanes == 0` node 0 is
    /// a leaf hosting group 0; otherwise it is the root over `lanes` leaves,
    /// lane `i` holding group `i`.
    pub(crate) fn for_test(
        lanes: u32,
        registry: Arc<TxnRegistry>,
        wait_timeout_ms: u64,
    ) -> NodeEnv {
        use crate::tree::{CcNodeSpec, CcTreeSpec};
        let leaf = |ty| CcNodeSpec::leaf(CcKind::NoCc, "", vec![TxnTypeId(ty)]);
        let root = match lanes {
            0 => leaf(0),
            _ => CcNodeSpec::inner(CcKind::NoCc, "", (0..lanes).map(leaf).collect()),
        };
        NodeEnv {
            node: NodeId(0),
            registry,
            topology: Arc::new(Topology::of(&CcTreeSpec::new(root)).0),
            events: Arc::new(crate::events::NullSink),
            oracle: Arc::new(TsOracle::new()),
            wait_timeout: Duration::from_millis(wait_timeout_ms),
        }
    }
}

/// What `cc` alone makes of a read of `key` by `ctx`, on the key's real chain
/// in `store` (the unit tests' one-node stand-in for `Txn::get`).
#[cfg(test)]
pub(crate) fn read_at(
    cc: &dyn CcMechanism,
    store: &tebaldi_storage::MvStore,
    ctx: &mut TxnCtx,
    lane: Lane,
    key: Key,
) -> Option<VersionPick> {
    store.with_chain(&key, |chain| {
        cc.choose_version(ctx, lane, &key, None, chain)
    })
}

/// The read rule of every node (§4.2.1, consistent ordering) — the one place
/// that decides which version a read sees.
///
/// A node judges only the versions written inside its own group; a write from
/// outside the group is visible to it once the parent has ordered it, i.e.
/// once it is committed. So: the child's `candidate` stands when `accept`
/// says so; otherwise the read sees the newest version by chain position that
/// is either in-group and visible under the mechanism's own rule (`judge`
/// returns `Some(visible)`) or foreign (`judge` returns `None`) and
/// committed; a chain with no such version leaves the candidate as it was.
///
/// A mechanism is its two closures. 2PL judges nothing (`None` throughout:
/// the newest committed version), RP shows every version of its subtree, TSO
/// shows an in-group version stamped at or below the reader, `NoCc` and the
/// trait default accept any candidate.
///
/// [`Ssi`](crate::ssi::Ssi) does not come through here: it reads the newest
/// version committed at or before the reader's *snapshot*, not the newest by
/// position, and it must mark an anti-dependency on each newer version it
/// passes over, so its `choose_version` stays a separate rule.
pub fn visible_version(
    candidate: Option<VersionPick>,
    chain: &Chain<'_>,
    accept: impl FnOnce(&VersionPick) -> bool,
    mut judge: impl FnMut(&Version) -> Option<bool>,
) -> Option<VersionPick> {
    if candidate.as_ref().is_some_and(accept) {
        return candidate;
    }
    chain
        .iter()
        .find(|v| judge(v).unwrap_or_else(|| v.is_committed()))
        .map(VersionPick::from_version)
        .or(candidate)
}

/// Kinds of supported mechanisms; also the unit of configuration used by
/// tree specifications and the automatic configurator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CcKind {
    /// Two-phase locking (with nexus-lock group awareness).
    TwoPl,
    /// Runtime pipelining.
    Rp,
    /// Serializable snapshot isolation.
    Ssi,
    /// Multiversion timestamp ordering.
    Tso,
    /// No concurrency control (read-only groups).
    NoCc,
}

impl CcKind {
    /// Short display name.
    pub const fn name(self) -> &'static str {
        match self {
            CcKind::TwoPl => "2PL",
            CcKind::Rp => "RP",
            CcKind::Ssi => "SSI",
            CcKind::Tso => "TSO",
            CcKind::NoCc => "NoCC",
        }
    }

    /// Whether the mechanism is designed to cope with heavy data contention
    /// (used by the optimizer's candidate filter, §5.4.1).
    pub fn optimizes_contention(self) -> bool {
        matches!(self, CcKind::Rp | CcKind::Ssi | CcKind::Tso)
    }

    /// Whether the mechanism can serve as an inner (cross-group) node while
    /// enforcing consistent ordering efficiently (§4.4, §5.4.1). TSO needs
    /// batching that makes it a poor inner node; it is most efficient as a
    /// leaf.
    pub fn efficient_inner(self) -> bool {
        matches!(self, CcKind::TwoPl | CcKind::Rp | CcKind::Ssi)
    }
}

/// The four-phase mechanism interface.
///
/// Default implementations are no-ops so trivial mechanisms (e.g.
/// [`NoCc`](crate::nocc::NoCc)) only override what they need.
pub trait CcMechanism: Send + Sync {
    /// Start phase, top-down pass.
    fn begin(&self, _ctx: &mut TxnCtx, _lane: Lane) -> CcResult<()> {
        Ok(())
    }

    /// Execution phase, top-down pass, before an operation on `key` that
    /// reads it, writes it, or both ([`Access`]): locks, pipeline steps,
    /// promise waits. A read-modify-write comes here once, as
    /// [`Access::Update`], before anything of it touches the chain.
    fn before_access(
        &self,
        _ctx: &mut TxnCtx,
        _lane: Lane,
        _key: &Key,
        _access: Access,
    ) -> CcResult<()> {
        Ok(())
    }

    /// Execution phase, bottom-up pass: amend the read candidate proposed by
    /// the child (or propose one when `candidate` is `None`). The chain is
    /// the full version history of `key`. Every mechanism but SSI is a call
    /// into [`visible_version`]; the default accepts any candidate and
    /// otherwise proposes the newest committed version.
    fn choose_version(
        &self,
        _ctx: &mut TxnCtx,
        _lane: Lane,
        _key: &Key,
        candidate: Option<VersionPick>,
        chain: &Chain<'_>,
    ) -> Option<VersionPick> {
        visible_version(candidate, chain, |_| true, |_| None)
    }

    /// Execution phase: called with the key's version chain right before the
    /// engine installs a write, under the key's latch. Mechanisms that abort
    /// on write-write overlap (SSI's first-committer-wins) check here, before
    /// any `after_write` of the same write has run. A read-modify-write runs
    /// it before its read, under the same hold of the latch as the read and
    /// the install: a write-write loser is decided before it reads anything.
    fn validate_write(
        &self,
        _ctx: &mut TxnCtx,
        _lane: Lane,
        _key: &Key,
        _chain: &Chain<'_>,
    ) -> CcResult<()> {
        Ok(())
    }

    /// Execution phase: called after the engine installed a write of `key`
    /// and released the key's latch. Checks that must see every reader that
    /// could have missed the new version (SSI's reader scan, TSO's re-check
    /// of the reader rule) run here: a reader either registered before this
    /// call or walks a chain that already holds the version. An error
    /// aborts the transaction; the installed version is already in its
    /// write set and is discarded with the rest.
    fn after_write(&self, _ctx: &mut TxnCtx, _lane: Lane, _key: &Key) -> CcResult<()> {
        Ok(())
    }

    /// Validation phase: decide whether the transaction may commit. The
    /// engine separately waits for the transaction's dependency set, so
    /// mechanisms only check their own conditions here.
    fn validate(&self, _ctx: &mut TxnCtx, _lane: Lane) -> CcResult<()> {
        Ok(())
    }

    /// Marks the transaction *prepared* for cross-shard two-phase commit:
    /// after this returns `Ok`, the mechanism guarantees the transaction can
    /// commit no matter what concurrent transactions do (a stable yes-vote).
    /// Mechanisms that mark other transactions for death after their
    /// validation (SSI's pivot dooming) must re-check here and then protect
    /// the transaction — conflicting transactions discovered later abort
    /// themselves instead. Lock-based mechanisms are stable by construction
    /// and keep the default.
    ///
    /// A hook of its own, not part of [`validate`](CcMechanism::validate):
    /// the engine's dependency wait runs between the two. `validate` must
    /// run before it — TSO's feeds it the `order_deps` — and this one after
    /// it: the vote is stable only once nothing, that wait included, can
    /// still abort the transaction.
    fn mark_prepared(&self, _ctx: &mut TxnCtx, _lane: Lane) -> CcResult<()> {
        Ok(())
    }

    /// Commit phase (chained leaf→root) or abort notification: the
    /// transaction is over and the mechanism must release every resource
    /// held on its behalf. `outcome` is the commit timestamp — the versions
    /// have already been marked committed in storage — or `None` for an
    /// abort.
    fn finish(&self, _ctx: &mut TxnCtx, _lane: Lane, _outcome: Option<Timestamp>) {}

    /// GC low watermark: the smallest timestamp this mechanism may still
    /// need to read at or after (§4.5.3). `Timestamp::MAX` means "no
    /// constraint". The GC cycle is its one caller, so an implementation
    /// may also drop state there that nothing at or after the watermark
    /// can need (TSO prunes its read timestamps).
    fn low_watermark(&self) -> Timestamp {
        Timestamp::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_lock_lanes_do_not_collide() {
        let child = Lane::Child(3);
        let leaf = Lane::Leaf;
        assert_eq!(child.lock_lane(TxnId(3)), 3);
        assert_ne!(leaf.lock_lane(TxnId(3)), 3);
        assert_ne!(leaf.lock_lane(TxnId(3)), leaf.lock_lane(TxnId(4)));
    }

    #[test]
    fn ctx_dep_tracking_ignores_self_and_bootstrap() {
        let mut ctx = TxnCtx::new(TxnId(5), TxnTypeId(0), GroupId(0));
        ctx.add_dep(TxnId(5));
        ctx.add_dep(TxnId::BOOTSTRAP);
        ctx.add_dep(TxnId(7));
        assert_eq!(ctx.deps.len(), 1);
        assert!(ctx.deps.contains(&TxnId(7)));
    }

    /// A node reads a writer's group off its version, so dropping the
    /// finished writers from the directory changes no answer. For 2PL, RP
    /// and TSO at the leaf of group 0 and SSI at an inner node, a reader of
    /// group 0 reads (on its own and on the candidate of its group's newest
    /// write) and validates a write. The chain holds a sibling group's
    /// version, committed before the reader began, and its own group's,
    /// stamped (under TSO) and committed after. Compaction then forgets
    /// both writers, and every answer stands.
    #[test]
    fn compaction_changes_no_answer() {
        use crate::ssi::{Ssi, SsiConfig};
        use crate::{rp::Rp, tso::Tso, twopl::TwoPl};
        use tebaldi_storage::{MvStore, TableId};
        let key = Key::simple(TableId(0), 1);
        for kind in [CcKind::TwoPl, CcKind::Rp, CcKind::Tso, CcKind::Ssi] {
            let registry = Arc::new(TxnRegistry::default());
            let (lanes, lane) = match kind {
                CcKind::Ssi => (2, Lane::Child(0)),
                _ => (0, Lane::Leaf),
            };
            let env = NodeEnv::for_test(lanes, Arc::clone(&registry), 20);
            let oracle = Arc::clone(&env.oracle);
            let cc: Box<dyn CcMechanism> = match kind {
                CcKind::TwoPl => Box::new(TwoPl::new(env)),
                CcKind::Rp => Box::new(Rp::new(env, Default::default())),
                CcKind::Tso => Box::new(Tso::new(env)),
                _ => Box::new(Ssi::new(env, SsiConfig::default())),
            };
            let store = MvStore::new(1);
            store.load(&key, Value::Int(0));
            let commit = |writer: u64, group: GroupId| {
                registry.register(TxnId(writer), TxnTypeId(0));
                let order_ts = (kind == CcKind::Tso).then(|| oracle.issue());
                let version = Version::uncommitted(group, TxnId(writer), Value::Int(1), order_ts);
                store.with_chain_mut(&key, |chain| chain.install(version));
                let ts = oracle.issue();
                store.commit_writes(TxnId(writer), &[key], ts);
                registry.mark_committed(TxnId(writer), ts);
            };
            commit(9, GroupId(1));
            let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
            cc.begin(&mut reader, lane).unwrap();
            commit(1, GroupId(0));
            let mut answer = || {
                let newest =
                    store.with_chain(&key, |c| c.iter().next().map(VersionPick::from_version));
                let picks = [None, newest].map(|candidate| {
                    let pick = store.with_chain(&key, |chain| {
                        cc.choose_version(&mut reader, lane, &key, candidate, chain)
                    });
                    pick.map(|p| p.writer)
                });
                let write = store.with_chain_mut(&key, |chain| {
                    cc.validate_write(&mut reader, lane, &key, chain)
                });
                (picks, write)
            };
            let registered = answer();
            assert_eq!(registry.compact(), 2, "{kind:?}");
            assert_eq!(registry.type_of(TxnId(1)), None, "{kind:?}");
            assert_eq!(answer(), registered, "{kind:?}");
        }
    }

    #[test]
    fn cc_kind_properties() {
        assert!(CcKind::Ssi.optimizes_contention());
        assert!(!CcKind::TwoPl.optimizes_contention());
        assert!(!CcKind::Tso.efficient_inner());
        assert_eq!(CcKind::Rp.name(), "RP");
    }
}
