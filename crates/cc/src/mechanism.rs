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
use crate::topology::{LaneSel, Topology};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use tebaldi_storage::{Chain, GroupId, Key, NodeId, Timestamp, TxnId, TxnTypeId, Value, Version};

/// The relation between the executing transaction and the node whose
/// mechanism is being invoked (see [`LaneSel`]). A `Lane` is passed to every
/// mechanism call so the same mechanism instance can serve both as an inner
/// node (conflicts between *child subtrees*) and as a leaf (conflicts
/// between *individual transactions*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane {
    /// Static selector (child index or leaf membership).
    pub sel: LaneSel,
}

impl Lane {
    /// Lane of a transaction that belongs to the `idx`-th child subtree.
    pub fn child(idx: u32) -> Lane {
        Lane {
            sel: LaneSel::Child(idx),
        }
    }

    /// Lane of a transaction directly owned by a leaf node.
    pub fn leaf() -> Lane {
        Lane { sel: LaneSel::Leaf }
    }

    /// A numeric lane used by lock tables: transactions in the same child
    /// subtree share a lane (their conflicts are delegated to the child);
    /// at a leaf every transaction gets its own lane.
    pub fn lock_lane(&self, txn: TxnId) -> u64 {
        match self.sel {
            LaneSel::Child(c) => c as u64,
            LaneSel::Leaf => (1u64 << 63) | txn.0,
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
            value: v.value.clone(),
            committed: v.is_committed(),
            commit_ts: v.commit_ts(),
        }
    }
}

/// Per-transaction context threaded through every phase.
///
/// The context is owned by the executing client thread; mechanisms keep any
/// *shared* state (lock tables, read timestamps, batches) in their own
/// structures keyed by [`TxnId`].
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
    /// durability precommit record).
    pub write_keys: Vec<Key>,
    /// Ordering timestamp assigned by a timestamp-ordering mechanism at
    /// start time; the engine tags installed versions with it.
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
    /// The leaf group of another transaction, when still known.
    pub fn group_of(&self, txn: TxnId) -> Option<GroupId> {
        self.registry.group_of(txn)
    }

    /// True when `writer` belongs to the same "group" as a transaction on
    /// `lane` from this node's point of view: the same child subtree for an
    /// inner node, the node's own group for a leaf.
    pub fn same_group(&self, lane: Lane, writer: TxnId) -> bool {
        let Some(writer_group) = self.group_of(writer) else {
            return false;
        };
        match lane.sel {
            LaneSel::Child(c) => self.topology.child_lane(self.node, writer_group) == Some(c),
            LaneSel::Leaf => self.topology.leaf_group(self.node) == Some(writer_group),
        }
    }

    /// True when `writer` is anywhere in this node's subtree.
    pub fn in_subtree(&self, writer: TxnId) -> bool {
        self.group_of(writer)
            .map(|g| self.topology.in_subtree(self.node, g))
            .unwrap_or(false)
    }
}

#[cfg(test)]
impl NodeEnv {
    /// The environment every unit test of this crate builds its mechanism
    /// on: node 0, no profiler, a fresh oracle.
    pub(crate) fn for_test(
        topology: Topology,
        registry: Arc<TxnRegistry>,
        wait_timeout_ms: u64,
    ) -> NodeEnv {
        NodeEnv {
            node: NodeId(0),
            registry,
            topology: Arc::new(topology),
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
    /// constraint".
    fn low_watermark(&self) -> Timestamp {
        Timestamp::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_lock_lanes_do_not_collide() {
        let child = Lane::child(3);
        let leaf = Lane::leaf();
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

    #[test]
    fn cc_kind_properties() {
        assert!(CcKind::Ssi.optimizes_contention());
        assert!(!CcKind::TwoPl.optimizes_contention());
        assert!(!CcKind::Tso.efficient_inner());
        assert_eq!(CcKind::Rp.name(), "RP");
    }
}
