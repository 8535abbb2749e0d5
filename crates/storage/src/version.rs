//! Version chains.
//!
//! Tebaldi's storage module "keeps all the committed and uncommitted writes
//! on each object" (§4.3) so that both single-version and multiversion
//! concurrency controls can be composed. A [`VersionChain`] is the ordered
//! history of one key; the concurrency-control mechanisms decide *which*
//! version a read returns, storage only maintains the chain.

use crate::types::{Timestamp, TxnId};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique identifier of a version (diagnostics only).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct VersionId(pub u64);

/// Commit word of a version whose writer has not committed. No commit is
/// ever stamped with it ([`Timestamp::MAX`] is the "no constraint"
/// sentinel, never an issued timestamp).
const UNCOMMITTED: u64 = u64::MAX;

/// One version of one key.
///
/// The **payload** (`id`, `writer`, `value`, `order_ts`) never changes once
/// the version is linked into a chain. The **commit word** does, exactly
/// once: committing a version stores its HLC stamp and then its commit
/// timestamp into the version itself, in place. State and timestamp live in
/// one atomic word, so a reader that sees "committed" has the timestamp in
/// the same load, and — the word being stored `Release` after the stamp and
/// loaded `Acquire` — the stamp with it.
#[derive(Debug)]
pub struct Version {
    /// Diagnostics identifier, unique within the store.
    pub id: VersionId,
    /// Transaction that installed the version.
    pub writer: TxnId,
    /// The value; [`Value::Null`] models a delete.
    pub value: Value,
    /// Ordering timestamp used by timestamp-ordering CCs, assigned at write
    /// time (before commit). `None` for CCs that order at commit time.
    pub order_ts: Option<Timestamp>,
    /// [`UNCOMMITTED`], or the commit timestamp.
    commit: AtomicU64,
    /// Cluster-wide hybrid-logical-clock stamp assigned at commit. `0`
    /// means "unstamped" (bootstrap loads, pre-HLC recovered state, CC
    /// unit tests) and is visible to every snapshot. Unlike the commit
    /// timestamp — which is shard-local — equal stamps on different shards
    /// name the same global commit, which is what makes cross-shard
    /// snapshot reads consistent (see `tebaldi_core::hlc`).
    hlc: AtomicU64,
}

impl Version {
    /// A version as its writer installs it: not yet committed.
    pub fn uncommitted(
        id: VersionId,
        writer: TxnId,
        value: Value,
        order_ts: Option<Timestamp>,
    ) -> Version {
        Version {
            id,
            writer,
            value,
            order_ts,
            commit: AtomicU64::new(UNCOMMITTED),
            hlc: AtomicU64::new(0),
        }
    }

    /// A version born committed at `commit_ts`, unstamped (bootstrap loads).
    pub fn committed(id: VersionId, writer: TxnId, value: Value, commit_ts: Timestamp) -> Version {
        let v = Version::uncommitted(id, writer, value, None);
        v.mark_committed(commit_ts, 0);
        v
    }

    /// True if the writer has committed.
    #[inline]
    pub fn is_committed(&self) -> bool {
        self.commit.load(Ordering::Acquire) != UNCOMMITTED
    }

    /// Commit timestamp; `None` until the writer commits.
    #[inline]
    pub fn commit_ts(&self) -> Option<Timestamp> {
        match self.commit.load(Ordering::Acquire) {
            UNCOMMITTED => None,
            ts => Some(Timestamp(ts)),
        }
    }

    /// The HLC stamp of the commit (`0`: unstamped, or not committed yet).
    /// Meaningful after [`is_committed`](Version::is_committed) or
    /// [`commit_ts`](Version::commit_ts) said "committed" — their `Acquire`
    /// load orders this one after the committer's stamp.
    #[inline]
    pub fn hlc(&self) -> u64 {
        self.hlc.load(Ordering::Relaxed)
    }

    /// Commits the version in place: the stamp first, then the commit word
    /// with `Release`. The caller is the one writer allowed to touch the
    /// chain (it holds the key latch, or owns the chain).
    pub(crate) fn mark_committed(&self, commit_ts: Timestamp, hlc: u64) {
        assert_ne!(commit_ts.0, UNCOMMITTED, "Timestamp::MAX is not a commit");
        self.hlc.store(hlc, Ordering::Relaxed);
        self.commit.store(commit_ts.0, Ordering::Release);
    }

    /// The timestamp used to order this version in the chain: the explicit
    /// ordering timestamp when present, otherwise the commit timestamp,
    /// otherwise "not yet ordered".
    pub fn sort_ts(&self) -> Option<Timestamp> {
        self.order_ts.or(self.commit_ts())
    }
}

/// Read-only view of a version chain, newest version first.
///
/// Concurrency-control mechanisms inspect chains through this trait so the
/// same code runs against both representations: the owned [`VersionChain`]
/// (tests, recovery, serialization) and the arena-backed lock-free chains
/// of the store's hot path. Every provided method is defined in terms of
/// one newest-first traversal, which is the natural direction of the
/// arena's linked chains.
///
/// Implementations must maintain the **position-order invariant**: walking
/// newest-first, committed versions appear in descending commit-timestamp
/// order and `order_ts`-carrying versions in descending `order_ts` order
/// (installs splice at the ordering position; commits keep the install
/// position, and the mechanisms' dependency waits make per-key commit
/// order follow it). The timestamp queries below exploit the invariant to
/// stop a walk at the first decisive version instead of scanning the whole
/// chain — on a hot key between GC cycles that is the difference between
/// O(1) and O(thousands) per access.
pub trait ChainRead {
    /// Number of versions (committed and uncommitted).
    fn len(&self) -> usize;

    /// Visits versions newest-first; the visitor returns `false` to stop.
    fn for_each_newest_first<'a>(&'a self, f: &mut dyn FnMut(&'a Version) -> bool);

    /// True when the chain holds no version at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first version (newest-first) matching `pred`.
    fn find_newest_first<'a>(
        &'a self,
        pred: &mut dyn FnMut(&Version) -> bool,
    ) -> Option<&'a Version> {
        let mut found = None;
        self.for_each_newest_first(&mut |v| {
            if pred(v) {
                found = Some(v);
                false
            } else {
                true
            }
        });
        found
    }

    /// The most recently committed version (by chain position).
    fn latest_committed(&self) -> Option<&Version> {
        self.find_newest_first(&mut |v| v.is_committed())
    }

    /// The latest committed version whose commit timestamp is strictly
    /// smaller than `ts` (snapshot-isolation visibility rule).
    fn committed_before(&self, ts: Timestamp) -> Option<&Version> {
        // Committed versions run newest-first in descending commit-ts
        // order, so the first one below `ts` is the visible one (and, for
        // equal timestamps, the newest by position — matching the Vec
        // representation's last-maximal `max_by_key`).
        let mut best: Option<&Version> = None;
        self.for_each_newest_first(&mut |v| {
            if matches!(v.commit_ts(), Some(c) if c < ts) {
                best = Some(v);
                return false;
            }
            true
        });
        best
    }

    /// The latest committed version whose commit timestamp is `<= ts`
    /// (visibility rule for snapshot timestamps that *are* commit
    /// timestamps of applied commits).
    fn committed_at_or_before(&self, ts: Timestamp) -> Option<&Version> {
        // Same early exit as `committed_before`: descending commit-ts
        // order makes the first match the visible one.
        let mut best: Option<&Version> = None;
        self.for_each_newest_first(&mut |v| {
            if matches!(v.commit_ts(), Some(c) if c <= ts) {
                best = Some(v);
                return false;
            }
            true
        });
        best
    }

    /// The latest version (committed or not) whose ordering timestamp is
    /// `<= ts` (multiversion timestamp-ordering visibility rule).
    fn visible_at_order_ts(&self, ts: Timestamp) -> Option<&Version> {
        // Sort timestamps run descending newest-first (the position-order
        // invariant), so the first version at or below `ts` wins.
        let mut best: Option<&Version> = None;
        self.for_each_newest_first(&mut |v| {
            if matches!(v.sort_ts(), Some(o) if o <= ts) {
                best = Some(v);
                return false;
            }
            true
        });
        best
    }

    /// The uncommitted version written by `writer`, if any (chains hold at
    /// most one uncommitted version per writer).
    fn uncommitted_by(&self, writer: TxnId) -> Option<&Version> {
        self.find_newest_first(&mut |v| v.writer == writer && !v.is_committed())
    }

    /// True if some transaction other than `txn` has an uncommitted
    /// version on this key.
    fn has_other_uncommitted(&self, txn: TxnId) -> bool {
        self.find_newest_first(&mut |v| !v.is_committed() && v.writer != txn)
            .is_some()
    }

    /// True if a version committed with a timestamp `> ts` exists
    /// (first-committer-wins check of snapshot isolation).
    fn committed_after(&self, ts: Timestamp) -> bool {
        // The first committed version seen carries the chain's largest
        // commit timestamp (position-order invariant), so it alone decides.
        let mut found = false;
        self.for_each_newest_first(&mut |v| match v.commit_ts() {
            Some(c) => {
                found = c > ts;
                false
            }
            None => true,
        });
        found
    }

    /// True if a version committed with a timestamp `>= ts` exists.
    fn committed_at_or_after(&self, ts: Timestamp) -> bool {
        let mut found = false;
        self.for_each_newest_first(&mut |v| match v.commit_ts() {
            Some(c) => {
                found = c >= ts;
                false
            }
            None => true,
        });
        found
    }
}

impl ChainRead for VersionChain {
    fn len(&self) -> usize {
        self.versions.len()
    }

    fn for_each_newest_first<'a>(&'a self, f: &mut dyn FnMut(&'a Version) -> bool) {
        for v in self.versions.iter().rev() {
            if !f(v) {
                return;
            }
        }
    }
}

/// The ordered version history of a single key.
///
/// Invariants maintained by this type:
/// * committed versions appear in commit-timestamp order,
/// * versions carrying an `order_ts` (TSO) are kept sorted by that
///   timestamp,
/// * at most one uncommitted version per writer.
#[derive(Debug, Default)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        VersionChain::default()
    }

    /// Number of versions (committed and uncommitted).
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when the chain holds no version at all.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// All versions, oldest first.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// Installs a new uncommitted version. If the writer already has an
    /// uncommitted version on this key it is overwritten in place (last
    /// write of a transaction wins), otherwise the version is inserted at
    /// its ordering position.
    pub fn install(&mut self, version: Version) {
        if let Some(existing) = self
            .versions
            .iter_mut()
            .find(|v| v.writer == version.writer && !v.is_committed())
        {
            existing.value = version.value;
            existing.order_ts = version.order_ts.or(existing.order_ts);
            return;
        }
        match version.order_ts {
            Some(ts) => {
                // Keep order_ts-carrying versions sorted among themselves;
                // versions without an order_ts stay where installation put
                // them (they are ordered by commit later).
                let pos = self
                    .versions
                    .iter()
                    .position(|v| matches!(v.order_ts, Some(other) if other > ts))
                    .unwrap_or(self.versions.len());
                self.versions.insert(pos, version);
            }
            None => self.versions.push(version),
        }
    }

    /// Marks the version written by `writer` as committed with `commit_ts`.
    /// Returns `true` if a version was found.
    ///
    /// The version keeps its chain position: position order is the order in
    /// which the concurrency-control tree serialized the installs, and the
    /// mechanisms' dependency waits make per-key commit order follow it.
    /// Moving the version (e.g. to the end) would jump over uncommitted
    /// versions installed after it, hiding a later write from
    /// position-based readers — the lost-update bug this comment guards
    /// against.
    pub fn commit(&mut self, writer: TxnId, commit_ts: Timestamp) -> bool {
        self.commit_stamped(writer, commit_ts, 0)
    }

    /// [`commit`](VersionChain::commit) carrying the cluster-wide HLC
    /// stamp of the commit (see [`Version::hlc`]).
    pub fn commit_stamped(&mut self, writer: TxnId, commit_ts: Timestamp, hlc: u64) -> bool {
        let Some(v) = self.uncommitted_by(writer) else {
            return false;
        };
        v.mark_committed(commit_ts, hlc);
        true
    }

    /// Removes the uncommitted version installed by `writer`, if any.
    /// Returns `true` if a version was removed.
    pub fn abort(&mut self, writer: TxnId) -> bool {
        let before = self.versions.len();
        self.versions
            .retain(|v| v.writer != writer || v.is_committed());
        before != self.versions.len()
    }

    /// The most recently committed version.
    pub fn latest_committed(&self) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.is_committed())
    }

    /// The latest committed version whose commit timestamp is strictly
    /// smaller than `ts` (snapshot-isolation visibility rule).
    pub fn committed_before(&self, ts: Timestamp) -> Option<&Version> {
        self.versions
            .iter()
            .filter(|v| matches!(v.commit_ts(), Some(c) if c < ts))
            .max_by_key(|v| v.commit_ts())
    }

    /// The latest committed version whose commit timestamp is `<= ts`.
    /// This is the visibility rule for snapshot timestamps obtained from
    /// [`TsOracle::snapshot_ts`](../../tebaldi_cc/oracle/struct.TsOracle.html):
    /// such a timestamp *is* the commit timestamp of the newest fully
    /// applied commit, which must be inside the snapshot.
    pub fn committed_at_or_before(&self, ts: Timestamp) -> Option<&Version> {
        self.versions
            .iter()
            .filter(|v| matches!(v.commit_ts(), Some(c) if c <= ts))
            .max_by_key(|v| v.commit_ts())
    }

    /// The latest version (committed or not) whose ordering timestamp is
    /// `<= ts` (multiversion timestamp-ordering visibility rule). Versions
    /// without an ordering timestamp fall back to their commit timestamp.
    pub fn visible_at_order_ts(&self, ts: Timestamp) -> Option<&Version> {
        self.versions
            .iter()
            .filter(|v| matches!(v.sort_ts(), Some(o) if o <= ts))
            .max_by_key(|v| v.sort_ts())
    }

    /// The uncommitted version written by `writer`, if any.
    pub fn uncommitted_by(&self, writer: TxnId) -> Option<&Version> {
        self.versions
            .iter()
            .find(|v| v.writer == writer && !v.is_committed())
    }

    /// All uncommitted versions.
    pub fn uncommitted(&self) -> impl Iterator<Item = &Version> {
        self.versions.iter().filter(|v| !v.is_committed())
    }

    /// True if some transaction other than `txn` has an uncommitted version
    /// on this key.
    pub fn has_other_uncommitted(&self, txn: TxnId) -> bool {
        self.versions
            .iter()
            .any(|v| !v.is_committed() && v.writer != txn)
    }

    /// True if a version committed with a timestamp `> ts` exists
    /// (first-committer-wins check of snapshot isolation).
    pub fn committed_after(&self, ts: Timestamp) -> bool {
        self.versions
            .iter()
            .any(|v| matches!(v.commit_ts(), Some(c) if c > ts))
    }

    /// True if a version committed with a timestamp `>= ts` exists. Snapshot
    /// readers whose start timestamp may coincide with an existing commit
    /// timestamp (snapshot timestamps are not freshly issued) must treat a
    /// commit *at* their start timestamp as outside their snapshot, so the
    /// first-committer-wins check has to flag it as a conflict too.
    pub fn committed_at_or_after(&self, ts: Timestamp) -> bool {
        self.versions
            .iter()
            .any(|v| matches!(v.commit_ts(), Some(c) if c >= ts))
    }

    /// The most recent version regardless of state, in chain order.
    pub fn last(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// Drops committed versions strictly older than `keep_after`, always
    /// keeping at least the latest committed version. Returns the number of
    /// versions removed. This is the per-key primitive used by the GC
    /// service (§4.5.3).
    pub fn prune(&mut self, keep_after: Timestamp) -> usize {
        let latest_commit_ts = self.latest_committed().and_then(|v| v.commit_ts());
        let before = self.versions.len();
        self.versions.retain(|v| match v.commit_ts() {
            None => true,
            Some(ts) => ts >= keep_after || Some(ts) == latest_commit_ts,
        });
        before - self.versions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ver(id: u64, writer: u64, val: i64) -> Version {
        Version::uncommitted(VersionId(id), TxnId(writer), Value::Int(val), None)
    }

    /// The trait-object query paths stop walks early by relying on the
    /// position-order invariant; the inherent `VersionChain` methods scan
    /// the whole Vec. On a chain built through the normal install/commit
    /// flow both must agree, for every probe timestamp.
    #[test]
    fn dyn_chain_queries_match_inherent_scans() {
        // Commit-ordered chain: committed history at ts 10, 20, 30 with
        // two uncommitted writes on top (the shape every commit-time CC
        // produces).
        let mut chain = VersionChain::new();
        for (i, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            chain.install(ver(i, i, i as i64));
            chain.commit(TxnId(i), Timestamp(ts));
        }
        chain.install(ver(4, 4, 4));
        chain.install(ver(5, 5, 5));

        let dy: &dyn ChainRead = &chain;
        for probe in [0u64, 10, 15, 20, 25, 30, 40] {
            let ts = Timestamp(probe);
            assert_eq!(
                dy.committed_before(ts).map(|v| v.id),
                chain.committed_before(ts).map(|v| v.id),
                "committed_before({probe})"
            );
            assert_eq!(
                dy.committed_at_or_before(ts).map(|v| v.id),
                chain.committed_at_or_before(ts).map(|v| v.id),
                "committed_at_or_before({probe})"
            );
            assert_eq!(
                dy.committed_after(ts),
                chain.committed_after(ts),
                "committed_after({probe})"
            );
            assert_eq!(
                dy.committed_at_or_after(ts),
                chain.committed_at_or_after(ts),
                "committed_at_or_after({probe})"
            );
        }
        assert_eq!(
            dy.uncommitted_by(TxnId(5)).map(|v| v.id),
            Some(VersionId(5))
        );
        assert!(dy.uncommitted_by(TxnId(9)).is_none());
        assert!(dy.has_other_uncommitted(TxnId(5)));

        // Timestamp-ordered chain: every version carries an order_ts (the
        // shape TSO produces — committed versions keep their order_ts).
        let mut tso = VersionChain::new();
        for (i, ots) in [(10u64, 10u64), (11, 20), (12, 30)] {
            let mut v = ver(i, i, i as i64);
            v.order_ts = Some(Timestamp(ots));
            tso.install(v);
        }
        tso.commit(TxnId(10), Timestamp(10));
        tso.commit(TxnId(11), Timestamp(20));
        let dy_tso: &dyn ChainRead = &tso;
        for probe in [0u64, 10, 15, 20, 25, 30, 40] {
            let ts = Timestamp(probe);
            assert_eq!(
                dy_tso.visible_at_order_ts(ts).map(|v| v.id),
                tso.visible_at_order_ts(ts).map(|v| v.id),
                "visible_at_order_ts({probe})"
            );
        }
    }

    #[test]
    fn install_commit_read() {
        let mut c = VersionChain::new();
        c.install(ver(1, 1, 10));
        assert!(c.latest_committed().is_none());
        assert!(c.commit(TxnId(1), Timestamp(5)));
        assert_eq!(c.latest_committed().unwrap().value.as_int(), Some(10));
        assert_eq!(
            c.committed_before(Timestamp(6)).unwrap().value.as_int(),
            Some(10)
        );
        assert!(c.committed_before(Timestamp(5)).is_none());
    }

    #[test]
    fn commit_keeps_position_before_later_uncommitted_writes() {
        // T1 installs, then T2 installs (a later write exposed by a
        // pipelining CC). T1 committing must NOT move its version past T2's
        // uncommitted one: the chain's last version must stay T2's so
        // position-based readers keep seeing the newer write.
        let mut c = VersionChain::new();
        c.install(ver(1, 1, 10));
        c.install(ver(2, 2, 20));
        assert!(c.commit(TxnId(1), Timestamp(5)));
        assert_eq!(c.last().unwrap().writer, TxnId(2));
        assert_eq!(c.latest_committed().unwrap().writer, TxnId(1));
        // T2 then commits with a larger timestamp; both position and commit
        // order agree.
        assert!(c.commit(TxnId(2), Timestamp(7)));
        assert_eq!(c.latest_committed().unwrap().writer, TxnId(2));
        assert_eq!(
            c.committed_at_or_before(Timestamp(6)).unwrap().writer,
            TxnId(1)
        );
    }

    #[test]
    fn overwrite_same_writer() {
        let mut c = VersionChain::new();
        c.install(ver(1, 1, 10));
        c.install(ver(2, 1, 20));
        assert_eq!(c.len(), 1);
        assert_eq!(c.uncommitted_by(TxnId(1)).unwrap().value.as_int(), Some(20));
    }

    #[test]
    fn abort_removes_uncommitted() {
        let mut c = VersionChain::new();
        c.install(ver(1, 1, 10));
        c.install(ver(2, 2, 20));
        assert!(c.abort(TxnId(1)));
        assert!(!c.abort(TxnId(1)));
        assert_eq!(c.len(), 1);
        assert!(c.has_other_uncommitted(TxnId(1)));
        assert!(!c.has_other_uncommitted(TxnId(2)));
    }

    #[test]
    fn snapshot_visibility_ordering() {
        let mut c = VersionChain::new();
        c.install(ver(1, 1, 10));
        c.commit(TxnId(1), Timestamp(10));
        c.install(ver(2, 2, 20));
        c.commit(TxnId(2), Timestamp(20));
        assert_eq!(
            c.committed_before(Timestamp(15)).unwrap().value.as_int(),
            Some(10)
        );
        assert_eq!(
            c.committed_before(Timestamp(25)).unwrap().value.as_int(),
            Some(20)
        );
        assert!(c.committed_after(Timestamp(15)));
        assert!(!c.committed_after(Timestamp(25)));
    }

    #[test]
    fn order_ts_insertion_and_visibility() {
        let mut c = VersionChain::new();
        let mut v1 = ver(1, 1, 10);
        v1.order_ts = Some(Timestamp(100));
        let mut v2 = ver(2, 2, 20);
        v2.order_ts = Some(Timestamp(50));
        c.install(v1);
        c.install(v2); // earlier order_ts inserted before
        assert_eq!(c.versions()[0].writer, TxnId(2));
        assert_eq!(
            c.visible_at_order_ts(Timestamp(60)).unwrap().value.as_int(),
            Some(20)
        );
        assert_eq!(
            c.visible_at_order_ts(Timestamp(200))
                .unwrap()
                .value
                .as_int(),
            Some(10)
        );
        assert!(c.visible_at_order_ts(Timestamp(10)).is_none());
    }

    #[test]
    fn prune_keeps_latest_committed_and_uncommitted() {
        let mut c = VersionChain::new();
        for i in 1..=5u64 {
            c.install(ver(i, i, i as i64));
            c.commit(TxnId(i), Timestamp(i * 10));
        }
        c.install(ver(99, 99, 99));
        let removed = c.prune(Timestamp(45));
        assert_eq!(removed, 4);
        assert_eq!(c.latest_committed().unwrap().value.as_int(), Some(5));
        assert!(c.uncommitted_by(TxnId(99)).is_some());

        // Pruning with a horizon beyond everything keeps the latest.
        let mut c2 = VersionChain::new();
        c2.install(ver(1, 1, 1));
        c2.commit(TxnId(1), Timestamp(10));
        assert_eq!(c2.prune(Timestamp(1000)), 0);
        assert!(c2.latest_committed().is_some());
    }
}
