//! Versions.
//!
//! Tebaldi's storage module "keeps all the committed and uncommitted writes
//! on each object" (§4.3) so that both single-version and multiversion
//! concurrency controls can be composed. A [`Version`] is one such write; the
//! ordered history of one key is a chain of them in the store's arena, seen
//! through [`Chain`](crate::mvstore::Chain). The concurrency-control
//! mechanisms decide *which* version a read returns, storage only maintains
//! the chain.

use crate::types::{GroupId, Timestamp, TxnId};
use crate::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Commit word of a version whose writer has not committed. No commit is
/// ever stamped with it ([`Timestamp::MAX`] is the "no constraint"
/// sentinel, never an issued timestamp).
const UNCOMMITTED: u64 = u64::MAX;

/// One version of one key.
///
/// The **payload** (`group`, `writer`, `value`, `order_ts`) never changes once
/// the version is linked into a chain. The **commit word** does, exactly
/// once: committing a version stores its HLC stamp and then its commit
/// timestamp into the version itself, in place. State and timestamp live in
/// one atomic word, so a reader that sees "committed" has the timestamp in
/// the same load, and — the word being stored `Release` after the stamp and
/// loaded `Acquire` — the stamp with it.
#[derive(Debug)]
pub struct Version {
    /// The leaf group of the CC tree the writer ran in — the one fact the
    /// read rule of every node asks of a version (§4.3.1: written inside
    /// the reader's group or subtree?), so membership is a field read that
    /// no directory compaction can change. [`GroupId::NONE`] for a version
    /// written outside the tree (bootstrap loads, recovery, replica apply):
    /// foreign to every node.
    ///
    /// Group ids restart at 0 in every tree a reconfiguration builds, so an
    /// old version may carry an id that now names another group. That is
    /// harmless: the swap drains every group first, so every such version
    /// committed before any transaction of the new tree began, and every
    /// node shows a committed version that precedes its reader whether it
    /// judges it as its own or as foreign.
    pub group: GroupId,
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

// One arena slot: the header words and the value, inline rows included.
const _: () = assert!(std::mem::size_of::<Version>() == 88);

impl Version {
    /// A version as its writer installs it: not yet committed.
    pub fn uncommitted(
        group: GroupId,
        writer: TxnId,
        value: Value,
        order_ts: Option<Timestamp>,
    ) -> Version {
        Version {
            group,
            writer,
            value,
            order_ts,
            commit: AtomicU64::new(UNCOMMITTED),
            hlc: AtomicU64::new(0),
        }
    }

    /// A version born committed at `commit_ts`, unstamped and outside the
    /// tree (bootstrap loads).
    pub fn committed(writer: TxnId, value: Value, commit_ts: Timestamp) -> Version {
        let v = Version::uncommitted(GroupId::NONE, writer, value, None);
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
    /// chain (it holds the key latch).
    ///
    /// An ordering timestamp is drawn from the same oracle as the commit
    /// timestamp, earlier, so it is below it — which is what lets
    /// [`Chain::ordered_after`](crate::mvstore::Chain::ordered_after) stop
    /// at the first commit at or below its bound.
    pub(crate) fn mark_committed(&self, commit_ts: Timestamp, hlc: u64) {
        assert_ne!(commit_ts.0, UNCOMMITTED, "Timestamp::MAX is not a commit");
        debug_assert!(
            self.order_ts.is_none_or(|ts| ts < commit_ts),
            "{self:?} at {commit_ts:?}"
        );
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
