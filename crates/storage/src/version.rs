//! Versions.
//!
//! Tebaldi's storage module "keeps all the committed and uncommitted writes
//! on each object" (§4.3) so that both single-version and multiversion
//! concurrency controls can be composed. A [`Version`] is one such write; the
//! ordered history of one key is a chain of them in the store's arena, seen
//! through [`Chain`](crate::mvstore::Chain). The concurrency-control
//! mechanisms decide *which* version a read returns, storage only maintains
//! the chain.

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

// One arena slot: the header words and the value, inline rows included.
const _: () = assert!(std::mem::size_of::<Version>() == 88);

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
    /// chain (it holds the key latch).
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
