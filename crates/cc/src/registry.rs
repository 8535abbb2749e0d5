//! The shared transaction directory.
//!
//! Mechanisms and the engine need three pieces of information about *other*
//! transactions:
//!
//! * their status (active / committed / aborted), to implement dependency
//!   waiting ("delay commit until all in-group dependencies have
//!   committed", §4.4.1 — a [`cc::wait`](crate::wait) on the dependency's
//!   status) and cascading-abort prevention,
//! * their static type, to label blocking events for the profiler, and
//! * their leaf group, so a parent CC can tell whether a version proposed by
//!   a child was written inside or outside the child's subtree (§4.3.1's
//!   read logic).
//!
//! The registry is sharded to keep it off the contention critical path.

use crate::error::CcResult;
use crate::wait::{Step, Wait};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use tebaldi_storage::{GroupId, Timestamp, TxnId, TxnTypeId};

/// Lifecycle status of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// The transaction is executing.
    Active,
    /// The transaction committed at the carried timestamp.
    Committed(Timestamp),
    /// The transaction aborted.
    Aborted,
}

impl TxnStatus {
    /// True for `Committed`.
    pub fn is_committed(self) -> bool {
        matches!(self, TxnStatus::Committed(_))
    }

    /// True for `Active`.
    pub fn is_active(self) -> bool {
        matches!(self, TxnStatus::Active)
    }
}

#[derive(Clone, Copy, Debug)]
struct TxnInfo {
    status: TxnStatus,
    ty: TxnTypeId,
    group: GroupId,
}

struct Shard {
    txns: Mutex<HashMap<TxnId, TxnInfo>>,
    finished: Condvar,
}

/// The transaction directory.
pub struct TxnRegistry {
    shards: Vec<Shard>,
}

impl std::fmt::Debug for TxnRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnRegistry")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Shards of the directory — the count the engine has always run with.
const SHARDS: usize = 64;

impl Default for TxnRegistry {
    fn default() -> Self {
        TxnRegistry {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    txns: Mutex::new(HashMap::new()),
                    finished: Condvar::new(),
                })
                .collect(),
        }
    }
}

impl TxnRegistry {
    fn shard(&self, txn: TxnId) -> &Shard {
        &self.shards[(txn.0 as usize) % self.shards.len()]
    }

    /// Registers a starting transaction.
    pub fn register(&self, txn: TxnId, ty: TxnTypeId, group: GroupId) {
        let shard = self.shard(txn);
        shard.txns.lock().insert(
            txn,
            TxnInfo {
                status: TxnStatus::Active,
                ty,
                group,
            },
        );
    }

    /// Marks a transaction committed and wakes up dependency waiters.
    pub fn mark_committed(&self, txn: TxnId, ts: Timestamp) {
        let shard = self.shard(txn);
        let mut txns = shard.txns.lock();
        if let Some(info) = txns.get_mut(&txn) {
            info.status = TxnStatus::Committed(ts);
        }
        drop(txns);
        shard.finished.notify_all();
    }

    /// Marks a transaction aborted and wakes up dependency waiters.
    pub fn mark_aborted(&self, txn: TxnId) {
        let shard = self.shard(txn);
        let mut txns = shard.txns.lock();
        if let Some(info) = txns.get_mut(&txn) {
            info.status = TxnStatus::Aborted;
        }
        drop(txns);
        shard.finished.notify_all();
    }

    /// Current status. Unknown transactions (already compacted away, or the
    /// bootstrap loader) are reported as committed at time zero.
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        self.shard(txn)
            .txns
            .lock()
            .get(&txn)
            .map(|i| i.status)
            .unwrap_or(TxnStatus::Committed(Timestamp::ZERO))
    }

    /// The leaf group a transaction was assigned to, if still known.
    pub fn group_of(&self, txn: TxnId) -> Option<GroupId> {
        self.shard(txn).txns.lock().get(&txn).map(|i| i.group)
    }

    /// The static type of a transaction, if still known.
    pub fn type_of(&self, txn: TxnId) -> Option<TxnTypeId> {
        self.shard(txn).txns.lock().get(&txn).map(|i| i.ty)
    }

    /// Blocks `wait`'s transaction until `txn` is no longer active and
    /// returns `txn`'s final status. Unknown transactions count as
    /// committed, as in [`status`](TxnRegistry::status).
    pub fn wait_finished(&self, wait: &mut Wait<'_>, txn: TxnId) -> CcResult<TxnStatus> {
        let shard = self.shard(txn);
        wait.until(&shard.txns, &shard.finished, |txns| {
            match txns.get(&txn).map(|i| i.status) {
                Some(TxnStatus::Active) => Step::BlockedOn(txn),
                Some(status) => Step::Done(status),
                None => Step::Done(TxnStatus::Committed(Timestamp::ZERO)),
            }
        })
    }

    /// Number of transactions currently marked active.
    pub fn active_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.txns
                    .lock()
                    .values()
                    .filter(|i| i.status.is_active())
                    .count()
            })
            .sum()
    }

    /// Removes finished entries, keeping active ones. Called periodically by
    /// the engine's GC cycle to bound memory use in long runs.
    pub fn compact(&self) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut txns = shard.txns.lock();
            let before = txns.len();
            txns.retain(|_, info| info.status.is_active());
            removed += before - txns.len();
        }
        removed
    }

    /// Removes every entry (used between benchmark configurations).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.txns.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_query() {
        let r = TxnRegistry::default();
        r.register(TxnId(1), TxnTypeId(3), GroupId(2));
        assert_eq!(r.status(TxnId(1)), TxnStatus::Active);
        assert_eq!(r.group_of(TxnId(1)), Some(GroupId(2)));
        assert_eq!(r.type_of(TxnId(1)), Some(TxnTypeId(3)));
        r.mark_committed(TxnId(1), Timestamp(9));
        assert_eq!(r.status(TxnId(1)), TxnStatus::Committed(Timestamp(9)));
        assert_eq!(r.active_count(), 0);
    }

    #[test]
    fn unknown_is_committed() {
        let r = TxnRegistry::default();
        assert!(r.status(TxnId(999)).is_committed());
    }

    #[test]
    fn compact_keeps_active() {
        let r = TxnRegistry::default();
        r.register(TxnId(1), TxnTypeId(0), GroupId(0));
        r.register(TxnId(2), TxnTypeId(0), GroupId(0));
        r.mark_aborted(TxnId(2));
        assert_eq!(r.compact(), 1);
        assert_eq!(r.group_of(TxnId(1)), Some(GroupId(0)));
        assert_eq!(r.group_of(TxnId(2)), None);
    }
}
