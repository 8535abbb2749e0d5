//! Garbage collection of stale versions (§4.5.3).
//!
//! Logically a write can be collected when every concurrency control agrees
//! it will never be read again. The paper batches this by *GC epoch*: every
//! transaction is tagged with the current epoch, and once all transactions
//! of an epoch have finished, the versions the epoch made stale are pruned.
//!
//! This reproduction substitutes a horizon that can be read at any moment,
//! as Larson et al. take theirs from the oldest active transaction: the
//! engine passes [`collect`] the smaller of the timestamp oracle's snapshot
//! timestamp, read first, and the CC tree's low watermark (each mechanism's
//! smallest timestamp it may still read at or after), read second. The
//! substitution is at least as strict as the epochs:
//!
//! * every snapshot an active transaction reads at is at or above its
//!   mechanism's watermark, and one the watermark does not show yet is
//!   taken later than the oracle was read, so at or above its snapshot
//!   timestamp, which never decreases;
//! * the snapshot timestamp stays below every commit still being applied,
//!   so the prune never keeps a half-applied commit's version in place of
//!   an older one a snapshot below that commit still reads. An epoch's top
//!   commit gave no such guarantee: epoch order is not commit order, so a
//!   retired epoch could hold a commit after one still being applied.
//!
//! Note the split of responsibilities with [`crate::ebr`]:
//!
//! * this module decides **logical** collectability — which committed
//!   versions no mechanism will ever read again (everything below the
//!   horizon but each key's newest version there);
//! * the store's epoch-based reclamation decides **physical** reuse — a
//!   pruned version parks on a limbo list until every pinned reader thread
//!   has moved two reclamation epochs past it.

use crate::mvstore::MvStore;
use crate::types::Timestamp;

/// Summary of one collection cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// The horizon that was applied.
    pub horizon: Timestamp,
    /// Number of versions removed (exact: counted by the per-chain prune,
    /// not re-derived from before/after stats).
    pub removed: usize,
    /// Number of retired version slots physically freed by this cycle's
    /// reclamation sweep (may include slots pruned in earlier cycles whose
    /// grace period only now expired).
    pub reclaimed: usize,
}

/// One collection cycle on `store`: prunes every version no read at or
/// above `horizon` can return (each key keeps the newest committed below
/// it, see [`ChainWrite::prune`](crate::ChainWrite::prune)) — nothing at
/// `Timestamp::ZERO` — and then runs a physical reclamation sweep, so
/// limbo lists drain even when nothing new was pruned.
pub fn collect(store: &MvStore, horizon: Timestamp) -> GcReport {
    let removed = if horizon > Timestamp::ZERO {
        store.prune_before(horizon)
    } else {
        0
    };
    GcReport {
        horizon,
        removed,
        reclaimed: store.reclaim(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use crate::mvstore::ReadSpec;
    use crate::schema::TableId;
    use crate::types::TxnId;
    use crate::value::Value;

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    fn committed_write(store: &MvStore, txn: u64, id: u64, val: i64, ts: u64) {
        store.write(&k(id), TxnId(txn), Value::Int(val));
        store.commit_writes(TxnId(txn), &[k(id)], Timestamp(ts));
    }

    #[test]
    fn watermark_bounds_collection() {
        let store = MvStore::new(2);
        committed_write(&store, 1, 1, 10, 10);
        committed_write(&store, 2, 1, 11, 11);

        // A mechanism may still read at ts 5, so only versions below 5 may
        // go; none exist, so nothing is removed.
        let report = collect(&store, Timestamp(5));
        assert_eq!(report.removed, 0);
        assert_eq!(report.horizon, Timestamp(5));
        assert_eq!(store.stats(), store.stats_scanned());
        // At 11 the version at 10 is the floor a read at 11 still passes.
        assert_eq!(collect(&store, Timestamp(11)).removed, 0);
        assert_eq!(
            store.read(&k(1), ReadSpec::SnapshotBefore(Timestamp(11))),
            Some(Value::Int(10))
        );
    }

    #[test]
    fn repeated_cycles_drain_limbo_and_keep_counts_exact() {
        let store = MvStore::new(2);
        let mut removed = 0usize;
        for round in 1..=10u64 {
            committed_write(&store, round, 1, round as i64, round * 10);
            let report = collect(&store, Timestamp(round * 10));
            // Each cycle's horizon is its own commit, so key 1 keeps that
            // version and the one below it: every older version is pruned
            // exactly once, one per round from the third on.
            removed += report.removed;
            assert_eq!(store.stats(), store.stats_scanned());
        }
        assert_eq!(removed, 8);
        assert_eq!(store.stats().versions, 2);
        // Physical reclamation eventually frees everything pruned.
        for _ in 0..8 {
            store.reclaim();
        }
        assert_eq!(store.limbo_stats().0, 0);
        assert_eq!(store.gen_mismatches(), 0);
    }
}
