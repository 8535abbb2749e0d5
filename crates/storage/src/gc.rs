//! Garbage collection of stale versions (§4.5.3).
//!
//! Logically a write can be collected when every concurrency control agrees
//! it will never be read again. Tebaldi processes records in batches within
//! a *GC epoch*: every transaction is tagged with the current epoch; when
//! all transactions of an epoch have finished, the GC manager asks all CC
//! mechanisms to confirm that no ongoing or future transaction can be
//! ordered before the epoch's transactions, and then prunes every version
//! the epoch made stale.
//!
//! Each CC mechanism reports a *low watermark* timestamp below which it will
//! never order a new transaction; the engine passes the minimum over its CC
//! tree to [`GcManager::collect`], which never prunes at or above it.
//!
//! Since the main-memory rework, epoch tracking is a fixed ring of atomic
//! counters instead of mutex-guarded hash maps: [`GcManager::transaction_started`]
//! and [`GcManager::transaction_finished`] are two atomic RMWs on the
//! transaction fast path, with no lock and no allocation. Note the split of
//! responsibilities with [`crate::ebr`]:
//!
//! * this manager decides **logical** collectability — which committed
//!   versions no mechanism will ever read again (the CC tree's watermark
//!   and fully-retired GC epochs bound the prune horizon);
//! * the store's epoch-based reclamation decides **physical** reuse — a
//!   pruned version parks on a limbo list until every pinned reader thread
//!   has moved two reclamation epochs past it.

use crate::mvstore::MvStore;
use crate::types::Timestamp;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Summary of one collection cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// The horizon that was applied.
    pub horizon: Timestamp,
    /// Number of versions removed (exact: counted by the per-chain prune,
    /// not re-derived from before/after stats).
    pub removed: usize,
    /// Number of epochs retired by this cycle.
    pub epochs_retired: u64,
    /// Number of retired version slots physically freed by this cycle's
    /// reclamation sweep (may include slots pruned in earlier cycles whose
    /// grace period only now expired).
    pub reclaimed: usize,
}

/// Ring capacity: the maximum distance `current_epoch` may run ahead of the
/// oldest un-retired epoch. Epochs advance on a timer (and once per GC
/// cycle), so thousands of epochs of lag means collection has not run for
/// hours — [`GcManager::advance_epoch`] asserts rather than silently
/// aliasing ring slots.
const EPOCH_RING: usize = 4096;

/// One epoch's slot in the ring (indexed by `epoch % EPOCH_RING`).
struct EpochSlot {
    /// In-flight transactions tagged with this epoch.
    active: AtomicU64,
    /// Largest commit timestamp observed in this epoch (0 = none).
    high_ts: AtomicU64,
}

/// The garbage-collection manager.
pub struct GcManager {
    current_epoch: AtomicU64,
    /// Oldest epoch not yet retired by [`GcManager::collect`].
    floor: AtomicU64,
    ring: Box<[EpochSlot]>,
    /// Serializes collectors (floor advance + slot reset must be atomic
    /// with respect to each other; the transaction fast path never takes
    /// this).
    collect_lock: Mutex<()>,
    retired_epochs: AtomicU64,
}

impl Default for GcManager {
    fn default() -> Self {
        GcManager::new()
    }
}

impl std::fmt::Debug for GcManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcManager")
            .field("current_epoch", &self.current_epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl GcManager {
    /// Creates a manager starting at epoch 1.
    pub fn new() -> Self {
        GcManager {
            current_epoch: AtomicU64::new(1),
            floor: AtomicU64::new(1),
            ring: (0..EPOCH_RING)
                .map(|_| EpochSlot {
                    active: AtomicU64::new(0),
                    high_ts: AtomicU64::new(0),
                })
                .collect(),
            collect_lock: Mutex::new(()),
            retired_epochs: AtomicU64::new(0),
        }
    }

    fn slot(&self, epoch: u64) -> &EpochSlot {
        &self.ring[(epoch % EPOCH_RING as u64) as usize]
    }

    /// The current GC epoch id.
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch.load(Ordering::Acquire)
    }

    /// Tags a starting transaction with the current epoch. Returns the
    /// epoch id, which must be passed back to [`GcManager::transaction_finished`].
    /// Lock-free: one atomic increment.
    pub fn transaction_started(&self) -> u64 {
        let epoch = self.current_epoch();
        self.slot(epoch).active.fetch_add(1, Ordering::AcqRel);
        epoch
    }

    /// Records that a transaction tagged with `epoch` finished (committed or
    /// aborted) with the given commit timestamp (if committed). Lock-free:
    /// at most two atomic RMWs.
    pub fn transaction_finished(&self, epoch: u64, commit_ts: Option<Timestamp>) {
        let slot = self.slot(epoch);
        if let Some(ts) = commit_ts {
            slot.high_ts.fetch_max(ts.0, Ordering::AcqRel);
        }
        slot.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Advances to a new epoch; transactions started afterwards belong to
    /// the new epoch. Typically driven by a periodic timer in the engine.
    pub fn advance_epoch(&self) -> u64 {
        let next = self.current_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        assert!(
            next - self.floor.load(Ordering::Acquire) < EPOCH_RING as u64,
            "GC epoch ring exhausted: {EPOCH_RING} epochs advanced without a collect cycle"
        );
        next
    }

    /// The oldest epoch that still has in-flight transactions, if any.
    pub fn oldest_active_epoch(&self) -> Option<u64> {
        let current = self.current_epoch();
        let mut e = self.floor.load(Ordering::Acquire);
        while e <= current {
            if self.slot(e).active.load(Ordering::Acquire) != 0 {
                return Some(e);
            }
            e += 1;
        }
        None
    }

    /// Attempts one collection cycle on `store`.
    ///
    /// `low_watermark` is the smallest timestamp any concurrency control may
    /// still need to read at or after (`Timestamp::MAX`: no constraint). The
    /// collectable horizon is the minimum of (a) that watermark and (b) the
    /// highest commit timestamp of fully-retired epochs; every version no
    /// read at or above it can return is pruned (each key keeps the newest
    /// committed below it, see [`ChainWrite::prune`](crate::ChainWrite::prune)),
    /// and when no epoch has fully retired nothing is. Every cycle
    /// also runs a physical reclamation sweep so limbo lists drain even on
    /// quiet cycles.
    pub fn collect(&self, store: &MvStore, low_watermark: Timestamp) -> GcReport {
        let current = self.current_epoch();
        let mut retired_horizon = Timestamp::ZERO;
        let mut retired_count = 0u64;
        {
            let _g = self.collect_lock.lock();
            let mut floor = self.floor.load(Ordering::Acquire);
            // Retire epochs in order until the first one that still has
            // in-flight transactions (everything past it is newer than the
            // oldest active epoch and must wait).
            while floor < current {
                let slot = self.slot(floor);
                if slot.active.load(Ordering::Acquire) != 0 {
                    break;
                }
                let high = slot.high_ts.swap(0, Ordering::AcqRel);
                if high != 0 {
                    retired_count += 1;
                    if high > retired_horizon.0 {
                        retired_horizon = Timestamp(high);
                    }
                }
                floor += 1;
            }
            self.floor.store(floor, Ordering::Release);
        }

        if retired_count == 0 || retired_horizon == Timestamp::ZERO {
            return GcReport {
                reclaimed: store.reclaim(),
                ..GcReport::default()
            };
        }

        let horizon = retired_horizon.min(low_watermark);
        if horizon == Timestamp::ZERO {
            return GcReport {
                reclaimed: store.reclaim(),
                ..GcReport::default()
            };
        }

        let removed = store.prune_before(horizon);
        let reclaimed = store.reclaim();
        self.retired_epochs
            .fetch_add(retired_count, Ordering::Relaxed);
        GcReport {
            horizon,
            removed,
            epochs_retired: retired_count,
            reclaimed,
        }
    }

    /// Total number of epochs retired so far.
    pub fn retired_epochs(&self) -> u64 {
        self.retired_epochs.load(Ordering::Relaxed)
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
    fn collects_only_retired_epochs() {
        let store = MvStore::new(2);
        let gc = GcManager::new();

        let e1 = gc.transaction_started();
        committed_write(&store, 3, 1, 5, 5);
        committed_write(&store, 1, 1, 10, 10);
        gc.transaction_finished(e1, Some(Timestamp(10)));

        let e2 = gc.transaction_started();
        committed_write(&store, 2, 1, 20, 20);
        // Epoch not advanced yet: nothing retires.
        let report = gc.collect(&store, Timestamp::MAX);
        assert_eq!(report.removed, 0);

        gc.advance_epoch();
        gc.transaction_finished(e2, Some(Timestamp(20)));
        let report = gc.collect(&store, Timestamp::MAX);
        assert!(report.epochs_retired >= 1);
        // The horizon is 20: 10 stays for a reader whose snapshot is the
        // horizon, 5 goes.
        assert_eq!(report.horizon, Timestamp(20));
        assert_eq!(report.removed, 1, "old version of key 1 collected");
        assert_eq!(
            store.read(&k(1), ReadSpec::LatestCommitted),
            Some(Value::Int(20))
        );
        // The O(1) store counters must agree with a full scan after GC.
        assert_eq!(store.stats(), store.stats_scanned());
    }

    #[test]
    fn watermark_bounds_collection() {
        let store = MvStore::new(2);
        let gc = GcManager::new();

        let e = gc.transaction_started();
        committed_write(&store, 1, 1, 10, 10);
        committed_write(&store, 1, 1, 11, 11);
        gc.transaction_finished(e, Some(Timestamp(11)));
        gc.advance_epoch();

        // A mechanism may still read at ts 5, so only versions below 5 may
        // go; none exist, so nothing is removed.
        let report = gc.collect(&store, Timestamp(5));
        assert_eq!(report.removed, 0);
        assert_eq!(report.horizon, Timestamp(5));
        assert_eq!(store.stats(), store.stats_scanned());
    }

    #[test]
    fn active_transactions_block_their_epoch() {
        let gc = GcManager::new();
        let e = gc.transaction_started();
        assert_eq!(gc.oldest_active_epoch(), Some(e));
        gc.transaction_finished(e, None);
        assert_eq!(gc.oldest_active_epoch(), None);
    }

    #[test]
    fn repeated_cycles_drain_limbo_and_keep_counts_exact() {
        let store = MvStore::new(2);
        let gc = GcManager::new();
        let mut expected_removed = 0usize;
        for round in 1..=10u64 {
            let e = gc.transaction_started();
            committed_write(&store, round, 1, round as i64, round * 10);
            gc.transaction_finished(e, Some(Timestamp(round * 10)));
            gc.advance_epoch();
            let report = gc.collect(&store, Timestamp::MAX);
            // Each cycle's horizon is its own commit, so key 1 keeps that
            // version and the one below it: every older version is pruned
            // exactly once, one per round from the third on.
            expected_removed += report.removed;
            assert_eq!(store.stats(), store.stats_scanned());
        }
        assert_eq!(expected_removed, 8);
        assert_eq!(store.stats().versions, 2);
        // Physical reclamation eventually frees everything pruned.
        for _ in 0..8 {
            store.reclaim();
        }
        assert_eq!(store.limbo_stats().0, 0);
        assert_eq!(store.gen_mismatches(), 0);
    }
}
