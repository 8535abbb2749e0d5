//! The durability protocol (§4.5.4).
//!
//! This module is the one place that knows which records a shard log
//! holds: a local commit is one `Precommit` carrying the write set and the
//! commit stamp; a 2PC vote is one `Prepare`; a decided prepare adds its
//! `Commit` or `Abort`. The engine hands over `(txn, writes)` at the
//! commit point and nothing before it.
//!
//! The manager implements both flushing modes discussed in the paper:
//!
//! * **Synchronous** — every commit is flushed before it is acknowledged,
//!   so an acknowledged transaction is durable. This is the conservative
//!   baseline and is what Table 4.2's "expensive" option corresponds to
//!   without batching.
//! * **Asynchronous with GCP epochs** — records are buffered and flushed in
//!   batches called *global checkpoint (GCP) epochs*. Commit notification is
//!   decoupled from durable notification: to the CC mechanisms a committed
//!   but not-yet-durable transaction is indistinguishable from a durable
//!   one, so durability does not extend the time locks are held. Recovery
//!   discards transactions whose global epoch id is newer than the latest
//!   sealed epoch, which preserves read-from consistency across the
//!   committed survivors.
//! * **Disabled** — the durability-off configuration used by most
//!   performance experiments (the paper's Chapter 4 experiments predate the
//!   durability module).

use crate::key::Key;
use crate::types::{Timestamp, TxnId};
use crate::value::Value;
use crate::wal::{LogDevice, LogRecord};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tebaldi_obs::{Counter, MetricsRegistry};

/// Flushing policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Durability disabled: no records are written.
    Disabled,
    /// Flush at every precommit.
    Synchronous,
    /// Flush in the background every `epoch_interval`; each flush seals the
    /// current GCP epoch.
    Asynchronous {
        /// Length of one GCP epoch.
        epoch_interval: Duration,
    },
}

/// Counters exposed for the durability-overhead experiment (Table 4.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityStats {
    /// Always 0: the log holds no per-operation records (see
    /// [`crate::wal`]). The field exists only because the frozen
    /// `benchmark/` ledger reads it; the `benchmark` change that drops the
    /// read drops the field.
    pub operations: u64,
    /// Local commit (`Precommit`) records appended.
    pub precommits: u64,
    /// Cross-shard 2PC prepare records appended.
    pub prepares: u64,
    /// `Commit` records appended, one per prepare decided commit.
    pub commits: u64,
    /// Device flushes performed.
    pub flushes: u64,
    /// Hardening appends whose flush was absorbed by a concurrent caller's
    /// group-commit flush (flushes saved by coalescing).
    pub coalesced: u64,
    /// Epochs sealed.
    pub epochs_sealed: u64,
}

struct EpochState {
    sealed: u64,
}

struct GroupCommitState {
    /// Sequence number handed to the latest hardening append.
    appended: u64,
    /// Highest sequence number known durable.
    hardened: u64,
    /// True while a leader's device flush is in flight.
    flushing: bool,
}

/// Cross-transaction group commit over one [`LogDevice`].
///
/// Callers append records that must be durable before they may proceed
/// (2PC prepare votes, coordinator commit decisions, synchronous commit
/// notifications). Instead of one device flush per record, concurrent
/// callers coalesce: the first waiter becomes the *leader* and flushes the
/// device once for every record appended so far; records that arrive while
/// that flush is in flight are buffered and hardened by a single follow-up
/// flush whose leader is elected among the waiting followers (condvar
/// handoff). Every caller blocks only until *its own* record is durable.
pub struct GroupCommit {
    device: Arc<dyn LogDevice>,
    state: Mutex<GroupCommitState>,
    hardened_cv: Condvar,
    flushes: Arc<Counter>,
    appends: Arc<Counter>,
    coalesced: Arc<Counter>,
}

impl GroupCommit {
    /// A group-commit funnel over `device` with standalone (unregistered)
    /// counters.
    pub fn new(device: Arc<dyn LogDevice>) -> Self {
        GroupCommit::with_counters(
            device,
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
        )
    }

    /// A funnel whose flush/append/coalesce counters live in a metrics
    /// registry (so snapshots expose them by name).
    pub fn with_counters(
        device: Arc<dyn LogDevice>,
        flushes: Arc<Counter>,
        appends: Arc<Counter>,
        coalesced: Arc<Counter>,
    ) -> Self {
        GroupCommit {
            device,
            state: Mutex::new(GroupCommitState {
                appended: 0,
                hardened: 0,
                flushing: false,
            }),
            hardened_cv: Condvar::new(),
            flushes,
            appends,
            coalesced,
        }
    }

    /// Appends `records` and blocks until they are durable, coalescing the
    /// flush with concurrent callers. The records are appended atomically
    /// with the sequence assignment, so the durable log is always a prefix
    /// of the append order — a crash can lose an unacknowledged suffix but
    /// never punch a hole.
    pub fn append_durable(&self, records: &[LogRecord]) {
        let my_seq = self.append(records);
        self.wait_durable_seq(my_seq);
    }

    /// The append half of [`append_durable`](GroupCommit::append_durable):
    /// puts `records` into the log order and returns the funnel sequence
    /// number to later pass to
    /// [`wait_durable_seq`](GroupCommit::wait_durable_seq). The records are
    /// **not yet durable** when this returns — a caller must not
    /// acknowledge anything that depends on them until the wait completes.
    /// Splitting the two halves is what lets a shard worker pipeline: it
    /// appends one prepare's record, hands the sequence to a completion
    /// loop, and immediately starts the next transaction's body.
    pub fn append(&self, records: &[LogRecord]) -> u64 {
        let my_seq = {
            let mut state = self.state.lock();
            for record in records {
                self.device.append(record);
            }
            state.appended += 1;
            state.appended
        };
        self.appends.inc();
        my_seq
    }

    /// Blocks until every record appended at or below `seq` is durable.
    /// The first waiter becomes the flush leader exactly as in
    /// [`append_durable`](GroupCommit::append_durable); a completion loop
    /// waiting on the highest sequence of a batch hardens the whole batch
    /// with (at most) one device flush.
    pub fn wait_durable_seq(&self, my_seq: u64) {
        let mut led = false;
        let mut state = self.state.lock();
        loop {
            if state.hardened >= my_seq {
                if !led {
                    // Another caller's flush carried this record.
                    self.coalesced.inc();
                }
                return;
            }
            if state.flushing {
                // A flush is in flight but started before this record was
                // appended; wait for the leader to finish, then re-check
                // (one of the waiters becomes the follow-up leader).
                self.hardened_cv.wait(&mut state);
                continue;
            }
            // Leader: flush everything appended so far with one device
            // flush, then wake every waiter at or below the target.
            state.flushing = true;
            let target = state.appended;
            drop(state);
            self.device.flush();
            self.flushes.inc();
            led = true;
            state = self.state.lock();
            state.flushing = false;
            if target > state.hardened {
                state.hardened = target;
            }
            self.hardened_cv.notify_all();
        }
    }

    /// True when every record appended at or below `seq` is already
    /// durable (no wait needed).
    pub fn is_hardened(&self, seq: u64) -> bool {
        self.state.lock().hardened >= seq
    }

    /// Device flushes performed by group leaders.
    pub fn flush_count(&self) -> u64 {
        self.flushes.get()
    }

    /// Hardening appends that went through the funnel.
    pub fn append_count(&self) -> u64 {
        self.appends.get()
    }

    /// Appends that were hardened by another caller's flush (the group
    /// commit win: `coalesced / appends` of the flushes were saved).
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced.get()
    }
}

/// The durability manager shared by the whole database instance.
pub struct DurabilityManager {
    device: Arc<dyn LogDevice>,
    policy: FlushPolicy,
    group: GroupCommit,
    current_epoch: AtomicU64,
    sealed: Mutex<EpochState>,
    stop: Arc<AtomicBool>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    precommits: Arc<Counter>,
    prepares: Arc<Counter>,
    commits: Arc<Counter>,
    flushes: Arc<Counter>,
    epochs_sealed: Arc<Counter>,
    /// Highest funnel sequence holding a *deferred* commit record — a
    /// commit whose versions are already published but whose flush is
    /// still pending. The read barrier below gates read-only
    /// acknowledgements on it.
    last_deferred_commit_seq: AtomicU64,
}

impl std::fmt::Debug for DurabilityManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityManager")
            .field("policy", &self.policy)
            .field("current_epoch", &self.current_epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl DurabilityManager {
    /// Creates a manager over the given device. When the policy is
    /// asynchronous a background flusher thread is started; call
    /// [`DurabilityManager::shutdown`] (or drop the manager) to stop it.
    pub fn new(device: Arc<dyn LogDevice>, policy: FlushPolicy) -> Arc<Self> {
        DurabilityManager::with_metrics(device, policy, &MetricsRegistry::new())
    }

    /// [`DurabilityManager::new`] with the durability counters
    /// registered in `metrics` (under `durability.*` names), so a metrics
    /// snapshot exposes them without a separate stats plumbing path. The
    /// counters are live regardless of whether the registry's histograms
    /// are enabled: [`DurabilityManager::stats`] must always be correct.
    pub fn with_metrics(
        device: Arc<dyn LogDevice>,
        policy: FlushPolicy,
        metrics: &MetricsRegistry,
    ) -> Arc<Self> {
        let mgr = Arc::new(DurabilityManager {
            device: Arc::clone(&device),
            group: GroupCommit::with_counters(
                device,
                metrics.counter("durability.group_flushes"),
                metrics.counter("durability.group_appends"),
                metrics.counter("durability.coalesced"),
            ),
            policy: policy.clone(),
            current_epoch: AtomicU64::new(1),
            sealed: Mutex::new(EpochState { sealed: 0 }),
            stop: Arc::new(AtomicBool::new(false)),
            flusher: Mutex::new(None),
            precommits: metrics.counter("durability.precommits"),
            prepares: metrics.counter("durability.prepares"),
            commits: metrics.counter("durability.commits"),
            flushes: metrics.counter("durability.flushes"),
            epochs_sealed: metrics.counter("durability.epochs_sealed"),
            last_deferred_commit_seq: AtomicU64::new(0),
        });
        if let FlushPolicy::Asynchronous { epoch_interval } = policy {
            let weak = Arc::downgrade(&mgr);
            let stop = Arc::clone(&mgr.stop);
            let handle = std::thread::Builder::new()
                .name("tebaldi-gcp-flusher".to_string())
                .spawn(move || {
                    // Sleep in small slices so shutdown (which joins this
                    // thread) stays prompt even for long GCP epochs.
                    let slice = Duration::from_millis(5).min(epoch_interval);
                    let mut elapsed = Duration::ZERO;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(slice);
                        elapsed += slice;
                        if elapsed < epoch_interval {
                            continue;
                        }
                        elapsed = Duration::ZERO;
                        if let Some(mgr) = weak.upgrade() {
                            mgr.seal_current_epoch();
                        } else {
                            break;
                        }
                    }
                })
                .expect("spawn GCP flusher");
            *mgr.flusher.lock() = Some(handle);
        }
        mgr
    }

    /// Creates a disabled manager (no logging at all).
    pub fn disabled() -> Arc<Self> {
        DurabilityManager::new(
            Arc::new(crate::wal::MemLogDevice::new()),
            FlushPolicy::Disabled,
        )
    }

    /// True when durability is enabled.
    pub fn is_enabled(&self) -> bool {
        self.policy != FlushPolicy::Disabled
    }

    /// The current GCP epoch id.
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch.load(Ordering::Relaxed)
    }

    /// The latest sealed (durably flushed) epoch id.
    pub fn sealed_epoch(&self) -> u64 {
        self.sealed.lock().sealed
    }

    /// Group-commit entry point: appends `records` and returns once they
    /// are durable. Concurrent callers share device flushes — records that
    /// arrive while a flush is in flight are buffered and hardened by a
    /// single follow-up flush, with each caller blocking only until *its*
    /// record is durable; a multi-record call hardens the whole batch with
    /// one flush.
    pub fn flush_coalesced(&self, records: &[LogRecord]) {
        self.group.append_durable(records);
    }

    /// Appends one transaction's whole commit — one `Precommit` record
    /// carrying its write set (`writes`, each key once with the value it
    /// commits), its commit timestamp and its cluster-wide HLC stamp — into
    /// the group-commit funnel, *without waiting for the flush*, and
    /// returns the funnel sequence to pass to
    /// [`wait_group_seq`](DurabilityManager::wait_group_seq): one
    /// (coalesced) flush hardens the transaction. The record takes its
    /// place in the log order immediately, so any dependent transaction's
    /// flush hardens it first (the durable log is always a prefix of the
    /// append order) — a crash can lose an *unacknowledged* suffix but
    /// never an acknowledged commit or a read-from edge.
    ///
    /// `publishes_before_flush` says which side of the flush the caller
    /// makes the versions visible on. A caller that publishes first and
    /// waits later raises the [read barrier](DurabilityManager::read_barrier)
    /// to this commit; a caller that waits first and publishes after must
    /// not — no reader can see its versions until they are durable, and
    /// raising the barrier would make every read-only acknowledgement wait
    /// on flushes of versions it cannot have read.
    ///
    /// Returns `None` when there is nothing left to wait for: durability
    /// disabled, or a non-synchronous policy (the background sealer owns
    /// the flush).
    pub fn commit_transaction(
        &self,
        txn: TxnId,
        writes: Vec<(Key, Value)>,
        commit_ts: Timestamp,
        hlc: u64,
        publishes_before_flush: bool,
    ) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        // Synchronous flushing needs no GCP epochs: every record is durable
        // before its commit is acknowledged, so recovery must never
        // epoch-discard it. Epoch 0 marks "durable by policy" (recovery's
        // unsealed-epoch rule only discards records with an epoch above
        // the last seal).
        let gcp_epoch = if self.policy == FlushPolicy::Synchronous {
            0
        } else {
            self.current_epoch()
        };
        self.precommits.inc();
        let record = LogRecord::Precommit {
            txn,
            gcp_epoch,
            commit_ts,
            hlc,
            writes,
        };
        if self.policy != FlushPolicy::Synchronous {
            self.device.append(&record);
            return None;
        }
        let seq = self.group.append(std::slice::from_ref(&record));
        if publishes_before_flush {
            self.last_deferred_commit_seq
                .fetch_max(seq, Ordering::Relaxed);
        }
        Some(seq)
    }

    /// The read-only acknowledgement barrier. A
    /// deferred commit publishes its versions *before* its flush, so a
    /// read-only transaction may compute its result from
    /// committed-but-not-yet-durable data; writing dependents are safe
    /// automatically (their own records append later, and the durable log
    /// is a prefix of append order), but a read-only transaction appends
    /// nothing — its acknowledgement must instead wait until every
    /// published deferred commit so far is durable, or a crash could lose
    /// data an acknowledged read already reflected. Returns the funnel
    /// sequence to pass to [`wait_group_seq`](DurabilityManager::wait_group_seq),
    /// or `None` when there is nothing unflushed to wait for (also under
    /// non-synchronous policies, where acknowledgements are decoupled from
    /// durability by design).
    pub fn read_barrier(&self) -> Option<u64> {
        if self.policy != FlushPolicy::Synchronous {
            return None;
        }
        let seq = self.last_deferred_commit_seq.load(Ordering::Relaxed);
        if seq == 0 || self.group.is_hardened(seq) {
            None
        } else {
            Some(seq)
        }
    }

    /// Appends the cross-shard two-phase-commit *prepare* record for local
    /// transaction `txn` acting for cluster-global transaction `global`
    /// into the group-commit funnel — under every flushing policy, *without
    /// waiting for the flush* — and returns the funnel sequence to pass to
    /// [`wait_group_seq`](DurabilityManager::wait_group_seq). The shard may
    /// vote "yes" to the coordinator only once that wait has completed: the
    /// record, and therefore the vote, is durable no earlier. Returns `None`
    /// when durability is disabled (no record at all, nothing to wait for).
    pub fn prepare(&self, txn: TxnId, global: u64, writes: Vec<(Key, Value)>) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        self.prepares.inc();
        let record = LogRecord::Prepare {
            txn,
            global,
            writes,
        };
        Some(self.group.append(std::slice::from_ref(&record)))
    }

    /// Blocks until the funnel sequence returned by
    /// [`prepare`](DurabilityManager::prepare) or
    /// [`commit_transaction`](DurabilityManager::commit_transaction) is durable,
    /// electing a group-commit flush leader if no flush is in flight.
    /// Waiting on the highest sequence of a batch hardens the whole batch
    /// with at most one device flush.
    pub fn wait_group_seq(&self, seq: u64) {
        self.group.wait_durable_seq(seq);
    }

    /// Appends an abort marker resolving an earlier prepare record, so
    /// recovery does not have to treat the transaction as in doubt.
    pub fn log_abort(&self, txn: TxnId) {
        if !self.is_enabled() {
            return;
        }
        let record = LogRecord::Abort { txn };
        if self.policy == FlushPolicy::Synchronous {
            self.flush_coalesced(std::slice::from_ref(&record));
        } else {
            self.device.append(&record);
        }
    }

    /// Logs the commit decision of a prepared transaction, whose writes
    /// its `Prepare` record already carries, flushing it under the
    /// synchronous policy. `hlc` is the coordinator's decision stamp, which
    /// 2PC phase two delivers here.
    pub fn commit_stamped(&self, txn: TxnId, commit_ts: Timestamp, hlc: u64) {
        if !self.is_enabled() {
            return;
        }
        self.commits.inc();
        let record = LogRecord::Commit {
            txn,
            global_epoch: self.current_epoch(),
            commit_ts,
            hlc,
        };
        if self.policy == FlushPolicy::Synchronous {
            self.flush_coalesced(std::slice::from_ref(&record));
        } else {
            self.device.append(&record);
        }
    }

    /// Seals the current epoch: flushes the device and records the seal
    /// marker. Invoked by the background flusher and by
    /// [`DurabilityManager::shutdown`].
    pub fn seal_current_epoch(&self) {
        if !self.is_enabled() {
            return;
        }
        let sealing = self.current_epoch.fetch_add(1, Ordering::Relaxed);
        self.device.append(&LogRecord::EpochSeal { epoch: sealing });
        self.device.flush();
        self.flushes.inc();
        self.epochs_sealed.inc();
        let mut sealed = self.sealed.lock();
        if sealing > sealed.sealed {
            sealed.sealed = sealing;
        }
    }

    /// Stops the background flusher (sealing one final epoch first).
    pub fn shutdown(&self) {
        if self.is_enabled() {
            self.seal_current_epoch();
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.flusher.lock().take() {
            let _ = handle.join();
        }
    }

    /// Counter snapshot. `flushes` counts device flushes from both sources:
    /// epoch seals and group-commit leader flushes.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            operations: 0,
            precommits: self.precommits.get(),
            prepares: self.prepares.get(),
            commits: self.commits.get(),
            flushes: self.flushes.get() + self.group.flush_count(),
            coalesced: self.group.coalesced_count(),
            epochs_sealed: self.epochs_sealed.get(),
        }
    }

    /// The underlying device (used by recovery).
    pub fn device(&self) -> Arc<dyn LogDevice> {
        Arc::clone(&self.device)
    }
}

impl Drop for DurabilityManager {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.flusher.lock().take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;
    use crate::wal::MemLogDevice;

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    #[test]
    fn disabled_manager_is_noop() {
        let mgr = DurabilityManager::disabled();
        assert_eq!(
            mgr.commit_transaction(TxnId(1), vec![], Timestamp(1), 0, false),
            None
        );
        assert_eq!(mgr.prepare(TxnId(2), 9, vec![]), None);
        mgr.commit_stamped(TxnId(2), Timestamp(2), 0);
        let stats = mgr.stats();
        assert_eq!(
            (
                stats.precommits,
                stats.prepares,
                stats.commits,
                stats.flushes
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn synchronous_commit_is_durable_once_its_sequence_is_waited() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        let seq = mgr
            .commit_transaction(
                TxnId(1),
                vec![(k(1), Value::Int(5))],
                Timestamp(3),
                0,
                false,
            )
            .expect("a synchronous commit has a flush to wait for");
        assert!(dev.read_back().is_empty(), "appending does not flush");
        mgr.wait_group_seq(seq);
        // One record holds the whole commit.
        assert_eq!(dev.read_back().len(), 1);
    }

    #[test]
    fn only_a_commit_published_before_its_flush_raises_the_read_barrier() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev, FlushPolicy::Synchronous);
        let commit = |txn: u64, publishes_before_flush: bool| {
            mgr.commit_transaction(
                TxnId(txn),
                vec![(k(txn), Value::Int(1))],
                Timestamp(txn),
                0,
                publishes_before_flush,
            )
            .unwrap()
        };
        // Durable-then-visible: no reader can have seen it, nothing to gate.
        let blocking = commit(1, false);
        assert_eq!(mgr.read_barrier(), None);
        // Visible-then-durable: read-only acks wait for exactly this flush.
        let deferred = commit(2, true);
        assert!(deferred > blocking);
        assert_eq!(mgr.read_barrier(), Some(deferred));
        mgr.wait_group_seq(deferred);
        assert_eq!(mgr.read_barrier(), None);
    }

    #[test]
    fn asynchronous_epoch_sealing() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(
            dev.clone(),
            FlushPolicy::Asynchronous {
                epoch_interval: Duration::from_millis(5),
            },
        );
        let epoch = mgr.current_epoch();
        assert!(epoch >= 1);
        let waits = mgr.commit_transaction(
            TxnId(1),
            vec![(k(1), Value::Int(5))],
            Timestamp(1),
            0,
            false,
        );
        assert_eq!(waits, None, "the background sealer owns the flush");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while mgr.sealed_epoch() < epoch {
            assert!(
                std::time::Instant::now() < deadline,
                "background flusher must seal the epoch"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        mgr.shutdown();
        let (seals, commits): (Vec<_>, Vec<_>) = dev
            .read_back()
            .into_iter()
            .partition(|r| matches!(r, LogRecord::EpochSeal { .. }));
        assert!(!seals.is_empty());
        assert!(
            matches!(commits[..], [LogRecord::Precommit { .. }]),
            "one record per commit: {commits:?}"
        );
    }

    #[test]
    fn group_commit_coalesces_concurrent_prepares() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    let seq = mgr
                        .prepare(TxnId(i + 1), 100 + i, vec![(k(i), Value::Int(i as i64))])
                        .unwrap();
                    mgr.wait_group_seq(seq);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every prepare is durable once its sequence has been waited on.
        let durable = dev.read_back();
        assert_eq!(
            durable
                .iter()
                .filter(|r| matches!(r, LogRecord::Prepare { .. }))
                .count(),
            8
        );
        let stats = mgr.stats();
        assert_eq!(stats.prepares, 8);
        // Coalescing bookkeeping: every hardening append either led a flush
        // or piggybacked on a concurrent leader's flush.
        assert_eq!(
            mgr.group.append_count(),
            mgr.group.flush_count() + mgr.group.coalesced_count()
        );
        assert!(stats.flushes <= 8, "never more flushes than records");
    }

    #[test]
    fn group_commit_durable_log_is_a_prefix_of_append_order() {
        let dev = Arc::new(MemLogDevice::new());
        let group = GroupCommit::new(Arc::clone(&dev) as Arc<dyn LogDevice>);
        // Two acknowledged records, then two buffered-but-unacknowledged
        // ones, then a crash: recovery must see exactly the acknowledged
        // prefix — an unacknowledged suffix may vanish, a hole may not.
        for i in 1..=2u64 {
            group.append_durable(&[LogRecord::Abort { txn: TxnId(i) }]);
        }
        dev.append(&LogRecord::Abort { txn: TxnId(3) });
        dev.append(&LogRecord::Abort { txn: TxnId(4) });
        dev.crash();
        let survivors: Vec<u64> = dev
            .read_back()
            .into_iter()
            .map(|r| match r {
                LogRecord::Abort { txn } => txn.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(survivors, vec![1, 2]);
    }
}
