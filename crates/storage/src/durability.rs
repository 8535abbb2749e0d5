//! The durability protocol (§4.5.4).
//!
//! The manager implements both flushing modes discussed in the paper:
//!
//! * **Synchronous** — every precommit record is flushed before the call
//!   returns, so a committed transaction is durable immediately. This is
//!   the conservative baseline and is what Table 4.2's "expensive" option
//!   corresponds to without batching.
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
    /// Operation records appended.
    pub operations: u64,
    /// Precommit records appended.
    pub precommits: u64,
    /// Cross-shard 2PC prepare records appended.
    pub prepares: u64,
    /// Commit records appended.
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
    sealed_cv: Condvar,
    stop: Arc<AtomicBool>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    operations: Arc<Counter>,
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
            sealed_cv: Condvar::new(),
            stop: Arc::new(AtomicBool::new(false)),
            flusher: Mutex::new(None),
            operations: metrics.counter("durability.operations"),
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

    /// Hardens one transaction's whole commit — every per-data-server
    /// precommit record plus the commit notification — as a single batch:
    /// one (coalesced) flush under the synchronous policy instead of one
    /// per record — stamped with the cluster-wide HLC persisted in the
    /// commit record. The blocking half of
    /// [`commit_transaction_deferred_stamped`](DurabilityManager::commit_transaction_deferred_stamped).
    pub fn commit_transaction_stamped(
        &self,
        txn: TxnId,
        by_shard: Vec<(u32, Vec<(Key, Value)>)>,
        commit_ts: Timestamp,
        hlc: u64,
    ) {
        if let Some(seq) = self.commit_transaction_deferred_stamped(txn, by_shard, commit_ts, hlc) {
            self.wait_group_seq(seq);
        }
    }

    /// The pipelined variant of
    /// [`commit_transaction_stamped`](DurabilityManager::commit_transaction_stamped):
    /// appends the whole batch into the group-commit funnel *without
    /// waiting for the flush* and returns the funnel sequence to pass to
    /// [`wait_group_seq`](DurabilityManager::wait_group_seq) before
    /// acknowledging the commit to the client. Deferring only the wait is
    /// safe: the records take their place in the log order immediately, so
    /// any dependent transaction's flush hardens them first (the durable
    /// log is always a prefix of the append order) — a crash can lose an
    /// *unacknowledged* suffix but never an acknowledged commit or a
    /// read-from edge. Returns `None` when there is nothing left to wait
    /// for: durability disabled, or a non-synchronous policy (the
    /// background sealer owns the flush).
    pub fn commit_transaction_deferred_stamped(
        &self,
        txn: TxnId,
        by_shard: Vec<(u32, Vec<(Key, Value)>)>,
        commit_ts: Timestamp,
        hlc: u64,
    ) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let epoch = if self.policy == FlushPolicy::Synchronous {
            0
        } else {
            self.current_epoch()
        };
        let participants = by_shard.len() as u32;
        let mut records = Vec::with_capacity(by_shard.len() + 1);
        for (shard, writes) in by_shard {
            self.precommits.inc();
            records.push(LogRecord::Precommit {
                txn,
                participants,
                shard,
                gcp_epoch: epoch,
                writes,
            });
        }
        self.commits.inc();
        records.push(LogRecord::Commit {
            txn,
            global_epoch: epoch,
            commit_ts,
            hlc,
        });
        if self.policy != FlushPolicy::Synchronous {
            for record in &records {
                self.device.append(record);
            }
            return None;
        }
        let seq = self.group.append(&records);
        self.last_deferred_commit_seq
            .fetch_max(seq, Ordering::Relaxed);
        Some(seq)
    }

    /// The read-only acknowledgement barrier of the pipelined path. A
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

    /// Logs one write operation.
    pub fn log_operation(&self, txn: TxnId, key: Key, value: &Value) {
        if !self.is_enabled() {
            return;
        }
        self.operations.inc();
        self.device.append(&LogRecord::Operation {
            txn,
            key,
            value: value.clone(),
        });
    }

    /// Logs the precommit record of one participating shard and returns the
    /// GCP epoch id assigned to it. Under the synchronous policy this call
    /// also flushes.
    pub fn precommit(
        &self,
        txn: TxnId,
        shard: u32,
        participants: u32,
        writes: Vec<(Key, Value)>,
    ) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        // Synchronous flushing needs no GCP epochs: every record is durable
        // before the call returns, so recovery must never epoch-discard it.
        // Epoch 0 marks "durable by policy" (recovery's unsealed-epoch rule
        // only discards records with an epoch above the last seal).
        let epoch = if self.policy == FlushPolicy::Synchronous {
            0
        } else {
            self.current_epoch()
        };
        self.precommits.inc();
        let record = LogRecord::Precommit {
            txn,
            participants,
            shard,
            gcp_epoch: epoch,
            writes,
        };
        if self.policy == FlushPolicy::Synchronous {
            self.flush_coalesced(std::slice::from_ref(&record));
        } else {
            self.device.append(&record);
        }
        epoch
    }

    /// Logs the commit notification. `global_epoch` is the maximum of the
    /// epoch ids returned by the participants' precommit calls.
    /// Appends the cross-shard two-phase-commit *prepare* record for local
    /// transaction `txn` acting for cluster-global transaction `global`, and
    /// flushes it synchronously regardless of the flushing policy: the shard
    /// may vote "yes" to the coordinator only once the prepare record is
    /// durable. Returns `true` when a record was written (durability on).
    pub fn prepare(&self, txn: TxnId, global: u64, writes: Vec<(Key, Value)>) -> bool {
        if !self.is_enabled() {
            return false;
        }
        if let Some(seq) = self.prepare_deferred(txn, global, writes) {
            self.wait_group_seq(seq);
        }
        true
    }

    /// The pipelined variant of [`prepare`](DurabilityManager::prepare):
    /// appends the prepare record into the group-commit funnel *without
    /// waiting for the flush* and returns the funnel sequence to pass to
    /// [`wait_group_seq`](DurabilityManager::wait_group_seq). The record —
    /// and therefore the shard's yes-vote — is durable only after that wait
    /// completes. Returns `None` when durability is disabled (no record at
    /// all, nothing to wait for).
    pub fn prepare_deferred(
        &self,
        txn: TxnId,
        global: u64,
        writes: Vec<(Key, Value)>,
    ) -> Option<u64> {
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
    /// [`prepare_deferred`](DurabilityManager::prepare_deferred) is durable,
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

    pub fn commit(&self, txn: TxnId, global_epoch: u64, commit_ts: Timestamp) {
        self.commit_stamped(txn, global_epoch, commit_ts, 0);
    }

    /// [`commit`](DurabilityManager::commit) carrying the cluster-wide HLC
    /// stamp persisted in the commit record (2PC phase two delivers the
    /// coordinator's decision stamp here).
    pub fn commit_stamped(&self, txn: TxnId, global_epoch: u64, commit_ts: Timestamp, hlc: u64) {
        if !self.is_enabled() {
            return;
        }
        // GCP rule: a data server observing a larger global epoch advances
        // its own epoch before running any commit phase, guaranteeing that a
        // reader's epoch is never smaller than its writer's.
        let mut cur = self.current_epoch.load(Ordering::Relaxed);
        while global_epoch > cur {
            match self.current_epoch.compare_exchange(
                cur,
                global_epoch,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.commits.inc();
        let record = LogRecord::Commit {
            txn,
            global_epoch,
            commit_ts,
            hlc,
        };
        if self.policy == FlushPolicy::Synchronous {
            self.flush_coalesced(std::slice::from_ref(&record));
        } else {
            self.device.append(&record);
        }
    }

    /// Seals the current epoch: flushes the device, records the seal marker
    /// and wakes up waiters. Invoked by the background flusher and by
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
        self.sealed_cv.notify_all();
    }

    /// Blocks until the given epoch has been sealed (the transaction that
    /// received this epoch at precommit time is durable), or until the
    /// timeout elapses. Returns `true` when durable.
    pub fn wait_durable(&self, epoch: u64, timeout: Duration) -> bool {
        if !self.is_enabled() || self.policy == FlushPolicy::Synchronous || epoch == 0 {
            return true;
        }
        let mut sealed = self.sealed.lock();
        if sealed.sealed >= epoch {
            return true;
        }
        let deadline = std::time::Instant::now() + timeout;
        while sealed.sealed < epoch {
            if self.sealed_cv.wait_until(&mut sealed, deadline).timed_out() {
                return sealed.sealed >= epoch;
            }
        }
        true
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
            operations: self.operations.get(),
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
        mgr.log_operation(TxnId(1), k(1), &Value::Int(1));
        assert_eq!(mgr.precommit(TxnId(1), 0, 1, vec![]), 0);
        mgr.commit(TxnId(1), 0, Timestamp(1));
        assert_eq!(mgr.stats().precommits, 0);
        assert!(mgr.wait_durable(0, Duration::from_millis(1)));
    }

    #[test]
    fn synchronous_flushes_on_precommit() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        mgr.log_operation(TxnId(1), k(1), &Value::Int(5));
        let epoch = mgr.precommit(TxnId(1), 0, 1, vec![(k(1), Value::Int(5))]);
        mgr.commit(TxnId(1), epoch, Timestamp(3));
        // Everything appended before the flush is durable.
        assert!(dev.read_back().len() >= 2);
        assert!(mgr.wait_durable(epoch, Duration::from_millis(1)));
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
        let epoch = mgr.precommit(TxnId(1), 0, 1, vec![(k(1), Value::Int(5))]);
        assert!(epoch >= 1);
        assert!(
            mgr.wait_durable(epoch, Duration::from_secs(2)),
            "background flusher must seal the epoch"
        );
        assert!(mgr.sealed_epoch() >= epoch);
        mgr.shutdown();
        let records = dev.read_back();
        assert!(records
            .iter()
            .any(|r| matches!(r, LogRecord::EpochSeal { .. })));
    }

    #[test]
    fn group_commit_coalesces_concurrent_prepares() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    mgr.prepare(TxnId(i + 1), 100 + i, vec![(k(i), Value::Int(i as i64))]);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every acknowledged prepare is durable the moment the call returns.
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

    #[test]
    fn commit_advances_epoch_to_global() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev, FlushPolicy::Synchronous);
        assert_eq!(mgr.current_epoch(), 1);
        mgr.commit(TxnId(1), 7, Timestamp(1));
        assert_eq!(mgr.current_epoch(), 7);
        // Smaller global epochs never move the epoch backwards.
        mgr.commit(TxnId(2), 3, Timestamp(2));
        assert_eq!(mgr.current_epoch(), 7);
    }
}
