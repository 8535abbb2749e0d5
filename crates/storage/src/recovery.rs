//! The recovery protocol (§4.5.4).
//!
//! Recovery is a three-step procedure:
//!
//! 1. retrieve logs from persistent storage,
//! 2. reconstruct the database state: discard any transaction that has
//!    fewer precommit records than its number of participating data servers
//!    or whose global epoch id is newer than the latest sealed epoch, then
//!    keep the latest committed version of each object. What is replayed
//!    is the write list of the `Precommit` / `Prepare` records (the log
//!    holds nothing per operation). The engine writes one precommit per
//!    transaction (`participants: 1`), and the completeness rule still
//!    decides a batch a crash tore between `Precommit` and `Commit`:
//!    precommitted everywhere means guaranteed to commit, so it is replayed,
//! 3. reconstruct the (root) concurrency control's internal state — in this
//!    reproduction the CC state is rebuilt lazily by the engine when it
//!    re-opens the recovered store, which matches the paper's observation
//!    that only the root CC needs to know about the recovery transaction.

use crate::key::Key;
use crate::mvstore::MvStore;
use crate::types::{Timestamp, TxnId};
use crate::value::Value;
use crate::wal::{LogDevice, LogRecord};
use std::collections::{HashMap, HashSet};

/// Summary of a recovery run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose writes were reinstalled.
    pub recovered_txns: usize,
    /// Transactions discarded because precommit records were missing.
    pub discarded_incomplete: usize,
    /// Transactions discarded because their epoch was not sealed.
    pub discarded_unsealed_epoch: usize,
    /// Cross-shard transactions found prepared but undecided in the log
    /// (crash between prepare and the coordinator's decision).
    pub in_doubt: usize,
    /// In-doubt transactions the resolver decided to commit.
    pub in_doubt_committed: usize,
    /// In-doubt transactions the resolver decided to abort.
    pub in_doubt_aborted: usize,
    /// Number of keys restored.
    pub keys_restored: usize,
    /// Largest commit timestamp observed (the engine's oracle must start
    /// above it).
    pub max_commit_ts: Timestamp,
    /// Largest transaction id observed (the engine's id sequence must start
    /// above it).
    pub max_txn_id: u64,
    /// Largest HLC stamp observed on any replayed commit (the shard's
    /// hybrid logical clock must re-base past it, exactly like the txn-id
    /// and commit-ts generators).
    pub max_hlc: u64,
    /// The cluster-global ids of the in-doubt transactions the resolver
    /// aborted. Failover re-polls the coordinator's decision log against
    /// this list: a commit decision logged *during* the replay would
    /// otherwise be presumed-aborted and silently lost.
    pub in_doubt_aborted_globals: Vec<u64>,
}

/// Resolves the fate of an in-doubt prepared transaction by its
/// cluster-global id: `Some(stamp)` means the coordinator decided commit
/// with the given HLC decision stamp (`0` when unknown), `None` means
/// abort. Plain standalone recovery uses presumed abort (`|_| None`).
pub type DecisionResolver<'a> = dyn Fn(u64) -> Option<u64> + 'a;

/// An in-doubt prepared transaction awaiting resolution: local id,
/// cluster-global id, and the writes to replay on commit.
type InDoubtTxn = (TxnId, u64, Vec<(Key, Value)>);

#[derive(Default)]
struct TxnLog {
    shards_seen: HashSet<u32>,
    participants: u32,
    max_epoch: u64,
    writes: Vec<(Key, Value)>,
    commit_ts: Option<Timestamp>,
    commit_epoch: Option<u64>,
    hlc: u64,
}

/// Replays the durable records of `device` into a fresh store, resolving
/// any in-doubt prepared transaction by presumed abort.
pub fn recover(device: &dyn LogDevice) -> (MvStore, RecoveryReport) {
    recover_into(device, MvStore::new(8))
}

/// Replays the durable records of `device` into `store` (which is expected
/// to be empty) and returns it together with a [`RecoveryReport`]. In-doubt
/// prepared transactions are resolved by presumed abort; cluster recovery
/// passes the coordinator's decision log through
/// [`recover_with_resolver`] instead.
pub fn recover_into(device: &dyn LogDevice, store: MvStore) -> (MvStore, RecoveryReport) {
    recover_with_resolver(device, store, &|_| None)
}

/// Replays the durable records of `device` into `store`, consulting
/// `resolver` for every prepared-but-undecided cross-shard transaction
/// found in the log (2PC in-doubt resolution, §4.5.4 extended to the
/// cluster layer).
pub fn recover_with_resolver(
    device: &dyn LogDevice,
    store: MvStore,
    resolver: &DecisionResolver<'_>,
) -> (MvStore, RecoveryReport) {
    let records = device.read_back();
    let mut txns: HashMap<TxnId, TxnLog> = HashMap::new();
    let mut prepared: HashMap<TxnId, (u64, Vec<(Key, Value)>)> = HashMap::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    let mut sealed_epoch = 0u64;

    for record in &records {
        match record {
            LogRecord::EpochSeal { epoch } => sealed_epoch = sealed_epoch.max(*epoch),
            LogRecord::Precommit {
                txn,
                participants,
                shard,
                gcp_epoch,
                writes,
            } => {
                let entry = txns.entry(*txn).or_default();
                entry.participants = (*participants).max(entry.participants);
                entry.shards_seen.insert(*shard);
                entry.max_epoch = entry.max_epoch.max(*gcp_epoch);
                entry.writes.extend(writes.iter().cloned());
            }
            LogRecord::Commit {
                txn,
                global_epoch,
                commit_ts,
                hlc,
            } => {
                let entry = txns.entry(*txn).or_default();
                entry.commit_ts = Some(*commit_ts);
                entry.commit_epoch = Some(*global_epoch);
                entry.hlc = *hlc;
            }
            LogRecord::Prepare {
                txn,
                global,
                writes,
            } => {
                let entry = prepared
                    .entry(*txn)
                    .or_insert_with(|| (*global, Vec::new()));
                entry.0 = *global;
                entry.1.extend(writes.iter().cloned());
            }
            LogRecord::Abort { txn } => {
                aborted.insert(*txn);
            }
            LogRecord::Decision { .. } => {
                // Coordinator-log record; never present in a shard's log.
                // The cluster layer reads decision logs directly and feeds
                // them in through `resolver`.
            }
        }
    }

    let mut report = RecoveryReport::default();

    // Local commit decisions: a prepared transaction logs only a Commit
    // record at decide time (its writes are already in the Prepare record),
    // so the commit record alone decides it without consulting the
    // resolver.
    let local_commit: HashMap<TxnId, (Timestamp, u64)> = txns
        .iter()
        .filter_map(|(txn, log)| log.commit_ts.map(|ts| (*txn, (ts, log.hlc))))
        .collect();

    // Order recoverable transactions by commit timestamp (transactions that
    // precommitted on every participant but have no commit record are
    // guaranteed to commit; they are replayed after the explicitly committed
    // ones, ordered by id).
    let mut recoverable: Vec<(TxnId, TxnLog)> = Vec::new();
    for (txn, log) in txns {
        report.max_txn_id = report.max_txn_id.max(txn.0);
        let complete = log.participants > 0 && log.shards_seen.len() as u32 >= log.participants;
        if !complete {
            // Prepared transactions legitimately have no precommit records;
            // they are handled by the in-doubt pass below.
            if !prepared.contains_key(&txn) {
                report.discarded_incomplete += 1;
            }
            continue;
        }
        let epoch = log.commit_epoch.unwrap_or(log.max_epoch);
        if epoch > sealed_epoch {
            report.discarded_unsealed_epoch += 1;
            continue;
        }
        recoverable.push((txn, log));
    }
    // Prepared transactions with a local commit record are fully decided:
    // merge them into the timestamp-sorted replay so per-key version order
    // follows commit order (replaying them after the sorted pass would let
    // an older prepared commit positionally shadow a newer write).
    let replayed_normally: HashSet<TxnId> = recoverable.iter().map(|(txn, _)| *txn).collect();
    for (txn, (_global, writes)) in &prepared {
        if aborted.contains(txn) || replayed_normally.contains(txn) {
            continue;
        }
        if let Some((ts, hlc)) = local_commit.get(txn) {
            recoverable.push((
                *txn,
                TxnLog {
                    writes: writes.clone(),
                    commit_ts: Some(*ts),
                    hlc: *hlc,
                    ..TxnLog::default()
                },
            ));
        }
    }
    recoverable.sort_by_key(|(txn, log)| (log.commit_ts.unwrap_or(Timestamp::MAX), txn.0));

    let mut restored_keys: HashSet<Key> = HashSet::new();
    for (txn, log) in &recoverable {
        report.recovered_txns += 1;
        // A transaction replayed without its commit record (sorted last,
        // by id) takes the next timestamp above everything replayed so
        // far; raising the mark keeps two of them — and the first new
        // transaction after recovery — from sharing one.
        let commit_ts = log.commit_ts.unwrap_or(report.max_commit_ts.next());
        report.max_commit_ts = report.max_commit_ts.max(commit_ts);
        report.max_hlc = report.max_hlc.max(log.hlc);
        for (key, value) in &log.writes {
            restored_keys.insert(*key);
            // Later transactions in the replay order overwrite earlier ones,
            // leaving the latest committed version as the visible value.
            store.with_chain_mut(key, |chain| {
                chain.abort(*txn);
            });
            store.write(key, *txn, value.clone());
            store.commit_writes_stamped(*txn, &[*key], commit_ts, log.hlc);
        }
    }

    // In-doubt resolution: a prepared transaction that neither aborted nor
    // committed locally crashed inside the cross-shard 2PC window. Its fate
    // belongs to the coordinator, so ask the resolver (backed by the
    // coordinator's decision log; presumed abort when there is none).
    let replayed: HashSet<TxnId> = recoverable.iter().map(|(txn, _)| *txn).collect();
    for txn in prepared.keys().chain(aborted.iter()) {
        report.max_txn_id = report.max_txn_id.max(txn.0);
    }
    let mut in_doubt: Vec<InDoubtTxn> = prepared
        .into_iter()
        .filter(|(txn, _)| !aborted.contains(txn) && !replayed.contains(txn))
        .map(|(txn, (global, writes))| (txn, global, writes))
        .collect();
    in_doubt.sort_by_key(|(txn, _, _)| txn.0);
    for (txn, global, writes) in in_doubt {
        report.max_txn_id = report.max_txn_id.max(txn.0);
        report.in_doubt += 1;
        let Some(stamp) = resolver(global) else {
            report.in_doubt_aborted += 1;
            report.in_doubt_aborted_globals.push(global);
            continue;
        };
        report.in_doubt_committed += 1;
        report.recovered_txns += 1;
        report.max_hlc = report.max_hlc.max(stamp);
        let commit_ts = report.max_commit_ts.next();
        report.max_commit_ts = commit_ts;
        for (key, value) in &writes {
            restored_keys.insert(*key);
            store.with_chain_mut(key, |chain| {
                chain.abort(txn);
            });
            store.write(key, txn, value.clone());
            store.commit_writes_stamped(txn, &[*key], commit_ts, stamp);
        }
    }

    report.keys_restored = restored_keys.len();
    (store, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{DurabilityManager, FlushPolicy};
    use crate::mvstore::ReadSpec;
    use crate::schema::TableId;
    use crate::wal::MemLogDevice;
    use std::sync::Arc;
    use std::time::Duration;

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    /// Logs a whole single-data-server commit through the engine's entry
    /// point and hardens it.
    fn commit(mgr: &DurabilityManager, txn: u64, writes: Vec<(Key, Value)>, commit_ts: u64) {
        let seq = mgr.commit_transaction(TxnId(txn), writes, Timestamp(commit_ts), 0, false);
        if let Some(seq) = seq {
            mgr.wait_group_seq(seq);
        }
    }

    /// Logs and hardens a 2PC prepare record.
    fn prepare(mgr: &DurabilityManager, txn: u64, global: u64, writes: Vec<(Key, Value)>) {
        let seq = mgr.prepare(TxnId(txn), global, writes).unwrap();
        mgr.wait_group_seq(seq);
    }

    /// A torn commit: one precommit record of `participants`, no commit
    /// notification — what a crash between the records leaves behind, which
    /// the engine's batched entry point can never write.
    fn lone_precommit(dev: &MemLogDevice, txn: u64, participants: u32, writes: Vec<(Key, Value)>) {
        dev.append(&LogRecord::Precommit {
            txn: TxnId(txn),
            participants,
            shard: 0,
            gcp_epoch: 0,
            writes,
        });
    }

    #[test]
    fn recovers_committed_transactions() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        commit(&mgr, 1, vec![(k(1), Value::Int(11))], 5);
        commit(
            &mgr,
            2,
            vec![(k(1), Value::Int(22)), (k(2), Value::Int(2))],
            9,
        );
        mgr.seal_current_epoch();

        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.recovered_txns, 2);
        assert_eq!(report.keys_restored, 2);
        assert_eq!(report.max_commit_ts, Timestamp(9));
        assert_eq!(report.max_txn_id, 2);
        assert_eq!(
            store.read(&k(1), ReadSpec::LatestCommitted),
            Some(Value::Int(22)),
            "later commit wins"
        );
        assert_eq!(
            store.read(&k(2), ReadSpec::LatestCommitted),
            Some(Value::Int(2))
        );
    }

    #[test]
    fn discards_incomplete_precommits() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        // Transaction claims two participants but only one precommit record
        // was made durable before the crash.
        lone_precommit(&dev, 3, 2, vec![(k(3), Value::Int(3))]);
        mgr.seal_current_epoch();
        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.recovered_txns, 0);
        assert_eq!(report.discarded_incomplete, 1);
        assert_eq!(store.read(&k(3), ReadSpec::LatestCommitted), None);
    }

    #[test]
    fn discards_unsealed_epochs_under_async_flushing() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(
            dev.clone(),
            FlushPolicy::Asynchronous {
                epoch_interval: Duration::from_secs(3600),
            },
        );
        // Sealed epoch: this transaction survives.
        commit(&mgr, 1, vec![(k(1), Value::Int(1))], 1);
        mgr.seal_current_epoch();
        // Unsealed epoch: this one is lost even though it "committed".
        commit(&mgr, 2, vec![(k(2), Value::Int(2))], 2);
        // Crash before the second seal: flush whatever was appended so the
        // records exist, but no EpochSeal for e2.
        mgr.device().flush();

        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.recovered_txns, 1);
        assert_eq!(report.discarded_unsealed_epoch, 1);
        assert_eq!(
            store.read(&k(1), ReadSpec::LatestCommitted),
            Some(Value::Int(1))
        );
        assert_eq!(store.read(&k(2), ReadSpec::LatestCommitted), None);
        mgr.shutdown();
    }

    #[test]
    fn in_doubt_prepares_resolved_by_coordinator_decision() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        // Two prepared transactions crash before any decision record lands;
        // a third prepared one aborted explicitly.
        prepare(&mgr, 7, 42, vec![(k(7), Value::Int(70))]);
        prepare(&mgr, 8, 43, vec![(k(8), Value::Int(80))]);
        prepare(&mgr, 9, 44, vec![(k(9), Value::Int(90))]);
        mgr.log_abort(TxnId(9));
        mgr.seal_current_epoch();

        // Plain recovery presumes abort for every in-doubt transaction.
        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.in_doubt, 2);
        assert_eq!(report.in_doubt_aborted, 2);
        assert_eq!(report.in_doubt_committed, 0);
        assert_eq!(store.read(&k(7), ReadSpec::LatestCommitted), None);

        // With the coordinator's decision log, global 42 commits.
        let (store, report) = recover_with_resolver(dev.as_ref(), MvStore::new(4), &|global| {
            (global == 42).then_some(0)
        });
        assert_eq!(report.in_doubt, 2);
        assert_eq!(report.in_doubt_committed, 1);
        assert_eq!(report.in_doubt_aborted, 1);
        assert_eq!(report.max_txn_id, 9);
        assert_eq!(
            store.read(&k(7), ReadSpec::LatestCommitted),
            Some(Value::Int(70))
        );
        assert_eq!(store.read(&k(8), ReadSpec::LatestCommitted), None);
        assert_eq!(store.read(&k(9), ReadSpec::LatestCommitted), None);
        mgr.shutdown();
    }

    #[test]
    fn prepared_commit_without_precommit_records_recovers() {
        // The decide-commit path of a prepared transaction logs only the
        // Commit record (writes were hardened in the Prepare record): the
        // pair must recover even under the presumed-abort resolver.
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        prepare(&mgr, 6, 40, vec![(k(6), Value::Int(60))]);
        mgr.commit_stamped(TxnId(6), mgr.current_epoch(), Timestamp(4), 0);
        mgr.seal_current_epoch();
        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.in_doubt, 0, "locally decided, not in doubt");
        assert_eq!(report.recovered_txns, 1);
        assert_eq!(report.max_commit_ts, Timestamp(4));
        assert_eq!(
            store.read(&k(6), ReadSpec::LatestCommitted),
            Some(Value::Int(60))
        );
        mgr.shutdown();
    }

    #[test]
    fn prepared_commit_does_not_shadow_newer_writes() {
        // A prepared transaction decided at ts 4 and a later normal
        // transaction overwriting the same key at ts 9: recovery must leave
        // the ts-9 value visible regardless of replay bookkeeping order.
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        prepare(&mgr, 2, 50, vec![(k(1), Value::Int(20))]);
        mgr.commit_stamped(TxnId(2), mgr.current_epoch(), Timestamp(4), 0);
        commit(&mgr, 3, vec![(k(1), Value::Int(30))], 9);
        mgr.seal_current_epoch();
        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.recovered_txns, 2);
        assert_eq!(report.in_doubt, 0);
        assert_eq!(
            store.read(&k(1), ReadSpec::LatestCommitted),
            Some(Value::Int(30)),
            "the newer commit must win"
        );
        mgr.shutdown();
    }

    #[test]
    fn prepared_then_committed_locally_is_not_in_doubt() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        prepare(&mgr, 5, 41, vec![(k(5), Value::Int(50))]);
        commit(&mgr, 5, vec![(k(5), Value::Int(50))], 3);
        mgr.seal_current_epoch();
        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.in_doubt, 0);
        assert_eq!(report.recovered_txns, 1);
        assert_eq!(
            store.read(&k(5), ReadSpec::LatestCommitted),
            Some(Value::Int(50))
        );
        mgr.shutdown();
    }

    #[test]
    fn precommitted_without_commit_record_is_replayed() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        lone_precommit(&dev, 4, 1, vec![(k(4), Value::Int(44))]);
        // The same tear in a batch the engine wrote: another thread's flush
        // landed between the two appends, so the precommit is durable and
        // the commit notification is lost.
        let whole = Arc::new(MemLogDevice::new());
        commit(
            &DurabilityManager::new(whole.clone(), FlushPolicy::Synchronous),
            5,
            vec![(k(5), Value::Int(55)), (k(6), Value::Int(66))],
            9,
        );
        let batch = whole.read_back();
        assert!(matches!(
            batch[..],
            [LogRecord::Precommit { .. }, LogRecord::Commit { .. }]
        ));
        dev.append(&batch[0]);
        mgr.seal_current_epoch();
        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.recovered_txns, 2);
        assert_eq!(report.discarded_incomplete, 0);
        assert_eq!(
            store.read(&k(4), ReadSpec::LatestCommitted),
            Some(Value::Int(44))
        );
        assert_eq!(
            store.read(&k(5), ReadSpec::LatestCommitted),
            Some(Value::Int(55))
        );
        assert_eq!(
            store.read(&k(6), ReadSpec::LatestCommitted),
            Some(Value::Int(66))
        );
        assert_eq!(store.stats().versions, 3, "each write replayed once");
    }

    #[test]
    fn replays_without_a_commit_record_take_distinct_timestamps() {
        let dev = Arc::new(MemLogDevice::new());
        let mgr = DurabilityManager::new(dev.clone(), FlushPolicy::Synchronous);
        commit(&mgr, 1, vec![(k(1), Value::Int(10))], 5);
        lone_precommit(&dev, 3, 1, vec![(k(1), Value::Int(30))]);
        lone_precommit(&dev, 2, 1, vec![(k(1), Value::Int(20))]);
        mgr.seal_current_epoch();
        let (store, report) = recover(dev.as_ref());
        assert_eq!(report.recovered_txns, 3);
        // Replayed after the committed one, in id order, one timestamp each.
        let at = |ts| store.read(&k(1), ReadSpec::SnapshotBefore(Timestamp(ts)));
        assert_eq!(at(6), Some(Value::Int(10)));
        assert_eq!(at(7), Some(Value::Int(20)));
        assert_eq!(at(8), Some(Value::Int(30)));
        assert_eq!(
            store.read(&k(1), ReadSpec::LatestCommitted),
            Some(Value::Int(30)),
            "the later transaction id wins"
        );
        assert_eq!(
            report.max_commit_ts,
            Timestamp(7),
            "the oracle must restart above every timestamp handed out"
        );
    }
}
