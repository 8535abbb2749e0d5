//! The recovery protocol (§4.5.4).
//!
//! Recovery is a three-step procedure:
//!
//! 1. retrieve logs from persistent storage,
//! 2. reconstruct the database state: discard any local commit whose GCP
//!    epoch is newer than the latest sealed epoch, then keep the latest
//!    committed version of each object. A `Precommit` record is a whole
//!    local commit — its write list and its commit stamp — and a `Prepare`
//!    replays its write list once its `Commit` record, or else the
//!    coordinator's decision, commits it; the log holds nothing per
//!    operation,
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

/// Replays the durable records of `device` into a fresh store, resolving
/// any in-doubt prepared transaction by presumed abort.
pub fn recover(device: &dyn LogDevice) -> (MvStore, RecoveryReport) {
    recover_with_resolver(&device.read_back(), MvStore::new(8), &|_| None)
}

/// Replays `records` — a log's durable records, in append order — into
/// `store` (which must be empty: the report counts its keys as the keys
/// restored) and returns it together with a
/// [`RecoveryReport`], consulting `resolver` for every prepared-but-
/// undecided cross-shard transaction (2PC in-doubt resolution, §4.5.4
/// extended to the cluster layer).
pub fn recover_with_resolver(
    records: &[LogRecord],
    store: MvStore,
    resolver: &DecisionResolver<'_>,
) -> (MvStore, RecoveryReport) {
    let mut report = RecoveryReport::default();
    let mut sealed_epoch = 0u64;
    let mut local = Vec::new();
    let mut prepared = HashMap::new();
    let mut decided: HashMap<TxnId, (Timestamp, u64)> = HashMap::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    for record in records {
        let txn = match record {
            LogRecord::EpochSeal { epoch } => {
                sealed_epoch = sealed_epoch.max(*epoch);
                continue;
            }
            // Coordinator-log record; never present in a shard's log. The
            // cluster layer reads decision logs directly and feeds them in
            // through `resolver`.
            LogRecord::Decision { .. } => continue,
            LogRecord::Precommit {
                txn,
                gcp_epoch,
                commit_ts,
                hlc,
                writes,
            } => {
                local.push((*txn, *gcp_epoch, *commit_ts, *hlc, writes.as_slice()));
                txn
            }
            LogRecord::Prepare {
                txn,
                global,
                writes,
            } => {
                prepared.insert(*txn, (*global, writes.as_slice()));
                txn
            }
            LogRecord::Commit {
                txn,
                commit_ts,
                hlc,
                ..
            } => {
                decided.insert(*txn, (*commit_ts, *hlc));
                txn
            }
            LogRecord::Abort { txn } => {
                aborted.insert(*txn);
                txn
            }
        };
        report.max_txn_id = report.max_txn_id.max(txn.0);
    }

    // A local commit survives unless its epoch was never sealed; a prepare
    // its own `Commit` record decided survives whatever that record's epoch.
    let mut replay = Vec::new();
    for (txn, epoch, commit_ts, hlc, writes) in local {
        if epoch > sealed_epoch {
            report.discarded_unsealed_epoch += 1;
        } else {
            replay.push((txn, commit_ts, hlc, writes));
        }
    }
    let committed_locally: HashSet<TxnId> = replay.iter().map(|(txn, ..)| *txn).collect();
    // A prepare that neither aborted nor committed crashed inside the
    // cross-shard 2PC window: its fate belongs to the coordinator.
    let mut in_doubt = Vec::new();
    for (txn, (global, writes)) in prepared {
        if aborted.contains(&txn) || committed_locally.contains(&txn) {
            continue;
        }
        match decided.get(&txn) {
            Some(&(commit_ts, hlc)) => replay.push((txn, commit_ts, hlc, writes)),
            None => in_doubt.push((txn, global, writes)),
        }
    }

    // Replay in commit order, so per-key version order follows it.
    replay.sort_by_key(|&(txn, commit_ts, ..)| (commit_ts, txn.0));
    for (txn, commit_ts, hlc, writes) in replay {
        report.recovered_txns += 1;
        report.max_commit_ts = report.max_commit_ts.max(commit_ts);
        report.max_hlc = report.max_hlc.max(hlc);
        install(&store, txn, writes, commit_ts, hlc);
    }

    // In-doubt resolution: ask the resolver (backed by the coordinator's
    // decision log; presumed abort when there is none).
    in_doubt.sort_by_key(|(txn, ..)| txn.0);
    for (txn, global, writes) in in_doubt {
        report.in_doubt += 1;
        let Some(stamp) = resolver(global) else {
            report.in_doubt_aborted += 1;
            report.in_doubt_aborted_globals.push(global);
            continue;
        };
        report.in_doubt_committed += 1;
        report.recovered_txns += 1;
        report.max_hlc = report.max_hlc.max(stamp);
        report.max_commit_ts = report.max_commit_ts.next();
        install(&store, txn, writes, report.max_commit_ts, stamp);
    }

    report.keys_restored = store.stats().keys;
    (store, report)
}

/// Installs `txn`'s writes as committed at `commit_ts`, stamped `hlc`.
/// Later transactions in the replay order overwrite earlier ones, leaving
/// the latest committed version as the visible value.
fn install(store: &MvStore, txn: TxnId, writes: &[(Key, Value)], commit_ts: Timestamp, hlc: u64) {
    for (key, value) in writes {
        store.with_chain_mut(key, |chain| {
            chain.abort(txn);
        });
        store.write(key, txn, value.clone());
        store.commit_writes_stamped(txn, &[*key], commit_ts, hlc);
    }
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
        let (store, report) = recover_with_resolver(&dev.read_back(), MvStore::new(4), &|global| {
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
        mgr.commit_stamped(TxnId(6), Timestamp(4), 0);
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
        mgr.commit_stamped(TxnId(2), Timestamp(4), 0);
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
}
