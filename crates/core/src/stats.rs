//! Engine-level counters.
//!
//! The evaluation reports throughput, abort rates and per-mechanism abort
//! attribution. The engine counts them in its database's own
//! [`MetricsRegistry`](tebaldi_obs::MetricsRegistry), the one stats system
//! that durability, the store and the shard pipeline already report to:
//!
//! * `db.committed` — committed transactions;
//! * one counter per abort cause ([`CcError::cause`]):
//!   `db.aborts.<mechanism>.<what>` for a timeout's wait,
//!   `db.aborts.<mechanism>.<text>` for a conflict's reason and
//!   `db.aborts.<mechanism>` for the other variants — created by the first
//!   abort with that cause;
//! * `db.aborts.2pc` — prepared parts the 2PC coordinator decided to abort.
//!
//! Counters stay live in a [disabled](tebaldi_obs::MetricsRegistry::disabled)
//! registry, and they reach `ShardRequest::Metrics` and a cluster's merged
//! snapshot like any other. Latency percentiles are measured by the
//! benchmark driver in `tebaldi-workloads`, which is where the paper
//! measures them too (at the closed-loop clients).

use crate::db::Database;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tebaldi_cc::CcError;
use tebaldi_obs::metrics::Counter;

/// A snapshot of the engine counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transaction attempts.
    pub aborted: u64,
    /// Aborts attributed to each mechanism (by [`CcError::mechanism`], and
    /// `"2pc"` for a coordinator's abort of a prepared part).
    pub aborts_by_mechanism: HashMap<String, u64>,
}

impl StatsSnapshot {
    /// Abort rate over all attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }
}

/// Abort counters, indexed by [`CcError::cause`], then the coordinator's
/// abort of a prepared part: each cause's mechanism and its handle into the
/// registry, set by the first abort with the cause.
pub(crate) type AbortCounters = [OnceLock<(&'static str, Arc<Counter>)>; CcError::CAUSES + 1];

/// The slot of a prepared part the coordinator aborted.
const DECIDED_ABORT: usize = CcError::CAUSES;

impl Database {
    /// Counts a commit.
    pub(crate) fn record_commit(&self) {
        self.committed.inc();
    }

    /// Counts an aborted attempt under its cause.
    pub(crate) fn record_abort(&self, err: &CcError) {
        let mechanism = err.mechanism();
        self.count_abort(err.cause(), mechanism, || match err {
            CcError::Timeout(label) => format!("db.aborts.{mechanism}.{}", label.what()),
            CcError::Conflict(reason) => format!("db.aborts.{mechanism}.{}", reason.text()),
            _ => format!("db.aborts.{mechanism}"),
        });
    }

    /// Counts a prepared part the coordinator decided to abort.
    pub(crate) fn record_decided_abort(&self) {
        self.count_abort(DECIDED_ABORT, "2pc", || "db.aborts.2pc".to_string());
    }

    fn count_abort(&self, slot: usize, mechanism: &'static str, name: impl FnOnce() -> String) {
        let (_, counter) =
            self.aborts[slot].get_or_init(|| (mechanism, self.metrics.counter(&name())));
        counter.inc();
    }

    /// Engine counters, read from the registry's `db.*` counters.
    pub fn stats(&self) -> StatsSnapshot {
        let mut stats = StatsSnapshot {
            committed: self.committed.get(),
            ..StatsSnapshot::default()
        };
        for (mechanism, counter) in self.aborts.iter().filter_map(OnceLock::get) {
            let count = counter.get();
            stats.aborted += count;
            *stats
                .aborts_by_mechanism
                .entry(mechanism.to_string())
                .or_default() += count;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbConfig, ProcedureCall};
    use tebaldi_cc::{
        AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet, Reason, WaitLabel,
    };
    use tebaldi_obs::MetricsRegistry;
    use tebaldi_storage::{Key, TableId, TxnTypeId, Value};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);

    fn db(metrics: MetricsRegistry) -> Arc<Database> {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "write",
            vec![(TABLE, AccessMode::Write)],
        ));
        Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                .metrics(Arc::new(metrics))
                .build()
                .unwrap(),
        )
    }

    fn call() -> ProcedureCall {
        ProcedureCall::new(TY)
    }

    /// Two commits, then one abort each of a lock timeout, a request, a
    /// body's own conflict and a coordinator's decision.
    fn run_with_four_causes(db: &Arc<Database>) {
        let key = Key::simple(TABLE, 1);
        db.execute(&call(), |txn| txn.put(Key::simple(TABLE, 2), Value::Int(2)))
            .unwrap();
        let (_, vote) = db
            .prepare(&call(), 7, |txn| txn.put(key, Value::Int(1)))
            .unwrap();
        let prepared = vote.expect_prepared();
        let contender = db.execute(&call(), |txn| txn.put(key, Value::Int(9)));
        assert_eq!(
            contender,
            Err(CcError::Timeout(WaitLabel::Lock(CcKind::TwoPl)))
        );
        drop(prepared);
        let requested = db.execute(&call(), |txn| Err::<(), _>(txn.request_abort()));
        assert_eq!(requested, Err(CcError::Requested));
        let vetoed = CcError::Conflict(Reason::BodyNoOp);
        assert_eq!(
            db.execute(&call(), |_| Err::<(), _>(vetoed.clone())),
            Err(vetoed)
        );
        db.execute(&call(), |txn| txn.put(key, Value::Int(3)))
            .unwrap();
    }

    #[test]
    fn stats_are_the_registrys_db_counters() {
        let db = db(MetricsRegistry::new());
        run_with_four_causes(&db);
        let stats = db.stats();
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.aborted, 4);
        let expected: HashMap<String, u64> = ["2PL", "2pc", "engine", "seats-workload"]
            .into_iter()
            .map(|mechanism| (mechanism.to_string(), 1))
            .collect();
        assert_eq!(stats.aborts_by_mechanism, expected);
        assert!((stats.abort_rate() - 4.0 / 6.0).abs() < 1e-9);

        // The same numbers, read from the registry snapshot.
        let snapshot = db.metrics().snapshot();
        assert_eq!(snapshot.counter("db.committed"), Some(stats.committed));
        let aborts: Vec<(&str, u64)> = snapshot
            .counters
            .iter()
            .filter_map(|(name, n)| Some((name.strip_prefix("db.aborts.")?, *n)))
            .collect();
        assert_eq!(
            aborts,
            [
                ("2PL.lock", 1),
                ("2pc", 1),
                ("engine", 1),
                ("seats-workload.reservation no-op", 1),
            ]
        );
        let mut by_mechanism: HashMap<String, u64> = HashMap::new();
        for (name, n) in &aborts {
            let mechanism = name.split('.').next().unwrap();
            *by_mechanism.entry(mechanism.to_string()).or_default() += n;
        }
        assert_eq!(by_mechanism, stats.aborts_by_mechanism);
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }

    #[test]
    fn a_disabled_registry_still_counts_commits_and_aborts() {
        let db = db(MetricsRegistry::disabled());
        run_with_four_causes(&db);
        let stats = db.stats();
        assert_eq!((stats.committed, stats.aborted), (2, 4));
        assert_eq!(db.metrics().snapshot().counter("db.committed"), Some(2));
    }

    #[test]
    fn each_cause_counts_alone_under_concurrency() {
        let db = db(MetricsRegistry::new());
        let causes = [
            CcError::Conflict(Reason::Pivot),
            CcError::Conflict(Reason::FirstCommitterWins),
            CcError::Timeout(WaitLabel::Lock(CcKind::TwoPl)),
            CcError::DependencyAborted,
        ];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (db, causes) = (&db, &causes);
                scope.spawn(move || {
                    for i in 0..1000 {
                        db.record_abort(&causes[(t + i) % causes.len()]);
                    }
                });
            }
        });
        let snapshot = db.metrics().snapshot();
        for name in [
            "db.aborts.SSI.pivot detected",
            "db.aborts.SSI.first-committer-wins (concurrent committed write)",
            "db.aborts.2PL.lock",
            "db.aborts.dependency",
        ] {
            assert_eq!(snapshot.counter(name), Some(1000), "{name}");
        }
        let stats = db.stats();
        assert_eq!(stats.aborted, 4000);
        assert_eq!(stats.aborts_by_mechanism["SSI"], 2000);
        assert_eq!(stats.aborts_by_mechanism["2PL"], 1000);
        assert_eq!(stats.aborts_by_mechanism["dependency"], 1000);
    }
}
