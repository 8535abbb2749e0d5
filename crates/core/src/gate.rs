//! Admission gate used by the online reconfiguration protocols (§5.5).
//!
//! Both reconfiguration protocols need to stop *some* transactions from
//! entering while the configuration changes: the partial restart drains the
//! whole database, the online update drains only the transaction types the
//! change touches. The gate holds only that drain scope; who is in flight
//! is the transaction directory's answer. An attempt registers in the
//! [`TxnRegistry`] before it asks the gate, and a drain sets its scope
//! before it lists the directory's active transactions of drained types and
//! waits for each to end. The scan and the registration take the same
//! directory shard lock, so either the drain's list holds the attempt or
//! the attempt sees the scope. When nothing is draining, admission is one
//! atomic load.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tebaldi_cc::TxnRegistry;
use tebaldi_storage::{TxnId, TxnTypeId};

/// What is currently being drained.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
enum DrainScope {
    /// Nothing — normal operation.
    #[default]
    None,
    /// Every type (partial restart, and the swap of an online update).
    All,
    /// Only the listed types (online update).
    Types(Vec<TxnTypeId>),
}

impl DrainScope {
    fn blocks(&self, ty: TxnTypeId) -> bool {
        match self {
            DrainScope::None => false,
            DrainScope::All => true,
            DrainScope::Types(types) => types.contains(&ty),
        }
    }
}

/// The admission gate.
#[derive(Default)]
pub struct ReconfigGate {
    /// Set while a scope is: the load admission takes when it is clear.
    /// Written under `scope`'s lock; its `Release` store pairs with the
    /// `Acquire` load in [`admits`](ReconfigGate::admits). That a drain
    /// never misses an attempt rests on the directory's shard locks (see
    /// the module docs), not on this ordering.
    draining: AtomicBool,
    scope: Mutex<DrainScope>,
    reopened: Condvar,
}

impl std::fmt::Debug for ReconfigGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReconfigGate").finish()
    }
}

impl ReconfigGate {
    /// Creates an open gate.
    pub fn new() -> Self {
        ReconfigGate::default()
    }

    /// Whether a transaction of type `ty` may start now. Ask only once the
    /// transaction is registered in the directory (see the module docs).
    pub fn admits(&self, ty: TxnTypeId) -> bool {
        !self.draining.load(Ordering::Acquire) || !self.scope.lock().blocks(ty)
    }

    /// Sleeps until the gate admits `ty` or `deadline` passes; false on
    /// timeout (callers abort the attempt).
    pub fn await_admission(&self, ty: TxnTypeId, deadline: Instant) -> bool {
        let mut scope = self.scope.lock();
        while scope.blocks(ty) {
            if self.reopened.wait_until(&mut scope, deadline).timed_out() {
                return !scope.blocks(ty);
            }
        }
        true
    }

    /// Starts draining every type (partial restart's clean-up phase) and
    /// waits until no transaction of `registry` is in flight. Returns
    /// `false` on timeout (the caller may force-abort, as the paper
    /// allows).
    pub fn drain_all(&self, registry: &TxnRegistry, timeout: Duration) -> bool {
        self.drain(registry, DrainScope::All, timeout)
    }

    /// Starts draining only `types` (online update) and waits until none of
    /// their transactions is in flight.
    pub fn drain_types(
        &self,
        registry: &TxnRegistry,
        types: impl IntoIterator<Item = TxnTypeId>,
        timeout: Duration,
    ) -> bool {
        self.drain(
            registry,
            DrainScope::Types(types.into_iter().collect()),
            timeout,
        )
    }

    fn drain(&self, registry: &TxnRegistry, scope: DrainScope, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        {
            let mut current = self.scope.lock();
            *current = scope.clone();
            self.draining.store(true, Ordering::Release);
        }
        // The drain is no transaction: it waits listed as the bootstrap id.
        registry
            .active_of(|ty| scope.blocks(ty))
            .into_iter()
            .all(|txn| {
                !registry
                    .await_end(TxnId::BOOTSTRAP, txn, deadline)
                    .is_active()
            })
    }

    /// Re-opens the gate (apply phase).
    pub fn resume(&self) {
        let mut scope = self.scope.lock();
        *scope = DrainScope::None;
        self.draining.store(false, Ordering::Release);
        drop(scope);
        self.reopened.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, DbConfig, ProcedureCall};
    use std::sync::Arc;
    use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_storage::{Key, TableId, Timestamp, Value};

    const A: TxnTypeId = TxnTypeId(0);
    const B: TxnTypeId = TxnTypeId(1);

    fn soon(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    /// Polls until the drain sleeps on `txn`: its one wait-for edge.
    fn await_drain_on(registry: &TxnRegistry, txn: TxnId) {
        let started = Instant::now();
        while registry.wait_for() != [(TxnId::BOOTSTRAP, txn)] {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "no drain on {txn:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_drain_blocks_new_admissions() {
        let (gate, registry) = (ReconfigGate::new(), TxnRegistry::default());
        assert!(gate.admits(A));
        assert!(gate.drain_all(&registry, Duration::from_millis(50)));
        assert!(!gate.admits(A));
        assert!(!gate.await_admission(A, soon(20)));
        gate.resume();
        assert!(gate.admits(A));
        assert!(gate.await_admission(A, soon(20)));
    }

    #[test]
    fn a_drain_of_some_types_lets_other_types_run() {
        let (gate, registry) = (ReconfigGate::new(), TxnRegistry::default());
        // An active transaction of the undrained type is not waited for.
        registry.register(TxnId(1), A);
        assert!(gate.drain_types(&registry, [B], Duration::from_millis(50)));
        assert!(gate.admits(A), "unaffected type keeps running");
        assert!(!gate.admits(B));
        gate.resume();
        assert!(gate.admits(B));
    }

    #[test]
    fn a_drain_waits_for_an_admitted_transaction() {
        let gate = ReconfigGate::new();
        let registry = TxnRegistry::default();
        registry.register(TxnId(2), A);
        assert!(gate.admits(A));
        std::thread::scope(|scope| {
            let drain = scope.spawn(|| gate.drain_types(&registry, [A], Duration::from_secs(10)));
            await_drain_on(&registry, TxnId(2));
            registry.mark_committed(TxnId(2), Timestamp(1));
            assert!(drain.join().unwrap());
        });
        gate.resume();
    }

    #[test]
    fn a_drain_waits_for_a_prepared_transaction_until_its_decision() {
        let table = TableId(0);
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            A,
            "write",
            vec![(table, AccessMode::Write)],
        ));
        let db = Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![A]))
                .build()
                .unwrap(),
        );
        let (_, vote) = db
            .prepare(&ProcedureCall::new(A), 7, |txn| {
                txn.put(Key::simple(table, 1), Value::Int(1))
            })
            .unwrap();
        let prepared = vote.expect_prepared();
        std::thread::scope(|scope| {
            let drain = scope.spawn(|| {
                db.gate
                    .drain_all(&db.services.registry, Duration::from_secs(10))
            });
            await_drain_on(&db.services.registry, prepared.txn_id());
            assert!(!drain.is_finished(), "a prepared transaction is in flight");
            prepared.commit();
            assert!(drain.join().unwrap());
        });
        db.gate.resume();
    }

    #[test]
    fn a_stuck_drain_times_out() {
        let (gate, registry) = (ReconfigGate::new(), TxnRegistry::default());
        registry.register(TxnId(3), A);
        assert!(!gate.drain_all(&registry, Duration::from_millis(30)));
        gate.resume();
        registry.mark_aborted(TxnId(3));
    }
}
