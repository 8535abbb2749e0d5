//! The one way a transaction blocks.
//!
//! Every blocking rule of the paper — a 2PL/nexus lock wait with deadlocks
//! resolved by timeouts (§4.4.1), RP's trailing rule (§4.4.2), TSO's promise
//! wait (§4.4.4) and the commit-order wait that makes a parent adopt its
//! child's order (§4.2.2) — is the same act: *transaction A sleeps until
//! transaction B makes progress or a deadline passes*. [`Wait::until`] is
//! that act, and the only place in this crate that puts a transaction to
//! sleep, builds a [`CcError::Timeout`] or constructs a [`BlockingEvent`].
//!
//! A mechanism keeps only its state. It hands the sleeping side here as a
//! *step*: a closure that takes the mechanism's own lock and either
//! finishes or names **the transaction currently in the way**, as a
//! [`Ticket`] read from the [`TxnRegistry`] while that lock is still held.
//! The waiter then sleeps on the blocker's parking spot in the registry,
//! holding no lock, and only the blocker moving wakes it (the registry's
//! module docs list the moves and why no wake-up is lost). The waiter →
//! blocker edges are the registry's wait-for graph — where a wound-wait
//! policy or a stall watchdog would read them. Today's policy is the
//! paper's: wait, bounded by `wait_timeout`.
//!
//! Each wait carries its [`WaitLabel`] — which rule, and for a lock wait
//! which mechanism's table — and that label is its timeout's cause.

use crate::error::{CcError, CcResult, WaitLabel};
use crate::events::{BlockingEvent, EventSink};
use crate::mechanism::{NodeEnv, TxnCtx};
use crate::registry::{Ticket, TxnRegistry};
use std::time::{Duration, Instant};
use tebaldi_storage::{NodeId, TxnId, TxnTypeId};

/// What a wait's step found under the mechanism's lock.
pub enum Step<T> {
    /// The wait is over, with this result (e.g. "lock granted").
    Done(T),
    /// This transaction is in the way ([`TxnRegistry::ticket`], taken under
    /// the lock that showed it).
    BlockedOn(Ticket),
}

/// One bounded wait of the transaction in `ctx`.
///
/// The deadline is fixed at the first block — `timeout` from then — so a
/// step that finishes at once never reads the clock, and it is shared by
/// every [`until`](Wait::until) on the same `Wait`: waiting out a set of
/// transactions one after the other is bounded once, not once per member.
pub struct Wait<'a> {
    registry: &'a TxnRegistry,
    events: &'a dyn EventSink,
    node: NodeId,
    timeout: Duration,
    ctx: &'a TxnCtx,
    label: WaitLabel,
    deadline: Option<Instant>,
}

impl<'a> Wait<'a> {
    /// A wait at CC-tree node `node`, bounded by `timeout`, whose blocking
    /// events go to `events` (the blocker's type is looked up in
    /// `registry`).
    pub fn new(
        registry: &'a TxnRegistry,
        events: &'a dyn EventSink,
        node: NodeId,
        timeout: Duration,
        ctx: &'a TxnCtx,
        label: WaitLabel,
    ) -> Self {
        Wait {
            registry,
            events,
            node,
            timeout,
            ctx,
            label,
            deadline: None,
        }
    }

    /// A wait inside the mechanism that owns `env`.
    pub fn at(env: &'a NodeEnv, ctx: &'a TxnCtx, label: WaitLabel) -> Self {
        Wait::new(
            &env.registry,
            &*env.events,
            env.node,
            env.wait_timeout,
            ctx,
            label,
        )
    }

    /// Evaluates `step` until it is [`Step::Done`], parking on the named
    /// blocker whenever it blocks and re-evaluating after every wake-up
    /// (and once more when the deadline passes). Fails with the wait's
    /// [`CcError::Timeout`] when the deadline passes first.
    ///
    /// A call that blocked emits exactly one [`BlockingEvent`] — from its
    /// first block to its return, attributed to its first blocker — and
    /// only when the sink is enabled.
    pub fn until<T>(&mut self, mut step: impl FnMut() -> Step<T>) -> CcResult<T> {
        let mut slept: Option<(TxnId, Instant)> = None;
        let mut timed_out = false;
        let result = loop {
            let ticket = match step() {
                Step::Done(value) => break Ok(value),
                Step::BlockedOn(ticket) => ticket,
            };
            if timed_out {
                break Err(CcError::Timeout(self.label));
            }
            let (_, since) = *slept.get_or_insert_with(|| (ticket.blocker(), Instant::now()));
            let deadline = *self.deadline.get_or_insert(since + self.timeout);
            timed_out = self.registry.park(self.ctx.txn, ticket, deadline);
        };
        if let Some((blocking, start)) = slept.filter(|_| self.events.enabled()) {
            self.events.record(BlockingEvent {
                blocked: self.ctx.txn,
                blocked_type: self.ctx.ty,
                blocking,
                blocking_type: self
                    .registry
                    .type_of(blocking)
                    .unwrap_or(TxnTypeId(u32::MAX)),
                node: self.node,
                start,
                end: Instant::now(),
            });
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::VecSink;
    use crate::lock::{LockManager, LockMode};
    use crate::mechanism::{CcKind, CcMechanism, Lane};
    use crate::procinfo::{AccessMode, ProcedureInfo};
    use crate::rp::Rp;
    use crate::rp_analysis::analyze;
    use crate::topology::Topology;
    use crate::tso::Tso;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tebaldi_storage::{GroupId, Key, TableId, Timestamp};

    /// The waiter (T2), the transaction in its way (T1) and a bystander
    /// whose activity touches the waiter's shard without unblocking it
    /// (T3); the type of `TxnId(n)` is `TxnTypeId(10 + n)`.
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);
    const NODE: NodeId = NodeId(7);

    fn ctx(txn: TxnId) -> TxnCtx {
        TxnCtx::new(txn, TxnTypeId(10 + txn.0 as u32), GroupId(0))
    }

    fn env(timeout_ms: u64) -> (NodeEnv, Arc<VecSink>) {
        let sink = Arc::new(VecSink::new());
        let registry = Arc::new(TxnRegistry::default());
        for txn in [T1, T2, T3] {
            registry.register(txn, ctx(txn).ty, GroupId(0));
        }
        let env = NodeEnv {
            node: NODE,
            events: sink.clone(),
            ..NodeEnv::for_test(Topology::new(), registry, timeout_ms)
        };
        (env, sink)
    }

    fn k(table: u32, id: u64) -> Key {
        Key::simple(TableId(table), id)
    }

    /// One of the four waits, set up so that T2 blocks on T1.
    struct Case {
        label: WaitLabel,
        /// T2's wait.
        block: Box<dyn Fn() -> CcResult<()> + Send + Sync>,
        /// Progress of a bystander, which changes nothing for T2.
        nudge: Box<dyn Fn() + Send + Sync>,
        /// The progress of T1 that T2 waits for.
        release: Box<dyn Fn() + Send + Sync>,
        sink: Arc<VecSink>,
    }

    fn lock_case(timeout_ms: u64) -> Case {
        let (env, sink) = env(timeout_ms);
        // One shard: T3's release is on T2's lock shard.
        let locks = Arc::new(LockManager::new(CcKind::TwoPl, 1));
        let exclusive = |locks: &LockManager, env: &NodeEnv, txn: TxnId, key: Key| {
            locks.acquire(env, &ctx(txn), &key, txn.0, LockMode::Exclusive, "")
        };
        exclusive(&locks, &env, T1, k(0, 1)).unwrap();
        let (l1, l2, e1, e2) = (locks.clone(), locks.clone(), env.clone(), env.clone());
        Case {
            label: WaitLabel::Lock(CcKind::TwoPl),
            block: Box::new(move || exclusive(&l1, &e1, T2, k(0, 1)).map(drop)),
            nudge: Box::new(move || {
                exclusive(&l2, &e2, T3, k(0, 2)).unwrap();
                l2.release_all(T3);
            }),
            // What the engine does at T1's end: release, then wake.
            release: Box::new(move || {
                locks.release_all(T1);
                env.registry.mark_committed(T1, Timestamp(1));
            }),
            sink,
        }
    }

    fn rp_case(timeout_ms: u64) -> Case {
        let (env, sink) = env(timeout_ms);
        let pipeline = ProcedureInfo::new(
            TxnTypeId(0),
            "pipeline",
            vec![
                (TableId(0), AccessMode::Write),
                (TableId(1), AccessMode::Write),
            ],
        );
        let rp = Arc::new(Rp::new(env, analyze(&[&pipeline])));
        // T1 is in step 0; T2 trails it and wants to enter step 1.
        rp.begin(&mut ctx(T1), Lane::leaf()).unwrap();
        rp.begin(&mut ctx(T2), Lane::leaf()).unwrap();
        rp.trail(T2, T1);
        let (rp1, rp2) = (rp.clone(), rp.clone());
        Case {
            label: WaitLabel::PipelineStep,
            block: Box::new(move || rp1.before_write(&mut ctx(T2), Lane::leaf(), &k(1, 2))),
            nudge: Box::new(move || {
                rp2.begin(&mut ctx(T3), Lane::leaf()).unwrap();
                rp2.finish(&mut ctx(T3), Lane::leaf(), None);
            }),
            release: Box::new(move || {
                rp.before_write(&mut ctx(T1), Lane::leaf(), &k(1, 1))
                    .unwrap()
            }),
            sink,
        }
    }

    fn tso_case(timeout_ms: u64) -> Case {
        let (env, sink) = env(timeout_ms);
        let tso = Arc::new(Tso::new(env));
        // T1 (the smaller timestamp) promised the key T2 wants to read.
        let mut promiser = ctx(T1);
        promiser.promised_keys = vec![k(0, 1)];
        tso.begin(&mut promiser, Lane::leaf()).unwrap();
        tso.begin(&mut ctx(T2), Lane::leaf()).unwrap();
        let (tso1, tso2) = (tso.clone(), tso.clone());
        Case {
            label: WaitLabel::PromisedWrite,
            block: Box::new(move || tso1.before_read(&mut ctx(T2), Lane::leaf(), &k(0, 1))),
            nudge: Box::new(move || {
                tso2.begin(&mut ctx(T3), Lane::leaf()).unwrap();
                tso2.finish(&mut ctx(T3), Lane::leaf(), None);
            }),
            release: Box::new(move || tso.after_write(&mut ctx(T1), Lane::leaf(), &k(0, 1))),
            sink,
        }
    }

    fn dependency_case(timeout_ms: u64) -> Case {
        let (env, sink) = env(timeout_ms);
        let registry = Arc::clone(&env.registry);
        // Same directory shard as T1: its commit wakes T1's waiters.
        let neighbour = TxnId(T1.0 + 64);
        registry.register(neighbour, TxnTypeId(0), GroupId(0));
        let (r1, r2) = (registry.clone(), registry.clone());
        Case {
            label: WaitLabel::DependencyCommit,
            block: Box::new(move || {
                let waiter = ctx(T2);
                let mut wait = Wait::at(&env, &waiter, WaitLabel::DependencyCommit);
                r1.wait_finished(&mut wait, T1).map(drop)
            }),
            nudge: Box::new(move || r2.mark_committed(neighbour, Timestamp(1))),
            release: Box::new(move || registry.mark_committed(T1, Timestamp(2))),
            sink,
        }
    }

    const CASES: [fn(u64) -> Case; 4] = [lock_case, rp_case, tso_case, dependency_case];

    /// The one event of a finished wait of T2 on T1, lasting at least
    /// `at_least`.
    fn assert_one_event(case: &Case, at_least: Duration) {
        let events = case.sink.drain();
        assert_eq!(events.len(), 1, "{:?}: one event per wait", case.label);
        let event = events[0];
        assert_eq!((event.blocked, event.blocked_type), (T2, ctx(T2).ty));
        assert_eq!((event.blocking, event.blocking_type), (T1, ctx(T1).ty));
        assert_eq!(event.node, NODE);
        assert!(event.duration() >= at_least, "{:?}", case.label);
    }

    #[test]
    fn every_wait_times_out_with_its_label_and_one_event() {
        let timeout = Duration::from_millis(40);
        for case in CASES.map(|case| case(40)) {
            let started = Instant::now();
            assert_eq!((case.block)().unwrap_err(), CcError::Timeout(case.label));
            assert!(started.elapsed() >= timeout, "{:?}", case.label);
            assert_one_event(&case, timeout);
        }
    }

    #[test]
    fn every_wait_wakes_on_progress_with_one_event_however_often_it_woke() {
        for case in CASES.map(|case| case(10_000)) {
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| (case.block)());
                std::thread::sleep(Duration::from_millis(50));
                for _ in 0..3 {
                    (case.nudge)();
                    std::thread::sleep(Duration::from_millis(2));
                }
                assert!(
                    case.sink.is_empty(),
                    "{:?}: a wake-up that changes nothing is not an event",
                    case.label
                );
                (case.release)();
                assert_eq!(waiter.join().unwrap(), Ok(()), "{:?}", case.label);
            });
            assert_one_event(&case, Duration::from_millis(30));
        }
    }

    #[test]
    fn a_step_that_finishes_at_once_sets_no_deadline_and_emits_nothing() {
        let (env, sink) = env(40);
        let waiter = ctx(T2);
        let mut wait = Wait::at(&env, &waiter, WaitLabel::DependencyCommit);
        // Unknown to the directory: committed long ago.
        let status = env.registry.wait_finished(&mut wait, TxnId(999)).unwrap();
        assert!(status.is_committed());
        assert!(wait.deadline.is_none());
        assert!(sink.is_empty());
    }

    #[test]
    fn waits_on_one_wait_share_its_deadline() {
        let (env, sink) = env(200);
        let waiter = ctx(T2);
        let mut wait = Wait::at(&env, &waiter, WaitLabel::DependencyCommit);
        let started = Instant::now();
        std::thread::scope(|scope| {
            // T1 finishes well inside the bound; T3 never does.
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(120));
                env.registry.mark_committed(T1, Timestamp(1));
            });
            assert!(env.registry.wait_finished(&mut wait, T1).is_ok());
            assert!(env.registry.wait_finished(&mut wait, T3).is_err());
        });
        // 120 ms + a fresh 200 ms would be 320 ms.
        let elapsed = started.elapsed();
        assert!(elapsed >= Duration::from_millis(200), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(300), "{elapsed:?}");
        // One event per dependency that was waited for.
        let blockers: Vec<TxnId> = sink.drain().iter().map(|e| e.blocking).collect();
        assert_eq!(blockers, vec![T1, T3]);
    }

    /// How often T2's wait on T1 evaluates `step`: up to `release` — with
    /// three bystander `nudge`s while it sleeps — and in total.
    fn evaluations<T>(
        env: &NodeEnv,
        step: impl Fn() -> Step<T> + Sync,
        nudge: impl Fn(),
        release: impl FnOnce(),
    ) -> (usize, usize) {
        let count = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let t2 = ctx(T2);
                let mut wait = Wait::at(env, &t2, WaitLabel::DependencyCommit);
                wait.until(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                    step()
                })
                .is_ok()
            });
            while env.registry.wait_for() != [(T2, T1)] {
                std::thread::sleep(Duration::from_millis(1));
            }
            for _ in 0..3 {
                nudge();
                std::thread::sleep(Duration::from_millis(2));
            }
            let before = count.load(Ordering::Relaxed);
            release();
            assert!(waiter.join().unwrap());
            (before, count.load(Ordering::Relaxed))
        })
    }

    #[test]
    fn a_bystander_moving_evaluates_no_sleeping_step() {
        // A commit on T1's directory shard.
        let (deps, _) = env(10_000);
        let neighbour = TxnId(T1.0 + 64);
        deps.registry.register(neighbour, TxnTypeId(0), GroupId(0));
        let evaluated = evaluations(
            &deps,
            || deps.registry.finished(T1),
            || deps.registry.mark_committed(neighbour, Timestamp(1)),
            || deps.registry.mark_committed(T1, Timestamp(2)),
        );
        assert_eq!(evaluated, (1, 2), "dependency wait");

        // A lock released, and its holder's end, on T2's lock shard.
        let (lock_env, _) = env(10_000);
        let locks = LockManager::new(CcKind::TwoPl, 1);
        let exclusive = |txn: TxnId, key: Key| {
            locks
                .acquire(&lock_env, &ctx(txn), &key, txn.0, LockMode::Exclusive, "")
                .unwrap()
        };
        exclusive(T1, k(0, 1));
        let registry = &lock_env.registry;
        let evaluated = evaluations(
            &lock_env,
            || locks.request(registry, T2, &k(0, 1), T2.0, LockMode::Exclusive),
            || {
                exclusive(T3, k(0, 2));
                locks.release_all(T3);
                registry.mark_committed(T3, Timestamp(1));
            },
            || {
                locks.release_all(T1);
                registry.mark_committed(T1, Timestamp(2));
            },
        );
        assert_eq!(evaluated, (1, 2), "lock wait");
    }

    #[test]
    fn a_blocker_that_moves_after_the_ticket_is_not_slept_on() {
        let (env, _) = env(10_000);
        let waiter = ctx(T2);
        let (mut moved, mut evaluated) = (false, 0);
        let started = Instant::now();
        let result = Wait::at(&env, &waiter, WaitLabel::DependencyCommit).until(|| {
            evaluated += 1;
            if moved {
                return Step::Done(());
            }
            let ticket = env.registry.ticket(T1);
            // T1 moves between the decision and the sleep.
            env.registry.wake(T1);
            moved = true;
            Step::BlockedOn(ticket)
        });
        assert_eq!(result, Ok(()));
        assert_eq!(evaluated, 2);
        assert!(started.elapsed() < Duration::from_millis(500));
    }
}
