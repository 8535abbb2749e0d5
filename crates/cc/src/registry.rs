//! The shared transaction directory, and the one place a transaction sleeps.
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
//! Every entry is also a **parking spot**: a blocked transaction — behind a
//! lock holder, a pipeline predecessor, a promiser or a dependency — sleeps
//! listed under the one transaction it named, and only that transaction
//! *moving* wakes it: its end ([`mark_committed`] / [`mark_aborted`], which
//! the engine calls after every mechanism has released its resources), RP's
//! step commit or a fulfilled TSO promise ([`wake`]). The waiter lists are
//! the wait-for graph ([`wait_for`]).
//!
//! A wake-up cannot be lost: a move bumps the entry's *epoch*, and a blocked
//! step reads the epoch into a [`Ticket`] while it still holds the lock that
//! showed the blocker in its way. A later move either finds the waiter
//! listed and unparks it, or changed the epoch first and the waiter does not
//! sleep. Lock order: a mechanism's own lock, then one directory shard —
//! never the reverse; only [`compact`] holds several shards.
//!
//! The directory is sharded to keep it off the contention critical path.
//!
//! [`mark_committed`]: TxnRegistry::mark_committed
//! [`mark_aborted`]: TxnRegistry::mark_aborted
//! [`wake`]: TxnRegistry::wake
//! [`wait_for`]: TxnRegistry::wait_for
//! [`compact`]: TxnRegistry::compact

use crate::error::CcResult;
use crate::wait::{Step, Wait};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread::{self, Thread};
use std::time::Instant;
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

struct TxnInfo {
    status: TxnStatus,
    ty: TxnTypeId,
    group: GroupId,
    /// The compaction generation of the registration, then of the finish.
    stamp: u32,
    /// Bumped by every move of the transaction.
    epoch: u32,
}

/// A transaction asleep on another.
struct Parked {
    blocker: TxnId,
    waiter: TxnId,
    thread: Thread,
}

/// One shard: its transactions, and the waiters parked on them.
#[derive(Default)]
struct Shard {
    txns: HashMap<TxnId, TxnInfo>,
    parked: Vec<Parked>,
}

/// The transaction directory.
pub struct TxnRegistry {
    shards: Vec<Mutex<Shard>>,
    /// Advanced by every [`compact`](TxnRegistry::compact) while it holds
    /// all shards, and read under one: the shard mutexes order it, so it is
    /// accessed `Relaxed`.
    generation: AtomicU32,
}

/// A blocker's epoch as a waiter saw it: a wait on it ends when the blocker
/// moves past it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    blocker: TxnId,
    /// `None` when the blocker was not in the directory.
    epoch: Option<u32>,
}

impl Ticket {
    /// The transaction in the way.
    pub fn blocker(&self) -> TxnId {
        self.blocker
    }
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
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            generation: AtomicU32::new(0),
        }
    }
}

impl TxnRegistry {
    fn shard(&self, txn: TxnId) -> &Mutex<Shard> {
        &self.shards[(txn.0 as usize) % self.shards.len()]
    }

    /// Registers a starting transaction.
    pub fn register(&self, txn: TxnId, ty: TxnTypeId, group: GroupId) {
        let info = TxnInfo {
            status: TxnStatus::Active,
            ty,
            group,
            stamp: self.generation.load(Ordering::Relaxed),
            epoch: 0,
        };
        self.shard(txn).lock().txns.insert(txn, info);
    }

    /// Marks a transaction committed and wakes the transactions waiting on
    /// it.
    pub fn mark_committed(&self, txn: TxnId, ts: Timestamp) {
        self.moved(txn, Some(TxnStatus::Committed(ts)));
    }

    /// Marks a transaction aborted and wakes the transactions waiting on
    /// it.
    pub fn mark_aborted(&self, txn: TxnId) {
        self.moved(txn, Some(TxnStatus::Aborted));
    }

    /// `txn` made progress its waiters may have been waiting for (RP's step
    /// commit, a fulfilled TSO promise): wakes exactly them.
    pub fn wake(&self, txn: TxnId) {
        self.moved(txn, None);
    }

    fn moved(&self, txn: TxnId, end: Option<TxnStatus>) {
        let woken: Vec<Parked> = {
            let mut shard = self.shard(txn).lock();
            let Some(info) = shard.txns.get_mut(&txn) else {
                return;
            };
            if let Some(status) = end {
                info.status = status;
                info.stamp = self.generation.load(Ordering::Relaxed);
            }
            info.epoch = info.epoch.wrapping_add(1);
            shard.parked.extract_if(.., |p| p.blocker == txn).collect()
        };
        for parked in woken {
            parked.thread.unpark();
        }
    }

    /// The ticket of a wait on `txn`. Take it under the lock that showed
    /// `txn` in the way (see the module docs).
    pub fn ticket(&self, txn: TxnId) -> Ticket {
        let epoch = self.shard(txn).lock().txns.get(&txn).map(|i| i.epoch);
        Ticket {
            blocker: txn,
            epoch,
        }
    }

    /// Sleeps `waiter` — the calling thread — on `ticket`'s blocker until
    /// the blocker moves past the ticket or `deadline` passes; true when the
    /// deadline passed. Returns at once when the blocker has moved already.
    pub(crate) fn park(&self, waiter: TxnId, ticket: Ticket, deadline: Instant) -> bool {
        let Some(epoch) = ticket.epoch else {
            // Nobody moves a transaction the directory does not know.
            thread::sleep(deadline.saturating_duration_since(Instant::now()));
            return true;
        };
        let blocker = ticket.blocker;
        let me = thread::current();
        let mut listed = false;
        loop {
            let mut shard = self.shard(blocker).lock();
            // A move unlists the blocker's waiters as it bumps the epoch, and
            // compaction as it drops the entry: an unchanged epoch means
            // still listed.
            if shard.txns.get(&blocker).is_none_or(|i| i.epoch != epoch) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                shard.parked.retain(|p| p.thread.id() != me.id());
                return true;
            }
            if !listed {
                let thread = me.clone();
                shard.parked.push(Parked {
                    blocker,
                    waiter,
                    thread,
                });
                listed = true;
            }
            drop(shard);
            thread::park_timeout(deadline - now);
        }
    }

    /// The wait-for graph: one `(waiter, blocker)` edge per transaction
    /// asleep on another.
    pub fn wait_for(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for shard in &self.shards {
            edges.extend(shard.lock().parked.iter().map(|p| (p.waiter, p.blocker)));
        }
        edges
    }

    /// Current status. Unknown transactions (already compacted away, or the
    /// bootstrap loader) are reported as committed at time zero.
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        self.shard(txn)
            .lock()
            .txns
            .get(&txn)
            .map(|i| i.status)
            .unwrap_or(TxnStatus::Committed(Timestamp::ZERO))
    }

    /// The leaf group a transaction was assigned to, if still known.
    pub fn group_of(&self, txn: TxnId) -> Option<GroupId> {
        self.shard(txn).lock().txns.get(&txn).map(|i| i.group)
    }

    /// The static type of a transaction, if still known.
    pub fn type_of(&self, txn: TxnId) -> Option<TxnTypeId> {
        self.shard(txn).lock().txns.get(&txn).map(|i| i.ty)
    }

    /// Blocks `wait`'s transaction until `txn` is no longer active and
    /// returns `txn`'s final status. Unknown transactions count as
    /// committed, as in [`status`](TxnRegistry::status).
    pub fn wait_finished(&self, wait: &mut Wait<'_>, txn: TxnId) -> CcResult<TxnStatus> {
        wait.until(|| self.finished(txn))
    }

    /// One evaluation of [`wait_finished`](TxnRegistry::wait_finished).
    pub(crate) fn finished(&self, txn: TxnId) -> Step<TxnStatus> {
        match self.shard(txn).lock().txns.get(&txn) {
            Some(info) if info.status.is_active() => Step::BlockedOn(Ticket {
                blocker: txn,
                epoch: Some(info.epoch),
            }),
            Some(info) => Step::Done(info.status),
            None => Step::Done(TxnStatus::Committed(Timestamp::ZERO)),
        }
    }

    /// Forgets finished transactions no active one can still ask about —
    /// those that finished before every active transaction registered — and
    /// returns how many. Called periodically by the engine's GC cycle to
    /// bound memory use in long runs.
    ///
    /// A transaction that read another's uncommitted write registered
    /// before the writer finished, and asks for the writer's status at its
    /// own commit; an unknown id reads as committed, so forgetting the
    /// writer any earlier would let an aborted write pass as a committed
    /// one. Each entry is stamped with the generation of its registration
    /// and then of its finish; the generation advances here, with every
    /// shard held, so two stamps of different generations are ordered by
    /// this call.
    pub fn compact(&self) -> usize {
        let mut shards: Vec<_> = self.shards.iter().map(|shard| shard.lock()).collect();
        let oldest_active = shards
            .iter()
            .flat_map(|shard| shard.txns.values())
            .filter(|info| info.status.is_active())
            .map(|info| info.stamp)
            .min()
            .unwrap_or(u32::MAX);
        let mut removed = 0;
        let mut released = Vec::new();
        for shard in &mut shards {
            let Shard { txns, parked } = &mut **shard;
            let before = txns.len();
            txns.retain(|_, info| info.status.is_active() || info.stamp >= oldest_active);
            removed += before - txns.len();
            released.extend(parked.extract_if(.., |p| !txns.contains_key(&p.blocker)));
        }
        self.generation.fetch_add(1, Ordering::Relaxed);
        drop(shards);
        for parked in released {
            parked.thread.unpark();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WaitLabel;
    use crate::events::NullSink;
    use crate::mechanism::TxnCtx;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;
    use tebaldi_storage::NodeId;

    impl TxnRegistry {
        fn active_count(&self) -> usize {
            self.shards
                .iter()
                .map(|s| {
                    s.lock()
                        .txns
                        .values()
                        .filter(|i| i.status.is_active())
                        .count()
                })
                .sum()
        }
    }

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
        // T1 registered before T2 finished: it may have read T2's write and
        // will ask for T2's status at its commit.
        assert_eq!(r.compact(), 0);
        assert_eq!(r.status(TxnId(2)), TxnStatus::Aborted);
        // A transaction registered after T2 finished does not hold it.
        r.register(TxnId(3), TxnTypeId(0), GroupId(0));
        r.mark_committed(TxnId(1), Timestamp(1));
        assert_eq!(r.compact(), 1);
        assert_eq!(r.group_of(TxnId(2)), None);
        // T1 finished in a generation T3 may have seen it active in.
        assert_eq!(r.group_of(TxnId(1)), Some(GroupId(0)));
        r.mark_committed(TxnId(3), Timestamp(2));
        assert_eq!(r.compact(), 2);
        assert_eq!(r.active_count(), 0);
    }

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    fn waiter_ctx() -> TxnCtx {
        TxnCtx::new(T2, TxnTypeId(0), GroupId(0))
    }

    /// A wait of `ctx`'s transaction bounded by `timeout_ms`.
    fn wait<'a>(r: &'a TxnRegistry, ctx: &'a TxnCtx, timeout_ms: u64) -> Wait<'a> {
        Wait::new(
            r,
            &NullSink,
            NodeId(0),
            Duration::from_millis(timeout_ms),
            ctx,
            WaitLabel::DependencyCommit,
        )
    }

    /// Polls until the wait-for graph is `edges`.
    fn await_graph(r: &TxnRegistry, edges: &[(TxnId, TxnId)]) {
        let started = Instant::now();
        while r.wait_for() != edges {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{:?}",
                r.wait_for()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_sleeper_is_an_edge_of_the_wait_for_graph_until_woken() {
        let r = TxnRegistry::default();
        r.register(T1, TxnTypeId(0), GroupId(0));
        r.register(T2, TxnTypeId(0), GroupId(0));
        thread::scope(|scope| {
            let sleeper = scope.spawn(|| {
                let ctx = waiter_ctx();
                r.wait_finished(&mut wait(&r, &ctx, 10_000), T1)
            });
            await_graph(&r, &[(T2, T1)]);
            r.mark_aborted(T1);
            assert_eq!(sleeper.join().unwrap(), Ok(TxnStatus::Aborted));
        });
        assert!(r.wait_for().is_empty());
    }

    #[test]
    fn a_wait_on_an_unregistered_blocker_sleeps_once_until_its_deadline() {
        let r = TxnRegistry::default();
        let steps = AtomicUsize::new(0);
        let ctx = waiter_ctx();
        let started = Instant::now();
        let result = wait(&r, &ctx, 50).until(|| {
            steps.fetch_add(1, Ordering::Relaxed);
            Step::<()>::BlockedOn(r.ticket(TxnId(77)))
        });
        let elapsed = started.elapsed();
        assert!(result.is_err());
        // Once before the sleep, once after the deadline.
        assert_eq!(steps.load(Ordering::Relaxed), 2);
        assert!(elapsed >= Duration::from_millis(50), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(1_000), "{elapsed:?}");
    }

    #[test]
    fn a_blocker_compacted_away_mid_wait_releases_its_waiter() {
        // The blocker finished with no transaction active: nothing keeps
        // its entry past the next compaction.
        let r = TxnRegistry::default();
        r.register(T1, TxnTypeId(0), GroupId(0));
        r.mark_committed(T1, Timestamp(1));
        thread::scope(|scope| {
            let sleeper = scope.spawn(|| {
                let ctx = waiter_ctx();
                let started = Instant::now();
                let result = wait(&r, &ctx, 10_000).until(|| match r.type_of(T1) {
                    Some(_) => Step::BlockedOn(r.ticket(T1)),
                    None => Step::Done(()),
                });
                (result, started.elapsed())
            });
            await_graph(&r, &[(T2, T1)]);
            assert_eq!(r.compact(), 1);
            let (result, elapsed) = sleeper.join().unwrap();
            assert_eq!(result, Ok(()));
            assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
        });
    }
}
