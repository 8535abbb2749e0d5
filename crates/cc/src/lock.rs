//! The group-aware lock manager shared by 2PL and runtime pipelining.
//!
//! This is the *nexus lock* table of Callas/Tebaldi (§3.3.2): a lock request
//! carries, besides the usual shared/exclusive mode, the **lane** of the
//! requesting transaction at the node that owns the table. Two requests on
//! the same lane never conflict — their ordering is delegated to the child
//! mechanism — while requests from different lanes follow the ordinary
//! shared/exclusive compatibility matrix. At a leaf node every transaction
//! has its own lane, which turns the table into a plain 2PL lock table.
//!
//! A request that conflicts sleeps in [`cc::wait`](crate::wait) on the
//! holder in its way — the deadline (the paper resolves deadlocks by timing
//! out transactions, §4.4.1) and the profiler's blocking event are that
//! module's. A release wakes no one: the holder's end, or RP's step commit,
//! wakes its waiters through the [`TxnRegistry`], so an uncontended acquire
//! or release touches no registry lock.

use crate::error::{CcResult, WaitLabel};
use crate::mechanism::{CcKind, NodeEnv, TxnCtx};
use crate::registry::TxnRegistry;
use crate::wait::{Step, Wait};
use parking_lot::Mutex;
use std::collections::HashMap;
use tebaldi_storage::{Key, KeyMap, TxnId};

/// Lock mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

#[derive(Clone, Copy, Debug)]
struct Holder {
    txn: TxnId,
    lane: u64,
    mode: LockMode,
}

#[derive(Default)]
struct LockEntry {
    holders: Vec<Holder>,
}

impl LockEntry {
    /// Returns the first holder incompatible with the request, if any.
    fn conflict_with(&self, txn: TxnId, lane: u64, mode: LockMode) -> Option<Holder> {
        self.holders
            .iter()
            .find(|h| {
                if h.txn == txn || h.lane == lane {
                    return false;
                }
                mode == LockMode::Exclusive || h.mode == LockMode::Exclusive
            })
            .copied()
    }

    fn grant(&mut self, txn: TxnId, lane: u64, mode: LockMode) -> bool {
        if let Some(existing) = self.holders.iter_mut().find(|h| h.txn == txn) {
            if mode == LockMode::Exclusive {
                existing.mode = LockMode::Exclusive;
            }
            false
        } else {
            self.holders.push(Holder { txn, lane, mode });
            true
        }
    }
}

type Shard = Mutex<KeyMap<LockEntry>>;

/// A lock table.
pub struct LockManager {
    /// The mechanism whose table this is: its lock waits time out as
    /// [`WaitLabel::Lock`]`(owner)`.
    owner: CcKind,
    shards: Vec<Shard>,
    held: Vec<Mutex<HashMap<TxnId, Vec<Key>>>>,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("owner", &self.owner)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Default for LockManager {
    /// 2PL's lock table.
    fn default() -> Self {
        LockManager::owned_by(CcKind::TwoPl)
    }
}

impl LockManager {
    /// The lock table of mechanism `owner`.
    pub fn owned_by(owner: CcKind) -> Self {
        LockManager::new(owner, 64)
    }

    /// The lock table of mechanism `owner`, with the given number of shards.
    pub fn new(owner: CcKind, shards: usize) -> Self {
        assert!(shards > 0);
        LockManager {
            owner,
            shards: (0..shards).map(|_| Mutex::new(KeyMap::default())).collect(),
            held: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The shard holding `key`'s entry. Taken from the middle of the mix:
    /// the shard's own map spreads on the low bits and tags on the high ones.
    fn shard_of(&self, key: &Key) -> &Shard {
        &self.shards[(key.mix64() >> 32) as usize % self.shards.len()]
    }

    fn held_of(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, Vec<Key>>> {
        &self.held[(txn.0 as usize) % self.held.len()]
    }

    /// Acquires (or upgrades) a lock on `key` for the transaction in `ctx`.
    ///
    /// Returns the transactions that were holding a conflicting lock while
    /// the request had to wait — callers such as runtime pipelining turn
    /// these into pipeline dependencies.
    ///
    /// The trailing label is ignored (the table's owner names its waits);
    /// only the benchmark's frozen lock probe still passes one.
    pub fn acquire(
        &self,
        env: &NodeEnv,
        ctx: &TxnCtx,
        key: &Key,
        lane: u64,
        mode: LockMode,
        _label: &'static str,
    ) -> CcResult<Vec<TxnId>> {
        let mut blockers: Vec<TxnId> = Vec::new();
        let newly = Wait::at(env, ctx, WaitLabel::Lock(self.owner)).until(|| {
            let step = self.request(&env.registry, ctx.txn, key, lane, mode);
            if let Step::BlockedOn(ticket) = &step {
                if !blockers.contains(&ticket.blocker()) {
                    blockers.push(ticket.blocker());
                }
            }
            step
        })?;
        if newly {
            self.held_of(ctx.txn)
                .lock()
                .entry(ctx.txn)
                .or_default()
                .push(*key);
        }
        Ok(blockers)
    }

    /// One evaluation of a request: grant it, or name the first holder in
    /// its way — with the ticket taken under the shard lock that showed it.
    pub(crate) fn request(
        &self,
        registry: &TxnRegistry,
        txn: TxnId,
        key: &Key,
        lane: u64,
        mode: LockMode,
    ) -> Step<bool> {
        let mut entries = self.shard_of(key).lock();
        let entry = entries.entry(*key).or_default();
        match entry.conflict_with(txn, lane, mode) {
            None => Step::Done(entry.grant(txn, lane, mode)),
            Some(holder) => Step::BlockedOn(registry.ticket(holder.txn)),
        }
    }

    /// Releases the locks held by `txn` on the given keys.
    pub fn release_keys(&self, txn: TxnId, keys: &[Key]) {
        for key in keys {
            self.release(txn, key);
        }
        let mut held = self.held_of(txn).lock();
        if let Some(list) = held.get_mut(&txn) {
            list.retain(|k| !keys.contains(k));
            if list.is_empty() {
                held.remove(&txn);
            }
        }
    }

    /// Releases every lock held by `txn`.
    pub fn release_all(&self, txn: TxnId) {
        let keys = self.held_of(txn).lock().remove(&txn).unwrap_or_default();
        for key in &keys {
            self.release(txn, key);
        }
    }

    fn release(&self, txn: TxnId, key: &Key) {
        let mut entries = self.shard_of(key).lock();
        if let Some(entry) = entries.get_mut(key) {
            entry.holders.retain(|h| h.txn != txn);
            if entry.holders.is_empty() {
                entries.remove(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CcError;
    use crate::events::VecSink;
    use crate::mechanism::Lane;
    use crate::registry::TxnRegistry;
    use crate::topology::Topology;
    use std::sync::Arc;
    use std::time::Duration;
    use tebaldi_storage::{GroupId, TableId, Timestamp, TxnTypeId};

    fn env(timeout_ms: u64) -> (NodeEnv, Arc<VecSink>) {
        let sink = Arc::new(VecSink::new());
        let registry = Arc::new(TxnRegistry::default());
        registry.register(TxnId(1), TxnTypeId(1), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(2), GroupId(1));
        registry.register(TxnId(3), TxnTypeId(3), GroupId(1));
        (
            NodeEnv {
                events: sink.clone(),
                ..NodeEnv::for_test(Topology::new(), registry, timeout_ms)
            },
            sink,
        )
    }

    fn ctx(txn: u64) -> TxnCtx {
        TxnCtx::new(TxnId(txn), TxnTypeId(txn as u32), GroupId(0))
    }

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    impl LockManager {
        /// Keys currently locked by `txn`.
        fn keys_held_by(&self, txn: TxnId) -> Vec<Key> {
            self.held_of(txn)
                .lock()
                .get(&txn)
                .cloned()
                .unwrap_or_default()
        }

        /// Total number of keys with at least one holder.
        pub(crate) fn locked_key_count(&self) -> usize {
            self.shards.iter().map(|s| s.lock().len()).sum()
        }
    }

    #[test]
    fn shared_locks_are_compatible_across_lanes() {
        let (env, _) = env(50);
        let lm = LockManager::default();
        lm.acquire(&env, &ctx(1), &k(1), 0, LockMode::Shared, "t")
            .unwrap();
        lm.acquire(&env, &ctx(2), &k(1), 1, LockMode::Shared, "t")
            .unwrap();
        assert_eq!(lm.locked_key_count(), 1);
    }

    #[test]
    fn exclusive_conflicts_across_lanes_but_not_within() {
        let (env, _) = env(30);
        let lm = LockManager::default();
        lm.acquire(&env, &ctx(1), &k(1), 0, LockMode::Exclusive, "t")
            .unwrap();
        // Same lane (same child subtree): compatible — the nexus rule.
        lm.acquire(&env, &ctx(2), &k(1), 0, LockMode::Exclusive, "t")
            .unwrap();
        // Different lane: must time out.
        let err = lm
            .acquire(&env, &ctx(3), &k(1), 1, LockMode::Exclusive, "t")
            .unwrap_err();
        assert_eq!(err, CcError::Timeout(WaitLabel::Lock(CcKind::TwoPl)));
    }

    #[test]
    fn release_wakes_waiter_and_reports_blockers() {
        let (env, sink) = env(2_000);
        let env = Arc::new(env);
        let lm = Arc::new(LockManager::default());
        lm.acquire(&env, &ctx(1), &k(7), 1, LockMode::Exclusive, "t")
            .unwrap();

        let lm2 = Arc::clone(&lm);
        let env2 = Arc::clone(&env);
        let waiter = std::thread::spawn(move || {
            lm2.acquire(&env2, &ctx(2), &k(7), 2, LockMode::Exclusive, "t")
        });
        std::thread::sleep(Duration::from_millis(30));
        // T1's end as the engine runs it: release, then wake T1's waiters.
        lm.release_all(TxnId(1));
        env.registry.mark_committed(TxnId(1), Timestamp(1));
        let blockers = waiter.join().unwrap().unwrap();
        assert_eq!(blockers, vec![TxnId(1)]);
        // The wait produced a blocking event attributed to T1.
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].blocking, TxnId(1));
        assert_eq!(events[0].blocked, TxnId(2));
        assert!(events[0].duration() >= Duration::from_millis(20));
    }

    #[test]
    fn upgrade_shared_to_exclusive() {
        let (env, _) = env(30);
        let lm = LockManager::default();
        lm.acquire(&env, &ctx(1), &k(3), 10, LockMode::Shared, "t")
            .unwrap();
        lm.acquire(&env, &ctx(1), &k(3), 10, LockMode::Exclusive, "t")
            .unwrap();
        // Another lane can no longer share.
        assert!(lm
            .acquire(&env, &ctx(2), &k(3), 11, LockMode::Shared, "t")
            .is_err());
        assert_eq!(lm.keys_held_by(TxnId(1)), vec![k(3)]);
        lm.release_all(TxnId(1));
        assert!(lm.keys_held_by(TxnId(1)).is_empty());
    }

    #[test]
    fn release_keys_partial() {
        let (env, _) = env(30);
        let lm = LockManager::default();
        lm.acquire(&env, &ctx(1), &k(1), 1, LockMode::Exclusive, "t")
            .unwrap();
        lm.acquire(&env, &ctx(1), &k(2), 1, LockMode::Exclusive, "t")
            .unwrap();
        lm.release_keys(TxnId(1), &[k(1)]);
        assert_eq!(lm.keys_held_by(TxnId(1)), vec![k(2)]);
        // Key 1 is free for another lane now.
        lm.acquire(&env, &ctx(2), &k(1), 2, LockMode::Exclusive, "t")
            .unwrap();
    }

    #[test]
    fn leaf_lanes_conflict_per_transaction() {
        let (env, _) = env(20);
        let lm = LockManager::default();
        let lane1 = Lane::leaf().lock_lane(TxnId(1));
        let lane2 = Lane::leaf().lock_lane(TxnId(2));
        lm.acquire(&env, &ctx(1), &k(5), lane1, LockMode::Exclusive, "t")
            .unwrap();
        assert!(lm
            .acquire(&env, &ctx(2), &k(5), lane2, LockMode::Exclusive, "t")
            .is_err());
    }
}
