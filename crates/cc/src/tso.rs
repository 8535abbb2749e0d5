//! Multiversion timestamp ordering (§4.4.4).
//!
//! TSO decides the serialization order up front: every transaction receives
//! a timestamp at start time; a read returns the latest version with a
//! smaller timestamp (committed or not — TSO exposes uncommitted values and
//! relies on commit-order waiting to prevent aborted reads); a write aborts
//! if a reader with a larger timestamp has already read the prior version.
//!
//! The paper adds the *promises* optimisation (inspired by Faleiro et al.):
//! a transaction may declare at start time the keys it will write
//! ([`TxnCtx::promised_keys`], registered by the leaf's `begin`), and
//! readers with larger timestamps wait for the promised write (a
//! [`cc::wait`](crate::wait) on the promiser, woken by that write or by the
//! promiser's end) instead of eventually aborting the writer.
//!
//! TSO is most efficient as a leaf mechanism (per-flight groups in SEATS,
//! §4.6.2). As an inner node it would need batching like SSI; this
//! implementation orders whole child groups by giving every transaction its
//! own timestamp, which is correct for the leaf/instance-partitioned usage
//! exercised by the paper's experiments.

use crate::error::{CcError, CcResult, Reason, WaitLabel};
use crate::mechanism::{visible_version, Access, CcMechanism, Lane, NodeEnv, TxnCtx, VersionPick};
use crate::topology::LaneSel;
use crate::wait::{Step, Wait};
use parking_lot::Mutex;
use std::collections::HashMap;
use tebaldi_storage::{Chain, GroupId, Key, KeyMap, Timestamp, TxnId, Version};

#[derive(Debug, Default)]
struct TsoShared {
    /// Serialization timestamp of each active transaction.
    txn_ts: HashMap<TxnId, Timestamp>,
    /// Largest timestamp that has read each key.
    max_read_ts: KeyMap<Timestamp>,
    /// Outstanding promises: key → (writer, writer's timestamp, fulfilled).
    promises: KeyMap<Vec<(TxnId, Timestamp, bool)>>,
}

/// A multiversion timestamp-ordering node.
pub struct Tso {
    env: NodeEnv,
    shared: Mutex<TsoShared>,
}

impl Tso {
    /// Creates a TSO mechanism bound to a CC-tree node.
    pub fn new(env: NodeEnv) -> Self {
        Tso {
            env,
            shared: Mutex::new(TsoShared::default()),
        }
    }
}

impl CcMechanism for Tso {
    fn begin(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        let ts = self.env.oracle.issue();
        let mut shared = self.shared.lock();
        shared.txn_ts.insert(ctx.txn, ts);
        // Promises are the leaf's: readers with larger timestamps will wait
        // for these writes instead of forcing the writer to abort.
        if lane.sel == LaneSel::Leaf {
            for key in &ctx.promised_keys {
                shared
                    .promises
                    .entry(*key)
                    .or_default()
                    .push((ctx.txn, ts, false));
            }
        }
        drop(shared);
        // The engine tags installed versions with the ordering timestamp so
        // the storage layer keeps the chain in serialization order.
        ctx.order_ts = Some(ts);
        Ok(())
    }

    fn before_access(
        &self,
        ctx: &mut TxnCtx,
        _lane: Lane,
        key: &Key,
        access: Access,
    ) -> CcResult<()> {
        // Promise handling: if a transaction with a *smaller* timestamp
        // promised a write to this key and has not performed it yet, a read
        // (a read-modify-write's too) waits for it instead of reading an
        // older version, which would later force the promiser to abort. A
        // blind write is ordered by its timestamp and needs no wait.
        if !access.reads() {
            return Ok(());
        }
        Wait::at(&self.env, ctx, WaitLabel::PromisedWrite).until(|| {
            let shared = self.shared.lock();
            let Some(my_ts) = shared.txn_ts.get(&ctx.txn).copied() else {
                return Step::Done(());
            };
            let pending = shared.promises.get(key).and_then(|list| {
                list.iter()
                    .find(|(writer, wts, fulfilled)| {
                        !*fulfilled && *wts < my_ts && *writer != ctx.txn
                    })
                    .map(|(writer, _, _)| *writer)
            });
            pending.map_or(Step::Done(()), |writer| {
                Step::BlockedOn(self.env.registry.ticket(writer))
            })
        })
    }

    fn validate_write(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        key: &Key,
        chain: &Chain<'_>,
    ) -> CcResult<()> {
        // The reader-abort rule must run while the engine holds the key's
        // chain lock (this hook is the only point where that is true):
        // readers record their timestamp and pick a version under the same
        // lock, so checking here closes the window in which a later reader
        // could record its read and miss a write that is about to be
        // installed.
        let shared = self.shared.lock();
        let my_ts = shared
            .txn_ts
            .get(&ctx.txn)
            .copied()
            .ok_or(CcError::Internal("TSO: write before begin".to_string()))?;
        if let Some(read_ts) = shared.max_read_ts.get(key) {
            if *read_ts > my_ts {
                return Err(CcError::conflict(Reason::LaterReader));
            }
        }
        drop(shared);
        // Consistent ordering with the parent: TSO's timestamps only order
        // transactions *within* this group. If the key already carries a
        // version from outside the group whose position is after our
        // timestamp, the parent has ordered that writer before us was even
        // possible — installing "into the past" would contradict it (and
        // hide the newer value from position-based readers). Abort and let
        // the retry pick a fresh, larger timestamp.
        match chain.ordered_after(my_ts, |v| self.env.same_group(lane, v.group)) {
            Some(_) => Err(CcError::conflict(Reason::OrderedAfter)),
            None => Ok(()),
        }
    }

    fn after_write(&self, ctx: &mut TxnCtx, _lane: Lane, key: &Key) -> CcResult<()> {
        let mut shared = self.shared.lock();
        // Post-install re-check of the reader-abort rule. Chain readers are
        // lock-free, so a reader may record its timestamp after
        // `validate_write`'s check yet walk the chain before our install
        // landed — reading the prior version without the check catching it.
        // Any such reader's registration is ordered before this lock
        // acquisition (it records under the same mutex before walking), so
        // re-checking here closes the window; readers registering after us
        // are guaranteed to observe the installed version (chain walks
        // re-load the head). Conservatively aborts a writer whose window
        // reader did see the new version — the window is a few
        // microseconds, so such collisions are rare.
        if let Some(my_ts) = shared.txn_ts.get(&ctx.txn).copied() {
            if matches!(shared.max_read_ts.get(key), Some(read_ts) if *read_ts > my_ts) {
                return Err(CcError::conflict(Reason::LaterReader));
            }
        }
        // Mark our promise on this key (if any) as fulfilled only after the
        // version is actually installed, so a woken reader cannot pick an
        // older version in the gap.
        let mut fulfilled = false;
        if let Some(list) = shared.promises.get_mut(key) {
            for entry in list
                .iter_mut()
                .filter(|(w, _, done)| *w == ctx.txn && !*done)
            {
                entry.2 = true;
                fulfilled = true;
            }
        }
        drop(shared);
        if fulfilled {
            self.env.registry.wake(ctx.txn);
        }
        Ok(())
    }

    fn validate(&self, ctx: &mut TxnCtx, _lane: Lane) -> CcResult<()> {
        // Consistent ordering (§4.4.4): conservatively report every active
        // transaction in this group with a smaller timestamp as an ordering
        // dependency, so a parent CC (2PL adoption, SSI commit order) never
        // commits us ahead of a transaction the timestamp order places
        // before us.
        let shared = self.shared.lock();
        let Some(my_ts) = shared.txn_ts.get(&ctx.txn).copied() else {
            return Ok(());
        };
        let earlier: Vec<TxnId> = shared
            .txn_ts
            .iter()
            .filter(|(txn, ts)| **txn != ctx.txn && **ts < my_ts)
            .map(|(txn, _)| *txn)
            .collect();
        drop(shared);
        for txn in earlier {
            ctx.add_order_dep(txn);
        }
        Ok(())
    }

    fn choose_version(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        key: &Key,
        candidate: Option<VersionPick>,
        chain: &Chain<'_>,
    ) -> Option<VersionPick> {
        let mut shared = self.shared.lock();
        let my_ts = shared
            .txn_ts
            .get(&ctx.txn)
            .copied()
            .unwrap_or(Timestamp::MAX);
        // Record the read timestamp for the writer-abort rule.
        let entry = shared.max_read_ts.entry(*key).or_insert(Timestamp::ZERO);
        if my_ts > *entry {
            *entry = my_ts;
        }
        drop(shared);

        // An in-group version (the reader's own carry its group) is
        // visible when it is the reader's own or its ordering timestamp is
        // not after ours (the MVTO read rule — uncommitted values are
        // exposed). A version from outside the group is not TSO's to judge:
        // once it is committed the parent CC has ordered its writer before
        // us, and skipping it would contradict that order (§4.2.1).
        let in_group = |group: GroupId| self.env.same_group(lane, group);
        let judge = |v: &Version| {
            in_group(v.group)
                .then(|| v.writer == ctx.txn || matches!(v.sort_ts(), Some(ts) if ts <= my_ts))
        };
        visible_version(candidate, chain, |pick| in_group(pick.group), judge)
    }

    fn finish(&self, ctx: &mut TxnCtx, _lane: Lane, _outcome: Option<Timestamp>) {
        // Only the keys `begin` registered can hold this transaction's
        // promises, so only their lists are visited.
        let mut shared = self.shared.lock();
        shared.txn_ts.remove(&ctx.txn);
        for key in &ctx.promised_keys {
            if let Some(list) = shared.promises.get_mut(key) {
                list.retain(|(w, _, _)| *w != ctx.txn);
                if list.is_empty() {
                    shared.promises.remove(key);
                }
            }
        }
    }

    fn low_watermark(&self) -> Timestamp {
        self.shared
            .lock()
            .txn_ts
            .values()
            .copied()
            .min()
            .unwrap_or(Timestamp::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::read_at;
    use crate::registry::TxnRegistry;
    use crate::topology::Topology;
    use std::sync::Arc;
    use std::time::Duration;
    use tebaldi_storage::{GroupId, MvStore, NodeId, TableId, TxnTypeId, Value};

    /// The leaf's group: the versions written in it are TSO's to order.
    const IN: GroupId = GroupId(0);

    /// A TSO leaf owning group [`IN`]; transactions 1..=8 are registered,
    /// so a wait on one parks and wakes as in a real tree.
    fn setup() -> (Tso, Arc<TxnRegistry>) {
        let mut topology = Topology::new();
        topology.record_leaf(NodeId(0), IN);
        let registry = Arc::new(TxnRegistry::default());
        for id in 1..=8u64 {
            registry.register(TxnId(id), TxnTypeId(0));
        }
        let env = NodeEnv::for_test(topology, Arc::clone(&registry), 30);
        (Tso::new(env), registry)
    }

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    impl Tso {
        /// Number of active transactions.
        fn active_count(&self) -> usize {
            self.shared.lock().txn_ts.len()
        }
    }

    /// A read of `key` by `ctx` at the leaf.
    fn read(tso: &Tso, store: &MvStore, ctx: &mut TxnCtx, key: Key) -> Option<VersionPick> {
        read_at(tso, store, ctx, Lane::leaf(), key)
    }

    /// `validate_write` of `key` by `ctx`, under the key's write latch as the
    /// engine runs it.
    fn validate_write(tso: &Tso, store: &MvStore, ctx: &mut TxnCtx, key: Key) -> CcResult<()> {
        store.with_chain_mut(&key, |chain| {
            tso.validate_write(ctx, Lane::leaf(), &key, chain)
        })
    }

    /// `writer`, of `group`, installs its id on `key`, stamped with
    /// `order_ts`, and commits at `commit_ts` if given.
    fn install(
        store: &MvStore,
        key: Key,
        (writer, group): (u64, GroupId),
        order_ts: Option<Timestamp>,
        commit_ts: Option<u64>,
    ) {
        let version =
            Version::uncommitted(group, TxnId(writer), Value::Int(writer as i64), order_ts);
        store.with_chain_mut(&key, |chain| chain.install(version));
        if let Some(ts) = commit_ts {
            store.commit_writes(TxnId(writer), &[key], Timestamp(ts));
        }
    }

    #[test]
    fn late_reader_aborts_earlier_writer() {
        let (tso, _registry) = setup();
        let mut early = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut late = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut early, Lane::leaf()).unwrap();
        tso.begin(&mut late, Lane::leaf()).unwrap();
        // The later transaction reads the key first...
        let store = MvStore::new(1);
        let _ = read(&tso, &store, &mut late, k(1));
        // ...so the earlier writer must abort when it validates its write.
        let err = validate_write(&tso, &store, &mut early, k(1)).unwrap_err();
        assert_eq!(err, CcError::conflict(Reason::LaterReader));
        // Writing a different key is still fine.
        assert!(validate_write(&tso, &store, &mut early, k(2)).is_ok());
    }

    #[test]
    fn a_later_read_inside_the_install_window_aborts_the_writer_at_after_write() {
        let (tso, _registry) = setup();
        let mut early = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut late = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut early, Lane::leaf()).unwrap();
        tso.begin(&mut late, Lane::leaf()).unwrap();
        let store = MvStore::new(1);
        validate_write(&tso, &store, &mut early, k(2)).unwrap();
        // The later reader records its read after the check, before the
        // version lands.
        assert!(read(&tso, &store, &mut late, k(2)).is_none());
        install(&store, k(2), (1, IN), early.order_ts, None);
        assert_eq!(
            tso.after_write(&mut early, Lane::leaf(), &k(2)),
            Err(CcError::conflict(Reason::LaterReader))
        );
        assert!(!early.must_abort, "the cause is the error, not a mark");
    }

    #[test]
    fn validate_reports_earlier_active_transactions_as_order_deps() {
        let (tso, _registry) = setup();
        let mut early = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut late = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut early, Lane::leaf()).unwrap();
        tso.begin(&mut late, Lane::leaf()).unwrap();
        tso.validate(&mut late, Lane::leaf()).unwrap();
        assert!(late.order_deps.contains(&TxnId(1)));
        tso.validate(&mut early, Lane::leaf()).unwrap();
        assert!(!early.order_deps.contains(&TxnId(2)));
    }

    #[test]
    fn reads_see_uncommitted_earlier_writes() {
        let (tso, _registry) = setup();
        let mut early = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut late = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut early, Lane::leaf()).unwrap();
        tso.begin(&mut late, Lane::leaf()).unwrap();
        // The installed (uncommitted) version carries early's ordering
        // timestamp.
        let store = MvStore::new(1);
        install(&store, k(1), (1, IN), early.order_ts, None);
        let pick = read(&tso, &store, &mut late, k(1)).unwrap();
        assert_eq!(pick.writer, TxnId(1));
        assert!(!pick.committed, "TSO exposes uncommitted values");
    }

    #[test]
    fn order_ts_is_stamped_on_context() {
        let (tso, _registry) = setup();
        let mut ctx = TxnCtx::new(TxnId(7), TxnTypeId(0), GroupId(0));
        tso.begin(&mut ctx, Lane::leaf()).unwrap();
        assert!(ctx.order_ts.is_some());
        tso.finish(&mut ctx, Lane::leaf(), Some(Timestamp(9)));
        assert_eq!(tso.active_count(), 0);
    }

    #[test]
    fn promises_block_later_readers_until_written() {
        use std::sync::Arc as StdArc;
        let (tso, _registry) = setup();
        let tso = StdArc::new(tso);
        let mut writer = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        writer.promised_keys = vec![k(5)];
        tso.begin(&mut writer, Lane::leaf()).unwrap();

        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::leaf()).unwrap();

        let tso2 = StdArc::clone(&tso);
        let handle = std::thread::spawn(move || {
            let mut reader = reader;
            tso2.before_access(&mut reader, Lane::leaf(), &k(5), Access::Read)
        });
        std::thread::sleep(Duration::from_millis(5));
        // Fulfil the promise (post-install hook); the reader wakes up and
        // proceeds.
        tso.after_write(&mut writer, Lane::leaf(), &k(5)).unwrap();
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn reads_do_not_skip_committed_cross_group_versions() {
        // A committed version written outside the TSO group must be
        // returned even if its timestamp is larger than the reader's: the
        // parent ordered that writer first.
        let (tso, _registry) = setup();
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::leaf()).unwrap();
        let store = MvStore::new(1);
        install(&store, k(9), (900, GroupId::NONE), None, Some(1_000_000));
        let pick = read(&tso, &store, &mut reader, k(9)).unwrap();
        assert_eq!(pick.writer, TxnId(900));
        assert!(pick.committed);
    }

    #[test]
    fn writes_cannot_be_installed_before_a_later_cross_group_version() {
        let (tso, _registry) = setup();
        let mut writer = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        tso.begin(&mut writer, Lane::leaf()).unwrap();
        let store = MvStore::new(1);
        install(&store, k(3), (901, GroupId::NONE), None, Some(1_000_000));
        let err = validate_write(&tso, &store, &mut writer, k(3)).unwrap_err();
        assert_eq!(err, CcError::conflict(Reason::OrderedAfter));
    }

    #[test]
    fn promise_wait_times_out_if_never_written() {
        let (tso, _registry) = setup();
        let mut writer = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        writer.promised_keys = vec![k(6)];
        tso.begin(&mut writer, Lane::leaf()).unwrap();
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::leaf()).unwrap();
        let err = tso
            .before_access(&mut reader, Lane::leaf(), &k(6), Access::Read)
            .unwrap_err();
        assert_eq!(err, CcError::Timeout(WaitLabel::PromisedWrite));
        // Aborting the promiser releases the promise.
        tso.finish(&mut writer, Lane::leaf(), None);
        assert!(tso
            .before_access(&mut reader, Lane::leaf(), &k(6), Access::Read)
            .is_ok());
    }

    #[test]
    fn finishing_a_promiser_leaves_another_keys_promise_standing() {
        let (tso, _registry) = setup();
        let mut first = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        first.promised_keys = vec![k(10)];
        tso.begin(&mut first, Lane::leaf()).unwrap();
        let mut second = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        second.promised_keys = vec![k(11)];
        tso.begin(&mut second, Lane::leaf()).unwrap();
        let mut reader = TxnCtx::new(TxnId(3), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::leaf()).unwrap();

        tso.finish(&mut first, Lane::leaf(), None);
        assert!(!tso.shared.lock().promises.contains_key(&k(10)));
        assert!(tso
            .before_access(&mut reader, Lane::leaf(), &k(10), Access::Read)
            .is_ok());
        // The survivor's promise still holds the later reader.
        assert_eq!(
            tso.before_access(&mut reader, Lane::leaf(), &k(11), Access::Read),
            Err(CcError::Timeout(WaitLabel::PromisedWrite))
        );
    }

    #[test]
    fn only_the_leaf_registers_promises() {
        let (tso, _registry) = setup();
        let mut writer = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        writer.promised_keys = vec![k(8)];
        tso.begin(&mut writer, Lane::child(0)).unwrap();
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::child(0)).unwrap();
        assert!(tso
            .before_access(&mut reader, Lane::child(0), &k(8), Access::Read)
            .is_ok());
    }

    #[test]
    fn newer_foreign_committed_version_beats_older_in_group_one() {
        let (tso, _registry) = setup();
        let mut writer = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut writer, Lane::leaf()).unwrap();
        tso.begin(&mut reader, Lane::leaf()).unwrap();
        let store = MvStore::new(1);
        for (id, group, order_ts) in [(1, IN, writer.order_ts), (900, GroupId::NONE, None)] {
            install(&store, k(4), (id, group), order_ts, Some(1_000_000 + id));
        }
        let pick = read(&tso, &store, &mut reader, k(4)).unwrap();
        assert_eq!(pick.writer, TxnId(900), "the parent ordered T900 last");
    }

    #[test]
    fn in_group_version_stamped_above_the_reader_is_hidden() {
        let (tso, _registry) = setup();
        let mut reader = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut later = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::leaf()).unwrap();
        tso.begin(&mut later, Lane::leaf()).unwrap();
        let store = MvStore::new(1);
        install(&store, k(7), (2, IN), later.order_ts, None);
        // Hidden while uncommitted and still hidden once committed: the
        // timestamp order, not the commit, decides inside the group.
        assert!(read(&tso, &store, &mut reader, k(7)).is_none());
        store.commit_writes(TxnId(2), &[k(7)], Timestamp(1_000_000));
        assert!(read(&tso, &store, &mut reader, k(7)).is_none());
    }
}
