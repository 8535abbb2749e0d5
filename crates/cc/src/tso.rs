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
//! ([`TxnCtx::promised_keys`], registered by `begin`), and readers with
//! larger timestamps wait for the promised write (a
//! [`cc::wait`](crate::wait) on the promiser, woken by that write or by the
//! promiser's end) instead of eventually aborting the writer.
//!
//! TSO is a leaf mechanism (the per-flight groups of SEATS, §4.6.2): an
//! inner TSO would need batching like SSI, so
//! [`CcTreeSpec::validate`](crate::tree::CcTreeSpec::validate) refuses one.
//!
//! A transaction's timestamp is its [`TxnCtx::order_ts`]. Per key, the
//! largest timestamp that read it and the promises on it sit in key
//! stripes, whose lock orders a reader's record against a writer's check.
//! The one whole-node lock is the **active set**, by timestamp: `begin`
//! issues its timestamp under it, so `validate`'s range below its own
//! timestamp misses no earlier transaction. Its first entry is the
//! `low_watermark`; the GC cycle asking for it also prunes every read
//! timestamp below a bound read under that lock (the first entry, or the
//! next timestamp to issue when none is active), which no active or later
//! writer can be below.

use crate::error::{CcError, CcResult, Reason, WaitLabel};
use crate::lock::KeyStripes;
use crate::mechanism::{visible_version, Access, CcMechanism, Lane, NodeEnv, TxnCtx, VersionPick};
use crate::wait::{Step, Wait};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use tebaldi_storage::{Chain, GroupId, Key, Timestamp, TxnId, Version};

/// What the node knows of one key.
#[derive(Debug, Default)]
struct KeyState {
    /// The largest timestamp that has read the key.
    read_ts: Timestamp,
    /// Outstanding promises: (writer, writer's timestamp, fulfilled).
    promises: Vec<(TxnId, Timestamp, bool)>,
}

/// A multiversion timestamp-ordering node.
pub struct Tso {
    env: NodeEnv,
    keys: KeyStripes<KeyState>,
    /// The active transactions, by timestamp.
    active: Mutex<BTreeMap<Timestamp, TxnId>>,
}

impl Tso {
    /// Creates a TSO mechanism bound to a CC-tree node.
    pub fn new(env: NodeEnv) -> Self {
        Tso {
            env,
            keys: KeyStripes::default(),
            active: Mutex::default(),
        }
    }
}

/// The timestamp `begin` stamped on the transaction.
fn ts_of(ctx: &TxnCtx) -> Timestamp {
    ctx.order_ts.expect("TSO's begin stamps every transaction")
}

impl CcMechanism for Tso {
    fn begin(&self, ctx: &mut TxnCtx, _lane: Lane) -> CcResult<()> {
        let mut active = self.active.lock();
        let ts = self.env.oracle.issue();
        active.insert(ts, ctx.txn);
        // Readers with larger timestamps will wait for these writes instead
        // of forcing the writer to abort. Listed before the active lock goes,
        // so no later timestamp can read a promised key ahead of its promise
        // (lock order: active set, then stripe).
        for key in &ctx.promised_keys {
            let mut stripe = self.keys.of(key).lock();
            let state = stripe.entry(*key).or_default();
            state.promises.push((ctx.txn, ts, false));
        }
        drop(active);
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
        let my_ts = ts_of(ctx);
        Wait::at(&self.env, ctx, WaitLabel::PromisedWrite).until(|| {
            let stripe = self.keys.of(key).lock();
            let pending = stripe.get(key).and_then(|state| {
                state
                    .promises
                    .iter()
                    .find(|(_, wts, fulfilled)| !*fulfilled && *wts < my_ts)
            });
            pending.map_or(Step::Done(()), |(writer, _, _)| {
                Step::BlockedOn(self.env.registry.ticket(*writer))
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
        let my_ts = ts_of(ctx);
        let stripe = self.keys.of(key).lock();
        if stripe.get(key).is_some_and(|state| state.read_ts > my_ts) {
            return Err(CcError::conflict(Reason::LaterReader));
        }
        drop(stripe);
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
        // Post-install re-check of the reader-abort rule. Chain readers are
        // lock-free, so a reader may record its timestamp after
        // `validate_write`'s check yet walk the chain before our install
        // landed — reading the prior version without the check catching it.
        // Any such reader's record is ordered before this re-check (it
        // records under the key's stripe lock before walking), so
        // re-checking here closes the window; readers recording after us
        // are guaranteed to observe the installed version (chain walks
        // re-load the head). Conservatively aborts a writer whose window
        // reader did see the new version — the window is a few
        // microseconds, so such collisions are rare.
        let my_ts = ts_of(ctx);
        let mut stripe = self.keys.of(key).lock();
        let Some(state) = stripe.get_mut(key) else {
            return Ok(());
        };
        if state.read_ts > my_ts {
            return Err(CcError::conflict(Reason::LaterReader));
        }
        // Mark our promise on this key (if any) as fulfilled only after the
        // version is actually installed, so a woken reader cannot pick an
        // older version in the gap.
        let mut fulfilled = false;
        for (writer, _, done) in &mut state.promises {
            if *writer == ctx.txn && !*done {
                *done = true;
                fulfilled = true;
            }
        }
        drop(stripe);
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
        let my_ts = ts_of(ctx);
        for (_, txn) in self.active.lock().range(..my_ts) {
            ctx.add_order_dep(*txn);
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
        // Record the read timestamp for the writer-abort rule.
        let my_ts = ts_of(ctx);
        {
            let mut stripe = self.keys.of(key).lock();
            let state = stripe.entry(*key).or_default();
            state.read_ts = state.read_ts.max(my_ts);
        }

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
        // A parent's `begin` may have failed before this node's ran.
        if let Some(ts) = ctx.order_ts {
            self.active.lock().remove(&ts);
        }
        // Only the keys `begin` registered can hold this transaction's
        // promises, so only their entries are visited.
        for key in &ctx.promised_keys {
            if let Some(state) = self.keys.of(key).lock().get_mut(key) {
                state.promises.retain(|(writer, _, _)| *writer != ctx.txn);
            }
        }
    }

    fn low_watermark(&self) -> Timestamp {
        // The prune bound is read under the active lock, which `begin` issues
        // under: the oldest active timestamp, or with none active the next
        // one the oracle issues. No active or later writer is below it, so
        // no read below it can still abort one.
        let active = self.active.lock();
        let oldest = active.keys().next().copied();
        let bound = oldest.unwrap_or(Timestamp(self.env.oracle.latest().0 + 1));
        drop(active);
        // The GC cycle is the one caller: prune here (see the module docs).
        for stripe in self.keys.iter() {
            stripe
                .lock()
                .retain(|_, state| state.read_ts >= bound || !state.promises.is_empty());
        }
        oldest.unwrap_or(Timestamp::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::read_at;
    use crate::registry::TxnRegistry;
    use std::sync::Arc;
    use std::time::Duration;
    use tebaldi_storage::{GroupId, MvStore, TableId, TxnTypeId, Value};

    /// The leaf's group: the versions written in it are TSO's to order.
    const IN: GroupId = GroupId(0);

    /// A TSO leaf owning group [`IN`]; transactions 1..=8 are registered,
    /// so a wait on one parks and wakes as in a real tree.
    fn setup() -> (Tso, Arc<TxnRegistry>) {
        let registry = Arc::new(TxnRegistry::default());
        for id in 1..=8u64 {
            registry.register(TxnId(id), TxnTypeId(0));
        }
        let env = NodeEnv::for_test(0, Arc::clone(&registry), 30);
        (Tso::new(env), registry)
    }

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    impl Tso {
        /// Number of active transactions.
        fn active_count(&self) -> usize {
            self.active.lock().len()
        }

        /// The key entries the node holds, and how many of them hold no
        /// promise.
        fn key_entries(&self) -> (usize, usize) {
            let stripes = self.keys.iter().map(|stripe| {
                let stripe = stripe.lock();
                let bare = stripe.values().filter(|s| s.promises.is_empty()).count();
                (stripe.len(), bare)
            });
            stripes.fold((0, 0), |(all, bare), (a, b)| (all + a, bare + b))
        }
    }

    /// A read of `key` by `ctx` at the leaf.
    fn read(tso: &Tso, store: &MvStore, ctx: &mut TxnCtx, key: Key) -> Option<VersionPick> {
        read_at(tso, store, ctx, Lane::Leaf, key)
    }

    /// `validate_write` of `key` by `ctx`, under the key's write latch as the
    /// engine runs it.
    fn validate_write(tso: &Tso, store: &MvStore, ctx: &mut TxnCtx, key: Key) -> CcResult<()> {
        store.with_chain_mut(&key, |chain| {
            tso.validate_write(ctx, Lane::Leaf, &key, chain)
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
        tso.begin(&mut early, Lane::Leaf).unwrap();
        tso.begin(&mut late, Lane::Leaf).unwrap();
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
        tso.begin(&mut early, Lane::Leaf).unwrap();
        tso.begin(&mut late, Lane::Leaf).unwrap();
        let store = MvStore::new(1);
        validate_write(&tso, &store, &mut early, k(2)).unwrap();
        // The later reader records its read after the check, before the
        // version lands.
        assert!(read(&tso, &store, &mut late, k(2)).is_none());
        install(&store, k(2), (1, IN), early.order_ts, None);
        assert_eq!(
            tso.after_write(&mut early, Lane::Leaf, &k(2)),
            Err(CcError::conflict(Reason::LaterReader))
        );
        assert!(!early.must_abort, "the cause is the error, not a mark");
    }

    #[test]
    fn validate_reports_earlier_active_transactions_as_order_deps() {
        let (tso, _registry) = setup();
        let mut early = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut late = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut early, Lane::Leaf).unwrap();
        tso.begin(&mut late, Lane::Leaf).unwrap();
        tso.validate(&mut late, Lane::Leaf).unwrap();
        assert!(late.order_deps.contains(&TxnId(1)));
        tso.validate(&mut early, Lane::Leaf).unwrap();
        assert!(!early.order_deps.contains(&TxnId(2)));
    }

    #[test]
    fn reads_see_uncommitted_earlier_writes() {
        let (tso, _registry) = setup();
        let mut early = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut late = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut early, Lane::Leaf).unwrap();
        tso.begin(&mut late, Lane::Leaf).unwrap();
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
        tso.begin(&mut ctx, Lane::Leaf).unwrap();
        assert!(ctx.order_ts.is_some());
        tso.finish(&mut ctx, Lane::Leaf, Some(Timestamp(9)));
        assert_eq!(tso.active_count(), 0);
    }

    #[test]
    fn promises_block_later_readers_until_written() {
        use std::sync::Arc as StdArc;
        let (tso, _registry) = setup();
        let tso = StdArc::new(tso);
        let mut writer = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        writer.promised_keys = vec![k(5)];
        tso.begin(&mut writer, Lane::Leaf).unwrap();

        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::Leaf).unwrap();

        let tso2 = StdArc::clone(&tso);
        let handle = std::thread::spawn(move || {
            let mut reader = reader;
            tso2.before_access(&mut reader, Lane::Leaf, &k(5), Access::Read)
        });
        std::thread::sleep(Duration::from_millis(5));
        // Fulfil the promise (post-install hook); the reader wakes up and
        // proceeds.
        tso.after_write(&mut writer, Lane::Leaf, &k(5)).unwrap();
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn reads_do_not_skip_committed_cross_group_versions() {
        // A committed version written outside the TSO group must be
        // returned even if its timestamp is larger than the reader's: the
        // parent ordered that writer first.
        let (tso, _registry) = setup();
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::Leaf).unwrap();
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
        tso.begin(&mut writer, Lane::Leaf).unwrap();
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
        tso.begin(&mut writer, Lane::Leaf).unwrap();
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::Leaf).unwrap();
        let err = tso
            .before_access(&mut reader, Lane::Leaf, &k(6), Access::Read)
            .unwrap_err();
        assert_eq!(err, CcError::Timeout(WaitLabel::PromisedWrite));
        // Aborting the promiser releases the promise.
        tso.finish(&mut writer, Lane::Leaf, None);
        assert!(tso
            .before_access(&mut reader, Lane::Leaf, &k(6), Access::Read)
            .is_ok());
    }

    #[test]
    fn finishing_a_promiser_leaves_another_keys_promise_standing() {
        let (tso, _registry) = setup();
        let mut first = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        first.promised_keys = vec![k(10)];
        tso.begin(&mut first, Lane::Leaf).unwrap();
        let mut second = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        second.promised_keys = vec![k(11)];
        tso.begin(&mut second, Lane::Leaf).unwrap();
        let mut reader = TxnCtx::new(TxnId(3), TxnTypeId(0), GroupId(0));
        tso.begin(&mut reader, Lane::Leaf).unwrap();

        tso.finish(&mut first, Lane::Leaf, None);
        assert_eq!(tso.key_entries(), (2, 1), "k(10)'s entry holds no promise");
        assert!(tso
            .before_access(&mut reader, Lane::Leaf, &k(10), Access::Read)
            .is_ok());
        // The survivor's promise still holds the later reader.
        assert_eq!(
            tso.before_access(&mut reader, Lane::Leaf, &k(11), Access::Read),
            Err(CcError::Timeout(WaitLabel::PromisedWrite))
        );
    }

    #[test]
    fn a_gc_call_with_nothing_active_leaves_no_key_entry_without_a_promise() {
        let (tso, _registry) = setup();
        let store = MvStore::new(1);
        let mut old = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        old.promised_keys = vec![k(5)];
        tso.begin(&mut old, Lane::Leaf).unwrap();
        // Later transactions read, write and finish while `old` is active.
        for id in 2..=4 {
            let mut ctx = TxnCtx::new(TxnId(id), TxnTypeId(0), GroupId(0));
            tso.begin(&mut ctx, Lane::Leaf).unwrap();
            let _ = read(&tso, &store, &mut ctx, k(id));
            validate_write(&tso, &store, &mut ctx, k(10 + id)).unwrap();
            tso.after_write(&mut ctx, Lane::Leaf, &k(10 + id)).unwrap();
            tso.finish(&mut ctx, Lane::Leaf, Some(Timestamp(100 + id)));
        }
        // The GC call keeps every read above the oldest active timestamp:
        // each can still abort `old`'s write.
        assert_eq!(tso.low_watermark(), old.order_ts.unwrap());
        assert_eq!(tso.key_entries(), (4, 3));
        assert_eq!(
            validate_write(&tso, &store, &mut old, k(3)),
            Err(CcError::conflict(Reason::LaterReader))
        );
        tso.finish(&mut old, Lane::Leaf, None);
        assert_eq!(tso.low_watermark(), Timestamp::MAX);
        assert_eq!(tso.key_entries(), (0, 0));
    }

    #[test]
    fn a_gc_call_with_nothing_active_keeps_a_read_made_during_it() {
        // GC calls run back to back while, between them and with nothing
        // active, an earlier and a later transaction begin, the later one
        // reads, and the earlier one writes the key it read: a prune racing
        // the read must not drop it.
        let (tso, _registry) = setup();
        let store = MvStore::new(1);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    tso.low_watermark();
                }
            });
            for round in 0..20_000 {
                let mut early = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
                let mut late = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
                tso.begin(&mut early, Lane::Leaf).unwrap();
                tso.begin(&mut late, Lane::Leaf).unwrap();
                let _ = read(&tso, &store, &mut late, k(round));
                let write = validate_write(&tso, &store, &mut early, k(round));
                tso.finish(&mut late, Lane::Leaf, None);
                tso.finish(&mut early, Lane::Leaf, None);
                if write != Err(CcError::conflict(Reason::LaterReader)) {
                    done.store(true, std::sync::atomic::Ordering::Relaxed);
                    panic!("round {round}: the later read was pruned: {write:?}");
                }
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }

    #[test]
    fn newer_foreign_committed_version_beats_older_in_group_one() {
        let (tso, _registry) = setup();
        let mut writer = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        tso.begin(&mut writer, Lane::Leaf).unwrap();
        tso.begin(&mut reader, Lane::Leaf).unwrap();
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
        tso.begin(&mut reader, Lane::Leaf).unwrap();
        tso.begin(&mut later, Lane::Leaf).unwrap();
        let store = MvStore::new(1);
        install(&store, k(7), (2, IN), later.order_ts, None);
        // Hidden while uncommitted and still hidden once committed: the
        // timestamp order, not the commit, decides inside the group.
        assert!(read(&tso, &store, &mut reader, k(7)).is_none());
        store.commit_writes(TxnId(2), &[k(7)], Timestamp(1_000_000));
        assert!(read(&tso, &store, &mut reader, k(7)).is_none());
    }
}
