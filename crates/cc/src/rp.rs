//! Runtime pipelining (§4.4.2).
//!
//! RP splits every transaction into *steps* following the table order
//! computed by the static analysis ([`rp_analysis`](crate::rp_analysis)).
//! Within a step, operations are isolated with (lane-aware) key locks; when
//! a transaction advances to a later step it *step-commits* the previous
//! one, releasing its locks so the next transaction in the pipeline can
//! enter — this is what exposes intermediate states and gives RP its edge
//! over 2PL under contention. Two runtime rules keep the pipeline safe:
//!
//! * once `T2` becomes dependent on `T1`, `T2` may execute step `i` only
//!   after `T1` has terminated or is already executing a step beyond `i`
//!   (the *trailing rule* — a [`cc::wait`](crate::wait) on the whole
//!   dependency set),
//! * a transaction's commit is delayed until every transaction it depends on
//!   has committed (cascading-abort prevention / consistent ordering) —
//!   enforced by the engine's dependency wait on the reported set.
//!
//! A step commit wakes exactly the transactions waiting on the advancing
//! one ([`TxnRegistry::wake`](crate::registry::TxnRegistry::wake)).

use crate::error::{CcResult, WaitLabel};
use crate::lock::{LockManager, LockMode};
use crate::mechanism::{visible_version, CcKind, CcMechanism, Lane, NodeEnv, TxnCtx, VersionPick};
use crate::rp_analysis::RpPlan;
use crate::wait::{Step, Wait};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use tebaldi_storage::{Chain, Key, Timestamp, TxnId, Version};

#[derive(Debug, Default)]
struct RpTxnState {
    current_step: usize,
    /// Keys locked in the current step (released on step commit).
    step_keys: Vec<Key>,
    /// Transactions this one trails in the pipeline.
    rp_deps: HashSet<TxnId>,
}

#[derive(Default)]
struct RpShared {
    /// The transactions in the pipeline; an entry lives from `begin` to
    /// `finish`.
    txns: HashMap<TxnId, RpTxnState>,
}

/// A runtime-pipelining node.
pub struct Rp {
    env: NodeEnv,
    plan: RpPlan,
    locks: LockManager,
    shared: Mutex<RpShared>,
}

impl Rp {
    /// Creates an RP mechanism with the given pipeline plan.
    pub fn new(env: NodeEnv, plan: RpPlan) -> Self {
        Rp {
            env,
            plan,
            locks: LockManager::owned_by(CcKind::Rp),
            shared: Mutex::new(RpShared::default()),
        }
    }

    /// Advances `ctx.txn` to `target_step`, step-committing everything
    /// before it and honouring the trailing rule.
    fn advance_to(&self, ctx: &mut TxnCtx, target_step: usize) -> CcResult<()> {
        let (released, mut deps): (Vec<Key>, Vec<TxnId>) = {
            let mut shared = self.shared.lock();
            let state = shared.txns.entry(ctx.txn).or_default();
            if target_step <= state.current_step {
                return Ok(());
            }
            let released = std::mem::take(&mut state.step_keys);
            let deps: Vec<TxnId> = state.rp_deps.iter().copied().collect();
            state.current_step = target_step;
            (released, deps)
        };
        // Step commit: release the previous step's locks and wake the
        // transactions waiting on this one.
        self.locks.release_keys(ctx.txn, &released);
        self.env.registry.wake(ctx.txn);

        // Trailing rule: wait until every dependency has terminated (left
        // the pipeline) or has entered `target_step` (or beyond).
        let registry = &self.env.registry;
        Wait::at(&self.env, ctx, WaitLabel::PipelineStep).until(|| {
            let shared = self.shared.lock();
            let behind = |state: &RpTxnState| state.current_step < target_step;
            deps.retain(|dep| shared.txns.get(dep).is_some_and(behind));
            deps.first()
                .map_or(Step::Done(()), |dep| Step::BlockedOn(registry.ticket(*dep)))
        })
    }

    fn operation(&self, ctx: &mut TxnCtx, lane: Lane, key: &Key, mode: LockMode) -> CcResult<()> {
        let step = self.plan.step_of(key.table);
        // Clamp: a table observed out of plan order never moves the pipeline
        // backwards; it is handled inside the current step.
        let target = {
            let shared = self.shared.lock();
            shared
                .txns
                .get(&ctx.txn)
                .map(|s| s.current_step.max(step))
                .unwrap_or(step)
        };
        self.advance_to(ctx, target)?;

        let blockers =
            self.locks
                .acquire(&self.env, ctx, key, lane.lock_lane(ctx.txn), mode, "")?;
        let mut shared = self.shared.lock();
        let state = shared.txns.entry(ctx.txn).or_default();
        state.step_keys.push(*key);
        for blocker in blockers {
            state.rp_deps.insert(blocker);
            // Pipeline order implies commit order: report the dependency so
            // the engine delays our commit until the blocker commits.
            ctx.add_dep(blocker);
        }
        Ok(())
    }

    fn cleanup(&self, txn: TxnId) {
        self.locks.release_all(txn);
        self.shared.lock().txns.remove(&txn);
    }
}

impl CcMechanism for Rp {
    fn begin(&self, ctx: &mut TxnCtx, _lane: Lane) -> CcResult<()> {
        let mut shared = self.shared.lock();
        shared.txns.insert(ctx.txn, RpTxnState::default());
        Ok(())
    }

    fn before_read(&self, ctx: &mut TxnCtx, lane: Lane, key: &Key) -> CcResult<()> {
        self.operation(ctx, lane, key, LockMode::Shared)
    }

    fn before_write(&self, ctx: &mut TxnCtx, lane: Lane, key: &Key) -> CcResult<()> {
        self.operation(ctx, lane, key, LockMode::Exclusive)
    }

    fn choose_version(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        _key: &Key,
        candidate: Option<VersionPick>,
        chain: &Chain<'_>,
    ) -> Option<VersionPick> {
        // Accept the child's proposal if it comes from this node's group.
        let accept = |pick: &VersionPick| {
            pick.writer == ctx.txn || pick.committed || self.env.same_group(lane, pick.writer)
        };
        // Every write from inside this RP subtree is visible, committed or
        // only step-committed — exposing intermediate states is the
        // mechanism's whole point. A foreign write is not RP's to judge.
        let judge =
            |v: &Version| (v.writer == ctx.txn || self.env.in_subtree(v.writer)).then_some(true);
        visible_version(candidate, chain, accept, judge)
    }

    fn finish(&self, ctx: &mut TxnCtx, _lane: Lane, _outcome: Option<Timestamp>) {
        self.cleanup(ctx.txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CcError;
    use crate::mechanism::read_at;
    use crate::procinfo::{AccessMode, ProcedureInfo};
    use crate::registry::TxnRegistry;
    use crate::rp_analysis::analyze;
    use crate::topology::Topology;
    use std::sync::Arc;
    use std::time::Duration;
    use tebaldi_storage::{GroupId, MvStore, NodeId, TableId, TxnTypeId, Value};

    fn plan() -> RpPlan {
        // Three tables accessed in a fixed order by a single procedure.
        let p = ProcedureInfo::new(
            TxnTypeId(0),
            "pipeline",
            vec![
                (TableId(0), AccessMode::Write),
                (TableId(1), AccessMode::Write),
                (TableId(2), AccessMode::Write),
            ],
        );
        analyze(&[&p])
    }

    fn make_rp(timeout_ms: u64) -> (Arc<Rp>, Arc<TxnRegistry>) {
        let registry = Arc::new(TxnRegistry::default());
        let env = NodeEnv::for_test(Topology::new(), Arc::clone(&registry), timeout_ms);
        (Arc::new(Rp::new(env, plan())), registry)
    }

    fn k(table: u32, id: u64) -> Key {
        Key::simple(TableId(table), id)
    }

    impl Rp {
        /// Makes `txn` trail `dep` without the lock wait that normally
        /// records the dependency (fixture of the `cc::wait` table test).
        pub(crate) fn trail(&self, txn: TxnId, dep: TxnId) {
            let mut shared = self.shared.lock();
            shared.txns.entry(txn).or_default().rp_deps.insert(dep);
        }

        /// Number of transactions currently in the pipeline.
        fn active_count(&self) -> usize {
            self.shared.lock().txns.len()
        }
    }

    #[test]
    fn step_commit_releases_previous_step_locks() {
        let (rp, registry) = make_rp(40);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(0), GroupId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::leaf()).unwrap();
        rp.begin(&mut t2, Lane::leaf()).unwrap();

        // T1 writes table 0 (step 0) then moves on to table 1 (step 1),
        // step-committing table 0's lock.
        rp.before_write(&mut t1, Lane::leaf(), &k(0, 1)).unwrap();
        rp.before_write(&mut t1, Lane::leaf(), &k(1, 1)).unwrap();
        // T2 can now take the step-0 lock even though T1 is uncommitted —
        // the pipelining benefit 2PL does not have.
        rp.before_write(&mut t2, Lane::leaf(), &k(0, 1)).unwrap();
        assert!(
            t2.deps.is_empty(),
            "a step-committed lock is granted without blocking, so no \
             lock-wait dependency is recorded"
        );
        rp.finish(&mut t1, Lane::leaf(), Some(Timestamp(1)));
        rp.finish(&mut t2, Lane::leaf(), Some(Timestamp(2)));
        assert_eq!(rp.active_count(), 0);
    }

    #[test]
    fn trailing_rule_blocks_until_dependency_advances() {
        let (rp, registry) = make_rp(1_000);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(0), GroupId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::leaf()).unwrap();
        rp.before_write(&mut t1, Lane::leaf(), &k(0, 7)).unwrap();

        // T2 conflicts with T1 on step 0 (waits for T1's step commit), so T2
        // trails T1 afterwards.
        let rp2 = Arc::clone(&rp);
        let trailer = std::thread::spawn(move || {
            let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
            rp2.begin(&mut t2, Lane::leaf()).unwrap();
            rp2.before_write(&mut t2, Lane::leaf(), &k(0, 7)).unwrap();
            // Entering step 1 requires T1 to have reached step 1 too.
            rp2.before_write(&mut t2, Lane::leaf(), &k(1, 7)).unwrap();
            t2
        });
        std::thread::sleep(Duration::from_millis(30));
        // Let T1 advance to step 1 and finish; the trailer may then proceed.
        rp.before_write(&mut t1, Lane::leaf(), &k(1, 7)).unwrap();
        rp.finish(&mut t1, Lane::leaf(), Some(Timestamp(1)));
        registry.mark_committed(TxnId(1), Timestamp(1));
        let t2 = trailer.join().unwrap();
        assert!(t2.deps.contains(&TxnId(1)));
    }

    #[test]
    fn timeout_when_dependency_never_advances() {
        let (rp, registry) = make_rp(30);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(0), GroupId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::leaf()).unwrap();
        rp.before_write(&mut t1, Lane::leaf(), &k(0, 3)).unwrap();
        // T1 holds step 0; T2 requests the same key and times out.
        let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t2, Lane::leaf()).unwrap();
        let err = rp
            .before_write(&mut t2, Lane::leaf(), &k(0, 3))
            .unwrap_err();
        assert_eq!(err, CcError::Timeout(WaitLabel::Lock(CcKind::Rp)));
        rp.finish(&mut t2, Lane::leaf(), None);
        rp.finish(&mut t1, Lane::leaf(), None);
    }

    #[test]
    fn same_lane_transactions_do_not_conflict_at_inner_node() {
        let (rp, registry) = make_rp(30);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(0), GroupId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::child(0)).unwrap();
        rp.begin(&mut t2, Lane::child(0)).unwrap();
        rp.before_write(&mut t1, Lane::child(0), &k(0, 5)).unwrap();
        // Same child subtree: the conflict is the child's business.
        rp.before_write(&mut t2, Lane::child(0), &k(0, 5)).unwrap();
        rp.finish(&mut t1, Lane::child(0), Some(Timestamp(1)));
        rp.finish(&mut t2, Lane::child(0), Some(Timestamp(2)));
    }

    /// An RP leaf (node 0, group 0) with T1..T3 as members and T9 in a
    /// sibling group.
    fn read_rule_leaf() -> Rp {
        let mut topology = Topology::new();
        topology.record_leaf(NodeId(0), GroupId(0));
        let registry = Arc::new(TxnRegistry::default());
        for id in 1..=3 {
            registry.register(TxnId(id), TxnTypeId(0), GroupId(0));
        }
        registry.register(TxnId(9), TxnTypeId(1), GroupId(1));
        Rp::new(NodeEnv::for_test(topology, registry, 30), plan())
    }

    fn install(store: &MvStore, key: Key, writer: u64, commit: Option<u64>) {
        store.write(&key, TxnId(writer), Value::Int(writer as i64));
        if let Some(ts) = commit {
            store.commit_writes(TxnId(writer), &[key], Timestamp(ts));
        }
    }

    /// What T2 reads on `key` at the leaf.
    fn read(rp: &Rp, store: &MvStore, key: Key) -> VersionPick {
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        read_at(rp, store, &mut reader, Lane::leaf(), key).unwrap()
    }

    #[test]
    fn newer_foreign_committed_version_beats_older_in_group_one() {
        let rp = read_rule_leaf();
        let store = MvStore::new(1);
        install(&store, k(0, 1), 1, Some(1)); // in-group, committed long ago
        install(&store, k(0, 1), 9, Some(2)); // sibling group, committed after it
        let pick = read(&rp, &store, k(0, 1));
        assert_eq!(pick.writer, TxnId(9), "the parent ordered T9 after T1");
    }

    #[test]
    fn newest_in_group_version_is_exposed_uncommitted() {
        let rp = read_rule_leaf();
        let store = MvStore::new(1);
        install(&store, k(0, 1), 9, Some(1));
        install(&store, k(0, 1), 3, None); // step-committed by a pipeline member
        let pick = read(&rp, &store, k(0, 1));
        assert_eq!(pick.writer, TxnId(3));
        assert!(!pick.committed);
        // A foreign uncommitted version on top is skipped, not exposed.
        install(&store, k(0, 2), 1, Some(1));
        install(&store, k(0, 2), 9, None);
        assert_eq!(read(&rp, &store, k(0, 2)).writer, TxnId(1));
    }
}
