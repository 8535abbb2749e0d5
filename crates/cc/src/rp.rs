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
//! The node keeps no per-transaction map and no node-wide lock. A
//! transaction's step and the transactions it trails sit on its own
//! [`TxnCtx`] (`rp_steps`, `rp_trails`); a step commit publishes the new
//! step on its [`TxnRegistry`](crate::registry::TxnRegistry) entry, which
//! wakes exactly the transactions waiting on it, and a trailer reads the
//! step under the registry shard lock that issues its ticket
//! (`TxnRegistry::trailing`).

use crate::error::{CcResult, WaitLabel};
use crate::lock::{LockManager, LockMode};
use crate::mechanism::{
    visible_version, Access, CcKind, CcMechanism, Lane, NodeEnv, TxnCtx, VersionPick,
};
use crate::rp_analysis::RpPlan;
use crate::wait::{Step, Wait};
use tebaldi_storage::{Chain, Key, Timestamp, Version};

/// A runtime-pipelining node.
pub struct Rp {
    env: NodeEnv,
    plan: RpPlan,
    locks: LockManager,
}

impl Rp {
    /// Creates an RP mechanism with the given pipeline plan.
    pub fn new(env: NodeEnv, plan: RpPlan) -> Self {
        Rp {
            env,
            plan,
            locks: LockManager::owned_by(CcKind::Rp),
        }
    }

    /// Advances `ctx.txn` to `target` at this node, step-committing
    /// everything before it and honouring the trailing rule.
    fn advance_to(&self, ctx: &mut TxnCtx, target: usize) -> CcResult<()> {
        let node = self.env.node;
        // Clamp: a table observed out of plan order never moves the pipeline
        // backwards; it is handled inside the current step.
        let current = ctx.rp_steps.iter().find(|(n, _)| *n == node);
        if target <= current.map_or(0, |(_, step)| *step) {
            return Ok(());
        }
        ctx.rp_steps.retain(|(n, _)| *n != node);
        ctx.rp_steps.push((node, target));
        // Step commit: release the previous step's locks — this node's lock
        // table holds only the current step's keys — then publish the step,
        // which wakes the transactions waiting on this one.
        self.locks.release_all(ctx.txn);
        self.env.registry.advance_step(ctx.txn, node, target);

        // Trailing rule: wait until every transaction this one trails here
        // has ended or entered `target` (or beyond).
        let registry = &self.env.registry;
        let trailed = ctx.rp_trails.iter().filter(|(n, _)| *n == node);
        let mut trailed = trailed.map(|(_, dep)| *dep).peekable();
        Wait::at(&self.env, ctx, WaitLabel::PipelineStep).until(|| {
            while let Some(dep) = trailed.peek() {
                match registry.trailing(*dep, node, target) {
                    Step::Done(_) => trailed.next(),
                    Step::BlockedOn(ticket) => return Step::BlockedOn(ticket),
                };
            }
            Step::Done(())
        })
    }

    fn operation(&self, ctx: &mut TxnCtx, lane: Lane, key: &Key, mode: LockMode) -> CcResult<()> {
        self.advance_to(ctx, self.plan.step_of(key.table))?;
        let blockers =
            self.locks
                .acquire(&self.env, ctx, key, lane.lock_lane(ctx.txn), mode, "")?;
        for blocker in blockers {
            let trail = (self.env.node, blocker);
            if !ctx.rp_trails.contains(&trail) {
                ctx.rp_trails.push(trail);
            }
            // Pipeline order implies commit order: report the dependency so
            // the engine delays our commit until the blocker commits.
            ctx.add_dep(blocker);
        }
        Ok(())
    }
}

impl CcMechanism for Rp {
    fn before_access(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        key: &Key,
        access: Access,
    ) -> CcResult<()> {
        self.operation(ctx, lane, key, LockMode::of(access))
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
            pick.writer == ctx.txn || pick.committed || self.env.same_group(lane, pick.group)
        };
        // Every write from inside this RP subtree is visible, committed or
        // only step-committed — exposing intermediate states is the
        // mechanism's whole point. A foreign write is not RP's to judge.
        let judge =
            |v: &Version| (v.writer == ctx.txn || self.env.in_subtree(v.group)).then_some(true);
        visible_version(candidate, chain, accept, judge)
    }

    fn finish(&self, ctx: &mut TxnCtx, _lane: Lane, _outcome: Option<Timestamp>) {
        self.locks.release_all(ctx.txn);
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
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use tebaldi_storage::{GroupId, MvStore, NodeId, TableId, TxnId, TxnTypeId, Value};

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
        let env = NodeEnv::for_test(0, Arc::clone(&registry), timeout_ms);
        (Arc::new(Rp::new(env, plan())), registry)
    }

    fn k(table: u32, id: u64) -> Key {
        Key::simple(TableId(table), id)
    }

    /// A context of `txn` that trails `dep` at `node`, without the lock
    /// wait that normally records the trail.
    fn trailing(txn: TxnId, dep: TxnId, node: NodeId) -> TxnCtx {
        let mut ctx = TxnCtx::new(txn, TxnTypeId(0), GroupId(0));
        ctx.rp_trails.push((node, dep));
        ctx
    }

    #[test]
    fn step_commit_releases_previous_step_locks() {
        let (rp, registry) = make_rp(40);
        registry.register(TxnId(1), TxnTypeId(0));
        registry.register(TxnId(2), TxnTypeId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::Leaf).unwrap();
        rp.begin(&mut t2, Lane::Leaf).unwrap();

        // T1 writes table 0 (step 0) then moves on to table 1 (step 1),
        // step-committing table 0's lock.
        rp.before_access(&mut t1, Lane::Leaf, &k(0, 1), Access::Write)
            .unwrap();
        rp.before_access(&mut t1, Lane::Leaf, &k(1, 1), Access::Write)
            .unwrap();
        // T2 can now take the step-0 lock even though T1 is uncommitted —
        // the pipelining benefit 2PL does not have.
        rp.before_access(&mut t2, Lane::Leaf, &k(0, 1), Access::Write)
            .unwrap();
        assert!(
            t2.deps.is_empty(),
            "a step-committed lock is granted without blocking, so no \
             lock-wait dependency is recorded"
        );
        rp.finish(&mut t1, Lane::Leaf, Some(Timestamp(1)));
        rp.finish(&mut t2, Lane::Leaf, Some(Timestamp(2)));
        assert_eq!(rp.locks.locked_key_count(), 0);
    }

    #[test]
    fn trailing_rule_blocks_until_dependency_advances() {
        let (rp, registry) = make_rp(1_000);
        registry.register(TxnId(1), TxnTypeId(0));
        registry.register(TxnId(2), TxnTypeId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::Leaf).unwrap();
        rp.before_access(&mut t1, Lane::Leaf, &k(0, 7), Access::Write)
            .unwrap();

        // T2 conflicts with T1 on step 0 (waits for T1's step commit), so T2
        // trails T1 afterwards.
        let rp2 = Arc::clone(&rp);
        let trailer = std::thread::spawn(move || {
            let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
            rp2.begin(&mut t2, Lane::Leaf).unwrap();
            rp2.before_access(&mut t2, Lane::Leaf, &k(0, 7), Access::Write)
                .unwrap();
            // Entering step 1 requires T1 to have reached step 1 too.
            rp2.before_access(&mut t2, Lane::Leaf, &k(1, 7), Access::Write)
                .unwrap();
            t2
        });
        std::thread::sleep(Duration::from_millis(30));
        // Let T1 advance to step 1 and finish; the trailer may then proceed.
        rp.before_access(&mut t1, Lane::Leaf, &k(1, 7), Access::Write)
            .unwrap();
        rp.finish(&mut t1, Lane::Leaf, Some(Timestamp(1)));
        registry.mark_committed(TxnId(1), Timestamp(1));
        let t2 = trailer.join().unwrap();
        assert!(t2.deps.contains(&TxnId(1)));
    }

    #[test]
    fn compacting_a_trailed_dependency_releases_the_trailer() {
        let (rp, registry) = make_rp(10_000);
        // T1 stays in step 0; nothing active pins its entry once it ends.
        registry.register(TxnId(1), TxnTypeId(0));
        std::thread::scope(|scope| {
            let trailer = scope.spawn(|| {
                let mut t2 = trailing(TxnId(2), TxnId(1), NodeId(0));
                let started = Instant::now();
                let entered = rp.before_access(&mut t2, Lane::Leaf, &k(1, 2), Access::Write);
                (entered, started.elapsed())
            });
            while registry.wait_for() != [(TxnId(2), TxnId(1))] {
                std::thread::sleep(Duration::from_millis(1));
            }
            // T1 ends and the next compaction forgets it: the trailer finds
            // it ended or gone, whichever it looks at first.
            registry.mark_aborted(TxnId(1));
            assert_eq!(registry.compact(), 1);
            let (entered, elapsed) = trailer.join().unwrap();
            assert_eq!(entered, Ok(()));
            assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
        });
        // A forgotten dependency holds nobody up, though its ticket would
        // have no epoch to park on.
        assert_eq!(registry.type_of(TxnId(1)), None);
        let started = Instant::now();
        let mut t3 = trailing(TxnId(3), TxnId(1), NodeId(0));
        rp.before_access(&mut t3, Lane::Leaf, &k(1, 3), Access::Write)
            .unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn timeout_when_dependency_never_advances() {
        let (rp, registry) = make_rp(30);
        registry.register(TxnId(1), TxnTypeId(0));
        registry.register(TxnId(2), TxnTypeId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::Leaf).unwrap();
        rp.before_access(&mut t1, Lane::Leaf, &k(0, 3), Access::Write)
            .unwrap();
        // T1 holds step 0; T2 requests the same key and times out.
        let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t2, Lane::Leaf).unwrap();
        let err = rp
            .before_access(&mut t2, Lane::Leaf, &k(0, 3), Access::Write)
            .unwrap_err();
        assert_eq!(err, CcError::Timeout(WaitLabel::Lock(CcKind::Rp)));
        rp.finish(&mut t2, Lane::Leaf, None);
        rp.finish(&mut t1, Lane::Leaf, None);
    }

    #[test]
    fn same_lane_transactions_do_not_conflict_at_inner_node() {
        let (rp, registry) = make_rp(30);
        registry.register(TxnId(1), TxnTypeId(0));
        registry.register(TxnId(2), TxnTypeId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        rp.begin(&mut t1, Lane::Child(0)).unwrap();
        rp.begin(&mut t2, Lane::Child(0)).unwrap();
        rp.before_access(&mut t1, Lane::Child(0), &k(0, 5), Access::Write)
            .unwrap();
        // Same child subtree: the conflict is the child's business.
        rp.before_access(&mut t2, Lane::Child(0), &k(0, 5), Access::Write)
            .unwrap();
        rp.finish(&mut t1, Lane::Child(0), Some(Timestamp(1)));
        rp.finish(&mut t2, Lane::Child(0), Some(Timestamp(2)));
    }

    /// The read-rule leaf's group, and a sibling group's.
    const IN: GroupId = GroupId(0);
    const SIBLING: GroupId = GroupId(1);

    /// An RP leaf (node 0) hosting group [`IN`].
    fn read_rule_leaf() -> Rp {
        let registry = Arc::new(TxnRegistry::default());
        Rp::new(NodeEnv::for_test(0, registry, 30), plan())
    }

    /// `writer`, of `group`, installs its id on `key` and commits at
    /// `commit` if given.
    fn install(store: &MvStore, key: Key, (writer, group): (u64, GroupId), commit: Option<u64>) {
        let version = Version::uncommitted(group, TxnId(writer), Value::Int(writer as i64), None);
        store.with_chain_mut(&key, |chain| chain.install(version));
        if let Some(ts) = commit {
            store.commit_writes(TxnId(writer), &[key], Timestamp(ts));
        }
    }

    /// What T2 reads on `key` at the leaf.
    fn read(rp: &Rp, store: &MvStore, key: Key) -> VersionPick {
        let mut reader = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        read_at(rp, store, &mut reader, Lane::Leaf, key).unwrap()
    }

    #[test]
    fn newer_foreign_committed_version_beats_older_in_group_one() {
        let rp = read_rule_leaf();
        let store = MvStore::new(1);
        install(&store, k(0, 1), (1, IN), Some(1)); // committed long ago
        install(&store, k(0, 1), (9, SIBLING), Some(2)); // committed after it
        let pick = read(&rp, &store, k(0, 1));
        assert_eq!(pick.writer, TxnId(9), "the parent ordered T9 after T1");
    }

    #[test]
    fn newest_in_group_version_is_exposed_uncommitted() {
        let rp = read_rule_leaf();
        let store = MvStore::new(1);
        install(&store, k(0, 1), (9, SIBLING), Some(1));
        install(&store, k(0, 1), (3, IN), None); // step-committed by a pipeline member
        let pick = read(&rp, &store, k(0, 1));
        assert_eq!(pick.writer, TxnId(3));
        assert!(!pick.committed);
        // A foreign uncommitted version on top is skipped, not exposed.
        install(&store, k(0, 2), (1, IN), Some(1));
        install(&store, k(0, 2), (9, SIBLING), None);
        assert_eq!(read(&rp, &store, k(0, 2)).writer, TxnId(1));
    }
}
