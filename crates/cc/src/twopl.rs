//! Two-phase locking (§4.4.1).
//!
//! The implementation follows the textbook algorithm: shared locks for
//! reads, exclusive locks for writes, all held until commit, deadlocks
//! resolved by timeouts. Serving as a non-leaf node of the CC tree requires
//! exactly the two changes described in the paper:
//!
//! 1. locks acquired by transactions from the same child group are marked
//!    non-conflicting (delegation — implemented by the lane-aware
//!    [`LockManager`]), and
//! 2. a transaction's commit is delayed until all its in-group dependencies
//!    have committed (the *nexus lock release order*) — implemented by the
//!    engine's dependency wait, which runs before any mechanism's commit
//!    phase.
//!
//! In the read logic of the bottom-up pass, 2PL accepts the child's proposal
//! if it is an uncommitted value from its own group and otherwise returns
//! the latest committed value (§4.4.1).

use crate::error::CcResult;
use crate::lock::{LockManager, LockMode};
use crate::mechanism::{visible_version, Access, CcMechanism, Lane, NodeEnv, TxnCtx, VersionPick};
use tebaldi_storage::{Chain, Key, Timestamp};

/// A two-phase-locking node.
pub struct TwoPl {
    env: NodeEnv,
    locks: LockManager,
}

impl TwoPl {
    /// Creates a 2PL mechanism bound to a CC-tree node.
    pub fn new(env: NodeEnv) -> Self {
        TwoPl {
            env,
            locks: LockManager::default(),
        }
    }
}

impl CcMechanism for TwoPl {
    fn before_access(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        key: &Key,
        access: Access,
    ) -> CcResult<()> {
        let mode = LockMode::of(access);
        self.locks
            .acquire(&self.env, ctx, key, lane.lock_lane(ctx.txn), mode, "")?;
        Ok(())
    }

    fn choose_version(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        _key: &Key,
        candidate: Option<VersionPick>,
        chain: &Chain<'_>,
    ) -> Option<VersionPick> {
        // Accept the child's proposal when it comes from inside this node's
        // own group (the child is responsible for those conflicts); 2PL
        // judges no version itself, so anything else is the newest
        // committed value.
        let accept = |pick: &VersionPick| {
            pick.writer == ctx.txn || pick.committed || self.env.same_group(lane, pick.group)
        };
        visible_version(candidate, chain, accept, |_| None)
    }

    fn finish(&self, ctx: &mut TxnCtx, _lane: Lane, _outcome: Option<Timestamp>) {
        self.locks.release_all(ctx.txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TxnRegistry;
    use std::sync::Arc;
    use tebaldi_storage::{GroupId, MvStore, TableId, TxnId, TxnTypeId, Value, Version};

    fn make_env(lanes: u32, registry: Arc<TxnRegistry>) -> NodeEnv {
        NodeEnv::for_test(lanes, registry, 25)
    }

    fn key(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    #[test]
    fn same_lane_writes_do_not_conflict() {
        let registry = Arc::new(TxnRegistry::default());
        let cc = TwoPl::new(make_env(2, registry));
        let mut a = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut b = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        cc.before_access(&mut a, Lane::Child(0), &key(1), Access::Write)
            .unwrap();
        cc.before_access(&mut b, Lane::Child(0), &key(1), Access::Write)
            .unwrap();
        // A third transaction from another child blocks and times out.
        let mut c = TxnCtx::new(TxnId(3), TxnTypeId(1), GroupId(1));
        assert!(cc
            .before_access(&mut c, Lane::Child(1), &key(1), Access::Write)
            .is_err());
        cc.finish(&mut a, Lane::Child(0), Some(Timestamp(1)));
        cc.finish(&mut b, Lane::Child(0), Some(Timestamp(2)));
        // Now the other child can acquire it.
        cc.before_access(&mut c, Lane::Child(1), &key(1), Access::Write)
            .unwrap();
        cc.finish(&mut c, Lane::Child(1), None);
        assert_eq!(cc.locks.locked_key_count(), 0);
    }

    #[test]
    fn leaf_mode_conflicts_per_transaction() {
        let registry = Arc::new(TxnRegistry::default());
        let cc = TwoPl::new(make_env(0, registry));
        let mut a = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut b = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        cc.before_access(&mut a, Lane::Leaf, &key(2), Access::Write)
            .unwrap();
        assert!(cc
            .before_access(&mut b, Lane::Leaf, &key(2), Access::Write)
            .is_err());
        cc.finish(&mut a, Lane::Leaf, None);
        cc.before_access(&mut b, Lane::Leaf, &key(2), Access::Write)
            .unwrap();
    }

    #[test]
    fn choose_version_rejects_foreign_uncommitted() {
        // Group 0 under child 0, group 1 under child 1.
        let cc = TwoPl::new(make_env(2, Arc::new(TxnRegistry::default())));

        let store = MvStore::new(1);
        let write = |k: Key, writer: u64, group: u32| {
            let version = Version::uncommitted(GroupId(group), TxnId(writer), Value::Int(1), None);
            store.with_chain_mut(&k, |chain| chain.install(version));
        };
        for k in [key(1), key(2)] {
            store.write(&k, TxnId(5), Value::Int(50));
            store.commit_writes(TxnId(5), &[k], Timestamp(1));
        }
        write(key(1), 20, 1); // uncommitted write by group 1
        write(key(2), 10, 0); // and one by the reader's group

        let mut reader = TxnCtx::new(TxnId(11), TxnTypeId(0), GroupId(0));
        // The child's proposal is `writer`'s uncommitted version on `key`.
        let mut read = |key: Key, writer: u64| {
            store.with_chain(&key, |chain| {
                let proposal = chain.uncommitted_by(TxnId(writer)).unwrap();
                let candidate = Some(VersionPick::from_version(proposal));
                cc.choose_version(&mut reader, Lane::Child(0), &key, candidate, chain)
                    .unwrap()
            })
        };
        // A foreign uncommitted version is overridden with the latest
        // committed one; a proposal from the reader's own group stands.
        assert_eq!(read(key(1), 20).writer, TxnId(5));
        assert_eq!(read(key(2), 10).writer, TxnId(10));
    }
}
