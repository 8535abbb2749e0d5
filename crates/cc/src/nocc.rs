//! The empty concurrency control.
//!
//! Read-only groups "require no in-group concurrency control" (§4.6.1): two
//! read-only transactions can never conflict, so the group's leaf node only
//! has to propose a read version — the latest committed one, which is the
//! trait's default `choose_version` — and let its ancestors amend it. Using
//! `NoCc` for a group containing writers would be incorrect; the tree builder
//! and the automatic configurator only assign it to groups whose transaction
//! types are all read-only.

use crate::mechanism::CcMechanism;

/// The no-op mechanism for read-only groups.
pub struct NoCc;

impl CcMechanism for NoCc {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{read_at, Lane, TxnCtx};
    use tebaldi_storage::{GroupId, Key, MvStore, TableId, Timestamp, TxnId, TxnTypeId, Value};

    #[test]
    fn proposes_latest_committed() {
        let cc = NoCc;
        let (store, key) = (MvStore::new(1), Key::simple(TableId(0), 1));
        store.write(&key, TxnId(1), Value::Int(7));
        store.commit_writes(TxnId(1), &[key], Timestamp(1));
        let mut ctx = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        let pick = read_at(&cc, &store, &mut ctx, Lane::Leaf, key).unwrap();
        assert_eq!(pick.value, Value::Int(7));
        // All other phases are no-ops and must not fail.
        assert!(cc.begin(&mut ctx, Lane::Leaf).is_ok());
        assert!(cc.validate(&mut ctx, Lane::Leaf).is_ok());
        cc.finish(&mut ctx, Lane::Leaf, Some(Timestamp(2)));
    }
}
