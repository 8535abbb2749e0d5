//! Prepared transactions — the participant half of the cluster's
//! cross-shard two-phase commit.
//!
//! [`Database::prepare`](crate::db::Database::prepare) runs a transaction
//! through start, execution, validation, and the dependency wait, hardens a
//! `Prepare` WAL record, and then *parks* the transaction in a
//! [`PreparedTxn`] instead of committing it. The handle owns `Arc`s to the
//! engine services (not borrows), so a per-shard worker thread can hold it
//! in its in-doubt table while the coordinator collects votes, then
//! [`commit`](PreparedTxn::commit) or [`abort`](PreparedTxn::abort) it when
//! the decision arrives. Everything fallible happened before parking:
//! commit of a prepared transaction cannot fail, which is exactly the "yes
//! vote" guarantee 2PC requires from a participant.

use crate::db::Database;
use crate::txn;
use std::sync::Arc;
use tebaldi_cc::{PathEntry, TxnCtx};
use tebaldi_storage::{GroupId, Timestamp, TxnId};

/// A participant's phase-one vote in the cluster's cross-shard two-phase
/// commit, as returned by [`Database::prepare`](crate::db::Database::prepare).
// The variant size difference is fine: votes are consumed immediately by
// the worker (parked or dropped), never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ParticipantVote {
    /// The classic read-only participant optimization: the part's write set
    /// was empty, so it committed and released its resources immediately
    /// after phase one. No prepare record was written and the participant
    /// must be excluded from the decision — with a single read-write
    /// participant left, the coordinator degenerates to a one-phase commit
    /// with no decision record at all.
    ReadOnly,
    /// The part wrote data: a prepare record was hardened and the
    /// transaction is parked holding its locks until the decision arrives.
    ReadWrite(PreparedTxn),
}

impl ParticipantVote {
    /// True for the read-only fast path.
    pub fn is_read_only(&self) -> bool {
        matches!(self, ParticipantVote::ReadOnly)
    }

    /// The parked transaction of a read-write vote, if any.
    pub fn into_prepared(self) -> Option<PreparedTxn> {
        match self {
            ParticipantVote::ReadOnly => None,
            ParticipantVote::ReadWrite(prepared) => Some(prepared),
        }
    }

    /// Unwraps a read-write vote (tests and fixtures that prepare writing
    /// parts by hand).
    ///
    /// # Panics
    /// When the vote was `ReadOnly`.
    pub fn expect_prepared(self) -> PreparedTxn {
        self.into_prepared()
            .expect("participant voted ReadOnly; no prepared transaction to park")
    }
}

/// A transaction that has voted "yes" and awaits the coordinator's
/// decision. Dropping the handle without a decision aborts the transaction
/// (presumed abort), releasing its locks.
pub struct PreparedTxn {
    db: Arc<Database>,
    path: Vec<PathEntry>,
    ctx: TxnCtx,
    group: GroupId,
    gc_epoch: u64,
    global: u64,
    decided: bool,
}

impl std::fmt::Debug for PreparedTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedTxn")
            .field("txn", &self.ctx.txn)
            .field("global", &self.global)
            .field("writes", &self.ctx.write_keys.len())
            .finish()
    }
}

impl PreparedTxn {
    pub(crate) fn new(
        db: Arc<Database>,
        path: Vec<PathEntry>,
        ctx: TxnCtx,
        group: GroupId,
        gc_epoch: u64,
        global: u64,
    ) -> Self {
        PreparedTxn {
            db,
            path,
            ctx,
            group,
            gc_epoch,
            global,
            decided: false,
        }
    }

    /// The shard-local transaction id.
    pub fn txn_id(&self) -> TxnId {
        self.ctx.txn
    }

    /// The cluster-global transaction id this participant acts for.
    pub fn global_id(&self) -> u64 {
        self.global
    }

    /// Number of keys this participant will commit.
    pub fn write_count(&self) -> usize {
        self.ctx.write_keys.len()
    }

    /// Applies the coordinator's commit decision. Infallible: every
    /// condition that could abort was checked before the prepare vote.
    pub fn commit(self) -> Timestamp {
        self.commit_inner(None)
    }

    /// [`commit`](PreparedTxn::commit) stamping the committed versions with
    /// the coordinator's HLC decision stamp. Every participant of one
    /// cross-shard commit receives the *same* stamp, which is what makes
    /// the commit atomically visible to cross-shard snapshot reads: a
    /// snapshot at `h` either includes the stamp on every shard or on none.
    pub fn commit_stamped(self, hlc: u64) -> Timestamp {
        self.commit_inner(if hlc > 0 { Some(hlc) } else { None })
    }

    fn commit_inner(mut self, stamp: Option<u64>) -> Timestamp {
        let commit_ts = txn::apply_commit_prepared(&self.db, &self.path, &mut self.ctx, stamp);
        self.db.record_commit();
        self.finish(Some(commit_ts));
        commit_ts
    }

    /// Applies the coordinator's abort decision (or resolves a vote that
    /// never got a decision).
    pub fn abort(mut self) {
        self.abort_inner();
    }

    fn abort_inner(&mut self) {
        if self.decided {
            return;
        }
        self.db.durability.log_abort(self.ctx.txn);
        txn::apply_abort(&self.db, &self.path, &mut self.ctx);
        self.db.record_decided_abort();
        self.finish(None);
    }

    fn finish(&mut self, commit_ts: Option<Timestamp>) {
        self.db.gc.transaction_finished(self.gc_epoch, commit_ts);
        self.db.gate.exit(self.group);
        self.decided = true;
    }
}

impl Drop for PreparedTxn {
    fn drop(&mut self) {
        // Presumed abort: an undecided prepared transaction must never leak
        // its locks when the coordinator path unwinds.
        self.abort_inner();
    }
}

#[cfg(test)]
mod tests {
    use crate::{Database, DbConfig, ProcedureCall};
    use std::sync::Arc;
    use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_storage::{Key, TableId, TxnTypeId, Value};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);

    fn db() -> Arc<Database> {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "write",
            vec![(TABLE, AccessMode::Write)],
        ));
        Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                .build()
                .unwrap(),
        )
    }

    fn read(db: &Arc<Database>, key: Key) -> Option<Value> {
        db.execute(&ProcedureCall::new(TY), |txn| txn.get(key))
            .unwrap()
    }

    #[test]
    fn prepared_commit_publishes_writes() {
        let db = db();
        let key = Key::simple(TABLE, 1);
        let (_, vote) = db
            .prepare(&ProcedureCall::new(TY), 77, |txn| {
                txn.put(key, Value::Int(7))
            })
            .unwrap();
        let prepared = vote.expect_prepared();
        assert_eq!(prepared.global_id(), 77);
        assert_eq!(prepared.write_count(), 1);

        // Still invisible and exclusively locked: a concurrent writer times
        // out rather than overtaking the prepared transaction.
        let contender = db.execute(&ProcedureCall::new(TY), |txn| txn.put(key, Value::Int(99)));
        assert!(contender.is_err(), "2PL must block a conflicting writer");

        prepared.commit();
        assert_eq!(read(&db, key), Some(Value::Int(7)));
        assert_eq!(db.stats().committed, 2, "prepared commit counts in stats");
    }

    #[test]
    fn dropped_prepare_aborts_by_presumption() {
        let db = db();
        let key = Key::simple(TABLE, 2);
        let (_, vote) = db
            .prepare(&ProcedureCall::new(TY), 78, |txn| {
                txn.put(key, Value::Int(8))
            })
            .unwrap();
        drop(vote.expect_prepared());
        assert_eq!(read(&db, key), None, "undecided prepare must roll back");
        // Locks were released: a follow-up writer succeeds immediately.
        db.execute(&ProcedureCall::new(TY), |txn| txn.put(key, Value::Int(1)))
            .unwrap();
        assert_eq!(read(&db, key), Some(Value::Int(1)));
    }

    #[test]
    fn read_only_part_votes_read_only_and_releases_immediately() {
        let db = db();
        let key = Key::simple(TABLE, 4);
        db.load(key, Value::Int(3));
        let before = db.durability().stats();
        let (value, vote) = db
            .prepare(&ProcedureCall::new(TY), 80, |txn| txn.get(key))
            .unwrap();
        assert_eq!(value, Some(Value::Int(3)));
        assert!(vote.is_read_only(), "empty write set must vote ReadOnly");
        // No prepare record was written and the locks are already gone: a
        // conflicting writer succeeds immediately.
        assert_eq!(db.durability().stats().prepares, before.prepares);
        assert_eq!(db.stats().committed, 1, "read-only part commits in stats");
        db.execute(&ProcedureCall::new(TY), |txn| txn.put(key, Value::Int(9)))
            .unwrap();
        assert_eq!(read(&db, key), Some(Value::Int(9)));
    }

    #[test]
    fn prepare_failure_cleans_up() {
        let db = db();
        let key = Key::simple(TABLE, 3);
        let result = db.prepare(&ProcedureCall::new(TY), 79, |txn| {
            txn.put(key, Value::Int(9))?;
            Err::<(), _>(txn.request_abort())
        });
        assert!(result.is_err());
        assert_eq!(read(&db, key), None);
        assert_eq!(db.stats().aborted, 1);
    }
}
