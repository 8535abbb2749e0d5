//! The transaction handle and the engine-side execution protocol (§4.3.1).
//!
//! Every operation runs in two passes over the transaction's root→leaf
//! path:
//!
//! * **top-down** — each mechanism constrains the operation (acquires
//!   locks, checks timestamps, aborts on conflicts),
//! * **bottom-up** — for reads, the leaf proposes a candidate version and
//!   each ancestor may amend it based on writes from sibling groups; the
//!   writer of the finally-chosen version becomes a dependency when it has
//!   not committed yet.
//!
//! Commit runs validation top-down, then waits for the transaction's
//! dependency set (the adoption strategy that makes 2PL/RP respect their
//! children's ordering, §4.2.2 — one [`tebaldi_cc::wait`] over the whole
//! set), then installs the commit in storage, notifies durability, runs
//! every mechanism's `finish` leaf→root so resources are released only after
//! the new versions are visible, and finally marks the transaction finished
//! in the registry, which wakes the transactions waiting on it.

use crate::db::Database;
use tebaldi_cc::wait::Wait;
use tebaldi_cc::{
    CcError, CcResult, CcTree, PathEntry, Reason, TxnCtx, TxnStatus, VersionPick, WaitLabel,
};
use tebaldi_storage::{GroupId, Key, Timestamp, TxnId, TxnTypeId, Value, Version, VersionId};

/// Outcome of a transaction (internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    Running,
    Finished,
}

/// A handle through which the transaction body reads and writes.
pub struct Txn<'a> {
    db: &'a Database,
    /// Root→leaf path of the transaction's group, borrowed from the tree
    /// the attempt runs on (an attempt holds its tree for its whole life).
    path: &'a [PathEntry],
    ctx: TxnCtx,
    phase: TxnPhase,
    /// Bloom filter over `ctx.write_keys` (one bit per key, from
    /// [`Key::mix64`]): most reads are of keys the transaction never wrote,
    /// and one `AND` lets them skip the read-your-own-writes probe.
    written: [u64; 4],
}

/// The bit of the write-set Bloom filter that stands for `key`.
fn written_bit(key: &Key) -> (usize, u64) {
    let b = (key.mix64() >> 48) as u8;
    ((b >> 6) as usize, 1u64 << (b & 63))
}

impl<'a> Txn<'a> {
    pub(crate) fn new(
        db: &'a Database,
        tree: &'a CcTree,
        txn: TxnId,
        ty: TxnTypeId,
        group: GroupId,
    ) -> Self {
        Txn {
            db,
            path: tree.path(group).unwrap_or_default(),
            ctx: TxnCtx::new(txn, ty, group),
            phase: TxnPhase::Running,
            written: [0; 4],
        }
    }

    /// Whether this transaction has written `key`. Exact: the filter only
    /// screens out the common "never written" case before the scan.
    fn wrote(&self, key: &Key) -> bool {
        let (word, bit) = written_bit(key);
        self.written[word] & bit != 0 && self.ctx.write_keys.contains(key)
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.ctx.txn
    }

    /// The leaf group this instance was assigned to.
    pub fn group(&self) -> GroupId {
        self.ctx.group
    }

    /// Start phase: top-down pass over the path, for a transaction that
    /// promises to write `promised_keys`.
    pub(crate) fn begin(&mut self, promised_keys: &[Key]) -> CcResult<()> {
        if self.path.is_empty() {
            return Err(CcError::Internal("empty CC path".to_string()));
        }
        self.ctx.promised_keys = promised_keys.to_vec();
        for entry in self.path {
            entry.mechanism.begin(&mut self.ctx, entry.lane)?;
        }
        Ok(())
    }

    /// Reads a key. Returns `None` when the key has never been written (or
    /// its visible version is a delete).
    pub fn get(&mut self, key: Key) -> CcResult<Option<Value>> {
        // Top-down pass: every mechanism may block or abort the read.
        for entry in self.path {
            entry
                .mechanism
                .before_read(&mut self.ctx, entry.lane, &key)?;
        }
        // Bottom-up pass inside the storage access: the leaf proposes, the
        // ancestors amend.
        // Read-your-own-writes first — decided from the write set, not by
        // probing the chain: a lock-free probe for a version that is not
        // there cannot trust the racing uncommitted count, so whenever
        // *another* writer is in flight on the key it walks the whole chain.
        let wrote = self.wrote(&key);
        let pick: Option<VersionPick> = self.db.store.with_chain(&key, |chain| {
            if let Some(own) = wrote.then(|| chain.uncommitted_by(self.ctx.txn)).flatten() {
                return Some(VersionPick::from_version(own));
            }
            let mut candidate: Option<VersionPick> = None;
            for entry in self.path.iter().rev() {
                candidate = entry.mechanism.choose_version(
                    &mut self.ctx,
                    entry.lane,
                    &key,
                    candidate,
                    chain,
                );
            }
            candidate
        });

        let Some(pick) = pick else {
            if let Some(history) = &self.db.history {
                history.read(self.ctx.txn, key, TxnId::BOOTSTRAP);
            }
            return Ok(None);
        };
        // Reading an uncommitted version creates a read-from dependency: we
        // may only commit after the writer does (aborted-read prevention).
        if !pick.committed && pick.writer != self.ctx.txn {
            self.ctx.add_dep(pick.writer);
        }
        if let Some(history) = &self.db.history {
            history.read(self.ctx.txn, key, pick.writer);
        }
        if pick.value.is_null() {
            Ok(None)
        } else {
            Ok(Some(pick.value))
        }
    }

    /// Writes a key.
    pub fn put(&mut self, key: Key, value: Value) -> CcResult<()> {
        // Top-down pass: locks, timestamp checks.
        for entry in self.path {
            entry
                .mechanism
                .before_write(&mut self.ctx, entry.lane, &key)?;
        }
        // Validation against the live chain plus installation, under the
        // chain's own lock so no other writer can slip in between. Version
        // ids are diagnostics: the writer's id and the ordinal of the key in
        // its write set name a version uniquely without a store-wide counter
        // (an overwrite keeps the id of the version it replaces).
        let version_id = VersionId((self.ctx.txn.0 << 16) | self.ctx.write_keys.len() as u64);
        let first_write: CcResult<bool> = self.db.store.with_chain_mut(&key, |chain| {
            for entry in self.path.iter() {
                entry
                    .mechanism
                    .validate_write(&mut self.ctx, entry.lane, &key, chain)?;
            }
            Ok(chain.install(Version::uncommitted(
                version_id,
                self.ctx.txn,
                value,
                self.ctx.order_ts,
            )))
        });
        // The chain already knows whether this writer had a version on the
        // key: the write set needs no scan to stay duplicate-free.
        if first_write? {
            self.ctx.write_keys.push(key);
            let (word, bit) = written_bit(&key);
            self.written[word] |= bit;
        }
        if let Some(history) = &self.db.history {
            history.write(self.ctx.txn, key);
        }
        for entry in self.path {
            entry.mechanism.after_write(&mut self.ctx, entry.lane, &key);
        }
        Ok(())
    }

    /// Deletes a key (writes a null version).
    pub fn delete(&mut self, key: Key) -> CcResult<()> {
        self.put(key, Value::Null)
    }

    /// Read-modify-write of a single field: applies `f` to the current value
    /// of field `idx` (0 when absent) and writes the updated row back.
    pub fn update_field(
        &mut self,
        key: Key,
        idx: usize,
        f: impl FnOnce(i64) -> i64,
    ) -> CcResult<i64> {
        let current = self.get(key)?;
        let old = current.as_ref().and_then(|v| v.field(idx)).unwrap_or(0);
        let new = f(old);
        let updated = match current {
            Some(v) => v.with_field(idx, new),
            None => Value::Int(new).with_field(idx, new),
        };
        self.put(key, updated)?;
        Ok(new)
    }

    /// Adds `delta` to field `idx` of `key` and returns the new value.
    pub fn increment(&mut self, key: Key, idx: usize, delta: i64) -> CcResult<i64> {
        self.update_field(key, idx, |v| v + delta)
    }

    /// Requests an abort from inside the transaction body.
    pub fn request_abort(&mut self) -> CcError {
        CcError::Requested
    }

    /// Validation + commit. Returns the commit timestamp.
    pub(crate) fn commit(&mut self) -> CcResult<Timestamp> {
        self.validate_and_wait_deps()?;
        let commit_ts = apply_commit(self.db, self.path, &mut self.ctx);
        self.phase = TxnPhase::Finished;
        Ok(commit_ts)
    }

    /// [`commit`](Txn::commit) with the durability wait deferred: the
    /// commit records are appended (fixing their place in the log order)
    /// but the flush is left to the caller, who must wait on the returned
    /// funnel sequence before acknowledging the commit. `None` means the
    /// commit is already as durable as the policy requires.
    pub(crate) fn commit_deferred(&mut self) -> CcResult<(Timestamp, Option<u64>)> {
        self.validate_and_wait_deps()?;
        let (commit_ts, harden) = apply_commit_deferred(self.db, self.path, &mut self.ctx);
        self.phase = TxnPhase::Finished;
        Ok((commit_ts, harden))
    }

    /// Validation phase plus dependency wait — everything that can still
    /// abort the transaction. After this returns `Ok` the transaction is
    /// *prepared*: it holds every resource needed to commit on demand, which
    /// is the participant-side guarantee of the cluster's cross-shard
    /// two-phase commit.
    pub(crate) fn validate_and_wait_deps(&mut self) -> CcResult<()> {
        if self.ctx.must_abort {
            return Err(CcError::Conflict(Reason::MarkedForAbort));
        }
        // Validation phase, top-down.
        for entry in self.path {
            entry.mechanism.validate(&mut self.ctx, entry.lane)?;
        }
        // Dependency wait, at the transaction's leaf and under one deadline
        // for the whole set: every transaction we read from (or trail in a
        // pipeline) must commit first; if any aborted, we must abort too.
        let registry = &self.db.registry;
        let leaf = self.path.last().expect("begin rejects an empty path");
        let mut wait = Wait::new(
            registry,
            &*self.db.events,
            leaf.node,
            self.db.config.wait_timeout(),
            &self.ctx,
            WaitLabel::DependencyCommit,
        );
        for dep in &self.ctx.deps {
            if registry.wait_finished(&mut wait, *dep)? == TxnStatus::Aborted {
                return Err(CcError::DependencyAborted);
            }
        }
        // Ordering-only dependencies (e.g. TSO's smaller-timestamp set) must
        // merely finish before we commit; their abort is harmless to us.
        for dep in self.ctx.order_deps.difference(&self.ctx.deps) {
            registry.wait_finished(&mut wait, *dep)?;
        }
        Ok(())
    }

    /// Abort: discard writes, mark aborted, release resources.
    pub(crate) fn abort(&mut self) {
        if self.phase == TxnPhase::Finished {
            return;
        }
        apply_abort(self.db, self.path, &mut self.ctx);
        self.phase = TxnPhase::Finished;
    }

    /// Prepare stabilization: every mechanism confirms (top-down) that the
    /// transaction's yes-vote cannot be invalidated by concurrent
    /// transactions while it is parked awaiting the coordinator's decision.
    pub(crate) fn mark_prepared(&mut self) -> CcResult<()> {
        for entry in self.path {
            entry.mechanism.mark_prepared(&mut self.ctx, entry.lane)?;
        }
        Ok(())
    }

    /// Decomposes the handle into the pieces a
    /// [`PreparedTxn`](crate::prepared::PreparedTxn) carries across threads.
    pub(crate) fn into_parts(self) -> (Vec<PathEntry>, TxnCtx) {
        (self.path.to_vec(), self.ctx)
    }

    /// The per-transaction context (engine-internal).
    pub(crate) fn ctx(&self) -> &TxnCtx {
        &self.ctx
    }
}

/// Applies a decided commit: assigns the commit timestamp, hardens the
/// durability records, publishes the versions, and runs every mechanism's
/// commit phase leaf→root. Infallible by design — everything that can fail
/// must happen in [`Txn::validate_and_wait_deps`], which is what makes the
/// prepared state of the cross-shard two-phase commit safe to park.
pub(crate) fn apply_commit(db: &Database, path: &[PathEntry], ctx: &mut TxnCtx) -> Timestamp {
    apply_commit_inner(db, path, ctx, false, false, None).0
}

/// [`apply_commit`] with the durability wait deferred: the commit records
/// are appended into the group-commit funnel (fixing their place in the
/// log order) but the flush wait is returned to the caller as a funnel
/// sequence instead of blocking here. The versions are published and the
/// locks released immediately, so the flush no longer sits inside the
/// critical section; read-from consistency survives because the durable
/// log is always a prefix of the append order (a dependent transaction's
/// flush hardens these records first).
pub(crate) fn apply_commit_deferred(
    db: &Database,
    path: &[PathEntry],
    ctx: &mut TxnCtx,
) -> (Timestamp, Option<u64>) {
    apply_commit_inner(db, path, ctx, false, true, None)
}

/// [`apply_commit`] for a transaction whose writes were already hardened in
/// a synchronous `Prepare` record: only the commit notification is logged
/// (recovery replays the prepared writes when the decision says commit), so
/// the write payloads never hit the WAL twice. `stamp` is the coordinator's
/// HLC decision stamp: every participant of a cross-shard commit stamps its
/// versions with exactly this value, making the commit atomically visible
/// to cross-shard snapshot reads (`None` draws a fresh local stamp).
pub(crate) fn apply_commit_prepared(
    db: &Database,
    path: &[PathEntry],
    ctx: &mut TxnCtx,
    stamp: Option<u64>,
) -> Timestamp {
    apply_commit_inner(db, path, ctx, true, false, stamp).0
}

fn apply_commit_inner(
    db: &Database,
    path: &[PathEntry],
    ctx: &mut TxnCtx,
    prepared: bool,
    defer_harden: bool,
    stamp: Option<u64>,
) -> (Timestamp, Option<u64>) {
    // Register the commit as in flight so snapshot readers (SSI) do not
    // take a start timestamp above it until every key is marked
    // committed; deregistered below once the commit is fully applied.
    let commit_ts = db.oracle.begin_commit();

    // The cluster-wide HLC stamp of this commit. A 2PC participant is
    // handed the coordinator's decision stamp (drawn after observing every
    // participant's vote clock, so it exceeds every stamp already on these
    // chains); everyone else draws from the local clock, which `now()`
    // keeps strictly above every snapshot timestamp this shard has
    // observed — a snapshot reader at `h` can therefore never miss a
    // commit stamped `<= h` (see `crate::hlc`). Read-only commits skip the
    // tick: they stamp nothing, and an idle clock stays cheap.
    let hlc = if ctx.write_keys.is_empty() {
        0
    } else {
        match stamp {
            Some(d) => {
                db.hlc.observe(d);
                d
            }
            None => db.hlc.now(),
        }
    };

    // Durability: the write set, then the commit notification — appended
    // as one batch so the whole transaction hardens with a single (group-
    // commit coalesced) flush. A prepared transaction already hardened its
    // writes in the Prepare record, so only the commit notification is
    // logged.
    let mut harden = None;
    if db.durability.is_enabled() && !ctx.write_keys.is_empty() {
        if prepared {
            db.durability
                .commit_stamped(ctx.txn, db.durability.current_epoch(), commit_ts, hlc);
        } else {
            harden = db.durability.commit_transaction(
                ctx.txn,
                collect_writes(db, ctx),
                commit_ts,
                hlc,
                defer_harden,
            );
            if !defer_harden {
                // Durable-then-visible: wait the flush out here, before the
                // versions are published below.
                if let Some(seq) = harden.take() {
                    db.durability.wait_group_seq(seq);
                }
            }
        }
    } else if defer_harden {
        // A read-only commit writes no records, but its result may derive
        // from a deferred commit whose versions are visible while its
        // flush is still pending: the acknowledgement must wait for that
        // flush (see `DurabilityManager::read_barrier`), or a crash could
        // lose data an acknowledged read already reflected.
        harden = db.durability.read_barrier();
    }

    // Make the new versions visible, let mechanisms release their resources
    // leaf→root, then mark the transaction committed — which wakes every
    // transaction waiting on it, lock waiters included, so it must come
    // after the locks are gone.
    db.store
        .commit_writes_stamped(ctx.txn, &ctx.write_keys, commit_ts, hlc);
    db.oracle.end_commit(commit_ts);
    if let Some(history) = &db.history {
        history.commit(ctx.txn, commit_ts);
    }
    for entry in path.iter().rev() {
        entry.mechanism.finish(ctx, entry.lane, Some(commit_ts));
    }
    db.registry.mark_committed(ctx.txn, commit_ts);
    (commit_ts, harden)
}

/// Applies an abort: discards writes, releases every mechanism resource
/// leaf→root, then marks the transaction aborted (waking its waiters).
pub(crate) fn apply_abort(db: &Database, path: &[PathEntry], ctx: &mut TxnCtx) {
    db.store.abort_writes(ctx.txn, &ctx.write_keys);
    if let Some(history) = &db.history {
        history.abort(ctx.txn);
    }
    for entry in path.iter().rev() {
        entry.mechanism.finish(ctx, entry.lane, None);
    }
    db.registry.mark_aborted(ctx.txn);
}

/// The transaction's writes with the values they will commit, each key
/// once, in first-write order — what the log carries for it.
pub(crate) fn collect_writes(db: &Database, ctx: &TxnCtx) -> Vec<(Key, Value)> {
    ctx.write_keys
        .iter()
        .map(|key| {
            let value = db
                .store
                .read(key, tebaldi_storage::ReadSpec::OwnOrCommitted(ctx.txn))
                .unwrap_or(Value::Null);
            (*key, value)
        })
        .collect()
}
