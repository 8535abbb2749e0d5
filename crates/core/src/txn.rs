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
//! A write validates against the key's chain and installs under one hold of
//! the key's latch. A read-modify-write ([`Txn::update`]) is one operation,
//! not a read followed by a write: its top-down pass declares the write
//! intent before anything is read, and validation, the bottom-up read and
//! the install all happen under that one hold of the latch — one chain
//! access per row update.
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
#[cfg(debug_assertions)]
use tebaldi_cc::AccessMode;
use tebaldi_cc::{
    Access, CcError, CcResult, CcTree, PathEntry, Reason, TxnCtx, TxnStatus, VersionPick, WaitLabel,
};
use tebaldi_storage::{Chain, GroupId, Key, Timestamp, TxnId, TxnTypeId, Value, Version};

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
    /// Keys read with a plain [`get`](Txn::get) (debug builds only: see
    /// `assert_not_upgrading`).
    #[cfg(debug_assertions)]
    plain_reads: Vec<Key>,
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
        read_only: bool,
    ) -> Self {
        let mut ctx = TxnCtx::new(txn, ty, group);
        ctx.read_only = read_only;
        Txn {
            db,
            path: tree.path(group).unwrap_or_default(),
            ctx,
            phase: TxnPhase::Running,
            written: [0; 4],
            #[cfg(debug_assertions)]
            plain_reads: Vec::new(),
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
        self.before(&key, Access::Read)?;
        // Read-your-own-writes is decided from the write set, not by probing
        // the chain: a lock-free probe for a version that is not there
        // cannot trust the racing uncommitted count, so whenever *another*
        // writer is in flight on the key it walks the whole chain.
        let wrote = self.wrote(&key);
        let db = self.db;
        let pick = db
            .store
            .with_chain(&key, |chain| self.pick(wrote, &key, chain));
        #[cfg(debug_assertions)]
        if !wrote {
            self.plain_reads.push(key);
        }
        Ok(self.saw(key, pick))
    }

    /// Starts loading the store lines the lookups of `keys` will touch
    /// ([`MvStore::prefetch`](tebaldi_storage::MvStore::prefetch)), for a
    /// body that knows keys before it accesses them. A hint, not an
    /// access: no mechanism hears of it, nothing is read, locked or
    /// recorded, and the accesses that follow run exactly as they would
    /// without it, only with warm lines. A key never accessed afterwards
    /// costs a wasted load.
    pub fn prefetch(&self, keys: impl IntoIterator<Item = Key>) {
        self.db.store.prefetch(keys);
    }

    /// Writes a key.
    pub fn put(&mut self, key: Key, value: Value) -> CcResult<()> {
        self.before(&key, Access::Write)?;
        let (_, first) = self.write_latched(key, false, |_| Some(value))?;
        self.installed(key, first == Some(true))
    }

    /// Deletes a key (writes a null version).
    pub fn delete(&mut self, key: Key) -> CcResult<()> {
        self.put(key, Value::Null)
    }

    /// Read-modify-write of `key` in one chain access: `f` maps the current
    /// value (`None` when the key is absent or deleted) to the value written
    /// back, or to `None` to leave the key as it is. Returns what `f`
    /// returned.
    ///
    /// The write intent comes first: the top-down pass sees
    /// [`Access::Update`], so a locking node takes the key exclusive at once
    /// instead of sharing it for the read and upgrading for the write (two
    /// transactions that both upgrade one key deadlock until the wait
    /// deadline). Then, under one hold of the key's latch, every
    /// mechanism's `validate_write` runs — a write-write loser aborts before
    /// it reads — followed by the read and the install. Declining to write
    /// keeps the intent: the key stays locked, and a write-write conflict
    /// has already aborted the transaction (a read for update).
    pub fn update(
        &mut self,
        key: Key,
        f: impl FnOnce(Option<&Value>) -> Option<Value>,
    ) -> CcResult<Option<Value>> {
        self.before(&key, Access::Update)?;
        let mut written = None;
        let (pick, first) = self.write_latched(key, true, |current| {
            written = f(current);
            written.clone()
        })?;
        self.saw(key, pick);
        if let Some(first) = first {
            self.installed(key, first)?;
        }
        Ok(written)
    }

    /// Reads `key` with the intent to write it later in the transaction:
    /// [`update`](Txn::update) that writes nothing. For a read whose write
    /// depends on other operations in between; a read followed directly by
    /// its write is one `update`.
    pub fn get_for_update(&mut self, key: Key) -> CcResult<Option<Value>> {
        let mut current = None;
        self.update(key, |value| {
            current = value.cloned();
            None
        })?;
        Ok(current)
    }

    /// Adds `delta` to field `idx` of `key` and returns the field's new
    /// value: one [`update`](Txn::update).
    pub fn increment(&mut self, key: Key, idx: usize, delta: i64) -> CcResult<i64> {
        let mut new = 0;
        self.update(key, |current| {
            new = current.and_then(|v| v.field(idx)).unwrap_or(0) + delta;
            // An absent key reads as zeros: `Int(new)` for field 0,
            // otherwise a row of zeros with `new` at `idx`.
            Some(current.unwrap_or(&Value::Int(0)).with_field(idx, new))
        })?;
        Ok(new)
    }

    /// The top-down pass of an operation: every mechanism may block or
    /// abort it. A write of a transaction declared read-only
    /// ([`TxnCtx::read_only`]) fails first, before any mechanism or the
    /// chain sees it: SSI lets such a transaction read without registering.
    fn before(&mut self, key: &Key, access: Access) -> CcResult<()> {
        if access.writes() && self.ctx.read_only {
            return Err(CcError::Internal(format!(
                "{} is declared read-only and writes {key:?}",
                self.db.procedures.name(self.ctx.ty)
            )));
        }
        #[cfg(debug_assertions)]
        if access.writes() {
            self.assert_not_upgrading(key);
        }
        for entry in self.path {
            entry
                .mechanism
                .before_access(&mut self.ctx, entry.lane, key, access)?;
        }
        Ok(())
    }

    /// The version a read of `key` sees on `chain`: the transaction's own
    /// write when it has one there, otherwise the bottom-up pass — the leaf
    /// proposes, the ancestors amend.
    fn pick(&mut self, wrote: bool, key: &Key, chain: &Chain<'_>) -> Option<VersionPick> {
        if let Some(own) = wrote.then(|| chain.uncommitted_by(self.ctx.txn)).flatten() {
            return Some(VersionPick::from_version(own));
        }
        let mut candidate = None;
        for entry in self.path.iter().rev() {
            candidate =
                entry
                    .mechanism
                    .choose_version(&mut self.ctx, entry.lane, key, candidate, chain);
        }
        candidate
    }

    /// Accounts for a read that saw `pick` and returns its value (`None`
    /// for an absent key or a delete). Reading an uncommitted version
    /// creates a read-from dependency: we may only commit after the writer
    /// does (aborted-read prevention).
    fn saw(&mut self, key: Key, pick: Option<VersionPick>) -> Option<Value> {
        if let Some(history) = &self.db.history {
            let writer = pick.as_ref().map_or(TxnId::BOOTSTRAP, |p| p.writer);
            history.read(self.ctx.txn, key, writer);
        }
        let pick = pick?;
        if !pick.committed {
            self.ctx.add_dep(pick.writer);
        }
        Some(pick.value).filter(|value| !value.is_null())
    }

    /// The part of a write that holds `key`'s latch, so no other writer can
    /// slip in between: every mechanism's validation against the live
    /// chain, the read of a read-modify-write (`read`), then the install of
    /// what `make` returns for the value read. The read is picked as an
    /// update's ([`TxnCtx::update_read`]); when `make` declines to write,
    /// it is picked again as a plain read. Returns the read's pick and,
    /// when a version was installed, whether it is the transaction's first
    /// on the key — the chain knows, so the write set needs no scan to stay
    /// duplicate-free.
    fn write_latched(
        &mut self,
        key: Key,
        read: bool,
        make: impl FnOnce(Option<&Value>) -> Option<Value>,
    ) -> CcResult<(Option<VersionPick>, Option<bool>)> {
        let wrote = self.wrote(&key);
        let db = self.db;
        db.store.with_chain_mut(&key, |chain| {
            for entry in self.path {
                entry
                    .mechanism
                    .validate_write(&mut self.ctx, entry.lane, &key, chain)?;
            }
            let pick = if read {
                self.ctx.update_read = true;
                let pick = self.pick(wrote, &key, chain);
                self.ctx.update_read = false;
                pick
            } else {
                None
            };
            let current = pick.as_ref().map(|p| &p.value).filter(|v| !v.is_null());
            let Some(value) = make(current) else {
                // A declined update is a plain read: picked again as one.
                return Ok((read.then(|| self.pick(wrote, &key, chain)).flatten(), None));
            };
            let first = chain.install(Version::uncommitted(
                self.ctx.group,
                self.ctx.txn,
                value,
                self.ctx.order_ts,
            ));
            Ok((pick, Some(first)))
        })
    }

    /// What follows an install, with the key's latch released: the write
    /// set (on the key's `first` write) and the checks that must see the
    /// installed version (SSI's reader scan). The key is already in the
    /// write set, so an abort here discards the version with the rest.
    fn installed(&mut self, key: Key, first: bool) -> CcResult<()> {
        if first {
            self.ctx.write_keys.push(key);
            let (word, bit) = written_bit(&key);
            self.written[word] |= bit;
        }
        if let Some(history) = &self.db.history {
            history.write(self.ctx.txn, key);
        }
        for entry in self.path {
            entry
                .mechanism
                .after_write(&mut self.ctx, entry.lane, &key)?;
        }
        Ok(())
    }

    /// Debug builds check that a procedure never reads a key with a plain
    /// [`get`](Txn::get) and then writes it on a table its
    /// [`ProcedureInfo`](tebaldi_cc::ProcedureInfo) declares written
    /// ([`AccessMode::Write`](tebaldi_cc::AccessMode::Write) means "writes
    /// or read-modify-writes"): under a locking node that read takes the key
    /// shared and the write upgrades it, the pattern [`update`](Txn::update)
    /// and [`get_for_update`](Txn::get_for_update) exist to avoid.
    #[cfg(debug_assertions)]
    fn assert_not_upgrading(&self, key: &Key) {
        let declared_written = self.db.procedures.get(self.ctx.ty).is_some_and(|p| {
            p.table_sequence
                .iter()
                .any(|&(table, mode)| table == key.table && mode == AccessMode::Write)
        });
        assert!(
            !declared_written || !self.plain_reads.contains(key),
            "{} reads {key:?} with `get` and then writes it: read it with \
             `update` or `get_for_update`, or a locking node upgrades the lock",
            self.db.procedures.name(self.ctx.ty)
        );
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
            return Err(CcError::conflict(Reason::MarkedForAbort));
        }
        // Validation phase, top-down.
        for entry in self.path {
            entry.mechanism.validate(&mut self.ctx, entry.lane)?;
        }
        // Dependency wait, at the transaction's leaf and under one deadline
        // for the whole set: every transaction we read from (or trail in a
        // pipeline) must commit first; if any aborted, we must abort too.
        let registry = &self.db.services.registry;
        let leaf = self.path.last().expect("begin rejects an empty path");
        let mut wait = Wait::new(
            registry,
            &*self.db.services.events,
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
    let commit_ts = db.services.oracle.begin_commit();

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

    // Durability: one record holds the write set and the commit stamp, so
    // the whole transaction hardens with a single (group-commit coalesced)
    // flush. A prepared transaction already hardened its writes in the
    // Prepare record, so only the commit decision is logged.
    let mut harden = None;
    if db.durability.is_enabled() && !ctx.write_keys.is_empty() {
        if prepared {
            db.durability.commit_stamped(ctx.txn, commit_ts, hlc);
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
    db.services.oracle.end_commit(commit_ts);
    if let Some(history) = &db.history {
        history.commit(ctx.txn, commit_ts);
    }
    for entry in path.iter().rev() {
        entry.mechanism.finish(ctx, entry.lane, Some(commit_ts));
    }
    db.services.registry.mark_committed(ctx.txn, commit_ts);
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
    db.services.registry.mark_aborted(ctx.txn);
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
