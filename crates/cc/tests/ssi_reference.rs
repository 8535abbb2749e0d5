//! Differential test of the SSI node against the implementation it
//! replaced.
//!
//! [`Ssi`] keeps a transaction's anti-dependency flags in one atomic word
//! and its SIREAD table in stripes; until PR 22 the node was one
//! `Mutex` over three maps plus a doom list. That single-lock version is
//! kept here as an **executable specification of the decisions**: both are
//! driven through the same random schedules — begin, read, write, validate,
//! prepare, commit, abort, interleaved over up to six transactions and five
//! keys of one real [`MvStore`] (reads on the lock-free chain view; a write
//! in the engine's order: validation and install under the key latch, then
//! the reader scan of `after_write`), at a leaf, under batching, under the
//! read-only-root optimisation — and must return the same picks, the same
//! errors with the same reasons and winners, the same `must_abort` marks,
//! the same active counts and the same GC watermark at every step.
//!
//! Both take SIREAD entries only where a later write can still close a
//! cycle: an update's read at a leaf registers nothing when the update
//! installs, and a transaction declared read-only stops registering once
//! its snapshot is safe (monolithic node only). So the schedules also run
//! read-modify-writes — some install, some decline and are picked again as
//! plain reads — and declared read-only transactions that read in bursts,
//! and the two nodes must agree on which of those snapshots ended safe.
//!
//! Why it is worth its lines: SSI's abort *rate* moves with the speed of
//! everything around it (a faster read meets more writers still in flight),
//! so a rate cannot tell a faster engine from a laxer one. Decisions on a
//! fixed interleaving can. A change to SSI's policy changes the reference
//! in the same commit — the reader scan moved after the install in both —
//! so the schedules keep comparing the two.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use tebaldi_cc::ssi::{Ssi, SsiConfig, SAFE_CHECK_EVERY};
use tebaldi_cc::{
    CcError, CcKind, CcMechanism, CcNodeSpec, CcResult, CcTreeSpec, Lane, NodeEnv, NullSink,
    Reason, Topology, TsOracle, TxnCtx, TxnRegistry, VersionPick,
};
use tebaldi_storage::{
    Chain, GroupId, Key, MvStore, NodeId, TableId, Timestamp, TxnId, TxnTypeId, Value, Version,
};

// ---------------------------------------------------------------------------
// The reference: the single-lock SSI node, its reader scan after the install.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ReferenceTxn {
    start_ts: Timestamp,
    lane: Option<u32>,
    read_only_lane: bool,
    /// Writes nothing: on a read-only lane, or declared read-only.
    read_only: bool,
    snapshot: SnapshotState,
    in_conflict: bool,
    out_conflict: bool,
    /// Voted yes in a cross-shard two-phase commit: the vote is stable, so
    /// a transaction that would turn this one into a pivot aborts itself
    /// instead (prepared transactions have priority).
    prepared: bool,
    read_keys: Vec<Key>,
}

/// A declared read-only transaction's standing on the safe-snapshot rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SnapshotState {
    /// Not subject to the rule.
    Unchecked,
    /// Not (yet) safe, after `reads` reads.
    Pending { reads: u32 },
    /// Safe: reads register nothing.
    Safe,
}

#[derive(Debug)]
struct Batch {
    ts: Timestamp,
    active: usize,
}

#[derive(Default)]
struct ReferenceState {
    txns: HashMap<TxnId, ReferenceTxn>,
    /// Active readers per key (reader, snapshot ts) used for pivot marking.
    readers: HashMap<Key, Vec<(TxnId, Timestamp)>>,
    /// Open batch per child lane.
    batches: HashMap<u32, Batch>,
    /// Largest commit timestamp of a read-write transaction that
    /// committed with an outgoing edge.
    out_committed: Timestamp,
    /// Declared read-only transactions that ended safe / unsafe.
    safe: u64,
    unsafe_: u64,
}

impl ReferenceState {
    /// The safe-snapshot test, on the one lock: no read-write transaction
    /// with an older snapshot active, none committed with an outgoing edge
    /// above `s`.
    fn is_safe(&self, s: Timestamp) -> bool {
        !self.txns.values().any(|t| !t.read_only && t.start_ts < s) && self.out_committed <= s
    }

    fn forget_reads(&mut self, txn: TxnId, keys: &[Key]) {
        for key in keys {
            if let Some(readers) = self.readers.get_mut(key) {
                readers.retain(|(r, _)| *r != txn);
                if readers.is_empty() {
                    self.readers.remove(key);
                }
            }
        }
    }
}

/// The single-lock SSI node: one mutex over every map, one doom list.
struct ReferenceSsi {
    env: NodeEnv,
    config: SsiConfig,
    shared: Mutex<ReferenceState>,
    doomed: DoomList,
}

impl ReferenceSsi {
    /// Creates an SSI mechanism bound to a CC-tree node.
    fn new(env: NodeEnv, config: SsiConfig) -> Self {
        ReferenceSsi {
            env,
            config,
            shared: Mutex::new(ReferenceState::default()),
            doomed: DoomList::new(),
        }
    }

    fn lane_index(lane: Lane) -> Option<u32> {
        match lane {
            Lane::Child(c) => Some(c),
            Lane::Leaf => None,
        }
    }

    fn is_read_only_lane(&self, lane: Lane) -> bool {
        Self::lane_index(lane)
            .map(|c| self.config.read_only_lanes.contains(&c))
            .unwrap_or(false)
    }

    /// Whether a version written in `group` belongs to the same *delegated*
    /// group as a transaction on `lane`. At a leaf node SSI delegates
    /// nothing: every transaction is its own group, so only the
    /// transaction's own writes qualify (handled by the caller).
    fn delegated_same_group(&self, lane: Lane, group: GroupId) -> bool {
        match lane {
            Lane::Child(_) => self.env.same_group(lane, group),
            Lane::Leaf => false,
        }
    }

    /// Smallest snapshot timestamp still in use (GC bound).
    fn min_active_start_ts(&self) -> Timestamp {
        self.shared
            .lock()
            .txns
            .values()
            .map(|s| s.start_ts)
            .filter(|ts| *ts != Timestamp::MAX)
            .min()
            .unwrap_or(Timestamp::MAX)
    }
}

impl CcMechanism for ReferenceSsi {
    fn begin(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        let read_only_lane = self.is_read_only_lane(lane);
        let lane_idx = Self::lane_index(lane);
        let mut shared = self.shared.lock();
        let start_ts = if lane_idx.is_none() {
            // Leaf usage ("monolithic SSI"): every transaction is its own
            // batch and needs a real snapshot. `snapshot_ts` stays below any
            // commit whose versions are still being applied, so the snapshot
            // is never half of a multi-key commit.
            self.env.oracle.snapshot_ts()
        } else if read_only_lane || !self.config.batching {
            if read_only_lane {
                // Read-only transactions need a real snapshot.
                self.env.oracle.snapshot_ts()
            } else {
                // Update transactions under the read-only-root optimisation
                // observe the latest committed state; their mutual ordering
                // is delegated to their subtree.
                Timestamp::MAX
            }
        } else {
            // Batching: join the open batch of this child lane or open a new
            // one with a fresh timestamp.
            let lane_key = lane_idx.unwrap_or(u32::MAX);
            let batch = shared.batches.entry(lane_key).or_insert_with(|| Batch {
                ts: self.env.oracle.snapshot_ts(),
                active: 0,
            });
            batch.active += 1;
            batch.ts
        };
        let snapshot = if self.config.safe_snapshots && ctx.read_only && lane_idx.is_none() {
            SnapshotState::Pending { reads: 0 }
        } else {
            SnapshotState::Unchecked
        };
        shared.txns.insert(
            ctx.txn,
            ReferenceTxn {
                start_ts,
                lane: lane_idx,
                read_only_lane,
                read_only: read_only_lane || ctx.read_only,
                snapshot,
                in_conflict: false,
                out_conflict: false,
                prepared: false,
                read_keys: Vec::new(),
            },
        );
        Ok(())
    }

    fn after_write(&self, ctx: &mut TxnCtx, lane: Lane, key: &Key) -> CcResult<()> {
        let mut shared = self.shared.lock();
        // Readers of this key that did not (and will not) see our write have
        // an anti-dependency towards us: reader --rw--> writer.
        let mut doomed_readers: Vec<TxnId> = Vec::new();
        let mut we_gain_in = false;
        if let Some(readers) = shared.readers.get(key) {
            for (reader, _) in readers.iter().filter(|(r, _)| *r != ctx.txn) {
                doomed_readers.push(*reader);
                we_gain_in = true;
            }
        }
        let my_lane = Self::lane_index(lane);
        for reader in doomed_readers {
            // Readers from our own child group are ordered by our child CC,
            // not by SSI.
            if let Some(state) = shared.txns.get(&reader) {
                if state.lane.is_some() && state.lane == my_lane {
                    continue;
                }
            }
            if let Some(state) = shared.txns.get_mut(&reader) {
                if state.prepared && state.in_conflict {
                    // This write would make a prepared (voted-yes)
                    // transaction a pivot, but its vote can no longer be
                    // revoked — the discovering writer aborts instead.
                    return Err(CcError::conflict(Reason::DoomsPrepared));
                }
                state.out_conflict = true;
                if state.in_conflict {
                    self.doomed.doom(reader);
                }
            }
        }
        let state = shared
            .txns
            .get_mut(&ctx.txn)
            .ok_or(CcError::Internal("SSI: write before begin".to_string()))?;
        if we_gain_in {
            state.in_conflict = true;
            if state.out_conflict {
                return Err(CcError::conflict(Reason::PivotOnWrite));
            }
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
        // Accept the child's proposal when it comes from this transaction's
        // own child group (their ordering is the child's business).
        if let Some(pick) = &candidate {
            if pick.writer == ctx.txn || self.delegated_same_group(lane, pick.group) {
                return candidate;
            }
        }
        let mut shared = self.shared.lock();
        let (start_ts, my_lane, snapshot) = match shared.txns.get(&ctx.txn) {
            Some(s) => (s.start_ts, s.lane, s.snapshot),
            None => (Timestamp::MAX, None, SnapshotState::Unchecked),
        };
        // A declared read-only transaction checks its snapshot after every
        // SAFE_CHECK_EVERY reads; once safe it drops its entries and reads
        // the snapshot, registering and marking nothing.
        let safe = match snapshot {
            SnapshotState::Unchecked => false,
            SnapshotState::Safe => true,
            SnapshotState::Pending { reads } => {
                let safe = reads > 0 && reads % SAFE_CHECK_EVERY == 0 && shared.is_safe(start_ts);
                let me = shared.txns.get_mut(&ctx.txn).expect("begun");
                if safe {
                    me.snapshot = SnapshotState::Safe;
                    let keys = std::mem::take(&mut me.read_keys);
                    shared.forget_reads(ctx.txn, &keys);
                } else {
                    me.snapshot = SnapshotState::Pending { reads: reads + 1 };
                }
                safe
            }
        };
        if safe {
            return chain
                .committed_at_or_before(start_ts)
                .map(VersionPick::from_version)
                .or(candidate);
        }
        // Register the read so later writers can mark the anti-dependency
        // — unless it is an update's at a leaf, whose install follows.
        if !(ctx.update_read && lane == Lane::Leaf) {
            shared
                .readers
                .entry(*key)
                .or_default()
                .push((ctx.txn, start_ts));
            if let Some(s) = shared.txns.get_mut(&ctx.txn) {
                s.read_keys.push(*key);
            }
        }

        // Snapshot visibility: the latest version committed at or before our
        // start timestamp (the start timestamp is the newest fully applied
        // commit at begin time, so it is inclusive). Missing a newer
        // committed write or an uncommitted write from a sibling group
        // creates an outgoing anti-dependency.
        let visible = chain.committed_at_or_before(start_ts);
        let mut missed_writer: Option<TxnId> = None;
        if chain.committed_after(start_ts).is_some() {
            missed_writer = chain
                .iter()
                .find(|v| v.is_committed() && matches!(v.commit_ts(), Some(c) if c > start_ts))
                .map(|v| v.writer);
        } else if chain.has_other_uncommitted(ctx.txn) {
            // The scan below only matches uncommitted foreign versions, and
            // `has_other_uncommitted` answers in O(1) when the chain carries
            // no uncommitted versions at all — the common case on long
            // committed tails between GC cycles.
            if let Some(other) = chain.iter().find(|v| {
                !v.is_committed() && v.writer != ctx.txn && {
                    !my_lane.is_some_and(|c| self.env.same_group(Lane::Child(c), v.group))
                }
            }) {
                missed_writer = Some(other.writer);
            }
        }
        if let Some(writer) = missed_writer {
            if let Some(me) = shared.txns.get_mut(&ctx.txn) {
                me.out_conflict = true;
                if me.in_conflict {
                    self.doomed.doom(ctx.txn);
                }
            }
            if let Some(them) = shared.txns.get_mut(&writer) {
                if them.prepared && them.out_conflict {
                    // Dooming a prepared transaction is forbidden (stable
                    // yes-vote): the reader sacrifices itself instead.
                    ctx.must_abort = true;
                } else {
                    them.in_conflict = true;
                    if them.out_conflict {
                        self.doomed.doom(writer);
                    }
                }
            }
        }
        visible.map(VersionPick::from_version).or(candidate)
    }

    fn validate_write(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        _key: &Key,
        chain: &Chain<'_>,
    ) -> CcResult<()> {
        self.check_first_committer_wins(ctx, chain, lane)
    }

    fn validate(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        if self.is_read_only_lane(lane) {
            return Ok(());
        }
        if self.doomed.take(ctx.txn) {
            return Err(CcError::conflict(Reason::Pivot));
        }
        let shared = self.shared.lock();
        let Some(state) = shared.txns.get(&ctx.txn) else {
            return Ok(());
        };
        if state.in_conflict && state.out_conflict {
            return Err(CcError::conflict(Reason::Pivot));
        }
        Ok(())
    }

    fn mark_prepared(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        if self.is_read_only_lane(lane) {
            return Ok(());
        }
        let mut shared = self.shared.lock();
        // Re-check under the shared lock: a doom may have landed between
        // validation and this call.
        if self.doomed.take(ctx.txn) {
            return Err(CcError::conflict(Reason::PivotAtPrepare));
        }
        let Some(state) = shared.txns.get_mut(&ctx.txn) else {
            return Ok(());
        };
        if state.in_conflict && state.out_conflict {
            return Err(CcError::conflict(Reason::PivotAtPrepare));
        }
        // From here on the yes-vote is stable: conflict discovery that
        // would doom this transaction aborts the discoverer instead.
        state.prepared = true;
        Ok(())
    }

    fn finish(&self, ctx: &mut TxnCtx, _lane: Lane, outcome: Option<Timestamp>) {
        self.cleanup(ctx.txn, outcome);
    }

    fn low_watermark(&self) -> Timestamp {
        self.min_active_start_ts()
    }
}

impl ReferenceSsi {
    /// The first-committer-wins check, exposed separately so the engine can
    /// run it with the freshest chain state right before installing a write.
    fn check_first_committer_wins(
        &self,
        ctx: &TxnCtx,
        chain: &Chain<'_>,
        lane: Lane,
    ) -> CcResult<()> {
        if self.is_read_only_lane(lane) {
            return Ok(());
        }
        let shared = self.shared.lock();
        let Some(state) = shared.txns.get(&ctx.txn) else {
            return Ok(());
        };
        // Visibility is `commit_ts <= start_ts`, so only commits strictly
        // after the snapshot count as concurrent; the loser names the newest
        // committed writer.
        if let Some(newer) = chain.committed_after(state.start_ts) {
            return Err(CcError::Conflict {
                reason: Reason::FirstCommitterWins,
                winner: Some(newer.writer),
            });
        }
        let my_lane = state.lane;
        // Same O(1) gate as the read-side scan: no uncommitted versions on
        // the chain means no foreign uncommitted version to conflict with.
        let foreign_uncommitted = chain.has_other_uncommitted(ctx.txn).then(|| {
            chain.iter().find(|v| {
                !v.is_committed() && v.writer != ctx.txn && {
                    !my_lane.is_some_and(|c| self.env.same_group(Lane::Child(c), v.group))
                }
            })
        });
        match foreign_uncommitted.flatten() {
            Some(v) => Err(CcError::Conflict {
                reason: Reason::CrossGroupWriteWrite,
                winner: Some(v.writer),
            }),
            None => Ok(()),
        }
    }

    fn cleanup(&self, txn: TxnId, outcome: Option<Timestamp>) {
        let mut shared = self.shared.lock();
        if let Some(state) = shared.txns.remove(&txn) {
            if let Some(commit_ts) = outcome {
                if self.config.safe_snapshots && !state.read_only && state.out_conflict {
                    shared.out_committed = shared.out_committed.max(commit_ts);
                }
            }
            match state.snapshot {
                SnapshotState::Unchecked => {}
                SnapshotState::Pending { reads } if reads > SAFE_CHECK_EVERY => shared.unsafe_ += 1,
                SnapshotState::Pending { .. } => {}
                SnapshotState::Safe => shared.safe += 1,
            }
            shared.forget_reads(txn, &state.read_keys);
            if let Some(lane) = state.lane {
                if self.config.batching && !state.read_only_lane {
                    let remove = if let Some(batch) = shared.batches.get_mut(&lane) {
                        batch.active = batch.active.saturating_sub(1);
                        batch.active == 0
                    } else {
                        false
                    };
                    if remove {
                        shared.batches.remove(&lane);
                    }
                }
            }
        }
        self.doomed.forget(txn);
    }

    /// Number of transactions currently tracked (diagnostics).
    fn active_count(&self) -> usize {
        self.shared.lock().txns.len()
    }
}

#[derive(Debug, Default)]
struct DoomList {
    doomed: Mutex<HashSet<TxnId>>,
}
impl DoomList {
    fn new() -> Self {
        DoomList::default()
    }
    fn doom(&self, txn: TxnId) {
        self.doomed.lock().insert(txn);
    }
    fn take(&self, txn: TxnId) -> bool {
        self.doomed.lock().remove(&txn)
    }
    fn forget(&self, txn: TxnId) {
        self.doomed.lock().remove(&txn);
    }
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn env(registry: &Arc<TxnRegistry>, topo: &Arc<Topology>) -> NodeEnv {
    NodeEnv {
        node: NodeId(0),
        registry: Arc::clone(registry),
        topology: Arc::clone(topo),
        events: Arc::new(NullSink),
        oracle: Arc::new(TsOracle::new()),
        wait_timeout: Duration::from_millis(10),
    }
}

struct Live {
    a: TxnCtx,
    b: TxnCtx,
    lane: Lane,
    writes: Vec<Key>,
    prepared: bool,
}

/// What one schedule did: commits, aborts, and the declared read-only
/// transactions that ended on a safe snapshot.
struct Outcome {
    commits: u64,
    aborts: u64,
    safe: u64,
}

fn run(seed: u64, leaf: bool, batching: bool, read_only_lane: bool, steps: usize) -> Outcome {
    let registry = Arc::new(TxnRegistry::default());
    // Node 0 over three leaves, lane `g` holding group `g`.
    let leaves = (0..3).map(|g| CcNodeSpec::leaf(CcKind::NoCc, "", vec![TxnTypeId(g)]));
    let spec = CcTreeSpec::new(CcNodeSpec::inner(CcKind::Ssi, "", leaves.collect()));
    let topo = Arc::new(Topology::of(&spec).0);
    let (ea, eb) = (env(&registry, &topo), env(&registry, &topo));
    let (oa, ob) = (Arc::clone(&ea.oracle), Arc::clone(&eb.oracle));
    let ro: std::collections::HashSet<u32> = if read_only_lane {
        [2u32].into()
    } else {
        Default::default()
    };
    // A leaf is the monolithic node: it tracks safe snapshots.
    let new = Ssi::new(
        ea,
        SsiConfig {
            batching,
            read_only_lanes: ro.clone(),
            safe_snapshots: leaf,
        },
    );
    let old = ReferenceSsi::new(
        eb,
        SsiConfig {
            batching,
            read_only_lanes: ro,
            safe_snapshots: leaf,
        },
    );
    let store = MvStore::new(2);
    let keys: Vec<Key> = (0..5).map(|i| Key::simple(TableId(0), i)).collect();
    let mut live: Vec<Live> = Vec::new();
    let mut next_id = 1u64;
    let mut rng = Rng(seed | 1);
    let (mut aborts, mut commits) = (0u64, 0u64);
    let mut vid = 1u64;

    for step in 0..steps {
        let op = rng.below(100);
        if live.len() < 2 || (op < 12 && live.len() < 6) {
            let id = TxnId(next_id);
            next_id += 1;
            let g = rng.below(3) as u32;
            registry.register(id, TxnTypeId(g));
            let lane = if leaf { Lane::Leaf } else { Lane::Child(g) };
            let mut a = TxnCtx::new(id, TxnTypeId(g), GroupId(g));
            // One in four is declared read-only, as the engine declares a
            // whole transaction of a read-only procedure.
            a.read_only = rng.below(4) == 0;
            let mut b = a.clone();
            assert_eq!(
                new.begin(&mut a, lane).is_ok(),
                old.begin(&mut b, lane).is_ok()
            );
            live.push(Live {
                a,
                b,
                lane,
                writes: vec![],
                prepared: false,
            });
            continue;
        }
        let i = rng.below(live.len() as u64) as usize;
        let ki = rng.below(keys.len() as u64) as usize;
        let key = keys[ki];
        let mut finish: Option<bool> = None; // Some(true)=commit, Some(false)=abort
        {
            let t = &mut live[i];
            let id = t.a.txn;
            match op {
                // A read — SSI is not asked about a transaction's own write.
                // A declared read-only transaction reads a burst, so it
                // reaches its later safe-snapshot checks.
                12..=49 if !t.prepared && !t.writes.contains(&key) => {
                    let burst = if t.a.read_only { 16 } else { 1 };
                    for n in 0..burst {
                        let key = keys[(ki + n) % keys.len()];
                        let (pa, pb) = store.with_chain(&key, |chain| {
                            (
                                new.choose_version(&mut t.a, t.lane, &key, None, chain),
                                old.choose_version(&mut t.b, t.lane, &key, None, chain),
                            )
                        });
                        assert_eq!(pa, pb, "pick step {step}");
                        assert_eq!(t.a.must_abort, t.b.must_abort, "must_abort step {step}");
                    }
                }
                // The engine refuses a declared read-only transaction's
                // write before SSI sees it.
                50..=84 if t.a.read_only => {}
                65..=79 if !t.prepared => {
                    // A read-modify-write in the engine's order
                    // (`Txn::update`): validation, the read and the install
                    // under one hold of the key latch, then the reader scan.
                    // One in three declines to write and is picked again as
                    // a plain read.
                    let installs = rng.below(3) != 0;
                    let own = t.writes.contains(&key);
                    let first_write = store.with_chain_mut(&key, |chain| {
                        let va = new.validate_write(&mut t.a, t.lane, &key, chain);
                        let vb = old.validate_write(&mut t.b, t.lane, &key, chain);
                        assert_eq!(va, vb, "update validate_write step {step}");
                        va.ok()?;
                        let mut pick = |update_read: bool| {
                            if own {
                                return;
                            }
                            t.a.update_read = update_read;
                            t.b.update_read = update_read;
                            let pa = new.choose_version(&mut t.a, t.lane, &key, None, chain);
                            let pb = old.choose_version(&mut t.b, t.lane, &key, None, chain);
                            t.a.update_read = false;
                            t.b.update_read = false;
                            assert_eq!(pa, pb, "update pick step {step}");
                            assert_eq!(t.a.must_abort, t.b.must_abort, "must_abort step {step}");
                        };
                        pick(true);
                        if !installs {
                            pick(false);
                            return Some(None);
                        }
                        let value = Value::Int(vid as i64);
                        Some(Some(
                            chain.install(Version::uncommitted(t.a.group, id, value, None)),
                        ))
                    });
                    vid += 1;
                    match first_write {
                        None => finish = Some(false),
                        Some(None) => {}
                        Some(Some(first)) => {
                            assert_eq!(first, !own);
                            if first {
                                t.writes.push(key);
                            }
                            let ra = new.after_write(&mut t.a, t.lane, &key);
                            let rb = old.after_write(&mut t.b, t.lane, &key);
                            assert_eq!(ra, rb, "update after_write step {step}");
                            if ra.is_err() {
                                finish = Some(false);
                            }
                        }
                    }
                }
                50..=64 if !t.prepared => {
                    // A write in the engine's order (`Txn::put`): validated
                    // and installed under one hold of the key latch, then
                    // the reader scan.
                    let first_write = store.with_chain_mut(&key, |chain| {
                        let va = new.validate_write(&mut t.a, t.lane, &key, chain);
                        let vb = old.validate_write(&mut t.b, t.lane, &key, chain);
                        assert_eq!(va, vb, "validate_write step {step}");
                        va.ok().map(|()| {
                            let value = Value::Int(vid as i64);
                            chain.install(Version::uncommitted(t.a.group, id, value, None))
                        })
                    });
                    vid += 1;
                    match first_write {
                        None => finish = Some(false),
                        Some(first) => {
                            assert_eq!(first, !t.writes.contains(&key));
                            if first {
                                t.writes.push(key);
                            }
                            let ra = new.after_write(&mut t.a, t.lane, &key);
                            let rb = old.after_write(&mut t.b, t.lane, &key);
                            assert_eq!(ra, rb, "after_write step {step}");
                            if ra.is_err() {
                                finish = Some(false);
                            }
                        }
                    }
                }
                80..=84 if !t.prepared => {
                    // prepare (2PC); a 2PC part is never declared read-only
                    let ok = if t.a.must_abort {
                        false
                    } else {
                        let va = new.validate(&mut t.a, t.lane);
                        let vb = old.validate(&mut t.b, t.lane);
                        assert_eq!(va, vb, "validate(prep) step {step}");
                        va.is_ok()
                    };
                    if !ok {
                        finish = Some(false);
                    } else {
                        let pa = new.mark_prepared(&mut t.a, t.lane);
                        let pb = old.mark_prepared(&mut t.b, t.lane);
                        assert_eq!(pa, pb, "mark_prepared step {step}");
                        if pa.is_err() {
                            finish = Some(false);
                        } else {
                            t.prepared = true;
                        }
                    }
                }
                85..=94 => {
                    // commit attempt
                    if t.prepared {
                        finish = Some(true);
                    } else if t.a.must_abort {
                        finish = Some(false);
                    } else {
                        let va = new.validate(&mut t.a, t.lane);
                        let vb = old.validate(&mut t.b, t.lane);
                        assert_eq!(va, vb, "validate step {step}");
                        finish = Some(va.is_ok());
                    }
                }
                95..=99 if !t.prepared => finish = Some(false),
                _ => {}
            }
        }
        if let Some(commit) = finish {
            let mut t = live.swap_remove(i);
            let id = t.a.txn;
            if commit {
                let (ca, cb) = (oa.begin_commit(), ob.begin_commit());
                assert_eq!(ca, cb);
                store.commit_writes(id, &t.writes, ca);
                registry.mark_committed(id, ca);
                oa.end_commit(ca);
                ob.end_commit(cb);
                new.finish(&mut t.a, t.lane, Some(ca));
                old.finish(&mut t.b, t.lane, Some(cb));
                commits += 1;
            } else {
                store.abort_writes(id, &t.writes);
                registry.mark_aborted(id);
                new.finish(&mut t.a, t.lane, None);
                old.finish(&mut t.b, t.lane, None);
                aborts += 1;
            }
            assert_eq!(new.active_count(), old.active_count());
            assert_eq!(
                new.low_watermark(),
                old.low_watermark(),
                "watermark step {step}"
            );
        }
    }
    let counted = new.counters();
    let (safe, unsafe_) = {
        let shared = old.shared.lock();
        (shared.safe, shared.unsafe_)
    };
    assert_eq!(counted.safe_snapshots.get(), safe, "safe snapshots");
    assert_eq!(counted.unsafe_snapshots.get(), unsafe_, "unsafe snapshots");
    Outcome {
        commits,
        aborts,
        safe,
    }
}

/// Sixty schedules of 20 000 steps: a leaf node ("monolithic SSI"), an
/// inner node with batching, one without, and both with a read-only lane.
#[test]
fn striped_ssi_decides_as_the_single_lock_reference_did() {
    for seed in 1..=12u64 {
        for (leaf, batching, read_only_lane) in [
            (true, true, false),
            (false, true, false),
            (false, false, false),
            (false, false, true),
            (false, true, true),
        ] {
            let Outcome {
                commits,
                aborts,
                safe,
            } = run(seed * 7919, leaf, batching, read_only_lane, 20_000);
            assert!(
                commits > 100 && aborts > 100,
                "a schedule must exercise both outcomes: {commits} commits, {aborts} aborts"
            );
            // The monolithic node must meet safe snapshots, and only it.
            assert_eq!(safe > 0, leaf, "{safe} safe snapshots, leaf: {leaf}");
        }
    }
}
