//! Serializable snapshot isolation (§4.4.3).
//!
//! Transactions read from a snapshot defined by their start timestamp and
//! install writes at their commit timestamp; write-write conflicts follow
//! the first-committer-wins rule and serializability is obtained by aborting
//! *pivots*: transactions (or, with batching, batches) carrying both an
//! incoming and an outgoing read-write anti-dependency.
//!
//! Used as an inner node of the CC tree, SSI must preserve consistent
//! ordering. Two strategies from the paper are implemented:
//!
//! * **Batching** — instances of transactions from the same child group are
//!   placed in a batch and share a start timestamp, delaying their relative
//!   ordering until commit so the child CC remains free to order them.
//!   Batching is what makes SSI a poor choice under cross-group write-write
//!   conflicts (Fig. 4.10): a batch keeps reading from an ever-older
//!   snapshot, so first-committer-wins aborts pile up.
//! * **Read-only-root optimisation** — when SSI sits at the root separating
//!   read-only groups from a single update subtree, batching, pivot checks
//!   and update-side start timestamps are all unnecessary: read-only
//!   transactions read a consistent snapshot, update transactions see the
//!   latest committed state and are ordered by their own subtree.

use crate::error::{CcError, CcResult};
use crate::mechanism::{CcKind, CcMechanism, DoomList, Lane, NodeEnv, TxnCtx, VersionPick};
use crate::topology::LaneSel;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use tebaldi_storage::{ChainRead, Key, Timestamp, TxnId};

/// Configuration of one SSI node.
#[derive(Clone, Debug)]
pub struct SsiConfig {
    /// Whether per-child batching is required for consistent ordering.
    pub batching: bool,
    /// Child lanes whose groups are entirely read-only (they always read a
    /// consistent snapshot, never batch, and never abort).
    pub read_only_lanes: HashSet<u32>,
}

impl Default for SsiConfig {
    fn default() -> Self {
        SsiConfig {
            batching: true,
            read_only_lanes: HashSet::new(),
        }
    }
}

impl SsiConfig {
    /// The read-only-root optimisation: no batching, with the given child
    /// lanes marked read-only.
    pub fn root_read_only(read_only_lanes: impl IntoIterator<Item = u32>) -> Self {
        SsiConfig {
            batching: false,
            read_only_lanes: read_only_lanes.into_iter().collect(),
        }
    }
}

#[derive(Debug)]
struct SsiTxnState {
    start_ts: Timestamp,
    lane: Option<u32>,
    read_only_lane: bool,
    in_conflict: bool,
    out_conflict: bool,
    /// Voted yes in a cross-shard two-phase commit: the vote is stable, so
    /// a transaction that would turn this one into a pivot aborts itself
    /// instead (prepared transactions have priority).
    prepared: bool,
    write_keys: Vec<Key>,
    read_keys: Vec<Key>,
}

#[derive(Debug)]
struct Batch {
    ts: Timestamp,
    active: usize,
}

#[derive(Default)]
struct SsiShared {
    txns: HashMap<TxnId, SsiTxnState>,
    /// Active readers per key (reader, snapshot ts) used for pivot marking.
    readers: HashMap<Key, Vec<(TxnId, Timestamp)>>,
    /// Open batch per child lane.
    batches: HashMap<u32, Batch>,
}

/// A serializable-snapshot-isolation node.
pub struct Ssi {
    env: NodeEnv,
    config: SsiConfig,
    shared: Mutex<SsiShared>,
    doomed: DoomList,
}

impl Ssi {
    /// Creates an SSI mechanism bound to a CC-tree node.
    pub fn new(env: NodeEnv, config: SsiConfig) -> Self {
        Ssi {
            env,
            config,
            shared: Mutex::new(SsiShared::default()),
            doomed: DoomList::new(),
        }
    }

    fn lane_index(lane: Lane) -> Option<u32> {
        match lane.sel {
            LaneSel::Child(c) => Some(c),
            LaneSel::Leaf => None,
        }
    }

    fn is_read_only_lane(&self, lane: Lane) -> bool {
        Self::lane_index(lane)
            .map(|c| self.config.read_only_lanes.contains(&c))
            .unwrap_or(false)
    }

    /// Whether a version written by `writer` belongs to the same *delegated*
    /// group as a transaction on `lane`. At a leaf node SSI delegates
    /// nothing: every transaction is its own group, so only the
    /// transaction's own writes qualify (handled by the caller).
    fn delegated_same_group(&self, lane: Lane, writer: TxnId) -> bool {
        match lane.sel {
            LaneSel::Child(_) => self.env.same_group(lane, writer),
            LaneSel::Leaf => false,
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

impl CcMechanism for Ssi {
    fn kind(&self) -> CcKind {
        CcKind::Ssi
    }

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
        shared.txns.insert(
            ctx.txn,
            SsiTxnState {
                start_ts,
                lane: lane_idx,
                read_only_lane,
                in_conflict: false,
                out_conflict: false,
                prepared: false,
                write_keys: Vec::new(),
                read_keys: Vec::new(),
            },
        );
        Ok(())
    }

    fn before_write(&self, ctx: &mut TxnCtx, lane: Lane, key: &Key) -> CcResult<()> {
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
                    return Err(CcError::Conflict {
                        mechanism: "SSI",
                        reason: "write would doom a prepared transaction",
                    });
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
                return Err(CcError::Conflict {
                    mechanism: "SSI",
                    reason: "pivot (incoming and outgoing anti-dependencies)",
                });
            }
        }
        state.write_keys.push(*key);
        Ok(())
    }

    fn choose_version(
        &self,
        ctx: &mut TxnCtx,
        lane: Lane,
        key: &Key,
        candidate: Option<VersionPick>,
        chain: &dyn ChainRead,
    ) -> Option<VersionPick> {
        // Accept the child's proposal when it comes from this transaction's
        // own child group (their ordering is the child's business).
        if let Some(pick) = &candidate {
            if pick.writer == ctx.txn || self.delegated_same_group(lane, pick.writer) {
                return candidate;
            }
        }
        let mut shared = self.shared.lock();
        let (start_ts, my_lane) = match shared.txns.get(&ctx.txn) {
            Some(s) => (s.start_ts, s.lane),
            None => (Timestamp::MAX, None),
        };
        // Register the read so later writers can mark the anti-dependency.
        shared
            .readers
            .entry(*key)
            .or_default()
            .push((ctx.txn, start_ts));
        if let Some(s) = shared.txns.get_mut(&ctx.txn) {
            s.read_keys.push(*key);
        }

        // Snapshot visibility: the latest version committed at or before our
        // start timestamp (the start timestamp is the newest fully applied
        // commit at begin time, so it is inclusive). Missing a newer
        // committed write or an uncommitted write from a sibling group
        // creates an outgoing anti-dependency.
        let visible = chain.committed_at_or_before(start_ts);
        let mut missed_writer: Option<TxnId> = None;
        if chain.committed_after(start_ts) {
            missed_writer = chain
                .find_newest_first(&mut |v| {
                    v.is_committed() && matches!(v.commit_ts, Some(c) if c > start_ts)
                })
                .map(|v| v.writer);
        } else if chain.has_other_uncommitted(ctx.txn) {
            // The scan below only matches uncommitted foreign versions, and
            // `has_other_uncommitted` answers in O(1) when the chain carries
            // no uncommitted versions at all — the common case on long
            // committed tails between GC cycles.
            if let Some(other) = chain.find_newest_first(&mut |v| {
                !v.is_committed() && v.writer != ctx.txn && {
                    let writer_lane = self
                        .env
                        .group_of(v.writer)
                        .and_then(|g| self.env.topology.child_lane(self.env.node, g));
                    writer_lane.is_none() || writer_lane != my_lane
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
        chain: &dyn ChainRead,
    ) -> CcResult<()> {
        self.check_first_committer_wins(ctx, chain, lane)
    }

    fn validate(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        if self.is_read_only_lane(lane) {
            return Ok(());
        }
        if self.doomed.take(ctx.txn) {
            return Err(CcError::Conflict {
                mechanism: "SSI",
                reason: "pivot detected",
            });
        }
        let shared = self.shared.lock();
        let Some(state) = shared.txns.get(&ctx.txn) else {
            return Ok(());
        };
        if state.in_conflict && state.out_conflict {
            return Err(CcError::Conflict {
                mechanism: "SSI",
                reason: "pivot (validation)",
            });
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
            return Err(CcError::Conflict {
                mechanism: "SSI",
                reason: "pivot detected at prepare",
            });
        }
        let Some(state) = shared.txns.get_mut(&ctx.txn) else {
            return Ok(());
        };
        if state.in_conflict && state.out_conflict {
            return Err(CcError::Conflict {
                mechanism: "SSI",
                reason: "pivot (prepare)",
            });
        }
        // From here on the yes-vote is stable: conflict discovery that
        // would doom this transaction aborts the discoverer instead.
        state.prepared = true;
        Ok(())
    }

    fn commit(&self, ctx: &mut TxnCtx, _lane: Lane, _commit_ts: Timestamp) {
        self.cleanup(ctx.txn);
    }

    fn abort(&self, ctx: &mut TxnCtx, _lane: Lane) {
        self.cleanup(ctx.txn);
    }

    fn low_watermark(&self) -> Timestamp {
        self.min_active_start_ts()
    }
}

impl Ssi {
    /// The first-committer-wins check, exposed separately so the engine can
    /// run it with the freshest chain state right before installing a write.
    pub fn check_first_committer_wins(
        &self,
        ctx: &TxnCtx,
        chain: &dyn ChainRead,
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
        // after the snapshot count as concurrent.
        if chain.committed_after(state.start_ts) {
            return Err(CcError::Conflict {
                mechanism: "SSI",
                reason: "first-committer-wins (concurrent committed write)",
            });
        }
        let my_lane = state.lane;
        // Same O(1) gate as the read-side scan: no uncommitted versions on
        // the chain means no foreign uncommitted version to conflict with.
        let foreign_uncommitted = chain.has_other_uncommitted(ctx.txn)
            && chain
                .find_newest_first(&mut |v| {
                    !v.is_committed() && v.writer != ctx.txn && {
                        let writer_lane = self
                            .env
                            .group_of(v.writer)
                            .and_then(|g| self.env.topology.child_lane(self.env.node, g));
                        writer_lane.is_none() || writer_lane != my_lane
                    }
                })
                .is_some();
        if foreign_uncommitted {
            return Err(CcError::Conflict {
                mechanism: "SSI",
                reason: "cross-group write-write conflict",
            });
        }
        Ok(())
    }

    fn cleanup(&self, txn: TxnId) {
        let mut shared = self.shared.lock();
        if let Some(state) = shared.txns.remove(&txn) {
            for key in &state.read_keys {
                if let Some(readers) = shared.readers.get_mut(key) {
                    readers.retain(|(r, _)| *r != txn);
                    if readers.is_empty() {
                        shared.readers.remove(key);
                    }
                }
            }
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
    pub fn active_count(&self) -> usize {
        self.shared.lock().txns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TxnRegistry;
    use crate::topology::Topology;
    use std::sync::Arc;
    use tebaldi_storage::{
        GroupId, NodeId, TableId, TxnTypeId, Value, Version, VersionChain, VersionId, VersionState,
    };

    fn setup(batching: bool) -> (Ssi, Arc<TxnRegistry>) {
        let registry = Arc::new(TxnRegistry::default());
        let mut topo = Topology::new();
        topo.record_child(NodeId(0), GroupId(0), 0);
        topo.record_child(NodeId(0), GroupId(1), 1);
        let env = NodeEnv::for_test(topo, Arc::clone(&registry), 20);
        let config = SsiConfig {
            batching,
            read_only_lanes: HashSet::new(),
        };
        (Ssi::new(env, config), registry)
    }

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    fn committed_version(writer: u64, val: i64, ts: u64) -> VersionChain {
        let mut chain = VersionChain::new();
        chain.install(Version {
            id: VersionId(writer),
            writer: TxnId(writer),
            value: Value::Int(val),
            state: VersionState::Uncommitted,
            commit_ts: None,
            order_ts: None,
            hlc: 0,
        });
        chain.commit(TxnId(writer), Timestamp(ts));
        chain
    }

    #[test]
    fn snapshot_read_ignores_later_commits() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut ctx = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut ctx, Lane::child(0)).unwrap();

        // A version committed *after* the snapshot must not be visible.
        let later = ssi.env.oracle.issue().0 + 10;
        let chain = committed_version(99, 42, later);
        let pick = ssi.choose_version(&mut ctx, Lane::child(0), &k(1), None, &chain);
        assert!(pick.is_none(), "nothing visible before the snapshot");
        ssi.commit(&mut ctx, Lane::child(0), Timestamp(100));
        assert_eq!(ssi.active_count(), 0);
    }

    #[test]
    fn first_committer_wins_aborts() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut ctx = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut ctx, Lane::child(0)).unwrap();
        let later = ssi.env.oracle.issue().0 + 5;
        let chain = committed_version(50, 1, later);
        let err = ssi
            .check_first_committer_wins(&ctx, &chain, Lane::child(0))
            .unwrap_err();
        assert!(matches!(err, CcError::Conflict { .. }));
    }

    #[test]
    fn cross_group_uncommitted_write_conflict_aborts() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(1), GroupId(1));
        let mut a = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut a, Lane::child(0)).unwrap();
        // Transaction from the other group installed an uncommitted write.
        let mut chain = VersionChain::new();
        chain.install(Version {
            id: VersionId(1),
            writer: TxnId(2),
            value: Value::Int(9),
            state: VersionState::Uncommitted,
            commit_ts: None,
            order_ts: None,
            hlc: 0,
        });
        assert!(ssi
            .check_first_committer_wins(&a, &chain, Lane::child(0))
            .is_err());
    }

    #[test]
    fn prepared_vote_is_stable_against_late_pivot() {
        // T prepares (voted yes in 2PC) with an incoming anti-dependency;
        // a later writer that would give T the outgoing edge — making it a
        // pivot after its vote — must abort itself instead.
        let (ssi, registry) = setup(false);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(1), GroupId(1));
        let mut t = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut u = TxnCtx::new(TxnId(2), TxnTypeId(1), GroupId(1));
        ssi.begin(&mut t, Lane::child(0)).unwrap();
        ssi.begin(&mut u, Lane::child(1)).unwrap();

        let empty = VersionChain::new();
        // T reads x (registers as reader of x) and writes y.
        let _ = ssi.choose_version(&mut t, Lane::child(0), &k(1), None, &empty);
        ssi.before_write(&mut t, Lane::child(0), &k(2)).unwrap();
        // U reads y and misses T's uncommitted write: U -rw-> T gives T the
        // incoming edge.
        let mut y_chain = VersionChain::new();
        y_chain.install(Version {
            id: VersionId(10),
            writer: TxnId(1),
            value: Value::Int(1),
            state: VersionState::Uncommitted,
            commit_ts: None,
            order_ts: None,
            hlc: 0,
        });
        let _ = ssi.choose_version(&mut u, Lane::child(1), &k(2), None, &y_chain);

        // T validates and stabilizes its yes-vote.
        ssi.validate(&mut t, Lane::child(0)).unwrap();
        ssi.mark_prepared(&mut t, Lane::child(0)).unwrap();

        // U now writes x, which would complete T's pivot (T -rw-> U): U
        // must be rejected, T must stay committable.
        let result = ssi.before_write(&mut u, Lane::child(1), &k(1));
        assert!(result.is_err(), "writer dooming a prepared txn must abort");
        ssi.abort(&mut u, Lane::child(1));
        assert!(!ssi.doomed.is_doomed(TxnId(1)), "prepared txn stays clean");
        ssi.commit(&mut t, Lane::child(0), Timestamp(5));
    }

    #[test]
    fn doomed_before_prepare_is_rejected_at_prepare() {
        let (ssi, registry) = setup(false);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut t = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut t, Lane::child(0)).unwrap();
        // A doom that lands between validate and mark_prepared is caught.
        ssi.doomed.doom(TxnId(1));
        assert!(ssi.mark_prepared(&mut t, Lane::child(0)).is_err());
    }

    #[test]
    fn pivot_detection_dooms_reader_with_in_and_out() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(1), GroupId(1));
        registry.register(TxnId(3), TxnTypeId(2), GroupId(0));
        let mut t1 = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut t2 = TxnCtx::new(TxnId(2), TxnTypeId(1), GroupId(1));
        let mut t3 = TxnCtx::new(TxnId(3), TxnTypeId(2), GroupId(0));
        ssi.begin(&mut t1, Lane::child(0)).unwrap();
        ssi.begin(&mut t2, Lane::child(1)).unwrap();
        ssi.begin(&mut t3, Lane::child(0)).unwrap();

        // T2 reads key A (registers as reader), then T1 writes A: T2 -rw-> T1.
        let empty = VersionChain::new();
        let _ = ssi.choose_version(&mut t2, Lane::child(1), &k(1), None, &empty);
        ssi.before_write(&mut t1, Lane::child(0), &k(1)).unwrap();
        // T3 reads key B, T2 writes B: T3 -rw-> T2; now T2 has in and out.
        let _ = ssi.choose_version(&mut t3, Lane::child(0), &k(2), None, &empty);
        // T2 is the pivot: it is rejected as soon as the second
        // anti-dependency appears (at the write or, at the latest, during
        // validation).
        let write_result = ssi.before_write(&mut t2, Lane::child(1), &k(2));
        assert!(write_result.is_err() || ssi.validate(&mut t2, Lane::child(1)).is_err());
        // The others are fine.
        assert!(ssi.validate(&mut t1, Lane::child(0)).is_ok());
        assert!(ssi.validate(&mut t3, Lane::child(0)).is_ok());
    }

    #[test]
    fn batching_shares_start_timestamp_within_lane() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(3), TxnTypeId(1), GroupId(1));
        let mut a = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut b = TxnCtx::new(TxnId(2), TxnTypeId(0), GroupId(0));
        let mut c = TxnCtx::new(TxnId(3), TxnTypeId(1), GroupId(1));
        ssi.begin(&mut a, Lane::child(0)).unwrap();
        ssi.begin(&mut b, Lane::child(0)).unwrap();
        ssi.begin(&mut c, Lane::child(1)).unwrap();
        let shared = ssi.shared.lock();
        let ts_a = shared.txns.get(&TxnId(1)).unwrap().start_ts;
        let ts_b = shared.txns.get(&TxnId(2)).unwrap().start_ts;
        assert_eq!(ts_a, ts_b, "same lane, same batch, same timestamp");
        // Different lanes are tracked as separate batches (their members may
        // still share a snapshot timestamp when no commit happened between
        // the two batch openings).
        assert_eq!(shared.batches.len(), 2, "one open batch per child lane");
        assert_eq!(shared.batches.get(&0).unwrap().active, 2);
        assert_eq!(shared.batches.get(&1).unwrap().active, 1);
    }

    #[test]
    fn read_only_root_optimisation_skips_batching() {
        let registry = Arc::new(TxnRegistry::default());
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(1), GroupId(1));
        let mut topo = Topology::new();
        topo.record_child(NodeId(0), GroupId(0), 0); // read-only child
        topo.record_child(NodeId(0), GroupId(1), 1); // update child
        let ssi = Ssi::new(
            NodeEnv::for_test(topo, registry, 20),
            SsiConfig::root_read_only([0]),
        );
        let mut reader = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut writer = TxnCtx::new(TxnId(2), TxnTypeId(1), GroupId(1));
        ssi.begin(&mut reader, Lane::child(0)).unwrap();
        ssi.begin(&mut writer, Lane::child(1)).unwrap();
        {
            let shared = ssi.shared.lock();
            assert_ne!(shared.txns.get(&TxnId(1)).unwrap().start_ts, Timestamp::MAX);
            assert_eq!(shared.txns.get(&TxnId(2)).unwrap().start_ts, Timestamp::MAX);
            assert!(shared.batches.is_empty());
        }
        // Update transactions see the latest committed version.
        let chain = committed_version(9, 7, 5);
        let pick = ssi
            .choose_version(&mut writer, Lane::child(1), &k(3), None, &chain)
            .unwrap();
        assert_eq!(pick.value, Value::Int(7));
        // Read-only transactions never fail validation.
        assert!(ssi.validate(&mut reader, Lane::child(0)).is_ok());
    }
}
