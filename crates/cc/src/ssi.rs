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
//!
//! # State and locking
//!
//! There is no node-wide lock. What the node knows about a transaction is
//! one [`SsiTxn`] **record** — its snapshot, its lane, whether it writes at
//! all and a single atomic flag word `IN | OUT | PREPARED` — shared by `Arc`
//! between the transaction's own [`TxnCtx`] (so its own calls reach it
//! without a lookup) and the places other transactions find it:
//!
//! * the **SIREAD table**, [`READER_STRIPES`] stripes of `Key → readers`
//!   chosen by [`Key::mix64`], where a key's readers are `(TxnId, record)`
//!   pairs held as none, one in the table's own slot, or many in a `Vec`
//!   (nearly every key has one reader at a time, so registering a read and
//!   forgetting it allocate nothing; a key with none leaves the table).
//!   A key's stripe lock serializes
//!   "reader registers on the key" against "writer scans the key's
//!   readers" — the one ordering edge detection needs from a lock. The
//!   writer scans *after* installing its version: a reader that registers
//!   after the scan walks a chain that already holds the version and marks
//!   the edge itself, so no read slips between scan and install;
//! * the **directory**, sharded by transaction id, used for the rare
//!   "which record belongs to the writer of the version I just passed
//!   over" lookup, for the GC watermark, for the safe-snapshot check below
//!   and for diagnostics.
//!
//! | call | locks |
//! |---|---|
//! | `begin` | one directory shard (+ the `batches` mutex for a batched lane) |
//! | `choose_version` | the key's reader stripe, or none for an update's read at a leaf and for a safe snapshot; a directory shard only when a writer was missed; every directory shard and the read's reader stripes for a safe-snapshot check |
//! | `validate_write` | none — the key's latch, held by the engine |
//! | `after_write` | the key's reader stripe |
//! | `validate`, `mark_prepared` | none — the transaction's own record |
//! | `commit` / `abort` | one directory shard, one reader stripe per key read (+ `batches`) |
//!
//! A write is decided in the engine's order: `validate_write`
//! (first-committer-wins, or a foreign writer in flight) under the key's
//! latch, the install, then `after_write`'s reader scan. So a write-write
//! conflict is decided before any anti-dependency of the write is marked:
//! when two transactions read a key and both write it, the second writer
//! loses on write-write alone, naming the first as its winner, and the
//! first keeps only the incoming edge of the second's read — it commits.
//! A read-modify-write (`Txn::update`) runs `validate_write` before its
//! read, under the same hold of the latch as the read and the install: the
//! second writer loses before it registers the read at all.
//!
//! Every decision is taken on one record's flag word: "give `R` an edge,
//! unless `R` is prepared and the edge would make it a pivot" is one CAS
//! loop ([`SsiTxn::add_edge`]), "prepare unless already a pivot" another. A
//! transaction is **doomed** exactly when its word holds both edges — there
//! is no separate doom list to keep in step with the flags.
//!
//! # Where a read registers
//!
//! A SIREAD entry exists so that a later concurrent writer of the key can
//! mark `reader --rw--> writer`. Two kinds of read take none, because no
//! such edge could still close a cycle:
//!
//! * **An update's read at a leaf.** The engine flags the read of a
//!   read-modify-write ([`TxnCtx::update_read`]); its `validate_write`
//!   already passed and the install follows under the same hold of the
//!   key's latch, so every later concurrent writer of the key loses on
//!   write-write before it could scan. An update that declines to write is
//!   picked again as a plain read under that hold, and registers. At an
//!   inner node a writer of the reader's own lane does not lose on
//!   write-write, so there the read registers as before.
//! * **A read-only transaction on a safe snapshot** (Ports & Grittner,
//!   VLDB 2012, §4.2), at a node that tracks them
//!   ([`SsiConfig::safe_snapshots`], the monolithic node). A transaction
//!   the engine declared read-only ([`TxnCtx::read_only`]) checks after
//!   every [`SAFE_CHECK_EVERY`] reads whether its snapshot `s` is safe
//!   (one with fewer reads is never checked: the check takes every
//!   directory shard, more than registering them costs): no read-write
//!   record with a snapshot below `s` is left in the directory, and no
//!   read-write transaction has committed with `OUT` at a timestamp above
//!   `s` (once one has, `s` stays unsafe and is not checked again). Then
//!   no read-write transaction it could still meet can be a pivot whose
//!   outgoing edge points at a commit its snapshot sees, so it releases
//!   its entries and reads the snapshot with no registration and no edge
//!   marking. A record enters the directory
//!   before its snapshot is taken, with a start at or below any snapshot
//!   meanwhile, so a check never misses a transaction caught between the
//!   two; a committer with `OUT` publishes its commit before its record
//!   leaves the directory, so a check that misses the record sees the
//!   commit.
//!
//! The node counts, once per transaction at `finish`, the SIREAD entries it
//! took and each checked read-only transaction as ending on a safe or an
//! unsafe snapshot ([`SsiCounters`]).

use crate::error::{CcError, CcResult, Reason};
use crate::mechanism::{CcMechanism, Lane, NodeEnv, TxnCtx, VersionPick};
use crate::topology::LaneSel;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use tebaldi_obs::metrics::Counter;
use tebaldi_obs::MetricsRegistry;
use tebaldi_storage::{Chain, Key, KeyMap, NodeId, Timestamp, TxnId};

/// Configuration of one SSI node.
#[derive(Clone, Debug)]
pub struct SsiConfig {
    /// Whether per-child batching is required for consistent ordering.
    pub batching: bool,
    /// Child lanes whose groups are entirely read-only (they always read a
    /// consistent snapshot, never batch, and never abort).
    pub read_only_lanes: HashSet<u32>,
    /// Whether a declared read-only transaction stops registering its reads
    /// once its snapshot is safe (see the module docs). Only for a node
    /// every transaction of the database passes through as a leaf — the
    /// monolithic node — whose directory then holds every read-write
    /// transaction the check must see.
    pub safe_snapshots: bool,
}

impl Default for SsiConfig {
    fn default() -> Self {
        SsiConfig {
            batching: true,
            read_only_lanes: HashSet::new(),
            safe_snapshots: false,
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
            safe_snapshots: false,
        }
    }

    /// The node of monolithic SSI: the only node of the tree, so every
    /// transaction is its own group (no batching) and read-only
    /// transactions track safe snapshots.
    pub fn monolithic() -> Self {
        SsiConfig {
            batching: false,
            read_only_lanes: HashSet::new(),
            safe_snapshots: true,
        }
    }
}

/// What one SSI node counts, each once per transaction at `finish`.
#[derive(Clone, Debug, Default)]
pub struct SsiCounters {
    /// SIREAD entries taken (`cc.ssi.<node>.siread_entries`).
    pub siread_entries: Arc<Counter>,
    /// Declared read-only transactions that ended on a safe snapshot
    /// (`cc.ssi.<node>.safe_snapshots`).
    pub safe_snapshots: Arc<Counter>,
    /// Declared read-only transactions that ended on a snapshot their
    /// checks found unsafe (`cc.ssi.<node>.unsafe_snapshots`); one that
    /// ended before its first check counts in neither.
    pub unsafe_snapshots: Arc<Counter>,
}

impl SsiCounters {
    /// The counters of node `node`, registered in `metrics`.
    pub(crate) fn registered(metrics: &MetricsRegistry, node: NodeId) -> Self {
        let counter = |what: &str| metrics.counter(&format!("cc.ssi.{}.{what}", node.0));
        SsiCounters {
            siread_entries: counter("siread_entries"),
            safe_snapshots: counter("safe_snapshots"),
            unsafe_snapshots: counter("unsafe_snapshots"),
        }
    }
}

/// Stripes of the SIREAD table and shards of the directory.
const READER_STRIPES: usize = 64;
const DIRECTORY_SHARDS: usize = 64;

/// Reads of a declared read-only transaction before its first
/// safe-snapshot check, and between two checks.
pub const SAFE_CHECK_EVERY: u32 = 64;

/// Incoming read-write anti-dependency: someone read what this
/// transaction overwrote.
const IN: u8 = 1;
/// Outgoing anti-dependency: this transaction read what someone overwrote.
const OUT: u8 = 2;
/// Voted yes in a cross-shard two-phase commit: the vote is stable, so a
/// transaction that would turn this one into a pivot aborts itself instead
/// (prepared transactions have priority).
const PREPARED: u8 = 4;

fn is_pivot(flags: u8) -> bool {
    flags & (IN | OUT) == IN | OUT
}

/// What one SSI node knows about one transaction (see the module docs).
#[derive(Debug)]
pub struct SsiTxn {
    /// The snapshot timestamp; `0`, at or below any snapshot, from the
    /// record's entry into the directory until `begin` has taken it.
    start: AtomicU64,
    lane: Option<u32>,
    /// Writes nothing at this node: on a read-only lane, or declared
    /// read-only by the engine.
    read_only: bool,
    /// `IN | OUT | PREPARED`. Every decision is taken on this word's own
    /// modification order and publishes no other memory; `AcqRel` is kept
    /// so a reader of the word also sees whatever its writer saw.
    flags: AtomicU8,
}

impl SsiTxn {
    fn flags(&self) -> u8 {
        self.flags.load(Ordering::Acquire)
    }

    fn start_ts(&self) -> Timestamp {
        Timestamp(self.start.load(Ordering::Acquire))
    }

    /// Gives the transaction the anti-dependency `edge` (`IN` or `OUT`) and
    /// returns the resulting word — which is a pivot's, i.e. the
    /// transaction is now doomed, when the other edge was already there.
    /// Refuses with `None`, changing nothing, when the transaction is
    /// prepared and the edge would complete its pivot: a stable yes-vote
    /// cannot be doomed, the discoverer must give way.
    fn add_edge(&self, edge: u8) -> Option<u8> {
        let mut cur = self.flags();
        loop {
            let new = cur | edge;
            if cur & PREPARED != 0 && is_pivot(new) {
                return None;
            }
            match self
                .flags
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(new),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Stabilizes the yes-vote unless the transaction is already a pivot.
    fn prepare(&self) -> bool {
        let mut cur = self.flags();
        loop {
            if is_pivot(cur) {
                return false;
            }
            match self.flags.compare_exchange_weak(
                cur,
                cur | PREPARED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A transaction's handle on its record at one SSI node, carried in
/// [`TxnCtx::ssi`] (a path may cross several SSI nodes).
#[derive(Clone, Debug)]
pub struct SsiHandle {
    node: NodeId,
    txn: Arc<SsiTxn>,
    /// The record's snapshot, for the transaction's own calls.
    start_ts: Timestamp,
    /// Keys this transaction is registered on in the SIREAD table.
    read_keys: Vec<Key>,
    /// SIREAD entries taken, those a safe snapshot released included.
    entries: u64,
    snapshot: Snapshot,
}

/// Where a transaction stands on the safe-snapshot rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Snapshot {
    /// Not a declared read-only transaction at a node that tracks safe
    /// snapshots: never checked, every read registers.
    Unchecked,
    /// Declared read-only, not (yet) found safe, after `reads` reads:
    /// checked once `reads` passed [`SAFE_CHECK_EVERY`].
    Pending { reads: u32 },
    /// Declared read-only, and a read-write transaction committed with
    /// `OUT` above the snapshot: it can never turn safe, so it is not
    /// checked again.
    Unsafe,
    /// Declared read-only on a safe snapshot: reads register nothing.
    Safe,
}

#[derive(Debug)]
struct Batch {
    ts: Timestamp,
    active: usize,
}

/// Keeps neighbouring stripes off each other's cache line.
#[repr(align(64))]
#[derive(Default)]
struct Padded<T>(T);

/// One reader registered on a key: its id and its record.
type Reader = (TxnId, Arc<SsiTxn>);

/// The SIREAD readers of one key. Nearly every key has exactly one reader
/// at a time, and that one lives in the table's own slot: registering it
/// and forgetting it allocate nothing.
#[derive(Default)]
enum KeyReaders {
    #[default]
    None,
    One(Reader),
    Many(Vec<Reader>),
}

impl KeyReaders {
    fn iter(&self) -> std::slice::Iter<'_, Reader> {
        match self {
            KeyReaders::None => [].iter(),
            KeyReaders::One(reader) => std::slice::from_ref(reader).iter(),
            KeyReaders::Many(readers) => readers.iter(),
        }
    }

    fn has(&self, txn: TxnId) -> bool {
        self.iter().any(|(r, _)| *r == txn)
    }

    fn push(&mut self, reader: Reader) {
        *self = match std::mem::take(self) {
            KeyReaders::None => KeyReaders::One(reader),
            KeyReaders::One(first) => KeyReaders::Many(vec![first, reader]),
            KeyReaders::Many(mut readers) => {
                readers.push(reader);
                KeyReaders::Many(readers)
            }
        };
    }

    /// Forgets `txn`; true when no reader is left.
    fn remove(&mut self, txn: TxnId) -> bool {
        match self {
            KeyReaders::One((r, _)) if *r == txn => *self = KeyReaders::None,
            KeyReaders::Many(readers) => readers.retain(|(r, _)| *r != txn),
            _ => {}
        }
        self.iter().len() == 0
    }
}

type Readers = KeyMap<KeyReaders>;
type Directory = HashMap<TxnId, Arc<SsiTxn>>;

/// A serializable-snapshot-isolation node.
pub struct Ssi {
    env: NodeEnv,
    config: SsiConfig,
    /// The SIREAD table: active readers per key, striped by key.
    readers: Box<[Padded<Mutex<Readers>>]>,
    /// Every active transaction's record, sharded by transaction id.
    directory: Box<[Padded<Mutex<Directory>>]>,
    /// Open batch per child lane; touched at begin and clean-up only.
    batches: Mutex<HashMap<u32, Batch>>,
    /// The largest commit timestamp of a read-write transaction that
    /// committed with `OUT` (kept only with `safe_snapshots`).
    out_committed: Padded<AtomicU64>,
    counters: SsiCounters,
}

impl Ssi {
    /// Creates an SSI mechanism bound to a CC-tree node.
    pub fn new(env: NodeEnv, config: SsiConfig) -> Self {
        Ssi {
            env,
            config,
            readers: (0..READER_STRIPES).map(|_| Padded::default()).collect(),
            directory: (0..DIRECTORY_SHARDS).map(|_| Padded::default()).collect(),
            batches: Mutex::new(HashMap::new()),
            out_committed: Padded::default(),
            counters: SsiCounters::default(),
        }
    }

    /// Counts into `counters` instead of the node's own unregistered ones.
    pub(crate) fn with_counters(mut self, counters: SsiCounters) -> Self {
        self.counters = counters;
        self
    }

    /// What the node has counted so far.
    pub fn counters(&self) -> &SsiCounters {
        &self.counters
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

    /// The stripe of the SIREAD table holding `key`. Taken from the middle
    /// of the mix: the stripe's own map spreads on the low bits and tags on
    /// the high ones.
    fn reader_stripe(&self, key: &Key) -> &Mutex<Readers> {
        &self.readers[(key.mix64() >> 32) as usize % READER_STRIPES].0
    }

    fn directory_shard(&self, txn: TxnId) -> &Mutex<Directory> {
        &self.directory[txn.0 as usize % DIRECTORY_SHARDS].0
    }

    /// The executing transaction's handle on its record at this node.
    fn handle<'c>(&self, ctx: &'c TxnCtx) -> Option<&'c SsiHandle> {
        ctx.ssi.iter().find(|h| h.node == self.env.node)
    }

    /// This node's record of the executing transaction.
    fn record<'c>(&self, ctx: &'c TxnCtx) -> Option<&'c SsiTxn> {
        self.handle(ctx).map(|h| &*h.txn)
    }

    /// Whether an uncommitted version of another transaction on `chain`
    /// comes from outside the reader's own child lane (a sibling group's
    /// write, or any other transaction's at a leaf).
    fn foreign_uncommitted_writer(
        &self,
        me: TxnId,
        my_lane: Option<u32>,
        chain: &Chain<'_>,
    ) -> Option<TxnId> {
        // One probe: free when the chain carries no uncommitted version at
        // all — the common case on long committed tails between GC cycles —
        // and, under the write latch, bounded by the writers in flight.
        chain
            .find_uncommitted(|v| {
                v.writer != me && {
                    let writer_lane = self
                        .env
                        .group_of(v.writer)
                        .and_then(|g| self.env.topology.child_lane(self.env.node, g));
                    writer_lane.is_none() || writer_lane != my_lane
                }
            })
            .map(|v| v.writer)
    }

    /// Smallest snapshot timestamp still in use (GC bound).
    fn min_active_start_ts(&self) -> Timestamp {
        self.directory
            .iter()
            .filter_map(|shard| {
                shard
                    .0
                    .lock()
                    .values()
                    .map(|t| t.start_ts())
                    .filter(|ts| *ts != Timestamp::MAX)
                    .min()
            })
            .min()
            .unwrap_or(Timestamp::MAX)
    }

    /// Where snapshot `s` of a read-only transaction stands: safe when no
    /// read-write record with an older snapshot is left in the directory
    /// and no read-write transaction committed with `OUT` above `s`; for
    /// good unsafe once one has (the bound only grows). The directory is
    /// read before the bound that decides "safe": a committer publishes its
    /// commit before its record leaves, so a record the scan misses has
    /// published.
    fn check_snapshot(&self, s: Timestamp, reads: u32) -> Snapshot {
        let out_above = || Timestamp(self.out_committed.0.load(Ordering::Acquire)) > s;
        if out_above() {
            return Snapshot::Unsafe;
        }
        let older_writer = self.directory.iter().any(|shard| {
            shard
                .0
                .lock()
                .values()
                .any(|t| !t.read_only && t.start_ts() < s)
        });
        match (older_writer, out_above()) {
            (_, true) => Snapshot::Unsafe,
            (true, false) => Snapshot::Pending { reads },
            (false, false) => Snapshot::Safe,
        }
    }

    /// Whether the next read of `handle`'s transaction may skip the SIREAD
    /// table: it is on a safe snapshot, or its check, due after every
    /// [`SAFE_CHECK_EVERY`] reads, finds it safe now — then its entries are
    /// released.
    fn read_on_safe_snapshot(&self, reader: TxnId, handle: &mut SsiHandle) -> bool {
        let Snapshot::Pending { reads } = handle.snapshot else {
            return handle.snapshot == Snapshot::Safe;
        };
        handle.snapshot = if reads > 0 && reads % SAFE_CHECK_EVERY == 0 {
            self.check_snapshot(handle.start_ts, reads + 1)
        } else {
            Snapshot::Pending { reads: reads + 1 }
        };
        if handle.snapshot != Snapshot::Safe {
            return false;
        }
        self.forget_reads(reader, &handle.read_keys);
        handle.read_keys.clear();
        true
    }

    /// Takes `reader` off the SIREAD readers of `keys`.
    fn forget_reads(&self, reader: TxnId, keys: &[Key]) {
        for key in keys {
            let mut stripe = self.reader_stripe(key).lock();
            if stripe.get_mut(key).is_some_and(|r| r.remove(reader)) {
                stripe.remove(key);
            }
        }
    }
}

impl CcMechanism for Ssi {
    fn begin(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        let read_only_lane = self.is_read_only_lane(lane);
        let lane_idx = Self::lane_index(lane);
        // The record enters the directory before its snapshot is taken, its
        // start at or below any snapshot meanwhile: a safe-snapshot check
        // running in between counts it as an older writer.
        let txn = Arc::new(SsiTxn {
            start: AtomicU64::new(0),
            lane: lane_idx,
            read_only: read_only_lane || ctx.read_only,
            flags: AtomicU8::new(0),
        });
        self.directory_shard(ctx.txn)
            .lock()
            .insert(ctx.txn, Arc::clone(&txn));
        let start_ts = match lane_idx {
            // Leaf usage ("monolithic SSI"): every transaction is its own
            // batch and needs a real snapshot. `snapshot_ts` stays below any
            // commit whose versions are still being applied, so the snapshot
            // is never half of a multi-key commit.
            None => self.env.oracle.snapshot_ts(),
            // Read-only transactions need a real snapshot.
            Some(_) if read_only_lane => self.env.oracle.snapshot_ts(),
            // Update transactions under the read-only-root optimisation
            // observe the latest committed state; their mutual ordering is
            // delegated to their subtree.
            Some(_) if !self.config.batching => Timestamp::MAX,
            // Batching: join the open batch of this child lane or open a new
            // one with a fresh timestamp.
            Some(lane_key) => {
                let mut batches = self.batches.lock();
                let batch = batches.entry(lane_key).or_insert_with(|| Batch {
                    ts: self.env.oracle.snapshot_ts(),
                    active: 0,
                });
                batch.active += 1;
                batch.ts
            }
        };
        txn.start.store(start_ts.0, Ordering::Release);
        let snapshot = if self.config.safe_snapshots && ctx.read_only && lane_idx.is_none() {
            Snapshot::Pending { reads: 0 }
        } else {
            Snapshot::Unchecked
        };
        ctx.ssi.push(SsiHandle {
            node: self.env.node,
            txn,
            start_ts,
            read_keys: Vec::new(),
            entries: 0,
            snapshot,
        });
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
            if pick.writer == ctx.txn || self.delegated_same_group(lane, pick.writer) {
                return candidate;
            }
        }
        let reader = ctx.txn;
        // An update's read at a leaf: the install follows under this hold of
        // the key's latch, and every later writer of the key loses on
        // write-write, so no scan could use an entry (see the module docs).
        let installs = ctx.update_read && lane.sel == LaneSel::Leaf;
        let mine = ctx.ssi.iter_mut().find(|h| h.node == self.env.node);
        let (start_ts, my_lane) = match &mine {
            Some(h) => (h.start_ts, h.txn.lane),
            None => (Timestamp::MAX, None),
        };
        if let Some(h) = mine {
            if self.read_on_safe_snapshot(reader, h) {
                return chain
                    .committed_at_or_before(start_ts)
                    .map(VersionPick::from_version)
                    .or(candidate);
            }
            // Register the read — before walking the chain — so later
            // writers can mark the anti-dependency. Once per key: a second
            // read of the same key adds nothing a writer's scan could use.
            if !installs {
                let mut stripe = self.reader_stripe(key).lock();
                let readers = stripe.entry(*key).or_default();
                if !readers.has(reader) {
                    readers.push((reader, Arc::clone(&h.txn)));
                    h.read_keys.push(*key);
                    h.entries += 1;
                }
            }
        }

        // Snapshot visibility: the latest version committed at or before our
        // start timestamp (the start timestamp is the newest fully applied
        // commit at begin time, so it is inclusive). Missing a newer
        // committed write or an uncommitted write from a sibling group
        // creates an outgoing anti-dependency. The newest committed version
        // carries the chain's largest commit timestamp (position-order
        // invariant), so it alone says whether a commit was missed.
        let visible = chain.committed_at_or_before(start_ts);
        let missed_writer = match chain.latest_committed() {
            Some(v) if v.commit_ts().is_some_and(|c| c > start_ts) => Some(v.writer),
            _ => self.foreign_uncommitted_writer(reader, my_lane, chain),
        };
        if let Some(writer) = missed_writer {
            if let Some(me) = self.record(ctx) {
                me.add_edge(OUT);
            }
            let them = self.directory_shard(writer).lock().get(&writer).cloned();
            if them.is_some_and(|them| them.add_edge(IN).is_none()) {
                // Dooming a prepared transaction is forbidden (stable
                // yes-vote): the reader sacrifices itself instead.
                ctx.must_abort = true;
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

    fn after_write(&self, ctx: &mut TxnCtx, lane: Lane, key: &Key) -> CcResult<()> {
        let me = self
            .record(ctx)
            .ok_or(CcError::Internal("SSI: write before begin".to_string()))?;
        let my_lane = Self::lane_index(lane);
        // Readers of this key that did not (and will not) see our write have
        // an anti-dependency towards us: reader --rw--> writer. The scan runs
        // after the install, so a reader is either registered by now or
        // walks a chain that holds our version and marks the edge itself.
        let mut we_gain_in = false;
        if let Some(readers) = self.reader_stripe(key).lock().get(key) {
            for (_, reader) in readers.iter().filter(|(r, _)| *r != ctx.txn) {
                we_gain_in = true;
                // Readers from our own child group are ordered by our child
                // CC, not by SSI.
                if reader.lane.is_some() && reader.lane == my_lane {
                    continue;
                }
                if reader.add_edge(OUT).is_none() {
                    // This write would make a prepared (voted-yes)
                    // transaction a pivot, but its vote can no longer be
                    // revoked — the discovering writer aborts instead.
                    return Err(CcError::conflict(Reason::DoomsPrepared));
                }
            }
        }
        if we_gain_in && me.add_edge(IN).is_some_and(is_pivot) {
            return Err(CcError::conflict(Reason::PivotOnWrite));
        }
        Ok(())
    }

    fn validate(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        if self.is_read_only_lane(lane) {
            return Ok(());
        }
        if self.record(ctx).is_some_and(|me| is_pivot(me.flags())) {
            return Err(CcError::conflict(Reason::Pivot));
        }
        Ok(())
    }

    fn mark_prepared(&self, ctx: &mut TxnCtx, lane: Lane) -> CcResult<()> {
        if self.is_read_only_lane(lane) {
            return Ok(());
        }
        // One CAS loop re-checks and stabilizes: an edge that landed between
        // validation and this call is caught, and from here on conflict
        // discovery that would doom this transaction aborts the discoverer
        // instead.
        if self.record(ctx).is_some_and(|me| !me.prepare()) {
            return Err(CcError::conflict(Reason::PivotAtPrepare));
        }
        Ok(())
    }

    fn finish(&self, ctx: &mut TxnCtx, lane: Lane, outcome: Option<Timestamp>) {
        self.cleanup(ctx, lane, outcome);
    }

    fn low_watermark(&self) -> Timestamp {
        self.min_active_start_ts()
    }
}

impl Ssi {
    /// The first-committer-wins check, exposed separately so the engine can
    /// run it with the freshest chain state right before installing a write.
    /// A conflict names its winner: the newest committed writer, or the
    /// foreign writer still in flight.
    pub fn check_first_committer_wins(
        &self,
        ctx: &TxnCtx,
        chain: &Chain<'_>,
        lane: Lane,
    ) -> CcResult<()> {
        if self.is_read_only_lane(lane) {
            return Ok(());
        }
        let Some(me) = self.handle(ctx) else {
            return Ok(());
        };
        // Visibility is `commit_ts <= start_ts`, so only commits strictly
        // after the snapshot count as concurrent.
        if let Some(newer) = chain.committed_after(me.start_ts) {
            return Err(CcError::Conflict {
                reason: Reason::FirstCommitterWins,
                winner: Some(newer.writer),
            });
        }
        match self.foreign_uncommitted_writer(ctx.txn, me.txn.lane, chain) {
            Some(writer) => Err(CcError::Conflict {
                reason: Reason::CrossGroupWriteWrite,
                winner: Some(writer),
            }),
            None => Ok(()),
        }
    }

    /// Forgets the transaction: its directory entry, its SIREAD
    /// registrations and its seat in a batch; counts what it did. A
    /// read-write transaction that commits with `OUT` publishes its commit
    /// first (see [`snapshot_is_safe`](Ssi::snapshot_is_safe)).
    fn cleanup(&self, ctx: &mut TxnCtx, lane: Lane, outcome: Option<Timestamp>) {
        let Some(at) = ctx.ssi.iter().position(|h| h.node == self.env.node) else {
            return;
        };
        let handle = ctx.ssi.swap_remove(at);
        if let Some(commit_ts) = outcome {
            if self.config.safe_snapshots && !handle.txn.read_only && handle.txn.flags() & OUT != 0
            {
                self.out_committed
                    .0
                    .fetch_max(commit_ts.0, Ordering::AcqRel);
            }
        }
        self.directory_shard(ctx.txn).lock().remove(&ctx.txn);
        self.forget_reads(ctx.txn, &handle.read_keys);
        if let Some(lane_key) = handle.txn.lane {
            if self.config.batching && !self.is_read_only_lane(lane) {
                let mut batches = self.batches.lock();
                if let Some(batch) = batches.get_mut(&lane_key) {
                    batch.active = batch.active.saturating_sub(1);
                    if batch.active == 0 {
                        batches.remove(&lane_key);
                    }
                }
            }
        }
        if handle.entries > 0 {
            self.counters.siread_entries.add(handle.entries);
        }
        match handle.snapshot {
            Snapshot::Unchecked => {}
            Snapshot::Pending { reads } if reads > SAFE_CHECK_EVERY => {
                self.counters.unsafe_snapshots.inc()
            }
            Snapshot::Pending { .. } => {}
            Snapshot::Unsafe => self.counters.unsafe_snapshots.inc(),
            Snapshot::Safe => self.counters.safe_snapshots.inc(),
        }
    }

    /// Number of transactions currently tracked (diagnostics).
    pub fn active_count(&self) -> usize {
        self.directory.iter().map(|s| s.0.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{read_at as read, Access};
    use crate::registry::TxnRegistry;
    use crate::topology::Topology;
    use std::sync::Arc;
    use tebaldi_storage::{
        GroupId, MvStore, NodeId, TableId, TxnTypeId, Value, Version, VersionId,
    };

    fn setup(batching: bool) -> (Ssi, Arc<TxnRegistry>) {
        let registry = Arc::new(TxnRegistry::default());
        let mut topo = Topology::new();
        topo.record_child(NodeId(0), GroupId(0), 0);
        topo.record_child(NodeId(0), GroupId(1), 1);
        let env = NodeEnv::for_test(topo, Arc::clone(&registry), 20);
        let config = SsiConfig {
            batching,
            ..SsiConfig::default()
        };
        (Ssi::new(env, config), registry)
    }

    fn k(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    /// The node's record of a begun transaction.
    fn rec<'c>(ssi: &Ssi, ctx: &'c TxnCtx) -> &'c SsiTxn {
        ssi.record(ctx).expect("begun at this node")
    }

    /// A write of `key` by `ctx` in the engine's order (`Txn::put`):
    /// `validate_write` and the install under the key's latch, then
    /// `after_write`.
    fn write(ssi: &Ssi, store: &MvStore, ctx: &mut TxnCtx, lane: Lane, key: Key) -> CcResult<()> {
        store.with_chain_mut(&key, |chain| {
            ssi.validate_write(ctx, lane, &key, chain)?;
            let value = Value::Int(ctx.txn.0 as i64);
            chain.install(Version::uncommitted(VersionId(0), ctx.txn, value, None));
            Ok(())
        })?;
        ssi.after_write(ctx, lane, &key)
    }

    /// A read-modify-write of `key` by `ctx` in the engine's order
    /// (`Txn::update`): `validate_write`, the read and the install under one
    /// hold of the key's latch, then `after_write`.
    fn update(ssi: &Ssi, store: &MvStore, ctx: &mut TxnCtx, lane: Lane, key: Key) -> CcResult<()> {
        store.with_chain_mut(&key, |chain| {
            ssi.validate_write(ctx, lane, &key, chain)?;
            let _ = ssi.choose_version(ctx, lane, &key, None, chain);
            let value = Value::Int(ctx.txn.0 as i64);
            chain.install(Version::uncommitted(VersionId(0), ctx.txn, value, None));
            Ok(())
        })?;
        ssi.after_write(ctx, lane, &key)
    }

    /// A store where `writer` committed `val` on `key` at `ts`.
    fn committed_version(key: Key, writer: u64, val: i64, ts: u64) -> MvStore {
        let store = MvStore::new(1);
        store.write(&key, TxnId(writer), Value::Int(val));
        store.commit_writes(TxnId(writer), &[key], Timestamp(ts));
        store
    }

    #[test]
    fn snapshot_read_ignores_later_commits() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut ctx = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut ctx, Lane::child(0)).unwrap();

        // A version committed *after* the snapshot must not be visible.
        let later = ssi.env.oracle.issue().0 + 10;
        let store = committed_version(k(1), 99, 42, later);
        let pick = read(&ssi, &store, &mut ctx, Lane::child(0), k(1));
        assert!(pick.is_none(), "nothing visible before the snapshot");
        ssi.finish(&mut ctx, Lane::child(0), Some(Timestamp(100)));
        assert_eq!(ssi.active_count(), 0);
    }

    #[test]
    fn first_committer_wins_aborts() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut ctx = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut ctx, Lane::child(0)).unwrap();
        let later = ssi.env.oracle.issue().0 + 5;
        let store = committed_version(k(1), 50, 1, later);
        // The lock-free view and the latched one the engine validates
        // under decide alike.
        let lock_free = store.with_chain(&k(1), |chain| {
            ssi.check_first_committer_wins(&ctx, chain, Lane::child(0))
        });
        let latched = store.with_chain_mut(&k(1), |chain| {
            ssi.validate_write(&mut ctx, Lane::child(0), &k(1), chain)
        });
        assert_eq!(
            lock_free,
            Err(CcError::Conflict {
                reason: Reason::FirstCommitterWins,
                winner: Some(TxnId(50)),
            })
        );
        assert_eq!(lock_free, latched);
    }

    #[test]
    fn cross_group_uncommitted_write_conflict_aborts() {
        let (ssi, registry) = setup(true);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(1), GroupId(1));
        let mut a = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut a, Lane::child(0)).unwrap();
        // Transaction from the other group installed an uncommitted write.
        let store = MvStore::new(1);
        store.write(&k(1), TxnId(2), Value::Int(9));
        let lock_free = store.with_chain(&k(1), |chain| {
            ssi.check_first_committer_wins(&a, chain, Lane::child(0))
        });
        let latched = store.with_chain_mut(&k(1), |chain| {
            ssi.validate_write(&mut a, Lane::child(0), &k(1), chain)
        });
        assert_eq!(
            lock_free,
            Err(CcError::Conflict {
                reason: Reason::CrossGroupWriteWrite,
                winner: Some(TxnId(2)),
            })
        );
        assert_eq!(lock_free, latched);
        // A same-lane writer in flight is the child's business, not SSI's.
        registry.register(TxnId(3), TxnTypeId(0), GroupId(0));
        store.abort_writes(TxnId(2), &[k(1)]);
        store.write(&k(1), TxnId(3), Value::Int(9));
        store.with_chain_mut(&k(1), |chain| {
            ssi.validate_write(&mut a, Lane::child(0), &k(1), chain)
                .unwrap()
        });
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

        let store = MvStore::new(1);
        // T reads x (registers as reader of x) and writes y.
        let _ = read(&ssi, &store, &mut t, Lane::child(0), k(1));
        write(&ssi, &store, &mut t, Lane::child(0), k(2)).unwrap();
        // U reads y and misses T's uncommitted write: U -rw-> T gives T the
        // incoming edge.
        let _ = read(&ssi, &store, &mut u, Lane::child(1), k(2));

        // T validates and stabilizes its yes-vote.
        ssi.validate(&mut t, Lane::child(0)).unwrap();
        ssi.mark_prepared(&mut t, Lane::child(0)).unwrap();

        // U now writes x, which would complete T's pivot (T -rw-> U): U
        // must be rejected, T must stay committable.
        let result = write(&ssi, &store, &mut u, Lane::child(1), k(1));
        assert_eq!(
            result,
            Err(CcError::conflict(Reason::DoomsPrepared)),
            "writer dooming a prepared txn must abort"
        );
        store.abort_writes(TxnId(2), &[k(1)]);
        ssi.finish(&mut u, Lane::child(1), None);
        assert!(!is_pivot(rec(&ssi, &t).flags()), "prepared txn stays clean");
        ssi.finish(&mut t, Lane::child(0), Some(Timestamp(5)));
    }

    #[test]
    fn doomed_before_prepare_is_rejected_at_prepare() {
        let (ssi, registry) = setup(false);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut t = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        ssi.begin(&mut t, Lane::child(0)).unwrap();
        // A doom that lands between validate and mark_prepared is caught.
        ssi.validate(&mut t, Lane::child(0)).unwrap();
        rec(&ssi, &t).add_edge(IN);
        rec(&ssi, &t).add_edge(OUT);
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
        let store = MvStore::new(1);
        let _ = read(&ssi, &store, &mut t2, Lane::child(1), k(1));
        write(&ssi, &store, &mut t1, Lane::child(0), k(1)).unwrap();
        // T3 reads key B, T2 writes B: T3 -rw-> T2; now T2 has in and out.
        let _ = read(&ssi, &store, &mut t3, Lane::child(0), k(2));
        // T2 is the pivot: it is rejected as soon as the second
        // anti-dependency appears (at the write or, at the latest, during
        // validation).
        let write_result = write(&ssi, &store, &mut t2, Lane::child(1), k(2));
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
        let ts_a = rec(&ssi, &a).start_ts();
        let ts_b = rec(&ssi, &b).start_ts();
        assert_eq!(ts_a, ts_b, "same lane, same batch, same timestamp");
        // Different lanes are tracked as separate batches (their members may
        // still share a snapshot timestamp when no commit happened between
        // the two batch openings).
        let batches = ssi.batches.lock();
        assert_eq!(batches.len(), 2, "one open batch per child lane");
        assert_eq!(batches.get(&0).unwrap().active, 2);
        assert_eq!(batches.get(&1).unwrap().active, 1);
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
        assert_ne!(rec(&ssi, &reader).start_ts(), Timestamp::MAX);
        assert_eq!(rec(&ssi, &writer).start_ts(), Timestamp::MAX);
        assert!(ssi.batches.lock().is_empty());
        // Update transactions see the latest committed version.
        let store = committed_version(k(3), 9, 7, 5);
        let pick = read(&ssi, &store, &mut writer, Lane::child(1), k(3)).unwrap();
        assert_eq!(pick.value, Value::Int(7));
        // Read-only transactions never fail validation.
        assert!(ssi.validate(&mut reader, Lane::child(0)).is_ok());
    }

    /// Both prepared-priority rules, each on the edge that would complete
    /// the pivot and on the edge that does not.
    #[test]
    fn prepared_priority_on_both_rules() {
        let (ssi, registry) = setup(false);
        for id in 1..=6u64 {
            registry.register(TxnId(id), TxnTypeId(0), GroupId((id % 2) as u32));
        }
        let store = MvStore::new(1);
        let begin = |id: u64| {
            let mut ctx = TxnCtx::new(TxnId(id), TxnTypeId(0), GroupId((id % 2) as u32));
            ssi.begin(&mut ctx, Lane::child((id % 2) as u32)).unwrap();
            ctx
        };

        // Rule 1 (`after_write`): P is prepared with IN; a writer on a key
        // P read would add OUT — refused, P untouched. A prepared reader
        // *without* IN just gains OUT, and the writer proceeds.
        let (mut p, mut clean, mut w) = (begin(1), begin(3), begin(2));
        let _ = read(&ssi, &store, &mut p, Lane::child(1), k(1));
        let _ = read(&ssi, &store, &mut clean, Lane::child(1), k(2));
        rec(&ssi, &p).add_edge(IN);
        ssi.mark_prepared(&mut p, Lane::child(1)).unwrap();
        ssi.mark_prepared(&mut clean, Lane::child(1)).unwrap();
        let err = write(&ssi, &store, &mut w, Lane::child(0), k(1)).unwrap_err();
        assert!(err.to_string().contains("doom a prepared"), "{err}");
        assert_eq!(rec(&ssi, &p).flags(), IN | PREPARED);
        assert_eq!(
            rec(&ssi, &w).flags(),
            0,
            "the refused writer gained nothing"
        );
        write(&ssi, &store, &mut w, Lane::child(0), k(2)).unwrap();
        assert_eq!(rec(&ssi, &clean).flags(), OUT | PREPARED);
        assert_eq!(rec(&ssi, &w).flags(), IN);

        // Rule 2 (`choose_version`): Q is prepared with OUT and an
        // uncommitted write on y; a reader that misses it would add IN —
        // the reader marks itself for abort, Q untouched. With only
        // IN | PREPARED on the writer the reader survives.
        let mut q = begin(4);
        rec(&ssi, &q).add_edge(OUT);
        ssi.mark_prepared(&mut q, Lane::child(0)).unwrap();
        store.write(&k(9), TxnId(4), Value::Int(1));
        let mut r1 = begin(5);
        let _ = read(&ssi, &store, &mut r1, Lane::child(1), k(9));
        assert!(r1.must_abort, "reader gives way to a prepared writer");
        assert_eq!(rec(&ssi, &q).flags(), OUT | PREPARED);
        store.write(&k(8), TxnId(1), Value::Int(1));
        // P already holds IN: one more incoming edge changes nothing and
        // refuses nothing.
        let mut r2 = begin(6);
        let _ = read(&ssi, &store, &mut r2, Lane::child(0), k(8));
        assert!(!r2.must_abort);
        assert_eq!(rec(&ssi, &p).flags(), IN | PREPARED);
        assert_eq!(rec(&ssi, &r2).flags(), OUT);
    }

    /// Two transactions read a key and both write it (T1 first): the
    /// second writer loses on write-write alone and names T1, and T1 — left
    /// with only the incoming edge of T2's read — commits. A reader scan
    /// before the write-write check made both abort: T2's scan gave T1 the
    /// outgoing edge that made it a pivot, then T2 died a pivot itself.
    #[test]
    fn a_read_modify_write_race_has_one_victim_and_it_names_the_winner() {
        let (ssi, registry) = setup(false);
        let store = MvStore::new(1);
        store.load(&k(1), Value::Int(0));
        let mut t = [1u64, 2].map(|id| {
            registry.register(TxnId(id), TxnTypeId(0), GroupId(0));
            let mut ctx = TxnCtx::new(TxnId(id), TxnTypeId(0), GroupId(0));
            ssi.begin(&mut ctx, Lane::leaf()).unwrap();
            ctx
        });
        for ctx in &mut t {
            assert!(read(&ssi, &store, ctx, Lane::leaf(), k(1)).is_some());
        }
        let [t1, t2] = &mut t;
        write(&ssi, &store, t1, Lane::leaf(), k(1)).unwrap();
        assert_eq!(
            write(&ssi, &store, t2, Lane::leaf(), k(1)),
            Err(CcError::Conflict {
                reason: Reason::CrossGroupWriteWrite,
                winner: Some(TxnId(1)),
            })
        );
        ssi.finish(t2, Lane::leaf(), None);
        assert_eq!(rec(&ssi, t1).flags(), IN);
        ssi.validate(t1, Lane::leaf()).unwrap();
        ssi.mark_prepared(t1, Lane::leaf()).unwrap();
        store.commit_writes(TxnId(1), &[k(1)], Timestamp(2));
        ssi.finish(t1, Lane::leaf(), Some(Timestamp(2)));
        assert_eq!(ssi.active_count(), 0);
    }

    /// The same race between two read-modify-writes (`Txn::update`): the
    /// loser is decided before its read, so it never registers one and the
    /// winner does not even gain the incoming edge.
    #[test]
    fn an_update_race_loser_never_reads_and_the_winner_stays_clean() {
        let (ssi, registry) = setup(false);
        let store = MvStore::new(1);
        store.load(&k(1), Value::Int(0));
        let mut t = [1u64, 2].map(|id| {
            registry.register(TxnId(id), TxnTypeId(0), GroupId(0));
            let mut ctx = TxnCtx::new(TxnId(id), TxnTypeId(0), GroupId(0));
            ssi.begin(&mut ctx, Lane::leaf()).unwrap();
            ctx
        });
        let [t1, t2] = &mut t;
        update(&ssi, &store, t1, Lane::leaf(), k(1)).unwrap();
        assert_eq!(
            update(&ssi, &store, t2, Lane::leaf(), k(1)),
            Err(CcError::Conflict {
                reason: Reason::CrossGroupWriteWrite,
                winner: Some(TxnId(1)),
            })
        );
        let readers = |key: &Key| {
            let stripe = ssi.reader_stripe(key).lock();
            stripe
                .get(key)
                .map_or(vec![], |r| r.iter().map(|(id, _)| *id).collect())
        };
        assert_eq!(
            readers(&k(1)),
            vec![TxnId(1)],
            "the loser registered no read"
        );
        assert_eq!(rec(&ssi, t1).flags(), 0);
        ssi.finish(t2, Lane::leaf(), None);
        ssi.finish(t1, Lane::leaf(), None);
        assert_eq!(ssi.active_count(), 0);
    }

    /// A reader that registers and walks the chain after the point where
    /// the writer's reader scan used to run (its top-down pass,
    /// `before_access`) but before the install sees nothing to miss, and
    /// used to be seen by neither side.
    /// The scan after the install marks the edge.
    #[test]
    fn a_read_between_the_old_scan_point_and_the_install_gets_its_edge() {
        let (ssi, registry) = setup(false);
        registry.register(TxnId(1), TxnTypeId(0), GroupId(0));
        registry.register(TxnId(2), TxnTypeId(1), GroupId(1));
        let mut r = TxnCtx::new(TxnId(1), TxnTypeId(0), GroupId(0));
        let mut w = TxnCtx::new(TxnId(2), TxnTypeId(1), GroupId(1));
        ssi.begin(&mut r, Lane::child(0)).unwrap();
        ssi.begin(&mut w, Lane::child(1)).unwrap();
        let store = MvStore::new(1);
        ssi.before_access(&mut w, Lane::child(1), &k(1), Access::Write)
            .unwrap();
        assert!(read(&ssi, &store, &mut r, Lane::child(0), k(1)).is_none());
        assert_eq!((rec(&ssi, &r).flags(), rec(&ssi, &w).flags()), (0, 0));
        write(&ssi, &store, &mut w, Lane::child(1), k(1)).unwrap();
        assert_eq!((rec(&ssi, &r).flags(), rec(&ssi, &w).flags()), (OUT, IN));
    }

    /// Two threads on one key, lock-stepped so every round runs the reader's
    /// registration and walk concurrently with the writer's whole write —
    /// validation, install, reader scan. Whichever the key's stripe lock
    /// orders first, every round must leave the rw edge: OUT on the reader
    /// and IN on the writer. A reader the scan misses registered after it,
    /// so its walk finds the installed version and marks the edge itself.
    #[test]
    fn same_key_reader_and_writer_race_always_leaves_the_edge() {
        use std::sync::Barrier;
        const ROUNDS: u64 = 2_000;
        let (ssi, registry) = setup(false);
        let store = MvStore::new(1);
        let start = Barrier::new(2);
        let done = Barrier::new(2);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut flags = Vec::with_capacity(ROUNDS as usize);
                for round in 0..ROUNDS {
                    let id = TxnId(2 * round + 1);
                    registry.register(id, TxnTypeId(0), GroupId(0));
                    let mut r = TxnCtx::new(id, TxnTypeId(0), GroupId(0));
                    ssi.begin(&mut r, Lane::child(0)).unwrap();
                    start.wait();
                    let _ = read(&ssi, &store, &mut r, Lane::child(0), k(7));
                    done.wait();
                    flags.push(rec(&ssi, &r).flags());
                    ssi.finish(&mut r, Lane::child(0), None);
                }
                flags
            });
            let writer = scope.spawn(|| {
                let mut flags = Vec::with_capacity(ROUNDS as usize);
                for round in 0..ROUNDS {
                    let id = TxnId(2 * round + 2);
                    registry.register(id, TxnTypeId(1), GroupId(1));
                    let mut w = TxnCtx::new(id, TxnTypeId(1), GroupId(1));
                    ssi.begin(&mut w, Lane::child(1)).unwrap();
                    start.wait();
                    write(&ssi, &store, &mut w, Lane::child(1), k(7)).unwrap();
                    done.wait();
                    flags.push(rec(&ssi, &w).flags());
                    store.abort_writes(id, &[k(7)]);
                    ssi.finish(&mut w, Lane::child(1), None);
                }
                flags
            });
            let (reader, writer) = (reader.join().unwrap(), writer.join().unwrap());
            for (round, pair) in reader.into_iter().zip(writer).enumerate() {
                assert_eq!(pair, (OUT, IN), "round {round}: an rw edge went unseen");
            }
        });
        assert_eq!(ssi.active_count(), 0);
        assert!(ssi.readers.iter().all(|s| s.0.lock().is_empty()));
    }
}
