//! The sharded multiversion store.
//!
//! The paper's cluster architecture (§4.5.1) splits the database across
//! *data servers* holding partitions of the data. In this reproduction a
//! data server is a whole database — one store, one log — and the store's
//! shards are hash stripes of that one server's keys. A shard is **not**
//! a locked map: it is a *directory* — an open-addressed table of atomic
//! slots, each naming an append-only key entry — that doubles as its key
//! count grows, and each entry points at a version chain of
//! [`VersionArena`] slots linked by atomic generation-tagged handles.
//!
//! **The directory.** A key's [`Key::mix64`] picks the shard with its lower
//! half and, with its upper half (the *tag*), the home position in that
//! shard's table; a lookup compares tags slot by slot from there and stops
//! at the key or at an empty slot. A table is at most half full and no key
//! sits more than 32 slots from its home — an insert that would break
//! either rule first rebuilds the table at twice the size — so a lookup
//! costs the same however many keys the store holds, and an empty store is
//! a few KiB. Two publication orders make it safe without a reader lock:
//! *entry initialized → slot stored (`Release`)*, so a reader that sees a
//! slot sees the key it names; and *new table filled → table pointer stored
//! (`Release`)*, so a reader sees a table complete or not at all. Slots are
//! written once and superseded tables are parked until the store drops, not
//! retired through the epoch machinery: they are never reused, a reader
//! still probing one can only miss a key whose insert had not yet returned,
//! and together they are smaller than the live table.
//!
//! The rule of this module: **one chain access touches no process-global
//! lock and no process-global read-modify-write.** What is shared is read;
//! what is written is per key or per thread.
//!
//! * **Readers take no lock at all.** [`MvStore::with_chain`] pins the
//!   reclamation epoch ([`crate::ebr`]), walks table → slot → entry → chain
//!   with `Acquire` loads, and hands the closure a [`Chain`] view. A reader
//!   completes even while another thread holds the write latch of the same
//!   key (or any other).
//! * **Batched reads** ([`MvStore::read_many`], which
//!   [`MvStore::read_snapshot_hlc`] and a replica's follower read go
//!   through) walk many keys at once. A lookup is three dependent cache
//!   misses — the directory slot, the key entry it names, the head version
//!   the entry names — and one key at a time they queue: each waits for
//!   the last. The batch walks the keys in groups of `READ_GROUP` (16), in
//!   stages: hash every key and prefetch its home slot; read every slot and
//!   prefetch its entry; finish every lookup and prefetch its head slot;
//!   then pick every answer. Each stage's loads are independent of one
//!   another, so the group's misses overlap. A group, not the whole batch:
//!   a stage's lines must still be cached when the next stage reads them,
//!   and a core tracks only so many misses at once. The pick is the same
//!   chain walk a single read makes, so the batch changes when a line is
//!   loaded, never what is read.
//!   **The prefetch hint** ([`MvStore::prefetch`]) is the same staged walk
//!   without the pick, for a caller that knows its keys before it reads
//!   them one at a time (a transaction under the CC tree, whose every read
//!   runs the tree's hooks first): it leaves each key's three lines on
//!   their way into the cache, and the single lookups that follow find
//!   them there. It too changes when a line is loaded, never what is read:
//!   it reads no version, counts no read and inserts no key, and a key
//!   that is never looked up afterwards costs only the wasted loads. The
//!   store has one walk (`MvStore::walk`) for both.
//! * **Writers serialize per key**, not per shard: [`MvStore::with_chain_mut`]
//!   takes a tiny per-entry spin latch. Only the *first* write of a key
//!   takes its shard's insert lock, to add the entry and its slot (and,
//!   now and then, to rebuild the table — the one pause in the store, and
//!   it stops nothing but other first writes to that shard). Installing,
//!   overwriting and aborting are splices — a new slot is linked in, or an
//!   old one linked out and retired — so a reader always observes fully
//!   formed versions.
//!   **Committing is not a splice**: it flips the version's commit word in
//!   place (two stores under the latch, see [`Version`]), allocating and
//!   retiring nothing and leaving the chain position alone.
//! * **What a reader may observe mid-commit.** A walk can meet a version
//!   uncommitted and, a step later in the same walk (the chain head is
//!   re-loaded per traversal), committed — the race of meeting a commit
//!   one step earlier or later: "committed" and its
//!   timestamp are one `Acquire` load of one word, and the HLC stamp is
//!   stored before that word, so a version is never seen committed without
//!   its timestamp or with a stale stamp. A multi-key commit becomes
//!   visible key by key; snapshot readers stay below it through the
//!   oracle's in-flight set, HLC readers through `Blocked`.
//! * **Per-thread state is striped** by the caller's epoch pin slot
//!   ([`ebr::stripe`]): the limbo bags of retired slots, the
//!   arena's vacant-slot caches, and the statistics (`reads`, `writes`,
//!   `keys`, `versions`, `uncommitted`). Each stripe sits on its own cache
//!   lines; up to [`ebr::STRIPES`] live threads never write the same one.
//!   Readers of the statistics sum the stripes, so [`MvStore::stats`],
//!   [`MvStore::access_counts`], [`MvStore::limbo_stats`] and
//!   [`MvStore::arena_occupied`] stay exact ([`MvStore::stats_scanned`]
//!   recomputes by full scan so tests can assert it).
//! * **Reclamation is epoch-based and per stripe**: a retired slot parks in
//!   its retiring thread's limbo bag, in per-epoch bins, and is freed —
//!   into the sweeping thread's arena cache — once the global epoch and
//!   every pinned thread have advanced two epochs past the retirement (no
//!   global pause). Every [`SWEEP_EVERY`] retires of a stripe — and every
//!   GC cycle — run [`MvStore::reclaim`], which frees what has ripened in
//!   any stripe.

use crate::arena::{prefetch, Segments, VersionArena, ZeroVacant, NIL};
use crate::ebr;
use crate::key::Key;
use crate::schema::TableId;
use crate::types::{GroupId, Timestamp, TxnId};
use crate::value::Value;
use crate::version::Version;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use tebaldi_obs::metrics::{Counter, MaxGauge, MetricsRegistry};

/// How a convenience read should select a version.
///
/// Concurrency-control mechanisms normally inspect the chain directly via
/// [`MvStore::with_chain`]; `ReadSpec` exists for loaders, examples, tests
/// and recovery.
#[derive(Clone, Copy, Debug)]
pub enum ReadSpec {
    /// The most recently committed version.
    LatestCommitted,
    /// Snapshot read: latest version committed strictly before the
    /// timestamp.
    SnapshotBefore(Timestamp),
    /// The version written by the given transaction (committed or not),
    /// falling back to the latest committed version.
    OwnOrCommitted(TxnId),
}

/// Result of an HLC-snapshot read (see [`MvStore::read_snapshot_hlc`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotRead {
    /// The value visible at the snapshot (`None`: key absent or deleted).
    Value(Option<Value>),
    /// An uncommitted writer — the carried transaction — newer than the
    /// visible candidate is still in flight and may commit with a stamp
    /// inside the snapshot; the caller must wait it out (or refuse) and
    /// retry.
    Blocked(TxnId),
}

/// Result of installing a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// True if another transaction currently holds an uncommitted version
    /// of the same key (useful for CCs that abort on dirty write-write
    /// overlap).
    pub other_uncommitted: bool,
    /// Commit timestamp of the latest committed version at install time.
    pub latest_committed_ts: Option<Timestamp>,
}

/// Aggregate statistics, used by GC, benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of distinct keys.
    pub keys: usize,
    /// Total number of versions across all chains.
    pub versions: usize,
    /// Number of uncommitted versions.
    pub uncommitted: usize,
}

/// Keys a [`MvStore::read_many`] or [`MvStore::prefetch`] walks in step:
/// each stage issues this many independent loads before the next stage
/// uses the first of them — a few more than the misses a core keeps in
/// flight, and few enough that the group's lines are still cached when the
/// next stage reads them. A caller that prefetches ahead of single reads
/// warms this many keys at a time, for the same reason.
pub const READ_GROUP: usize = 16;

/// Slots of a shard's first table: 2^6 of them, 512 B a shard, so a store
/// costs next to nothing until it holds keys.
const INITIAL_BITS: u32 = 6;

/// A table is rebuilt at twice the size before an insert would fill more
/// than half of it: successful lookups then examine 1.5 slots on average.
fn over_limit(keys: usize, slots: usize) -> bool {
    2 * keys > slots
}

/// No lookup examines more slots than this: an insert that would land
/// further from its home doubles the table instead. Linear probing's
/// longest run grows with the logarithm of the key count (at half full,
/// past 32 from about a million keys), so this is what keeps the tail of a
/// large store where the tail of a small one is; it costs the few shards
/// that hit it a doubling somewhat before they are half full.
const MAX_PROBE: u64 = 32;

/// One key's entry in the index. Entries are append-only: once a directory
/// slot names one it is never unlinked or recycled, so
/// [`init`](KeyEntry::init) only ever runs on a never-published entry.
struct KeyEntry {
    /// The key, split into atomics so a scan of the slab racing an insert
    /// is race-free.
    key_table: AtomicU64,
    key_row_hi: AtomicU64,
    key_row_lo: AtomicU64,
    /// Head of the version chain (packed arena handle, or [`NIL`]).
    /// Newest version first.
    head: AtomicU64,
    /// Chain length, maintained by the latched writer.
    versions: AtomicU64,
    /// Uncommitted versions currently on the chain, maintained by the
    /// latched writer. Lets readers skip the uncommitted-version scan
    /// entirely in the (overwhelmingly common) zero case, and lets the
    /// latched writer bound its scans by the number of uncommitted
    /// versions instead of the chain length.
    uncommitted: AtomicU64,
    /// Per-key writer latch.
    latch: AtomicBool,
}

// SAFETY: all-zero bytes are `KeyEntry::vacant()` (`NIL` is zero): plain
// atomics, nothing to drop.
unsafe impl ZeroVacant for KeyEntry {}

impl KeyEntry {
    /// An entry with no key and an empty chain: what a fresh slab segment is
    /// made of, and ([`NO_ENTRY`]) what a lookup of an absent key views.
    const fn vacant() -> KeyEntry {
        KeyEntry {
            key_table: AtomicU64::new(0),
            key_row_hi: AtomicU64::new(0),
            key_row_lo: AtomicU64::new(0),
            head: AtomicU64::new(NIL),
            versions: AtomicU64::new(0),
            uncommitted: AtomicU64::new(0),
            latch: AtomicBool::new(false),
        }
    }

    /// Names a vacant entry (the rest of it is already an empty chain).
    fn init(&self, key: &Key) {
        self.key_table.store(key.table.0 as u64, Ordering::Relaxed);
        self.key_row_hi
            .store((key.row >> 64) as u64, Ordering::Relaxed);
        self.key_row_lo.store(key.row as u64, Ordering::Relaxed);
    }

    fn key(&self) -> Key {
        let table = crate::schema::TableId(self.key_table.load(Ordering::Relaxed) as u32);
        let row = ((self.key_row_hi.load(Ordering::Relaxed) as u128) << 64)
            | self.key_row_lo.load(Ordering::Relaxed) as u128;
        Key::new(table, row)
    }

    fn key_matches(&self, key: &Key) -> bool {
        self.key_table.load(Ordering::Relaxed) == key.table.0 as u64
            && self.key_row_lo.load(Ordering::Relaxed) == key.row as u64
            && self.key_row_hi.load(Ordering::Relaxed) == (key.row >> 64) as u64
    }

    fn lock_latch(&self) -> LatchGuard<'_> {
        let mut spins = 0u32;
        while self
            .latch
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        LatchGuard(&self.latch)
    }
}

/// RAII unlock of a [`KeyEntry`] latch (also on panic inside the closure).
struct LatchGuard<'a>(&'a AtomicBool);

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Append-only slab of [`KeyEntry`]s, addressed by a plain index (no
/// generation: entries are never freed while the store is live).
struct EntryArena {
    slab: Segments<KeyEntry>,
    bump: AtomicU64,
}

impl EntryArena {
    fn new() -> Self {
        EntryArena {
            slab: Segments::new(),
            bump: AtomicU64::new(0),
        }
    }

    /// Entries handed out so far; every index below it is addressable
    /// (though an insert may still be naming the newest ones).
    fn len(&self) -> u32 {
        self.bump.load(Ordering::Acquire) as u32
    }

    fn get(&self, idx: u32) -> &KeyEntry {
        self.slab.get(idx)
    }

    /// The next vacant entry. The bump pointer passes an index only after
    /// that index is addressable, so a scan up to [`len`](EntryArena::len)
    /// never meets an unallocated segment.
    fn alloc(&self) -> (u32, &KeyEntry) {
        let mut idx = self.bump.load(Ordering::Relaxed);
        loop {
            self.slab.ensure(idx);
            match self
                .bump
                .compare_exchange_weak(idx, idx + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return (idx as u32, self.slab.get(idx as u32)),
                Err(now) => idx = now,
            }
        }
    }
}

/// One generation of a shard's directory: an open-addressed table of
/// `1 << bits` slots, linearly probed. A slot is `0` (empty — a fresh table
/// is zeroed memory) or `tag << 32 | entry index + 1`, where `tag` is the
/// upper half of the key's [`Key::mix64`]. A slot is written once, by the
/// holder of the shard's insert lock, and never changes again.
///
/// A key's home position is the *top* `bits` bits of its tag: independent
/// of the shard choice (which reads the lower half of the hash), and
/// order-preserving across a doubling — home `p` becomes `2p` or `2p + 1`,
/// so a rebuild reads the old table and writes the new one front to back.
struct Table {
    /// `32 - bits`.
    shift: u32,
    slots: Box<[AtomicU64]>,
    /// The table this one superseded (owned, see [`Shard`]), or null.
    older: *mut Table,
}

// SAFETY: `older` is an owning pointer that only `Shard::drop` follows;
// everything else is atomics.
unsafe impl Send for Table {}
unsafe impl Sync for Table {}

// The cast in `Table::new` needs the two to agree (they do wherever
// `AtomicU64` exists with the natural alignment; this rules out the rest).
const _: () = assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>());

impl Table {
    fn new(bits: u32, older: *mut Table) -> Box<Table> {
        assert!(bits <= 32, "directory outgrew its 32-bit tags");
        let zeroed = Box::into_raw(vec![0u64; 1 << bits].into_boxed_slice());
        // SAFETY: `AtomicU64` has the size and bit validity of `u64`, and
        // (asserted above) its alignment, so the allocation is reinterpreted
        // in place and later freed with the layout it was made with. Going
        // through `vec![0; n]` gets zero pages from the allocator instead
        // of writing them.
        let slots: Box<[AtomicU64]> = unsafe { Box::from_raw(zeroed as *mut [AtomicU64]) };
        // Make the first touch of each fresh page a write: a probe reads
        // before it stores, and a read of an untouched zero page maps the
        // shared zero page only to fault again on the store.
        for page in slots.chunks(4096 / std::mem::size_of::<AtomicU64>()) {
            page[0].store(0, Ordering::Relaxed);
        }
        Box::new(Table {
            shift: 32 - bits,
            slots,
            older,
        })
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn home(&self, tag: u64) -> usize {
        (tag >> self.shift) as usize
    }

    /// Slots a lookup examines before it is done with position `pos`,
    /// probing for a key tagged `tag`.
    #[inline]
    fn probes(&self, tag: u64, pos: usize) -> u64 {
        (pos.wrapping_sub(self.home(tag)) & self.mask()) as u64 + 1
    }

    /// The first empty position at or after `from`. Only for the shard's
    /// insert-lock holder (or the builder of a table not yet published);
    /// the load limit guarantees there is one.
    fn vacancy(&self, from: usize) -> usize {
        let mut pos = from;
        while self.slots[pos].load(Ordering::Relaxed) != 0 {
            pos = (pos + 1) & self.mask();
        }
        pos
    }
}

/// One hash stripe of the key space: its directory and the lock that
/// serializes changes to it.
///
/// The shard owns its tables through raw pointers — the live one in
/// `table`, each superseded one in its successor's `older` — because
/// lock-free readers hold plain `&Table`s. Superseded tables are parked
/// until `drop` (why that is enough: the module docs).
struct Shard {
    /// Readers load it `Acquire`; only the holder of `insert` stores it
    /// (`Release`, after filling the new table).
    table: AtomicPtr<Table>,
    /// Keys in this shard. The lock serializes new-key insertion and table
    /// growth only; lookups and chain access never touch it.
    insert: Mutex<usize>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            table: AtomicPtr::new(Box::into_raw(Table::new(
                INITIAL_BITS,
                std::ptr::null_mut(),
            ))),
            insert: Mutex::new(0),
        }
    }

    #[inline]
    fn table(&self) -> &Table {
        // SAFETY: `table` always holds a pointer leaked from a `Box` by
        // `Shard::new` or `MvStore::grow`, and tables are freed only in
        // `drop`, which `&self` outlives.
        unsafe { &*self.table.load(Ordering::Acquire) }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let mut table = *self.table.get_mut();
        while !table.is_null() {
            // SAFETY: each table was leaked from a `Box` exactly once and
            // is owned through this list alone; `&mut self` rules out
            // readers.
            let boxed = unsafe { Box::from_raw(table) };
            table = boxed.older;
        }
    }
}

/// A stripe runs the reclamation sweep every this many retires.
const SWEEP_EVERY: u32 = 64;

/// One retired-slot bin, reclaimable once every epoch pin has advanced two
/// epochs past `epoch`. Each handle carries the bytes its version held, as
/// sized by the retiring writer (which had the version in hand).
struct LimboBin {
    epoch: u64,
    handles: Vec<(u64, u32)>,
}

/// One stripe's limbo bag: bins in retirement-epoch order.
#[derive(Default)]
struct Limbo {
    bins: VecDeque<LimboBin>,
    since_sweep: u32,
}

/// The per-thread share of the store's mutable state (see the module
/// docs), alone on its cache lines. Counters are deltas: an install counted
/// on one stripe may be undone on another, only the sum means anything.
#[repr(align(128))]
#[derive(Default)]
struct Stripe {
    reads: AtomicU64,
    writes: AtomicU64,
    keys: AtomicI64,
    versions: AtomicI64,
    uncommitted: AtomicI64,
    bag: Mutex<Limbo>,
    /// Slots and bytes parked in `bag`; written under its lock, summed
    /// without it.
    limbo_nodes: AtomicU64,
    limbo_bytes: AtomicU64,
}

/// Bytes a version holds, as reported by [`MvStore::limbo_stats`].
fn version_bytes(v: &Version) -> u32 {
    (std::mem::size_of::<Version>() + v.value.approx_size()) as u32
}

/// What a lookup of a key that was never written views: an empty chain.
static NO_ENTRY: KeyEntry = KeyEntry::vacant();

/// One linked version of a chain: its arena handle, the version, and the
/// handle of the next older one.
struct Node<'a> {
    handle: u64,
    version: &'a Version,
    next: u64,
}

/// The newest-first walk over a chain's arena nodes — every traversal of a
/// chain, reading or splicing, is this iterator.
struct Nodes<'a> {
    arena: &'a VersionArena,
    cur: u64,
}

impl<'a> Iterator for Nodes<'a> {
    type Item = Node<'a>;

    fn next(&mut self) -> Option<Node<'a>> {
        if self.cur == NIL {
            return None;
        }
        let (version, next) = self.arena.read(self.cur)?;
        #[cfg(test)]
        tests::NODES_VISITED.with(|n| n.set(n.get() + 1));
        let node = Node {
            handle: self.cur,
            version,
            next,
        };
        self.cur = next;
        Some(node)
    }
}

/// Read view of one key's version chain (possibly empty), newest version
/// first — the one way concurrency-control mechanisms look at a key's
/// history, whether they got it lock-free from [`MvStore::with_chain`] or
/// under the key's write latch from [`MvStore::with_chain_mut`].
///
/// The chain head is re-loaded (`Acquire`) on every traversal rather than
/// captured once: mechanisms interleave their own bookkeeping (reader
/// registration, timestamp recording) with chain walks, and their
/// correctness arguments need walks to observe every version installed
/// before the walk started — a cached head would silently pin an older
/// snapshot.
///
/// The store maintains the **position-order invariant**: walking
/// newest-first, committed versions appear in descending commit-timestamp
/// order and `order_ts`-carrying versions in descending `order_ts` order
/// (installs splice at the ordering position; commits keep the install
/// position, and the mechanisms' dependency waits make per-key commit order
/// follow it). The timestamp queries below exploit the invariant to stop a
/// walk at the first decisive version instead of scanning the whole chain —
/// on a hot key between GC cycles that is the difference between O(1) and
/// O(thousands) per access.
pub struct Chain<'a> {
    arena: &'a VersionArena,
    entry: &'a KeyEntry,
    /// Whether the viewer holds the key's write latch, which makes the
    /// entry's uncommitted count exact instead of a racing hint.
    latched: bool,
}

// No caller asks whether a chain is empty; `len` exists for statistics.
#[allow(clippy::len_without_is_empty)]
impl<'a> Chain<'a> {
    /// Handle of the newest version ([`NIL`]: none), loaded afresh.
    fn head(&self) -> u64 {
        self.entry.head.load(Ordering::Acquire)
    }

    fn nodes(&self) -> Nodes<'a> {
        Nodes {
            arena: self.arena,
            cur: self.head(),
        }
    }

    /// The versions, newest first.
    pub fn iter(&self) -> impl Iterator<Item = &'a Version> + 'a {
        self.nodes().map(|node| node.version)
    }

    /// Number of versions (committed and uncommitted).
    pub fn len(&self) -> usize {
        self.entry.versions.load(Ordering::Relaxed) as usize
    }

    /// The most recently committed version (by chain position).
    pub fn latest_committed(&self) -> Option<&'a Version> {
        self.iter().find(|v| v.is_committed())
    }

    /// The latest committed version whose commit timestamp is strictly
    /// smaller than `ts` (snapshot-isolation visibility rule). Committed
    /// versions run newest-first in descending commit-timestamp order, so
    /// the first one below `ts` is the visible one (for equal timestamps,
    /// the newest by position).
    pub fn committed_before(&self, ts: Timestamp) -> Option<&'a Version> {
        self.iter()
            .find(|v| matches!(v.commit_ts(), Some(c) if c < ts))
    }

    /// The latest committed version whose commit timestamp is `<= ts`
    /// (visibility rule for snapshot timestamps that *are* commit
    /// timestamps of applied commits). Same early exit as
    /// [`committed_before`](Chain::committed_before).
    pub fn committed_at_or_before(&self, ts: Timestamp) -> Option<&'a Version> {
        self.iter()
            .find(|v| matches!(v.commit_ts(), Some(c) if c <= ts))
    }

    /// The newest committed version, if it committed with a timestamp
    /// `> ts` (first-committer-wins check of snapshot isolation; its writer
    /// is the one a later writer loses to). The first committed version of
    /// the walk carries the chain's largest commit timestamp, so it alone
    /// decides.
    pub fn committed_after(&self, ts: Timestamp) -> Option<&'a Version> {
        self.latest_committed()
            .filter(|v| v.commit_ts().is_some_and(|c| c > ts))
    }

    /// The newest version that sorts after `ts` ([`Version::sort_ts`]) and
    /// that `in_group` rejects: a version from outside a timestamp-ordering
    /// writer's group that the writer, at `ts`, may not be installed
    /// beneath. The timestamp is tested before the group.
    ///
    /// The walk stops at the first decisive version. An ordering timestamp
    /// is drawn before its commit's (see `Version::mark_committed`), so a
    /// committed version sorts at or below its commit timestamp, and
    /// committed versions descend by commit timestamp: past the first
    /// commit at or below `ts`, no committed version sorts after it. An
    /// uncommitted one still may, so the walk goes on until it has passed
    /// every writer in flight. As in `probe_uncommitted` that count is
    /// exact under the latch; a lock-free view walks to the end whenever a
    /// writer is in flight.
    pub fn ordered_after(
        &self,
        ts: Timestamp,
        mut in_group: impl FnMut(&Version) -> bool,
    ) -> Option<&'a Version> {
        let mut in_flight = self.entry.uncommitted.load(Ordering::Relaxed);
        let mut past_commits = false;
        for v in self.iter() {
            if v.sort_ts().is_some_and(|s| s > ts) && !in_group(v) {
                return Some(v);
            }
            match v.commit_ts() {
                Some(c) => past_commits |= c <= ts,
                None if self.latched => in_flight -= 1,
                None => {}
            }
            if past_commits && in_flight == 0 {
                return None;
            }
        }
        None
    }

    /// The newest uncommitted version `want` accepts, with the handle of
    /// the node before it ([`NIL`] at the head) — the one probe behind every
    /// question about in-flight writers.
    ///
    /// A zero uncommitted count skips the walk outright. That is sound even
    /// lock-free: a caller asking for its own version installed it earlier
    /// on the same thread, so the load includes it. Beyond zero the count
    /// bounds the walk only under the latch, which makes it exact: once
    /// every uncommitted version has been seen the target cannot be deeper,
    /// so a long committed tail is never scanned. A lock-free viewer cannot
    /// trust a racing count and, **when nothing matches, walks to the end
    /// of the chain** whenever any writer is in flight on the key — callers
    /// that know their write set (the engine's `get`) ask only for keys in
    /// it.
    fn probe_uncommitted(&self, mut want: impl FnMut(&Version) -> bool) -> Option<(u64, Node<'a>)> {
        let mut remaining = self.entry.uncommitted.load(Ordering::Relaxed);
        if remaining == 0 {
            return None;
        }
        let mut prev = NIL;
        for node in self.nodes() {
            if !node.version.is_committed() {
                if want(node.version) {
                    return Some((prev, node));
                }
                if self.latched {
                    remaining -= 1;
                    if remaining == 0 {
                        return None;
                    }
                }
            }
            prev = node.handle;
        }
        None
    }

    /// The newest uncommitted version `want` accepts (see
    /// [`uncommitted_by`](Chain::uncommitted_by) for what the walk costs).
    pub fn find_uncommitted(&self, want: impl FnMut(&Version) -> bool) -> Option<&'a Version> {
        self.probe_uncommitted(want).map(|(_, node)| node.version)
    }

    /// The uncommitted version written by `writer`, if any (chains hold at
    /// most one uncommitted version per writer). Free when no writer is in
    /// flight on the key, bounded by the number of in-flight writers under
    /// the latch; a lock-free miss walks the whole chain.
    pub fn uncommitted_by(&self, writer: TxnId) -> Option<&'a Version> {
        self.find_uncommitted(|v| v.writer == writer)
    }

    /// True if some transaction other than `txn` has an uncommitted
    /// version on this key.
    pub fn has_other_uncommitted(&self, txn: TxnId) -> bool {
        self.find_uncommitted(|v| v.writer != txn).is_some()
    }
}

/// Exclusive (per-key latched) view of one key's version chain: everything
/// [`Chain`] answers (it derefs to one, with exact uncommitted probes) plus
/// the mutation primitives — splices for install, overwrite and abort, an
/// in-place flip of the commit word for commit — so lock-free readers stay
/// safe mid-mutation.
pub struct ChainWrite<'a> {
    chain: Chain<'a>,
    store: &'a MvStore,
    /// The latching thread's stripe.
    stripe: usize,
}

impl<'a> std::ops::Deref for ChainWrite<'a> {
    type Target = Chain<'a>;

    fn deref(&self) -> &Chain<'a> {
        &self.chain
    }
}

impl<'a> ChainWrite<'a> {
    /// The caller holds `entry`'s latch.
    fn latched(store: &'a MvStore, entry: &'a KeyEntry, stripe: usize) -> Self {
        ChainWrite {
            chain: Chain {
                arena: &store.arena,
                entry,
                latched: true,
            },
            store,
            stripe,
        }
    }

    fn stats(&self) -> &'a Stripe {
        &self.store.stripes[self.stripe]
    }

    /// Points the link after `prev` — the chain head when `prev` is
    /// [`NIL`] — at `to`.
    fn set_link(&self, prev: u64, to: u64) {
        if prev == NIL {
            self.chain.entry.head.store(to, Ordering::Release);
        } else {
            self.store.arena.set_next(prev, to);
        }
    }

    /// Links `version` in between `prev` ([`NIL`]: at the head) and `next`.
    /// The new node is fully formed before the link that publishes it.
    fn link(&mut self, prev: u64, version: Version, next: u64) {
        let new_h = self.store.arena.alloc(self.stripe, version);
        self.store.arena.set_next(new_h, next);
        self.set_link(prev, new_h);
    }

    /// Unlinks `node` and retires it (does not touch the uncommitted
    /// counter; callers know the node's state).
    fn unlink(&mut self, prev: u64, node: &Node<'_>) {
        self.set_link(prev, node.next);
        self.store
            .retire(self.stripe, node.handle, version_bytes(node.version));
        self.chain.entry.versions.fetch_sub(1, Ordering::Relaxed);
        self.stats().versions.fetch_sub(1, Ordering::Relaxed);
    }

    fn count_installed(&self) {
        let len = self.chain.entry.versions.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats().versions.fetch_add(1, Ordering::Relaxed);
        self.store.m_chain_len.observe(len);
    }

    /// `delta` is +1 or -1 (as `u64` the latter wraps the add into a
    /// subtraction).
    fn count_uncommitted(&self, delta: i64) {
        self.stats().uncommitted.fetch_add(delta, Ordering::Relaxed);
        self.chain
            .entry
            .uncommitted
            .fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Installs a new uncommitted version and returns `true` when it is the
    /// writer's first on this key. If the writer already has an uncommitted
    /// version here, a replacement carrying the new value is spliced into
    /// its chain position (last write of a transaction wins; the payload of
    /// a linked version never changes, so the old slot is retired) and the
    /// call returns `false`. Otherwise the version is inserted at its
    /// ordering position.
    pub fn install(&mut self, version: Version) -> bool {
        let writer = version.writer;
        if let Some((prev, old)) = self.chain.probe_uncommitted(|v| v.writer == writer) {
            let replacement = Version::uncommitted(
                old.version.group,
                writer,
                version.value,
                version.order_ts.or(old.version.order_ts),
            );
            self.link(prev, replacement, old.next);
            self.store
                .retire(self.stripe, old.handle, version_bytes(old.version));
            return false;
        }
        self.count_uncommitted(1);
        // A version without an `order_ts` goes to the head (it is ordered
        // by its commit later). One with an `order_ts` keeps those sorted
        // among themselves: it goes right after the deepest node carrying a
        // larger one. They run descending, so the walk stops at the first
        // one at or below `ts`.
        let (mut prev, mut next) = (NIL, self.chain.head());
        if let Some(ts) = version.order_ts {
            for node in self.chain.nodes() {
                match node.version.order_ts {
                    Some(other) if other > ts => (prev, next) = (node.handle, node.next),
                    Some(_) => break,
                    None => {}
                }
            }
        }
        self.link(prev, version, next);
        self.count_installed();
        true
    }

    /// Installs an already-committed version at the head of the chain
    /// (bootstrap loads and recovery).
    pub fn install_committed(&mut self, version: Version) {
        debug_assert!(version.is_committed());
        self.link(NIL, version, self.chain.head());
        self.count_installed();
    }

    /// Marks the version written by `writer` as committed with `commit_ts`.
    /// Returns `true` if a version was found.
    ///
    /// The version is committed where it stands: position order is the
    /// order in which the concurrency-control tree serialized the installs,
    /// and the mechanisms' dependency waits make per-key commit order
    /// follow it. Moving the version (e.g. to the head) would jump over
    /// uncommitted versions installed after it, hiding a later write from
    /// position-based readers — the lost-update bug this comment guards
    /// against.
    pub fn commit(&mut self, writer: TxnId, commit_ts: Timestamp) -> bool {
        self.commit_stamped(writer, commit_ts, 0)
    }

    /// [`commit`](ChainWrite::commit) carrying the cluster-wide HLC stamp
    /// of the commit (see [`Version::hlc`]).
    ///
    /// In place: the stamp, then the commit word (see
    /// [`Version`]) — no slot is allocated, copied or retired.
    pub fn commit_stamped(&mut self, writer: TxnId, commit_ts: Timestamp, hlc: u64) -> bool {
        let Some(version) = self.chain.uncommitted_by(writer) else {
            return false;
        };
        version.mark_committed(commit_ts, hlc);
        self.count_uncommitted(-1);
        true
    }

    /// Removes the uncommitted version installed by `writer`, if any.
    /// Returns `true` if a version was removed.
    pub fn abort(&mut self, writer: TxnId) -> bool {
        let Some((prev, node)) = self.chain.probe_uncommitted(|v| v.writer == writer) else {
            return false;
        };
        self.unlink(prev, &node);
        self.count_uncommitted(-1);
        true
    }

    /// Drops the committed versions no read at or after `horizon` can
    /// return: every one older than the newest committed strictly below
    /// `horizon`. That one stays — a reader whose snapshot is the horizon
    /// sees it — and so does everything newer and everything in flight.
    /// Returns the number of versions removed.
    pub fn prune(&mut self, horizon: Timestamp) -> usize {
        // Committed versions run newest-first in descending commit order
        // (position-order invariant): the first one below the horizon is the
        // floor, and every committed one after it is stale.
        let mut floor_seen = false;
        let mut stale = |v: &Version| {
            let below = v.commit_ts().is_some_and(|ts| ts < horizon);
            let past_floor = below && floor_seen;
            floor_seen |= below;
            past_floor
        };
        let mut removed = 0;
        let mut prev = NIL;
        // A node's successor is read before the node is unlinked, so the
        // walk carries on over the splice.
        for node in self.chain.nodes() {
            if stale(node.version) {
                self.unlink(prev, &node);
                removed += 1;
            } else {
                prev = node.handle;
            }
        }
        removed
    }
}

/// What the directory of a store looks like right now (see
/// [`MvStore::index_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Directory slots over all shards (live tables only).
    pub slots: u64,
    /// Keys indexed (`stats().keys`).
    pub keys: u64,
    /// Table doublings so far, over all shards.
    pub grows: u64,
    /// Most slots any lookup has to examine to find a key, as observed when
    /// keys were placed.
    pub probe_max: u64,
    /// Longest single table rebuild, in microseconds: how long new-key
    /// inserts of one shard have ever stalled.
    pub grow_us_max: u64,
}

/// The multiversion key-value store.
pub struct MvStore {
    shards: Vec<Shard>,
    entries: EntryArena,
    arena: VersionArena,
    /// Per-thread statistics and limbo bags, indexed by [`ebr::stripe`].
    stripes: Box<[Stripe]>,
    // Metrics (standalone by default; `attach_metrics` rebinds them to a
    // registry so they surface in snapshots/Prometheus).
    m_retired: Arc<Counter>,
    m_limbo_bytes: Arc<MaxGauge>,
    m_epoch_lag: Arc<MaxGauge>,
    m_chain_len: Arc<MaxGauge>,
    m_index_slots: Arc<MaxGauge>,
    m_index_keys: Arc<MaxGauge>,
    m_index_grows: Arc<Counter>,
    m_index_probe_max: Arc<MaxGauge>,
    m_index_grow_us: Arc<MaxGauge>,
}

impl std::fmt::Debug for MvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvStore")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl MvStore {
    /// Creates a store with `shards` hash stripes of the key space. A
    /// stripe is the unit of new-key insertion (one lock) and of directory
    /// growth (one table); lookups and chain access are lock-free whatever
    /// the count.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        MvStore {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            entries: EntryArena::new(),
            arena: VersionArena::new(),
            stripes: (0..ebr::STRIPES).map(|_| Stripe::default()).collect(),
            m_retired: Arc::new(Counter::new()),
            m_limbo_bytes: Arc::new(MaxGauge::new()),
            m_epoch_lag: Arc::new(MaxGauge::new()),
            m_chain_len: Arc::new(MaxGauge::new()),
            m_index_slots: Arc::new(MaxGauge::new()),
            m_index_keys: Arc::new(MaxGauge::new()),
            m_index_grows: Arc::new(Counter::new()),
            m_index_probe_max: Arc::new(MaxGauge::new()),
            m_index_grow_us: Arc::new(MaxGauge::new()),
        }
    }

    /// Rebinds the store's instruments to `registry` so they show up in
    /// metric snapshots: the GC/arena ones (`gc.versions_retired`,
    /// `gc.limbo_bytes`, `gc.epoch_lag`, `store.chain_len`) and the
    /// directory's (`store.index.slots`, `store.index.keys`,
    /// `store.index.grows`, `store.index.probe_max`,
    /// `store.index.grow_us_max`; see [`IndexStats`]). The two size gauges
    /// are refreshed when a table grows and by every [`MvStore::reclaim`]
    /// (so at least once per GC cycle), not per insert.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.m_retired = registry.counter("gc.versions_retired");
        self.m_limbo_bytes = registry.max_gauge("gc.limbo_bytes");
        self.m_epoch_lag = registry.max_gauge("gc.epoch_lag");
        self.m_chain_len = registry.max_gauge("store.chain_len");
        self.m_index_slots = registry.max_gauge("store.index.slots");
        self.m_index_keys = registry.max_gauge("store.index.keys");
        self.m_index_grows = registry.counter("store.index.grows");
        self.m_index_probe_max = registry.max_gauge("store.index.probe_max");
        self.m_index_grow_us = registry.max_gauge("store.index.grow_us_max");
        self.observe_index();
    }

    /// Size, occupancy and growth history of the directory.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            slots: self.index_slots(),
            keys: self.stats().keys as u64,
            grows: self.m_index_grows.get(),
            probe_max: self.m_index_probe_max.get(),
            grow_us_max: self.m_index_grow_us.get(),
        }
    }

    fn index_slots(&self) -> u64 {
        let live = |shard: &Shard| shard.table().slots.len() as u64;
        self.shards.iter().map(live).sum()
    }

    /// Brings the two size gauges up to date (both only ever rise).
    fn observe_index(&self) {
        self.m_index_slots.observe(self.index_slots());
        self.m_index_keys.observe(self.stats().keys as u64);
    }

    /// The shard of a key whose [`Key::mix64`] is `h`: the lower half of
    /// the hash scaled onto the shard count (no division). The upper half
    /// is the key's directory tag, so keys of one shard still differ in
    /// every position bit.
    #[inline]
    fn shard_of(&self, h: u64) -> &Shard {
        &self.shards[(((h & 0xFFFF_FFFF) * self.shards.len() as u64) >> 32) as usize]
    }

    /// Probes `table` for `key`, tagged `tag`, from its home. `Err` carries
    /// the empty position that ended the probe. No lock, no write.
    #[inline]
    fn probe<'a>(&'a self, table: &Table, key: &Key, tag: u64) -> Result<&'a KeyEntry, usize> {
        let mask = table.mask();
        let mut pos = table.home(tag);
        loop {
            // `Acquire` pairs with the `Release` store of the insert that
            // wrote the slot after initializing the entry it names.
            let slot = table.slots[pos].load(Ordering::Acquire);
            if slot == 0 {
                return Err(pos);
            }
            if slot >> 32 == tag {
                let entry = self.entries.get(slot as u32 - 1);
                if entry.key_matches(key) {
                    return Ok(entry);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Lock-free index lookup (no shard lock, no latch) of a key whose
    /// [`Key::mix64`] is `h` — computed once per access and passed down.
    #[inline]
    fn lookup(&self, key: &Key, h: u64) -> Option<&KeyEntry> {
        let table = self.shard_of(h).table();
        self.probe(table, key, h >> 32).ok()
    }

    fn lookup_or_insert(&self, key: &Key, stripe: usize) -> &KeyEntry {
        let h = key.mix64();
        let tag = h >> 32;
        if let Some(entry) = self.lookup(key, h) {
            return entry;
        }
        let shard = self.shard_of(h);
        let mut keys = shard.insert.lock();
        // Probe again under the lock (another first write may have raced us,
        // or grown the table); the miss leaves us at the key's position.
        let mut table = shard.table();
        let mut pos = match self.probe(table, key, tag) {
            Ok(entry) => return entry,
            Err(vacant) => vacant,
        };
        while over_limit(*keys + 1, table.slots.len()) || table.probes(tag, pos) > MAX_PROBE {
            table = self.grow(shard, table);
            pos = table.vacancy(table.home(tag));
        }
        let (idx, entry) = self.entries.alloc();
        entry.init(key);
        // Publish: the entry is initialized before the `Release` store of
        // the slot that names it. The insert lock makes this thread the
        // only writer of the table.
        table.slots[pos].store(tag << 32 | (idx as u64 + 1), Ordering::Release);
        *keys += 1;
        self.m_index_probe_max.observe(table.probes(tag, pos));
        self.stripes[stripe].keys.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Replaces `old`, the live table of `shard`, with one twice its size
    /// holding the same slots (four times, and so on, in the event that a
    /// rebuilt table still holds a probe past [`MAX_PROBE`]); the caller
    /// holds the shard's insert lock. The new table is filled first and
    /// published with one `Release` store, so a reader sees either table
    /// complete. Stalls new-key inserts of this one shard for the duration;
    /// readers and writers of existing keys never wait.
    fn grow<'a>(&'a self, shard: &'a Shard, old: &Table) -> &'a Table {
        let started = std::time::Instant::now();
        let mut bits = 32 - old.shift;
        let (new, probe_max) = loop {
            bits += 1;
            let new = Table::new(bits, old as *const Table as *mut Table);
            let probe_max = old
                .slots
                .iter()
                // Written by earlier holders of the lock this thread holds.
                .map(|slot| slot.load(Ordering::Relaxed))
                .filter(|&slot| slot != 0)
                .map(|slot| {
                    let pos = new.vacancy(new.home(slot >> 32));
                    new.slots[pos].store(slot, Ordering::Relaxed);
                    new.probes(slot >> 32, pos)
                })
                .max()
                .unwrap_or(0);
            if probe_max <= MAX_PROBE {
                break (new, probe_max);
            }
        };
        shard.table.store(Box::into_raw(new), Ordering::Release);
        self.m_index_probe_max.observe(probe_max);
        self.m_index_grows.inc();
        self.m_index_grow_us
            .observe(started.elapsed().as_micros() as u64);
        self.observe_index();
        shard.table()
    }

    /// The lock-free view of `entry`'s chain; the caller holds an epoch pin.
    fn chain_of<'a>(&'a self, entry: &'a KeyEntry) -> Chain<'a> {
        Chain {
            arena: &self.arena,
            entry,
            latched: false,
        }
    }

    /// Runs `f` with a lock-free shared view of the version chain of `key`
    /// (an empty chain is provided if the key has never been written). The
    /// call pins the reclamation epoch for its duration; no shard or chain
    /// lock is taken.
    pub fn with_chain<R>(&self, key: &Key, f: impl FnOnce(&Chain<'_>) -> R) -> R {
        let _pin = ebr::pin();
        self.stripes[ebr::stripe()]
            .reads
            .fetch_add(1, Ordering::Relaxed);
        f(&self.chain_of(self.lookup(key, key.mix64()).unwrap_or(&NO_ENTRY)))
    }

    /// Runs `f` with exclusive access to the version chain of `key` (via
    /// the key's write latch), creating the chain if needed. Other keys —
    /// including keys of the same shard — stay fully accessible.
    pub fn with_chain_mut<R>(&self, key: &Key, f: impl FnOnce(&mut ChainWrite<'_>) -> R) -> R {
        let _pin = ebr::pin();
        let stripe = ebr::stripe();
        self.stripes[stripe].writes.fetch_add(1, Ordering::Relaxed);
        let entry = self.lookup_or_insert(key, stripe);
        let _latch = entry.lock_latch();
        f(&mut ChainWrite::latched(self, entry, stripe))
    }

    /// Installs an uncommitted version for `txn` on `key`, outside the CC
    /// tree ([`GroupId::NONE`]).
    pub fn write(&self, key: &Key, txn: TxnId, value: Value) -> WriteOutcome {
        self.with_chain_mut(key, |chain| {
            let outcome = WriteOutcome {
                other_uncommitted: chain.has_other_uncommitted(txn),
                latest_committed_ts: chain.latest_committed().and_then(|v| v.commit_ts()),
            };
            chain.install(Version::uncommitted(GroupId::NONE, txn, value, None));
            outcome
        })
    }

    /// Convenience read used by loaders, recovery and tests.
    pub fn read(&self, key: &Key, spec: ReadSpec) -> Option<Value> {
        self.with_chain(key, |chain| {
            let v = match spec {
                ReadSpec::LatestCommitted => chain.latest_committed(),
                ReadSpec::SnapshotBefore(ts) => chain.committed_before(ts),
                ReadSpec::OwnOrCommitted(txn) => chain
                    .uncommitted_by(txn)
                    .or_else(|| chain.latest_committed()),
            };
            v.map(|v| v.value.clone())
        })
    }

    /// [`MvStore::read`] with delete-tombstone filtering: a visible
    /// [`Value::Null`] version means the key was deleted, so presence
    /// checks must treat it as absent. Use this instead of re-implementing
    /// the `is_null` filter at every call site.
    pub fn read_visible(&self, key: &Key, spec: ReadSpec) -> Option<Value> {
        self.read(key, spec).filter(|v| !v.is_null())
    }

    /// Marks `txn`'s uncommitted versions on `keys` as committed with
    /// `commit_ts` (no HLC stamp — standalone-engine and test callers).
    pub fn commit_writes(&self, txn: TxnId, keys: &[Key], commit_ts: Timestamp) {
        self.commit_writes_stamped(txn, keys, commit_ts, 0);
    }

    /// [`commit_writes`](MvStore::commit_writes) carrying the cluster-wide
    /// HLC stamp of the commit.
    pub fn commit_writes_stamped(&self, txn: TxnId, keys: &[Key], commit_ts: Timestamp, hlc: u64) {
        for key in keys {
            self.with_chain_mut(key, |chain| {
                chain.commit_stamped(txn, commit_ts, hlc);
            });
        }
    }

    /// Reads `keys` at the global HLC snapshot `h` and appends one answer
    /// per key to `out`, in input order: the newest committed version with
    /// stamp `<= h` (unstamped versions count as ancient and are always
    /// visible). Lock-free — the walk takes no latch and pins only the
    /// reclamation epoch. One pass over the keys ([`MvStore::read_many`]),
    /// so a multi-key read overlaps its cache misses.
    ///
    /// Answers [`SnapshotRead::Blocked`] when an uncommitted version sits
    /// at a chain position newer than the visible candidate: its writer may
    /// still commit with a 2PC decision stamp `<= h` (the caller observed
    /// `h` into the shard clock first, so only *already-voted* writers can
    /// do that — they resolve as soon as their decision arrives). Callers
    /// wait out the writer and read the key again rather than taking a
    /// lock.
    ///
    /// Within one chain the first committed version with stamp `<= h` is
    /// the right answer: per-key commit order follows chain position (the
    /// position-order invariant) and HLC stamps are monotone along it —
    /// a ww-predecessor commits before its successor's vote leaves the
    /// shard, and the decision stamp is drawn after observing that vote.
    pub fn read_snapshot_hlc(&self, keys: &[Key], h: u64, out: &mut Vec<SnapshotRead>) {
        self.read_many(keys, out, |chain| {
            for v in chain.iter() {
                if !v.is_committed() {
                    return SnapshotRead::Blocked(v.writer);
                }
                if v.hlc() <= h {
                    return SnapshotRead::Value((!v.value.is_null()).then(|| v.value.clone()));
                }
            }
            SnapshotRead::Value(None)
        })
    }

    /// Runs `pick` on the chain of each of `keys` and appends its answers
    /// to `out`, in input order — what [`MvStore::with_chain`] does for one
    /// key, for many at once. The keys go through the staged walk (module
    /// docs, "Batched reads"), and `pick` runs as each group's last stage.
    /// One epoch pin covers the call; the stripe's `reads` counter rises by
    /// one per key.
    pub fn read_many<T>(
        &self,
        keys: &[Key],
        out: &mut Vec<T>,
        mut pick: impl FnMut(&Chain<'_>) -> T,
    ) {
        let _pin = ebr::pin();
        self.stripes[ebr::stripe()]
            .reads
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        out.reserve(keys.len());
        self.walk(keys.iter().copied(), |entry| {
            out.push(pick(&self.chain_of(entry.unwrap_or(&NO_ENTRY))))
        });
    }

    /// Starts loading what a lookup of each of `keys` will touch — its
    /// directory slot, its key entry, its head version — so a later
    /// [`MvStore::with_chain`] or [`MvStore::with_chain_mut`] of the key
    /// finds those lines cached. The staged walk of
    /// [`MvStore::read_many`] without its pick: a hint, never an access. It
    /// reads no version, counts no read, inserts no absent key, allocates
    /// nothing and takes no lock. It takes no epoch pin either: it loads
    /// only directory slots, key entries and head handles, none of which is
    /// freed while the store lives, and the head version it only
    /// prefetches — a stale handle wastes that load and nothing else.
    pub fn prefetch(&self, keys: impl IntoIterator<Item = Key>) {
        self.walk(keys, |_| ());
    }

    /// The staged walk every batched lookup shares: the keys go through in
    /// groups of `READ_GROUP` (16), and each group in stages; at each stage
    /// every key of the group starts its load before any of them is used,
    /// so the group's misses overlap instead of queueing. `found` gets each
    /// key's entry (`None`: never written), in input order, as the group's
    /// last stage.
    fn walk<'s>(
        &'s self,
        keys: impl IntoIterator<Item = Key>,
        mut found: impl FnMut(Option<&'s KeyEntry>),
    ) {
        let mut keys = keys.into_iter();
        // Per key of the group: the key, its hash, the table stage 1 chose
        // to probe (each slot is set in stage 1 before it is read), and its
        // entry.
        let mut group = [Key::new(TableId(0), 0); READ_GROUP];
        let mut hashes = [0u64; READ_GROUP];
        let mut tables = [self.shards[0].table(); READ_GROUP];
        let mut entries: [Option<&KeyEntry>; READ_GROUP] = [None; READ_GROUP];
        loop {
            let mut len = 0;
            for (slot, key) in group.iter_mut().zip(keys.by_ref()) {
                *slot = key;
                len += 1;
            }
            if len == 0 {
                return;
            }
            // 1. Hash each key; start loading its home directory slot.
            for (i, key) in group[..len].iter().enumerate() {
                let h = key.mix64();
                let table = self.shard_of(h).table();
                prefetch(&table.slots[table.home(h >> 32)]);
                hashes[i] = h;
                tables[i] = table;
            }
            // 2. Read the home slot; start loading the entry it names when
            //    its tag is the key's (else the probe walks on in stage 3).
            //    A hint only: stage 3 loads the slot again, `Acquire`.
            for i in 0..len {
                let (tag, table) = (hashes[i] >> 32, tables[i]);
                let slot = table.slots[table.home(tag)].load(Ordering::Relaxed);
                if slot != 0 && slot >> 32 == tag {
                    prefetch(self.entries.get(slot as u32 - 1));
                }
            }
            // 3. Finish each lookup; start loading the chain's head slot.
            for (i, key) in group[..len].iter().enumerate() {
                let entry = self.probe(tables[i], key, hashes[i] >> 32).ok();
                if let Some(entry) = entry {
                    self.arena.prefetch(entry.head.load(Ordering::Relaxed));
                }
                entries[i] = entry;
            }
            // 4. Hand each key's entry on.
            for &entry in &entries[..len] {
                found(entry);
            }
            if len < READ_GROUP {
                return;
            }
        }
    }

    /// Removes `txn`'s uncommitted versions on `keys`.
    pub fn abort_writes(&self, txn: TxnId, keys: &[Key]) {
        for key in keys {
            self.with_chain_mut(key, |chain| {
                chain.abort(txn);
            });
        }
    }

    /// Installs an already-committed version, bypassing the uncommitted
    /// state. Used by the initial loader and by recovery.
    pub fn load(&self, key: &Key, value: Value) {
        self.with_chain_mut(key, |chain| {
            chain.install_committed(Version::committed(TxnId::BOOTSTRAP, value, Timestamp::ZERO));
        });
    }

    /// Prunes every chain at `horizon` (see [`ChainWrite::prune`]): a read
    /// at any timestamp at or above it returns the same version before and
    /// after, and each key keeps its latest committed version. Returns
    /// the number of versions removed (retired to the epoch limbo lists —
    /// the memory is reclaimed once every pin has moved on). Unlike the old
    /// locked-map store this takes no shard-wide lock: each key is latched
    /// individually, so readers and writers keep running throughout.
    pub fn prune_before(&self, horizon: Timestamp) -> usize {
        let _pin = ebr::pin();
        let stripe = ebr::stripe();
        let mut removed = 0;
        let n = self.entries.len();
        for idx in 0..n {
            let entry = self.entries.get(idx);
            // A chain of one has nothing to prune (its only version is
            // uncommitted or the latest committed), and most keys of an
            // insert-heavy workload are never written twice: skipping them
            // here leaves the scan a sequential read of the slab instead of
            // a latch and a chain walk per key.
            if entry.versions.load(Ordering::Relaxed) < 2 {
                continue;
            }
            let _latch = entry.lock_latch();
            removed += ChainWrite::latched(self, entry, stripe).prune(horizon);
        }
        removed
    }

    /// Visits every key currently present in the store.
    pub fn for_each_key(&self, mut f: impl FnMut(&Key, &Chain<'_>)) {
        let _pin = ebr::pin();
        let n = self.entries.len();
        for idx in 0..n {
            let entry = self.entries.get(idx);
            f(&entry.key(), &self.chain_of(entry));
        }
    }

    /// Aggregate statistics: the sum of the per-stripe deltas the mutation
    /// paths maintain (no scan). Exact whenever no mutation is in flight.
    pub fn stats(&self) -> StoreStats {
        let sum = |f: fn(&Stripe) -> &AtomicI64| -> usize {
            let net: i64 = self
                .stripes
                .iter()
                .map(|s| f(s).load(Ordering::Relaxed))
                .sum();
            net.max(0) as usize
        };
        StoreStats {
            keys: sum(|s| &s.keys),
            versions: sum(|s| &s.versions),
            uncommitted: sum(|s| &s.uncommitted),
        }
    }

    /// Recomputes [`MvStore::stats`] by full scan. Exists so GC tests can
    /// assert the O(1) counters never drift from the truth.
    pub fn stats_scanned(&self) -> StoreStats {
        let mut s = StoreStats::default();
        self.for_each_key(|_, chain| {
            s.keys += 1;
            s.versions += chain.len();
            s.uncommitted += chain.iter().filter(|v| !v.is_committed()).count();
        });
        s
    }

    /// Number of chain accesses performed so far (reads, writes). Exposed
    /// for the overhead experiments of §4.6.5.
    pub fn access_counts(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(r, w), s| {
            (
                r + s.reads.load(Ordering::Relaxed),
                w + s.writes.load(Ordering::Relaxed),
            )
        })
    }

    /// Retires a version slot holding `bytes` to the current epoch's bin of
    /// `stripe`'s limbo bag.
    fn retire(&self, stripe: usize, handle: u64, bytes: u32) {
        let epoch = ebr::domain().epoch();
        let mine = &self.stripes[stripe];
        let sweep = {
            let mut limbo = mine.bag.lock();
            match limbo.bins.back_mut() {
                // `>=` keeps bins sorted even when a racing retire read a
                // stale (older) epoch after a newer bin was opened.
                Some(back) if back.epoch >= epoch => back.handles.push((handle, bytes)),
                _ => limbo.bins.push_back(LimboBin {
                    epoch,
                    handles: vec![(handle, bytes)],
                }),
            }
            mine.limbo_nodes.fetch_add(1, Ordering::Relaxed);
            mine.limbo_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            limbo.since_sweep = limbo.since_sweep.wrapping_add(1);
            limbo.since_sweep.is_multiple_of(SWEEP_EVERY)
        };
        self.m_retired.inc();
        // Amortized housekeeping: every few dozen retirements of a stripe,
        // advance the epoch and free whatever has ripened anywhere.
        if sweep {
            self.reclaim();
        }
    }

    /// Tries to advance the reclamation epoch and frees — into the calling
    /// thread's arena cache — every limbo bin, of any stripe, that is two
    /// epochs behind both the global epoch and every pinned thread. Sweeping
    /// all stripes (empty ones cost one load) keeps the garbage of a thread
    /// that retires in bursts, like the GC cycle's prune, from waiting for
    /// that thread's next burst. Called by every stripe's periodic
    /// housekeeping and by the GC cycle; safe to call at any time. Returns
    /// the number of version slots freed.
    pub fn reclaim(&self) -> usize {
        let domain = ebr::domain();
        domain.try_advance();
        let into = ebr::stripe();
        let global = domain.epoch();
        let min_pin = domain.min_pin();
        self.m_limbo_bytes.observe(self.limbo_stats().1);
        self.observe_index();
        let mut freed = 0;
        for stripe in self.stripes.iter() {
            if stripe.limbo_nodes.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut ripe = Vec::new();
            {
                let mut limbo = stripe.bag.lock();
                if let Some(front) = limbo.bins.front() {
                    self.m_epoch_lag.observe(global.saturating_sub(front.epoch));
                }
                while let Some(front) = limbo.bins.front() {
                    let e = front.epoch;
                    if global < e + 2 || min_pin.is_some_and(|m| m < e + 2) {
                        break;
                    }
                    ripe.push(limbo.bins.pop_front().expect("front checked"));
                }
            }
            for bin in ripe {
                let bytes: u64 = bin.handles.iter().map(|&(_, b)| b as u64).sum();
                stripe
                    .limbo_nodes
                    .fetch_sub(bin.handles.len() as u64, Ordering::Relaxed);
                stripe.limbo_bytes.fetch_sub(bytes, Ordering::Relaxed);
                for &(h, _) in &bin.handles {
                    self.arena.free(into, h);
                }
                freed += bin.handles.len();
            }
        }
        freed
    }

    /// (retired-but-not-yet-freed slots, their approximate bytes).
    pub fn limbo_stats(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(n, b), s| {
            (
                n + s.limbo_nodes.load(Ordering::Relaxed),
                b + s.limbo_bytes.load(Ordering::Relaxed),
            )
        })
    }

    /// Generation-mismatched chain dereferences observed so far. Stays zero
    /// under correct epoch pinning; the reclamation proptest asserts on it.
    pub fn gen_mismatches(&self) -> u64 {
        self.arena.gen_mismatches()
    }

    /// Live version slots currently allocated in the arena.
    pub fn arena_occupied(&self) -> u64 {
        self.arena.occupied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;

    thread_local! {
        /// Chain nodes this thread's walks have visited (see `Nodes::next`).
        pub(super) static NODES_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Chain nodes visited by `f` on this thread.
    fn nodes_visited(f: impl FnOnce()) -> u64 {
        let before = NODES_VISITED.with(|n| n.get());
        f();
        NODES_VISITED.with(|n| n.get()) - before
    }

    fn key(id: u64) -> Key {
        Key::simple(TableId(0), id)
    }

    fn ver(writer: u64) -> Version {
        Version::uncommitted(
            GroupId(writer as u32),
            TxnId(writer),
            Value::Int(writer as i64),
            None,
        )
    }

    /// The writers on `k`'s chain, newest first.
    fn writers(store: &MvStore, k: &Key) -> Vec<u64> {
        store.with_chain(k, |chain| chain.iter().map(|v| v.writer.0).collect())
    }

    /// The batched snapshot read answers each key exactly as a walk of that
    /// key alone does: the newest-first pick, per key, written out here.
    #[test]
    fn batched_snapshot_reads_match_a_per_key_walk() {
        fn reference(store: &MvStore, k: &Key, h: u64) -> SnapshotRead {
            store.with_chain(k, |chain| {
                for v in chain.iter() {
                    if !v.is_committed() {
                        return SnapshotRead::Blocked(v.writer);
                    }
                    if v.hlc() <= h {
                        let value = v.value.clone();
                        return SnapshotRead::Value((!value.is_null()).then_some(value));
                    }
                }
                SnapshotRead::Value(None)
            })
        }
        const WRITTEN: u64 = 90;
        let store = MvStore::new(4);
        let mut txn = 0;
        let mut commit = |k: &Key, value: Value, hlc: u64| {
            txn += 1;
            store.write(k, TxnId(txn), value);
            store.commit_writes_stamped(TxnId(txn), std::slice::from_ref(k), Timestamp(txn), hlc);
        };
        for id in 0..WRITTEN {
            let k = key(id);
            // Committed versions stamped 10, 20 and 30 (or a subset of
            // them, by key), so a snapshot at 20 lands below, at and above
            // some version of most keys.
            for stamp in [10, 20, 30].into_iter().filter(|s| id % (s / 10 + 1) != 1) {
                commit(&k, Value::Int((id * 100 + stamp) as i64), stamp);
            }
            match id % 6 {
                // A tombstone on top: a delete the snapshot may or may not see.
                0 => commit(&k, Value::Null, 25),
                // An uncommitted head: the read must name its writer.
                1 => {
                    store.write(&k, TxnId(1_000 + id), Value::Int(-1));
                }
                // An uncommitted version under a committed one stamped 22:
                // a snapshot below 22 meets the writer, one above does not.
                2 => {
                    store.write(&k, TxnId(2_000 + id), Value::Int(-2));
                    commit(&k, Value::Int(22), 22);
                }
                _ => {}
            }
        }
        // A key whose only version is uncommitted, and keys never written
        // (ids WRITTEN..).
        store.write(&key(WRITTEN + 1_000), TxnId(5_000), Value::Int(7));
        let universe: Vec<Key> = (0..WRITTEN + 10)
            .map(key)
            .chain([key(WRITTEN + 1_000)])
            .collect();
        let (mut blocked, mut absent, mut visible) = (0, 0, 0);
        for h in [0, 9, 10, 15, 20, 25, 30, u64::MAX] {
            for len in [0usize, 1, 15, 16, 17, 200] {
                // A stride through the universe: a 200-key batch repeats
                // keys; every batch repeats its first key at its end.
                let mut batch: Vec<Key> = (0..len)
                    .map(|i| universe[(i * 37 + len) % universe.len()])
                    .collect();
                if len > 1 {
                    batch[len - 1] = batch[0];
                }
                let (reads_before, _) = store.access_counts();
                let mut got = vec![SnapshotRead::Value(Some(Value::Int(-7)))];
                store.read_snapshot_hlc(&batch, h, &mut got);
                assert_eq!(got.remove(0), SnapshotRead::Value(Some(Value::Int(-7))));
                assert_eq!(store.access_counts().0 - reads_before, len as u64);
                let want: Vec<SnapshotRead> =
                    batch.iter().map(|k| reference(&store, k, h)).collect();
                assert_eq!(got, want, "snapshot {h}, batch of {len}");
                for read in &got {
                    match read {
                        SnapshotRead::Blocked(_) => blocked += 1,
                        SnapshotRead::Value(None) => absent += 1,
                        SnapshotRead::Value(Some(_)) => visible += 1,
                    }
                }
            }
        }
        // Every kind of answer was exercised.
        assert!(blocked > 0 && absent > 0 && visible > 0);
    }

    #[test]
    fn commit_keeps_position_before_later_uncommitted_writes() {
        // T1 installs, then T2 installs (a later write exposed by a
        // pipelining CC). T1 committing must NOT move its version past T2's
        // uncommitted one: the chain's newest version must stay T2's so
        // position-based readers keep seeing the newer write.
        let store = MvStore::new(2);
        let k = key(1);
        store.with_chain_mut(&k, |chain| {
            assert!(chain.install(ver(1)));
            assert!(chain.install(ver(2)));
            assert!(chain.commit(TxnId(1), Timestamp(5)));
            assert!(
                !chain.commit(TxnId(1), Timestamp(6)),
                "nothing left to commit"
            );
            assert_eq!(chain.iter().next().unwrap().writer, TxnId(2));
            assert_eq!(chain.latest_committed().unwrap().writer, TxnId(1));
            // T2 then commits with a larger timestamp; position and commit
            // order agree.
            assert!(chain.commit(TxnId(2), Timestamp(7)));
            assert_eq!(chain.latest_committed().unwrap().writer, TxnId(2));
            let at_6 = chain.committed_at_or_before(Timestamp(6)).unwrap();
            assert_eq!(at_6.writer, TxnId(1));
        });
        assert_eq!(writers(&store, &k), [2, 1]);
    }

    #[test]
    fn overwrite_replaces_in_position_and_abort_unlinks() {
        let store = MvStore::new(2);
        let k = key(2);
        store.with_chain_mut(&k, |chain| {
            chain.install(ver(1));
            chain.install(ver(2));
            // Same writer again: replaced where it stands, same group, new
            // value; not a first write.
            let again = Version::uncommitted(GroupId(77), TxnId(1), Value::Int(20), None);
            assert!(!chain.install(again));
            assert_eq!(chain.len(), 2);
            let mine = chain.uncommitted_by(TxnId(1)).unwrap();
            assert_eq!((mine.group, mine.value.as_int()), (GroupId(1), Some(20)));
            assert!(chain.abort(TxnId(1)));
            assert!(!chain.abort(TxnId(1)));
            assert_eq!(chain.len(), 1);
            assert!(chain.has_other_uncommitted(TxnId(1)));
            assert!(!chain.has_other_uncommitted(TxnId(2)));
        });
        assert_eq!(writers(&store, &k), [2]);
        assert_eq!(store.stats(), store.stats_scanned());
    }

    #[test]
    fn snapshot_visibility_ordering() {
        let store = MvStore::new(2);
        let k = key(3);
        for (txn, ts) in [(1, 10), (2, 20)] {
            store.write(&k, TxnId(txn), Value::Int(ts as i64));
            store.commit_writes(TxnId(txn), &[k], Timestamp(ts));
        }
        store.with_chain(&k, |chain| {
            let before = |ts| chain.committed_before(Timestamp(ts)).map(|v| v.writer.0);
            assert_eq!(before(10), None);
            assert_eq!(before(15), Some(1));
            assert_eq!(before(20), Some(1));
            assert_eq!(before(25), Some(2));
            let at = |ts| {
                chain
                    .committed_at_or_before(Timestamp(ts))
                    .map(|v| v.writer.0)
            };
            assert_eq!((at(9), at(10), at(20)), (None, Some(1), Some(2)));
            let after = |ts| chain.committed_after(Timestamp(ts)).map(|v| v.writer.0);
            assert_eq!((after(15), after(20), after(25)), (Some(2), None, None));
        });
    }

    /// The mid-chain splice: a version carrying an `order_ts` goes below
    /// every one carrying a larger, wherever the untimed versions sit, and
    /// an overwrite keeps both its position and its `order_ts`.
    #[test]
    fn order_ts_installs_splice_at_their_ordering_position() {
        let store = MvStore::new(2);
        let k = key(4);
        store.load(&k, Value::Int(0));
        // T`txn` writes its id, stamped with `order_ts`.
        let stamped = |txn: u64, order_ts: u64| {
            let value = Value::Int(txn as i64);
            let version =
                Version::uncommitted(GroupId::NONE, TxnId(txn), value, Some(Timestamp(order_ts)));
            store.with_chain_mut(&k, |chain| chain.install(version));
        };
        stamped(1, 100);
        // An earlier timestamp lands below the later one, above the load.
        stamped(2, 50);
        assert_eq!(writers(&store, &k), [1, 2, 0]);
        // An untimed write goes to the head; timed ones splice past it.
        store.write(&k, TxnId(3), Value::Int(3));
        stamped(4, 75);
        stamped(5, 200);
        stamped(6, 10);
        assert_eq!(writers(&store, &k), [5, 3, 1, 4, 2, 6, 0]);
        // Overwrite without a timestamp: position and `order_ts` both stay.
        store.write(&k, TxnId(4), Value::Int(44));
        assert_eq!(writers(&store, &k), [5, 3, 1, 4, 2, 6, 0]);
        store.with_chain(&k, |chain| {
            let mine = chain.uncommitted_by(TxnId(4)).unwrap();
            assert_eq!(
                (mine.order_ts, mine.value.as_int()),
                (Some(Timestamp(75)), Some(44))
            );
            // The MVTO read rule over the walk: the newest version ordered
            // at or below the reader.
            let visible = |ts| {
                chain
                    .iter()
                    .find(|v| v.sort_ts().is_some_and(|o| o <= Timestamp(ts)))
                    .map(|v| v.writer.0)
            };
            assert_eq!(
                (visible(60), visible(99), visible(500)),
                (Some(2), Some(4), Some(5))
            );
        });
        // Committing in timestamp order keeps both orders descending.
        for txn in [6, 2, 4, 1] {
            store.commit_writes(TxnId(txn), &[k], Timestamp(txn + 1_000));
        }
        store.abort_writes(TxnId(3), &[k]);
        assert_eq!(writers(&store, &k), [5, 1, 4, 2, 6, 0]);
        assert_eq!(store.stats(), store.stats_scanned());
    }

    #[test]
    fn prune_keeps_latest_committed_and_uncommitted() {
        let store = MvStore::new(2);
        let k = key(5);
        store.with_chain_mut(&k, |chain| {
            for i in 1..=5u64 {
                chain.install(ver(i));
                chain.commit(TxnId(i), Timestamp(i * 10));
            }
            chain.install(ver(99));
            // 40 is what a reader at 45 sees: it stays with 50.
            assert_eq!(chain.prune(Timestamp(45)), 3);
            assert_eq!(chain.latest_committed().unwrap().writer, TxnId(5));
            assert!(chain.uncommitted_by(TxnId(99)).is_some());
            assert_eq!(chain.len(), 3);
            // A horizon beyond everything still keeps the latest.
            assert_eq!(chain.prune(Timestamp(1_000)), 1);
            assert_eq!(chain.prune(Timestamp(1_000)), 0);
            assert_eq!(chain.len(), 2);
        });
        assert_eq!(writers(&store, &k), [99, 5]);
        assert_eq!(store.stats(), store.stats_scanned());
    }

    /// A chain committed at 5, 8 and 12, pruned at 10: a read at the
    /// horizon must still find 8. Only 5 goes.
    #[test]
    fn prune_keeps_the_version_a_reader_at_the_horizon_sees() {
        let store = MvStore::new(1);
        let k = key(8);
        for ts in [5, 8, 12] {
            store.write(&k, TxnId(ts), Value::Int(ts as i64));
            store.commit_writes(TxnId(ts), &[k], Timestamp(ts));
        }
        let at_horizon = |store: &MvStore| {
            store.with_chain(&k, |chain| {
                let seen = |ts| chain.committed_at_or_before(Timestamp(ts));
                [10, 11, 12].map(|ts| seen(ts).map(|v| v.value.clone()))
            })
        };
        let before = at_horizon(&store);
        assert_eq!(before[0], Some(Value::Int(8)));
        assert_eq!(store.prune_before(Timestamp(10)), 1);
        assert_eq!(at_horizon(&store), before);
        assert_eq!(writers(&store, &k), [12, 8]);
        assert_eq!(store.stats(), store.stats_scanned());
    }

    /// A hot row between GC cycles: a thousand committed versions under one
    /// in-flight foreign write. Under the latch the uncommitted count is
    /// exact, so a probe that cannot match stops once it has seen that one
    /// version; the lock-free view cannot trust the count, walks the tail
    /// and answers the same.
    #[test]
    fn latched_probe_stops_at_the_uncommitted_count() {
        let store = MvStore::new(2);
        let k = key(6);
        for i in 1..=1_000u64 {
            store.write(&k, TxnId(i), Value::Int(i as i64));
            store.commit_writes(TxnId(i), &[k], Timestamp(i));
        }
        store.write(&k, TxnId(5_000), Value::Int(0));
        let me = TxnId(6_000);
        let probe = |chain: &Chain<'_>| {
            assert!(chain.uncommitted_by(me).is_none());
            assert!(chain.has_other_uncommitted(me));
            assert!(!chain.has_other_uncommitted(TxnId(5_000)));
            assert!(chain.find_uncommitted(|v| v.writer.0 > 5_000).is_none());
        };
        let latched = nodes_visited(|| store.with_chain_mut(&k, |chain| probe(chain)));
        assert_eq!(latched, 4, "one node per probe: the head");
        let lock_free = nodes_visited(|| store.with_chain(&k, probe));
        assert_eq!(lock_free, 3 * 1_001 + 1, "three misses walk the chain");
        // The timestamp queries stop at the first decisive version in
        // either view.
        let early = nodes_visited(|| {
            store.with_chain(&k, |chain| {
                assert_eq!(chain.latest_committed().unwrap().writer, TxnId(1_000));
                assert!(chain.committed_after(Timestamp(999)).is_some());
                assert_eq!(
                    chain.committed_before(Timestamp(1_000)).unwrap().writer,
                    TxnId(999)
                );
            })
        });
        assert_eq!(early, 2 + 2 + 3);
        // An absent key views the shared empty chain.
        store.with_chain(&key(7), |chain| {
            assert_eq!((chain.len(), chain.iter().count()), (0, 0));
            assert!(chain.latest_committed().is_none() && !chain.has_other_uncommitted(me));
        });
    }

    /// TSO's order check of a write at `ts` on a 10,000-version chain: in
    /// group 0's TSO versions alternate with foreign ones that carry no
    /// `order_ts`, all committed at or below `ts`; three of the group's
    /// commits land above it, and three writers are in flight on top. Under
    /// the latch the query visits those six and the first commit at or
    /// below `ts`, and no more.
    #[test]
    fn ordered_after_walks_past_the_newer_commits_and_the_writers_in_flight_only() {
        let store = MvStore::new(1);
        let k = key(1);
        let put = |writer: u64, group: u32, order_ts: Option<u64>, commit: Option<u64>| {
            let version = Version::uncommitted(
                GroupId(group),
                TxnId(writer),
                Value::Int(0),
                order_ts.map(Timestamp),
            );
            store.with_chain_mut(&k, |chain| {
                chain.install(version);
                if let Some(ts) = commit {
                    chain.commit(TxnId(writer), Timestamp(ts));
                }
            });
        };
        let ts = 100_000;
        for i in 1..=10_000u64 {
            match i % 2 {
                0 => put(i, 0, Some(10 * i - 5), Some(10 * i)),
                _ => put(i, 1, None, Some(10 * i)),
            }
        }
        for j in 1..=3 {
            put(20_000 + j, 0, Some(ts + 10 * j - 5), Some(ts + 10 * j));
        }
        put(30_001, 0, Some(ts + 100), None);
        put(30_002, 0, Some(ts + 101), None);
        put(30_003, 1, None, None);
        let in_group = |v: &Version| v.group == GroupId(0);
        let mut answer = Some(TxnId(0));
        let visited = nodes_visited(|| {
            store.with_chain_mut(&k, |chain| {
                answer = chain
                    .ordered_after(Timestamp(ts), in_group)
                    .map(|v| v.writer);
            })
        });
        assert_eq!(answer, None);
        assert!(visited <= 3 + 3 + 1, "visited {visited} versions");
        // A foreign version stamped after `ts` decides at once.
        put(30_004, 1, Some(ts + 102), None);
        store.with_chain_mut(&k, |chain| {
            let decisive = chain.ordered_after(Timestamp(ts), in_group);
            assert_eq!(decisive.map(|v| v.writer), Some(TxnId(30_004)));
        });
    }

    /// The first commit at or below `ts` settles the committed versions
    /// only: a foreign writer in flight below it, stamped after `ts`, still
    /// decides.
    #[test]
    fn ordered_after_finds_a_writer_in_flight_below_the_commits() {
        let store = MvStore::new(1);
        let k = key(1);
        let late = Version::uncommitted(GroupId(1), TxnId(1), Value::Int(1), Some(Timestamp(50)));
        store.with_chain_mut(&k, |chain| chain.install(late));
        store.write(&k, TxnId(2), Value::Int(2));
        store.commit_writes(TxnId(2), &[k], Timestamp(5));
        let decisive = |chain: &Chain<'_>| {
            let v = chain.ordered_after(Timestamp(10), |v| v.group == GroupId(0));
            v.map(|v| v.writer)
        };
        assert_eq!(
            store.with_chain_mut(&k, |chain| decisive(chain)),
            Some(TxnId(1))
        );
        assert_eq!(store.with_chain(&k, decisive), Some(TxnId(1)));
    }

    #[test]
    fn write_commit_read() {
        let store = MvStore::new(4);
        let k = key(1);
        let out = store.write(&k, TxnId(1), Value::Int(7));
        assert!(!out.other_uncommitted);
        assert_eq!(store.read(&k, ReadSpec::LatestCommitted), None);
        assert_eq!(
            store.read(&k, ReadSpec::OwnOrCommitted(TxnId(1))),
            Some(Value::Int(7))
        );
        store.commit_writes(TxnId(1), &[k], Timestamp(10));
        assert_eq!(
            store.read(&k, ReadSpec::LatestCommitted),
            Some(Value::Int(7))
        );
        assert_eq!(
            store.read(&k, ReadSpec::SnapshotBefore(Timestamp(10))),
            None
        );
        assert_eq!(
            store.read(&k, ReadSpec::SnapshotBefore(Timestamp(11))),
            Some(Value::Int(7))
        );
    }

    #[test]
    fn read_visible_filters_delete_tombstones() {
        let store = MvStore::new(2);
        let k = key(7);
        store.load(&k, Value::Int(1));
        assert_eq!(
            store.read_visible(&k, ReadSpec::LatestCommitted),
            Some(Value::Int(1))
        );
        // A committed delete surfaces as a Null version in `read`...
        store.write(&k, TxnId(1), Value::Null);
        store.commit_writes(TxnId(1), &[k], Timestamp(5));
        assert_eq!(store.read(&k, ReadSpec::LatestCommitted), Some(Value::Null));
        // ...which `read_visible` reports as absent.
        assert_eq!(store.read_visible(&k, ReadSpec::LatestCommitted), None);
    }

    #[test]
    fn abort_discards_writes() {
        let store = MvStore::new(2);
        let k = key(2);
        store.write(&k, TxnId(1), Value::Int(1));
        store.abort_writes(TxnId(1), &[k]);
        assert_eq!(store.read(&k, ReadSpec::OwnOrCommitted(TxnId(1))), None);
        assert_eq!(store.stats().versions, 0);
    }

    #[test]
    fn detects_other_uncommitted_writer() {
        let store = MvStore::new(2);
        let k = key(3);
        store.write(&k, TxnId(1), Value::Int(1));
        let out = store.write(&k, TxnId(2), Value::Int(2));
        assert!(out.other_uncommitted);
    }

    #[test]
    fn load_and_stats() {
        let store = MvStore::new(8);
        for i in 0..100 {
            store.load(&key(i), Value::Int(i as i64));
        }
        let stats = store.stats();
        assert_eq!(stats.keys, 100);
        assert_eq!(stats.versions, 100);
        assert_eq!(stats.uncommitted, 0);
        assert_eq!(store.stats_scanned(), stats);
        assert_eq!(
            store.read(&key(42), ReadSpec::LatestCommitted),
            Some(Value::Int(42))
        );
    }

    #[test]
    fn prune_removes_old_versions() {
        let store = MvStore::new(2);
        let k = key(9);
        for i in 1..=5u64 {
            store.write(&k, TxnId(i), Value::Int(i as i64));
            store.commit_writes(TxnId(i), &[k], Timestamp(i * 10));
        }
        let removed = store.prune_before(Timestamp(100));
        assert_eq!(removed, 4);
        assert_eq!(
            store.read(&k, ReadSpec::LatestCommitted),
            Some(Value::Int(5))
        );
        assert_eq!(store.stats(), store.stats_scanned());
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let store = Arc::new(MvStore::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let k = key(t * 1000 + i);
                    let txn = TxnId(t * 1000 + i + 1);
                    store.write(&k, txn, Value::Int(i as i64));
                    store.commit_writes(txn, &[k], Timestamp(i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.stats().keys, 1000);
        assert_eq!(store.stats().uncommitted, 0);
        assert_eq!(store.stats(), store.stats_scanned());
    }

    #[test]
    fn reader_completes_while_key_latch_held() {
        // The acceptance test for "chain reads take no lock": a reader must
        // finish while another thread sits inside `with_chain_mut` (holding
        // the key's write latch — the only exclusion the store has left).
        let store = Arc::new(MvStore::new(2));
        let k = key(11);
        store.load(&k, Value::Int(1));
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let s2 = Arc::clone(&store);
        let holder = std::thread::spawn(move || {
            s2.with_chain_mut(&k, |chain| {
                entered_tx.send(()).unwrap();
                // Park inside the latched section until the reader is done.
                release_rx.recv().unwrap();
                chain.len()
            })
        });
        entered_rx.recv().unwrap();
        // Reader on the SAME key, while its latch is held.
        let value = store.read(&k, ReadSpec::LatestCommitted);
        assert_eq!(value, Some(Value::Int(1)));
        release_tx.send(()).unwrap();
        assert_eq!(holder.join().unwrap(), 1);
    }

    #[test]
    fn retired_versions_reclaim_after_pins_advance() {
        let store = MvStore::new(2);
        let k = key(21);
        for i in 1..=20u64 {
            store.write(&k, TxnId(i), Value::Int(i as i64));
            store.commit_writes(TxnId(i), &[k], Timestamp(i));
        }
        // The 20 commits flipped their versions in place and retired
        // nothing; prune unlinks and retires the 19 superseded ones.
        assert_eq!(store.limbo_stats(), (0, 0));
        assert_eq!(store.prune_before(Timestamp(100)), 19);
        let (nodes_before, _) = store.limbo_stats();
        assert!(nodes_before > 0);
        // Limbo drains once pins advance: each round can advance the epoch
        // once and bins need a two-epoch grace period, but the EBR domain
        // is process-global, so a sibling test holding a pin stalls the
        // epoch for as long as it runs — retry until its pin moves on.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while store.limbo_stats().0 > 0 && std::time::Instant::now() < deadline {
            store.reclaim();
            std::thread::yield_now();
        }
        assert_eq!(store.limbo_stats().0, 0);
        assert_eq!(store.gen_mismatches(), 0);
        // Only the single surviving committed version is still allocated.
        assert_eq!(store.arena_occupied(), 1);
        assert_eq!(store.stats(), store.stats_scanned());
    }

    /// Committing is two stores into the version itself: it allocates no
    /// slot, retires none and leaves the chain where it was.
    #[test]
    fn commit_in_place_allocates_and_retires_nothing() {
        let registry = MetricsRegistry::new();
        let mut store = MvStore::new(2);
        store.attach_metrics(&registry);
        let keys: Vec<Key> = (0..8).map(key).collect();
        for k in &keys {
            store.load(k, Value::Int(0));
            store.write(k, TxnId(7), Value::row(&[1, 2, 3]));
        }
        let retired = registry.counter("gc.versions_retired");
        let before = (
            store.arena_occupied(),
            store.limbo_stats(),
            retired.get(),
            store.stats().versions,
        );
        store.commit_writes_stamped(TxnId(7), &keys, Timestamp(5), 99);
        let after = (
            store.arena_occupied(),
            store.limbo_stats(),
            retired.get(),
            store.stats().versions,
        );
        assert_eq!(before, after);
        assert_eq!(store.stats().uncommitted, 0);
        for k in &keys {
            store.with_chain(k, |chain| {
                let v = chain.latest_committed().unwrap();
                assert_eq!(
                    (v.writer, v.commit_ts(), v.hlc()),
                    (TxnId(7), Some(Timestamp(5)), 99)
                );
                assert_eq!(chain.len(), 2);
            });
        }
        assert_eq!(store.stats(), store.stats_scanned());
    }

    /// Writers install, overwrite, commit and abort on a few hot keys while
    /// readers walk the same chains: whatever a walk meets mid-commit, it
    /// never meets a committed version without its timestamp or — every
    /// commit here is stamped — without its stamp, and never a recycled
    /// slot. Afterwards every striped counter agrees with a full scan and
    /// with the number of calls made.
    #[test]
    fn commit_in_place_hammer_keeps_readers_and_counters_exact() {
        const KEYS: u64 = 4;
        const WRITERS: u64 = 2;
        const READERS: u64 = 2;
        const TXNS: u64 = 3_000;
        let store = MvStore::new(4);
        for k in 0..KEYS {
            store.load(&key(k), Value::Int(0));
        }
        let (base_reads, base_writes) = store.access_counts();
        let done = AtomicBool::new(false);
        let reads_made = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for r in 0..READERS {
                let (store, done, reads_made) = (&store, &done, &reads_made);
                scope.spawn(move || {
                    let mut reads = 0u64;
                    let mut i = r;
                    while !done.load(Ordering::Acquire) {
                        let k = key(i % KEYS);
                        i += 1;
                        store.with_chain(&k, |chain| {
                            let mut newest_commit = None;
                            for v in chain.iter().filter(|v| v.is_committed()) {
                                let ts = v.commit_ts().expect("committed without a timestamp");
                                if !v.writer.is_bootstrap() {
                                    assert_eq!(v.hlc(), ts.0 + 1_000, "commit without its stamp");
                                }
                                // Position order: commit timestamps descend
                                // along the walk.
                                assert!(newest_commit.is_none_or(|n| ts <= n));
                                newest_commit = Some(ts);
                            }
                        });
                        let mut answer = Vec::with_capacity(1);
                        store.read_snapshot_hlc(std::slice::from_ref(&k), u64::MAX, &mut answer);
                        match answer.pop().expect("one answer per key") {
                            SnapshotRead::Value(v) => assert!(v.is_some()),
                            SnapshotRead::Blocked(_) => {}
                        }
                        reads += 2;
                    }
                    reads_made.fetch_add(reads, Ordering::Relaxed);
                });
            }
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let store = &store;
                    scope.spawn(move || {
                        let mut writes = 0u64;
                        for n in 0..TXNS {
                            // Each writer owns its keys (per-key commit
                            // order is the mechanisms' job, not the store's).
                            let k = key((n % (KEYS / WRITERS)) * WRITERS + w);
                            let txn = TxnId(1 + w * TXNS + n);
                            store.write(&k, txn, Value::Int(n as i64));
                            store.write(&k, txn, Value::Int(-(n as i64)));
                            writes += 3;
                            if n % 5 == 0 {
                                store.abort_writes(txn, &[k]);
                            } else {
                                let ts = 1 + n * WRITERS + w;
                                store.commit_writes_stamped(txn, &[k], Timestamp(ts), ts + 1_000);
                            }
                        }
                        writes
                    })
                })
                .collect();
            let writes_made: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
            done.store(true, Ordering::Release);
            // Readers are joined by the scope; their count is read below.
            assert_eq!(store.access_counts().1 - base_writes, writes_made);
        });
        assert_eq!(
            store.access_counts().0 - base_reads,
            reads_made.load(Ordering::Relaxed)
        );
        assert_eq!(store.gen_mismatches(), 0);
        let stats = store.stats();
        assert_eq!(stats, store.stats_scanned());
        assert_eq!(stats.uncommitted, 0);
        // One load per key plus every transaction that committed.
        assert_eq!(
            stats.versions as u64,
            KEYS + WRITERS * (TXNS - TXNS.div_ceil(5))
        );
        // Every overwrite and every abort retired exactly one slot, and the
        // arena holds the linked versions plus what is still in limbo.
        let (limbo_nodes, _) = store.limbo_stats();
        assert_eq!(store.arena_occupied(), stats.versions as u64 + limbo_nodes);
    }

    /// A key shaped like TPC-C's `order_line(w, d, o, ol)`: small integers
    /// packed 32 bits apiece, the input the directory has to spread.
    fn order_line(w: u32, d: u32, o: u32, ol: u32) -> Key {
        Key::composite(TableId(8), &[w, d, o, ol])
    }

    /// Slots a lookup of `k`, which is indexed, examines in the live table
    /// of its shard.
    fn probe_len(store: &MvStore, k: &Key) -> u64 {
        let tag = k.mix64() >> 32;
        let table = store.shard_of(k.mix64()).table();
        let found = store.probe(table, k, tag).unwrap();
        let mut pos = table.home(tag);
        loop {
            let slot = table.slots[pos].load(Ordering::Relaxed);
            if slot >> 32 == tag && std::ptr::eq(store.entries.get(slot as u32 - 1), found) {
                return table.probes(tag, pos);
            }
            pos = (pos + 1) & table.mask();
        }
    }

    /// Tables double under the feet of readers: every key whose insert had
    /// returned before a read began is found (a table published before it
    /// is filled, or a slot before its entry is named, loses one), keys
    /// never inserted stay absent, and afterwards the counters, the slab
    /// scan and the directory agree on the key set.
    #[test]
    fn directory_grows_under_readers_without_losing_a_key() {
        const SHARDS: usize = 4;
        const WRITERS: u32 = 4;
        const READERS: u32 = 2;
        const PER_WRITER: u32 = 12_000;
        // Writer `w` inserts its `i`-th key; `w + 100` never writes.
        let nth = |w: u32, i: u32| order_line(w, 1 + i % 10, 1 + i / 100, 1 + (i / 10) % 10);
        let registry = MetricsRegistry::new();
        let mut store = MvStore::new(SHARDS);
        store.attach_metrics(&registry);
        let inserted: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for r in 0..READERS {
                let (store, inserted, done) = (&store, &inserted, &done);
                scope.spawn(move || {
                    let mut x = 0x9E37_79B9u32.wrapping_mul(r + 1);
                    while !done.load(Ordering::Acquire) {
                        for w in 0..WRITERS {
                            // Everything below `n` was inserted before this
                            // load, hence before the reads that follow.
                            let n = inserted[w as usize].load(Ordering::Acquire) as u32;
                            if n == 0 {
                                continue;
                            }
                            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                            for i in [x % n, n - 1] {
                                assert_eq!(
                                    store.read(&nth(w, i), ReadSpec::LatestCommitted),
                                    Some(Value::Int(i as i64)),
                                    "writer {w}'s key {i} of {n} went missing"
                                );
                                assert_eq!(
                                    store.read(&nth(w + 100, i), ReadSpec::LatestCommitted),
                                    None
                                );
                            }
                        }
                    }
                });
            }
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (store, inserted) = (&store, &inserted);
                    scope.spawn(move || {
                        for i in 0..PER_WRITER {
                            store.load(&nth(w, i), Value::Int(i as i64));
                            inserted[w as usize].store(i as u64 + 1, Ordering::Release);
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(store.gen_mismatches(), 0);
        for shard in &store.shards {
            let doublings = shard.table().slots.len().trailing_zeros() - INITIAL_BITS;
            assert!(doublings >= 8, "a shard doubled only {doublings} times");
            assert!(!over_limit(*shard.insert.lock(), shard.table().slots.len()));
        }

        // The counters, the slab scan and the directory agree.
        let total = (WRITERS * PER_WRITER) as usize;
        assert_eq!(store.stats(), store.stats_scanned());
        assert_eq!(store.stats().keys, total);
        let mut visited = std::collections::HashSet::new();
        store.for_each_key(|k, chain| {
            assert!(visited.insert(*k), "{k:?} visited twice");
            assert_eq!(chain.len(), 1);
        });
        let expected: std::collections::HashSet<Key> = (0..WRITERS)
            .flat_map(|w| (0..PER_WRITER).map(move |i| nth(w, i)))
            .collect();
        assert_eq!(visited, expected);
        let keyed: usize = store.shards.iter().map(|s| *s.insert.lock()).sum();
        assert_eq!(keyed, total);

        // And the instruments say the same as the accessor.
        let index = store.index_stats();
        let live: usize = store.shards.iter().map(|s| s.table().slots.len()).sum();
        assert_eq!((index.slots, index.keys), (live as u64, total as u64));
        assert!(index.grows >= 8 * SHARDS as u64);
        let longest = expected.iter().map(|k| probe_len(&store, k)).max().unwrap();
        assert!(longest <= index.probe_max && index.probe_max <= MAX_PROBE);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge("store.index.slots"), Some(index.slots));
        assert_eq!(
            snapshot.gauge("store.index.probe_max"),
            Some(index.probe_max)
        );
        assert_eq!(snapshot.counter("store.index.grows"), Some(index.grows));
        // The key gauge is refreshed by growth and by `reclaim`, not per insert.
        store.reclaim();
        assert_eq!(
            registry.snapshot().gauge("store.index.keys"),
            Some(index.keys)
        );
    }

    /// A million keys built the way TPC-C builds order lines, over the
    /// benchmark's 32 shards: lookups stay short. Position bits that repeat
    /// the shard choice would leave all keys of a shard in 1/32 of its
    /// table and fail both bounds.
    #[test]
    fn directory_spreads_a_million_composite_keys() {
        let store = MvStore::new(32);
        let keys: Vec<Key> = (1..=4u32)
            .flat_map(|w| (1..=10u32).map(move |d| (w, d)))
            .flat_map(|(w, d)| (1..=2_500u32).map(move |o| (w, d, o)))
            .flat_map(|(w, d, o)| (1..=10u32).map(move |ol| order_line(w, d, o, ol)))
            .collect();
        assert_eq!(keys.len(), 1_000_000);
        for k in &keys {
            store.with_chain_mut(k, |_| ());
        }
        let index = store.index_stats();
        assert_eq!(index.keys, 1_000_000);
        // Half full at most, and no shard ran from a long probe into a table
        // far larger than its keys need.
        assert!(!over_limit(index.keys as usize, index.slots as usize));
        assert!(index.slots <= 8 * index.keys, "{index:?}");
        let probes: Vec<u64> = keys.iter().map(|k| probe_len(&store, k)).collect();
        let mean = probes.iter().sum::<u64>() as f64 / probes.len() as f64;
        let max = *probes.iter().max().unwrap();
        assert!(mean <= 2.0, "mean probe {mean:.2}");
        assert!(
            max <= index.probe_max && index.probe_max <= MAX_PROBE,
            "max probe {max}, {index:?}"
        );
        // Shards fill evenly: none holds more than 1.25x its share.
        let fullest = store.shards.iter().map(|s| *s.insert.lock()).max().unwrap();
        assert!(
            fullest <= 1_000_000 / 32 * 5 / 4,
            "a shard holds {fullest} keys"
        );
    }

    /// An empty store is cheap: the `crates/cc` fixtures build dozens.
    #[test]
    fn empty_store_allocates_almost_no_index() {
        for shards in [1, 32] {
            let store = MvStore::new(shards);
            let bytes = store.index_stats().slots * std::mem::size_of::<AtomicU64>() as u64;
            assert!(bytes < 64 * 1024, "{shards} shard(s): {bytes} B of slots");
            assert_eq!(store.entries.len(), 0);
            assert_eq!(store.read(&key(1), ReadSpec::LatestCommitted), None);
        }
    }
}
