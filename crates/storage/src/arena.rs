//! The version arena: a chunked slab of version slots addressed by
//! generation-tagged handles.
//!
//! Version chains are singly-linked lists of arena slots (newest first),
//! linked by atomic packed handles, so readers traverse a chain with plain
//! `Acquire` loads and zero locks. A handle packs a 32-bit slot index with
//! the slot's 32-bit **generation**; the generation is bumped every time a
//! slot is freed, so a stale handle to a recycled slot can never
//! dereference the new occupant (ABA protection).
//!
//! **What a linked slot may change.** The version's *payload* (`id`,
//! `writer`, `value`, `order_ts`) is immutable while the slot is linked:
//! overwriting a value allocates a replacement slot and splices it into
//! the chain, retiring the old slot to the store's epoch limbo (see
//! [`crate::ebr`]). The version's *commit word* and HLC stamp are atomics
//! and flip exactly once, in place (see [`Version`]): committing allocates
//! nothing and retires nothing. That keeps `&Version` references handed to
//! readers valid with two atomic fields instead of per-field atomics.
//!
//! **No shared word on the allocation path.** Vacant slots live in
//! per-stripe caches (a stripe is a thread's epoch pin slot, see
//! [`crate::ebr::stripe`]), so `alloc` and `free` take one
//! uncontended stripe lock and touch no process-wide atomic. A cache that
//! runs dry takes a whole block of [`BLOCK`] slots — from the shared pool
//! of recycled blocks, else `BLOCK` *contiguous* never-used slots off the
//! bump pointer; a cache that overflows hands a block back. Fresh slots of
//! one cache line therefore belong to one thread, and the shared pool is
//! touched once per `BLOCK` operations.

use crate::ebr::STRIPES;
use crate::version::Version;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU32, AtomicU64, Ordering};

/// Slots per chunk (2^12 = 4096).
const CHUNK_BITS: u32 = 12;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u32 = (CHUNK_SIZE as u32) - 1;
/// Maximum chunks: 4096 chunks * 4096 slots = ~16.7M live versions.
const MAX_CHUNKS: usize = 1 << 12;
/// Slots moved between a stripe cache and the shared side at a time.
/// Divides [`CHUNK_SIZE`], so a fresh block never straddles two chunks.
const BLOCK: usize = 64;

/// The nil handle, used as the end-of-chain / empty-list marker.
pub const NIL: u64 = u64::MAX;

#[inline]
pub(crate) fn pack(gen: u32, idx: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

#[inline]
pub(crate) fn unpack(handle: u64) -> (u32, u32) {
    ((handle >> 32) as u32, handle as u32)
}

/// One version slot.
///
/// `gen` parity encodes occupancy: even = vacant, odd = occupied. The data
/// cell is written only while the slot index sits in no cache (it was just
/// popped by the allocating thread) and before the odd generation is
/// published, so a reader that `Acquire`-loads a matching odd generation
/// sees fully initialized data.
pub(crate) struct Slot {
    gen: AtomicU32,
    /// Chain link while occupied (handle of the next-older version, or
    /// [`NIL`]).
    next: AtomicU64,
    data: UnsafeCell<MaybeUninit<Version>>,
}

/// One stripe's private share of the arena, on its own cache lines.
#[repr(align(128))]
struct ArenaStripe {
    /// Indices of vacant slots owned by this stripe, most recently freed
    /// last (so reuse is LIFO and cache-warm).
    vacant: Mutex<Vec<u32>>,
    /// Allocations minus frees made through this stripe (a slot may be
    /// allocated through one stripe and freed through another).
    occupied: AtomicI64,
}

/// A chunked slab of [`Slot`]s with generation-tagged handles.
pub struct VersionArena {
    /// Two-level spine: chunk pointers, published with `Release` so slot
    /// dereferences need no lock.
    spine: Box<[AtomicPtr<Slot>]>,
    /// Next never-used slot index; advanced a [`BLOCK`] at a time.
    bump: AtomicU64,
    /// Whole blocks of vacant slots handed back by overflowing stripes.
    pool: Mutex<Vec<Vec<u32>>>,
    stripes: Box<[ArenaStripe]>,
    /// Serializes chunk allocation only.
    grow_lock: Mutex<()>,
    /// Reads that found a generation mismatch. Must stay zero while every
    /// reader holds an epoch pin; the reclamation proptest asserts on it.
    gen_mismatches: AtomicU64,
}

// SAFETY: slots hold `UnsafeCell` data, but the occupancy protocol above
// makes cross-thread access race-free: a slot's data is written only by the
// thread that popped its index out of a cache (exclusive ownership) and
// read only while occupied; `Version` itself is `Send + Sync` (plain data
// and atomics). The spine's raw chunk pointers are published once and
// freed only in `Drop`.
unsafe impl Send for VersionArena {}
unsafe impl Sync for VersionArena {}

impl Default for VersionArena {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionArena {
    pub fn new() -> Self {
        VersionArena {
            spine: (0..MAX_CHUNKS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            bump: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            stripes: (0..STRIPES)
                .map(|_| ArenaStripe {
                    vacant: Mutex::new(Vec::new()),
                    occupied: AtomicI64::new(0),
                })
                .collect(),
            grow_lock: Mutex::new(()),
            gen_mismatches: AtomicU64::new(0),
        }
    }

    #[inline]
    fn slot(&self, idx: u32) -> &Slot {
        let chunk = self.spine[(idx >> CHUNK_BITS) as usize].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "slot index {idx} beyond allocated chunks");
        // SAFETY: every index handed out by `refill` lies in a chunk that
        // `ensure_chunk` published before the index entered a cache, and
        // chunks are freed only in `Drop`.
        unsafe { &*chunk.add((idx & CHUNK_MASK) as usize) }
    }

    fn ensure_chunk(&self, chunk_idx: usize) {
        assert!(
            chunk_idx < MAX_CHUNKS,
            "version arena exhausted ({} slots)",
            MAX_CHUNKS * CHUNK_SIZE
        );
        if !self.spine[chunk_idx].load(Ordering::Acquire).is_null() {
            return;
        }
        let _g = self.grow_lock.lock();
        if !self.spine[chunk_idx].load(Ordering::Acquire).is_null() {
            return;
        }
        let chunk: Box<[Slot]> = (0..CHUNK_SIZE)
            .map(|_| Slot {
                gen: AtomicU32::new(0),
                next: AtomicU64::new(NIL),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        let ptr = Box::into_raw(chunk) as *mut Slot;
        self.spine[chunk_idx].store(ptr, Ordering::Release);
    }

    /// Refills an empty stripe cache with one block: a recycled one from
    /// the pool, else [`BLOCK`] contiguous never-used slots.
    fn refill(&self, vacant: &mut Vec<u32>) {
        if let Some(block) = self.pool.lock().pop() {
            vacant.extend(block);
            return;
        }
        let base = self.bump.fetch_add(BLOCK as u64, Ordering::Relaxed);
        assert!(
            base + BLOCK as u64 <= (MAX_CHUNKS * CHUNK_SIZE) as u64,
            "version arena exhausted"
        );
        self.ensure_chunk((base >> CHUNK_BITS) as usize);
        // Reversed, so pops walk the block in ascending address order.
        vacant.extend((base as u32..base as u32 + BLOCK as u32).rev());
    }

    /// Allocates a slot holding `version` through `stripe`'s cache and
    /// returns its packed handle. The slot's `next` link is initialized to
    /// [`NIL`]; the caller splices it into a chain.
    pub fn alloc(&self, stripe: usize, version: Version) -> u64 {
        let stripe = &self.stripes[stripe % STRIPES];
        let idx = {
            let mut vacant = stripe.vacant.lock();
            if vacant.is_empty() {
                self.refill(&mut vacant);
            }
            vacant.pop().expect("refill leaves a block in the cache")
        };
        stripe.occupied.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(idx);
        // The index left the cache, so the slot is privately ours and its
        // generation is the even value `free` (or chunk creation) left.
        let vacant_gen = slot.gen.load(Ordering::Relaxed);
        debug_assert_eq!(vacant_gen & 1, 0, "allocating an occupied slot");
        // SAFETY: exclusive ownership of a vacant slot (see above); the
        // cell holds no live value (never written, or dropped by `free`).
        unsafe { (*slot.data.get()).write(version) };
        slot.next.store(NIL, Ordering::Relaxed);
        let live_gen = vacant_gen.wrapping_add(1);
        slot.gen.store(live_gen, Ordering::Release);
        pack(live_gen, idx)
    }

    /// Dereferences `handle`, returning the version and its chain link.
    /// Returns `None` (and counts a mismatch) if the slot's generation no
    /// longer matches — which an epoch-pinned reader must never observe.
    #[inline]
    pub fn read(&self, handle: u64) -> Option<(&Version, u64)> {
        let (gen, idx) = unpack(handle);
        let slot = self.slot(idx);
        if slot.gen.load(Ordering::Acquire) != gen {
            self.gen_mismatches.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let next = slot.next.load(Ordering::Acquire);
        // SAFETY: the matching odd generation was published with `Release`
        // after the data write, and epoch pinning keeps the slot from
        // being freed and recycled while this reference is live.
        let version = unsafe { (*slot.data.get()).assume_init_ref() };
        Some((version, next))
    }

    /// Updates the chain link of a live slot. Only the (single, per-key
    /// latched) writer calls this.
    #[inline]
    pub fn set_next(&self, handle: u64, next: u64) {
        let (gen, idx) = unpack(handle);
        let slot = self.slot(idx);
        debug_assert_eq!(
            slot.gen.load(Ordering::Relaxed),
            gen,
            "set_next on stale handle"
        );
        slot.next.store(next, Ordering::Release);
    }

    /// Frees a slot into `stripe`'s cache: drops the version and bumps the
    /// generation (invalidating every outstanding handle). The caller must
    /// guarantee no reader can still reach the handle — the store's epoch
    /// limbo lists provide that.
    pub fn free(&self, stripe: usize, handle: u64) {
        let (gen, idx) = unpack(handle);
        let slot = self.slot(idx);
        assert_eq!(
            slot.gen.load(Ordering::Relaxed),
            gen,
            "double free or stale handle"
        );
        // SAFETY: the matching odd generation says the slot is occupied,
        // and the caller guarantees no other thread can still reach it.
        unsafe { (*slot.data.get()).assume_init_drop() };
        slot.gen.store(gen.wrapping_add(1), Ordering::Release);
        let stripe = &self.stripes[stripe % STRIPES];
        stripe.occupied.fetch_sub(1, Ordering::Relaxed);
        let mut vacant = stripe.vacant.lock();
        vacant.push(idx);
        if vacant.len() >= 2 * BLOCK {
            // Hand the coldest block back; the warm half stays.
            let block: Vec<u32> = vacant.drain(..BLOCK).collect();
            drop(vacant);
            self.pool.lock().push(block);
        }
    }

    /// Live slot count (exact once concurrent allocators are quiescent).
    pub fn occupied(&self) -> u64 {
        let net: i64 = self
            .stripes
            .iter()
            .map(|s| s.occupied.load(Ordering::Relaxed))
            .sum();
        net.max(0) as u64
    }

    /// Number of generation-mismatched dereferences observed (must be zero
    /// under correct epoch pinning).
    pub fn gen_mismatches(&self) -> u64 {
        self.gen_mismatches.load(Ordering::Relaxed)
    }
}

impl Drop for VersionArena {
    fn drop(&mut self) {
        let used = self
            .bump
            .load(Ordering::Relaxed)
            .min((MAX_CHUNKS * CHUNK_SIZE) as u64);
        for chunk_idx in 0..MAX_CHUNKS {
            let ptr = self.spine[chunk_idx].load(Ordering::Relaxed);
            if ptr.is_null() {
                continue;
            }
            let base = (chunk_idx << CHUNK_BITS) as u64;
            let in_use = used.saturating_sub(base).min(CHUNK_SIZE as u64) as usize;
            // Drop any still-occupied versions (odd generation).
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr, CHUNK_SIZE) };
            for slot in chunk.iter_mut().take(in_use) {
                if slot.gen.load(Ordering::Relaxed) & 1 == 1 {
                    unsafe { (*slot.data.get()).assume_init_drop() };
                }
            }
            drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, CHUNK_SIZE)) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Timestamp, TxnId};
    use crate::value::Value;
    use crate::version::VersionId;

    fn ver(id: u64) -> Version {
        Version::committed(
            VersionId(id),
            TxnId(id),
            Value::Int(id as i64),
            Timestamp(id),
        )
    }

    #[test]
    fn alloc_read_roundtrip() {
        let a = VersionArena::new();
        let h = a.alloc(0, ver(7));
        let (v, next) = a.read(h).unwrap();
        assert_eq!(v.id, VersionId(7));
        assert_eq!(next, NIL);
        assert_eq!(a.occupied(), 1);
    }

    #[test]
    fn freed_handle_is_invalidated() {
        let a = VersionArena::new();
        let h = a.alloc(0, ver(1));
        a.free(0, h);
        assert!(a.read(h).is_none());
        assert_eq!(a.gen_mismatches(), 1);
        // The recycled slot gets a fresh generation; the stale handle
        // still does not resolve.
        let h2 = a.alloc(0, ver(2));
        assert_ne!(h, h2);
        assert!(a.read(h).is_none());
        assert_eq!(a.read(h2).unwrap().0.id, VersionId(2));
        assert_eq!(a.occupied(), 1);
    }

    #[test]
    fn chain_links_traverse() {
        let a = VersionArena::new();
        let old = a.alloc(0, ver(1));
        let new = a.alloc(0, ver(2));
        a.set_next(new, old);
        let (v2, next) = a.read(new).unwrap();
        assert_eq!(v2.id, VersionId(2));
        let (v1, end) = a.read(next).unwrap();
        assert_eq!(v1.id, VersionId(1));
        assert_eq!(end, NIL);
    }

    #[test]
    fn bump_crosses_chunks() {
        let a = VersionArena::new();
        let n = CHUNK_SIZE + 10;
        let handles: Vec<u64> = (0..n as u64).map(|i| a.alloc(0, ver(i))).collect();
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(a.read(h).unwrap().0.id, VersionId(i as u64));
        }
        assert_eq!(a.occupied(), n as u64);
    }

    #[test]
    fn free_list_recycles_lifo() {
        let a = VersionArena::new();
        let h1 = a.alloc(0, ver(1));
        let h2 = a.alloc(0, ver(2));
        a.free(0, h1);
        a.free(0, h2);
        let h3 = a.alloc(0, ver(3));
        let h4 = a.alloc(0, ver(4));
        // LIFO: h3 reuses h2's slot, h4 reuses h1's slot.
        assert_eq!(unpack(h3).1, unpack(h2).1);
        assert_eq!(unpack(h4).1, unpack(h1).1);
        // One block was ever taken off the bump pointer.
        assert_eq!(a.bump.load(Ordering::Relaxed), BLOCK as u64);
    }

    #[test]
    fn stripes_take_disjoint_contiguous_blocks_and_recycle_through_the_pool() {
        let a = VersionArena::new();
        let h0 = a.alloc(0, ver(1));
        let h1 = a.alloc(1, ver(2));
        // Two stripes never share a block of fresh slots.
        assert_ne!(unpack(h0).1 as usize / BLOCK, unpack(h1).1 as usize / BLOCK);
        assert_eq!(unpack(a.alloc(0, ver(3))).1, unpack(h0).1 + 1);
        // Allocate three blocks through stripe 0, free them through stripe
        // 2: its cache overflows into the pool, stripe 3 refills from there
        // and the bump pointer does not move again.
        let handles: Vec<u64> = (0..3 * BLOCK as u64).map(|i| a.alloc(0, ver(i))).collect();
        let bump = a.bump.load(Ordering::Relaxed);
        for h in handles {
            a.free(2, h);
        }
        assert!(!a.pool.lock().is_empty());
        a.alloc(3, ver(9));
        assert_eq!(a.bump.load(Ordering::Relaxed), bump);
        // h0, h1, the third alloc and the last one are live.
        assert_eq!(a.occupied(), 4);
    }
}
