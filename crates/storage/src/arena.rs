//! The version arena: a slab of version slots addressed by
//! generation-tagged handles — and [`Segments`], the growth rule it shares
//! with the store's key-entry slab (geometric segments of zeroed memory,
//! bounded only by the 32-bit index).
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
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU32, AtomicU64, Ordering};

/// Slots in the first segment of a [`Segments`] slab (shrunk under test so
/// unit tests cross segment boundaries).
#[cfg(not(test))]
const BASE_BITS: u32 = 12;
#[cfg(test)]
const BASE_BITS: u32 = 6;
const BASE: u64 = 1 << BASE_BITS;
/// Segment `k` holds `BASE << k` slots, so twenty of them hold
/// `BASE * (2^20 - 1)` — with the production base, every 32-bit index but
/// the last 4096.
const SEGMENTS: usize = 20;
/// Slots moved between a stripe cache and the shared side at a time.
/// Divides [`BASE`], so a fresh block never straddles two segments.
const BLOCK: usize = 64;
const _: () = assert!((BASE as usize).is_multiple_of(BLOCK));

/// The nil handle, used as the end-of-chain / empty-list marker. No live
/// handle is zero: a live slot's generation is odd. That makes all-zero
/// bytes a vacant [`Slot`] and a vacant key entry with an empty chain.
pub const NIL: u64 = 0;

#[inline]
pub(crate) fn pack(gen: u32, idx: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

#[inline]
pub(crate) fn unpack(handle: u64) -> (u32, u32) {
    ((handle >> 32) as u32, handle as u32)
}

/// Asks the CPU to start loading every cache line `value` occupies, so a
/// later read of it finds them in cache. A hint: it changes no state the
/// program can observe, and compiles to nothing off x86-64.
#[inline(always)]
pub(crate) fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = value as *const T as usize;
        let last = start + std::mem::size_of::<T>().max(1) - 1;
        let mut line = start & !(LINE - 1);
        while line <= last {
            // SAFETY: a prefetch never faults and reads nothing into the
            // program — it only warms the cache — and every line it names
            // here belongs to the live `value` anyway. SSE, which the
            // intrinsic needs, is part of the x86-64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line as *const i8) };
            line += LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// A type whose all-zero byte pattern is a valid, *vacant* value, so a
/// slab of it can be handed out as untouched zero pages.
///
/// # Safety
///
/// All-zero bytes must be a valid `Self`, and `Self` must hold no resource
/// a slab would have to drop (a [`Segments`] frees its memory without
/// running destructors).
pub(crate) unsafe trait ZeroVacant {}

/// The growth rule of both slabs (version slots here, key entries in the
/// store): an append-only sequence of `T` addressed by a 32-bit index, in
/// geometric segments — segment `k` holds `BASE << k` slots. A segment is
/// allocated zeroed on first use and never moves or shrinks, so `&T` stay
/// valid for the slab's life and a large segment costs nothing until its
/// pages are touched.
pub(crate) struct Segments<T> {
    /// Segment base pointers, published with `Release` so `get` needs no
    /// lock.
    spine: [AtomicPtr<T>; SEGMENTS],
    /// Serializes segment allocation only.
    grow_lock: Mutex<()>,
}

// SAFETY: the slab owns its `T`s like a `Vec<T>` (the raw pointers are its
// allocations, published once, freed only in `Drop`); it hands out `&T`
// across threads (`T: Sync`) and is dropped wherever its owner is
// (`T: Send`).
unsafe impl<T: Send> Send for Segments<T> {}
unsafe impl<T: Send + Sync> Sync for Segments<T> {}

impl<T> Segments<T> {
    fn layout(segment: usize) -> Layout {
        Layout::array::<T>((BASE as usize) << segment).expect("segment size fits a Layout")
    }
}

impl<T: ZeroVacant> Segments<T> {
    /// Indices below this are addressable.
    pub(crate) const CAPACITY: u64 = (BASE << SEGMENTS) - BASE;

    pub(crate) fn new() -> Self {
        Segments {
            spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            grow_lock: Mutex::new(()),
        }
    }

    /// `(segment, offset within it)` of `idx`: adding `BASE` makes the
    /// segment number the position of the top set bit.
    #[inline]
    fn locate(idx: u32) -> (usize, usize) {
        let shifted = idx as u64 + BASE;
        let top = 63 - shifted.leading_zeros();
        ((top - BASE_BITS) as usize, (shifted ^ (1 << top)) as usize)
    }

    /// Makes `idx` addressable, allocating its segment if this is the first
    /// index in it. Panics past [`CAPACITY`](Self::CAPACITY).
    pub(crate) fn ensure(&self, idx: u64) {
        assert!(
            idx < Self::CAPACITY,
            "slab of {} exhausted ({} slots)",
            std::any::type_name::<T>(),
            Self::CAPACITY
        );
        let (segment, _) = Self::locate(idx as u32);
        if !self.spine[segment].load(Ordering::Acquire).is_null() {
            return;
        }
        let _g = self.grow_lock.lock();
        if !self.spine[segment].load(Ordering::Acquire).is_null() {
            return;
        }
        let layout = Self::layout(segment);
        // SAFETY: `layout` has non-zero size (`BASE << segment` slots of a
        // sized, non-ZST `T` — both users are tens of bytes).
        let ptr = unsafe { alloc_zeroed(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        self.spine[segment].store(ptr, Ordering::Release);
    }

    /// The slot at `idx`, which an earlier [`ensure`](Self::ensure) (that
    /// happened-before this call) made addressable.
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> &T {
        let (segment, offset) = Self::locate(idx);
        let base = self.spine[segment].load(Ordering::Acquire);
        assert!(
            !base.is_null(),
            "slab index {idx} beyond allocated segments"
        );
        // SAFETY: `base` is a live allocation of `BASE << segment` slots,
        // `offset` is below that by construction of `locate`, and zeroed
        // memory is a valid `T` (`ZeroVacant`). Segments are freed only in
        // `Drop`.
        unsafe { &*base.add(offset) }
    }
}

impl<T> Drop for Segments<T> {
    fn drop(&mut self) {
        for (segment, slot) in self.spine.iter().enumerate() {
            let ptr = slot.load(Ordering::Relaxed);
            if !ptr.is_null() {
                // SAFETY: allocated in `ensure` with this very layout; `T`
                // needs no drop (`ZeroVacant`).
                unsafe { dealloc(ptr as *mut u8, Self::layout(segment)) };
            }
        }
    }
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

// SAFETY: zeroed, a slot has generation 0 (even: vacant), a `NIL` link and
// an uninitialized data cell. The version of an occupied slot is dropped by
// `free` or by `VersionArena::drop`, never by the slab.
unsafe impl ZeroVacant for Slot {}

// SAFETY: slots hold `UnsafeCell` data, but the occupancy protocol above
// makes cross-thread access race-free: a slot's data is written only by the
// thread that popped its index out of a cache (exclusive ownership) and
// read only while occupied; `Version` itself is `Send + Sync` (plain data
// and atomics).
unsafe impl Sync for Slot {}

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

/// A slab of [`Slot`]s with generation-tagged handles.
pub struct VersionArena {
    slots: Segments<Slot>,
    /// Next never-used slot index; advanced a [`BLOCK`] at a time.
    bump: AtomicU64,
    /// Whole blocks of vacant slots handed back by overflowing stripes.
    pool: Mutex<Vec<Vec<u32>>>,
    stripes: Box<[ArenaStripe]>,
    /// Reads that found a generation mismatch. Must stay zero while every
    /// reader holds an epoch pin; the reclamation proptest asserts on it.
    gen_mismatches: AtomicU64,
}

impl Default for VersionArena {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionArena {
    pub fn new() -> Self {
        VersionArena {
            slots: Segments::new(),
            bump: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            stripes: (0..STRIPES)
                .map(|_| ArenaStripe {
                    vacant: Mutex::new(Vec::new()),
                    occupied: AtomicI64::new(0),
                })
                .collect(),
            gen_mismatches: AtomicU64::new(0),
        }
    }

    /// Every index handed out by `refill` was made addressable there before
    /// it entered a cache.
    #[inline]
    fn slot(&self, idx: u32) -> &Slot {
        self.slots.get(idx)
    }

    /// Refills an empty stripe cache with one block: a recycled one from
    /// the pool, else [`BLOCK`] contiguous never-used slots.
    fn refill(&self, vacant: &mut Vec<u32>) {
        if let Some(block) = self.pool.lock().pop() {
            vacant.extend(block);
            return;
        }
        let base = self.bump.fetch_add(BLOCK as u64, Ordering::Relaxed);
        // The block lies in one segment, so its last slot vouches for all.
        self.slots.ensure(base + BLOCK as u64 - 1);
        let block = base as u32..base as u32 + BLOCK as u32;
        // Make the first touch of never-used memory a write: `alloc` reads
        // a slot's generation first, and a read of an untouched zero page
        // maps the shared zero page only to fault again on the write.
        for idx in block.clone() {
            self.slot(idx).gen.store(0, Ordering::Relaxed);
        }
        // Reversed, so pops walk the block in ascending address order.
        vacant.extend(block.rev());
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

    /// Starts loading the slot `handle` names — its generation, link and
    /// version — into cache ([`NIL`]: nothing to load). A hint: it does
    /// not check the generation, and a stale handle only wastes the load.
    #[inline]
    pub(crate) fn prefetch(&self, handle: u64) {
        if handle != NIL {
            prefetch(self.slot(unpack(handle).1));
        }
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
        // Drop the versions still occupied (odd generation); the slab
        // frees the memory. A bump that ran past the capacity panicked in
        // `refill` before handing anything out.
        let used = self
            .bump
            .load(Ordering::Relaxed)
            .min(Segments::<Slot>::CAPACITY);
        for idx in 0..used as u32 {
            let slot = self.slot(idx);
            if slot.gen.load(Ordering::Relaxed) & 1 == 1 {
                // SAFETY: an odd generation marks an initialized version,
                // and `&mut self` means no one else can reach it.
                unsafe { (*slot.data.get()).assume_init_drop() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Timestamp, TxnId};
    use crate::value::Value;

    fn ver(id: u64) -> Version {
        Version::committed(TxnId(id), Value::Int(id as i64), Timestamp(id))
    }

    #[test]
    fn alloc_read_roundtrip() {
        let a = VersionArena::new();
        let h = a.alloc(0, ver(7));
        let (v, next) = a.read(h).unwrap();
        assert_eq!(v.writer, TxnId(7));
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
        assert_eq!(a.read(h2).unwrap().0.writer, TxnId(2));
        assert_eq!(a.occupied(), 1);
    }

    #[test]
    fn chain_links_traverse() {
        let a = VersionArena::new();
        let old = a.alloc(0, ver(1));
        let new = a.alloc(0, ver(2));
        a.set_next(new, old);
        let (v2, next) = a.read(new).unwrap();
        assert_eq!(v2.writer, TxnId(2));
        let (v1, end) = a.read(next).unwrap();
        assert_eq!(v1.writer, TxnId(1));
        assert_eq!(end, NIL);
    }

    /// The one growth rule of both slabs: with the base shrunk to 64 under
    /// test, 64 + 128 + 256 slots fill three segments and the next index
    /// opens a fourth. Every handle resolves to its own version, addresses
    /// never move, and untouched slots read as vacant zeroes.
    #[test]
    fn slab_grows_across_segment_boundaries() {
        let base = BASE as u32;
        assert_eq!(Segments::<Slot>::locate(0), (0, 0));
        assert_eq!(Segments::<Slot>::locate(base - 1), (0, base as usize - 1));
        assert_eq!(Segments::<Slot>::locate(base), (1, 0));
        assert_eq!(Segments::<Slot>::locate(3 * base), (2, 0));
        assert_eq!(Segments::<Slot>::locate(7 * base), (3, 0));
        let last = (Segments::<Slot>::CAPACITY - 1) as u32;
        assert_eq!(
            Segments::<Slot>::locate(last),
            (SEGMENTS - 1, (BASE << (SEGMENTS - 1)) as usize - 1)
        );

        let a = VersionArena::new();
        let n = 7 * BASE + 10;
        let handles: Vec<u64> = (0..n).map(|i| a.alloc(0, ver(i))).collect();
        let first = a.read(handles[0]).unwrap().0 as *const Version;
        assert!(!a.slots.spine[3].load(Ordering::Relaxed).is_null());
        assert!(a.slots.spine[4].load(Ordering::Relaxed).is_null());
        for (i, &h) in handles.iter().enumerate() {
            assert_ne!(h, NIL);
            assert_eq!(a.read(h).unwrap().0.writer, TxnId(i as u64));
        }
        assert_eq!(a.read(handles[0]).unwrap().0 as *const Version, first);
        assert_eq!(a.occupied(), n);
        // The tail of the last block was never allocated: still zeroed.
        let untouched = a.slot(a.bump.load(Ordering::Relaxed) as u32 - 1);
        assert_eq!(
            (
                untouched.gen.load(Ordering::Relaxed),
                untouched.next.load(Ordering::Relaxed)
            ),
            (0, NIL)
        );
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn slab_refuses_indices_past_its_capacity() {
        Segments::<Slot>::new().ensure(Segments::<Slot>::CAPACITY);
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
