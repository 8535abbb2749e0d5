//! Epoch-based reclamation for the lock-free version store.
//!
//! Readers traverse version chains without taking any lock, so a version
//! slot can only be reused once every thread that might still hold a
//! reference into the chain has moved on. This module provides the classic
//! epoch scheme (the shape of frankensqlite's EBR and crossbeam-epoch):
//!
//! * A process-global epoch counter, advanced opportunistically.
//! * Per-thread **pins**: a thread announces the epoch it observed before
//!   touching shared chain memory and clears the announcement when done.
//!   Pins are re-entrant (an outer guard makes inner pins free), so the
//!   transaction layer can pin once per transaction while every individual
//!   store operation stays safe on its own.
//! * A rule for reclaiming retired garbage: a node retired in epoch `e`
//!   may be freed once the global epoch has reached `e + 2` **and** every
//!   currently pinned thread has announced an epoch `>= e + 2`. Unlinking
//!   happens before retiring, and the global epoch only advances when all
//!   pinned threads have observed the current epoch, so a thread pinned
//!   two epochs later can no longer reach the node.
//!
//! The store keeps the per-epoch limbo lists (retired slot handles); this
//! module only tracks epochs and pins.
//!
//! A thread's pin slot doubles as its **stripe**: slots are claimed
//! lowest-free-first, so concurrently live threads hold distinct small
//! indices, and the store and the arena key their per-thread state (limbo
//! bags, vacant-slot caches, statistics) by [`stripe`]. Up to
//! [`STRIPES`] live threads never share a stripe; beyond that they share
//! correctly, just not for free.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum number of threads that can hold a pin slot simultaneously.
/// Slots are released when a thread exits, so this bounds concurrent
/// threads, not total threads over the process lifetime.
const MAX_THREADS: usize = 512;

/// Stripes the store and the arena spread per-thread state over.
pub(crate) const STRIPES: usize = 64;

/// Slot states below the first real epoch.
const SLOT_FREE: u64 = 0;
const SLOT_UNPINNED: u64 = 1;
/// Epochs start here so they never collide with the sentinels above.
const FIRST_EPOCH: u64 = 2;

/// One per-thread announcement cell, padded to its own cache line so pin
/// and unpin stores never false-share.
#[repr(align(64))]
struct PinSlot {
    /// `SLOT_FREE`, `SLOT_UNPINNED`, or the pinned epoch (`>= FIRST_EPOCH`).
    state: AtomicU64,
}

/// The process-global epoch domain.
pub struct EbrDomain {
    epoch: AtomicU64,
    slots: Box<[PinSlot]>,
}

impl EbrDomain {
    fn new() -> Self {
        EbrDomain {
            epoch: AtomicU64::new(FIRST_EPOCH),
            slots: (0..MAX_THREADS)
                .map(|_| PinSlot {
                    state: AtomicU64::new(SLOT_FREE),
                })
                .collect(),
        }
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The smallest epoch any pinned thread has announced, or `None` when
    /// no thread is pinned.
    pub fn min_pin(&self) -> Option<u64> {
        let mut min = None;
        for slot in self.slots.iter() {
            let s = slot.state.load(Ordering::SeqCst);
            if s >= FIRST_EPOCH && min.is_none_or(|m| s < m) {
                min = Some(s);
            }
        }
        min
    }

    /// Attempts to advance the global epoch by one. Succeeds only when
    /// every pinned thread has announced the current epoch (the invariant
    /// the reclamation rule relies on). Returns the epoch now current.
    pub fn try_advance(&self) -> u64 {
        let e = self.epoch.load(Ordering::SeqCst);
        for slot in self.slots.iter() {
            let s = slot.state.load(Ordering::SeqCst);
            if s >= FIRST_EPOCH && s != e {
                return e;
            }
        }
        match self
            .epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => e + 1,
            Err(now) => now,
        }
    }

    /// True when a node retired in `retire_epoch` can be reclaimed: both
    /// the global epoch and every pinned thread are at least two epochs
    /// past it.
    pub fn can_reclaim(&self, retire_epoch: u64) -> bool {
        if self.epoch() < retire_epoch + 2 {
            return false;
        }
        match self.min_pin() {
            Some(min) => min >= retire_epoch + 2,
            None => true,
        }
    }

    fn claim_slot(&self) -> usize {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .state
                .compare_exchange(SLOT_FREE, SLOT_UNPINNED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return i;
            }
        }
        panic!("EBR pin-slot table exhausted ({MAX_THREADS} concurrent threads)");
    }
}

/// The process-global domain. All stores in the process share it; pins are
/// per-thread, not per-store, so one announcement protects every arena.
pub fn domain() -> &'static EbrDomain {
    static DOMAIN: OnceLock<EbrDomain> = OnceLock::new();
    DOMAIN.get_or_init(EbrDomain::new)
}

struct ThreadSlot {
    idx: usize,
    nested: Cell<usize>,
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        domain().slots[self.idx]
            .state
            .store(SLOT_FREE, Ordering::SeqCst);
    }
}

thread_local! {
    static THREAD_SLOT: ThreadSlot = ThreadSlot {
        idx: domain().claim_slot(),
        nested: Cell::new(0),
    };
}

/// An active pin. While any guard is alive on a thread, no node retired
/// from now on can be reclaimed out from under that thread. Guards nest:
/// only the outermost pays the announcement stores.
pub struct PinGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// The calling thread's stripe (see the module docs), `< STRIPES`.
#[inline]
pub(crate) fn stripe() -> usize {
    THREAD_SLOT.with(|ts| ts.idx % STRIPES)
}

/// Pins the current thread to the global epoch. Cheap when already pinned.
pub fn pin() -> PinGuard {
    THREAD_SLOT.with(|ts| {
        let n = ts.nested.get();
        ts.nested.set(n + 1);
        if n == 0 {
            let slot = &domain().slots[ts.idx];
            // Announce the epoch we observed; re-check afterwards so a
            // concurrent advance cannot leave us announcing a stale epoch
            // without the advancer having seen our announcement.
            loop {
                let e = domain().epoch.load(Ordering::SeqCst);
                slot.state.store(e, Ordering::SeqCst);
                if domain().epoch.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
    });
    PinGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        // The thread-local may already be gone during thread teardown; its
        // own destructor released the slot in that case.
        let _ = THREAD_SLOT.try_with(|ts| {
            let n = ts.nested.get();
            ts.nested.set(n - 1);
            if n == 1 {
                domain().slots[ts.idx]
                    .state
                    .store(SLOT_UNPINNED, Ordering::SeqCst);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_blocks_advance_driven_reclaim() {
        let d = domain();
        let guard = pin();
        let e = d.epoch();
        // While pinned at e, garbage retired at e can never satisfy the
        // two-epoch rule.
        assert!(!d.can_reclaim(e));
        drop(guard);
        // Unpinned: advancing twice makes epoch-e garbage reclaimable
        // (other tests may hold pins concurrently, so only assert when the
        // advance actually happened).
        let _ = d.try_advance();
        let now = d.try_advance();
        if now >= e + 2 && d.min_pin().is_none_or(|m| m >= e + 2) {
            assert!(d.can_reclaim(e));
        }
    }

    #[test]
    fn nested_pins_keep_announcement() {
        let outer = pin();
        let announced = THREAD_SLOT.with(|ts| domain().slots[ts.idx].state.load(Ordering::SeqCst));
        assert!(announced >= FIRST_EPOCH);
        {
            let _inner = pin();
        }
        // Dropping the inner guard must not clear the announcement.
        let still = THREAD_SLOT.with(|ts| domain().slots[ts.idx].state.load(Ordering::SeqCst));
        assert_eq!(still, announced);
        drop(outer);
        let after = THREAD_SLOT.with(|ts| domain().slots[ts.idx].state.load(Ordering::SeqCst));
        assert_eq!(after, SLOT_UNPINNED);
    }
}
