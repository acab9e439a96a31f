//! A per-thread VMA-lookup cache, after Linux's `vmacache`.
//!
//! The refined page-fault path (Section 5.3) acquires only the faulting page,
//! which removes the *lock* bottleneck — but every fault still walks the VMA
//! tree to find the covering [`Vma`]. Linux caches the last few
//! `vm_area_struct`s per thread (`mm/vmacache.c`) precisely because faults
//! are overwhelmingly repeat hits on a handful of hot VMAs; this module is
//! that cache for the simulator.
//!
//! # Invalidation
//!
//! A cache entry is a `(mm id, generation, Arc<Vma>)` triple. The generation
//! is the owning [`Mm`](crate::Mm)'s [`SeqCount`](rl_sync::SeqCount) value;
//! every structural operation (`mmap`, `munmap`, structural `mprotect`)
//! runs its full-range write critical section under the seqlock write
//! protocol, holding the generation odd until just before the guard is
//! released. A faulting thread reads the generation either under its read
//! acquisition (non-refined strategies, where it is always even) or
//! locklessly with a seqlock-style re-validation after the access check
//! (refined strategies — see [`Mm::page_fault`](crate::Mm::page_fault)), so:
//!
//! * generation unchanged and even ⇒ no structural operation committed *or
//!   overlapped* since the VMA was cached ⇒ the cached VMA is still in the
//!   tree;
//! * metadata-only updates (the speculative `mprotect` path) never touch the
//!   generation, but they update the VMA's atomic fields in place under the
//!   VMA's own seqcount — the lockless fast path re-validates its
//!   bounds + protection snapshot against it, so a moved-away address misses
//!   (falling back to the tree walk) and a mid-snapshot update forces the
//!   locked path.
//!
//! On any mm-id or generation mismatch the whole cache flushes: serving
//! another address space's (or epoch's) VMAs is never acceptable.
//!
//! # Borrowing, not cloning
//!
//! A hit is served by `probe`, which runs the caller's check on a `&Vma`
//! borrowed from the slot instead of handing out an `Arc<Vma>` clone: the
//! slot's `Arc` keeps the VMA alive for the borrow, so a hit changes no
//! reference count (a clone and its drop would be two atomic RMWs on every
//! fault). The check runs inside this thread's `RefCell` borrow, so it cannot
//! re-enter the cache, and no slot is replaced while it runs. Only a miss
//! pays for an `Arc` clone, once, in `store`.

use std::cell::RefCell;
use std::sync::Arc;

use crate::vma::Vma;

/// Number of per-thread cache slots (Linux uses 4).
pub const VMACACHE_SLOTS: usize = 4;

struct ThreadCache {
    mm_id: u64,
    generation: u64,
    slots: [Option<Arc<Vma>>; VMACACHE_SLOTS],
    /// Round-robin replacement cursor.
    next: usize,
}

impl ThreadCache {
    const fn empty() -> Self {
        ThreadCache {
            mm_id: 0,
            generation: 0,
            slots: [const { None }; VMACACHE_SLOTS],
            next: 0,
        }
    }

    /// Rebinds the cache to `(mm_id, generation)`, dropping every slot.
    fn rebind(&mut self, mm_id: u64, generation: u64) {
        self.slots = [const { None }; VMACACHE_SLOTS];
        self.mm_id = mm_id;
        self.generation = generation;
        self.next = 0;
    }
}

thread_local! {
    static CACHE: RefCell<ThreadCache> = const { RefCell::new(ThreadCache::empty()) };
}

/// Runs `check` on the VMA covering `addr` in this thread's cache for
/// `(mm_id, generation)`, or returns `None` if no slot covers it.
///
/// The VMA is borrowed from its slot, never cloned. `check` runs while the
/// cache is borrowed, so it must not call back into this module (the
/// `RefCell` would panic). A mismatched mm id or generation flushes the
/// cache (and misses).
pub(crate) fn probe<R>(
    mm_id: u64,
    generation: u64,
    addr: u64,
    check: impl FnOnce(&Vma) -> R,
) -> Option<R> {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.mm_id != mm_id || cache.generation != generation {
            cache.rebind(mm_id, generation);
            return None;
        }
        cache
            .slots
            .iter()
            .flatten()
            .find(|vma| vma.contains(addr))
            .map(|vma| check(vma))
    })
}

/// Caches `vma` for `(mm_id, generation)` in this thread's cache.
pub(crate) fn store(mm_id: u64, generation: u64, vma: &Arc<Vma>) {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.mm_id != mm_id || cache.generation != generation {
            cache.rebind(mm_id, generation);
        }
        let slot = cache.next;
        cache.slots[slot] = Some(Arc::clone(vma));
        cache.next = (slot + 1) % VMACACHE_SLOTS;
    });
}

/// Drops every entry of this thread's cache.
///
/// Only needed by tests and benchmarks that reuse one thread across many
/// `Mm`s and want cold-cache behaviour; normal invalidation is automatic.
pub fn flush() {
    CACHE.with(|cache| cache.borrow_mut().rebind(0, 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Protection;

    fn vma(start: u64, end: u64) -> Arc<Vma> {
        Arc::new(Vma::new(start, end, Protection::READ_WRITE))
    }

    /// Probes `addr` and returns the address of the VMA it hit.
    fn hit(mm_id: u64, generation: u64, addr: u64) -> Option<*const Vma> {
        probe(mm_id, generation, addr, |vma| vma as *const Vma)
    }

    #[test]
    fn hit_after_store_miss_after_generation_bump() {
        flush();
        let v = vma(0x1000, 0x5000);
        store(7, 1, &v);
        let hit_vma = hit(7, 1, 0x2000).expect("same mm and generation hits");
        assert!(std::ptr::eq(hit_vma, Arc::as_ptr(&v)));
        // Bumped generation: the entry must not survive.
        assert!(hit(7, 2, 0x2000).is_none());
        // And the flush is total: the old generation is gone too.
        assert!(hit(7, 1, 0x2000).is_none());
    }

    #[test]
    fn entries_do_not_leak_across_mms() {
        flush();
        let v = vma(0x1000, 0x5000);
        store(1, 1, &v);
        assert!(hit(2, 1, 0x2000).is_none());
    }

    #[test]
    fn replacement_is_round_robin_over_four_slots() {
        flush();
        let vmas: Vec<_> = (0..5)
            .map(|i| vma(i * 0x10000, i * 0x10000 + 0x1000))
            .collect();
        for v in &vmas {
            store(3, 1, v);
        }
        // Slot 0 was overwritten by the fifth store; the rest survive.
        assert!(hit(3, 1, vmas[0].start()).is_none());
        for v in &vmas[1..] {
            assert!(hit(3, 1, v.start()).is_some());
        }
    }

    #[test]
    fn boundary_moves_are_respected_without_invalidation() {
        flush();
        let v = vma(0x1000, 0x5000);
        store(9, 4, &v);
        // A metadata boundary move shrinks the VMA in place.
        v.set_end(0x2000);
        assert!(hit(9, 4, 0x3000).is_none(), "moved-away address must miss");
        assert!(hit(9, 4, 0x1800).is_some(), "still-covered address hits");
    }

    #[test]
    fn a_hit_borrows_the_slot_without_touching_the_count() {
        flush();
        let v = vma(0x1000, 0x5000);
        store(5, 2, &v);
        assert_eq!(Arc::strong_count(&v), 2, "the test and the slot");
        // A clone handed out by the hit would read 3 here.
        assert_eq!(probe(5, 2, 0x2000, |_| Arc::strong_count(&v)), Some(2));
        assert_eq!(Arc::strong_count(&v), 2, "nothing to drop after the hit");
        // A mismatched id or generation still flushes (dropping the slot's
        // reference) and misses without running the check.
        assert_eq!(probe(6, 2, 0x2000, |_| unreachable!()), None::<()>);
        assert_eq!(Arc::strong_count(&v), 1, "the flush dropped the slot");
        store(5, 2, &v);
        assert_eq!(probe(5, 3, 0x2000, |_| unreachable!()), None::<()>);
        assert_eq!(Arc::strong_count(&v), 1, "the flush dropped the slot");
        assert_eq!(hit(5, 2, 0x2000), None, "the flush is total");
    }
}
