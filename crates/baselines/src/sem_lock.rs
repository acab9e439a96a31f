//! The stock `mmap_sem` baseline behind the range-lock interface.
//!
//! The paper's "stock" configuration is a plain reader-writer semaphore: one
//! lock for the whole address space, no ranges at all. To let the VM
//! simulator (and any other subsystem) hold *every* strategy behind a single
//! `Box<dyn TwoPhaseRwRangeLock>`, [`WholeSpaceSem`] wraps [`RwSemaphore`] in the
//! [`RwRangeLock`] interface, ignoring the requested range: every shared
//! acquisition conflicts with every exclusive acquisition regardless of
//! overlap, which is exactly what `mmap_sem` does and exactly the cost the
//! range-lock variants exist to remove. Like the tree and segment baselines
//! it is a try-based two-phase lock: suspended acquisitions wait on the
//! semaphore's own queue and barge on every release.

use std::sync::Arc;

use range_lock::{Held, LockId, LockMode, Range, RwRangeLock};
use rl_sync::stats::WaitStats;
use rl_sync::wait::WaitPolicyKind;
use rl_sync::RwSemaphore;

/// An `mmap_sem`-style reader-writer semaphore exposed as a (range-ignoring)
/// [`RwRangeLock`].
///
/// # Examples
///
/// ```
/// use range_lock::{Range, RwRangeLock};
/// use rl_baselines::WholeSpaceSem;
///
/// let sem = WholeSpaceSem::new();
/// let r = sem.read(Range::new(0, 10));
/// // Disjoint ranges still conflict: there are no ranges here.
/// assert!(sem.try_write(Range::new(100, 200)).is_none());
/// drop(r);
/// ```
#[derive(Debug, Default)]
pub struct WholeSpaceSem {
    sem: RwSemaphore,
    /// Stamped on every token this lock issues.
    id: LockId,
}

impl WholeSpaceSem {
    /// Creates a semaphore blocking its waiters, like the kernel's.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a semaphore whose waiters wait through `wait`.
    pub fn with_wait(wait: WaitPolicyKind) -> Self {
        WholeSpaceSem {
            sem: RwSemaphore::with_wait(wait),
            id: LockId::default(),
        }
    }

    /// Reports wait times (and park/wake counts) into `stats`.
    pub fn with_stats(self, stats: Arc<WaitStats>) -> Self {
        WholeSpaceSem {
            sem: self.sem.with_stats(stats),
            id: self.id,
        }
    }
}

impl RwRangeLock for WholeSpaceSem {
    fn acquire(&self, range: Range, mode: LockMode) -> Held {
        self.sem.acquire(mode);
        self.id.issue(range, mode, 0)
    }

    fn try_acquire(&self, range: Range, mode: LockMode) -> Option<Held> {
        self.sem
            .try_acquire(mode)
            .then(|| self.id.issue(range, mode, 0))
    }

    fn release(&self, held: Held) {
        self.id.verify(&held);
        // SAFETY: This lock issued `held` (verified above), and issues a
        // token only once the semaphore is held in its mode; the token is
        // consumed here, so the hold is given back once.
        unsafe { self.sem.release(held.mode()) };
    }

    fn name(&self) -> &'static str {
        "stock"
    }
}

range_lock::try_based_two_phase!(WholeSpaceSem, lock => lock.sem.wait_queue());

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::TwoPhaseRwRangeLock;

    #[test]
    fn disjoint_ranges_conflict_like_mmap_sem() {
        let sem = WholeSpaceSem::new();
        let w = sem.write(Range::new(0, 10));
        assert!(sem.try_read(Range::new(1000, 2000)).is_none());
        drop(w);
        let r1 = sem.read(Range::new(0, 10));
        let r2 = sem.try_read(Range::new(1000, 2000)).expect("readers share");
        assert!(sem.try_write(Range::new(5000, 6000)).is_none());
        drop(r1);
        drop(r2);
        assert!(sem.try_write(Range::FULL).is_some());
    }

    #[test]
    fn erases_into_the_dyn_layer() {
        let lock: Box<dyn TwoPhaseRwRangeLock> = Box::new(WholeSpaceSem::new());
        assert_eq!(lock.name(), "stock");
        assert!(lock.readers_share());
        let g = lock.write(Range::new(0, 1));
        assert!(lock.try_read(Range::new(100, 200)).is_none());
        // The two-phase tier comes with the erasure: a blocked request
        // polls `None`, cancels to nothing, and resolves after the release.
        let mut pending = lock.enqueue(Range::new(100, 200), LockMode::Shared);
        assert!(lock.poll(&mut pending).is_none());
        lock.cancel(&mut pending);
        let gen = lock.wait_queue().generation();
        drop(g);
        assert!(lock.wait_queue().generation() > gen, "release wakes");
        let mut pending = lock.enqueue(Range::new(100, 200), LockMode::Shared);
        lock.release(lock.poll(&mut pending).expect("released"));
    }
}
