//! The stock `mmap_sem` baseline behind the range-lock interface.
//!
//! The paper's "stock" configuration is a plain reader-writer semaphore: one
//! lock for the whole address space, no ranges at all. To let the VM
//! simulator (and any other subsystem) hold *every* strategy behind a single
//! `Box<dyn DynRwRangeLock>`, [`WholeSpaceSem`] wraps [`RwSemaphore`] in the
//! [`RwRangeLock`] interface, ignoring the requested range: every shared
//! acquisition conflicts with every exclusive acquisition regardless of
//! overlap, which is exactly what `mmap_sem` does and exactly the cost the
//! range-lock variants exist to remove. Like the tree and segment baselines
//! it is a try-based two-phase lock: suspended acquisitions wait on the
//! semaphore's own queue and barge on every release.

use std::sync::Arc;

use range_lock::{Range, RwRangeLock};
use rl_sync::stats::WaitStats;
use rl_sync::wait::{Block, WaitPolicy};
use rl_sync::{RwSemReadGuard, RwSemWriteGuard, RwSemaphore};

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
pub struct WholeSpaceSem<P: WaitPolicy = Block> {
    sem: RwSemaphore<P>,
}

impl WholeSpaceSem<Block> {
    /// Creates a semaphore blocking its waiters, like the kernel's.
    pub fn new() -> Self {
        Self::with_policy()
    }
}

impl<P: WaitPolicy> WholeSpaceSem<P> {
    /// Creates a semaphore whose waiters wait through policy `P`.
    pub fn with_policy() -> Self {
        WholeSpaceSem {
            sem: RwSemaphore::with_policy(),
        }
    }

    /// Creates a semaphore reporting wait times into `stats`.
    pub fn with_policy_stats(stats: Arc<WaitStats>) -> Self {
        WholeSpaceSem {
            sem: RwSemaphore::with_policy_stats(stats),
        }
    }
}

impl<P: WaitPolicy> RwRangeLock for WholeSpaceSem<P> {
    type ReadGuard<'a>
        = RwSemReadGuard<'a, P>
    where
        Self: 'a;
    type WriteGuard<'a>
        = RwSemWriteGuard<'a, P>
    where
        Self: 'a;

    fn read(&self, _range: Range) -> Self::ReadGuard<'_> {
        self.sem.read()
    }

    fn write(&self, _range: Range) -> Self::WriteGuard<'_> {
        self.sem.write()
    }

    fn try_read(&self, _range: Range) -> Option<Self::ReadGuard<'_>> {
        self.sem.try_read()
    }

    fn try_write(&self, _range: Range) -> Option<Self::WriteGuard<'_>> {
        self.sem.try_write()
    }

    fn name(&self) -> &'static str {
        "stock"
    }
}

range_lock::try_based_two_phase!(WholeSpaceSem<P>, lock => lock.sem.wait_queue());

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::DynRwRangeLock;

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
        let lock: Box<dyn DynRwRangeLock> = Box::new(WholeSpaceSem::new());
        assert_eq!(lock.dyn_name(), "stock");
        assert!(lock.readers_share_dyn());
        let g = lock.write_dyn(Range::new(0, 1));
        assert!(lock.try_read_dyn(Range::new(100, 200)).is_none());
        // The two-phase tier comes with the erasure: a blocked request
        // polls `None`, cancels to nothing, and resolves after the release.
        let mut pending = lock.enqueue_read_dyn(Range::new(100, 200));
        assert!(lock.poll_read_dyn(&mut pending).is_none());
        lock.cancel_dyn(&mut pending);
        let gen = lock.wait_queue_dyn().generation();
        drop(g);
        assert!(lock.wait_queue_dyn().generation() > gen, "release wakes");
        let mut pending = lock.enqueue_read_dyn(Range::new(100, 200));
        assert!(lock.poll_read_dyn(&mut pending).is_some());
    }
}
