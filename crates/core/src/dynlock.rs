//! The dynamic lock is `dyn TwoPhaseRwRangeLock`.
//!
//! Both lock traits are object-safe: a held range is one concrete
//! [`Held`] token and a request in flight one concrete [`Pending`] token,
//! whatever the lock. So one pointer holds *any* of the paper's variants,
//! chosen by name at runtime — the benchmark harness, the VM simulator and
//! the server take `Box<dyn TwoPhaseRwRangeLock>` from the variant registry
//! in `rl-baselines`. Its guard is a [`RangeGuard`](crate::RangeGuard) by
//! value, like a static lock's: a dynamic acquisition costs one vtable call
//! to acquire and one to release, and allocates nothing.
//!
//! This module closes the loop: any owning pointer to the dyn lock is a
//! static-trait lock again, so a boxed lock plugs into generic code (the VM
//! simulator's `Mm`, the dynamic skip list, the benchmark drivers) and gets
//! the provided surface — `read` / `write`, timed and async acquisition,
//! the guard's in-place downgrade — unchanged. (`rl-file` holds the box
//! itself and calls through it; it needs none of this.)
//!
//! ```
//! use range_lock::{ListRangeLock, Range, RwListRangeLock, RwRangeLock, TwoPhaseRwRangeLock};
//!
//! let locks: Vec<Box<dyn TwoPhaseRwRangeLock>> =
//!     vec![Box::new(RwListRangeLock::new()), Box::new(ListRangeLock::new())];
//! for lock in &locks {
//!     let mut g = lock.write(Range::new(0, 10));
//!     assert!(g.downgrade());
//! }
//! ```

use std::ops::Deref;

use rl_sync::wait::WaitQueue;

use crate::list_core::Pending;
use crate::range::Range;
use crate::traits::{Held, LockMode, RwRangeLock};
use crate::twophase::TwoPhaseRwRangeLock;

/// The dyn lock's trait under its former name, kept only for the frozen
/// `benchmark/` harness; deleted when the harness is re-based.
pub use crate::twophase::TwoPhaseRwRangeLock as DynRwRangeLock;

/// Any owning pointer to the dyn lock — `Box<dyn TwoPhaseRwRangeLock>`
/// first of all, but equally an `Arc`, or a newtype that derefs to one — is
/// a static-trait lock again.
impl<T: Deref<Target = dyn TwoPhaseRwRangeLock> + Send + Sync> RwRangeLock for T {
    fn acquire(&self, range: Range, mode: LockMode) -> Held {
        (**self).acquire(range, mode)
    }

    fn try_acquire(&self, range: Range, mode: LockMode) -> Option<Held> {
        (**self).try_acquire(range, mode)
    }

    fn release(&self, held: Held) {
        (**self).release(held);
    }

    fn downgrade(&self, held: &mut Held) -> bool {
        (**self).downgrade(held)
    }

    fn readers_share(&self) -> bool {
        (**self).readers_share()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<T: Deref<Target = dyn TwoPhaseRwRangeLock> + Send + Sync> TwoPhaseRwRangeLock for T {
    fn enqueue(&self, range: Range, mode: LockMode) -> Pending {
        (**self).enqueue(range, mode)
    }

    fn poll(&self, pending: &mut Pending) -> Option<Held> {
        (**self).poll(pending)
    }

    fn cancel(&self, pending: &mut Pending) {
        (**self).cancel(pending);
    }

    fn wait_queue(&self) -> &WaitQueue {
        (**self).wait_queue()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    use crate::traits::LockId;
    use crate::{ListRangeLock, RwListRangeLock};

    #[test]
    fn boxed_rw_lock_round_trip() {
        let lock: Box<dyn TwoPhaseRwRangeLock> = Box::new(RwListRangeLock::new());
        assert_eq!(lock.name(), "list-rw");
        let r1 = lock.read(Range::new(0, 100));
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(50, 150)).is_none());
        drop(r1);
        drop(r2);
        drop(lock.write(Range::new(0, 100)));
    }

    #[test]
    fn adapter_composes_with_dyn_layer() {
        // The exclusive lock is its own reader-writer face.
        let lock: Box<dyn TwoPhaseRwRangeLock> = Box::new(ListRangeLock::new());
        assert_eq!(lock.name(), "list-ex");
        let r = lock.read(Range::new(0, 10));
        // Readers serialize: every acquisition is exclusive underneath.
        assert!(lock.try_read(Range::new(5, 15)).is_none());
        drop(r);
    }

    #[test]
    fn downgrade_survives_the_erasure() {
        // list-rw supports downgrade: through the dyn layer the write guard
        // must flip in place (readers admitted, writers still excluded).
        let lock: Box<dyn TwoPhaseRwRangeLock> = Box::new(RwListRangeLock::new());
        let mut w = lock.write(Range::new(0, 100));
        assert!(lock.try_read(Range::new(50, 150)).is_none());
        assert!(w.downgrade(), "list-rw downgrades through dyn");
        assert!(w.is_reader());
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(0, 100)).is_none());
        drop(r2);
        drop(w);

        // The exclusive lock downgrades trivially (stays exclusive).
        let ex: Box<dyn TwoPhaseRwRangeLock> = Box::new(ListRangeLock::new());
        let mut w = ex.write(Range::new(0, 10));
        assert!(w.downgrade(), "exclusive downgrade is the identity");
        assert!(!w.is_reader());
        drop(w);

        // A lock without downgrade support leaves the guard unchanged.
        struct NoDowngrade(RwListRangeLock);
        impl RwRangeLock for NoDowngrade {
            fn acquire(&self, range: Range, mode: LockMode) -> Held {
                self.0.acquire(range, mode)
            }
            fn try_acquire(&self, range: Range, mode: LockMode) -> Option<Held> {
                self.0.try_acquire(range, mode)
            }
            fn release(&self, held: Held) {
                self.0.release(held);
            }
            fn name(&self) -> &'static str {
                "no-downgrade"
            }
        }
        crate::try_based_two_phase!(NoDowngrade, lock => lock.0.wait_queue());
        let nd: Box<dyn TwoPhaseRwRangeLock> = Box::new(NoDowngrade(
            crate::list_core::tests::waiting(rl_sync::wait::WaitPolicyKind::Block),
        ));
        let mut w = nd.write(Range::new(0, 10));
        assert!(!w.downgrade(), "default declines");
        assert!(!w.is_reader());
        assert!(nd.try_read(Range::new(0, 10)).is_none());
        drop(w);
    }

    #[test]
    fn async_dyn_layer_acquires_blocks_and_cancels() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use std::task::{Wake, Waker};

        struct CountingWaker(AtomicU64);
        impl Wake for CountingWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = Arc::new(CountingWaker(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        let mut cx = Context::from_waker(&waker);

        let locks: Vec<Box<dyn TwoPhaseRwRangeLock>> = vec![
            Box::new(RwListRangeLock::new()),
            Box::new(ListRangeLock::new()),
        ];
        for lock in &locks {
            // Uncontended write resolves on the first poll (the generic
            // future over the boxed lock).
            let mut fut = lock.write_async(Range::new(0, 100));
            let guard = match Pin::new(&mut fut).poll(&mut cx) {
                Poll::Ready(g) => g,
                Poll::Pending => panic!("uncontended dyn future must resolve"),
            };
            // A conflicting write future stays pending until the release
            // wakes its registered waker.
            let mut blocked = lock.write_async(Range::new(50, 150));
            assert!(Pin::new(&mut blocked).poll(&mut cx).is_pending());
            let woken_before = count.0.load(Ordering::SeqCst);
            drop(guard);
            assert!(count.0.load(Ordering::SeqCst) > woken_before);
            // Dropping the still-pending future cancels it: no residue.
            drop(blocked);
            assert!(lock.try_write(Range::FULL).is_some());
        }
    }

    #[test]
    fn async_dyn_write_guard_still_downgrades() {
        use std::task::Waker;
        let lock: Box<dyn TwoPhaseRwRangeLock> = Box::new(RwListRangeLock::new());
        let mut cx = Context::from_waker(Waker::noop());
        let mut fut = lock.write_async(Range::new(0, 100));
        let mut w = match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("uncontended"),
        };
        assert!(w.downgrade(), "list-rw downgrades");
        assert!(lock.try_read(Range::new(50, 150)).is_some());
        assert!(lock.try_write(Range::new(0, 100)).is_none());
        drop(w);
    }

    #[test]
    fn readers_share_survives_the_erasure() {
        let rw: Box<dyn TwoPhaseRwRangeLock> = Box::new(RwListRangeLock::new());
        assert!(rw.readers_share());
        let ex: Box<dyn TwoPhaseRwRangeLock> = Box::new(ListRangeLock::new());
        assert!(!ex.readers_share());
    }

    #[test]
    fn boxed_two_phase_lock_round_trips_the_protocol() {
        let locks: Vec<Box<dyn TwoPhaseRwRangeLock>> = vec![
            Box::new(RwListRangeLock::new()),
            Box::new(ListRangeLock::new()),
        ];
        for lock in locks {
            // Uncontended enqueue/poll resolves; the held range still
            // downgrades through the erasure.
            let mut pending = lock.enqueue(Range::new(0, 100), LockMode::Exclusive);
            let mut w = lock.poll(&mut pending).expect("uncontended");
            assert!(lock.downgrade(&mut w), "both variants downgrade");

            // A contended write pending polls None until the conflict
            // clears; cancel leaves no residue.
            let mut pending = lock.enqueue(Range::new(50, 150), LockMode::Exclusive);
            assert!(lock.poll(&mut pending).is_none());
            lock.cancel(&mut pending);
            lock.release(w);
            drop(lock.try_write(Range::FULL).expect("no residue"));

            // The timed + async surfaces ride on the impl for free.
            assert!(lock
                .write_timeout(Range::new(0, 10), std::time::Duration::from_millis(50))
                .is_some());
            let mut cx = Context::from_waker(std::task::Waker::noop());
            let mut fut = lock.read_async(Range::new(0, 10));
            assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
        }
    }

    #[test]
    #[should_panic(expected = "no list lock issued")]
    fn foreign_pending_token_panics_on_poll() {
        let lock: Box<dyn TwoPhaseRwRangeLock> = Box::new(RwListRangeLock::new());
        // A token the list lock never issued carries no node: the poll must
        // panic loudly instead of dereferencing it.
        let mut foreign = Pending::try_based(Range::new(0, 10), LockMode::Shared);
        let _ = lock.poll(&mut foreign);
    }

    #[test]
    #[should_panic(expected = "never issued")]
    fn foreign_held_token_panics_on_release() {
        let lock: Box<dyn TwoPhaseRwRangeLock> = Box::new(RwListRangeLock::new());
        // A token another lock issued, with a word that is no node of this
        // lock's: the release must panic instead of dereferencing it.
        let forged = LockId::default().issue(Range::new(0, 10), LockMode::Exclusive, 0xdead);
        lock.release(forged);
    }

    #[test]
    fn dyn_guard_release_crosses_threads() {
        use std::sync::Arc;
        let lock: Arc<Box<dyn TwoPhaseRwRangeLock>> = Arc::new(Box::new(RwListRangeLock::new()));
        let g = lock.write(Range::new(0, 10));
        // The guard is Send: ship it to another thread for release.
        // (Scoped borrow: the guard borrows the lock, so join before drop.)
        std::thread::scope(|s| {
            s.spawn(move || drop(g));
        });
        assert!(lock.try_write(Range::new(0, 10)).is_some());
    }
}
