//! The object-safe (dynamic-dispatch) face of the lock-trait family.
//!
//! [`RwRangeLock`] and [`TwoPhaseRwRangeLock`] use generic associated guard
//! types, which makes them fast (guards are concrete, drops are static calls)
//! but not object-safe: you cannot put a `ListRangeLock` and a
//! `TreeRangeLock` behind the same `dyn` pointer. The benchmark harness, the
//! VM simulator and the server want exactly that — one variable that holds
//! *any* of the paper's variants, chosen by name at runtime.
//!
//! This module provides the dynamic layer once, as one trait:
//!
//! * [`DynRwRangeLock`] mirrors both static traits — blocking and `try_`
//!   acquisition plus the enqueue / poll / cancel protocol — with methods
//!   returning a [`DynRangeGuard`], a boxed type-erased guard. Pending
//!   tokens need no erasure: [`Pending`] is one concrete type for every
//!   lock, so a dyn enqueue allocates nothing;
//! * a blanket impl makes **every** static two-phase lock (and any future
//!   one) a dyn lock: `Box<TreeRangeLock>` coerces to
//!   `Box<dyn DynRwRangeLock>` with no per-lock code;
//! * `Box<dyn DynRwRangeLock>` implements [`RwRangeLock`] and
//!   [`TwoPhaseRwRangeLock`] itself, closing the loop: a boxed dynamic lock
//!   plugs back into every generic subsystem (the file store, the lock
//!   table, the benchmark drivers) unchanged, and inherits the timed and
//!   async surfaces ([`crate::Acquire`] over the boxed lock).
//!   [`RwRangeLock::downgrade`] survives the erasure too —
//!   write guards are boxed together with their lock, so a registry-built
//!   `list-rw` downgrades in place through the dyn layer just like its
//!   static twin (locks without downgrade support still return `Err`).
//!
//! The variant registry in `rl-baselines` (`rl_baselines::registry`) builds
//! on this layer to enumerate the paper's five lock variants by name and
//! construct them wait-policy-aware.
//!
//! # Cost
//!
//! Each dynamic acquisition adds one vtable call and one heap allocation for
//! the boxed guard. That is fine for benchmarks driving millions of
//! operations through a variant chosen at runtime, and irrelevant for tests;
//! hot paths that know their lock type statically should keep using the
//! generic traits.
//!
//! # Examples
//!
//! ```
//! use range_lock::{DynRwRangeLock, ListRangeLock, Range, RwListRangeLock};
//!
//! let locks: Vec<Box<dyn DynRwRangeLock>> = vec![
//!     Box::new(RwListRangeLock::new()),
//!     Box::new(ListRangeLock::new()),
//! ];
//! for lock in &locks {
//!     let g = lock.write_dyn(Range::new(0, 10));
//!     drop(g);
//! }
//! ```

use std::ops::Deref;
use std::time::Instant;

use rl_sync::wait::WaitQueue;

use crate::list_core::Pending;
use crate::range::Range;
use crate::traits::RwRangeLock;
use crate::twophase::TwoPhaseRwRangeLock;

/// Boxable guard interface. Private — the only way to obtain one is through
/// the dyn traits below.
trait ErasedGuard: Send {
    /// Attempts an in-place write→read downgrade; `false` means the
    /// underlying lock (or this guard kind) does not support it.
    fn downgrade_erased(&mut self) -> bool;
}

/// A read guard (held for its Drop impl): no downgrade.
struct PlainGuard<G: Send>(G);

impl<G: Send> ErasedGuard for PlainGuard<G> {
    fn downgrade_erased(&mut self) -> bool {
        false
    }
}

/// State of an erased write guard across a downgrade.
enum WriteState<'a, L: RwRangeLock + 'a> {
    Write(L::WriteGuard<'a>),
    Read(L::ReadGuard<'a>),
    /// Transient state while the guard is moved through `downgrade`.
    Moving,
}

/// A write guard boxed together with its lock, so the lock's
/// [`RwRangeLock::downgrade`] stays reachable through the erasure.
struct WriteGuardErased<'a, L: RwRangeLock + 'a> {
    lock: &'a L,
    state: WriteState<'a, L>,
}

impl<'a, L> ErasedGuard for WriteGuardErased<'a, L>
where
    L: RwRangeLock + 'a,
    L::ReadGuard<'a>: Send,
    L::WriteGuard<'a>: Send,
{
    fn downgrade_erased(&mut self) -> bool {
        match std::mem::replace(&mut self.state, WriteState::Moving) {
            WriteState::Write(w) => match self.lock.downgrade(w) {
                Ok(r) => {
                    self.state = WriteState::Read(r);
                    true
                }
                Err(w) => {
                    self.state = WriteState::Write(w);
                    false
                }
            },
            // Already downgraded: idempotent success.
            read => {
                self.state = read;
                true
            }
        }
    }
}

/// A type-erased, boxed RAII guard: releases its range when dropped.
///
/// Returned by every acquiring method of [`DynRwRangeLock`]; the
/// concrete guard type (and therefore the release logic) lives behind the
/// box. The guard is [`Send`] so it can be released from another thread,
/// which the `rl-file` lock table relies on.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct DynRangeGuard<'a>(Box<dyn ErasedGuard + 'a>);

impl std::fmt::Debug for DynRangeGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DynRangeGuard(..)")
    }
}

/// Boxes a freshly acquired write guard together with its lock.
fn erase_write<'a, L>(lock: &'a L, guard: L::WriteGuard<'a>) -> DynRangeGuard<'a>
where
    L: RwRangeLock,
    L::ReadGuard<'a>: Send,
    L::WriteGuard<'a>: Send,
{
    DynRangeGuard(Box::new(WriteGuardErased {
        lock,
        state: WriteState::Write(guard),
    }))
}

/// Boxes a freshly acquired read guard.
fn erase_read<'a, G: Send + 'a>(guard: G) -> DynRangeGuard<'a> {
    DynRangeGuard(Box::new(PlainGuard(guard)))
}

/// Object-safe mirror of [`RwRangeLock`] + [`TwoPhaseRwRangeLock`]: a range
/// lock usable through `dyn`.
///
/// Automatically implemented for every [`TwoPhaseRwRangeLock`] whose guards
/// are [`Send`] (all of them in this workspace); never implement it by hand.
/// Closing the loop, `Box<dyn DynRwRangeLock>` implements both static traits
/// itself, which makes the *whole* surface — timed acquisition, the
/// acquisition futures, and the `rl-file` lock table's batched, async and
/// deadlock-checked paths — available on a variant chosen by name at
/// runtime.
pub trait DynRwRangeLock: Send + Sync {
    /// Acquires `range` in shared mode, waiting for conflicting writers.
    fn read_dyn(&self, range: Range) -> DynRangeGuard<'_>;

    /// Acquires `range` in exclusive mode, waiting for overlapping holders.
    fn write_dyn(&self, range: Range) -> DynRangeGuard<'_>;

    /// Bounded shared acquisition attempt; see the
    /// [`try_` contract](crate::traits#try_-semantics-normative).
    fn try_read_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>>;

    /// Bounded exclusive acquisition attempt; see the
    /// [`try_` contract](crate::traits#try_-semantics-normative).
    fn try_write_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>>;

    /// Whether overlapping shared acquisitions can actually be held
    /// concurrently, matching [`RwRangeLock::readers_share`].
    fn readers_share_dyn(&self) -> bool;

    /// Short, stable identifier (e.g. `"list-rw"`), matching
    /// [`RwRangeLock::name`].
    fn dyn_name(&self) -> &'static str;

    /// Starts a two-phase shared acquisition; see
    /// [`TwoPhaseRwRangeLock::enqueue_read`].
    fn enqueue_read_dyn(&self, range: Range) -> Pending;

    /// Drives a pending shared acquisition without waiting; see
    /// [`TwoPhaseRwRangeLock::poll_read`].
    fn poll_read_dyn(&self, pending: &mut Pending) -> Option<DynRangeGuard<'_>>;

    /// Starts a two-phase exclusive acquisition; see
    /// [`TwoPhaseRwRangeLock::enqueue_write`].
    fn enqueue_write_dyn(&self, range: Range) -> Pending;

    /// Drives a pending exclusive acquisition without waiting; see
    /// [`TwoPhaseRwRangeLock::poll_write`].
    fn poll_write_dyn(&self, pending: &mut Pending) -> Option<DynRangeGuard<'_>>;

    /// Abandons a pending acquisition of either mode; see
    /// [`TwoPhaseRwRangeLock::cancel`].
    fn cancel_dyn(&self, pending: &mut Pending);

    /// The queue suspended acquisitions wait on; see
    /// [`TwoPhaseRwRangeLock::wait_queue`].
    fn wait_queue_dyn(&self) -> &WaitQueue;

    /// Keyed policy-aware deadline wait; see
    /// [`TwoPhaseRwRangeLock::wait_deadline_keyed`].
    fn wait_deadline_keyed_dyn(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: Instant,
    ) -> bool;
}

impl<L> DynRwRangeLock for L
where
    L: TwoPhaseRwRangeLock,
    for<'a> L::ReadGuard<'a>: Send,
    for<'a> L::WriteGuard<'a>: Send,
{
    fn read_dyn(&self, range: Range) -> DynRangeGuard<'_> {
        erase_read(self.read(range))
    }

    fn write_dyn(&self, range: Range) -> DynRangeGuard<'_> {
        erase_write(self, self.write(range))
    }

    fn try_read_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>> {
        self.try_read(range).map(erase_read)
    }

    fn try_write_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>> {
        self.try_write(range).map(|g| erase_write(self, g))
    }

    fn readers_share_dyn(&self) -> bool {
        self.readers_share()
    }

    fn dyn_name(&self) -> &'static str {
        self.name()
    }

    fn enqueue_read_dyn(&self, range: Range) -> Pending {
        self.enqueue_read(range)
    }

    fn poll_read_dyn(&self, pending: &mut Pending) -> Option<DynRangeGuard<'_>> {
        self.poll_read(pending).map(erase_read)
    }

    fn enqueue_write_dyn(&self, range: Range) -> Pending {
        self.enqueue_write(range)
    }

    fn poll_write_dyn(&self, pending: &mut Pending) -> Option<DynRangeGuard<'_>> {
        self.poll_write(pending).map(|g| erase_write(self, g))
    }

    fn cancel_dyn(&self, pending: &mut Pending) {
        self.cancel(pending);
    }

    fn wait_queue_dyn(&self) -> &WaitQueue {
        self.wait_queue()
    }

    fn wait_deadline_keyed_dyn(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: Instant,
    ) -> bool {
        self.wait_deadline_keyed(key, cond, deadline)
    }
}

/// Closing the loop: any owning pointer to a dyn lock — `Box<dyn
/// DynRwRangeLock>` first of all, but equally an `Arc`, or a nominal newtype
/// that derefs to one (`rl-server` needs such a newtype: rustc's auto-trait
/// check on a spawned `'static` future over-generalizes the object lifetime
/// of a bare `Box<dyn Trait>` it captures) — is a static-trait lock again.
impl<T> RwRangeLock for T
where
    T: Deref<Target = dyn DynRwRangeLock> + Send + Sync,
{
    type ReadGuard<'a>
        = DynRangeGuard<'a>
    where
        Self: 'a;
    type WriteGuard<'a>
        = DynRangeGuard<'a>
    where
        Self: 'a;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        (**self).read_dyn(range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        (**self).write_dyn(range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        (**self).try_read_dyn(range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        (**self).try_write_dyn(range)
    }

    fn downgrade<'a>(
        &'a self,
        mut guard: Self::WriteGuard<'a>,
    ) -> Result<Self::ReadGuard<'a>, Self::WriteGuard<'a>> {
        if guard.0.downgrade_erased() {
            Ok(guard)
        } else {
            Err(guard)
        }
    }

    fn readers_share(&self) -> bool {
        (**self).readers_share_dyn()
    }

    fn name(&self) -> &'static str {
        (**self).dyn_name()
    }
}

impl<T> TwoPhaseRwRangeLock for T
where
    T: Deref<Target = dyn DynRwRangeLock> + Send + Sync,
{
    fn enqueue_read(&self, range: Range) -> Pending {
        (**self).enqueue_read_dyn(range)
    }

    fn poll_read<'a>(&'a self, pending: &mut Pending) -> Option<Self::ReadGuard<'a>> {
        (**self).poll_read_dyn(pending)
    }

    fn enqueue_write(&self, range: Range) -> Pending {
        (**self).enqueue_write_dyn(range)
    }

    fn poll_write<'a>(&'a self, pending: &mut Pending) -> Option<Self::WriteGuard<'a>> {
        (**self).poll_write_dyn(pending)
    }

    fn cancel(&self, pending: &mut Pending) {
        (**self).cancel_dyn(pending);
    }

    fn wait_queue(&self) -> &WaitQueue {
        (**self).wait_queue_dyn()
    }

    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: Instant,
    ) -> bool {
        (**self).wait_deadline_keyed_dyn(key, cond, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    use crate::{ListRangeLock, RwListRangeLock};

    #[test]
    fn boxed_rw_lock_round_trip() {
        let lock: Box<dyn DynRwRangeLock> = Box::new(RwListRangeLock::new());
        assert_eq!(RwRangeLock::name(&lock), "list-rw");
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
        let lock: Box<dyn DynRwRangeLock> = Box::new(ListRangeLock::new());
        assert_eq!(RwRangeLock::name(&lock), "list-ex");
        let r = lock.read(Range::new(0, 10));
        // Readers serialize: every acquisition is exclusive underneath.
        assert!(lock.try_read(Range::new(5, 15)).is_none());
        drop(r);
    }

    #[test]
    fn downgrade_survives_the_erasure() {
        // list-rw supports downgrade: through the dyn layer the write guard
        // must flip in place (readers admitted, writers still excluded).
        let lock: Box<dyn DynRwRangeLock> = Box::new(RwListRangeLock::new());
        let w = lock.write(Range::new(0, 100));
        assert!(lock.try_read(Range::new(50, 150)).is_none());
        let r = lock.downgrade(w).expect("list-rw downgrades through dyn");
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(0, 100)).is_none());
        drop(r2);
        drop(r);

        // The exclusive lock downgrades trivially (stays exclusive).
        let ex: Box<dyn DynRwRangeLock> = Box::new(ListRangeLock::new());
        let w = ex.write(Range::new(0, 10));
        let g = ex
            .downgrade(w)
            .expect("exclusive downgrade is the identity");
        drop(g);

        // A lock without downgrade support returns the guard unchanged.
        struct NoDowngrade<P: rl_sync::wait::WaitPolicy>(RwListRangeLock<P>);
        impl<P: rl_sync::wait::WaitPolicy> RwRangeLock for NoDowngrade<P> {
            type ReadGuard<'a> = crate::ListGuard<'a, crate::ReaderWriter, P>;
            type WriteGuard<'a> = crate::ListGuard<'a, crate::ReaderWriter, P>;
            fn read(&self, range: Range) -> Self::ReadGuard<'_> {
                self.0.read(range)
            }
            fn write(&self, range: Range) -> Self::WriteGuard<'_> {
                self.0.write(range)
            }
            fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
                self.0.try_read(range)
            }
            fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
                self.0.try_write(range)
            }
            fn name(&self) -> &'static str {
                "no-downgrade"
            }
        }
        crate::try_based_two_phase!(NoDowngrade<P>, lock => lock.0.wait_queue());
        let nd: Box<dyn DynRwRangeLock> = Box::new(NoDowngrade(RwListRangeLock::<
            rl_sync::wait::Block,
        >::with_policy()));
        let w = nd.write(Range::new(0, 10));
        let w = nd.downgrade(w).expect_err("default declines");
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

        let locks: Vec<Box<dyn DynRwRangeLock>> = vec![
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
            assert!(lock.try_write_dyn(Range::FULL).is_some());
        }
    }

    #[test]
    fn async_dyn_write_guard_still_downgrades() {
        use std::task::Waker;
        let lock: Box<dyn DynRwRangeLock> = Box::new(RwListRangeLock::new());
        let mut cx = Context::from_waker(Waker::noop());
        let mut fut = lock.write_async(Range::new(0, 100));
        let w = match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("uncontended"),
        };
        let r = lock.downgrade(w).expect("list-rw downgrades");
        assert!(lock.try_read_dyn(Range::new(50, 150)).is_some());
        assert!(lock.try_write_dyn(Range::new(0, 100)).is_none());
        drop(r);
    }

    #[test]
    fn readers_share_survives_the_erasure() {
        let rw: Box<dyn DynRwRangeLock> = Box::new(RwListRangeLock::new());
        assert!(rw.readers_share());
        let ex: Box<dyn DynRwRangeLock> = Box::new(ListRangeLock::new());
        assert!(!ex.readers_share());
    }

    #[test]
    fn boxed_two_phase_lock_round_trips_the_protocol() {
        let locks: Vec<Box<dyn DynRwRangeLock>> = vec![
            Box::new(RwListRangeLock::new()),
            Box::new(ListRangeLock::new()),
        ];
        for lock in locks {
            // Uncontended enqueue/poll resolves; the write guard still
            // downgrades through the erasure.
            let mut pending = lock.enqueue_write(Range::new(0, 100));
            let w = lock.poll_write(&mut pending).expect("uncontended");
            let r = lock.downgrade(w).expect("both variants downgrade");

            // A contended write pending polls None until the conflict
            // clears; cancel leaves no residue.
            let mut pending = lock.enqueue_write(Range::new(50, 150));
            assert!(lock.poll_write(&mut pending).is_none());
            lock.cancel(&mut pending);
            drop(r);
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
        let lock: Box<dyn DynRwRangeLock> = Box::new(RwListRangeLock::new());
        // A token the list lock never issued carries no node: the poll must
        // panic loudly instead of dereferencing it.
        let mut foreign = Pending::try_based(Range::new(0, 10));
        let _ = lock.poll_read_dyn(&mut foreign);
    }

    #[test]
    fn dyn_guard_release_crosses_threads() {
        use std::sync::Arc;
        let lock: Arc<Box<dyn DynRwRangeLock>> = Arc::new(Box::new(RwListRangeLock::new()));
        let g = lock.write(Range::new(0, 10));
        // `DynRangeGuard` is Send: ship it to another thread for release.
        // (Scoped borrow: the guard borrows the lock, so join before drop.)
        std::thread::scope(|s| {
            s.spawn(move || drop(g));
        });
        assert!(lock.try_write(Range::new(0, 10)).is_some());
    }
}
