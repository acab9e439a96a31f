//! The cancellable two-phase acquisition protocol and the two ways of
//! waiting that ride on it: timed and async acquisition.
//!
//! The blocking interface ([`RwRangeLock`]) models a waiter as a thread:
//! `read`/`write` do not return until the range is held, so at M concurrent
//! owners the caller burns M threads, and a waiter cannot give up — there is
//! no way out of `write` except owning the range. [`TwoPhaseRwRangeLock`]
//! decomposes acquisition into an explicit, resumable protocol:
//!
//! 1. **enqueue** — register the request (allocate its node). No waiting.
//! 2. **poll** — drive the request as far as it can get without waiting:
//!    run the insertion traversal, back out (or, for published reader nodes,
//!    stay put) on conflict. Returns the guard when the range is held;
//!    otherwise the caller registers a waiter — a thread *or* a
//!    [`core::task::Waker`] — on the lock's [`WaitQueue`] and re-polls after
//!    a wake.
//! 3. **cancel** — abandon a pending request, unlinking its node if it was
//!    already published and waking successors. This is the step the blocking
//!    API fundamentally cannot express: a blocking waiter can only leave by
//!    owning the range first (or leaking its node).
//!
//! Those three steps (per mode), the lock's wait queue and its policy-aware
//! deadline wait are all a lock implements; the state between polls lives in
//! one concrete token type, [`Pending`]. Both other ways of acquiring are
//! provided methods written once here, over one value, [`Acquire`]:
//!
//! * **Timed acquisition** — [`read_timeout`](TwoPhaseRwRangeLock::read_timeout) /
//!   [`write_timeout`](TwoPhaseRwRangeLock::write_timeout): poll, wait with a
//!   deadline (under the `Block` policy a deadline *park*, under the
//!   spinning policies a clock-checked backoff loop), cancel on expiry.
//! * **Async acquisition** — [`read_async`](TwoPhaseRwRangeLock::read_async) /
//!   [`write_async`](TwoPhaseRwRangeLock::write_async) return a
//!   cancellation-safe [`Acquire`] future resolving to the ordinary RAII
//!   guard. Dropping it mid-wait cancels the pending request and leaves no
//!   residue, so `select!`-style races and task aborts are safe. A waiter
//!   costs a waker registration, not a thread: millions of pending owners
//!   can be multiplexed onto a few worker threads (see the `rl-exec` crate
//!   and the `asyncbench` experiment).
//!
//! Batched, all-or-nothing acquisition is not a lock method: the `rl-file`
//! lock table's `LockOwner::lock_many` (and its `try_` / async forms) builds
//! it from the same enqueue / poll / cancel steps, in ascending address
//! order.
//!
//! Locks whose bounded attempt already sees a consistent view (the tree,
//! segment and semaphore baselines) get the protocol from
//! [`try_based_two_phase!`](crate::try_based_two_phase): poll is `try_`,
//! cancel has nothing to undo.
//!
//! # Waking, whatever the policy
//!
//! Async waiters never spin, *regardless of the lock's wait policy*: the
//! future registers a waker on the lock's [`WaitQueue`] and suspends. Every
//! release path wakes that queue — waking is the queue's job, not the
//! policy's, so a lock whose blocking waiters spin still bumps the
//! generation and claims registered wakers (see `rl_sync::wait`). Lost
//! wakeups are excluded by the snapshot-register-recheck protocol
//! documented there and written once as [`WakerSlot::step`]: the future
//! snapshots the queue generation *before* polling the lock, and a
//! registration against a stale snapshot fails, forcing a re-poll.
//!
//! # Fairness interaction (§4.3)
//!
//! Two-phase acquisitions bypass the impatience gate: each poll is one
//! bounded attempt, and carrying impatient status across a suspension would
//! require holding a gate permit while descheduled, blocking the very
//! threads the gate exists to protect. Under a fairness-enabled lock, async
//! and timed waiters therefore compete as permanently "patient" threads.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use rl_sync::{WaitQueue, WakerSlot};

use crate::list_core::Pending;
use crate::range::Range;
use crate::traits::RwRangeLock;

/// A range lock that supports the cancellable two-phase acquisition
/// protocol (enqueue / poll / cancel) in both modes.
///
/// Implementations must uphold, for every method, the protocol contract:
///
/// * `poll_*` never waits (no spinning, yielding, or parking) and never
///   fails spuriously — `None` means a conflicting holder was observed;
/// * after `poll_*` returns `None`, some release/downgrade/cancel wake of
///   [`TwoPhaseRwRangeLock::wait_queue`] — under the token's
///   [`Pending::wait_key`] or broadcast — is guaranteed once the observed
///   conflict clears (so a waiter registered per the queue's
///   snapshot-register-recheck protocol cannot sleep forever);
/// * `cancel` leaves the lock as if the request had never been made
///   (pending-state residue is unlinked and successors are woken) and is
///   idempotent;
/// * a token is only ever passed back to the lock and mode that issued it.
///
/// The seven required methods have no defaults on purpose: a wrapper that
/// forgets to forward one must fail to compile, not silently degrade the
/// list lock's published-reader protocol to try-based barging.
pub trait TwoPhaseRwRangeLock: RwRangeLock {
    /// **Enqueue**: starts a two-phase shared acquisition of `range`.
    fn enqueue_read(&self, range: Range) -> Pending;

    /// **Poll**: drives a pending shared acquisition without waiting;
    /// returns the guard once the range is held.
    fn poll_read<'a>(&'a self, pending: &mut Pending) -> Option<Self::ReadGuard<'a>>;

    /// **Enqueue**: starts a two-phase exclusive acquisition of `range`.
    fn enqueue_write(&self, range: Range) -> Pending;

    /// **Poll**: drives a pending exclusive acquisition without waiting.
    fn poll_write<'a>(&'a self, pending: &mut Pending) -> Option<Self::WriteGuard<'a>>;

    /// **Cancel**: abandons a pending acquisition of either mode, unlinking
    /// any published node and waking successors. Idempotent; must be called
    /// (or the poll driven to completion) before the token is dropped.
    fn cancel(&self, pending: &mut Pending);

    /// The queue suspended acquisitions wait on; every release wakes it.
    fn wait_queue(&self) -> &WaitQueue;

    /// Waits through this lock's wait policy, parked under `key` (see
    /// `rl_sync::wait`; `KEY_ANY` is the wait every wake ends), until `cond`
    /// holds or `deadline` passes, returning `cond`'s final value. Backs the
    /// timed acquisition methods, where `cond` is the queue-generation check
    /// of the two-phase wait loop and `key` the pending token's
    /// [`Pending::wait_key`], so the waiter is woken by its blocker's
    /// release instead of by every release on the lock.
    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: Instant,
    ) -> bool;

    /// Acquires `range` in shared mode like [`RwRangeLock::read`], but gives
    /// up — leaving no residue — once `timeout` elapses. An expired attempt
    /// is recorded as a cancel in the lock's wait statistics.
    fn read_timeout(&self, range: Range, timeout: Duration) -> Option<Self::ReadGuard<'_>>
    where
        Self: Sized,
    {
        timeout_loop(self, self.enqueue_read(range), Self::poll_read, timeout)
    }

    /// Acquires `range` in exclusive mode like [`RwRangeLock::write`], but
    /// gives up — leaving no residue — once `timeout` elapses.
    fn write_timeout(&self, range: Range, timeout: Duration) -> Option<Self::WriteGuard<'_>>
    where
        Self: Sized,
    {
        timeout_loop(self, self.enqueue_write(range), Self::poll_write, timeout)
    }

    /// Acquires `range` in shared mode asynchronously: the returned future
    /// suspends (registering its task's waker) instead of blocking a thread,
    /// and resolves to the same guard [`RwRangeLock::read`] returns.
    /// Dropping the future cancels the acquisition cleanly.
    fn read_async(&self, range: Range) -> Acquire<'_, Self, Self::ReadGuard<'_>>
    where
        Self: Sized,
    {
        Acquire::new(self, self.enqueue_read(range), Self::poll_read)
    }

    /// Acquires `range` in exclusive mode asynchronously; see
    /// [`TwoPhaseRwRangeLock::read_async`] for the waiting and cancellation
    /// semantics.
    fn write_async(&self, range: Range) -> Acquire<'_, Self, Self::WriteGuard<'_>>
    where
        Self: Sized,
    {
        Acquire::new(self, self.enqueue_write(range), Self::poll_write)
    }
}

/// Implements [`TwoPhaseRwRangeLock`] for a lock whose bounded attempt
/// already sees a consistent view of the lock state — the *try-based*
/// adapter, written once for every such lock: **enqueue** just records the
/// range ([`Pending::try_based`]), **poll** is the lock's own
/// [`RwRangeLock::try_read`] / [`RwRangeLock::try_write`], and **cancel**
/// has nothing to undo.
///
/// A suspended try-based acquisition holds no queue slot inside the lock and
/// therefore *barges*: it competes afresh on every wake, like a futex waiter
/// without a queue node, and waits under `KEY_ANY`. The lock's side of the
/// bargain is that **every** release wakes the queue named here — any wake
/// claims the any-key waiters — so a suspended poller cannot miss the
/// release it was blocked on.
///
/// `$lock => $queue` names the lock value and the expression borrowing its
/// [`WaitQueue`]; the type's last generic parameter must be its
/// [`WaitPolicy`](rl_sync::wait::WaitPolicy), which supplies the deadline
/// wait; a mode parameter before it is written with its bound
/// (`TreeLock<M: CompatMode, P>`).
#[macro_export]
macro_rules! try_based_two_phase {
    ($ty:ident<$p:ident>, $lock:ident => $queue:expr) => {
        $crate::try_based_two_phase!(@impl [] $ty<$p>, $lock => $queue);
    };
    ($ty:ident<$m:ident: $mb:path, $p:ident>, $lock:ident => $queue:expr) => {
        $crate::try_based_two_phase!(@impl [$m: $mb] $ty<$p>, $lock => $queue);
    };
    (@impl [$($m:ident: $mb:path)?] $ty:ident<$p:ident>, $lock:ident => $queue:expr) => {
        impl<$($m: $mb,)? $p: rl_sync::wait::WaitPolicy> $crate::TwoPhaseRwRangeLock
            for $ty<$($m,)? $p>
        {
            fn enqueue_read(&self, range: $crate::Range) -> $crate::Pending {
                $crate::Pending::try_based(range)
            }

            fn poll_read<'a>(
                &'a self,
                pending: &mut $crate::Pending,
            ) -> Option<Self::ReadGuard<'a>> {
                $crate::RwRangeLock::try_read(self, pending.range())
            }

            fn enqueue_write(&self, range: $crate::Range) -> $crate::Pending {
                $crate::Pending::try_based(range)
            }

            fn poll_write<'a>(
                &'a self,
                pending: &mut $crate::Pending,
            ) -> Option<Self::WriteGuard<'a>> {
                $crate::RwRangeLock::try_write(self, pending.range())
            }

            fn cancel(&self, _pending: &mut $crate::Pending) {}

            fn wait_queue(&self) -> &rl_sync::wait::WaitQueue {
                let $lock = self;
                $queue
            }

            fn wait_deadline_keyed(
                &self,
                key: u64,
                cond: &mut dyn FnMut() -> bool,
                deadline: std::time::Instant,
            ) -> bool {
                $p::wait(
                    $crate::TwoPhaseRwRangeLock::wait_queue(self),
                    key,
                    cond,
                    Some(deadline),
                )
            }
        }
    };
}

/// One two-phase acquisition in flight, resolving to the guard `G` of its
/// mode: the future [`TwoPhaseRwRangeLock::read_async`] and
/// [`TwoPhaseRwRangeLock::write_async`] return, and the value the timed
/// methods drive.
///
/// The range is held exactly from the resolving poll until the guard drops.
/// **Cancellation safety:** dropping an `Acquire` before it resolves cancels
/// the pending acquisition — the registered waker is removed first, then any
/// published node is unlinked and successors are woken, and a cancel is
/// recorded in the lock's wait statistics. An expired timeout is cancelled
/// and counted by the same `Drop`. Dropping it after it resolved is just
/// dropping the guard.
#[must_use = "futures do nothing unless polled"]
pub struct Acquire<'a, L: TwoPhaseRwRangeLock, G> {
    lock: &'a L,
    /// The mode's `poll_read` / `poll_write`.
    poll: fn(&'a L, &mut Pending) -> Option<G>,
    /// `None` once resolved (the pending token was consumed).
    pending: Option<Pending>,
    /// This acquisition's waker registration on the lock's wait queue.
    slot: WakerSlot<'a>,
}

impl<'a, L: TwoPhaseRwRangeLock, G> Acquire<'a, L, G> {
    fn new(lock: &'a L, pending: Pending, poll: fn(&'a L, &mut Pending) -> Option<G>) -> Self {
        Acquire {
            lock,
            poll,
            pending: Some(pending),
            slot: WakerSlot::new(lock.wait_queue()),
        }
    }
}

/// One never-waiting poll of `pending`: the guard (consuming the token), or
/// the wait key of the conflict the poll stopped at.
fn attempt<'a, L: TwoPhaseRwRangeLock, G>(
    lock: &'a L,
    poll: fn(&'a L, &mut Pending) -> Option<G>,
    pending: &mut Option<Pending>,
) -> Result<G, u64> {
    let token = pending
        .as_mut()
        .expect("acquisition polled after completion");
    match poll(lock, token) {
        Some(guard) => {
            *pending = None;
            Ok(guard)
        }
        None => Err(token.wait_key()),
    }
}

impl<L: TwoPhaseRwRangeLock, G> Future for Acquire<'_, L, G> {
    type Output = G;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<G> {
        // All fields are `Unpin`.
        let Acquire {
            lock,
            poll,
            pending,
            slot,
        } = self.get_mut();
        slot.step(cx.waker(), || attempt(*lock, *poll, pending))
    }
}

impl<L: TwoPhaseRwRangeLock, G> Drop for Acquire<'_, L, G> {
    fn drop(&mut self) {
        if let Some(mut pending) = self.pending.take() {
            self.slot.clear();
            self.lock.cancel(&mut pending);
            self.lock.wait_queue().record_cancel();
        }
    }
}

impl<L: TwoPhaseRwRangeLock, G> std::fmt::Debug for Acquire<'_, L, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Acquire")
            .field("resolved", &self.pending.is_none())
            .finish()
    }
}

/// The poll → deadline-wait loop behind both timed acquisition methods. It
/// drives an [`Acquire`], so an expiry is cancelled and counted by the same
/// `Drop` as an abandoned future.
fn timeout_loop<'a, L: TwoPhaseRwRangeLock, G>(
    lock: &'a L,
    pending: Pending,
    poll: fn(&'a L, &mut Pending) -> Option<G>,
    timeout: Duration,
) -> Option<G> {
    let deadline = Instant::now() + timeout;
    let range = pending.range();
    let mut acquire = Acquire::new(lock, pending, poll);
    let queue = lock.wait_queue();
    loop {
        let gen = queue.generation();
        let key = match attempt(lock, poll, &mut acquire.pending) {
            Ok(guard) => return Some(guard),
            Err(key) => key,
        };
        if Instant::now() >= deadline {
            drop(acquire);
            rl_obs::trace::emit_here(
                rl_obs::EventKind::TimedOut,
                queue.trace_id(),
                range.start,
                range.end,
            );
            return None;
        }
        // Every release bumps the queue generation (whatever the policy), so
        // waiting for a generation change is waiting for "anything changed".
        // The wait parks under the key of the conflict the poll just
        // observed — re-read every iteration, because the blocker can be a
        // different node each time — so under the `Block` policy only that
        // conflict's release (or a broadcast) wakes us.
        lock.wait_deadline_keyed(key, &mut || queue.generation() != gen, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::task::{Wake, Waker};

    use rl_sync::stats::WaitStats;
    use rl_sync::wait::Block;

    use crate::{ListRangeLock, RwListRangeLock};

    struct CountingWaker(AtomicU64);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, Waker) {
        let count = Arc::new(CountingWaker(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
        let mut cx = Context::from_waker(waker);
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn uncontended_future_resolves_on_first_poll() {
        let lock = ListRangeLock::new();
        let (_, waker) = counting_waker();
        let mut fut = lock.write_async(Range::new(0, 10));
        let guard = match poll_once(&mut fut, &waker) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("uncontended acquisition must resolve immediately"),
        };
        assert_eq!(guard.range(), Range::new(0, 10));
        drop(guard);
        drop(fut); // resolved: dropping the future is a no-op
        assert!(lock.is_quiescent());
    }

    #[test]
    fn first_poll_grants_never_touch_the_queues_slot_allocator() {
        let lock = RwListRangeLock::new();
        let first_id = WaitQueue::new().alloc_waker_slot();
        let (_, waker) = counting_waker();
        for _ in 0..100 {
            assert!(poll_once(&mut lock.write_async(Range::new(0, 10)), &waker).is_ready());
            assert!(poll_once(&mut lock.read_async(Range::new(5, 15)), &waker).is_ready());
        }
        // Nor does a future that is dropped before its first poll.
        drop(lock.write_async(Range::new(0, 10)));
        assert_eq!(lock.wait_queue().alloc_waker_slot(), first_id);
        // A future that has to wait allocates on its first registration and
        // keeps that slot across re-polls.
        let held = lock.write(Range::new(0, 10));
        let mut fut = lock.read_async(Range::new(5, 15));
        assert!(poll_once(&mut fut, &waker).is_pending());
        assert!(poll_once(&mut fut, &waker).is_pending());
        assert_eq!(lock.wait_queue().alloc_waker_slot(), first_id + 2);
        drop(held);
        assert!(poll_once(&mut fut, &waker).is_ready());
        assert_eq!(lock.wait_queue().waiters(), 0);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn blocked_future_is_woken_by_the_release() {
        let lock = ListRangeLock::new();
        let held = lock.write(Range::new(0, 100));
        let (count, waker) = counting_waker();
        let mut fut = lock.write_async(Range::new(50, 150));
        assert!(poll_once(&mut fut, &waker).is_pending());
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        drop(held); // the release hook must deliver the wake
        assert!(count.0.load(Ordering::SeqCst) >= 1);
        match poll_once(&mut fut, &waker) {
            Poll::Ready(guard) => drop(guard),
            Poll::Pending => panic!("released: the re-poll must resolve"),
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn dropping_a_pending_future_cancels_cleanly() {
        let stats = Arc::new(WaitStats::new("async-cancel"));
        let lock = RwListRangeLock::new().with_stats(Arc::clone(&stats));
        let held = lock.write(Range::new(0, 100));
        let (_, waker) = counting_waker();
        let mut fut = lock.write_async(Range::new(50, 150));
        assert!(poll_once(&mut fut, &waker).is_pending());
        drop(fut); // mid-wait: must cancel, deregister, and count it
        let snap = stats.snapshot();
        assert_eq!(snap.cancels, 1);
        assert!(snap.waker_registrations >= 1);
        drop(held);
        // No residue: the whole range is immediately acquirable.
        drop(lock.try_write(Range::FULL).expect("no leaked node"));
        assert!(lock.is_quiescent());
    }

    #[test]
    fn rw_futures_respect_modes() {
        let lock = RwListRangeLock::new();
        let (_, waker) = counting_waker();
        let r1 = lock.read(Range::new(0, 100));
        // Overlapping reader future resolves immediately (readers share).
        let mut rf = lock.read_async(Range::new(50, 150));
        let r2 = match poll_once(&mut rf, &waker) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("overlapping readers share"),
        };
        // Overlapping writer future stays pending.
        let mut wf = lock.write_async(Range::new(50, 150));
        assert!(poll_once(&mut wf, &waker).is_pending());
        drop(r1);
        drop(r2);
        match poll_once(&mut wf, &waker) {
            Poll::Ready(g) => drop(g),
            Poll::Pending => panic!("readers gone: writer resolves"),
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn trait_timeouts_expire_and_succeed() {
        fn run<L: TwoPhaseRwRangeLock>(lock: &L, probe: Range, conflict: Range) {
            let held = lock.write(conflict);
            assert!(lock
                .read_timeout(probe, Duration::from_millis(10))
                .is_none());
            assert!(lock
                .write_timeout(probe, Duration::from_millis(10))
                .is_none());
            drop(held);
            assert!(lock
                .read_timeout(probe, Duration::from_millis(100))
                .is_some());
            assert!(lock
                .write_timeout(probe, Duration::from_millis(100))
                .is_some());
        }
        let range = Range::new(0, 50);
        run(&RwListRangeLock::new(), range, Range::new(25, 75));
        run(
            &RwListRangeLock::<Block>::with_policy(),
            range,
            Range::new(25, 75),
        );
        // The exclusive lock, through the trait and its inherent spelling.
        run(&ListRangeLock::new(), range, Range::new(25, 75));
        let ex = ListRangeLock::new();
        let held = ex.write(Range::new(0, 50));
        assert!(ex
            .write_timeout(Range::new(25, 75), Duration::from_millis(10))
            .is_none());
        drop(held);
        assert!(ex
            .write_timeout(Range::new(25, 75), Duration::from_millis(100))
            .is_some());
    }
}
