//! The cancellable two-phase acquisition protocol and everything that rides
//! on it: timed, async and batched acquisition.
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
//! one concrete token type, [`Pending`]. Every other way of acquiring is a
//! provided method written once here — blocking is poll + park, and:
//!
//! * **Timed acquisition** — [`read_timeout`](TwoPhaseRwRangeLock::read_timeout) /
//!   [`write_timeout`](TwoPhaseRwRangeLock::write_timeout): poll, wait with a
//!   deadline (under the `Block` policy a deadline *park*, under the
//!   spinning policies a clock-checked backoff loop), cancel on expiry.
//! * **Async acquisition** — [`read_async`](TwoPhaseRwRangeLock::read_async) /
//!   [`write_async`](TwoPhaseRwRangeLock::write_async) return
//!   cancellation-safe futures ([`ReadFuture`], [`WriteFuture`]) resolving
//!   to the ordinary RAII guards. Dropping a future mid-wait cancels the
//!   pending request and leaves no residue, so `select!`-style races and
//!   task aborts are safe. A waiter costs a waker registration, not a
//!   thread: millions of pending owners can be multiplexed onto a few worker
//!   threads (see the `rl-exec` crate and the `asyncbench` experiment).
//! * **Batched acquisition** — [`acquire_many`](TwoPhaseRwRangeLock::acquire_many),
//!   [`try_acquire_many`](TwoPhaseRwRangeLock::try_acquire_many) (one poll +
//!   cancel per item, all-or-nothing) and
//!   [`acquire_many_async`](TwoPhaseRwRangeLock::acquire_many_async), all in
//!   ascending address order.
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
//! documented there: the future snapshots the queue generation *before*
//! polling the lock, and a registration against a stale snapshot fails,
//! forcing a re-poll.
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

use rl_sync::{WaitQueue, WakerSlot, KEY_ANY};

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

    /// [`TwoPhaseRwRangeLock::wait_deadline_keyed`] without a key: any wake
    /// of the queue ends the wait.
    fn wait_deadline(&self, cond: &mut dyn FnMut() -> bool, deadline: Instant) -> bool {
        self.wait_deadline_keyed(KEY_ANY, cond, deadline)
    }

    /// Acquires `range` in shared mode like [`RwRangeLock::read`], but gives
    /// up — leaving no residue — once `timeout` elapses. An expired attempt
    /// is recorded as a cancel in the lock's wait statistics.
    fn read_timeout(&self, range: Range, timeout: Duration) -> Option<Self::ReadGuard<'_>>
    where
        Self: Sized,
    {
        let pending = self.enqueue_read(range);
        timeout_loop(self, timeout, pending, Self::poll_read)
    }

    /// Acquires `range` in exclusive mode like [`RwRangeLock::write`], but
    /// gives up — leaving no residue — once `timeout` elapses.
    fn write_timeout(&self, range: Range, timeout: Duration) -> Option<Self::WriteGuard<'_>>
    where
        Self: Sized,
    {
        let pending = self.enqueue_write(range);
        timeout_loop(self, timeout, pending, Self::poll_write)
    }

    /// Acquires `range` in shared mode asynchronously: the returned future
    /// suspends (registering its task's waker) instead of blocking a thread,
    /// and resolves to the same guard [`RwRangeLock::read`] returns.
    /// Dropping the future cancels the acquisition cleanly.
    fn read_async(&self, range: Range) -> ReadFuture<'_, Self>
    where
        Self: Sized,
    {
        ReadFuture::new(self, range)
    }

    /// Acquires `range` in exclusive mode asynchronously; see
    /// [`TwoPhaseRwRangeLock::read_async`] for the waiting and cancellation
    /// semantics.
    fn write_async(&self, range: Range) -> WriteFuture<'_, Self>
    where
        Self: Sized,
    {
        WriteFuture::new(self, range)
    }

    /// Acquires every `(range, mode)` item of a batch, waiting as needed,
    /// and returns the guards in input order.
    ///
    /// Items are acquired in **ascending address order** whatever the input
    /// order, so two concurrent batches can never deadlock each other — the
    /// classic ordered-acquisition argument. (A batch can still deadlock
    /// against a caller composing individual acquisitions in descending
    /// order; the `rl-file` lock table layers cycle detection on top for
    /// that.)
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap (even two reads: the batch
    /// must also be safe over locks where readers serialize, per
    /// [`RwRangeLock::readers_share`]) — the second acquisition would block
    /// on the first forever.
    fn acquire_many(&self, items: &[(Range, BatchMode)]) -> Vec<RwBatchGuard<'_, Self>>
    where
        Self: Sized,
    {
        let mut acquired: Vec<(usize, RwBatchGuard<'_, Self>)> = Vec::with_capacity(items.len());
        for i in batch_order(items) {
            let (range, mode) = items[i];
            let guard = match mode {
                BatchMode::Read => RwBatchGuard::Read(self.read(range)),
                BatchMode::Write => RwBatchGuard::Write(self.write(range)),
            };
            acquired.push((i, guard));
        }
        in_input_order(acquired)
    }

    /// Attempts to acquire every `(range, mode)` item without waiting,
    /// **all-or-nothing**: on the first conflicting item the batch cancels
    /// its pending acquisition, releases everything it already took, records
    /// a batch rollback in the lock's wait statistics, and returns `None` —
    /// no residue remains.
    ///
    /// Each item is driven through one enqueue → poll step of the two-phase
    /// protocol (never-spurious, unlike `try_read`/`try_write`), with
    /// `cancel` as the rollback primitive; items are attempted in ascending
    /// address order and the guards are returned in input order.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    fn try_acquire_many(&self, items: &[(Range, BatchMode)]) -> Option<Vec<RwBatchGuard<'_, Self>>>
    where
        Self: Sized,
    {
        let mut acquired: Vec<(usize, RwBatchGuard<'_, Self>)> = Vec::with_capacity(items.len());
        for i in batch_order(items) {
            let (range, mode) = items[i];
            let polled = match mode {
                BatchMode::Read => {
                    let mut pending = self.enqueue_read(range);
                    let guard = self.poll_read(&mut pending);
                    if guard.is_none() {
                        self.cancel(&mut pending);
                    }
                    guard.map(RwBatchGuard::Read)
                }
                BatchMode::Write => {
                    let mut pending = self.enqueue_write(range);
                    let guard = self.poll_write(&mut pending);
                    if guard.is_none() {
                        self.cancel(&mut pending);
                    }
                    guard.map(RwBatchGuard::Write)
                }
            };
            match polled {
                Some(guard) => acquired.push((i, guard)),
                None => {
                    let queue = self.wait_queue();
                    queue.record_cancel();
                    queue.record_batch_rollback();
                    rl_obs::trace::emit_here(
                        rl_obs::EventKind::BatchRollback,
                        queue.trace_id(),
                        range.start,
                        range.end,
                    );
                    // Dropping the guards acquired so far rolls them back.
                    return None;
                }
            }
        }
        Some(in_input_order(acquired))
    }

    /// Acquires a batch asynchronously: the returned future drives one item
    /// at a time in ascending address order, suspending (never blocking a
    /// thread) on each contended item, and resolves to the guards in input
    /// order. **Cancellation safety:** dropping the future mid-batch drops
    /// the in-flight single-item future (which cancels its pending
    /// acquisition and records the cancel) and every guard already acquired
    /// — the lock is left as if the batch had never been asked for.
    ///
    /// # Panics
    ///
    /// Panics (at the call, not the first poll) if two items of the batch
    /// overlap.
    fn acquire_many_async<'a>(
        &'a self,
        items: &[(Range, BatchMode)],
    ) -> impl Future<Output = Vec<RwBatchGuard<'a, Self>>> + use<'a, Self>
    where
        Self: Sized,
    {
        let order: Vec<(usize, Range, BatchMode)> = batch_order(items)
            .into_iter()
            .map(|i| (i, items[i].0, items[i].1))
            .collect();
        async move {
            let mut acquired = Vec::with_capacity(order.len());
            for (i, range, mode) in order {
                let guard = match mode {
                    BatchMode::Read => RwBatchGuard::Read(self.read_async(range).await),
                    BatchMode::Write => RwBatchGuard::Write(self.write_async(range).await),
                };
                acquired.push((i, guard));
            }
            in_input_order(acquired)
        }
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

/// Requested mode of one item of a batched acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchMode {
    /// Shared (reader) access.
    Read,
    /// Exclusive (writer) access.
    Write,
}

/// Guard for one item of a batched acquisition: whichever of the lock's two
/// guard types the item's [`BatchMode`] selected.
pub enum RwBatchGuard<'a, L: RwRangeLock + 'a> {
    /// The item was acquired in shared mode.
    Read(L::ReadGuard<'a>),
    /// The item was acquired in exclusive mode.
    Write(L::WriteGuard<'a>),
}

impl<L: RwRangeLock> RwBatchGuard<'_, L> {
    /// Whether this guard holds its range in shared mode.
    pub fn is_read(&self) -> bool {
        matches!(self, RwBatchGuard::Read(_))
    }
}

impl<L: RwRangeLock> std::fmt::Debug for RwBatchGuard<'_, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RwBatchGuard::Read(_) => "RwBatchGuard::Read",
            RwBatchGuard::Write(_) => "RwBatchGuard::Write",
        })
    }
}

/// Returns the indices of `items` in ascending address order, panicking if
/// any two ranges overlap — an overlapping batch would block on itself.
fn batch_order(items: &[(Range, BatchMode)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (items[i].0.start, items[i].0.end));
    for pair in order.windows(2) {
        let (a, b) = (items[pair[0]].0, items[pair[1]].0);
        assert!(
            !a.overlaps(&b),
            "batched acquisition items overlap: {a:?} and {b:?}"
        );
    }
    order
}

/// Restores input order on guards collected in acquisition order.
fn in_input_order<G>(mut acquired: Vec<(usize, G)>) -> Vec<G> {
    acquired.sort_by_key(|(i, _)| *i);
    acquired.into_iter().map(|(_, g)| g).collect()
}

/// The shared poll → deadline-wait → cancel loop behind both timed
/// acquisition methods; the mode's poll comes in as a plain function value.
fn timeout_loop<'a, L: TwoPhaseRwRangeLock, G>(
    lock: &'a L,
    timeout: Duration,
    mut pending: Pending,
    poll: impl Fn(&'a L, &mut Pending) -> Option<G>,
) -> Option<G> {
    let deadline = Instant::now() + timeout;
    let queue = lock.wait_queue();
    loop {
        let gen = queue.generation();
        if let Some(guard) = poll(lock, &mut pending) {
            return Some(guard);
        }
        if Instant::now() >= deadline {
            lock.cancel(&mut pending);
            queue.record_cancel();
            let range = pending.range();
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
        lock.wait_deadline_keyed(
            pending.wait_key(),
            &mut || queue.generation() != gen,
            deadline,
        );
    }
}

/// Declares one cancellation-safe acquisition future over the two-phase
/// trait.
macro_rules! acquire_future {
    (
        $(#[$doc:meta])*
        $name:ident, $guard:ident, $enqueue:ident, $poll:ident
    ) => {
        $(#[$doc])*
        ///
        /// The future resolves to the lock's ordinary RAII guard; the range
        /// is held exactly from the resolving poll until the guard drops.
        /// **Cancellation safety:** dropping the future before it resolves
        /// cancels the pending acquisition — any published node is unlinked,
        /// successors are woken, the registered waker is removed, and a
        /// cancel is recorded in the lock's wait statistics. Dropping it
        /// after it resolved is just dropping the guard.
        #[must_use = "futures do nothing unless polled"]
        pub struct $name<'a, L: TwoPhaseRwRangeLock> {
            lock: &'a L,
            /// `None` once resolved (the pending token was consumed).
            pending: Option<Pending>,
            /// This acquisition's waker registration on the lock's wait
            /// queue: allocated by the first registration attempt (an
            /// acquisition granted on its first poll touches no shared word
            /// of the queue) and re-homed when a poll names a new blocker.
            slot: WakerSlot<'a>,
        }

        impl<'a, L: TwoPhaseRwRangeLock> $name<'a, L> {
            pub(crate) fn new(lock: &'a L, range: Range) -> Self {
                $name {
                    lock,
                    pending: Some(lock.$enqueue(range)),
                    slot: WakerSlot::new(lock.wait_queue()),
                }
            }
        }

        impl<'a, L: TwoPhaseRwRangeLock> Future for $name<'a, L> {
            type Output = L::$guard<'a>;

            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                // All fields are `Unpin`.
                let this = self.get_mut();
                let queue = this.lock.wait_queue();
                let mut pending = this
                    .pending
                    .take()
                    .expect("acquisition future polled after completion");
                loop {
                    // Snapshot *before* polling the lock: see the
                    // lost-wakeup argument in `rl_sync::wait`.
                    let gen = queue.generation();
                    if let Some(guard) = this.lock.$poll(&mut pending) {
                        this.slot.clear();
                        return Poll::Ready(guard);
                    }
                    // Filed under the conflict this poll named; the slot
                    // migrates if that is not the one it was filed under.
                    if this.slot.register(pending.wait_key(), gen, cx.waker()) {
                        this.pending = Some(pending);
                        return Poll::Pending;
                    }
                    // A wake slipped in between the snapshot and the
                    // registration: whatever it signalled may unblock us, so
                    // re-poll with a fresh snapshot.
                }
            }
        }

        impl<L: TwoPhaseRwRangeLock> Drop for $name<'_, L> {
            fn drop(&mut self) {
                if let Some(mut pending) = self.pending.take() {
                    self.slot.clear();
                    self.lock.cancel(&mut pending);
                    self.lock.wait_queue().record_cancel();
                }
            }
        }

        impl<L: TwoPhaseRwRangeLock> std::fmt::Debug for $name<'_, L> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("resolved", &self.pending.is_none())
                    .finish()
            }
        }
    };
}

acquire_future!(
    /// Future returned by [`TwoPhaseRwRangeLock::read_async`]: a shared
    /// range acquisition in flight.
    ReadFuture,
    ReadGuard,
    enqueue_read,
    poll_read
);

acquire_future!(
    /// Future returned by [`TwoPhaseRwRangeLock::write_async`]: an exclusive
    /// range acquisition in flight.
    WriteFuture,
    WriteGuard,
    enqueue_write,
    poll_write
);

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
    fn acquire_many_returns_guards_in_input_order() {
        let lock = RwListRangeLock::new();
        // Deliberately descending input: acquisition reorders ascending,
        // the result must come back in input order.
        let items = [
            (Range::new(200, 300), BatchMode::Write),
            (Range::new(0, 100), BatchMode::Read),
            (Range::new(100, 200), BatchMode::Write),
        ];
        let guards = lock.acquire_many(&items);
        assert_eq!(guards.len(), 3);
        assert!(!guards[0].is_read());
        assert!(guards[1].is_read());
        assert_eq!(lock.held_ranges(), 3);
        drop(guards);
        assert!(lock.is_quiescent());

        // The exclusive lock rides the same provided method.
        let ex = ListRangeLock::new();
        let guards = ex.acquire_many(&[
            (Range::new(50, 60), BatchMode::Write),
            (Range::new(0, 10), BatchMode::Read),
        ]);
        assert!(!guards[0].is_read());
        assert_eq!(ex.held_ranges(), 2);
        drop(guards);
        assert!(ex.is_quiescent());
    }

    #[test]
    fn try_acquire_many_is_all_or_nothing() {
        let stats = Arc::new(WaitStats::new("batch"));
        let lock = RwListRangeLock::new().with_stats(Arc::clone(&stats));
        let held = lock.write(Range::new(150, 250));
        // Second item conflicts: the whole batch must roll back.
        let items = [
            (Range::new(0, 100), BatchMode::Write),
            (Range::new(200, 300), BatchMode::Read),
        ];
        assert!(lock.try_acquire_many(&items).is_none());
        let snap = stats.snapshot();
        assert_eq!(snap.batch_rollbacks, 1);
        assert_eq!(snap.cancels, 1);
        // No residue: the non-conflicting item's span is free again.
        drop(lock.try_write(Range::new(0, 100)).expect("rolled back"));
        drop(held);
        assert!(lock.try_acquire_many(&items).is_some());
        assert!(lock.is_quiescent());

        // The exclusive lock, same protocol: even "read" items conflict.
        let ex = ListRangeLock::new();
        let held = ex.write(Range::new(25, 75));
        let items = [
            (Range::new(0, 30), BatchMode::Read),
            (Range::new(100, 130), BatchMode::Write),
        ];
        assert!(ex.try_acquire_many(&items).is_none());
        drop(held);
        assert!(ex.try_acquire_many(&items).is_some());
        assert!(ex.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_batch_items_panic() {
        let lock = RwListRangeLock::new();
        let _ = lock.acquire_many(&[
            (Range::new(0, 100), BatchMode::Read),
            (Range::new(50, 150), BatchMode::Read),
        ]);
    }

    #[test]
    fn batch_future_resolves_item_by_item_and_cancels_cleanly() {
        let stats = Arc::new(WaitStats::new("batch-async"));
        let lock = RwListRangeLock::new().with_stats(Arc::clone(&stats));
        let (_, waker) = counting_waker();

        // Uncontended: resolves on the first poll, guards in input order.
        let items = [
            (Range::new(100, 200), BatchMode::Write),
            (Range::new(0, 100), BatchMode::Read),
        ];
        let mut fut = Box::pin(lock.acquire_many_async(&items));
        let guards = match poll_once(&mut fut, &waker) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("uncontended batch must resolve immediately"),
        };
        assert_eq!(guards.len(), 2);
        assert!(!guards[0].is_read());
        assert!(guards[1].is_read());
        drop(guards);

        // Contended on the *second* (ascending) item: the batch suspends
        // with the first item held, then rolls everything back on drop.
        let held = lock.write(Range::new(150, 250));
        let mut fut = Box::pin(lock.acquire_many_async(&items));
        assert!(poll_once(&mut fut, &waker).is_pending());
        assert_eq!(lock.held_ranges(), 2); // conflict + first batch item
        drop(fut); // cancels the in-flight item, releases the acquired one
        assert!(stats.snapshot().cancels >= 1);
        assert_eq!(lock.held_ranges(), 1);
        drop(held);

        // Contention release resumes the batch.
        let held = lock.write(Range::new(150, 250));
        let mut fut = Box::pin(lock.acquire_many_async(&items));
        assert!(poll_once(&mut fut, &waker).is_pending());
        drop(held);
        match poll_once(&mut fut, &waker) {
            Poll::Ready(guards) => drop(guards),
            Poll::Pending => panic!("released: the batch must resolve"),
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
