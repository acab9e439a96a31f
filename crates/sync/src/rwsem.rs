//! A blocking reader-writer semaphore approximating the kernel's `mmap_sem`.
//!
//! The *stock* Linux configuration evaluated in Section 7.2 protects the whole
//! VM subsystem with `mmap_sem`, an `rw_semaphore`: readers (page faults) may
//! share the lock, writers (mmap / munmap / mprotect) are exclusive, and
//! contended acquisitions first spin optimistically and then block until woken
//! by a releaser. [`RwSemaphore`] reproduces that behaviour in user space:
//!
//! * a lock-free fast path (single CAS) for uncontended readers and writers;
//! * a slow path that waits through the pluggable [`WaitPolicy`] layer — the
//!   default policy is [`Block`], i.e. a bounded optimistic-spinning phase
//!   followed by parking on the semaphore's [`WaitQueue`], which is exactly
//!   the kernel `rw_semaphore` shape;
//! * writer preference — once a writer is waiting, new readers take the slow
//!   path, which is what makes `mmap_sem` collapse under the Metis workloads.
//!
//! The policy is a type parameter (`RwSemaphore<P>`) so the fairness gate of
//! the list-based range locks and the per-segment locks of the `pnova-rw`
//! baseline can wait in whatever mode their enclosing lock uses; the bare
//! `RwSemaphore` name keeps the blocking default.
//!
//! Acquisition wait times can be reported to a [`WaitStats`] so the benchmark
//! harness can reproduce Figure 7's `stock` series; under [`Block`] the same
//! sink also receives park/wake counts.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::stats::{WaitKind, WaitStats};
use crate::wait::{Block, WaitPolicy, WaitQueue};

/// Writer-holds marker for the `state` word.
const WRITER: i64 = -1;

/// Parking-table wait class for blocked readers. Readers and writers park
/// under distinct keys on the semaphore's queue so a read release — which
/// can only unblock writers — wakes the writer shard alone instead of the
/// whole herd. The values are small integers, which never collide with the
/// node-address keys used by the list-based locks (different queues anyway).
const READ_WAIT_KEY: u64 = 1;

/// Parking-table wait class for blocked writers; see [`READ_WAIT_KEY`].
const WRITE_WAIT_KEY: u64 = 2;

/// A blocking reader-writer semaphore with optimistic spinning.
///
/// # Examples
///
/// ```
/// use rl_sync::RwSemaphore;
///
/// let sem = RwSemaphore::new();
/// {
///     let _r1 = sem.read();
///     let _r2 = sem.read(); // readers share
/// }
/// {
///     let _w = sem.write(); // writers are exclusive
/// }
/// ```
///
/// Waiting through a different policy is a type-level choice:
///
/// ```
/// use rl_sync::wait::SpinThenYield;
/// use rl_sync::RwSemaphore;
///
/// let sem = RwSemaphore::<SpinThenYield>::with_policy();
/// let _w = sem.write();
/// ```
pub struct RwSemaphore<P: WaitPolicy = Block> {
    /// Number of active readers, or [`WRITER`] when a writer holds the lock.
    state: AtomicI64,
    /// Number of writers that are waiting (blocks new fast-path readers).
    writers_waiting: AtomicU64,
    /// Wake channel for the `Block` policy; idle under spinning policies.
    queue: WaitQueue,
    stats: Option<Arc<WaitStats>>,
    _policy: PhantomData<P>,
}

impl RwSemaphore {
    /// Creates a new, unlocked semaphore with the blocking default policy.
    pub fn new() -> Self {
        Self::with_policy()
    }

    /// Creates a semaphore that reports contended wait times (and park/wake
    /// counts) to `stats`.
    pub fn with_stats(stats: Arc<WaitStats>) -> Self {
        Self::with_policy_stats(stats)
    }
}

impl<P: WaitPolicy> RwSemaphore<P> {
    /// How many slow-path polls honor writer preference before a reader may
    /// barge past waiting writers (the anti-starvation escape hatch the
    /// parked phase has always had).
    const SPIN_ROUNDS: u32 = 64;

    /// Creates a new, unlocked semaphore waiting through policy `P`.
    pub fn with_policy() -> Self {
        RwSemaphore {
            state: AtomicI64::new(0),
            writers_waiting: AtomicU64::new(0),
            queue: WaitQueue::new(),
            stats: None,
            _policy: PhantomData,
        }
    }

    /// Creates a policy-`P` semaphore that reports wait times to `stats`.
    pub fn with_policy_stats(stats: Arc<WaitStats>) -> Self {
        let mut sem = Self::with_policy();
        sem.queue.attach_stats(Arc::clone(&stats));
        sem.stats = Some(stats);
        sem
    }

    /// Mirrors this semaphore's park/wake counters into `stats` (used by
    /// composite locks that share one counter block across many segments).
    pub fn attach_park_stats(&mut self, stats: Arc<WaitStats>) {
        self.queue.attach_stats(stats);
    }

    /// Acquires the semaphore for shared (read) access.
    pub fn read(&self) -> RwSemReadGuard<'_, P> {
        self.try_read().unwrap_or_else(|| self.read_slow())
    }

    /// Acquires the semaphore for exclusive (write) access.
    pub fn write(&self) -> RwSemWriteGuard<'_, P> {
        self.try_write().unwrap_or_else(|| self.write_slow())
    }

    /// Attempts a shared acquisition without waiting; a grant counts as an
    /// uncontended acquisition.
    pub fn try_read(&self) -> Option<RwSemReadGuard<'_, P>> {
        self.try_read_fast()
            .then(|| self.uncontended(RwSemReadGuard { sem: self }))
    }

    /// Attempts an exclusive acquisition without waiting; a grant counts as
    /// an uncontended acquisition.
    pub fn try_write(&self) -> Option<RwSemWriteGuard<'_, P>> {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then(|| self.uncontended(RwSemWriteGuard { sem: self }))
    }

    /// Records an acquisition that did not wait and passes its guard on.
    #[inline]
    fn uncontended<G>(&self, guard: G) -> G {
        if let Some(s) = &self.stats {
            s.record_uncontended();
        }
        guard
    }

    /// Returns `true` if a writer currently holds the semaphore.
    pub fn is_write_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) == WRITER
    }

    /// Returns the number of active readers (0 if write-locked or free).
    pub fn reader_count(&self) -> u64 {
        self.state.load(Ordering::Relaxed).max(0) as u64
    }

    /// The queue this semaphore's waiters wait on. Every release that can
    /// admit a waiter wakes it — the last read release and every write
    /// release, both reaching the `KEY_ANY` waiters — so a lock built on
    /// the semaphore can suspend barging `try_`-based pollers here.
    pub fn wait_queue(&self) -> &WaitQueue {
        &self.queue
    }

    #[inline]
    fn try_read_fast(&self) -> bool {
        // Writer preference: do not barge past waiting writers.
        if self.writers_waiting.load(Ordering::Relaxed) != 0 {
            return false;
        }
        self.try_read_any()
    }

    /// Read acquisition ignoring writer preference, used by the late slow
    /// path so a continuous writer stream cannot starve readers forever.
    #[inline]
    fn try_read_any(&self) -> bool {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur < 0 {
                return false;
            }
            match self.state.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    #[cold]
    fn read_slow(&self) -> RwSemReadGuard<'_, P> {
        let timer = self.stats.as_ref().map(|s| s.start(WaitKind::Read));
        // Two-phase predicate, matching the kernel shape: the first polls
        // honor writer preference (optimistic phase), later polls — the
        // parked phase under `Block` — may proceed past waiting writers.
        // Without the barge, readers and writers could starve each other: a
        // steady writer stream keeps `writers_waiting` non-zero forever and
        // a preference-honoring reader would never run. Liveness of the
        // barging phase needs only releases, which always wake the queue.
        let mut polls: u32 = 0;
        let admitted = || {
            polls = polls.saturating_add(1);
            if polls <= Self::SPIN_ROUNDS {
                self.try_read_fast()
            } else {
                self.try_read_any()
            }
        };
        P::wait(&self.queue, READ_WAIT_KEY, admitted, None);
        self.finish_timer(timer);
        RwSemReadGuard { sem: self }
    }

    #[cold]
    fn write_slow(&self) -> RwSemWriteGuard<'_, P> {
        let timer = self.stats.as_ref().map(|s| s.start(WaitKind::Write));
        self.writers_waiting.fetch_add(1, Ordering::Relaxed);
        let acquired = || {
            self.state
                .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        };
        P::wait(&self.queue, WRITE_WAIT_KEY, acquired, None);
        self.writers_waiting.fetch_sub(1, Ordering::Relaxed);
        self.finish_timer(timer);
        RwSemWriteGuard { sem: self }
    }

    #[inline]
    fn finish_timer(&self, timer: Option<crate::stats::WaitTimer>) {
        if let (Some(stats), Some(timer)) = (self.stats.as_ref(), timer) {
            stats.finish(timer);
        }
    }

    /// Releases one shared hold without a guard — for a lock that keeps its
    /// holds in tokens of its own and forgets the guards (`mem::forget`).
    ///
    /// # Safety
    ///
    /// The caller holds the semaphore in shared mode (through a read guard
    /// it forgot) and gives that hold back exactly once.
    pub unsafe fn release_read(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "read release without matching read acquire");
        if prev == 1 {
            // The lock just became free. Only writers can be blocked on a
            // read release (parked readers are waiting out a writer, who
            // will broadcast on its own release), so wake the writer wait
            // class alone and leave reader parkers undisturbed.
            self.queue.wake_key(WRITE_WAIT_KEY);
        }
    }

    /// Releases the exclusive hold without a guard; see
    /// [`RwSemaphore::release_read`].
    ///
    /// # Safety
    ///
    /// The caller holds the semaphore in exclusive mode (through a write
    /// guard it forgot) and gives that hold back exactly once.
    pub unsafe fn release_write(&self) {
        let prev = self.state.swap(0, Ordering::Release);
        debug_assert_eq!(prev, WRITER, "write release without matching write acquire");
        // Both wait classes are eligible after a write release (readers may
        // share, the next writer may take over), so this one stays a
        // broadcast.
        self.queue.wake_all();
    }
}

impl<P: WaitPolicy> Default for RwSemaphore<P> {
    fn default() -> Self {
        Self::with_policy()
    }
}

impl<P: WaitPolicy> std::fmt::Debug for RwSemaphore<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwSemaphore")
            .field("state", &self.state.load(Ordering::Relaxed))
            .field(
                "writers_waiting",
                &self.writers_waiting.load(Ordering::Relaxed),
            )
            .field("policy", &P::NAME)
            .finish()
    }
}

/// RAII guard for a shared acquisition of [`RwSemaphore`].
#[must_use = "the semaphore is released as soon as the guard is dropped"]
pub struct RwSemReadGuard<'a, P: WaitPolicy = Block> {
    sem: &'a RwSemaphore<P>,
}

impl<P: WaitPolicy> Drop for RwSemReadGuard<'_, P> {
    fn drop(&mut self) {
        // SAFETY: The guard is the shared hold, released once, here.
        unsafe { self.sem.release_read() };
    }
}

/// RAII guard for an exclusive acquisition of [`RwSemaphore`].
#[must_use = "the semaphore is released as soon as the guard is dropped"]
pub struct RwSemWriteGuard<'a, P: WaitPolicy = Block> {
    sem: &'a RwSemaphore<P>,
}

impl<P: WaitPolicy> Drop for RwSemWriteGuard<'_, P> {
    fn drop(&mut self) {
        // SAFETY: The guard is the exclusive hold, released once, here.
        unsafe { self.sem.release_write() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::{Spin, SpinThenYield};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn readers_share() {
        let sem = RwSemaphore::new();
        let r1 = sem.read();
        let r2 = sem.read();
        assert_eq!(sem.reader_count(), 2);
        assert!(sem.try_write().is_none());
        drop(r1);
        drop(r2);
        assert!(sem.try_write().is_some());
    }

    #[test]
    fn writer_excludes_everyone() {
        let sem = RwSemaphore::new();
        let w = sem.write();
        assert!(sem.is_write_locked());
        assert!(sem.try_read().is_none());
        assert!(sem.try_write().is_none());
        drop(w);
        assert!(!sem.is_write_locked());
        assert!(sem.try_read().is_some());
    }

    fn hammer_writers<P: WaitPolicy>(sem: Arc<RwSemaphore<P>>) {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let sem = Arc::clone(&sem);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let _w = sem.write();
                    // Non-atomic-looking increment under the lock: read,
                    // then write back, to detect lost updates.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), (THREADS * ITERS) as u64);
    }

    #[test]
    fn contended_writers_serialize() {
        hammer_writers(Arc::new(RwSemaphore::new()));
    }

    #[test]
    fn contended_writers_serialize_under_every_policy() {
        hammer_writers(Arc::new(RwSemaphore::<Spin>::with_policy()));
        hammer_writers(Arc::new(RwSemaphore::<SpinThenYield>::with_policy()));
        hammer_writers(Arc::new(RwSemaphore::<Block>::with_policy()));
    }

    #[test]
    fn readers_and_writers_never_overlap() {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let sem = Arc::new(RwSemaphore::new());
        let writer_active = Arc::new(AtomicU64::new(0));
        let violation = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let sem = Arc::clone(&sem);
            let writer_active = Arc::clone(&writer_active);
            let violation = Arc::clone(&violation);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    if (t + i) % 4 == 0 {
                        let _w = sem.write();
                        writer_active.fetch_add(1, Ordering::SeqCst);
                        if writer_active.load(Ordering::SeqCst) != 1 {
                            violation.fetch_add(1, Ordering::SeqCst);
                        }
                        writer_active.fetch_sub(1, Ordering::SeqCst);
                    } else {
                        let _r = sem.read();
                        if writer_active.load(Ordering::SeqCst) != 0 {
                            violation.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violation.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stats_capture_contention() {
        let stats = Arc::new(WaitStats::new("mmap_sem"));
        let sem = Arc::new(RwSemaphore::with_stats(Arc::clone(&stats)));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sem = Arc::clone(&sem);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let _w = sem.write();
                    std::hint::black_box(());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = stats.snapshot();
        assert!(snap.acquisitions >= 8_000);
    }

    #[test]
    fn blocked_writer_parks_and_is_woken() {
        // Deterministic parking: hold a read guard until the writer has
        // demonstrably parked, then release and expect it to finish.
        let stats = Arc::new(WaitStats::new("rwsem-park"));
        let sem = Arc::new(RwSemaphore::with_stats(Arc::clone(&stats)));
        let r = sem.read();
        let writer = {
            let sem = Arc::clone(&sem);
            std::thread::spawn(move || {
                let _w = sem.write();
            })
        };
        let parked_by = Instant::now() + Duration::from_secs(60);
        while stats.snapshot().parks == 0 {
            assert!(
                Instant::now() < parked_by,
                "the blocked writer never parked"
            );
            std::thread::yield_now();
        }
        drop(r);
        writer.join().unwrap();
        assert!(stats.snapshot().parks >= 1);
    }

    #[test]
    fn debug_output_mentions_state() {
        let sem = RwSemaphore::new();
        let _r = sem.read();
        let dbg = format!("{sem:?}");
        assert!(dbg.contains("state"));
        assert!(dbg.contains("block"));
    }
}
