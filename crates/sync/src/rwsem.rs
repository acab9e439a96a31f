//! A blocking reader-writer semaphore approximating the kernel's `mmap_sem`.
//!
//! The *stock* Linux configuration evaluated in Section 7.2 protects the whole
//! VM subsystem with `mmap_sem`, an `rw_semaphore`: readers (page faults) may
//! share the lock, writers (mmap / munmap / mprotect) are exclusive, and
//! contended acquisitions first spin optimistically and then block until woken
//! by a releaser. [`RwSemaphore`] reproduces that behaviour in user space:
//!
//! * a lock-free fast path (single CAS) for uncontended readers and writers;
//! * a slow path that waits through the semaphore's [`WaitQueue`] — by
//!   default under [`WaitPolicyKind::Block`], i.e. a bounded
//!   optimistic-spinning phase followed by parking, which is exactly the
//!   kernel `rw_semaphore` shape;
//! * writer preference — once a writer is waiting, new readers take the slow
//!   path, which is what makes `mmap_sem` collapse under the Metis workloads.
//!
//! The surface is one mode-taking triple — [`RwSemaphore::acquire`],
//! [`RwSemaphore::try_acquire`] and the raw [`RwSemaphore::release`] — for
//! the locks that keep their holds in tokens of their own (the `stock` and
//! `pnova-rw` baselines), plus one RAII guard, [`RwSemGuard`], built on it.
//! The policy is a constructor argument ([`RwSemaphore::with_wait`]) so the
//! fairness gate of the list-based range locks and the per-segment locks of
//! the `pnova-rw` baseline wait the way their enclosing lock does.
//!
//! Acquisition wait times can be reported to a [`WaitStats`] so the benchmark
//! harness can reproduce Figure 7's `stock` series; under `Block` the same
//! sink also receives park/wake counts.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::WaitStats;
use crate::wait::{WaitPolicyKind, WaitQueue};

/// The two lock modes (POSIX `F_RDLCK` / `F_WRLCK`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock: shared-shared pairs do not conflict.
    Shared,
    /// Exclusive (write) lock: conflicts with everything overlapping.
    Exclusive,
}

impl LockMode {
    /// Returns `true` if two overlapping ranges in these modes conflict.
    pub fn conflicts_with(self, other: LockMode) -> bool {
        !(self == LockMode::Shared && other == LockMode::Shared)
    }

    /// Stable short name (`"shared"` / `"exclusive"`).
    pub fn name(self) -> &'static str {
        match self {
            LockMode::Shared => "shared",
            LockMode::Exclusive => "exclusive",
        }
    }
}

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
/// use rl_sync::{LockMode, RwSemGuard, RwSemaphore};
///
/// let sem = RwSemaphore::new();
/// {
///     let _r1 = RwSemGuard::new(&sem, LockMode::Shared);
///     let _r2 = RwSemGuard::new(&sem, LockMode::Shared); // readers share
///     assert!(!sem.try_acquire(LockMode::Exclusive));
/// }
/// let _w = RwSemGuard::new(&sem, LockMode::Exclusive); // writers are exclusive
/// ```
///
/// Waiting through a different policy is a constructor argument:
///
/// ```
/// use rl_sync::wait::WaitPolicyKind;
/// use rl_sync::{LockMode, RwSemGuard, RwSemaphore};
///
/// let sem = RwSemaphore::with_wait(WaitPolicyKind::SpinThenYield);
/// let _w = RwSemGuard::new(&sem, LockMode::Exclusive);
/// ```
pub struct RwSemaphore {
    /// Number of active readers, or [`WRITER`] when a writer holds the lock.
    state: AtomicI64,
    /// Number of writers that are waiting (blocks new fast-path readers).
    writers_waiting: AtomicU64,
    /// Where blocked acquisitions wait, through its policy.
    queue: WaitQueue,
    stats: Option<Arc<WaitStats>>,
}

impl RwSemaphore {
    /// How many slow-path polls honor writer preference before a reader may
    /// barge past waiting writers (the anti-starvation escape hatch the
    /// parked phase has always had).
    const SPIN_ROUNDS: u32 = 64;

    /// Creates a new, unlocked semaphore that blocks its waiters, like the
    /// kernel's.
    pub fn new() -> Self {
        Self::with_wait(WaitPolicyKind::Block)
    }

    /// Creates a new, unlocked semaphore whose waiters wait through `wait`.
    pub fn with_wait(wait: WaitPolicyKind) -> Self {
        RwSemaphore {
            state: AtomicI64::new(0),
            writers_waiting: AtomicU64::new(0),
            queue: WaitQueue::new(wait),
            stats: None,
        }
    }

    /// Reports contended wait times (and park/wake counts) to `stats`.
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        self.queue.attach_stats(Arc::clone(&stats));
        self.stats = Some(stats);
        self
    }

    /// Mirrors this semaphore's park/wake counters into `stats` (used by
    /// composite locks that share one counter block across many segments).
    pub fn attach_park_stats(&mut self, stats: Arc<WaitStats>) {
        self.queue.attach_stats(stats);
    }

    /// Acquires the semaphore in `mode`, waiting as long as it takes. The
    /// hold goes back through [`RwSemaphore::release`] (or is a
    /// [`RwSemGuard`]'s).
    pub fn acquire(&self, mode: LockMode) {
        if !self.try_acquire(mode) {
            self.acquire_slow(mode);
        }
    }

    /// Attempts an acquisition in `mode` without waiting; a grant counts as
    /// an uncontended acquisition.
    pub fn try_acquire(&self, mode: LockMode) -> bool {
        let taken = match mode {
            LockMode::Shared => self.try_read_fast(),
            LockMode::Exclusive => self.try_write(),
        };
        if taken {
            if let Some(s) = &self.stats {
                s.record_uncontended();
            }
        }
        taken
    }

    /// Releases one hold in `mode`, waking the waiters it may admit.
    ///
    /// # Safety
    ///
    /// The caller holds the semaphore in `mode` — taken through
    /// [`RwSemaphore::acquire`] or [`RwSemaphore::try_acquire`] — and gives
    /// that hold back exactly once.
    pub unsafe fn release(&self, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                let prev = self.state.fetch_sub(1, Ordering::Release);
                debug_assert!(prev > 0, "read release without matching read acquire");
                if prev == 1 {
                    // The lock just became free. Only writers can be blocked
                    // on a read release (parked readers are waiting out a
                    // writer, who will broadcast on its own release), so
                    // wake the writer wait class alone and leave reader
                    // parkers undisturbed.
                    self.queue.wake_key(WRITE_WAIT_KEY);
                }
            }
            LockMode::Exclusive => {
                let prev = self.state.swap(0, Ordering::Release);
                debug_assert_eq!(prev, WRITER, "write release without matching write acquire");
                // Both wait classes are eligible after a write release
                // (readers may share, the next writer may take over), so
                // this one stays a broadcast.
                self.queue.wake_all();
            }
        }
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

    #[inline]
    fn try_write(&self) -> bool {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// The contended acquisition, timed like every lock's slow path: the
    /// clock is read only for a stats sink.
    #[cold]
    fn acquire_slow(&self, mode: LockMode) {
        let started = self.stats.as_ref().map(|_| Instant::now());
        match mode {
            LockMode::Shared => {
                // Two-phase predicate, matching the kernel shape: the first
                // polls honor writer preference (optimistic phase), later
                // polls — the parked phase under `Block` — may proceed past
                // waiting writers. Without the barge, readers and writers
                // could starve each other: a steady writer stream keeps
                // `writers_waiting` non-zero forever and a
                // preference-honoring reader would never run. Liveness of
                // the barging phase needs only releases, which always wake
                // the queue.
                let mut polls: u32 = 0;
                let admitted = || {
                    polls = polls.saturating_add(1);
                    if polls <= Self::SPIN_ROUNDS {
                        self.try_read_fast()
                    } else {
                        self.try_read_any()
                    }
                };
                self.queue.wait(READ_WAIT_KEY, admitted, None);
            }
            LockMode::Exclusive => {
                self.writers_waiting.fetch_add(1, Ordering::Relaxed);
                self.queue.wait(WRITE_WAIT_KEY, || self.try_write(), None);
                self.writers_waiting.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if let (Some(s), Some(started)) = (&self.stats, started) {
            s.record_wait_ns(mode.into(), started.elapsed().as_nanos() as u64);
        }
    }
}

impl Default for RwSemaphore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RwSemaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwSemaphore")
            .field("state", &self.state.load(Ordering::Relaxed))
            .field(
                "writers_waiting",
                &self.writers_waiting.load(Ordering::Relaxed),
            )
            .field("queue", &self.queue)
            .finish()
    }
}

/// RAII hold of an [`RwSemaphore`] in one mode, released on drop.
#[must_use = "the semaphore is released as soon as the guard is dropped"]
pub struct RwSemGuard<'a> {
    sem: &'a RwSemaphore,
    mode: LockMode,
}

impl<'a> RwSemGuard<'a> {
    /// Acquires `sem` in `mode` ([`RwSemaphore::acquire`]) and holds it
    /// until the guard drops.
    pub fn new(sem: &'a RwSemaphore, mode: LockMode) -> Self {
        sem.acquire(mode);
        RwSemGuard { sem, mode }
    }
}

impl Drop for RwSemGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: The guard is the hold `new` took in `mode`, released once,
        // here.
        unsafe { self.sem.release(self.mode) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use LockMode::{Exclusive, Shared};

    #[test]
    fn readers_share() {
        let sem = RwSemaphore::new();
        let r1 = RwSemGuard::new(&sem, Shared);
        let r2 = RwSemGuard::new(&sem, Shared);
        assert_eq!(sem.reader_count(), 2);
        assert!(!sem.try_acquire(Exclusive));
        drop(r1);
        drop(r2);
        assert!(sem.try_acquire(Exclusive));
    }

    #[test]
    fn writer_excludes_everyone() {
        let sem = RwSemaphore::new();
        let w = RwSemGuard::new(&sem, Exclusive);
        assert!(sem.is_write_locked());
        assert!(!sem.try_acquire(Shared));
        assert!(!sem.try_acquire(Exclusive));
        drop(w);
        assert!(!sem.is_write_locked());
        assert!(sem.try_acquire(Shared));
    }

    fn hammer_writers(sem: Arc<RwSemaphore>) {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let sem = Arc::clone(&sem);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let _w = RwSemGuard::new(&sem, Exclusive);
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
        for wait in WaitPolicyKind::ALL {
            hammer_writers(Arc::new(RwSemaphore::with_wait(wait)));
        }
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
                        let _w = RwSemGuard::new(&sem, Exclusive);
                        writer_active.fetch_add(1, Ordering::SeqCst);
                        if writer_active.load(Ordering::SeqCst) != 1 {
                            violation.fetch_add(1, Ordering::SeqCst);
                        }
                        writer_active.fetch_sub(1, Ordering::SeqCst);
                    } else {
                        let _r = RwSemGuard::new(&sem, Shared);
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
        let sem = Arc::new(RwSemaphore::new().with_stats(Arc::clone(&stats)));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sem = Arc::clone(&sem);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let _w = RwSemGuard::new(&sem, Exclusive);
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
        let sem = Arc::new(RwSemaphore::new().with_stats(Arc::clone(&stats)));
        let r = RwSemGuard::new(&sem, Shared);
        let writer = {
            let sem = Arc::clone(&sem);
            std::thread::spawn(move || {
                let _w = RwSemGuard::new(&sem, Exclusive);
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
        assert_eq!(stats.snapshot().write_waits, 1);
    }

    #[test]
    fn debug_output_mentions_state() {
        let sem = RwSemaphore::new();
        let _r = RwSemGuard::new(&sem, Shared);
        let dbg = format!("{sem:?}");
        assert!(dbg.contains("state"));
        assert!(dbg.contains("block"));
    }
}
