//! The exclusive-access list-based range lock (Section 4.1, Listing 1).
//!
//! Acquired ranges live in a singly linked list sorted by their starting
//! address. Acquiring a range means inserting a node at the right position
//! with a single CAS on the predecessor's `next` pointer; any two overlapping
//! ranges compete for the same insertion point, so at most one of them can be
//! in the list at any time — that is the entire mutual-exclusion argument.
//! Releasing a range marks the node's `next` pointer (one wait-free
//! fetch-and-add); marked nodes are physically unlinked by later traversals.
//!
//! The whole protocol — including the Section 4.5 empty-list fast path and
//! the Section 4.3 fairness gate — lives in [`crate::list_core::ListCore`],
//! shared with the reader-writer variant; this module is the thin
//! exclusive-mode façade over it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rl_sync::stats::WaitStats;
use rl_sync::wait::{SpinThenYield, WaitPolicy, WaitQueue};

use crate::list_core::{Exclusive, ListCore, Pending, RawGuard};
use crate::range::Range;
use crate::traits::RwRangeLock;
use crate::twophase::TwoPhaseRwRangeLock;

pub use crate::list_core::ListLockConfig;

/// An exclusive-access list-based range lock.
///
/// Disjoint ranges can be held simultaneously by different threads;
/// overlapping ranges are serialized. The lock itself uses no internal lock in
/// the common case.
///
/// Waiters wait through the pluggable [`WaitPolicy`] `P` (spin, spin-yield,
/// or park-and-wake); the default is [`SpinThenYield`], the paper's
/// `Pause()` loop. The empty-list fast path is identical under every policy.
///
/// # Examples
///
/// ```
/// use range_lock::{ListRangeLock, Range};
///
/// let lock = ListRangeLock::new();
/// let a = lock.acquire(Range::new(0, 100));
/// let b = lock.acquire(Range::new(100, 200)); // disjoint: no waiting
/// drop(a);
/// drop(b);
/// ```
///
/// Selecting the blocking policy (waiters park instead of spinning):
///
/// ```
/// use range_lock::{ListRangeLock, Range};
/// use rl_sync::wait::Block;
///
/// let lock = ListRangeLock::<Block>::with_policy();
/// drop(lock.acquire(Range::new(0, 100)));
/// ```
pub struct ListRangeLock<P: WaitPolicy = SpinThenYield> {
    core: ListCore<Exclusive, P>,
}

impl ListRangeLock {
    /// Creates a lock with the default configuration (fast path on, fairness
    /// off — the configuration evaluated in Section 7.1) and the default
    /// [`SpinThenYield`] wait policy.
    pub fn new() -> Self {
        Self::with_config(ListLockConfig::default())
    }

    /// Creates a default-policy lock with an explicit configuration.
    pub fn with_config(config: ListLockConfig) -> Self {
        Self::with_policy_config(config)
    }
}

impl<P: WaitPolicy> ListRangeLock<P> {
    /// Creates a lock waiting through policy `P` with the default
    /// configuration.
    pub fn with_policy() -> Self {
        Self::with_policy_config(ListLockConfig::default())
    }

    /// Creates a lock waiting through policy `P` with an explicit
    /// configuration.
    pub fn with_policy_config(config: ListLockConfig) -> Self {
        ListRangeLock {
            core: ListCore::with_config(config),
        }
    }

    /// Attaches a [`WaitStats`] sink recording contended acquisition times
    /// (and, under the `Block` policy, park/wake counts).
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        self.core.attach_stats(stats);
        self
    }

    /// Acquires exclusive access to `range`, blocking while any overlapping
    /// range is held.
    pub fn acquire(&self, range: Range) -> ListRangeGuard<'_, P> {
        ListRangeGuard {
            lock: self,
            raw: self.core.acquire(range, false),
        }
    }

    /// Acquires the whole resource (the paper's "full range" call).
    pub fn acquire_full(&self) -> ListRangeGuard<'_, P> {
        self.acquire(Range::FULL)
    }

    /// Attempts to acquire `range` without waiting.
    ///
    /// Returns `None` if an overlapping range is currently held; see the
    /// [`try_` contract](crate::traits#try_-semantics-normative) for the
    /// spurious-failure and no-residue guarantees. This entry point is not
    /// part of the paper's API but falls out of the design for free and is
    /// convenient for callers that can do other useful work.
    pub fn try_acquire(&self, range: Range) -> Option<ListRangeGuard<'_, P>> {
        self.core
            .try_acquire(range, false)
            .map(|raw| ListRangeGuard { lock: self, raw })
    }

    /// Acquires `range` like [`ListRangeLock::acquire`], but gives up
    /// (leaving no residue) once `timeout` elapses. Under the [`Block`]
    /// policy the waiter deadline-parks; the spinning policies check the
    /// clock between backoff steps. Generic code spells this
    /// [`TwoPhaseRwRangeLock::write_timeout`].
    ///
    /// [`Block`]: rl_sync::wait::Block
    pub fn acquire_timeout(
        &self,
        range: Range,
        timeout: Duration,
    ) -> Option<ListRangeGuard<'_, P>> {
        self.write_timeout(range, timeout)
    }

    /// Returns `true` if no range is currently held.
    ///
    /// Marked (released but not yet unlinked) nodes count as absent. The
    /// answer is immediately stale in the presence of concurrent threads and
    /// is intended for assertions and tests.
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// Returns the number of currently held (not logically deleted) ranges.
    pub fn held_ranges(&self) -> usize {
        self.core.held_ranges()
    }
}

impl<P: WaitPolicy> Default for ListRangeLock<P> {
    fn default() -> Self {
        Self::with_policy()
    }
}

impl<P: WaitPolicy> std::fmt::Debug for ListRangeLock<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListRangeLock")
            .field("held_ranges", &self.held_ranges())
            .field("config", self.core.config())
            .finish()
    }
}

/// RAII guard for a range held in a [`ListRangeLock`]; releases it on drop.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct ListRangeGuard<'a, P: WaitPolicy = SpinThenYield> {
    lock: &'a ListRangeLock<P>,
    raw: RawGuard,
}

// SAFETY: Releasing from another thread only performs atomic operations on the
// shared list (mark/CAS + queue wake) and retires the node into the
// *releasing* thread's epoch pool, so a guard may be moved across threads.
// (The raw node pointer inside `RawGuard` is what suppresses the automatic
// impl.)
unsafe impl<P: WaitPolicy> Send for ListRangeGuard<'_, P> {}

impl<P: WaitPolicy> ListRangeGuard<'_, P> {
    /// The range this guard protects.
    pub fn range(&self) -> Range {
        self.raw.range()
    }
}

impl<P: WaitPolicy> Drop for ListRangeGuard<'_, P> {
    fn drop(&mut self) {
        // SAFETY: `raw` came from this lock's core and is released exactly
        // once (here); the guard is unusable afterwards.
        unsafe { self.lock.core.release(&self.raw) };
    }
}

impl<P: WaitPolicy> std::fmt::Debug for ListRangeGuard<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListRangeGuard")
            .field("range", &self.range())
            .field("fast", &self.raw.took_fast_path())
            .finish()
    }
}

/// The exclusive lock's face in the reader-writer trait family: both modes
/// are the same exclusive acquisition, so overlapping "readers" serialize —
/// exactly the cost the paper's reader-writer variant exists to remove, and
/// how the file subsystem and the `filebench` sweep drive `list-ex` through
/// the same generic code as the sharing locks.
impl<P: WaitPolicy> RwRangeLock for ListRangeLock<P> {
    type ReadGuard<'a> = ListRangeGuard<'a, P>;
    type WriteGuard<'a> = ListRangeGuard<'a, P>;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        self.acquire(range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        self.acquire(range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        self.try_acquire(range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        self.try_acquire(range)
    }

    fn downgrade<'a>(
        &'a self,
        guard: Self::WriteGuard<'a>,
    ) -> Result<Self::ReadGuard<'a>, Self::WriteGuard<'a>> {
        // An exclusive hold trivially satisfies a shared one, so a
        // "downgrade" is the identity: the range stays continuously
        // (over-)protected.
        Ok(guard)
    }

    fn readers_share(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "list-ex"
    }
}

impl<P: WaitPolicy> TwoPhaseRwRangeLock for ListRangeLock<P> {
    fn enqueue_read(&self, range: Range) -> Pending {
        self.core.enqueue(range, false)
    }

    fn poll_read<'a>(&'a self, pending: &mut Pending) -> Option<Self::ReadGuard<'a>> {
        self.poll_write(pending)
    }

    fn enqueue_write(&self, range: Range) -> Pending {
        self.core.enqueue(range, false)
    }

    fn poll_write<'a>(&'a self, pending: &mut Pending) -> Option<Self::WriteGuard<'a>> {
        self.core
            .poll_acquire(pending)
            .map(|raw| ListRangeGuard { lock: self, raw })
    }

    fn cancel(&self, pending: &mut Pending) {
        self.core.cancel_acquire(pending);
    }

    fn wait_queue(&self) -> &WaitQueue {
        self.core.wait_queue()
    }

    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: Instant,
    ) -> bool {
        P::wait(self.core.wait_queue(), key, cond, Some(deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::sync::Arc;

    #[test]
    fn disjoint_ranges_coexist() {
        let lock = ListRangeLock::new();
        let a = lock.acquire(Range::new(0, 10));
        let b = lock.acquire(Range::new(10, 20));
        let c = lock.acquire(Range::new(100, 200));
        assert_eq!(lock.held_ranges(), 3);
        drop(a);
        drop(b);
        drop(c);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn guard_reports_its_range() {
        let lock = ListRangeLock::new();
        let g = lock.acquire(Range::new(5, 25));
        assert_eq!(g.range(), Range::new(5, 25));
    }

    #[test]
    fn fast_path_round_trip() {
        let lock = ListRangeLock::new();
        for _ in 0..100 {
            let g = lock.acquire(Range::new(0, 64));
            drop(g);
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn fast_path_disabled_still_works() {
        let lock = ListRangeLock::with_config(ListLockConfig {
            fast_path: false,
            ..Default::default()
        });
        for _ in 0..100 {
            let g = lock.acquire(Range::new(0, 64));
            drop(g);
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn try_acquire_conflicts() {
        let lock = ListRangeLock::new();
        let _a = lock.acquire(Range::new(0, 10));
        assert!(lock.try_acquire(Range::new(5, 15)).is_none());
        assert!(lock.try_acquire(Range::new(10, 20)).is_some());
    }

    #[test]
    fn full_range_excludes_everything() {
        let lock = Arc::new(ListRangeLock::new());
        let g = lock.acquire_full();
        assert!(lock.try_acquire(Range::new(12345, 12346)).is_none());
        drop(g);
        assert!(lock.try_acquire(Range::new(12345, 12346)).is_some());
    }

    #[test]
    fn overlapping_ranges_are_mutually_exclusive() {
        // Threads repeatedly acquire overlapping ranges and flip a shared
        // "inside" flag; any overlap of critical sections is detected.
        const THREADS: usize = 8;
        const ITERS: usize = 500;
        let lock = Arc::new(ListRangeLock::new());
        let inside = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let inside = Arc::clone(&inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    // All ranges overlap around address 50.
                    let start = ((t + i) % 10) as u64 * 5;
                    let g = lock.acquire(Range::new(start, start + 60));
                    if inside.swap(true, StdOrdering::SeqCst) {
                        violations.fetch_add(1, StdOrdering::SeqCst);
                    }
                    std::hint::black_box(i);
                    inside.store(false, StdOrdering::SeqCst);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(StdOrdering::SeqCst), 0);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn disjoint_ranges_run_concurrently() {
        // Partition the address space; each thread's slice never conflicts,
        // and a per-slice "owner" cell checks nobody else entered it.
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let lock = Arc::new(ListRangeLock::new());
        let owners: Arc<Vec<StdAtomicU64>> =
            Arc::new((0..THREADS).map(|_| StdAtomicU64::new(u64::MAX)).collect());
        let violations = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let owners = Arc::clone(&owners);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                let slice = Range::new(t as u64 * 100, t as u64 * 100 + 100);
                for _ in 0..ITERS {
                    let g = lock.acquire(slice);
                    let prev = owners[t].swap(t as u64, StdOrdering::SeqCst);
                    if prev != u64::MAX {
                        violations.fetch_add(1, StdOrdering::SeqCst);
                    }
                    owners[t].store(u64::MAX, StdOrdering::SeqCst);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(StdOrdering::SeqCst), 0);
    }

    #[test]
    fn fairness_configuration_is_functional() {
        let lock = Arc::new(ListRangeLock::with_config(ListLockConfig {
            fairness: true,
            impatience_threshold: 2,
            ..Default::default()
        }));
        const THREADS: usize = 4;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let start = ((t * 7 + i) % 50) as u64;
                    let g = lock.acquire(Range::new(start, start + 30));
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn stats_sink_receives_acquisitions() {
        let stats = Arc::new(WaitStats::new("list-ex"));
        let lock = ListRangeLock::new().with_stats(Arc::clone(&stats));
        for _ in 0..10 {
            drop(lock.acquire(Range::new(0, 10)));
        }
        assert!(stats.snapshot().acquisitions >= 10);
    }

    #[test]
    fn drop_with_outstanding_marked_nodes_is_clean() {
        // Acquire and release many disjoint ranges without ever triggering a
        // traversal that unlinks them, then drop the lock: Drop must free the
        // whole chain without leaking or double-freeing (exercised under the
        // test allocator and, in CI, under Miri-like assertions).
        let lock = ListRangeLock::with_config(ListLockConfig {
            fast_path: false,
            ..Default::default()
        });
        let guards: Vec<_> = (0..16)
            .map(|i| lock.acquire(Range::new(i * 10, i * 10 + 10)))
            .collect();
        drop(guards);
        drop(lock);
    }

    #[test]
    fn every_wait_policy_provides_exclusion() {
        use rl_sync::wait::{Block, Spin};

        fn storm<P: rl_sync::wait::WaitPolicy>(lock: ListRangeLock<P>) {
            const THREADS: usize = 4;
            const ITERS: usize = 300;
            let lock = Arc::new(lock);
            let inside = Arc::new(AtomicBool::new(false));
            let violations = Arc::new(StdAtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let lock = Arc::clone(&lock);
                let inside = Arc::clone(&inside);
                let violations = Arc::clone(&violations);
                handles.push(std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let start = ((t + i) % 5) as u64 * 10;
                        let g = lock.acquire(Range::new(start, start + 60));
                        if inside.swap(true, StdOrdering::SeqCst) {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        inside.store(false, StdOrdering::SeqCst);
                        drop(g);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(violations.load(StdOrdering::SeqCst), 0);
            assert!(lock.is_quiescent());
        }

        storm(ListRangeLock::<Spin>::with_policy());
        storm(ListRangeLock::<Block>::with_policy());
    }

    #[test]
    fn blocked_waiter_parks_and_is_woken() {
        use rl_sync::wait::Block;

        // Deterministic parking: hold an overlapping range until the waiter
        // has demonstrably parked (stats mirror the queue counters), then
        // release and expect it to finish.
        let stats = Arc::new(WaitStats::new("list-ex-block"));
        let lock = Arc::new(ListRangeLock::<Block>::with_policy().with_stats(Arc::clone(&stats)));
        let held = lock.acquire(Range::new(0, 100));
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                drop(lock.acquire(Range::new(50, 150)));
            })
        };
        while stats.snapshot().parks == 0 {
            std::thread::yield_now();
        }
        drop(held);
        waiter.join().unwrap();
        let snap = stats.snapshot();
        assert!(snap.parks >= 1);
        assert!(snap.wakes >= 1);
    }

    #[test]
    fn trait_object_usage_via_generics() {
        fn exercise<L: RwRangeLock>(lock: &L) {
            drop(lock.write(Range::new(0, 1)));
            drop(lock.read(Range::new(0, 1)));
            drop(lock.write_full());
        }
        let lock = ListRangeLock::new();
        exercise(&lock);
        assert_eq!(lock.name(), "list-ex");
    }
}
