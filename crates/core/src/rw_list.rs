//! The reader-writer list-based range lock (Section 4.2, Listings 2–3).
//!
//! This extends the exclusive list lock so that overlapping *reader* ranges
//! may coexist while writers still exclude every overlapping range. The
//! insertion traversal keeps readers sorted by start address and lets a reader
//! slide past other readers it overlaps with; that alone would admit the
//! reader/writer race of Figure 1 (a reader and a writer inserting after
//! different predecessors and never contending on the same pointer), so every
//! successful insertion is followed by a **validation** pass:
//!
//! * a **reader** (`r_validate`) keeps scanning forward from its own node
//!   until it reaches a node starting after its range; if it meets an
//!   overlapping writer it waits for that writer to release;
//! * a **writer** (`w_validate`) re-scans from the head until it finds its own
//!   node; if it meets an overlapping (necessarily reader) node it deletes its
//!   own node and restarts the acquisition from scratch.
//!
//! Readers are therefore preferred in conflicts, exactly as in the paper.
//!
//! The traversal, validation and release machinery is shared with the
//! exclusive lock through [`crate::list_core::ListCore`]; this module is the
//! thin reader-writer façade over it, and additionally exposes
//! [`RwListRangeGuard::downgrade`], which atomically flips a held writer node
//! to reader mode.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rl_sync::stats::WaitStats;
use rl_sync::wait::{SpinThenYield, WaitPolicy, WaitQueue};

use crate::list_core::{ListCore, ListLockConfig, Pending, RawGuard, ReaderWriter};
use crate::range::Range;
use crate::traits::RwRangeLock;
use crate::twophase::TwoPhaseRwRangeLock;

/// A reader-writer list-based range lock.
///
/// # Examples
///
/// ```
/// use range_lock::{Range, RwListRangeLock};
///
/// let lock = RwListRangeLock::new();
/// let r1 = lock.read(Range::new(0, 100));
/// let r2 = lock.read(Range::new(50, 150)); // overlapping readers share
/// drop(r1);
/// drop(r2);
/// let _w = lock.write(Range::new(0, 100)); // writers are exclusive
/// ```
pub struct RwListRangeLock<P: WaitPolicy = SpinThenYield> {
    core: ListCore<ReaderWriter, P>,
}

impl RwListRangeLock {
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

impl<P: WaitPolicy> RwListRangeLock<P> {
    /// Creates a lock waiting through policy `P` with the default
    /// configuration.
    pub fn with_policy() -> Self {
        Self::with_policy_config(ListLockConfig::default())
    }

    /// Creates a lock waiting through policy `P` with an explicit
    /// configuration.
    pub fn with_policy_config(config: ListLockConfig) -> Self {
        RwListRangeLock {
            core: ListCore::with_config(config),
        }
    }

    /// Attaches a [`WaitStats`] sink recording contended acquisition times
    /// (and, under the `Block` policy, park/wake counts).
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        self.core.attach_stats(stats);
        self
    }

    /// Acquires `range` in shared (reader) mode.
    pub fn read(&self, range: Range) -> RwListRangeGuard<'_, P> {
        RwListRangeGuard {
            lock: self,
            raw: self.core.acquire(range, true),
        }
    }

    /// Acquires `range` in exclusive (writer) mode.
    pub fn write(&self, range: Range) -> RwListRangeGuard<'_, P> {
        RwListRangeGuard {
            lock: self,
            raw: self.core.acquire(range, false),
        }
    }

    /// Acquires the entire resource in shared mode.
    pub fn read_full(&self) -> RwListRangeGuard<'_, P> {
        self.read(Range::FULL)
    }

    /// Acquires the entire resource in exclusive mode.
    pub fn write_full(&self) -> RwListRangeGuard<'_, P> {
        self.write(Range::FULL)
    }

    /// Attempts to acquire `range` in shared mode without waiting.
    ///
    /// Returns `None` if a conflicting writer is currently held; see the
    /// [trait-level contract](RwRangeLock::try_read) for the
    /// spurious-failure and no-residue guarantees.
    pub fn try_read(&self, range: Range) -> Option<RwListRangeGuard<'_, P>> {
        self.core
            .try_acquire(range, true)
            .map(|raw| RwListRangeGuard { lock: self, raw })
    }

    /// Attempts to acquire `range` in exclusive mode without waiting.
    ///
    /// Returns `None` if any overlapping range is currently held; see the
    /// [trait-level contract](RwRangeLock::try_write) for the
    /// spurious-failure and no-residue guarantees.
    pub fn try_write(&self, range: Range) -> Option<RwListRangeGuard<'_, P>> {
        self.core
            .try_acquire(range, false)
            .map(|raw| RwListRangeGuard { lock: self, raw })
    }

    /// Acquires `range` in shared mode like [`RwListRangeLock::read`], but
    /// gives up (leaving no residue) once `timeout` elapses. Under the
    /// [`Block`] policy the waiter deadline-parks; the spinning policies
    /// check the clock between backoff steps.
    ///
    /// [`Block`]: rl_sync::wait::Block
    pub fn read_timeout(&self, range: Range, timeout: Duration) -> Option<RwListRangeGuard<'_, P>> {
        TwoPhaseRwRangeLock::read_timeout(self, range, timeout)
    }

    /// Acquires `range` in exclusive mode like [`RwListRangeLock::write`],
    /// but gives up (leaving no residue) once `timeout` elapses.
    pub fn write_timeout(
        &self,
        range: Range,
        timeout: Duration,
    ) -> Option<RwListRangeGuard<'_, P>> {
        TwoPhaseRwRangeLock::write_timeout(self, range, timeout)
    }

    /// Returns the number of currently held (not logically deleted) ranges.
    pub fn held_ranges(&self) -> usize {
        self.core.held_ranges()
    }

    /// Returns `true` if no range is currently held.
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }
}

impl<P: WaitPolicy> Default for RwListRangeLock<P> {
    fn default() -> Self {
        Self::with_policy()
    }
}

impl<P: WaitPolicy> std::fmt::Debug for RwListRangeLock<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwListRangeLock")
            .field("held_ranges", &self.held_ranges())
            .field("config", self.core.config())
            .finish()
    }
}

/// RAII guard for a range held in a [`RwListRangeLock`] (shared or exclusive).
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct RwListRangeGuard<'a, P: WaitPolicy = SpinThenYield> {
    lock: &'a RwListRangeLock<P>,
    raw: RawGuard,
}

// SAFETY: Releasing from another thread only performs atomic operations on the
// shared list (mark/CAS + queue wake) and retires the node into the
// *releasing* thread's epoch pool, so a guard may be moved across threads.
// (The raw node pointer inside `RawGuard` is what suppresses the automatic
// impl.)
unsafe impl<P: WaitPolicy> Send for RwListRangeGuard<'_, P> {}

impl<'a, P: WaitPolicy> RwListRangeGuard<'a, P> {
    /// The range this guard protects.
    pub fn range(&self) -> Range {
        self.raw.range()
    }

    /// Returns `true` if this guard holds the range in shared (reader) mode.
    pub fn is_reader(&self) -> bool {
        self.raw.is_reader()
    }

    /// Atomically downgrades a write guard to a read guard **without
    /// releasing the range**: the node's reader flag is flipped in place and
    /// blocked overlapping readers are woken so they can share immediately.
    ///
    /// Unlike a drop-and-re-`read` sequence, no other writer can slip in
    /// between: the node never leaves the list, so the caller's exclusion
    /// only ever *weakens* to shared. Calling this on a guard that is already
    /// a read guard is a no-op.
    ///
    /// # Examples
    ///
    /// ```
    /// use range_lock::{Range, RwListRangeLock};
    ///
    /// let lock = RwListRangeLock::new();
    /// let w = lock.write(Range::new(0, 100));
    /// assert!(lock.try_read(Range::new(0, 100)).is_none());
    /// let r = w.downgrade();
    /// assert!(r.is_reader());
    /// // Overlapping readers now share; writers are still excluded.
    /// assert!(lock.try_read(Range::new(50, 150)).is_some());
    /// assert!(lock.try_write(Range::new(50, 150)).is_none());
    /// ```
    pub fn downgrade(self) -> RwListRangeGuard<'a, P> {
        if !self.raw.is_reader() {
            // SAFETY: `raw` is live (we own the guard) and this core is in
            // `ReaderWriter` mode.
            unsafe { self.lock.core.downgrade(&self.raw) };
        }
        self
    }
}

impl<P: WaitPolicy> Drop for RwListRangeGuard<'_, P> {
    fn drop(&mut self) {
        // SAFETY: `raw` came from this lock's core and is released exactly
        // once (here); the guard is unusable afterwards.
        unsafe { self.lock.core.release(&self.raw) };
    }
}

impl<P: WaitPolicy> std::fmt::Debug for RwListRangeGuard<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwListRangeGuard")
            .field("range", &self.range())
            .field("reader", &self.is_reader())
            .finish()
    }
}

impl<P: WaitPolicy> RwRangeLock for RwListRangeLock<P> {
    type ReadGuard<'a> = RwListRangeGuard<'a, P>;
    type WriteGuard<'a> = RwListRangeGuard<'a, P>;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        RwListRangeLock::read(self, range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        RwListRangeLock::write(self, range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        RwListRangeLock::try_read(self, range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        RwListRangeLock::try_write(self, range)
    }

    fn downgrade<'a>(
        &'a self,
        guard: Self::WriteGuard<'a>,
    ) -> Result<Self::ReadGuard<'a>, Self::WriteGuard<'a>> {
        Ok(guard.downgrade())
    }

    fn name(&self) -> &'static str {
        "list-rw"
    }
}

impl<P: WaitPolicy> TwoPhaseRwRangeLock for RwListRangeLock<P> {
    fn enqueue_read(&self, range: Range) -> Pending {
        self.core.enqueue(range, true)
    }

    fn poll_read<'a>(&'a self, pending: &mut Pending) -> Option<Self::ReadGuard<'a>> {
        self.poll_write(pending)
    }

    fn enqueue_write(&self, range: Range) -> Pending {
        self.core.enqueue(range, false)
    }

    fn poll_write<'a>(&'a self, pending: &mut Pending) -> Option<Self::WriteGuard<'a>> {
        // One guard type and one token type serve both modes: the mode was
        // fixed at enqueue and travels inside the token.
        self.core
            .poll_acquire(pending)
            .map(|raw| RwListRangeGuard { lock: self, raw })
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
    use std::sync::atomic::{AtomicI64, AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::sync::Arc;

    #[test]
    fn overlapping_readers_share() {
        let lock = RwListRangeLock::new();
        let r1 = lock.read(Range::new(0, 100));
        let r2 = lock.read(Range::new(50, 150));
        let r3 = lock.read(Range::new(0, 150));
        assert_eq!(lock.held_ranges(), 3);
        drop(r1);
        drop(r2);
        drop(r3);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn writer_excludes_overlapping_writer() {
        let lock = Arc::new(RwListRangeLock::new());
        let w = lock.write(Range::new(0, 100));
        let l2 = Arc::clone(&lock);
        let started = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            let _w2 = l2.write(Range::new(50, 150));
            started.elapsed()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(w);
        let waited = handle.join().unwrap();
        assert!(waited >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn disjoint_writers_coexist() {
        let lock = RwListRangeLock::new();
        let a = lock.write(Range::new(0, 10));
        let b = lock.write(Range::new(10, 20));
        let c = lock.write(Range::new(20, 30));
        assert_eq!(lock.held_ranges(), 3);
        drop(a);
        drop(b);
        drop(c);
    }

    #[test]
    fn guard_mode_is_reported() {
        let lock = RwListRangeLock::new();
        assert!(lock.read(Range::new(0, 1)).is_reader());
        assert!(!lock.write(Range::new(0, 1)).is_reader());
    }

    #[test]
    fn fast_path_read_then_write() {
        let lock = RwListRangeLock::new();
        for _ in 0..50 {
            drop(lock.read(Range::new(0, 10)));
            drop(lock.write(Range::new(0, 10)));
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_admits_readers_keeps_out_writers() {
        let lock = RwListRangeLock::new();
        let w = lock.write(Range::new(0, 100));
        assert!(lock.try_read(Range::new(50, 150)).is_none());
        let r = w.downgrade();
        assert!(r.is_reader());
        assert_eq!(r.range(), Range::new(0, 100));
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(0, 100)).is_none());
        drop(r2);
        drop(r);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_of_read_guard_is_noop() {
        let lock = RwListRangeLock::new();
        let r = lock.read(Range::new(0, 10)).downgrade();
        assert!(r.is_reader());
        drop(r);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_wakes_blocked_reader() {
        // A reader blocked on a held writer must proceed when the writer
        // downgrades (not only when it releases) — under the parking policy,
        // so a missing wake would park the reader past the deadline.
        use rl_sync::wait::Block;
        let lock = Arc::new(RwListRangeLock::<Block>::with_policy());
        let w = lock.write(Range::new(0, 100));
        let l2 = Arc::clone(&lock);
        let reader = std::thread::spawn(move || {
            let r = l2.read(Range::new(50, 150));
            assert!(r.is_reader());
        });
        // Give the reader time to block on the writer node.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let r = w.downgrade();
        reader.join().unwrap();
        drop(r);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_through_the_trait_succeeds() {
        let lock = RwListRangeLock::new();
        let w = RwRangeLock::write(&lock, Range::new(0, 10));
        let r = RwRangeLock::downgrade(&lock, w).expect("list-rw supports downgrade");
        assert!(r.is_reader());
        drop(r);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn reader_writer_exclusion_stress() {
        // Readers count themselves in a shared cell; writers require the cell
        // to be exactly zero while they are inside. Any violation of
        // reader-writer exclusion on overlapping ranges is detected.
        const THREADS: usize = 8;
        const ITERS: usize = 400;
        let lock = Arc::new(RwListRangeLock::new());
        let readers_inside = Arc::new(AtomicI64::new(0));
        let writer_inside = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let readers_inside = Arc::clone(&readers_inside);
            let writer_inside = Arc::clone(&writer_inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    // Every range overlaps address 500.
                    let start = ((t * 13 + i * 7) % 100) as u64 * 5;
                    let range = Range::new(start, start + 600);
                    if (t + i) % 3 == 0 {
                        let g = lock.write(range);
                        writer_inside.fetch_add(1, StdOrdering::SeqCst);
                        if writer_inside.load(StdOrdering::SeqCst) != 1
                            || readers_inside.load(StdOrdering::SeqCst) != 0
                        {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        writer_inside.fetch_sub(1, StdOrdering::SeqCst);
                        drop(g);
                    } else {
                        let g = lock.read(range);
                        readers_inside.fetch_add(1, StdOrdering::SeqCst);
                        if writer_inside.load(StdOrdering::SeqCst) != 0 {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        readers_inside.fetch_sub(1, StdOrdering::SeqCst);
                        drop(g);
                    }
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
    fn downgrade_stress_never_violates_exclusion() {
        // Writers downgrade mid-critical-section; from the downgrade on they
        // count as readers. Writer exclusivity before the downgrade and
        // reader/writer exclusion after it must both hold.
        const THREADS: usize = 6;
        const ITERS: usize = 300;
        let lock = Arc::new(RwListRangeLock::new());
        let readers_inside = Arc::new(AtomicI64::new(0));
        let writer_inside = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let readers_inside = Arc::clone(&readers_inside);
            let writer_inside = Arc::clone(&writer_inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let start = ((t * 13 + i * 7) % 50) as u64 * 5;
                    let range = Range::new(start, start + 300);
                    if (t + i) % 3 == 0 {
                        let g = lock.write(range);
                        writer_inside.fetch_add(1, StdOrdering::SeqCst);
                        if writer_inside.load(StdOrdering::SeqCst) != 1
                            || readers_inside.load(StdOrdering::SeqCst) != 0
                        {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        // Downgrade while inside: we become a reader.
                        writer_inside.fetch_sub(1, StdOrdering::SeqCst);
                        readers_inside.fetch_add(1, StdOrdering::SeqCst);
                        let g = g.downgrade();
                        if writer_inside.load(StdOrdering::SeqCst) != 0 {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        readers_inside.fetch_sub(1, StdOrdering::SeqCst);
                        drop(g);
                    } else {
                        let g = lock.read(range);
                        readers_inside.fetch_add(1, StdOrdering::SeqCst);
                        if writer_inside.load(StdOrdering::SeqCst) != 0 {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        readers_inside.fetch_sub(1, StdOrdering::SeqCst);
                        drop(g);
                    }
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
    fn full_range_writer_blocks_readers() {
        let lock = Arc::new(RwListRangeLock::new());
        let w = lock.write_full();
        let l2 = Arc::clone(&lock);
        let handle = std::thread::spawn(move || {
            let _r = l2.read(Range::new(1000, 2000));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(w);
        handle.join().unwrap();
    }

    #[test]
    fn figure_one_race_is_prevented() {
        // Reconstruction of the Figure 1 scenario: readers [1..10], [20..25],
        // [40..50] are in the list; a reader [15..45] and a writer [30..35]
        // arrive concurrently. Whatever the interleaving, the writer and the
        // new reader must never both hold their (overlapping) ranges.
        for _ in 0..200 {
            let lock = Arc::new(RwListRangeLock::new());
            let r1 = lock.read(Range::new(1, 10));
            let r2 = lock.read(Range::new(20, 25));
            let r3 = lock.read(Range::new(40, 50));
            let overlap = Arc::new(AtomicI64::new(0));
            let violations = Arc::new(StdAtomicU64::new(0));

            let lr = Arc::clone(&lock);
            let or = Arc::clone(&overlap);
            let vr = Arc::clone(&violations);
            let reader = std::thread::spawn(move || {
                let g = lr.read(Range::new(15, 45));
                let prev = or.fetch_add(1, StdOrdering::SeqCst);
                if prev < 0 {
                    vr.fetch_add(1, StdOrdering::SeqCst);
                }
                or.fetch_sub(1, StdOrdering::SeqCst);
                drop(g);
            });

            let lw = Arc::clone(&lock);
            let ow = Arc::clone(&overlap);
            let vw = Arc::clone(&violations);
            let writer = std::thread::spawn(move || {
                let g = lw.write(Range::new(30, 35));
                // Mark writer presence with a negative value.
                let prev = ow.fetch_sub(100, StdOrdering::SeqCst);
                if prev != 0 {
                    vw.fetch_add(1, StdOrdering::SeqCst);
                }
                ow.fetch_add(100, StdOrdering::SeqCst);
                drop(g);
            });

            drop(r1);
            drop(r2);
            drop(r3);
            reader.join().unwrap();
            writer.join().unwrap();
            assert_eq!(violations.load(StdOrdering::SeqCst), 0);
        }
    }

    #[test]
    fn reader_adjacent_to_held_writer_does_not_wait() {
        // Regression test: ranges are half-open, so a reader ending exactly
        // where a held writer starts is disjoint and must acquire
        // immediately (r_validate used to wait for the adjacent writer).
        let lock = RwListRangeLock::new();
        let w = lock.write(Range::new(185, 214));
        let r = lock.read(Range::new(166, 185));
        drop(r);
        let r2 = lock
            .try_read(Range::new(166, 185))
            .expect("adjacent reader");
        drop(r2);
        drop(w);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn try_read_try_write_respect_conflicts() {
        let lock = RwListRangeLock::new();
        // Empty lock: both modes succeed via the fast path.
        drop(lock.try_read(Range::new(0, 10)).expect("uncontended read"));
        drop(
            lock.try_write(Range::new(0, 10))
                .expect("uncontended write"),
        );

        // Readers share; writers are rejected while an overlapping reader or
        // writer is held, and succeed on disjoint ranges.
        let r = lock.read(Range::new(0, 100));
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(50, 150)).is_none());
        assert!(lock.try_write(Range::new(200, 300)).is_some());
        drop(r);
        drop(r2);

        let w = lock.write(Range::new(0, 100));
        assert!(lock.try_read(Range::new(50, 150)).is_none());
        assert!(lock.try_write(Range::new(50, 150)).is_none());
        drop(w);
        assert!(lock.try_write(Range::new(50, 150)).is_some());
        assert!(lock.is_quiescent());
    }

    #[test]
    fn try_acquire_stress_never_violates_exclusion() {
        const THREADS: usize = 4;
        const ITERS: usize = 400;
        let lock = Arc::new(RwListRangeLock::new());
        let readers_inside = Arc::new(AtomicI64::new(0));
        let writer_inside = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let readers_inside = Arc::clone(&readers_inside);
            let writer_inside = Arc::clone(&writer_inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let start = ((t * 7 + i * 11) % 60) as u64 * 4;
                    let range = Range::new(start, start + 300);
                    if (t + i) % 3 == 0 {
                        if let Some(g) = lock.try_write(range) {
                            writer_inside.fetch_add(1, StdOrdering::SeqCst);
                            if writer_inside.load(StdOrdering::SeqCst) != 1
                                || readers_inside.load(StdOrdering::SeqCst) != 0
                            {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            writer_inside.fetch_sub(1, StdOrdering::SeqCst);
                            drop(g);
                        }
                    } else if let Some(g) = lock.try_read(range) {
                        readers_inside.fetch_add(1, StdOrdering::SeqCst);
                        if writer_inside.load(StdOrdering::SeqCst) != 0 {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        readers_inside.fetch_sub(1, StdOrdering::SeqCst);
                        drop(g);
                    }
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
    fn trait_interface_round_trip() {
        fn exercise<L: RwRangeLock>(lock: &L) {
            drop(lock.read(Range::new(0, 5)));
            drop(lock.write(Range::new(0, 5)));
            drop(lock.read_full());
            drop(lock.write_full());
        }
        let lock = RwListRangeLock::new();
        exercise(&lock);
        assert_eq!(RwRangeLock::name(&lock), "list-rw");
    }

    #[test]
    fn every_wait_policy_preserves_rw_exclusion() {
        use rl_sync::wait::{Block, Spin, WaitPolicy};

        fn storm<P: WaitPolicy>(lock: RwListRangeLock<P>) {
            const THREADS: usize = 4;
            const ITERS: usize = 250;
            let lock = Arc::new(lock);
            let readers_inside = Arc::new(AtomicI64::new(0));
            let writer_inside = Arc::new(AtomicI64::new(0));
            let violations = Arc::new(StdAtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let lock = Arc::clone(&lock);
                let readers_inside = Arc::clone(&readers_inside);
                let writer_inside = Arc::clone(&writer_inside);
                let violations = Arc::clone(&violations);
                handles.push(std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let start = ((t * 13 + i * 7) % 50) as u64 * 5;
                        let range = Range::new(start, start + 300);
                        if (t + i) % 3 == 0 {
                            let g = lock.write(range);
                            writer_inside.fetch_add(1, StdOrdering::SeqCst);
                            if writer_inside.load(StdOrdering::SeqCst) != 1
                                || readers_inside.load(StdOrdering::SeqCst) != 0
                            {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            writer_inside.fetch_sub(1, StdOrdering::SeqCst);
                            drop(g);
                        } else {
                            let g = lock.read(range);
                            readers_inside.fetch_add(1, StdOrdering::SeqCst);
                            if writer_inside.load(StdOrdering::SeqCst) != 0 {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            readers_inside.fetch_sub(1, StdOrdering::SeqCst);
                            drop(g);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(violations.load(StdOrdering::SeqCst), 0);
            assert!(lock.is_quiescent());
        }

        storm(RwListRangeLock::<Spin>::with_policy());
        storm(RwListRangeLock::<Block>::with_policy());
    }

    #[test]
    fn fairness_enabled_variant_smoke() {
        let lock = Arc::new(RwListRangeLock::with_config(ListLockConfig {
            fairness: true,
            impatience_threshold: 2,
            ..Default::default()
        }));
        let mut handles = Vec::new();
        for t in 0..4 {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for i in 0..300 {
                    let start = ((t * 17 + i * 3) % 64) as u64;
                    if i % 4 == 0 {
                        drop(lock.write(Range::new(start, start + 32)));
                    } else {
                        drop(lock.read(Range::new(start, start + 32)));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(lock.is_quiescent());
    }
}
