//! The segment-based range lock of pNOVA (Kim et al.), the paper's `pnova-rw`.
//!
//! The resource is divided into equal segments, each protected by its own
//! reader-writer lock. Acquiring a range acquires the locks of every
//! overlapped segment, in ascending order (which prevents deadlock between
//! concurrent acquisitions); releasing drops them.
//!
//! The design works well when ranges map to few segments and rarely collide,
//! but — as Section 2 and the Figure 3 results show — a full-range
//! acquisition must take *every* segment lock, and choosing the segment count
//! is a workload-dependent tuning knob: too few segments recreate contention,
//! too many make every acquisition expensive. The layout is static, as in
//! pNOVA and as measured in the paper.

use std::sync::Arc;
use std::time::Instant;

use range_lock::{Range, RwRangeLock};
use rl_sync::stats::{WaitKind, WaitStats};
use rl_sync::wait::{Block, WaitPolicy, WaitQueue};
use rl_sync::{CachePadded, RwSemReadGuard, RwSemWriteGuard, RwSemaphore};

/// A reader-writer range lock built from per-segment reader-writer locks.
///
/// Each segment is an [`RwSemaphore`] waiting through the pluggable
/// [`WaitPolicy`] `P`. The default is [`Block`] — waiters on a contended
/// segment park and the segment's release wakes them — because pNOVA's
/// in-kernel per-segment locks (and the `parking_lot::RwLock` this lock
/// used before the policy layer existed) block their waiters; the bare
/// `SegmentRangeLock` name therefore keeps its pre-refactor behaviour.
///
/// # Examples
///
/// ```
/// use rl_baselines::SegmentRangeLock;
/// use range_lock::{Range, RwRangeLock};
///
/// // 256 segments covering the address range [0, 256): one slot per segment.
/// let lock = SegmentRangeLock::new(256, 256);
/// let r = lock.read(Range::new(0, 16));
/// let w = lock.write(Range::new(128, 192));
/// drop(r);
/// drop(w);
/// ```
pub struct SegmentRangeLock<P: WaitPolicy = Block> {
    /// Segment `i` covers `[i * segment_size, (i + 1) * segment_size)`.
    segments: Vec<CachePadded<RwSemaphore<P>>>,
    segment_size: u64,
    /// Total span covered by the segments; addresses past the span clamp to
    /// the last segment.
    span: u64,
    stats: Option<Arc<WaitStats>>,
    /// Lock-level wake channel for suspended two-phase (async / timed)
    /// acquisitions, which span segments and therefore cannot wait on one
    /// segment's queue; every guard drop wakes it (sync waiters keep using
    /// the per-segment queues).
    queue: WaitQueue,
}

impl SegmentRangeLock {
    /// Creates a lock covering `[0, span)` split into `num_segments` segments
    /// with the default [`Block`] wait policy (parked waiters, as in pNOVA).
    ///
    /// # Panics
    ///
    /// Panics if `num_segments` is zero or `span` is zero.
    pub fn new(span: u64, num_segments: usize) -> Self {
        Self::with_policy(span, num_segments)
    }
}

impl<P: WaitPolicy> SegmentRangeLock<P> {
    /// Creates a lock covering `[0, span)` split into `num_segments`
    /// segments whose waiters wait through policy `P`.
    ///
    /// # Panics
    ///
    /// Panics if `num_segments` is zero or `span` is zero.
    pub fn with_policy(span: u64, num_segments: usize) -> Self {
        assert!(num_segments > 0, "segment count must be positive");
        assert!(span > 0, "span must be positive");
        SegmentRangeLock {
            segments: (0..num_segments)
                .map(|_| CachePadded::new(RwSemaphore::with_policy()))
                .collect(),
            segment_size: span.div_ceil(num_segments as u64).max(1),
            span,
            stats: None,
            queue: WaitQueue::new(),
        }
    }

    /// Attaches a [`WaitStats`] sink recording contended acquisition times;
    /// under `Block`, every segment also records its park/wake counts there,
    /// and the lock-level queue its waker-registration/cancel counts.
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        for seg in self.segments.iter_mut() {
            seg.attach_park_stats(Arc::clone(&stats));
        }
        self.queue.attach_stats(Arc::clone(&stats));
        self.stats = Some(stats);
        self
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Maps a range to the inclusive segment index interval it covers.
    /// Ranges entirely past the span clamp to the last segment so that the
    /// lock still provides exclusion for out-of-span addresses.
    fn segment_span(&self, range: &Range) -> (usize, usize) {
        let last = self.segments.len() - 1;
        if range.start >= self.span {
            return (last, last);
        }
        let end_addr = range.end.min(self.span).saturating_sub(1).max(range.start);
        let index_of = |addr: u64| ((addr / self.segment_size) as usize).min(last);
        (index_of(range.start), index_of(end_addr))
    }

    /// The segments `range` covers, in ascending (acquisition) order.
    fn covered(&self, range: &Range) -> &[CachePadded<RwSemaphore<P>>] {
        let (first, last) = self.segment_span(range);
        &self.segments[first..=last]
    }

    /// Acquires `range` in shared mode.
    pub fn read(&self, range: Range) -> SegmentReadGuard<'_, P> {
        let guards = self.lock_all(
            &range,
            WaitKind::Read,
            RwSemaphore::try_read,
            RwSemaphore::read,
        );
        SegmentReadGuard { lock: self, guards }
    }

    /// Acquires `range` in exclusive mode.
    pub fn write(&self, range: Range) -> SegmentWriteGuard<'_, P> {
        let guards = self.lock_all(
            &range,
            WaitKind::Write,
            RwSemaphore::try_write,
            RwSemaphore::write,
        );
        SegmentWriteGuard { lock: self, guards }
    }

    /// Attempts to acquire `range` in shared mode without waiting: every
    /// overlapped segment must be immediately available, otherwise the guards
    /// collected so far are dropped and `None` is returned.
    pub fn try_read(&self, range: Range) -> Option<SegmentReadGuard<'_, P>> {
        let guards = self.try_all(&range, RwSemaphore::try_read)?;
        Some(SegmentReadGuard { lock: self, guards })
    }

    /// Attempts to acquire `range` in exclusive mode without waiting; see
    /// [`SegmentRangeLock::try_read`].
    pub fn try_write(&self, range: Range) -> Option<SegmentWriteGuard<'_, P>> {
        let guards = self.try_all(&range, RwSemaphore::try_write)?;
        Some(SegmentWriteGuard { lock: self, guards })
    }

    /// Takes every covered segment in ascending order, trying each before
    /// waiting on it so an acquisition that never waited records as
    /// uncontended.
    fn lock_all<'a, G>(
        &'a self,
        range: &Range,
        kind: WaitKind,
        try_one: impl Fn(&'a RwSemaphore<P>) -> Option<G>,
        wait_one: impl Fn(&'a RwSemaphore<P>) -> G,
    ) -> Vec<G> {
        let started = Instant::now();
        let mut contended = false;
        let guards = self
            .covered(range)
            .iter()
            .map(|seg| {
                try_one(seg).unwrap_or_else(|| {
                    contended = true;
                    wait_one(seg)
                })
            })
            .collect();
        if let Some(s) = &self.stats {
            if contended {
                s.record_wait_ns(kind, started.elapsed().as_nanos() as u64);
            } else {
                s.record_uncontended();
            }
        }
        guards
    }

    /// Takes every covered segment or none. A failed attempt gives back the
    /// segments it had collected; that transient partial hold may have
    /// failed another bounded attempt (a sync `try_` or a suspended
    /// two-phase poll), so per the no-residue contract the lock-level queue
    /// is woken once the segments are free again and that attempt re-runs.
    fn try_all<'a, G>(
        &'a self,
        range: &Range,
        try_one: impl Fn(&'a RwSemaphore<P>) -> Option<G>,
    ) -> Option<Vec<G>> {
        let covered = self.covered(range);
        let mut guards = Vec::with_capacity(covered.len());
        for seg in covered {
            match try_one(seg) {
                Some(g) => guards.push(g),
                None => {
                    let held_any = !guards.is_empty();
                    drop(guards);
                    if held_any {
                        self.queue.wake_all();
                    }
                    return None;
                }
            }
        }
        if let Some(s) = &self.stats {
            s.record_uncontended();
        }
        Some(guards)
    }
}

impl<P: WaitPolicy> std::fmt::Debug for SegmentRangeLock<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentRangeLock")
            .field("segments", &self.num_segments())
            .field("span", &self.span)
            .finish()
    }
}

/// RAII guard for a shared segment-lock acquisition.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct SegmentReadGuard<'a, P: WaitPolicy = Block> {
    lock: &'a SegmentRangeLock<P>,
    guards: Vec<RwSemReadGuard<'a, P>>,
}

impl<P: WaitPolicy> Drop for SegmentReadGuard<'_, P> {
    fn drop(&mut self) {
        // Release every segment first, then wake suspended two-phase
        // acquisitions (sync waiters are woken by the per-segment releases).
        self.guards.clear();
        self.lock.queue.wake_all();
    }
}

/// RAII guard for an exclusive segment-lock acquisition.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct SegmentWriteGuard<'a, P: WaitPolicy = Block> {
    lock: &'a SegmentRangeLock<P>,
    guards: Vec<RwSemWriteGuard<'a, P>>,
}

impl<P: WaitPolicy> Drop for SegmentWriteGuard<'_, P> {
    fn drop(&mut self) {
        self.guards.clear();
        self.lock.queue.wake_all();
    }
}

// The two-phase protocol for the segment lock is the try-based adapter (like
// the tree locks): **poll** attempts every overlapped segment in ascending
// order and rolls back on the first unavailable one, so a suspended
// acquisition holds no segment while it waits — unlike a blocking
// acquisition, which camps on each segment queue in turn. Two consequences,
// both documented limitations of the pNOVA design rather than of the
// adapter: a suspended wide acquisition can be starved by churn on its
// segments (it needs them all free at one poll), and the per-segment
// anti-starvation preference of `RwSemaphore` does not protect it. Every
// guard drop wakes the lock-level queue, so a suspended poller re-runs
// whenever any segment frees.
range_lock::try_based_two_phase!(SegmentRangeLock<P>, lock => &lock.queue);

impl<P: WaitPolicy> RwRangeLock for SegmentRangeLock<P> {
    type ReadGuard<'a> = SegmentReadGuard<'a, P>;
    type WriteGuard<'a> = SegmentWriteGuard<'a, P>;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        SegmentRangeLock::read(self, range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        SegmentRangeLock::write(self, range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        SegmentRangeLock::try_read(self, range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        SegmentRangeLock::try_write(self, range)
    }

    fn name(&self) -> &'static str {
        "pnova-rw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

    #[test]
    fn segment_mapping_covers_span() {
        let lock = SegmentRangeLock::new(256, 16); // 16 addresses per segment
        assert_eq!(lock.segment_span(&Range::new(0, 16)), (0, 0));
        assert_eq!(lock.segment_span(&Range::new(0, 17)), (0, 1));
        assert_eq!(lock.segment_span(&Range::new(15, 16)), (0, 0));
        assert_eq!(lock.segment_span(&Range::new(240, 256)), (15, 15));
        assert_eq!(lock.segment_span(&Range::FULL), (0, 15));
        // Out-of-span addresses clamp to the last segment.
        assert_eq!(lock.segment_span(&Range::new(1_000, 2_000)), (15, 15));
        // A span the segment size does not divide: the tail clamps too.
        let odd = SegmentRangeLock::new(10, 8); // 2 addresses per segment
        assert_eq!(odd.segment_span(&Range::new(9, 10)), (4, 4));
        assert_eq!(odd.segment_span(&Range::FULL), (0, 4));
    }

    #[test]
    fn readers_share_writers_exclude() {
        let lock = SegmentRangeLock::new(256, 16);
        let r1 = lock.read(Range::new(0, 100));
        let r2 = lock.read(Range::new(50, 150));
        drop(r1);
        drop(r2);
        let w = lock.write(Range::new(0, 100));
        drop(w);
    }

    #[test]
    fn disjoint_segments_do_not_block() {
        let lock = Arc::new(SegmentRangeLock::new(256, 16));
        let w1 = lock.write(Range::new(0, 16));
        // A writer on a different segment must acquire immediately.
        let w2 = lock.write(Range::new(128, 144));
        drop(w1);
        drop(w2);
    }

    #[test]
    fn overlapping_writer_blocks() {
        let lock = Arc::new(SegmentRangeLock::new(256, 16));
        let w = lock.write(Range::new(0, 64));
        let l2 = Arc::clone(&lock);
        let handle = std::thread::spawn(move || {
            let _w2 = l2.write(Range::new(32, 96));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(w);
        handle.join().unwrap();
    }

    #[test]
    fn false_sharing_on_same_segment_serializes() {
        // Two disjoint ranges falling into the same segment serialize — the
        // granularity limitation discussed in Section 2.
        let lock = Arc::new(SegmentRangeLock::new(256, 4)); // 64 addresses/segment
        let w = lock.write(Range::new(0, 8));
        let l2 = Arc::clone(&lock);
        let handle = std::thread::spawn(move || {
            let _w2 = l2.write(Range::new(32, 40));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(w);
        handle.join().unwrap();
    }

    #[test]
    fn reader_writer_exclusion_stress() {
        const THREADS: usize = 8;
        const ITERS: usize = 500;
        let lock = Arc::new(SegmentRangeLock::new(1024, 64));
        let readers = Arc::new(AtomicI64::new(0));
        let writer_inside = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let readers = Arc::clone(&readers);
            let writer_inside = Arc::clone(&writer_inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let range = Range::new(0, 1024); // always the full span
                    if (t + i) % 4 == 0 {
                        let g = lock.write(range);
                        if writer_inside.swap(true, Ordering::SeqCst)
                            || readers.load(Ordering::SeqCst) != 0
                        {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        writer_inside.store(false, Ordering::SeqCst);
                        drop(g);
                    } else {
                        let g = lock.read(range);
                        readers.fetch_add(1, Ordering::SeqCst);
                        if writer_inside.load(Ordering::SeqCst) {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        readers.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stats_sink_is_fed() {
        let stats = Arc::new(WaitStats::new("pnova"));
        let lock = SegmentRangeLock::new(256, 8).with_stats(Arc::clone(&stats));
        for _ in 0..10 {
            drop(lock.write(Range::FULL));
        }
        assert!(stats.snapshot().acquisitions >= 10);
    }

    #[test]
    fn trait_name() {
        assert_eq!(RwRangeLock::name(&SegmentRangeLock::new(16, 4)), "pnova-rw");
    }

    #[test]
    fn failed_try_with_partial_holds_wakes_the_lock_queue() {
        // Regression: a bounded attempt that acquired some segments and then
        // rolled back transiently blocked other bounded attempts; per the
        // two-phase contract its rollback must wake the lock-level queue
        // (observable as a generation bump) so suspended pollers re-run.
        let lock = SegmentRangeLock::new(256, 16); // 16 addresses/segment
        let held = lock.write(Range::new(32, 48)); // segment 2 only
        let gen_before = lock.queue.generation();
        // Spans segments 0..=2: acquires 0 and 1, fails at 2, rolls back.
        assert!(lock.try_write(Range::new(0, 48)).is_none());
        assert!(
            lock.queue.generation() > gen_before,
            "rollback of partial holds must wake the lock-level queue"
        );
        // A failure with *no* partial hold (first segment blocked) stays
        // quiet: nothing transient was given back.
        let gen_before = lock.queue.generation();
        assert!(lock.try_write(Range::new(32, 48)).is_none());
        assert_eq!(lock.queue.generation(), gen_before);
        drop(held);
    }

    #[test]
    fn try_methods_respect_segment_conflicts() {
        let lock = SegmentRangeLock::new(256, 16);
        let w = lock.write(Range::new(0, 64));
        assert!(lock.try_write(Range::new(32, 96)).is_none());
        assert!(lock.try_read(Range::new(32, 96)).is_none());
        // Disjoint segments are immediately available.
        drop(
            lock.try_write(Range::new(128, 192))
                .expect("disjoint segments"),
        );
        drop(w);
        drop(lock.try_write(Range::new(32, 96)).expect("released"));
        // Readers share segments.
        let r = lock.read(Range::new(0, 64));
        drop(lock.try_read(Range::new(0, 64)).expect("readers share"));
        drop(r);
    }
}
