//! Lock wait-time statistics — a user-space `lock_stat` analogue.
//!
//! Section 7.2 of the paper uses the kernel's `lock_stat` facility to measure
//! the average time threads spend waiting for `mmap_sem`, for the range lock,
//! and for the spin lock protecting the range tree (Figures 7 and 8). This
//! module provides the same measurement for our user-space reproduction.
//!
//! Every instrumented lock owns a [`WaitStats`] (usually shared through an
//! `Arc`). Slow paths time themselves and report through
//! [`WaitStats::record_wait_ns`] once the lock is acquired; acquisitions
//! that never waited count through [`WaitStats::record_uncontended`], and
//! only contended ones add wait time, matching `lock_stat`. [`LabeledStats`] keeps one [`WaitStats`] per
//! operation label for subsystems that funnel many operations through one
//! lock.
//!
//! Beyond the totals, every wait is also recorded into a pair of lock-free
//! log-bucketed latency histograms ([`rl_obs::hist`]), one per
//! [`WaitKind`], so snapshots can report p50/p90/p99/max wait times — the
//! tail behaviour that averages hide and the paper's figures are about.

use rl_obs::hist::{HistogramSnapshot, LatencyHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::rwsem::LockMode;

/// Whether a waiting acquisition was for shared (read) or exclusive (write)
/// access. Plain mutual-exclusion locks report everything as [`WaitKind::Write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitKind {
    /// Shared (reader) acquisition.
    Read,
    /// Exclusive (writer) acquisition.
    Write,
}

impl From<LockMode> for WaitKind {
    fn from(mode: LockMode) -> Self {
        match mode {
            LockMode::Shared => WaitKind::Read,
            LockMode::Exclusive => WaitKind::Write,
        }
    }
}

/// Wait-time counters for one lock instance.
///
/// All counters are monotonically increasing; nanosecond totals saturate at
/// `u64::MAX` (which would take centuries to reach).
#[derive(Debug)]
pub struct WaitStats {
    name: String,
    read_waits: AtomicU64,
    read_wait_ns: AtomicU64,
    write_waits: AtomicU64,
    write_wait_ns: AtomicU64,
    acquisitions: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    spurious_wakeups: AtomicU64,
    waker_registrations: AtomicU64,
    cancels: AtomicU64,
    deadlocks_detected: AtomicU64,
    batch_rollbacks: AtomicU64,
    read_hist: LatencyHistogram,
    write_hist: LatencyHistogram,
}

impl WaitStats {
    /// Creates a new, zeroed statistics block labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        WaitStats {
            name: name.into(),
            read_waits: AtomicU64::new(0),
            read_wait_ns: AtomicU64::new(0),
            write_waits: AtomicU64::new(0),
            write_wait_ns: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            spurious_wakeups: AtomicU64::new(0),
            waker_registrations: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
            deadlocks_detected: AtomicU64::new(0),
            batch_rollbacks: AtomicU64::new(0),
            read_hist: LatencyHistogram::new(),
            write_hist: LatencyHistogram::new(),
        }
    }

    /// Label given at construction time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records that an acquisition took the fast path (no waiting).
    #[inline]
    pub fn record_uncontended(&self) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one contended acquisition of kind `kind` that waited `ns`
    /// nanoseconds. Every lock times its own slow path and reports here.
    #[inline]
    pub fn record_wait_ns(&self, kind: WaitKind, ns: u64) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match kind {
            WaitKind::Read => {
                self.read_waits.fetch_add(1, Ordering::Relaxed);
                self.read_wait_ns.fetch_add(ns, Ordering::Relaxed);
                self.read_hist.record(ns);
            }
            WaitKind::Write => {
                self.write_waits.fetch_add(1, Ordering::Relaxed);
                self.write_wait_ns.fetch_add(ns, Ordering::Relaxed);
                self.write_hist.record(ns);
            }
        }
    }

    /// Records one park: a waiter descheduled itself (a thread park) instead
    /// of spinning. Fed by the lock's `WaitQueue` under the `Block` policy;
    /// always zero under the spinning policies.
    #[inline]
    pub fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one wake broadcast that found at least one parked waiter.
    #[inline]
    pub fn record_wake(&self) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one spurious wakeup: a parked waiter woke (broadcast or stale
    /// keyed signal), found its predicate still false, and re-parked. The
    /// wake-herd metric: broadcast wakes pay O(parked waiters) of these per
    /// release, keyed wakes are built to keep it near zero on disjoint-range
    /// workloads.
    #[inline]
    pub fn record_spurious_wakeup(&self) {
        self.spurious_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one async waker registration: a pending acquisition suspended
    /// itself (registered a [`core::task::Waker`]) instead of parking a
    /// thread. The async analogue of [`WaitStats::record_park`], fed by the
    /// lock's `WaitQueue` whichever wait policy the lock uses.
    #[inline]
    pub fn record_waker_registration(&self) {
        self.waker_registrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one abandoned two-phase acquisition: an acquisition future
    /// dropped before readiness, or a timed acquisition that expired.
    #[inline]
    pub fn record_cancel(&self) {
        self.cancels.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one acquisition refused with `EDEADLK`: the waits-for cycle
    /// check found that waiting would have closed a cycle, so the waiter
    /// failed fast instead of parking. The waiter side of the deadlock
    /// avoidance protocol; the companion of [`WaitStats::record_cancel`]
    /// (a detected deadlock also cancels its pending acquisition).
    #[inline]
    pub fn record_deadlock(&self) {
        self.deadlocks_detected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batched acquisition that failed partway and rolled back
    /// every range it had already taken (the all-or-nothing guarantee of
    /// `lock_many` firing).
    #[inline]
    pub fn record_batch_rollback(&self) {
        self.batch_rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a consistent-enough copy of the counters.
    ///
    /// Counters are read with relaxed ordering; a snapshot taken while other
    /// threads are still acquiring the lock is approximate, which is fine for
    /// reporting purposes.
    pub fn snapshot(&self) -> LockStatSnapshot {
        LockStatSnapshot {
            name: self.name.clone(),
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            read_waits: self.read_waits.load(Ordering::Relaxed),
            read_wait_ns: self.read_wait_ns.load(Ordering::Relaxed),
            write_waits: self.write_waits.load(Ordering::Relaxed),
            write_wait_ns: self.write_wait_ns.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            spurious_wakeups: self.spurious_wakeups.load(Ordering::Relaxed),
            waker_registrations: self.waker_registrations.load(Ordering::Relaxed),
            cancels: self.cancels.load(Ordering::Relaxed),
            deadlocks_detected: self.deadlocks_detected.load(Ordering::Relaxed),
            batch_rollbacks: self.batch_rollbacks.load(Ordering::Relaxed),
            read_wait_hist: self.read_hist.snapshot(),
            write_wait_hist: self.write_hist.snapshot(),
        }
    }

    /// Resets every counter back to zero.
    pub fn reset(&self) {
        self.read_waits.store(0, Ordering::Relaxed);
        self.read_wait_ns.store(0, Ordering::Relaxed);
        self.write_waits.store(0, Ordering::Relaxed);
        self.write_wait_ns.store(0, Ordering::Relaxed);
        self.acquisitions.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.wakes.store(0, Ordering::Relaxed);
        self.spurious_wakeups.store(0, Ordering::Relaxed);
        self.waker_registrations.store(0, Ordering::Relaxed);
        self.cancels.store(0, Ordering::Relaxed);
        self.deadlocks_detected.store(0, Ordering::Relaxed);
        self.batch_rollbacks.store(0, Ordering::Relaxed);
        self.read_hist.reset();
        self.write_hist.reset();
    }
}

/// An immutable copy of a [`WaitStats`] counter block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockStatSnapshot {
    /// Label of the lock the counters belong to.
    pub name: String,
    /// Total acquisitions observed (contended and uncontended).
    pub acquisitions: u64,
    /// Number of read acquisitions that had to wait.
    pub read_waits: u64,
    /// Total nanoseconds spent waiting in read acquisitions.
    pub read_wait_ns: u64,
    /// Number of write acquisitions that had to wait.
    pub write_waits: u64,
    /// Total nanoseconds spent waiting in write acquisitions.
    pub write_wait_ns: u64,
    /// Number of times a waiter parked (descheduled itself) instead of
    /// spinning. Non-zero only under the `Block` wait policy; together with
    /// the wait-time totals this attributes waiting to blocked vs spun time
    /// in the Figure 7/8 tables.
    pub parks: u64,
    /// Number of wake broadcasts that found at least one parked waiter.
    pub wakes: u64,
    /// Number of spurious wakeups: waiters that woke with their predicate
    /// still false and re-parked. The wake-herd cost a release imposes on
    /// bystanders — broadcast wakes pay O(parked waiters) of these, keyed
    /// wakes ~0 on disjoint-range workloads.
    pub spurious_wakeups: u64,
    /// Number of async waker registrations: pending acquisitions that
    /// suspended (registered a waker) instead of parking a thread. The async
    /// counterpart of `parks`, non-zero under the async API whatever the
    /// lock's wait policy.
    pub waker_registrations: u64,
    /// Number of abandoned two-phase acquisitions: futures dropped before
    /// readiness plus timed acquisitions that expired.
    pub cancels: u64,
    /// Number of acquisitions refused with `EDEADLK` because waiting would
    /// have closed a waits-for cycle. Each one also cancelled its pending
    /// acquisition, so `cancels` counts it too.
    pub deadlocks_detected: u64,
    /// Number of batched acquisitions (`lock_many`) that
    /// failed partway and rolled back every range already taken.
    pub batch_rollbacks: u64,
    /// Distribution of the individual *contended* read-wait times (whose
    /// totals are `read_waits`/`read_wait_ns`); uncontended acquisitions
    /// record nothing, matching the totals.
    pub read_wait_hist: HistogramSnapshot,
    /// Distribution of the individual *contended* write-wait times.
    pub write_wait_hist: HistogramSnapshot,
}

impl LockStatSnapshot {
    /// Mean wait per *contended* read acquisition, in nanoseconds, or
    /// `None` if no read acquisition ever waited (callers must decide what
    /// "no data" means for them rather than inheriting a silent 0).
    pub fn avg_read_wait_ns(&self) -> Option<f64> {
        if self.read_waits == 0 {
            None
        } else {
            Some(self.read_wait_ns as f64 / self.read_waits as f64)
        }
    }

    /// Mean wait per *contended* write acquisition, in nanoseconds, or
    /// `None` if no write acquisition ever waited.
    pub fn avg_write_wait_ns(&self) -> Option<f64> {
        if self.write_waits == 0 {
            None
        } else {
            Some(self.write_wait_ns as f64 / self.write_waits as f64)
        }
    }

    /// Mean wait across every acquisition (contended or not), in
    /// nanoseconds, or `None` if there were no acquisitions at all.
    ///
    /// This is the metric plotted in Figures 7 and 8: total wait time divided
    /// by the total number of acquisitions, so locks that rarely contend show
    /// small averages even if individual waits were long. Note the asymmetry
    /// with the per-kind helpers: here a lock that never *waited* (but did
    /// acquire) legitimately reports `Some(0.0)`.
    pub fn avg_wait_per_acquisition_ns(&self) -> Option<f64> {
        if self.acquisitions == 0 {
            None
        } else {
            Some((self.read_wait_ns + self.write_wait_ns) as f64 / self.acquisitions as f64)
        }
    }

    /// Total wait time across read and write acquisitions, in nanoseconds.
    pub fn total_wait_ns(&self) -> u64 {
        self.read_wait_ns + self.write_wait_ns
    }

    /// The combined (read + write) wait-time distribution.
    pub fn wait_hist(&self) -> HistogramSnapshot {
        let mut merged = self.read_wait_hist.clone();
        merged.merge(&self.write_wait_hist);
        merged
    }

    /// Median contended wait, in nanoseconds (`None` if nothing waited).
    pub fn wait_p50_ns(&self) -> Option<u64> {
        self.wait_hist().p50()
    }

    /// 99th-percentile contended wait, in nanoseconds (`None` if nothing
    /// waited).
    pub fn wait_p99_ns(&self) -> Option<u64> {
        self.wait_hist().p99()
    }

    /// Longest single contended wait, in nanoseconds (0 if nothing waited).
    pub fn max_wait_ns(&self) -> u64 {
        self.read_wait_hist.max().max(self.write_wait_hist.max())
    }
}

/// Per-call-site wait-time accounting: a set of [`WaitStats`] keyed by a
/// short label.
///
/// A [`WaitStats`] is named after the *lock* it instruments; a
/// subsystem that funnels many different operations through one lock (the
/// `rl-file` store routing `pread`/`pwrite`/`append` through a single range
/// lock) instead wants one counter block per **operation**. `handle` returns
/// the (lazily created) [`WaitStats`] for a label; handles are plain
/// `Arc<WaitStats>`, so resolving them once at construction time keeps the
/// hot path free of any map lookup.
///
/// # Examples
///
/// ```
/// use rl_sync::stats::{LabeledStats, WaitKind};
///
/// let ops = LabeledStats::new();
/// let pread = ops.handle("pread");
/// let pwrite = ops.handle("pwrite");
/// pread.record_wait_ns(WaitKind::Read, 250);
/// pwrite.record_wait_ns(WaitKind::Write, 1_000);
/// let snaps = ops.snapshots();
/// assert_eq!(snaps.len(), 2);
/// assert_eq!(snaps[0].name, "pread");
/// ```
#[derive(Debug, Default)]
pub struct LabeledStats {
    /// Insertion-ordered so reports list operations in registration order.
    handles: Mutex<Vec<(String, Arc<WaitStats>)>>,
}

impl LabeledStats {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter block for `label`, creating it on first use.
    pub fn handle(&self, label: &str) -> Arc<WaitStats> {
        let mut handles = self.handles.lock().unwrap();
        if let Some((_, stats)) = handles.iter().find(|(l, _)| l == label) {
            return Arc::clone(stats);
        }
        let stats = Arc::new(WaitStats::new(label));
        handles.push((label.to_string(), Arc::clone(&stats)));
        stats
    }

    /// The labels registered so far, in registration order.
    pub fn labels(&self) -> Vec<String> {
        self.handles
            .lock()
            .unwrap()
            .iter()
            .map(|(l, _)| l.clone())
            .collect()
    }

    /// Takes a snapshot of every label's counters, in registration order.
    pub fn snapshots(&self) -> Vec<LockStatSnapshot> {
        self.handles
            .lock()
            .unwrap()
            .iter()
            .map(|(_, s)| s.snapshot())
            .collect()
    }

    /// Resets every label's counters (the labels themselves remain).
    pub fn reset_all(&self) {
        for (_, s) in self.handles.lock().unwrap().iter() {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn empty_stats_averages_are_explicitly_absent() {
        let s = WaitStats::new("x");
        let snap = s.snapshot();
        assert_eq!(snap.avg_read_wait_ns(), None);
        assert_eq!(snap.avg_write_wait_ns(), None);
        assert_eq!(snap.avg_wait_per_acquisition_ns(), None);
        assert_eq!(snap.wait_p50_ns(), None);
        assert_eq!(snap.wait_p99_ns(), None);
        assert_eq!(snap.max_wait_ns(), 0);
        // An acquisition that never waited: per-kind averages still absent,
        // but the per-acquisition average is a real 0.0.
        s.record_uncontended();
        let snap = s.snapshot();
        assert_eq!(snap.avg_read_wait_ns(), None);
        assert_eq!(snap.avg_wait_per_acquisition_ns(), Some(0.0));
    }

    #[test]
    fn timed_wait_accumulates() {
        let s = WaitStats::new("x");
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        s.record_wait_ns(WaitKind::Read, started.elapsed().as_nanos() as u64);
        let snap = s.snapshot();
        assert_eq!(snap.read_waits, 1);
        assert!(snap.read_wait_ns >= 1_000_000);
        assert_eq!(snap.write_waits, 0);
        assert_eq!(snap.acquisitions, 1);
    }

    #[test]
    fn record_wait_ns_direct() {
        let s = WaitStats::new("x");
        s.record_wait_ns(WaitKind::Write, 500);
        s.record_wait_ns(WaitKind::Write, 1500);
        s.record_uncontended();
        let snap = s.snapshot();
        assert_eq!(snap.write_waits, 2);
        assert_eq!(snap.write_wait_ns, 2000);
        assert_eq!(snap.acquisitions, 3);
        assert_eq!(snap.avg_write_wait_ns(), Some(1000.0));
        let avg = snap.avg_wait_per_acquisition_ns().unwrap();
        assert!((avg - 2000.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn waits_feed_the_histograms() {
        let s = WaitStats::new("x");
        for ns in [100u64, 200, 400, 800, 100_000] {
            s.record_wait_ns(WaitKind::Read, ns);
        }
        s.record_wait_ns(WaitKind::Write, 1_000_000);
        s.record_uncontended(); // must not touch the histograms
        let snap = s.snapshot();
        assert_eq!(snap.read_wait_hist.count(), 5);
        assert_eq!(snap.write_wait_hist.count(), 1);
        assert_eq!(snap.wait_hist().count(), 6);
        assert_eq!(snap.max_wait_ns(), 1_000_000);
        // p50 of the merged distribution lands in the 400ns bucket (12.5%
        // relative-error bound).
        let p50 = snap.wait_p50_ns().unwrap();
        assert!((400..=450).contains(&p50), "p50 = {p50}");
        assert!(snap.wait_p99_ns().unwrap() >= 100_000);
        // A wait timed by its lock feeds them too.
        let timed = WaitStats::new("t");
        timed.record_wait_ns(WaitKind::Write, Instant::now().elapsed().as_nanos() as u64);
        assert_eq!(timed.snapshot().write_wait_hist.count(), 1);
        // Reset clears the distributions with everything else.
        s.reset();
        assert_eq!(s.snapshot().wait_hist().count(), 0);
    }

    #[test]
    fn reset_clears_counters() {
        let s = WaitStats::new("x");
        s.record_wait_ns(WaitKind::Read, 10);
        s.reset();
        assert_eq!(s.snapshot().total_wait_ns(), 0);
        assert_eq!(s.snapshot().acquisitions, 0);
    }

    #[test]
    fn park_wake_counters_accumulate_and_reset() {
        let s = WaitStats::new("x");
        s.record_park();
        s.record_park();
        s.record_wake();
        s.record_spurious_wakeup();
        let snap = s.snapshot();
        assert_eq!(snap.parks, 2);
        assert_eq!(snap.wakes, 1);
        assert_eq!(snap.spurious_wakeups, 1);
        s.reset();
        assert_eq!(s.snapshot().parks, 0);
        assert_eq!(s.snapshot().wakes, 0);
        assert_eq!(s.snapshot().spurious_wakeups, 0);
    }

    #[test]
    fn waker_and_cancel_counters_accumulate_and_reset() {
        let s = WaitStats::new("x");
        s.record_waker_registration();
        s.record_waker_registration();
        s.record_cancel();
        let snap = s.snapshot();
        assert_eq!(snap.waker_registrations, 2);
        assert_eq!(snap.cancels, 1);
        s.reset();
        assert_eq!(s.snapshot().waker_registrations, 0);
        assert_eq!(s.snapshot().cancels, 0);
    }

    #[test]
    fn deadlock_and_batch_rollback_counters_accumulate_and_reset() {
        let s = WaitStats::new("x");
        s.record_deadlock();
        s.record_deadlock();
        s.record_batch_rollback();
        let snap = s.snapshot();
        assert_eq!(snap.deadlocks_detected, 2);
        assert_eq!(snap.batch_rollbacks, 1);
        // Independent of the neighbouring two-phase counters.
        assert_eq!(snap.cancels, 0);
        assert_eq!(snap.parks, 0);
        s.reset();
        assert_eq!(s.snapshot().deadlocks_detected, 0);
        assert_eq!(s.snapshot().batch_rollbacks, 0);
    }

    #[test]
    fn labeled_stats_deduplicate_and_report_in_order() {
        let ops = LabeledStats::new();
        let a = ops.handle("pwrite");
        let b = ops.handle("pread");
        let a2 = ops.handle("pwrite");
        assert!(Arc::ptr_eq(&a, &a2), "same label must share counters");
        a.record_wait_ns(WaitKind::Write, 100);
        b.record_uncontended();
        assert_eq!(
            ops.labels(),
            vec!["pwrite".to_string(), "pread".to_string()]
        );
        let snaps = ops.snapshots();
        assert_eq!(snaps[0].name, "pwrite");
        assert_eq!(snaps[0].write_wait_ns, 100);
        assert_eq!(snaps[1].name, "pread");
        assert_eq!(snaps[1].acquisitions, 1);
        ops.reset_all();
        assert!(ops.snapshots().iter().all(|s| s.acquisitions == 0));
    }
}
