//! Lock-free log-bucketed latency histograms (the HDR-histogram shape).
//!
//! A histogram covers `[0, 2^36)` nanoseconds (~69 seconds) with bounded
//! relative error: values are bucketed by power-of-two **octave**, each
//! octave split into [`SUB_BUCKETS`] linear sub-buckets, so every bucket's
//! width is at most 1/[`SUB_BUCKETS`] of its lower bound (12.5% relative
//! error — plenty for p50/p90/p99 of lock waits). Values at or above
//! [`SATURATION_NS`] land in a final **saturation bucket**; the exact
//! maximum is always tracked separately, so `max()` is never clipped.
//!
//! Recording is two relaxed `fetch_add`s and a relaxed `fetch_max` — no
//! locks, no allocation — so a histogram can sit on a lock's wait path.
//! The number of recorded values is not a counter of its own: it is the
//! sum of the buckets.
//! Reading ([`LatencyHistogram::snapshot`]) is racy-by-design: concurrent
//! recordings may or may not be included, like every counter in
//! `rl_sync::stats`.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per power-of-two octave.
pub const SUB_BITS: u32 = 3;

/// Number of linear sub-buckets per octave (8: 12.5% worst-case bucket
/// width).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Values at or above this (in the unit being recorded, nanoseconds
/// everywhere in this workspace) fall into the saturation bucket.
pub const SATURATION_NS: u64 = 1 << 36;

/// Index of the saturation bucket (one past the last regular bucket).
const SATURATION_BUCKET: usize = bucket_index_unsaturated(SATURATION_NS - 1) + 1;

/// Total bucket count, saturation bucket included.
pub const NUM_BUCKETS: usize = SATURATION_BUCKET + 1;

/// Bucket index for `value`, assuming `value < SATURATION_NS`.
const fn bucket_index_unsaturated(value: u64) -> usize {
    if value < SUB_BUCKETS {
        // The first two octaves are exact: one bucket per value.
        value as usize
    } else {
        // `exp` is floor(log2(value)) >= SUB_BITS; dropping `exp - SUB_BITS`
        // low bits leaves SUB_BITS+1 significant bits, the top one set, so
        // `(value >> shift) - SUB_BUCKETS` is the linear sub-bucket in
        // [0, SUB_BUCKETS).
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (value >> shift) - SUB_BUCKETS;
        ((shift as u64 + 1) * SUB_BUCKETS + sub) as usize
    }
}

/// Bucket index for `value` (saturating).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value >= SATURATION_NS {
        SATURATION_BUCKET
    } else {
        bucket_index_unsaturated(value)
    }
}

/// Inclusive upper bound of bucket `index` — the value reported for any
/// percentile that lands in the bucket. The saturation bucket reports
/// [`SATURATION_NS`] (callers wanting the true extreme use `max()`).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= SATURATION_BUCKET {
        return SATURATION_NS;
    }
    let index = index as u64;
    if index < SUB_BUCKETS {
        index
    } else {
        let shift = index / SUB_BUCKETS - 1;
        let sub = index % SUB_BUCKETS;
        ((SUB_BUCKETS + sub + 1) << shift) - 1
    }
}

/// A lock-free log-linear latency histogram; see the module docs for the
/// bucketing scheme and the concurrency contract.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Wait-free: two relaxed `fetch_add`s and a
    /// relaxed `fetch_max`.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values: the sum of the buckets, so an O(buckets)
    /// read, not one load.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Takes a point-in-time copy of the bucket counts. Concurrent
    /// recordings may be partially included (the snapshot's `count` is the
    /// sum of the buckets it actually saw, so percentiles stay consistent).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets every bucket and counter to zero. Not atomic with respect to
    /// concurrent recording (same contract as `WaitStats::reset`).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An owned point-in-time copy of a [`LatencyHistogram`], with the
/// percentile arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`NUM_BUCKETS`] entries; the last is the
    /// saturation bucket).
    counts: Vec<u64>,
    /// Total recorded values in `counts`.
    count: u64,
    /// Sum of all recorded values.
    sum: u64,
    /// Exact maximum recorded value (not clipped by saturation).
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (zero recordings), the identity for [`merge`].
    ///
    /// [`merge`]: HistogramSnapshot::merge
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value, or 0 if nothing was recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values, or `None` if nothing was recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th recorded value (so `quantile(1.0)`
    /// of a saturated histogram reports the exact `max`). `None` if nothing
    /// was recorded.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i + 1 == self.counts.len() {
                    // The saturation bucket has no upper bound: report the
                    // exact tracked maximum for the top rank and the
                    // saturation threshold (a certain lower bound) below it.
                    return Some(if rank == self.count {
                        self.max
                    } else {
                        SATURATION_NS
                    });
                }
                // Never report a bound above the observed maximum: the top
                // occupied bucket's upper bound can overshoot `max`.
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (p50); `None` if nothing was recorded.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile; `None` if nothing was recorded.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile; `None` if nothing was recorded.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Folds `other` into `self` (bucket-wise sum, max of maxes). Used to
    /// aggregate read- and write-wait histograms, or one histogram per
    /// label, into a single distribution.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // First two octaves are exact.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
        // Bucket indexes are monotone and contiguous from 0 on.
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..4096u64 {
            let b = bucket_index(v);
            assert!(b == prev || b == prev + 1, "gap at v={v}: {prev} -> {b}");
            prev = b;
        }
        // A power of two starts a fresh sub-bucket: 2^k and 2^k - 1 always
        // land in different buckets (the octave edge is a bucket edge).
        for k in 1..36u32 {
            let edge = 1u64 << k;
            assert_ne!(
                bucket_index(edge),
                bucket_index(edge - 1),
                "2^{k} must open a new bucket"
            );
            assert_eq!(bucket_upper_bound(bucket_index(edge - 1)), edge - 1);
        }
        // Every bucket's upper bound maps back to the same bucket, and the
        // next value maps to the next bucket.
        for i in 0..SATURATION_BUCKET {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1);
        }
        // Relative error bound: bucket width <= lower_bound / SUB_BUCKETS
        // once past the exact octaves.
        for i in (SUB_BUCKETS as usize * 2)..SATURATION_BUCKET {
            let hi = bucket_upper_bound(i);
            let lo = bucket_upper_bound(i - 1) + 1;
            assert!(
                hi - lo < lo / SUB_BUCKETS + 1,
                "bucket {i} too wide: [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn saturation_bucket_catches_the_extremes() {
        assert_eq!(bucket_index(SATURATION_NS - 1), SATURATION_BUCKET - 1);
        assert_eq!(bucket_index(SATURATION_NS), SATURATION_BUCKET);
        assert_eq!(bucket_index(u64::MAX), SATURATION_BUCKET);

        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(SATURATION_NS);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        // The max is exact even though the bucket saturates…
        assert_eq!(s.max(), u64::MAX);
        // …and the top quantile reports the exact max, not a bucket bound.
        assert_eq!(s.quantile(1.0), Some(u64::MAX));
        assert_eq!(s.p50(), Some(SATURATION_NS));
    }

    #[test]
    fn percentiles_match_a_sorted_reference() {
        let h = LatencyHistogram::new();
        let values: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 999 * 999);
        assert_eq!(s.sum(), values.iter().sum::<u64>());
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * 1000.0_f64).ceil() as usize).clamp(1, 1000);
            let exact = values[rank - 1];
            let est = s.quantile(q).unwrap();
            // The bucket upper bound is >= the exact value and within the
            // 12.5% relative-error contract.
            assert!(est >= exact, "q={q}: {est} < {exact}");
            assert!(
                est as f64 <= exact as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "q={q}: {est} too far above {exact}"
            );
        }
        assert!(s.mean().is_some());
    }

    #[test]
    fn empty_histogram_is_explicit_about_having_no_data() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn concurrent_recording_matches_the_serial_reference() {
        use std::sync::Arc;
        let concurrent = Arc::new(LatencyHistogram::new());
        let serial = LatencyHistogram::new();
        let per_thread = 20_000u64;
        let threads = 4u64;
        // Deterministic xorshift streams, one per thread.
        let stream = move |tid: u64| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid + 1);
            std::iter::repeat_with(move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % (1 << 40) // exercises the saturation bucket too
            })
            .take(per_thread as usize)
        };
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let h = Arc::clone(&concurrent);
                std::thread::spawn(move || stream(tid).for_each(|v| h.record(v)))
            })
            .collect();
        for tid in 0..threads {
            stream(tid).for_each(|v| serial.record(v));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let a = concurrent.snapshot();
        let b = serial.snapshot();
        assert_eq!(a, b, "concurrent recording lost or misplaced values");
        assert_eq!(a.count(), per_thread * threads);

        concurrent.reset();
        assert_eq!(concurrent.snapshot().count(), 0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let h1 = LatencyHistogram::new();
        let h2 = LatencyHistogram::new();
        let all = LatencyHistogram::new();
        for v in [1u64, 100, 10_000, 1 << 37] {
            h1.record(v);
            all.record(v);
        }
        for v in [7u64, 7, 1 << 20] {
            h2.record(v);
            all.record(v);
        }
        let mut merged = h1.snapshot();
        merged.merge(&h2.snapshot());
        assert_eq!(merged, all.snapshot());
    }
}
