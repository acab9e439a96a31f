//! ArrBench — the array microbenchmark of Section 7.1 (Figure 3).
//!
//! Threads repeatedly acquire a range of a 256-slot, cache-padded shared
//! array, read or increment every slot in the range, release, and then do a
//! random amount (0–2048 iterations) of non-critical work. Three range
//! selection policies reproduce the three rows of Figure 3:
//!
//! * [`RangePolicy::FullRange`] — every operation locks the whole array;
//! * [`RangePolicy::NonOverlapping`] — thread *i* of *T* locks its own
//!   1/*T*-th slice and traverses it *T* times, keeping the total work per
//!   operation constant across thread counts;
//! * [`RangePolicy::Random`] — every operation locks a uniformly random
//!   sub-range.
//!
//! The lock under test is any entry of the dynamic variant registry
//! (`rl_baselines::registry`): the five paper variants (`lustre-ex`,
//! `kernel-rw`, `pnova-rw`, `list-ex`, `list-rw`) are driven through the
//! object-safe `DynRwRangeLock` interface, constructed wait-policy aware —
//! which is how the `fig3-oversub` experiment sweeps thread counts beyond the
//! core count without the spinning policies melting the scheduler.
//!
//! Dynamic dispatch adds one vtable call plus one boxed-guard allocation per
//! operation. The cost is identical for every variant, so cross-variant
//! comparisons (the point of Figure 3) are unaffected; absolute throughput
//! is a small constant below what the pre-registry static-enum harness
//! measured, so don't compare absolute numbers across that boundary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use range_lock::{DynRangeGuard, DynRwRangeLock, Range};
use rl_baselines::registry::{RegistryConfig, VariantSpec};
use rl_sync::wait::WaitPolicyKind;
use rl_sync::{padded::padded_vec, CachePadded};

use crate::rng::{seed, xorshift};

/// Number of array slots (the paper uses 256).
pub const ARRAY_SLOTS: u64 = 256;

/// Upper bound of the random non-critical work loop (the paper uses 2048).
pub const NON_CRITICAL_WORK: u64 = 2048;

/// Registry configuration for the array: one segment per slot for the
/// segment-based `pnova-rw`, as in the paper's evaluation.
pub const ARRAY_REGISTRY_CONFIG: RegistryConfig = RegistryConfig {
    span: ARRAY_SLOTS,
    segments: ARRAY_SLOTS as usize,
};

/// How each operation chooses the range it locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangePolicy {
    /// Lock the entire array (Figure 3 a, b).
    FullRange,
    /// Lock a per-thread disjoint slice (Figure 3 c, d).
    NonOverlapping,
    /// Lock a uniformly random sub-range (Figure 3 e, f).
    Random,
}

impl RangePolicy {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RangePolicy::FullRange => "full",
            RangePolicy::NonOverlapping => "non-overlapping",
            RangePolicy::Random => "random",
        }
    }
}

/// One ArrBench configuration point.
#[derive(Debug, Clone, Copy)]
pub struct ArrBenchConfig {
    /// Registry entry of the lock under test.
    pub lock: &'static VariantSpec,
    /// Range selection policy.
    pub policy: RangePolicy,
    /// How waiters wait (spin / spin-yield / block).
    pub wait: WaitPolicyKind,
    /// Number of worker threads.
    pub threads: usize,
    /// Percentage of operations that are reads (0–100).
    pub read_pct: u32,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

/// Result of one ArrBench run.
#[derive(Debug, Clone, Copy)]
pub struct ArrBenchResult {
    /// Total completed operations across all threads.
    pub operations: u64,
    /// Measured wall-clock time.
    pub elapsed: Duration,
}

impl ArrBenchResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64()
    }
}

/// Acquires through the dynamic interface in the requested mode.
#[inline]
fn acquire(lock: &dyn DynRwRangeLock, range: Range, read: bool) -> DynRangeGuard<'_> {
    if read {
        lock.read_dyn(range)
    } else {
        lock.write_dyn(range)
    }
}

/// Runs one ArrBench configuration and reports its throughput.
pub fn run(config: &ArrBenchConfig) -> ArrBenchResult {
    assert!(config.threads > 0);
    assert!(config.read_pct <= 100);
    let lock: Arc<Box<dyn DynRwRangeLock>> =
        Arc::new(config.lock.build(config.wait, &ARRAY_REGISTRY_CONFIG));
    let slots: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(padded_vec(ARRAY_SLOTS as usize));
    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.threads);
    for thread_id in 0..config.threads {
        let lock = Arc::clone(&lock);
        let slots = Arc::clone(&slots);
        let stop = Arc::clone(&stop);
        let total_ops = Arc::clone(&total_ops);
        let config = *config;
        handles.push(std::thread::spawn(move || {
            let mut rng_state = seed(thread_id);
            let mut ops = 0u64;
            let slice_len = (ARRAY_SLOTS / config.threads as u64).max(1);
            let my_slice = Range::new(
                (thread_id as u64 * slice_len).min(ARRAY_SLOTS - 1),
                ((thread_id as u64 + 1) * slice_len)
                    .min(ARRAY_SLOTS)
                    .max(thread_id as u64 * slice_len + 1),
            );
            while !stop.load(Ordering::Relaxed) {
                let read = (xorshift(&mut rng_state) % 100) < config.read_pct as u64;
                let (range, passes) = match config.policy {
                    RangePolicy::FullRange => (Range::new(0, ARRAY_SLOTS), 1),
                    RangePolicy::NonOverlapping => (my_slice, config.threads as u64),
                    RangePolicy::Random => {
                        let a = xorshift(&mut rng_state) % ARRAY_SLOTS;
                        let b = xorshift(&mut rng_state) % ARRAY_SLOTS;
                        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                        (Range::new(lo, hi + 1), 1)
                    }
                };

                {
                    let _guard = acquire(&**lock, range, read);
                    for _ in 0..passes {
                        for slot in slots[range.start as usize..range.end as usize].iter() {
                            if read {
                                std::hint::black_box(slot.load(Ordering::Relaxed));
                            } else {
                                slot.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }

                // Non-critical work between operations.
                let work = xorshift(&mut rng_state) % NON_CRITICAL_WORK;
                for _ in 0..work {
                    std::hint::spin_loop();
                }
                ops += 1;
            }
            total_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        handle.join().expect("ArrBench worker panicked");
    }
    ArrBenchResult {
        operations: total_ops.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

/// Runs a fixed number of operations per thread (used by the Criterion
/// benches, which need deterministic work rather than a fixed duration).
pub fn run_fixed_ops(
    lock: &'static VariantSpec,
    policy: RangePolicy,
    threads: usize,
    read_pct: u32,
    ops_per_thread: u64,
) -> u64 {
    let lock: Arc<Box<dyn DynRwRangeLock>> =
        Arc::new(lock.build(WaitPolicyKind::SpinThenYield, &ARRAY_REGISTRY_CONFIG));
    let slots: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(padded_vec(ARRAY_SLOTS as usize));
    let mut handles = Vec::with_capacity(threads);
    for thread_id in 0..threads {
        let lock = Arc::clone(&lock);
        let slots = Arc::clone(&slots);
        handles.push(std::thread::spawn(move || {
            let mut rng_state = seed(thread_id);
            let slice_len = (ARRAY_SLOTS / threads as u64).max(1);
            let my_slice = Range::new(
                (thread_id as u64 * slice_len).min(ARRAY_SLOTS - 1),
                ((thread_id as u64 + 1) * slice_len)
                    .min(ARRAY_SLOTS)
                    .max(thread_id as u64 * slice_len + 1),
            );
            let mut acc = 0u64;
            for _ in 0..ops_per_thread {
                let read = (xorshift(&mut rng_state) % 100) < read_pct as u64;
                let (range, passes) = match policy {
                    RangePolicy::FullRange => (Range::new(0, ARRAY_SLOTS), 1),
                    RangePolicy::NonOverlapping => (my_slice, threads as u64),
                    RangePolicy::Random => {
                        let a = xorshift(&mut rng_state) % ARRAY_SLOTS;
                        let b = xorshift(&mut rng_state) % ARRAY_SLOTS;
                        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                        (Range::new(lo, hi + 1), 1)
                    }
                };
                let _guard = acquire(&**lock, range, read);
                for _ in 0..passes {
                    for slot in slots[range.start as usize..range.end as usize].iter() {
                        if read {
                            acc = acc.wrapping_add(slot.load(Ordering::Relaxed));
                        } else {
                            slot.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            acc
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold(0u64, u64::wrapping_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_baselines::registry;

    #[test]
    fn every_variant_and_policy_completes() {
        for lock in registry::all() {
            for policy in [
                RangePolicy::FullRange,
                RangePolicy::NonOverlapping,
                RangePolicy::Random,
            ] {
                let result = run(&ArrBenchConfig {
                    lock,
                    policy,
                    wait: WaitPolicyKind::SpinThenYield,
                    threads: 2,
                    read_pct: 60,
                    duration: Duration::from_millis(30),
                });
                assert!(result.operations > 0, "{} / {}", lock.name, policy.name());
                assert!(result.ops_per_sec() > 0.0);
            }
        }
    }

    #[test]
    fn fixed_ops_mode_completes() {
        for name in ["list-rw", "kernel-rw"] {
            let lock = registry::by_name(name).expect("paper variant");
            run_fixed_ops(lock, RangePolicy::Random, 2, 80, 200);
        }
    }

    #[test]
    fn names_are_stable() {
        assert!(registry::by_name("list-ex").is_some());
        assert_eq!(RangePolicy::FullRange.name(), "full");
        assert_eq!(registry::all().len(), 5);
    }

    #[test]
    fn every_wait_policy_completes_oversubscribed() {
        // More threads than the 2 cores a CI runner typically has: the
        // parking paths of the block policy get exercised here.
        for wait in WaitPolicyKind::ALL {
            for lock in registry::all() {
                let result = run(&ArrBenchConfig {
                    lock,
                    policy: RangePolicy::Random,
                    wait,
                    threads: 4,
                    read_pct: 60,
                    duration: Duration::from_millis(25),
                });
                assert!(result.operations > 0, "{} / {}", lock.name, wait.name());
            }
        }
    }
}
