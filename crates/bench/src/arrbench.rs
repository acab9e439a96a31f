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
//! `kernel-rw`, `pnova-rw`, `list-ex`, `list-rw`) are driven through
//! `dyn TwoPhaseRwRangeLock`, constructed wait-policy aware — which is how
//! the `fig3-oversub` experiment sweeps thread counts beyond the core count
//! without the spinning policies melting the scheduler.
//!
//! Dynamic dispatch adds one vtable call to each acquire and release. The
//! cost is identical for every variant, so cross-variant comparisons (the
//! point of Figure 3) are unaffected; absolute throughput is a small
//! constant below what the pre-registry static-enum harness measured, so
//! don't compare absolute numbers across that boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use range_lock::LockMode::{Exclusive, Shared};
use range_lock::{Range, RangeGuard, RwRangeLock};
use rl_baselines::registry::{RegistryConfig, VariantSpec};
use rl_sync::padded::padded_vec;
use rl_sync::wait::WaitPolicyKind;

use crate::rng::{seed, xorshift};
use crate::runner::{self, Run, Stop};

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

/// Runs one ArrBench configuration for its duration.
pub fn run(config: &ArrBenchConfig) -> Run {
    assert!(config.read_pct <= 100);
    let lock = config.lock.build(config.wait, &ARRAY_REGISTRY_CONFIG);
    let slots = padded_vec::<AtomicU64>(ARRAY_SLOTS as usize);
    let threads = config.threads as u64;
    // The non-overlapping slices: 1/threads of the array each, or one slot
    // each once there are more threads than slots (and then thread i
    // shares slot i % 256).
    let slice_len = (ARRAY_SLOTS / threads.max(1)).max(1);
    let (lock_name, policy) = (config.lock.name, config.policy.name());
    let name = format!(
        "ArrBench {lock_name} / {policy} / {} x{threads}",
        config.wait.name()
    );
    runner::run(&name, config.threads, Stop::After(config.duration), |i| {
        let mut rng_state = seed(i);
        let slice = i as u64 % (ARRAY_SLOTS / slice_len);
        let my_slice = Range::new(slice * slice_len, (slice + 1) * slice_len);
        let (lock, slots) = (&lock, &slots);
        move |_: &_| {
            let read = (xorshift(&mut rng_state) % 100) < config.read_pct as u64;
            let (range, passes) = match config.policy {
                RangePolicy::FullRange => (Range::new(0, ARRAY_SLOTS), 1),
                RangePolicy::NonOverlapping => (my_slice, threads),
                RangePolicy::Random => {
                    let a = xorshift(&mut rng_state) % ARRAY_SLOTS;
                    let b = xorshift(&mut rng_state) % ARRAY_SLOTS;
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    (Range::new(lo, hi + 1), 1)
                }
            };

            {
                let mode = if read { Shared } else { Exclusive };
                let _guard = RangeGuard::new(&**lock, lock.acquire(range, mode));
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
            true
        }
    })
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
                assert!(result.ops > 0, "{} / {}", lock.name, policy.name());
                assert!(result.per_sec() > 0.0);
            }
        }
    }

    #[test]
    fn more_threads_than_slots_share_non_overlapping_slices() {
        let result = run(&ArrBenchConfig {
            lock: registry::by_name("list-ex").expect("paper variant"),
            policy: RangePolicy::NonOverlapping,
            wait: WaitPolicyKind::Block,
            threads: 300,
            read_pct: 60,
            duration: Duration::from_millis(20),
        });
        assert!(result.ops > 0);
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
                assert!(result.ops > 0, "{} / {}", lock.name, wait.name());
            }
        }
    }
}
