//! BatchBench — atomic multi-range acquisition vs sequential locking.
//!
//! PR 6's `lock_many` acquires a whole batch of disjoint ranges through one
//! all-or-nothing table transaction (ascending-order two-phase enqueue,
//! rollback on `EDEADLK`). The obvious alternative a caller could write by
//! hand is a sequence of single `lock` calls in ascending range order — the
//! classic deadlock-*avoidance* discipline. This benchmark races the two
//! against each other on the same [`LockTable`] workload:
//!
//! * every worker thread is one lock owner; each iteration it picks
//!   `batch_size` distinct slots from a deliberately small hot region,
//!   acquires them all (batched or sequentially), then releases everything;
//! * both drivers run under the deadlock-checked blocking paths, so the
//!   waits-for graph maintenance is *in* the measured loop — the benchmark
//!   prices the detection machinery, not just the list operations;
//! * `EDEADLK` outcomes (spurious ones are possible by design — detection is
//!   best-effort, stale edges may conservatively close a cycle) abort the
//!   iteration, roll back, and are counted beside the [`run`]'s result
//!   rather than as progress.
//!
//! The full lock-variant matrix comes from the dynamic registry via
//! [`VariantSpec::build`], the same way FileBench gets its locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use range_lock::Range;
use rl_baselines::registry::{RegistryConfig, VariantSpec};
use rl_file::{LockMode, LockTable};
use rl_obs::LatencyHistogram;
use rl_sync::wait::WaitPolicyKind;

use crate::rng::{seed, xorshift};
use crate::runner::{self, Run, Stop};

/// Span the lock table's lock covers (bytes).
pub const BATCH_SPAN: u64 = 1 << 20;

/// One slot: a pNOVA-segment-sized aligned unit; every batch item locks one
/// whole slot, so the segment variant competes on its natural granularity.
pub const SLOT: u64 = 4096;

/// Slots the workload actually draws from — a hot region small enough that
/// batches from a handful of threads collide constantly.
pub const HOT_SLOTS: u64 = 32;

/// Percentage of batch items taken shared rather than exclusive.
pub const SHARED_PCT: u64 = 50;

/// Registry configuration for the batch table: one segment per slot.
pub const BATCH_REGISTRY_CONFIG: RegistryConfig = RegistryConfig {
    span: BATCH_SPAN,
    segments: (BATCH_SPAN / SLOT) as usize,
};

/// How a worker turns its batch of ranges into lock-table calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDriver {
    /// One atomic `lock_many` call per batch.
    Batched,
    /// One blocking `lock` call per item, in ascending range order.
    Sequential,
}

impl BatchDriver {
    /// Both drivers, in report-column order.
    pub const ALL: [BatchDriver; 2] = [BatchDriver::Batched, BatchDriver::Sequential];

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            BatchDriver::Batched => "batched",
            BatchDriver::Sequential => "sequential",
        }
    }
}

/// One BatchBench configuration point.
#[derive(Debug, Clone, Copy)]
pub struct BatchBenchConfig {
    /// Registry entry of the lock under test.
    pub lock: &'static VariantSpec,
    /// How waiters wait (spin / spin-yield / block).
    pub wait: WaitPolicyKind,
    /// Number of worker threads (= lock owners).
    pub threads: usize,
    /// Ranges per batch.
    pub batch_size: usize,
    /// Batched vs sequential acquisition.
    pub driver: BatchDriver,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

/// Picks `batch_size` distinct hot slots and returns them as `(range, mode)`
/// items in ascending range order.
fn pick_batch(rng: &mut u64, batch_size: usize) -> Vec<(Range, LockMode)> {
    let mut slots: Vec<u64> = Vec::with_capacity(batch_size);
    while slots.len() < batch_size {
        let slot = xorshift(rng) % HOT_SLOTS;
        if !slots.contains(&slot) {
            slots.push(slot);
        }
    }
    slots.sort_unstable();
    slots
        .into_iter()
        .map(|slot| {
            let mode = if xorshift(rng) % 100 < SHARED_PCT {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            (Range::new(slot * SLOT, (slot + 1) * SLOT), mode)
        })
        .collect()
}

/// Runs one BatchBench configuration for its duration. An operation is a
/// fully acquired and released batch, and the cell's histogram holds each
/// one's acquisition latency (first lock call to all ranges held, ns). The
/// registry builds locks without attached `WaitStats`, so this is where the
/// p50/p99 columns of the BatchBench tables come from. Beside the run: the
/// number of `EDEADLK` outcomes (aborted and rolled-back iterations).
pub fn run(config: &BatchBenchConfig) -> (Run, u64) {
    assert!(config.batch_size > 0 && config.batch_size as u64 <= HOT_SLOTS);
    let table = Arc::new(LockTable::new(
        config.lock.build(config.wait, &BATCH_REGISTRY_CONFIG),
    ));
    let deadlocks = AtomicU64::new(0);
    let (lock, driver) = (config.lock.name, config.driver.name());
    let name = format!("BatchBench {lock} / {driver} x{}", config.threads);
    let run = runner::run(&name, config.threads, Stop::After(config.duration), |i| {
        let mut owner = table.owner(format!("worker-{i}"));
        let mut rng = seed(i);
        let deadlocks = &deadlocks;
        move |waits: &LatencyHistogram| {
            let items = pick_batch(&mut rng, config.batch_size);
            let requested = Instant::now();
            let acquired = match config.driver {
                BatchDriver::Batched => owner.lock_many(&items).is_ok(),
                BatchDriver::Sequential => items
                    .iter()
                    .all(|&(range, mode)| owner.lock(range, mode).is_ok()),
            };
            if acquired {
                waits.record(requested.elapsed().as_nanos() as u64);
            } else {
                deadlocks.fetch_add(1, Ordering::Relaxed);
            }
            owner.unlock_all();
            acquired
        }
    });
    assert_eq!(table.held_records(), 0, "BatchBench left lock residue");
    (run, deadlocks.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_baselines::registry;

    #[test]
    fn every_variant_completes_under_both_drivers() {
        for lock in registry::all() {
            for driver in BatchDriver::ALL {
                let (result, _) = run(&BatchBenchConfig {
                    lock,
                    wait: WaitPolicyKind::SpinThenYield,
                    threads: 2,
                    batch_size: 3,
                    driver,
                    duration: Duration::from_millis(30),
                });
                assert_eq!(
                    result.hist.count(),
                    result.ops,
                    "{} / {}: one latency sample per successful batch",
                    lock.name,
                    driver.name()
                );
                assert!(result.p99_us() >= result.p50_us());
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BatchDriver::Batched.name(), "batched");
        assert_eq!(BatchDriver::Sequential.name(), "sequential");
        assert_eq!(BATCH_REGISTRY_CONFIG.segments, 256);
    }
}
