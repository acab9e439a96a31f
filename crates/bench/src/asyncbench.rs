//! AsyncBench — M lock owners ≫ N threads, the workload the async API
//! exists for.
//!
//! `BENCH_oversub.json` showed what happens when every lock owner is a
//! thread: past the core count, spinning waiters collapse (~30x at 2x
//! oversubscription on one core) and even parked waiters pay a context
//! switch per handoff. A modern heavy-traffic service multiplexes far more
//! concurrent owners than cores; this benchmark measures that regime
//! directly by driving the *same* contended random-range workload three
//! ways:
//!
//! * [`AsyncDriver::AsyncTasks`] — M owners are **tasks** on an `rl-exec`
//!   [`TaskPool`] with one worker per core; waiting owners are suspended
//!   futures (a waker registration), not threads;
//! * [`AsyncDriver::ThreadsBlock`] — thread-per-owner over the `block` wait
//!   policy (the kernel-fidelity baseline: waiters park);
//! * [`AsyncDriver::ThreadsSpinYield`] — thread-per-owner over the
//!   `spin-yield` policy (the paper's `Pause()` loop, the collapsing one).
//!
//! Every owner performs a fixed number of operations (fixed work, not fixed
//! time: the interesting number is how long the backlog takes to drain), on
//! any variant of the dynamic registry — the boxed [`DynRwRangeLock`] is a
//! `TwoPhaseRwRangeLock` itself, so the async owners await the same generic
//! futures a static lock returns — and the five paper variants all sweep
//! through the same driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use range_lock::{DynRwRangeLock, Range, TwoPhaseRwRangeLock};
use rl_baselines::registry::VariantSpec;
use rl_exec::TaskPool;
use rl_obs::{HistogramSnapshot, LatencyHistogram};
use rl_sync::wait::WaitPolicyKind;
use rl_sync::{padded::padded_vec, CachePadded};

use crate::arrbench::{ARRAY_REGISTRY_CONFIG, ARRAY_SLOTS};
use crate::rng::{seed, xorshift};

/// How the M owners are scheduled onto the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncDriver {
    /// M tasks on a fixed pool of one worker thread per core, awaiting
    /// acquisition futures.
    AsyncTasks,
    /// M OS threads blocking on the `block` wait policy.
    ThreadsBlock,
    /// M OS threads spinning/yielding on the `spin-yield` wait policy.
    ThreadsSpinYield,
}

impl AsyncDriver {
    /// The three drivers, async first.
    pub const ALL: [AsyncDriver; 3] = [
        AsyncDriver::AsyncTasks,
        AsyncDriver::ThreadsBlock,
        AsyncDriver::ThreadsSpinYield,
    ];

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AsyncDriver::AsyncTasks => "async-tasks",
            AsyncDriver::ThreadsBlock => "threads-block",
            AsyncDriver::ThreadsSpinYield => "threads-spin-yield",
        }
    }
}

/// One AsyncBench configuration point.
#[derive(Debug, Clone, Copy)]
pub struct AsyncBenchConfig {
    /// Registry entry of the lock under test.
    pub lock: &'static VariantSpec,
    /// Owner scheduling model.
    pub driver: AsyncDriver,
    /// Number of concurrent lock owners (tasks or threads).
    pub owners: usize,
    /// Worker threads of the task pool (async driver only).
    pub workers: usize,
    /// Operations each owner performs.
    pub ops_per_owner: u64,
    /// Percentage of operations that are reads (0–100).
    pub read_pct: u32,
}

/// Result of one AsyncBench run.
#[derive(Debug, Clone)]
pub struct AsyncBenchResult {
    /// Total completed operations (owners × ops each).
    pub operations: u64,
    /// Wall-clock time to drain the whole backlog.
    pub elapsed: Duration,
    /// Distribution of per-operation acquisition latencies (request to
    /// guard, nanoseconds), recorded by the harness around every
    /// acquisition. The registry builds locks without attached `WaitStats`,
    /// so this is where the p50/p99 columns of the AsyncBench report tables
    /// come from.
    pub wait_hist: HistogramSnapshot,
}

impl AsyncBenchResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64()
    }

    /// Median acquisition latency in microseconds (0 if nothing recorded).
    pub fn p50_wait_us(&self) -> f64 {
        self.wait_hist.p50().unwrap_or(0) as f64 / 1_000.0
    }

    /// 99th-percentile acquisition latency in microseconds (0 if nothing
    /// recorded).
    pub fn p99_wait_us(&self) -> f64 {
        self.wait_hist.p99().unwrap_or(0) as f64 / 1_000.0
    }
}

/// Picks one operation: a random sub-range (as in ArrBench's random policy)
/// and a read/write decision.
#[inline]
fn next_op(rng_state: &mut u64, read_pct: u32) -> (Range, bool) {
    let read = (xorshift(rng_state) % 100) < read_pct as u64;
    let a = xorshift(rng_state) % ARRAY_SLOTS;
    let b = xorshift(rng_state) % ARRAY_SLOTS;
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (Range::new(lo, hi + 1), read)
}

/// Passes over the locked range per operation. Multiple passes (as in
/// ArrBench's non-overlapping panel) lengthen the hold window so that the
/// oversubscription hazard being measured — an owner *preempted while
/// holding*, everyone else paying for the handoff — actually occurs at
/// thread-per-owner counts above the core count; a cooperatively scheduled
/// task, by contrast, never loses its worker mid-hold.
const CRITICAL_PASSES: u32 = 8;

/// The critical section: sweep every slot of the locked range
/// ([`CRITICAL_PASSES`] times), so the lock protects real shared-memory
/// traffic and waiting/handoff — the thing the drivers differ in — is
/// measured against honest hold times rather than empty acquisitions.
#[inline]
fn critical_section(slots: &[CachePadded<AtomicU64>], range: Range, read: bool) {
    for _ in 0..CRITICAL_PASSES {
        for slot in slots[range.start as usize..range.end as usize].iter() {
            if read {
                std::hint::black_box(slot.load(Ordering::Relaxed));
            } else {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn run_async_tasks(config: &AsyncBenchConfig) -> AsyncBenchResult {
    let lock: Arc<Box<dyn DynRwRangeLock>> = Arc::new(
        config
            .lock
            // The sync wait policy only governs sync waiters; async owners
            // always suspend on wakers. `Block` keeps any incidental sync
            // waiting honest.
            .build(WaitPolicyKind::Block, &ARRAY_REGISTRY_CONFIG),
    );
    let slots: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(padded_vec(ARRAY_SLOTS as usize));
    let waits = Arc::new(LatencyHistogram::new());
    let pool = TaskPool::new(config.workers.max(1));
    let started = Instant::now();
    let handles: Vec<_> = (0..config.owners)
        .map(|owner| {
            let lock = Arc::clone(&lock);
            let slots = Arc::clone(&slots);
            let waits = Arc::clone(&waits);
            let config = *config;
            pool.spawn(async move {
                let mut rng_state = seed(owner);
                for _ in 0..config.ops_per_owner {
                    let (range, read) = next_op(&mut rng_state, config.read_pct);
                    let requested = Instant::now();
                    let guard = if read {
                        lock.read_async(range).await
                    } else {
                        lock.write_async(range).await
                    };
                    waits.record(requested.elapsed().as_nanos() as u64);
                    critical_section(&slots, range, read);
                    drop(guard);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join();
    }
    AsyncBenchResult {
        operations: config.owners as u64 * config.ops_per_owner,
        elapsed: started.elapsed(),
        wait_hist: waits.snapshot(),
    }
}

fn run_thread_per_owner(config: &AsyncBenchConfig, wait: WaitPolicyKind) -> AsyncBenchResult {
    let lock: Arc<Box<dyn DynRwRangeLock>> =
        Arc::new(config.lock.build(wait, &ARRAY_REGISTRY_CONFIG));
    let slots: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(padded_vec(ARRAY_SLOTS as usize));
    let waits = Arc::new(LatencyHistogram::new());
    let started = Instant::now();
    let handles: Vec<_> = (0..config.owners)
        .map(|owner| {
            let lock = Arc::clone(&lock);
            let slots = Arc::clone(&slots);
            let waits = Arc::clone(&waits);
            let config = *config;
            std::thread::spawn(move || {
                let mut rng_state = seed(owner);
                for _ in 0..config.ops_per_owner {
                    let (range, read) = next_op(&mut rng_state, config.read_pct);
                    let requested = Instant::now();
                    let guard = if read {
                        lock.read_dyn(range)
                    } else {
                        lock.write_dyn(range)
                    };
                    waits.record(requested.elapsed().as_nanos() as u64);
                    critical_section(&slots, range, read);
                    drop(guard);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("AsyncBench owner thread panicked");
    }
    AsyncBenchResult {
        operations: config.owners as u64 * config.ops_per_owner,
        elapsed: started.elapsed(),
        wait_hist: waits.snapshot(),
    }
}

/// Runs one AsyncBench configuration and reports its throughput.
pub fn run(config: &AsyncBenchConfig) -> AsyncBenchResult {
    assert!(config.owners > 0);
    assert!(config.ops_per_owner > 0);
    assert!(config.read_pct <= 100);
    match config.driver {
        AsyncDriver::AsyncTasks => run_async_tasks(config),
        AsyncDriver::ThreadsBlock => run_thread_per_owner(config, WaitPolicyKind::Block),
        AsyncDriver::ThreadsSpinYield => {
            run_thread_per_owner(config, WaitPolicyKind::SpinThenYield)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_baselines::registry;

    #[test]
    fn every_variant_and_driver_completes() {
        for lock in registry::all() {
            for driver in AsyncDriver::ALL {
                let result = run(&AsyncBenchConfig {
                    lock,
                    driver,
                    owners: 4,
                    workers: 2,
                    ops_per_owner: 50,
                    read_pct: 60,
                });
                assert_eq!(result.operations, 200, "{} / {}", lock.name, driver.name());
                assert!(result.ops_per_sec() > 0.0);
                assert_eq!(
                    result.wait_hist.count(),
                    200,
                    "{} / {}: every acquisition must be recorded",
                    lock.name,
                    driver.name()
                );
                assert!(result.p99_wait_us() >= result.p50_wait_us());
            }
        }
    }

    #[test]
    fn driver_names_are_stable() {
        assert_eq!(AsyncDriver::AsyncTasks.name(), "async-tasks");
        assert_eq!(AsyncDriver::ALL.len(), 3);
    }
}
