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
//! any variant of the dynamic registry — the boxed
//! [`TwoPhaseRwRangeLock`] is a two-phase lock itself, so the async owners
//! await the same generic futures a static lock returns — and the five paper
//! variants all sweep through the same driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use range_lock::{Range, RwRangeLock, TwoPhaseRwRangeLock};
use rl_baselines::registry::VariantSpec;
use rl_exec::TaskPool;
use rl_obs::LatencyHistogram;
use rl_sync::wait::WaitPolicyKind;
use rl_sync::{padded::padded_vec, CachePadded};

use crate::arrbench::{ARRAY_REGISTRY_CONFIG, ARRAY_SLOTS};
use crate::rng::{seed, xorshift};
use crate::runner::{self, Run, Stop};

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

fn run_async_tasks(config: &AsyncBenchConfig) -> Run {
    let lock: Arc<Box<dyn TwoPhaseRwRangeLock>> = Arc::new(
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
    Run {
        ops: config.owners as u64 * config.ops_per_owner,
        elapsed: started.elapsed(),
        hist: waits.snapshot(),
    }
}

fn run_thread_per_owner(config: &AsyncBenchConfig, wait: WaitPolicyKind) -> Run {
    let lock = config.lock.build(wait, &ARRAY_REGISTRY_CONFIG);
    let slots = padded_vec::<AtomicU64>(ARRAY_SLOTS as usize);
    let name = format!("AsyncBench {} / {}", config.lock.name, config.driver.name());
    runner::run(
        &name,
        config.owners,
        Stop::Quota(config.ops_per_owner),
        |owner| {
            let mut rng_state = seed(owner);
            let (lock, slots) = (&lock, &slots);
            move |waits: &LatencyHistogram| {
                let (range, read) = next_op(&mut rng_state, config.read_pct);
                let requested = Instant::now();
                let guard = if read {
                    lock.read(range)
                } else {
                    lock.write(range)
                };
                waits.record(requested.elapsed().as_nanos() as u64);
                critical_section(slots, range, read);
                drop(guard);
                true
            }
        },
    )
}

/// Runs one AsyncBench configuration: every owner drains its backlog, and
/// the cell's histogram holds every acquisition's latency (request to
/// guard, ns). The registry builds locks without attached `WaitStats`, so
/// this is where the p50/p99 columns of the AsyncBench tables come from.
pub fn run(config: &AsyncBenchConfig) -> Run {
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
                assert_eq!(result.ops, 200, "{} / {}", lock.name, driver.name());
                assert!(result.per_sec() > 0.0);
                assert_eq!(
                    result.hist.count(),
                    200,
                    "{} / {}: every acquisition must be recorded",
                    lock.name,
                    driver.name()
                );
                assert!(result.p99_us() >= result.p50_us());
            }
        }
    }

    #[test]
    fn driver_names_are_stable() {
        assert_eq!(AsyncDriver::AsyncTasks.name(), "async-tasks");
        assert_eq!(AsyncDriver::ALL.len(), 3);
    }
}
