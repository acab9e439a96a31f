//! FileBench — the byte-range-locked file workload family.
//!
//! The paper's motivating prior work (*lustre-ex*, *pnova-rw*) comes from
//! byte-range locking in file systems; this benchmark closes that loop by
//! driving `rl-file`'s [`RangeFile`] — an in-memory file whose only
//! concurrency control is the range lock under test — with an I/O-shaped
//! request mix:
//!
//! * a **reader/writer mix**: each operation is a `pread` with probability
//!   `read_pct`, otherwise a `pwrite` (with occasional `append`s and a rare
//!   `truncate`, the metadata-heavy outliers of real file traces);
//! * an **offset distribution**: [`OffsetDist::Uniform`] spreads operations
//!   over the whole file, [`OffsetDist::Skewed`] sends most of them to a hot
//!   prefix (the usual Zipf-ish shape of file access);
//! * the full lock-variant matrix, straight from the dynamic registry
//!   (`rl_baselines::registry`): the reader-writer locks (`list-rw`,
//!   `kernel-rw`, `pnova-rw`) plus the exclusive locks (`list-ex`,
//!   `lustre-ex`), whose readers are as exclusive as their writers, which
//!   makes the cost of serializing readers directly visible.
//!
//! Every write is a *stamped* region write and every read a *stamped* region
//! read (see `rl_file::RangeFile::write_stamped`), so the benchmark doubles
//! as a data-integrity checker: any exclusion violation by the lock under
//! test is counted in [`FileBenchResult::violations`], and the sweep driver
//! treats a non-zero count as a hard failure. Per-operation lock wait times
//! are recorded through `rl-sync`'s labeled stats (the Figures 7–8 analogue
//! for this workload).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use range_lock::RwRangeLock;
use rl_baselines::registry::{RegistryConfig, VariantSpec};
use rl_file::RangeFile;
use rl_sync::stats::{LabeledStats, LockStatSnapshot};
use rl_sync::wait::WaitPolicyKind;

use crate::rng::{seed, xorshift};

/// Logical file size the workload cycles over (bytes).
pub const FILE_SIZE: u64 = 1 << 20;

/// Size of one stamped region; every operation targets one aligned region.
pub const REGION: u64 = 256;

/// Skewed distribution: this fraction of operations hits the hot prefix.
pub const SKEW_HOT_PCT: u64 = 80;

/// Skewed distribution: the hot prefix is `FILE_SIZE / SKEW_HOT_DIVISOR`.
pub const SKEW_HOT_DIVISOR: u64 = 8;

/// One `append` per this many writes (per thread).
pub const APPEND_EVERY: u64 = 16;

/// One `truncate` back to [`FILE_SIZE`] per this many writes (per thread);
/// keeps append growth bounded.
pub const TRUNCATE_EVERY: u64 = 512;

/// Registry configuration for the file: one segment per 4 KiB page for the
/// segment-based `pnova-rw`, pNOVA's natural granularity.
pub const FILE_REGISTRY_CONFIG: RegistryConfig = RegistryConfig {
    span: FILE_SIZE,
    segments: (FILE_SIZE >> 12) as usize,
};

/// How operations pick their file offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetDist {
    /// Uniform over the whole file.
    Uniform,
    /// [`SKEW_HOT_PCT`]% of operations land in the first
    /// `FILE_SIZE / SKEW_HOT_DIVISOR` bytes.
    Skewed,
}

impl OffsetDist {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OffsetDist::Uniform => "uniform",
            OffsetDist::Skewed => "skewed",
        }
    }
}

/// One FileBench configuration point.
#[derive(Debug, Clone, Copy)]
pub struct FileBenchConfig {
    /// Registry entry of the lock under test.
    pub lock: &'static VariantSpec,
    /// How waiters wait (spin / spin-yield / block).
    pub wait: WaitPolicyKind,
    /// Number of worker threads.
    pub threads: usize,
    /// Percentage of operations that are reads (0–100).
    pub read_pct: u32,
    /// Offset distribution.
    pub dist: OffsetDist,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

/// Result of one FileBench run.
#[derive(Debug, Clone)]
pub struct FileBenchResult {
    /// Total completed operations across all threads.
    pub operations: u64,
    /// Measured wall-clock time.
    pub elapsed: Duration,
    /// Stamped-read/-write integrity violations observed (must be zero for a
    /// correct lock).
    pub violations: u64,
    /// Per-operation wait snapshots, labeled `pread` / `pwrite` / `append` /
    /// `truncate`, in that order.
    pub op_waits: Vec<LockStatSnapshot>,
}

impl FileBenchResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean lock-acquisition latency of the labeled operation, in
    /// microseconds (0 if the label saw no operations — explicit here, so
    /// the sweep tables can print a zero row for idle operations).
    pub fn avg_wait_us(&self, label: &str) -> f64 {
        self.op_waits
            .iter()
            .find(|s| s.name == label)
            .and_then(|s| s.avg_wait_per_acquisition_ns())
            .unwrap_or(0.0)
            / 1_000.0
    }

    /// The combined wait-time distribution across every labeled operation
    /// (`pread` + `pwrite` + `append` + `truncate`): the p50/p99 columns of
    /// the FileBench report tables come from here.
    pub fn wait_hist(&self) -> rl_obs::HistogramSnapshot {
        let mut merged = rl_obs::HistogramSnapshot::empty();
        for snap in &self.op_waits {
            merged.merge(&snap.wait_hist());
        }
        merged
    }
}

/// Picks a region-aligned offset in `[0, FILE_SIZE - REGION]`.
fn pick_offset(rng: &mut u64, dist: OffsetDist) -> u64 {
    let regions = FILE_SIZE / REGION;
    let region = match dist {
        OffsetDist::Uniform => xorshift(rng) % regions,
        OffsetDist::Skewed => {
            if xorshift(rng) % 100 < SKEW_HOT_PCT {
                xorshift(rng) % (regions / SKEW_HOT_DIVISOR)
            } else {
                xorshift(rng) % regions
            }
        }
    };
    region * REGION
}

/// One worker's operation loop body; returns `true` on an integrity
/// violation.
fn one_op<L: RwRangeLock>(
    file: &RangeFile<L>,
    rng: &mut u64,
    writes: &mut u64,
    thread_id: usize,
    read_pct: u32,
    dist: OffsetDist,
) -> bool {
    let read = (xorshift(rng) % 100) < read_pct as u64;
    let offset = pick_offset(rng, dist);
    if read {
        file.read_stamped(offset, REGION as usize).is_none()
    } else {
        *writes += 1;
        if (*writes).is_multiple_of(TRUNCATE_EVERY) {
            file.truncate(FILE_SIZE);
            false
        } else if (*writes).is_multiple_of(APPEND_EVERY) {
            file.append(&[thread_id as u8 + 1; 64]);
            false
        } else {
            !file.write_stamped(offset, REGION as usize, thread_id as u8 + 1)
        }
    }
}

fn run_generic<L: RwRangeLock + 'static>(lock: L, config: &FileBenchConfig) -> FileBenchResult {
    assert!(config.threads > 0);
    assert!(config.read_pct <= 100);
    let labels = LabeledStats::new();
    for label in ["pread", "pwrite", "append", "truncate"] {
        labels.handle(label);
    }
    let file = Arc::new(RangeFile::new(lock).with_op_stats(&labels));
    // Establish the logical length so reads inside the file see data.
    file.truncate(FILE_SIZE);

    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.threads);
    for thread_id in 0..config.threads {
        let file = Arc::clone(&file);
        let stop = Arc::clone(&stop);
        let total_ops = Arc::clone(&total_ops);
        let violations = Arc::clone(&violations);
        let config = *config;
        handles.push(std::thread::spawn(move || {
            let mut rng = seed(thread_id);
            let mut ops = 0u64;
            let mut torn = 0u64;
            let mut writes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if one_op(
                    &file,
                    &mut rng,
                    &mut writes,
                    thread_id,
                    config.read_pct,
                    config.dist,
                ) {
                    torn += 1;
                }
                ops += 1;
            }
            total_ops.fetch_add(ops, Ordering::Relaxed);
            violations.fetch_add(torn, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        handle.join().expect("FileBench worker panicked");
    }
    FileBenchResult {
        operations: total_ops.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        violations: violations.load(Ordering::Relaxed),
        op_waits: labels.snapshots(),
    }
}

/// Runs one FileBench configuration.
///
/// The lock is built from the registry and driven through dynamic dispatch
/// (`Box<dyn DynRwRangeLock>` implements [`RwRangeLock`]), so one code path
/// covers every variant under every wait policy.
pub fn run(config: &FileBenchConfig) -> FileBenchResult {
    run_generic(
        config.lock.build(config.wait, &FILE_REGISTRY_CONFIG),
        config,
    )
}

/// Runs a fixed number of operations per thread (used by the Criterion
/// bench, which needs deterministic work rather than a fixed duration).
/// Returns the number of integrity violations, which the caller should
/// assert to be zero.
///
/// Every variant is built under the default [`SpinThenYield`] policy so the
/// comparison is waiting-discipline-uniform. (Before the registry port,
/// `pnova-rw` alone defaulted to `Block` here — its Criterion numbers are
/// therefore not comparable across that boundary.)
///
/// [`SpinThenYield`]: rl_sync::wait::SpinThenYield
pub fn run_fixed_ops(
    lock: &'static VariantSpec,
    threads: usize,
    read_pct: u32,
    dist: OffsetDist,
    ops_per_thread: u64,
) -> u64 {
    let lock = lock.build(WaitPolicyKind::SpinThenYield, &FILE_REGISTRY_CONFIG);
    let file = Arc::new(RangeFile::new(lock));
    file.truncate(FILE_SIZE);
    let mut handles = Vec::with_capacity(threads);
    for thread_id in 0..threads {
        let file = Arc::clone(&file);
        handles.push(std::thread::spawn(move || {
            let mut rng = seed(thread_id);
            let mut torn = 0u64;
            let mut writes = 0u64;
            for _ in 0..ops_per_thread {
                if one_op(&file, &mut rng, &mut writes, thread_id, read_pct, dist) {
                    torn += 1;
                }
            }
            torn
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_baselines::registry;

    #[test]
    fn every_variant_and_distribution_completes_cleanly() {
        for lock in registry::all() {
            for dist in [OffsetDist::Uniform, OffsetDist::Skewed] {
                let result = run(&FileBenchConfig {
                    lock,
                    wait: WaitPolicyKind::SpinThenYield,
                    threads: 2,
                    read_pct: 80,
                    dist,
                    duration: Duration::from_millis(30),
                });
                assert!(result.operations > 0, "{} / {}", lock.name, dist.name());
                assert_eq!(
                    result.violations,
                    0,
                    "integrity violation under {} / {}",
                    lock.name,
                    dist.name()
                );
                assert_eq!(result.op_waits.len(), 4);
                assert_eq!(result.op_waits[0].name, "pread");
            }
        }
    }

    #[test]
    fn fixed_ops_mode_is_violation_free() {
        for name in ["list-rw", "list-ex"] {
            let lock = registry::by_name(name).expect("paper variant");
            assert_eq!(run_fixed_ops(lock, 2, 60, OffsetDist::Skewed, 300), 0);
        }
    }

    #[test]
    fn names_are_stable() {
        assert!(registry::by_name("list-rw").is_some());
        assert_eq!(registry::all().len(), 5);
        assert_eq!(registry::readers_share().count(), 3);
        assert_eq!(OffsetDist::Skewed.name(), "skewed");
    }

    #[test]
    fn every_wait_policy_is_violation_free_oversubscribed() {
        // Oversubscribed (4 threads on the small CI machines) so the block
        // policy's park/wake paths are exercised through the whole stack:
        // FileStore -> RangeFile -> range lock -> WaitQueue.
        for wait in WaitPolicyKind::ALL {
            for name in ["list-rw", "lustre-ex"] {
                let lock = registry::by_name(name).expect("paper variant");
                let result = run(&FileBenchConfig {
                    lock,
                    wait,
                    threads: 4,
                    read_pct: 50,
                    dist: OffsetDist::Skewed,
                    duration: Duration::from_millis(30),
                });
                assert!(result.operations > 0, "{} / {}", lock.name, wait.name());
                assert_eq!(
                    result.violations,
                    0,
                    "integrity violation under {} / {}",
                    lock.name,
                    wait.name()
                );
            }
        }
    }

    #[test]
    fn wait_accounting_reaches_the_labels() {
        let result = run(&FileBenchConfig {
            lock: registry::by_name("list-rw").expect("paper variant"),
            wait: WaitPolicyKind::SpinThenYield,
            threads: 2,
            read_pct: 50,
            dist: OffsetDist::Uniform,
            duration: Duration::from_millis(40),
        });
        let total: u64 = result.op_waits.iter().map(|s| s.acquisitions).sum();
        assert!(total > 0, "labeled op stats must be fed");
        assert!(result.avg_wait_us("pwrite") >= 0.0);
    }
}
