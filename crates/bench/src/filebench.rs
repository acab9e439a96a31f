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
//! test is counted beside the [`run`]'s result, and the sweep driver
//! treats a non-zero count as a hard failure. Per-operation lock wait times
//! are recorded through `rl-sync`'s labeled stats (the Figures 7–8 analogue
//! for this workload).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rl_baselines::registry::{RegistryConfig, VariantSpec};
use rl_file::RangeFile;
use rl_sync::stats::{LabeledStats, LockStatSnapshot};
use rl_sync::wait::WaitPolicyKind;

use crate::rng::{seed, xorshift};
use crate::runner::{self, Run, Stop};

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

/// The labeled operations, in the order [`run`] reports their waits.
pub const OPS: [&str; 4] = ["pread", "pwrite", "append", "truncate"];

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
fn one_op(
    file: &RangeFile,
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

/// Runs one FileBench configuration for its duration. The cell's histogram
/// is the lock-wait distribution of every labeled operation together (the
/// p50/p99 columns of the FileBench tables); beside it come the number of
/// stamped-I/O integrity violations (zero for a correct lock) and each
/// operation's own wait snapshot, in [`OPS`] order.
///
/// The lock is built from the registry and the file keeps that box, so one
/// code path — a dynamic call per acquisition and release — covers every
/// variant under every wait policy.
pub fn run(config: &FileBenchConfig) -> (Run, u64, Vec<LockStatSnapshot>) {
    assert!(config.read_pct <= 100);
    let labels = LabeledStats::new();
    for label in OPS {
        labels.handle(label);
    }
    let lock = config.lock.build(config.wait, &FILE_REGISTRY_CONFIG);
    let file = RangeFile::new(lock).with_op_stats(&labels);
    // Establish the logical length so reads inside the file see data.
    file.truncate(FILE_SIZE);

    let violations = AtomicU64::new(0);
    let (lock, dist) = (config.lock.name, config.dist.name());
    let name = format!(
        "FileBench {lock} / {dist} / {} x{}",
        config.wait.name(),
        config.threads
    );
    let mut run = runner::run(&name, config.threads, Stop::After(config.duration), |i| {
        let mut rng = seed(i);
        let mut writes = 0u64;
        let (file, violations) = (&file, &violations);
        move |_: &_| {
            if one_op(file, &mut rng, &mut writes, i, config.read_pct, config.dist) {
                violations.fetch_add(1, Ordering::Relaxed);
            }
            true
        }
    });
    let op_waits = labels.snapshots();
    for snap in &op_waits {
        run.hist.merge(&snap.wait_hist());
    }
    (run, violations.into_inner(), op_waits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_baselines::registry;

    #[test]
    fn every_variant_and_distribution_completes_cleanly() {
        for lock in registry::all() {
            for dist in [OffsetDist::Uniform, OffsetDist::Skewed] {
                let (_, violations, op_waits) = run(&FileBenchConfig {
                    lock,
                    wait: WaitPolicyKind::SpinThenYield,
                    threads: 2,
                    read_pct: 80,
                    dist,
                    duration: Duration::from_millis(30),
                });
                assert_eq!(
                    violations,
                    0,
                    "integrity violation under {} / {}",
                    lock.name,
                    dist.name()
                );
                let names: Vec<&str> = op_waits.iter().map(|s| s.name.as_str()).collect();
                assert_eq!(names, OPS);
            }
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
                let (_, violations, _) = run(&FileBenchConfig {
                    lock,
                    wait,
                    threads: 4,
                    read_pct: 50,
                    dist: OffsetDist::Skewed,
                    duration: Duration::from_millis(30),
                });
                assert_eq!(
                    violations,
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
        let (run, _, op_waits) = run(&FileBenchConfig {
            lock: registry::by_name("list-rw").expect("paper variant"),
            wait: WaitPolicyKind::SpinThenYield,
            threads: 2,
            read_pct: 50,
            dist: OffsetDist::Uniform,
            duration: Duration::from_millis(40),
        });
        let total: u64 = op_waits.iter().map(|s| s.acquisitions).sum();
        assert!(total > 0, "labeled op stats must be fed");
        let waits: u64 = op_waits.iter().map(|s| s.wait_hist().count()).sum();
        assert_eq!(
            run.hist.count(),
            waits,
            "the cell's histogram merges every label"
        );
    }
}
