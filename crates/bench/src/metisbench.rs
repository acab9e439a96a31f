//! The kernel-space experiments (Figures 5–8) on the simulated VM.
//!
//! Each measurement runs one Metis workload (`wr`, `wc`, `wrmem`) with a
//! given synchronization strategy and thread count, and records:
//!
//! * the wall-clock runtime (Figure 5 and Figure 6);
//! * the average wait time per acquisition of the VM lock, split into read
//!   and write acquisitions (Figure 7);
//! * the average wait time on the internal spin lock of the tree-based range
//!   lock (Figure 8);
//! * the speculation counters (the ">99% of mprotects succeed speculatively"
//!   claim of Section 7.2).

use std::sync::Arc;
use std::time::Duration;

use rl_metis::{run_on, MetisConfig, MetisReport, Workload};
use rl_sync::stats::LockStatSnapshot;
use rl_vm::{Mm, Strategy, VmStats};

/// One measurement point of the kernel-space experiments.
#[derive(Debug, Clone)]
pub struct MetisMeasurement {
    /// Workload that was run.
    pub workload: Workload,
    /// Synchronization strategy of the simulated VM.
    pub strategy: Strategy,
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock runtime of the run.
    pub runtime: Duration,
    /// VM-operation counters.
    pub vm_stats: VmStats,
    /// Wait-time counters of the VM lock (mmap_sem or range lock).
    pub lock_stats: LockStatSnapshot,
    /// Wait-time counters of the range tree's internal spin lock, when the
    /// strategy uses the tree-based range lock.
    pub spin_stats: Option<LockStatSnapshot>,
}

impl MetisMeasurement {
    /// Average VM-lock wait per acquisition in microseconds (Figure 7
    /// metric); zero when the run made no acquisitions at all (an empty
    /// measurement, which the figure plots as a zero point).
    pub fn avg_lock_wait_us(&self) -> f64 {
        self.lock_stats.avg_wait_per_acquisition_ns().unwrap_or(0.0) / 1_000.0
    }

    /// Average spin-lock wait per acquisition in microseconds (Figure 8
    /// metric); zero when the strategy has no internal spin lock or it was
    /// never acquired.
    pub fn avg_spin_wait_us(&self) -> f64 {
        self.spin_stats
            .as_ref()
            .and_then(|s| s.avg_wait_per_acquisition_ns())
            .unwrap_or(0.0)
            / 1_000.0
    }

    /// Percentage of `mprotect` calls that completed speculatively (the
    /// Figure 6 speculation-rate metric; Section 7.2 reports >99%).
    pub fn speculation_rate_pct(&self) -> f64 {
        self.vm_stats.speculation_success_rate() * 100.0
    }

    /// Median VM-lock wait in microseconds, from the combined read+write
    /// wait histogram; zero when nothing ever waited.
    pub fn p50_wait_us(&self) -> f64 {
        self.lock_stats.wait_hist().p50().unwrap_or(0) as f64 / 1_000.0
    }

    /// 99th-percentile VM-lock wait in microseconds; zero when nothing ever
    /// waited.
    pub fn p99_wait_us(&self) -> f64 {
        self.lock_stats.wait_hist().p99().unwrap_or(0) as f64 / 1_000.0
    }
}

/// Scale of a Metis measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetisScale {
    /// Small inputs; finishes in seconds. Used by tests and `repro --quick`.
    Quick,
    /// Larger inputs approximating the paper's per-thread work.
    Full,
}

/// Runs one (workload, strategy, threads) measurement.
///
/// The total work is fixed per scale (not per thread), exactly as in the
/// paper: adding threads splits the same input, so the runtime-vs-threads
/// curve shows scaling rather than growing work.
pub fn measure(
    workload: Workload,
    strategy: Strategy,
    threads: usize,
    scale: MetisScale,
) -> MetisMeasurement {
    let config = match scale {
        MetisScale::Quick => MetisConfig {
            total_words: 120_000,
            ..MetisConfig::small(workload, threads)
        },
        MetisScale::Full => MetisConfig {
            total_words: 1_200_000,
            ..MetisConfig::benchmark(workload, threads)
        },
    };
    let mm = Arc::new(Mm::new(strategy));
    let report: MetisReport = run_on(&config, Arc::clone(&mm)).expect("metis run failed");
    MetisMeasurement {
        workload,
        strategy,
        threads,
        runtime: report.elapsed,
        vm_stats: mm.stats(),
        lock_stats: mm.lock_stats().snapshot(),
        spin_stats: mm.spin_stats().map(|s| s.snapshot()),
    }
}

/// Runs one measurement `reps` times and keeps the run with the smallest
/// runtime.
///
/// Same noise-vetting rationale as the asyncbench best-of-N: on an
/// oversubscribed box the scheduler phase perturbs individual runs, and the
/// fastest run is the least-perturbed measurement. The kept run's counters
/// and wait statistics are the ones belonging to that fastest run, so every
/// column of a report row is internally consistent.
pub fn measure_best(
    workload: Workload,
    strategy: Strategy,
    threads: usize,
    scale: MetisScale,
    reps: u32,
) -> MetisMeasurement {
    assert!(reps > 0);
    let mut best: Option<MetisMeasurement> = None;
    for _ in 0..reps {
        let m = measure(workload, strategy, threads, scale);
        if best.as_ref().is_none_or(|b| m.runtime < b.runtime) {
            best = Some(m);
        }
    }
    best.expect("at least one rep ran")
}

/// Timing of the vmacache microbenchmark: mean ns per refined page fault
/// with the per-thread VMA cache disabled (`tree_walk_ns`) and enabled
/// (`cached_ns`) on an address space with many VMAs.
#[derive(Debug, Clone, Copy)]
pub struct VmaCacheBench {
    /// ns per fault when every fault walks the VMA tree.
    pub tree_walk_ns: f64,
    /// ns per fault when repeat faults hit the per-thread cache.
    pub cached_ns: f64,
    /// Cache hit rate observed during the cached half (should be ~1.0).
    pub hit_rate: f64,
}

/// Measures the cost of a refined page fault with and without the
/// per-thread VMA cache, on an address space fragmented into many VMAs so
/// the tree walk has real depth (the Figure 7 companion microbenchmark).
pub fn vmacache_bench(iters: u64) -> VmaCacheBench {
    use rl_vm::Protection;

    // Fragment the space into ~256 VMAs with alternating protections so
    // neighbouring regions can never merge.
    fn build(strategy: Strategy) -> (Arc<Mm>, u64) {
        let mm = Arc::new(Mm::new(strategy));
        let pages = 4;
        let base = mm
            .mmap(None, 256 * pages * rl_vm::PAGE_SIZE, Protection::NONE)
            .expect("mmap");
        for i in 0..128u64 {
            mm.mprotect(
                base + (2 * i) * pages * rl_vm::PAGE_SIZE,
                pages * rl_vm::PAGE_SIZE,
                Protection::READ_WRITE,
            )
            .expect("mprotect");
        }
        (mm, base)
    }

    fn time_faults(mm: &Mm, base: u64, iters: u64) -> f64 {
        // Fault round-robin over four hot readable pages (the vmacache has
        // four slots), mirroring a thread touching its arena.
        let pages = 4;
        let start = std::time::Instant::now();
        for i in 0..iters {
            let vma = (i % 4) * 2; // every other region is readable
            let addr = base + vma * pages * rl_vm::PAGE_SIZE;
            mm.page_fault(addr, false).expect("fault");
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    }

    let (cold_mm, cold_base) = build(Strategy::LIST_REFINED.without_vmacache());
    let tree_walk_ns = time_faults(&cold_mm, cold_base, iters);

    let (warm_mm, warm_base) = build(Strategy::LIST_REFINED);
    rl_vm::vmacache::flush();
    let cached_ns = time_faults(&warm_mm, warm_base, iters);
    let stats = warm_mm.stats();

    VmaCacheBench {
        tree_walk_ns,
        cached_ns,
        hit_rate: stats.vmacache_hit_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_measurement_populates_everything() {
        let m = measure(Workload::Wc, Strategy::TREE_FULL, 2, MetisScale::Quick);
        assert!(m.runtime > Duration::ZERO);
        assert!(m.vm_stats.mprotects > 0);
        assert!(m.lock_stats.acquisitions > 0);
        assert!(m.spin_stats.is_some());
        let m = measure(Workload::Wc, Strategy::LIST_REFINED, 2, MetisScale::Quick);
        assert!(m.spin_stats.is_none());
        assert!(m.avg_spin_wait_us() == 0.0);
        assert!(m.avg_lock_wait_us() >= 0.0);
    }

    #[test]
    fn figure5_covers_all_strategies() {
        let rows = Strategy::FIGURE5.map(|s| measure(Workload::Wrmem, s, 2, MetisScale::Quick));
        let names: Vec<&str> = rows.iter().map(|r| r.strategy.name).collect();
        assert!(names.contains(&"stock"));
        assert!(names.contains(&"list-refined"));
    }

    #[test]
    fn measure_best_keeps_a_consistent_run() {
        let m = measure_best(
            Workload::Wc,
            Strategy::LIST_REFINED,
            2,
            MetisScale::Quick,
            2,
        );
        assert!(m.runtime > Duration::ZERO);
        assert!(m.vm_stats.mprotects > 0);
        assert!(m.speculation_rate_pct() >= 0.0);
        assert!(m.p50_wait_us() <= m.p99_wait_us());
    }

    #[test]
    fn vmacache_bench_hits_the_cache() {
        let b = vmacache_bench(5_000);
        assert!(b.tree_walk_ns > 0.0);
        assert!(b.cached_ns > 0.0);
        assert!(b.hit_rate > 0.9, "hit rate {}", b.hit_rate);
    }

    #[test]
    fn figure6_covers_all_refinements() {
        let rows = Strategy::FIGURE6.map(|s| measure(Workload::Wc, s, 2, MetisScale::Quick));
        let names: Vec<&str> = rows.iter().map(|r| r.strategy.name).collect();
        assert_eq!(
            names,
            vec!["list-full", "list-pf", "list-mprotect", "list-refined"]
        );
    }
}
