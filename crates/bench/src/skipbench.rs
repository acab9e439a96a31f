//! The Synchrobench-style skip-list benchmark (Figure 4).
//!
//! The paper's configuration: key range of 8M, 4M keys inserted before the
//! measurement, 80% `contains` / 20% updates (split evenly between inserts and
//! removes), reporting throughput as the thread count grows. Three variants
//! are compared: the original optimistic skip list (`orig`), the range-locked
//! skip list over the kernel tree lock (`range-lustre`) and over the
//! list-based lock of this paper (`range-list`).

use std::time::Duration;

use range_lock::{ListRangeLock, RwRangeLock};
use rl_baselines::TreeRangeLock;
use rl_skiplist::{DynRangeSkipList, OptimisticSkipList, RangeSkipList};
use rl_sync::wait::WaitPolicyKind;

use crate::rng::{seed, xorshift};
use crate::runner::{self, Run, Stop};

/// A skip-list implementation under benchmark.
///
/// The three Figure-4 rows (`orig`, `range-lustre`, `range-list`) use static
/// dispatch exactly as before; [`SkipListVariant::Registry`] rows build a
/// [`DynRangeSkipList`] from the `rl_baselines::registry` so the benchmark
/// sweeps every lock variant × wait policy with one code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipListVariant {
    /// Herlihy et al. optimistic skip list with per-node locks.
    Orig,
    /// Range-locked skip list over the tree-based kernel range lock.
    RangeLustre,
    /// Range-locked skip list over the list-based range lock (this paper).
    RangeList,
    /// Range-locked skip list over a registry-built lock (dynamic dispatch).
    Registry {
        /// Registry variant name (`"list-rw"`, `"pnova-rw"`, …).
        variant: &'static str,
        /// Wait policy of the lock.
        wait: WaitPolicyKind,
        /// Report label, e.g. `"list-rw+block"`.
        label: &'static str,
    },
}

/// Builds one [`SkipListVariant::SWEEP`] row.
const fn sweep_row(
    variant: &'static str,
    wait: WaitPolicyKind,
    label: &'static str,
) -> SkipListVariant {
    SkipListVariant::Registry {
        variant,
        wait,
        label,
    }
}

impl SkipListVariant {
    /// Stable name matching the paper's legend (or the sweep label).
    pub fn name(self) -> &'static str {
        match self {
            SkipListVariant::Orig => "orig",
            SkipListVariant::RangeLustre => "range-lustre",
            SkipListVariant::RangeList => "range-list",
            SkipListVariant::Registry { label, .. } => label,
        }
    }

    /// The Figure-4 variants in plot order.
    pub const ALL: [SkipListVariant; 3] = [
        SkipListVariant::Orig,
        SkipListVariant::RangeLustre,
        SkipListVariant::RangeList,
    ];

    /// Every registry variant × every wait policy, in registry legend order.
    pub const SWEEP: [SkipListVariant; 15] = [
        sweep_row("lustre-ex", WaitPolicyKind::Spin, "lustre-ex+spin"),
        sweep_row(
            "lustre-ex",
            WaitPolicyKind::SpinThenYield,
            "lustre-ex+yield",
        ),
        sweep_row("lustre-ex", WaitPolicyKind::Block, "lustre-ex+block"),
        sweep_row("kernel-rw", WaitPolicyKind::Spin, "kernel-rw+spin"),
        sweep_row(
            "kernel-rw",
            WaitPolicyKind::SpinThenYield,
            "kernel-rw+yield",
        ),
        sweep_row("kernel-rw", WaitPolicyKind::Block, "kernel-rw+block"),
        sweep_row("pnova-rw", WaitPolicyKind::Spin, "pnova-rw+spin"),
        sweep_row("pnova-rw", WaitPolicyKind::SpinThenYield, "pnova-rw+yield"),
        sweep_row("pnova-rw", WaitPolicyKind::Block, "pnova-rw+block"),
        sweep_row("list-ex", WaitPolicyKind::Spin, "list-ex+spin"),
        sweep_row("list-ex", WaitPolicyKind::SpinThenYield, "list-ex+yield"),
        sweep_row("list-ex", WaitPolicyKind::Block, "list-ex+block"),
        sweep_row("list-rw", WaitPolicyKind::Spin, "list-rw+spin"),
        sweep_row("list-rw", WaitPolicyKind::SpinThenYield, "list-rw+yield"),
        sweep_row("list-rw", WaitPolicyKind::Block, "list-rw+block"),
    ];
}

/// Configuration of one skip-list benchmark point.
#[derive(Debug, Clone, Copy)]
pub struct SkipBenchConfig {
    /// Which implementation to measure.
    pub variant: SkipListVariant,
    /// Number of worker threads.
    pub threads: usize,
    /// Size of the key universe (the paper uses 8M).
    pub key_range: u64,
    /// Number of keys inserted before the measurement (the paper uses 4M).
    pub initial_keys: u64,
    /// Percentage of `contains` operations (the paper uses 80).
    pub read_pct: u32,
    /// Measurement duration.
    pub duration: Duration,
}

impl SkipBenchConfig {
    /// The paper's workload scaled down so a laptop-sized run finishes in
    /// seconds rather than minutes; use [`SkipBenchConfig::paper`] for the
    /// full-size configuration.
    pub fn quick(variant: SkipListVariant, threads: usize) -> Self {
        SkipBenchConfig {
            variant,
            threads,
            key_range: 1 << 17,
            initial_keys: 1 << 16,
            read_pct: 80,
            duration: Duration::from_millis(300),
        }
    }

    /// The paper's full-size workload (8M key range, 4M initial keys).
    pub fn paper(variant: SkipListVariant, threads: usize) -> Self {
        SkipBenchConfig {
            variant,
            threads,
            key_range: 8 << 20,
            initial_keys: 4 << 20,
            read_pct: 80,
            duration: Duration::from_secs(10),
        }
    }
}

/// A thin object-safe façade over the three set implementations.
trait SetUnderTest: Send + Sync {
    fn insert(&self, key: u64) -> bool;
    fn remove(&self, key: u64) -> bool;
    fn contains(&self, key: u64) -> bool;
}

impl SetUnderTest for OptimisticSkipList {
    fn insert(&self, key: u64) -> bool {
        OptimisticSkipList::insert(self, key)
    }
    fn remove(&self, key: u64) -> bool {
        OptimisticSkipList::remove(self, key)
    }
    fn contains(&self, key: u64) -> bool {
        OptimisticSkipList::contains(self, key)
    }
}

impl<L: RwRangeLock> SetUnderTest for RangeSkipList<L> {
    fn insert(&self, key: u64) -> bool {
        RangeSkipList::insert(self, key)
    }
    fn remove(&self, key: u64) -> bool {
        RangeSkipList::remove(self, key)
    }
    fn contains(&self, key: u64) -> bool {
        RangeSkipList::contains(self, key)
    }
}

fn build_set(variant: SkipListVariant) -> Box<dyn SetUnderTest> {
    match variant {
        SkipListVariant::Orig => Box::new(OptimisticSkipList::new()),
        SkipListVariant::RangeLustre => Box::new(RangeSkipList::with_lock(TreeRangeLock::new())),
        SkipListVariant::RangeList => Box::new(RangeSkipList::with_lock(ListRangeLock::new())),
        SkipListVariant::Registry { variant, wait, .. } => Box::new(
            DynRangeSkipList::from_registry(variant, wait)
                .unwrap_or_else(|| panic!("unknown registry variant `{variant}`")),
        ),
    }
}

/// Runs one skip-list benchmark point for its duration.
pub fn run(config: &SkipBenchConfig) -> Run {
    assert!(config.initial_keys < config.key_range);
    let set = &*build_set(config.variant);
    let key = |state: &mut u64| xorshift(state) % config.key_range + 1;
    let name = format!("skip list {} x{}", config.variant.name(), config.threads);

    // Pre-fill with `initial_keys` distinct pseudo-random keys, in parallel
    // (the fill is not part of the measurement).
    let fill_threads = config.threads.clamp(1, 8);
    let per_thread = Stop::Quota(config.initial_keys / fill_threads as u64);
    runner::run(&format!("{name} prefill"), fill_threads, per_thread, |t| {
        let mut state = (t as u64 + 1).wrapping_mul(0x853C_49E6_748F_EA9B);
        move |_: &_| set.insert(key(&mut state))
    });

    runner::run(&name, config.threads, Stop::After(config.duration), |t| {
        let mut state = seed(t);
        move |_: &_| {
            let key = key(&mut state);
            let dice = xorshift(&mut state) % 100;
            if dice < config.read_pct as u64 {
                std::hint::black_box(set.contains(key));
            } else if dice.is_multiple_of(2) {
                std::hint::black_box(set.insert(key));
            } else {
                std::hint::black_box(set.remove(key));
            }
            true
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_completes() {
        for variant in SkipListVariant::ALL {
            let mut config = SkipBenchConfig::quick(variant, 2);
            config.key_range = 1 << 12;
            config.initial_keys = 1 << 11;
            config.duration = Duration::from_millis(30);
            assert!(run(&config).ops > 0, "{}", variant.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SkipListVariant::Orig.name(), "orig");
        assert_eq!(SkipListVariant::RangeLustre.name(), "range-lustre");
        assert_eq!(SkipListVariant::RangeList.name(), "range-list");
        assert_eq!(SkipListVariant::SWEEP[0].name(), "lustre-ex+spin");
        assert_eq!(SkipListVariant::SWEEP[14].name(), "list-rw+block");
    }

    #[test]
    fn sweep_labels_match_their_specs() {
        for row in SkipListVariant::SWEEP {
            let SkipListVariant::Registry {
                variant,
                wait,
                label,
            } = row
            else {
                panic!("sweep rows are registry-backed");
            };
            assert!(
                rl_baselines::registry::by_name(variant).is_some(),
                "{label}"
            );
            assert_eq!(
                label,
                format!("{variant}+{}", short_policy(wait)),
                "{label}"
            );
        }

        fn short_policy(wait: WaitPolicyKind) -> &'static str {
            match wait {
                WaitPolicyKind::Spin => "spin",
                WaitPolicyKind::SpinThenYield => "yield",
                WaitPolicyKind::Block => "block",
            }
        }
    }

    #[test]
    fn registry_rows_complete() {
        for row in [SkipListVariant::SWEEP[7], SkipListVariant::SWEEP[14]] {
            let mut config = SkipBenchConfig::quick(row, 2);
            config.key_range = 1 << 12;
            config.initial_keys = 1 << 11;
            config.duration = Duration::from_millis(30);
            assert!(run(&config).ops > 0, "{}", row.name());
        }
    }

    #[test]
    fn paper_config_matches_the_paper() {
        let c = SkipBenchConfig::paper(SkipListVariant::RangeList, 8);
        assert_eq!(c.key_range, 8 << 20);
        assert_eq!(c.initial_keys, 4 << 20);
        assert_eq!(c.read_pct, 80);
    }
}
