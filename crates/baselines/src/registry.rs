//! The dynamic lock registry: every paper variant by name, constructible at
//! runtime.
//!
//! The evaluation (Section 7) compares five range-lock variants — the two
//! list-based locks of this paper plus three baselines — and every driver
//! that sweeps "all variants" (ArrBench, FileBench, the VM simulator, the
//! server, the test suites) takes them from this one table, built on the
//! object-safe [`DynRwRangeLock`] trait of the core crate:
//!
//! * **what a variant implements** is `range_lock::TwoPhaseRwRangeLock`
//!   (blocking + `try_` acquisition and the enqueue / poll / cancel
//!   protocol); the exclusive-only locks (`list-ex`, `lustre-ex`) implement
//!   it with every acquisition exclusive, so their readers serialize —
//!   exactly the cost the paper's reader-writer variants exist to remove,
//!   and exactly how the FileBench sweep has always driven them;
//! * **what it gets for free** is everything else: the blanket
//!   `DynRwRangeLock` impl erases it, and because `Box<dyn DynRwRangeLock>`
//!   implements the static traits itself, one boxed lock plugs into every
//!   generic subsystem — the file store, the lock table's deadlock-checked
//!   and async paths, timed / async / batched acquisition, the benchmark
//!   drivers — unchanged. There is one kind of registry lock, so there is
//!   one constructor per variant;
//! * construction is **wait-policy aware**: [`VariantSpec::build`] takes a
//!   [`WaitPolicyKind`] and instantiates the lock with the corresponding
//!   compile-time policy (`Spin` / `SpinThenYield` / `Block`);
//! * the segment lock's static partitioning is supplied through
//!   [`RegistryConfig`] (span + segment count); the list and tree locks
//!   ignore it.
//!
//! [`VariantSpec::build_twophase`] is a one-line alias of `build` (every
//! registry lock carries the two-phase protocol); it exists only because the
//! frozen `benchmark/` harness calls it by that name.
//!
//! # Examples
//!
//! ```
//! use range_lock::Range;
//! use rl_baselines::registry::{self, RegistryConfig};
//! use rl_sync::wait::WaitPolicyKind;
//!
//! for spec in registry::all() {
//!     let lock = spec.build(WaitPolicyKind::SpinThenYield, &RegistryConfig::default());
//!     let guard = lock.write_dyn(Range::new(0, 100));
//!     drop(guard);
//! }
//! let list_rw = registry::by_name("list-rw").expect("paper variant");
//! assert!(list_rw.readers_share);
//! ```

use std::sync::Arc;

use range_lock::{CompatMode, DynRwRangeLock, Exclusive, ListLock, ReaderWriter};
use rl_sync::stats::WaitStats;
use rl_sync::wait::{Block, Spin, SpinThenYield, WaitPolicyKind};

use crate::segment_lock::SegmentRangeLock;
use crate::sem_lock::WholeSpaceSem;
use crate::tree_lock::TreeLock;

/// Build-time parameters for variants that statically partition the resource
/// (today only `pnova-rw`); the list and tree locks ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Total span `[0, span)` the segment lock partitions.
    pub span: u64,
    /// Number of equal segments the span is split into.
    pub segments: usize,
}

impl Default for RegistryConfig {
    /// One segment per 4 KiB page of a 1 MiB resource — pNOVA's natural
    /// granularity and the FileBench default.
    fn default() -> Self {
        RegistryConfig {
            span: 1 << 20,
            segments: 1 << 8,
        }
    }
}

/// Instantiates a lock for each of the three wait policies.
macro_rules! per_policy {
    ($wait:expr, $p:ident => $make:expr) => {
        match $wait {
            WaitPolicyKind::Spin => {
                type $p = Spin;
                Box::new($make)
            }
            WaitPolicyKind::SpinThenYield => {
                type $p = SpinThenYield;
                Box::new($make)
            }
            WaitPolicyKind::Block => {
                type $p = Block;
                Box::new($make)
            }
        }
    };
}

/// Constructor shape of a registry row: wait policy, config, optional
/// acquisition [`WaitStats`], optional internal-spin-lock stats.
type Ctor = fn(
    WaitPolicyKind,
    &RegistryConfig,
    Option<Arc<WaitStats>>,
    Option<Arc<WaitStats>>,
) -> Box<dyn DynRwRangeLock>;

/// One registry entry: a paper variant's stable name, its sharing semantics,
/// and its constructor.
pub struct VariantSpec {
    /// Stable name matching the paper's figure legends (`"list-rw"`, …).
    pub name: &'static str,
    /// `true` if overlapping readers share under this variant; `false` for
    /// the exclusive locks, whose "readers" serialize.
    pub readers_share: bool,
    /// `true` if the variant guards its internal metadata with a spin lock
    /// whose wait time the paper reports separately (Figure 8: the tree-based
    /// locks). Callers that want that breakdown pass a second [`WaitStats`]
    /// to [`VariantSpec::build_with_stats`]; the other variants ignore it.
    pub internal_spinlock: bool,
    ctor: Ctor,
}

impl VariantSpec {
    /// Constructs this variant waiting through `wait`, configured by `config`
    /// (only `pnova-rw` reads it). `wait` governs how *blocking* waiters of
    /// the lock wait; async waiters always suspend on wakers.
    pub fn build(&self, wait: WaitPolicyKind, config: &RegistryConfig) -> Box<dyn DynRwRangeLock> {
        (self.ctor)(wait, config, None, None)
    }

    /// Constructs this variant reporting acquisition wait times into `stats`.
    ///
    /// `spin_stats` additionally instruments the lock's *internal* metadata
    /// spin lock when the variant has one (see
    /// [`VariantSpec::internal_spinlock`]); the list and segment variants
    /// ignore it. This is the constructor the VM simulator uses to feed the
    /// Figure 7 (lock wait) and Figure 8 (tree spin wait) breakdowns.
    pub fn build_with_stats(
        &self,
        wait: WaitPolicyKind,
        config: &RegistryConfig,
        stats: Arc<WaitStats>,
        spin_stats: Option<Arc<WaitStats>>,
    ) -> Box<dyn DynRwRangeLock> {
        (self.ctor)(wait, config, Some(stats), spin_stats)
    }

    /// Alias of [`VariantSpec::build`]: every registry lock carries the
    /// two-phase protocol. Kept only because the frozen `benchmark/` harness
    /// calls it by this name; new code should call `build`.
    pub fn build_twophase(
        &self,
        wait: WaitPolicyKind,
        config: &RegistryConfig,
    ) -> Box<dyn DynRwRangeLock> {
        self.build(wait, config)
    }
}

impl std::fmt::Debug for VariantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VariantSpec")
            .field("name", &self.name)
            .field("readers_share", &self.readers_share)
            .finish()
    }
}

/// Attaches `stats` through the lock's `with_stats` builder when present.
macro_rules! with_stats {
    ($lock:expr, $stats:expr) => {
        match $stats {
            Some(s) => $lock.with_stats(s),
            None => $lock,
        }
    };
}

fn build_list<M: CompatMode>(
    wait: WaitPolicyKind,
    _config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    _spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynRwRangeLock> {
    per_policy!(wait, P => with_stats!(ListLock::<M, P>::with_policy(), stats))
}

fn build_tree<M: CompatMode>(
    wait: WaitPolicyKind,
    _config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynRwRangeLock> {
    per_policy!(wait, P => {
        let lock = match spin {
            Some(s) => TreeLock::<M, P>::with_policy_spin_stats(s),
            None => TreeLock::<M, P>::with_policy(),
        };
        with_stats!(lock, stats)
    })
}

fn build_pnova_rw(
    wait: WaitPolicyKind,
    config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    _spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynRwRangeLock> {
    per_policy!(wait, P => with_stats!(
        SegmentRangeLock::<P>::with_policy(config.span, config.segments),
        stats
    ))
}

/// The five paper variants, baselines first, in the order the paper's figure
/// legends list them.
static ALL: [VariantSpec; 5] = [
    VariantSpec {
        name: "lustre-ex",
        readers_share: false,
        internal_spinlock: true,
        ctor: build_tree::<Exclusive>,
    },
    VariantSpec {
        name: "kernel-rw",
        readers_share: true,
        internal_spinlock: true,
        ctor: build_tree::<ReaderWriter>,
    },
    VariantSpec {
        name: "pnova-rw",
        readers_share: true,
        internal_spinlock: false,
        ctor: build_pnova_rw,
    },
    VariantSpec {
        name: "list-ex",
        readers_share: false,
        internal_spinlock: false,
        ctor: build_list::<Exclusive>,
    },
    VariantSpec {
        name: "list-rw",
        readers_share: true,
        internal_spinlock: false,
        ctor: build_list::<ReaderWriter>,
    },
];

/// All five paper variants, in figure-legend order (baselines first).
pub fn all() -> &'static [VariantSpec] {
    &ALL
}

/// The reader-writer trio (`kernel-rw`, `pnova-rw`, `list-rw`) the headline
/// sweeps compare.
pub fn readers_share() -> impl Iterator<Item = &'static VariantSpec> {
    ALL.iter().filter(|s| s.readers_share)
}

/// Looks a variant up by its stable name.
pub fn by_name(name: &str) -> Option<&'static VariantSpec> {
    ALL.iter().find(|s| s.name == name)
}

/// Constructs the `stock` baseline — an `mmap_sem`-style
/// [`WholeSpaceSem`] that ignores ranges entirely — behind the same dynamic
/// interface the five range-lock variants use.
///
/// Not a registry row: the paper's figures list it separately because it is
/// the *status quo* every variant is measured against, and because a
/// range-ignoring lock would corrupt sweeps that rely on disjoint ranges
/// being concurrent.
pub fn build_stock(wait: WaitPolicyKind, stats: Option<Arc<WaitStats>>) -> Box<dyn DynRwRangeLock> {
    per_policy!(wait, P => match stats {
        Some(s) => WholeSpaceSem::<P>::with_policy_stats(s),
        None => WholeSpaceSem::<P>::with_policy(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::{Range, RwRangeLock};

    #[test]
    fn registry_lists_the_five_paper_variants_in_legend_order() {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["lustre-ex", "kernel-rw", "pnova-rw", "list-ex", "list-rw"]
        );
        assert_eq!(readers_share().count(), 3);
    }

    #[test]
    fn by_name_round_trips() {
        for spec in all() {
            let found = by_name(spec.name).expect("every variant resolvable");
            assert_eq!(found.name, spec.name);
        }
        assert!(by_name("no-such-lock").is_none());
    }

    #[test]
    fn built_names_match_spec_names() {
        for spec in all() {
            for wait in WaitPolicyKind::ALL {
                let lock = spec.build(wait, &RegistryConfig::default());
                assert_eq!(lock.dyn_name(), spec.name, "under {}", wait.name());
            }
        }
    }

    #[test]
    fn every_variant_locks_and_conflicts_through_dyn_dispatch() {
        let config = RegistryConfig {
            span: 256,
            segments: 32,
        };
        for spec in all() {
            for wait in WaitPolicyKind::ALL {
                let lock = spec.build(wait, &config);
                let w = lock.write_dyn(Range::new(0, 64));
                assert!(
                    lock.try_write_dyn(Range::new(32, 96)).is_none(),
                    "{}: overlapping writers must conflict",
                    spec.name
                );
                drop(w);
                let r1 = lock.read_dyn(Range::new(0, 64));
                let r2 = lock.try_read_dyn(Range::new(0, 64));
                assert_eq!(
                    r2.is_some(),
                    spec.readers_share,
                    "{}: reader sharing must match the spec",
                    spec.name
                );
                drop(r2);
                drop(r1);
            }
        }
    }

    #[test]
    fn async_built_variants_resolve_and_cancel_through_dyn_dispatch() {
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll, Waker};

        use range_lock::TwoPhaseRwRangeLock;

        let mut cx = Context::from_waker(Waker::noop());
        let config = RegistryConfig {
            span: 256,
            segments: 32,
        };
        for spec in all() {
            for wait in WaitPolicyKind::ALL {
                let lock = spec.build(wait, &config);
                // Uncontended async write resolves on the first poll.
                let mut fut = lock.write_async(Range::new(0, 64));
                let w = match Pin::new(&mut fut).poll(&mut cx) {
                    Poll::Ready(g) => g,
                    Poll::Pending => panic!("{}: uncontended write must resolve", spec.name),
                };
                // A conflicting future pends; dropping it mid-wait cancels.
                let mut blocked = lock.write_async(Range::new(32, 96));
                assert!(Pin::new(&mut blocked).poll(&mut cx).is_pending());
                drop(blocked);
                drop(w);
                assert!(
                    lock.try_write_dyn(Range::new(0, 256)).is_some(),
                    "{}: cancelled future left residue",
                    spec.name
                );
                // Reader sharing matches the spec through the async path too.
                let r1 = {
                    let mut fut = lock.read_async(Range::new(0, 64));
                    match Pin::new(&mut fut).poll(&mut cx) {
                        Poll::Ready(g) => g,
                        Poll::Pending => panic!("{}: uncontended read must resolve", spec.name),
                    }
                };
                let r2 = lock.try_read_dyn(Range::new(0, 64));
                assert_eq!(r2.is_some(), spec.readers_share, "{}", spec.name);
                drop(r2);
                drop(r1);
            }
        }
    }

    #[test]
    fn twophase_built_variants_run_the_protocol_and_batches() {
        use range_lock::{RwRangeLock, TwoPhaseRwRangeLock};

        let config = RegistryConfig {
            span: 256,
            segments: 32,
        };
        for spec in all() {
            for wait in WaitPolicyKind::ALL {
                let lock = spec.build_twophase(wait, &config);
                assert_eq!(lock.dyn_name(), spec.name, "under {}", wait.name());
                assert_eq!(lock.readers_share_dyn(), spec.readers_share);
                // Only the list locks downgrade in place; the others decline
                // through the erasure and hand the write guard back.
                let w = lock.write(Range::new(128, 192));
                assert_eq!(
                    lock.downgrade(w).is_ok(),
                    spec.name != "kernel-rw" && spec.name != "pnova-rw"
                );
                // Enqueue/poll/cancel round trip through the dyn methods.
                let mut p = lock.enqueue_write_dyn(Range::new(0, 64));
                let g = lock
                    .poll_write_dyn(&mut p)
                    .expect("uncontended write polls ready");
                let mut blocked = lock.enqueue_write_dyn(Range::new(32, 96));
                assert!(lock.poll_write_dyn(&mut blocked).is_none());
                lock.cancel_dyn(&mut blocked);
                drop(g);
                // The steps a batch is built from (`rl-file`'s `lock_many`):
                // disjoint items in ascending order, each one enqueue + poll,
                // all held at once through the boxed lock.
                let mut first = lock.enqueue_write(Range::new(0, 32));
                let mut second = lock.enqueue_read(Range::new(64, 96));
                let guards = (lock.poll_write(&mut first), lock.poll_read(&mut second));
                assert!(guards.0.is_some() && guards.1.is_some(), "{}", spec.name);
                drop(guards);
                assert!(
                    lock.try_write_dyn(Range::new(0, 256)).is_some(),
                    "{}: protocol left residue",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn stats_built_variants_record_waits_and_spins() {
        for spec in all() {
            for wait in WaitPolicyKind::ALL {
                let stats = Arc::new(WaitStats::new(spec.name));
                let spin = spec
                    .internal_spinlock
                    .then(|| Arc::new(WaitStats::new("spin")));
                let lock = spec.build_with_stats(
                    wait,
                    &RegistryConfig::default(),
                    Arc::clone(&stats),
                    spin.clone(),
                );
                assert_eq!(lock.dyn_name(), spec.name, "under {}", wait.name());
                drop(lock.write_dyn(Range::new(0, 64)));
                drop(lock.read_dyn(Range::new(0, 64)));
                let snap = stats.snapshot();
                assert!(
                    snap.acquisitions >= 2,
                    "{}: acquisitions must reach the attached stats",
                    spec.name
                );
                if let Some(spin) = spin {
                    // The internal spin lock only records *contended*
                    // acquisitions, so an uncontended smoke sees zero waits —
                    // but never spurious ones.
                    assert_eq!(
                        spin.snapshot().write_waits,
                        0,
                        "{}: uncontended spin lock must not record waits",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn stock_builder_serializes_disjoint_ranges() {
        for wait in WaitPolicyKind::ALL {
            let stats = Arc::new(WaitStats::new("stock"));
            let lock = build_stock(wait, Some(Arc::clone(&stats)));
            assert_eq!(lock.dyn_name(), "stock");
            let w = lock.write_dyn(Range::new(0, 8));
            assert!(
                lock.try_read_dyn(Range::new(1 << 30, 1 << 31)).is_none(),
                "stock must conflict across disjoint ranges"
            );
            // `stock` carries the two-phase tier like every registry row.
            use range_lock::TwoPhaseRwRangeLock;
            assert!(lock
                .read_timeout(Range::new(0, 8), std::time::Duration::from_millis(5))
                .is_none());
            drop(w);
            assert!(lock
                .read_timeout(Range::new(0, 8), std::time::Duration::from_millis(100))
                .is_some());
            assert!(stats.snapshot().acquisitions > 0);
        }
    }

    #[test]
    fn boxed_registry_lock_is_a_generic_rw_lock() {
        // The whole point: a runtime-chosen variant drives RwRangeLock-generic
        // code with no enum in sight.
        fn exercise<L: RwRangeLock>(lock: &L) {
            drop(lock.write(Range::new(0, 8)));
            drop(lock.read(Range::new(0, 8)));
        }
        for spec in all() {
            let lock = spec.build(WaitPolicyKind::SpinThenYield, &RegistryConfig::default());
            exercise(&lock);
        }
    }
}
