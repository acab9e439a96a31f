//! Enforcement suite for the trait-level `try_` contract
//! (`range_lock::traits`, "`try_` semantics"): a failed bounded acquisition
//! must never wait and must leave **no residue** — no node behind in the
//! list (leak check via `held_ranges` / `is_quiescent` and via
//! `LockStatSnapshot`, which must not count failed attempts as
//! acquisitions, and counts a granted one once), and no effect on later
//! acquisitions, including the empty-list fast path.

use std::sync::Arc;

use range_locks_repro::range_lock::{
    ListRangeLock, Range, RwListRangeLock, RwRangeLock, TwoPhaseRwRangeLock,
};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_sync::stats::WaitStats;
use range_locks_repro::rl_sync::wait::WaitPolicyKind;

const ATTEMPTS: usize = 64;

#[test]
fn failed_try_acquire_leaves_no_node_behind() {
    let stats = Arc::new(WaitStats::new("list-ex"));
    let lock = ListRangeLock::new().with_stats(Arc::clone(&stats));
    let held = lock.write(Range::new(100, 200));
    let baseline = stats.snapshot().acquisitions;

    for _ in 0..ATTEMPTS {
        assert!(lock.try_write(Range::new(150, 250)).is_none());
    }

    // Leak check via LockStatSnapshot: failed attempts are not acquisitions.
    assert_eq!(
        stats.snapshot().acquisitions,
        baseline,
        "failed try_acquire must not be counted as an acquisition"
    );
    // Leak check via the list itself: only the held range is present.
    assert_eq!(lock.held_ranges(), 1);
    drop(held);
    assert!(
        lock.is_quiescent(),
        "failed tries must leave no node behind"
    );

    // The empty-list fast path must be reachable again: a leaked node would
    // leave the head non-null and the uncontended CAS path dead.
    for _ in 0..ATTEMPTS {
        drop(lock.write(Range::new(0, 10)));
    }
    assert!(lock.is_quiescent());
}

#[test]
fn failed_try_read_and_try_write_leave_no_node_behind() {
    let stats = Arc::new(WaitStats::new("list-rw"));
    let lock = RwListRangeLock::new().with_stats(Arc::clone(&stats));
    let held = lock.write(Range::new(100, 200));
    let baseline = stats.snapshot().acquisitions;

    for _ in 0..ATTEMPTS {
        assert!(lock.try_read(Range::new(150, 250)).is_none());
        assert!(lock.try_write(Range::new(150, 250)).is_none());
    }

    assert_eq!(
        stats.snapshot().acquisitions,
        baseline,
        "failed try_read/try_write must not be counted as acquisitions"
    );
    assert_eq!(lock.held_ranges(), 1);
    drop(held);
    assert!(lock.is_quiescent());

    // A failed try_read transiently publishes a node (it can only detect the
    // conflicting writer during validation); the node must have been
    // logically deleted and must not block a later overlapping writer.
    let held = lock.read(Range::new(0, 100));
    assert!(lock.try_write(Range::new(50, 150)).is_none());
    drop(held);
    drop(lock.write(Range::new(0, 150)));
    assert!(lock.is_quiescent());
}

#[test]
fn every_registry_variant_honors_the_try_contract() {
    let config = RegistryConfig {
        span: 1 << 10,
        segments: 16,
    };
    for spec in registry::all() {
        for wait in WaitPolicyKind::ALL {
            let lock = spec.build(wait, &config);
            // Segment-aligned ranges so `pnova-rw`'s granularity contract
            // holds (span/segments = 64-byte segments).
            let held = lock.write(Range::new(0, 128));
            for _ in 0..ATTEMPTS {
                assert!(
                    lock.try_write(Range::new(64, 192)).is_none(),
                    "{}/{}: overlapping try_write must fail",
                    spec.name,
                    wait.name()
                );
                assert!(
                    lock.try_read(Range::new(64, 192)).is_none(),
                    "{}/{}: try_read overlapping a writer must fail",
                    spec.name,
                    wait.name()
                );
            }
            // Disjoint ranges still succeed mid-failure-storm.
            drop(
                lock.try_write(Range::new(256, 320))
                    .unwrap_or_else(|| panic!("{}: disjoint try_write must succeed", spec.name)),
            );
            drop(held);
            // No residue: after releasing everything, the exact span the
            // failed tries targeted is immediately acquirable.
            drop(
                lock.try_write(Range::new(64, 192))
                    .unwrap_or_else(|| panic!("{}: span must be free after release", spec.name)),
            );
        }
    }
}

#[test]
fn a_granted_try_counts_once_for_every_variant_and_stock() {
    // One counting rule everywhere, so a per-acquisition average (Figure 7)
    // has the same denominator whichever variant ran `try_` or two-phase
    // paths: a granted `try_` is one uncontended acquisition, a failed one
    // is none.
    const K: u64 = 8;
    let config = RegistryConfig {
        span: 1 << 10,
        segments: 16,
    };
    let wait = WaitPolicyKind::SpinThenYield;
    let mut cases: Vec<(&str, Arc<WaitStats>, Box<dyn TwoPhaseRwRangeLock>)> = registry::all()
        .iter()
        .map(|spec| {
            let stats = Arc::new(WaitStats::new(spec.name));
            let lock = spec.build_with_stats(wait, &config, Arc::clone(&stats), None);
            (spec.name, stats, lock)
        })
        .collect();
    let stats = Arc::new(WaitStats::new("stock"));
    cases.push((
        "stock",
        Arc::clone(&stats),
        registry::build_stock(wait, Some(stats)),
    ));
    for (name, stats, lock) in &cases {
        // Disjoint segment-aligned ranges, held together where the lock has
        // ranges (so the list locks take their fast path once and their
        // walk after), one at a time under `stock`, which has none.
        let mut held = Vec::new();
        for i in 0..K {
            let range = Range::new(i * 64, (i + 1) * 64);
            let guard = lock
                .try_write(range)
                .unwrap_or_else(|| panic!("{name}: disjoint try_write {i} must succeed"));
            if *name != "stock" {
                held.push(guard);
            }
        }
        drop(held);
        assert_eq!(stats.snapshot().acquisitions, K, "{name}: granted tries");

        let blocker = lock.write(Range::new(0, 64));
        let before = stats.snapshot().acquisitions;
        for _ in 0..K {
            assert!(lock.try_write(Range::new(0, 64)).is_none());
        }
        assert_eq!(
            stats.snapshot().acquisitions,
            before,
            "{name}: failed tries must count nothing"
        );
        drop(blocker);
    }
}

#[test]
fn single_threaded_try_outcomes_are_exact() {
    // The contract allows spurious failure only under concurrent
    // modification; single-threaded, `None` iff a conflicting range is held.
    for spec in registry::all() {
        let lock = spec.build(WaitPolicyKind::SpinThenYield, &RegistryConfig::default());
        assert!(
            lock.try_write(Range::new(0, 64)).is_some(),
            "{}: uncontended try_write must succeed",
            spec.name
        );
        assert!(
            lock.try_read(Range::new(0, 64)).is_some(),
            "{}: uncontended try_read must succeed",
            spec.name
        );
        let r = lock.read(Range::new(0, 64));
        assert_eq!(
            lock.try_read(Range::new(0, 64)).is_some(),
            spec.readers_share,
            "{}: reader sharing must match the variant",
            spec.name
        );
        assert!(lock.try_write(Range::new(0, 64)).is_none());
        drop(r);
    }
}
