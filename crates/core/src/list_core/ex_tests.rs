//! Unit tests of the list lock in [`Exclusive`](crate::Exclusive) mode
//! (`list-ex`), formerly `mutex_list.rs`.

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use rl_sync::stats::WaitStats;
    use rl_sync::wait::{Block, Spin};

    use crate::list_core::tests::{
        exclusion_storm, fairness_smoke, join_within, trait_round_trip, BLOCKING,
    };
    use crate::{Exclusive, ListLockConfig, ListRangeLock, Range};

    #[test]
    fn disjoint_ranges_coexist() {
        let lock = ListRangeLock::new();
        let a = lock.write(Range::new(0, 10));
        let b = lock.write(Range::new(10, 20));
        let c = lock.write(Range::new(100, 200));
        assert_eq!(lock.held_ranges(), 3);
        drop(a);
        drop(b);
        drop(c);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn guard_reports_its_range() {
        let lock = ListRangeLock::new();
        let g = lock.write(Range::new(5, 25));
        assert_eq!(g.range(), Range::new(5, 25));
    }

    #[test]
    fn fast_path_round_trip() {
        let lock = ListRangeLock::new();
        for _ in 0..100 {
            drop(lock.write(Range::new(0, 64)));
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn fast_path_disabled_still_works() {
        let lock = ListRangeLock::with_config(ListLockConfig {
            fast_path: false,
            ..Default::default()
        });
        for _ in 0..100 {
            drop(lock.write(Range::new(0, 64)));
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn try_acquire_conflicts() {
        let lock = ListRangeLock::new();
        let _a = lock.write(Range::new(0, 10));
        assert!(lock.try_write(Range::new(5, 15)).is_none());
        assert!(lock.try_write(Range::new(10, 20)).is_some());
    }

    #[test]
    fn full_range_excludes_everything() {
        let lock = ListRangeLock::new();
        let g = lock.write_full();
        assert!(lock.try_write(Range::new(12345, 12346)).is_none());
        drop(g);
        assert!(lock.try_write(Range::new(12345, 12346)).is_some());
    }

    #[test]
    fn overlapping_ranges_are_mutually_exclusive() {
        exclusion_storm(ListRangeLock::new(), 8, 500, BLOCKING);
    }

    #[test]
    fn disjoint_ranges_run_concurrently() {
        // Partition the address space; each thread's slice never conflicts,
        // and a per-slice "owner" cell checks nobody else entered it.
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let lock = Arc::new(ListRangeLock::new());
        let owners: Arc<Vec<AtomicU64>> =
            Arc::new((0..THREADS).map(|_| AtomicU64::new(u64::MAX)).collect());
        let violations = Arc::new(AtomicU64::new(0));
        let handles = (0..THREADS)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let owners = Arc::clone(&owners);
                let violations = Arc::clone(&violations);
                std::thread::spawn(move || {
                    let slice = Range::new(t as u64 * 100, t as u64 * 100 + 100);
                    for _ in 0..ITERS {
                        let g = lock.write(slice);
                        let prev = owners[t].swap(t as u64, Ordering::SeqCst);
                        if prev != u64::MAX {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        owners[t].store(u64::MAX, Ordering::SeqCst);
                        drop(g);
                    }
                })
            })
            .collect();
        join_within(handles);
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn fairness_configuration_is_functional() {
        fairness_smoke::<Exclusive>();
    }

    #[test]
    fn stats_sink_receives_acquisitions() {
        let stats = Arc::new(WaitStats::new("list-ex"));
        let lock = ListRangeLock::new().with_stats(Arc::clone(&stats));
        for _ in 0..10 {
            drop(lock.write(Range::new(0, 10)));
        }
        assert!(stats.snapshot().acquisitions >= 10);
    }

    #[test]
    fn drop_with_outstanding_marked_nodes_is_clean() {
        // Acquire and release many disjoint ranges without ever triggering a
        // traversal that unlinks them, then drop the lock: Drop must free the
        // whole chain without leaking or double-freeing (exercised under the
        // test allocator and, in CI, under Miri-like assertions).
        let lock = ListRangeLock::with_config(ListLockConfig {
            fast_path: false,
            ..Default::default()
        });
        let guards: Vec<_> = (0..16)
            .map(|i| lock.write(Range::new(i * 10, i * 10 + 10)))
            .collect();
        drop(guards);
        drop(lock);
    }

    #[test]
    fn every_wait_policy_provides_exclusion() {
        exclusion_storm(ListRangeLock::<Spin>::with_policy(), 4, 300, BLOCKING);
        exclusion_storm(ListRangeLock::<Block>::with_policy(), 4, 300, BLOCKING);
    }

    #[test]
    fn blocked_waiter_parks_and_is_woken() {
        // Deterministic parking: hold an overlapping range until the waiter
        // has demonstrably parked (stats mirror the queue counters), then
        // release and expect it to finish.
        let stats = Arc::new(WaitStats::new("list-ex-block"));
        let lock = Arc::new(ListRangeLock::<Block>::with_policy().with_stats(Arc::clone(&stats)));
        let held = lock.write(Range::new(0, 100));
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                drop(lock.write(Range::new(50, 150)));
            })
        };
        while stats.snapshot().parks == 0 {
            std::thread::yield_now();
        }
        drop(held);
        join_within(vec![waiter]);
        let snap = stats.snapshot();
        assert!(snap.parks >= 1);
        assert!(snap.wakes >= 1);
    }

    #[test]
    fn trait_object_usage_via_generics() {
        trait_round_trip::<Exclusive>("list-ex");
    }
}
