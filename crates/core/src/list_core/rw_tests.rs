//! Unit tests of the list lock in [`ReaderWriter`](crate::ReaderWriter) mode
//! (`list-rw`), formerly `rw_list.rs`.

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use rl_sync::wait::WaitPolicyKind::{Block, Spin};

    use crate::list_core::tests::{
        exclusion_storm, fairness_smoke, join_within, trait_round_trip, waiting, Driver, BLOCKING,
    };
    use crate::{LockMode, Range, ReaderWriter, RwListRangeLock, RwRangeLock};

    #[test]
    fn overlapping_readers_share() {
        let lock = RwListRangeLock::new();
        let r1 = lock.read(Range::new(0, 100));
        let r2 = lock.read(Range::new(50, 150));
        let r3 = lock.read(Range::new(0, 150));
        assert_eq!(lock.held_ranges(), 3);
        drop(r1);
        drop(r2);
        drop(r3);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn writer_excludes_overlapping_writer() {
        let lock = Arc::new(RwListRangeLock::new());
        let w = lock.write(Range::new(0, 100));
        let l2 = Arc::clone(&lock);
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            let _w2 = l2.write(Range::new(50, 150));
            started.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(w);
        let waited = handle.join().unwrap();
        assert!(waited >= Duration::from_millis(20));
    }

    #[test]
    fn disjoint_writers_coexist() {
        let lock = RwListRangeLock::new();
        let a = lock.write(Range::new(0, 10));
        let b = lock.write(Range::new(10, 20));
        let c = lock.write(Range::new(20, 30));
        assert_eq!(lock.held_ranges(), 3);
        drop(a);
        drop(b);
        drop(c);
    }

    #[test]
    fn guard_mode_is_reported() {
        let lock = RwListRangeLock::new();
        assert!(lock.read(Range::new(0, 1)).is_reader());
        assert!(!lock.write(Range::new(0, 1)).is_reader());
    }

    #[test]
    fn fast_path_read_then_write() {
        let lock = RwListRangeLock::new();
        for _ in 0..50 {
            drop(lock.read(Range::new(0, 10)));
            drop(lock.write(Range::new(0, 10)));
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_admits_readers_keeps_out_writers() {
        let lock = RwListRangeLock::new();
        let mut r = lock.write(Range::new(0, 100));
        assert!(lock.try_read(Range::new(50, 150)).is_none());
        assert!(r.downgrade());
        assert!(r.is_reader());
        assert_eq!(r.range(), Range::new(0, 100));
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(0, 100)).is_none());
        drop(r2);
        drop(r);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_of_read_guard_is_noop() {
        let lock = RwListRangeLock::new();
        let mut r = lock.read(Range::new(0, 10));
        assert!(r.downgrade());
        assert!(r.is_reader());
        drop(r);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_wakes_blocked_reader() {
        // A reader blocked on a held writer must proceed when the writer
        // downgrades (not only when it releases) — under the parking policy,
        // so a missing wake would park the reader past the deadline.
        let lock = Arc::new(waiting::<ReaderWriter>(Block));
        let mut w = lock.write(Range::new(0, 100));
        let l2 = Arc::clone(&lock);
        let reader = std::thread::spawn(move || {
            let r = l2.read(Range::new(50, 150));
            assert!(r.is_reader());
        });
        // Give the reader time to block on the writer node.
        std::thread::sleep(Duration::from_millis(20));
        assert!(w.downgrade());
        join_within(vec![reader]);
        drop(w);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn downgrade_through_the_trait_succeeds() {
        let lock = RwListRangeLock::new();
        let mut held = lock.acquire(Range::new(0, 10), LockMode::Exclusive);
        assert!(
            RwRangeLock::downgrade(&lock, &mut held),
            "list-rw supports downgrade"
        );
        assert!(held.is_reader());
        lock.release(held);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn reader_writer_exclusion_stress() {
        exclusion_storm(RwListRangeLock::new(), 8, 500, BLOCKING);
    }

    #[test]
    fn downgrade_stress_never_violates_exclusion() {
        // Writers downgrade mid-critical-section; from the downgrade on they
        // count as readers. Writer exclusivity before the downgrade and
        // reader/writer exclusion after it must both hold.
        const THREADS: usize = 6;
        const ITERS: usize = 300;
        let lock = Arc::new(RwListRangeLock::new());
        let readers_inside = Arc::new(AtomicI64::new(0));
        let writer_inside = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let handles = (0..THREADS)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let readers_inside = Arc::clone(&readers_inside);
                let writer_inside = Arc::clone(&writer_inside);
                let violations = Arc::clone(&violations);
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let start = ((t * 13 + i * 7) % 50) as u64 * 5;
                        let range = Range::new(start, start + 300);
                        if (t + i) % 3 == 0 {
                            let mut g = lock.write(range);
                            writer_inside.fetch_add(1, Ordering::SeqCst);
                            if writer_inside.load(Ordering::SeqCst) != 1
                                || readers_inside.load(Ordering::SeqCst) != 0
                            {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            // Downgrade while inside: we become a reader.
                            writer_inside.fetch_sub(1, Ordering::SeqCst);
                            readers_inside.fetch_add(1, Ordering::SeqCst);
                            assert!(g.downgrade());
                            if writer_inside.load(Ordering::SeqCst) != 0 {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            readers_inside.fetch_sub(1, Ordering::SeqCst);
                            drop(g);
                        } else {
                            let g = lock.read(range);
                            readers_inside.fetch_add(1, Ordering::SeqCst);
                            if writer_inside.load(Ordering::SeqCst) != 0 {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            readers_inside.fetch_sub(1, Ordering::SeqCst);
                            drop(g);
                        }
                    }
                })
            })
            .collect();
        join_within(handles);
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn full_range_writer_blocks_readers() {
        let lock = Arc::new(RwListRangeLock::new());
        let w = lock.write_full();
        let l2 = Arc::clone(&lock);
        let handle = std::thread::spawn(move || {
            let _r = l2.read(Range::new(1000, 2000));
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(w);
        join_within(vec![handle]);
    }

    #[test]
    fn figure_one_race_is_prevented() {
        // Reconstruction of the Figure 1 scenario: readers [1..10], [20..25],
        // [40..50] are in the list; a reader [15..45] and a writer [30..35]
        // arrive concurrently. Whatever the interleaving, the writer and the
        // new reader must never both hold their (overlapping) ranges.
        for _ in 0..200 {
            let lock = Arc::new(RwListRangeLock::new());
            let r1 = lock.read(Range::new(1, 10));
            let r2 = lock.read(Range::new(20, 25));
            let r3 = lock.read(Range::new(40, 50));
            let overlap = Arc::new(AtomicI64::new(0));
            let violations = Arc::new(AtomicU64::new(0));

            let lr = Arc::clone(&lock);
            let or = Arc::clone(&overlap);
            let vr = Arc::clone(&violations);
            let reader = std::thread::spawn(move || {
                let g = lr.read(Range::new(15, 45));
                let prev = or.fetch_add(1, Ordering::SeqCst);
                if prev < 0 {
                    vr.fetch_add(1, Ordering::SeqCst);
                }
                or.fetch_sub(1, Ordering::SeqCst);
                drop(g);
            });

            let lw = Arc::clone(&lock);
            let ow = Arc::clone(&overlap);
            let vw = Arc::clone(&violations);
            let writer = std::thread::spawn(move || {
                let g = lw.write(Range::new(30, 35));
                // Mark writer presence with a negative value.
                let prev = ow.fetch_sub(100, Ordering::SeqCst);
                if prev != 0 {
                    vw.fetch_add(1, Ordering::SeqCst);
                }
                ow.fetch_add(100, Ordering::SeqCst);
                drop(g);
            });

            drop(r1);
            drop(r2);
            drop(r3);
            join_within(vec![reader, writer]);
            assert_eq!(violations.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn reader_adjacent_to_held_writer_does_not_wait() {
        // Regression test: ranges are half-open, so a reader ending exactly
        // where a held writer starts is disjoint and must acquire
        // immediately (r_validate used to wait for the adjacent writer).
        let lock = RwListRangeLock::new();
        let w = lock.write(Range::new(185, 214));
        let r = lock.read(Range::new(166, 185));
        drop(r);
        let r2 = lock
            .try_read(Range::new(166, 185))
            .expect("adjacent reader");
        drop(r2);
        drop(w);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn try_read_try_write_respect_conflicts() {
        let lock = RwListRangeLock::new();
        // Empty lock: both modes succeed via the fast path.
        drop(lock.try_read(Range::new(0, 10)).expect("uncontended read"));
        drop(
            lock.try_write(Range::new(0, 10))
                .expect("uncontended write"),
        );

        // Readers share; writers are rejected while an overlapping reader or
        // writer is held, and succeed on disjoint ranges.
        let r = lock.read(Range::new(0, 100));
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(50, 150)).is_none());
        assert!(lock.try_write(Range::new(200, 300)).is_some());
        drop(r);
        drop(r2);

        let w = lock.write(Range::new(0, 100));
        assert!(lock.try_read(Range::new(50, 150)).is_none());
        assert!(lock.try_write(Range::new(50, 150)).is_none());
        drop(w);
        assert!(lock.try_write(Range::new(50, 150)).is_some());
        assert!(lock.is_quiescent());
    }

    #[test]
    fn try_acquire_stress_never_violates_exclusion() {
        exclusion_storm(RwListRangeLock::new(), 4, 400, &[Driver::Try]);
    }

    #[test]
    fn trait_interface_round_trip() {
        trait_round_trip::<ReaderWriter>("list-rw");
    }

    #[test]
    fn every_wait_policy_preserves_rw_exclusion() {
        exclusion_storm(waiting::<ReaderWriter>(Spin), 4, 300, BLOCKING);
        exclusion_storm(waiting::<ReaderWriter>(Block), 4, 300, BLOCKING);
    }

    #[test]
    fn fairness_enabled_variant_smoke() {
        fairness_smoke::<ReaderWriter>();
    }
}
