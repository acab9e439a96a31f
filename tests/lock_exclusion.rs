//! Cross-crate integration tests: every range-lock implementation in the
//! workspace must provide the same exclusion guarantees, checked through the
//! shared `RwRangeLock` trait — and, for the full variant
//! matrix, through the dynamic registry (`rl_baselines::registry`), so the
//! object-safe `DynRwRangeLock` path is exercised by the same storms.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use range_locks_repro::range_lock::{ListRangeLock, Range, RwListRangeLock, RwRangeLock};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_baselines::TreeRangeLock;
use range_locks_repro::rl_sync::wait::WaitPolicyKind;

/// Hammers a lock with overlapping *writer* ranges from many threads and
/// checks that two critical sections never overlap (the exclusive locks are
/// driven writer-only through the one trait family).
fn check_exclusive<L: RwRangeLock + 'static>(lock: L) {
    const THREADS: usize = 6;
    const ITERS: usize = 400;
    let lock = Arc::new(lock);
    let inside = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let lock = Arc::clone(&lock);
        let inside = Arc::clone(&inside);
        let violations = Arc::clone(&violations);
        handles.push(std::thread::spawn(move || {
            for i in 0..ITERS {
                let start = ((t + i) % 7) as u64 * 10;
                let guard = lock.write(Range::new(start, start + 80));
                if inside.swap(true, Ordering::SeqCst) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                std::hint::black_box(&guard);
                inside.store(false, Ordering::SeqCst);
                drop(guard);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(violations.load(Ordering::SeqCst), 0);
}

/// Hammers a reader-writer lock with overlapping ranges and checks the
/// reader/writer exclusion matrix. (For the exclusive locks behind the same
/// interface the checks still hold one-sidedly: their "readers" serialize.)
fn check_rw<L: RwRangeLock + 'static>(label: &str, lock: L) {
    const THREADS: usize = 6;
    const ITERS: usize = 400;
    let lock = Arc::new(lock);
    let readers = Arc::new(AtomicI64::new(0));
    let writers = Arc::new(AtomicI64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let lock = Arc::clone(&lock);
        let readers = Arc::clone(&readers);
        let writers = Arc::clone(&writers);
        let violations = Arc::clone(&violations);
        handles.push(std::thread::spawn(move || {
            for i in 0..ITERS {
                let start = ((t * 3 + i) % 7) as u64 * 10;
                let range = Range::new(start, start + 80);
                if (t + i) % 3 == 0 {
                    let guard = lock.write(range);
                    writers.fetch_add(1, Ordering::SeqCst);
                    if writers.load(Ordering::SeqCst) != 1 || readers.load(Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    writers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                } else {
                    let guard = lock.read(range);
                    readers.fetch_add(1, Ordering::SeqCst);
                    if writers.load(Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    readers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(violations.load(Ordering::SeqCst), 0, "under {label}");
}

#[test]
fn static_list_exclusive_lock_provides_mutual_exclusion() {
    // One statically typed instantiation pins the generic (non-dyn) path.
    check_exclusive(ListRangeLock::new());
}

#[test]
fn static_tree_exclusive_lock_provides_mutual_exclusion() {
    check_exclusive(TreeRangeLock::new());
}

#[test]
fn static_list_rw_lock_provides_reader_writer_exclusion() {
    check_rw("list-rw/static", RwListRangeLock::new());
}

#[test]
fn every_registry_variant_provides_exclusion_under_every_wait_policy() {
    // The full matrix — 5 paper variants x 3 wait policies — through the
    // dynamic registry: each storm drives a `Box<dyn DynRwRangeLock>` via its
    // blanket `RwRangeLock` impl, so exclusion is verified end to end through
    // the same dynamic-dispatch path the benchmark harness uses.
    let config = RegistryConfig {
        span: 256,
        segments: 32,
    };
    for spec in registry::all() {
        for wait in WaitPolicyKind::ALL {
            check_rw(
                &format!("{}/{}", spec.name, wait.name()),
                spec.build(wait, &config),
            );
        }
    }
}

#[test]
fn disjoint_writers_scale_without_blocking() {
    // Eight writers on fully disjoint ranges must all hold their guards at
    // the same time.
    let lock = Arc::new(RwListRangeLock::new());
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let peak = Arc::new(AtomicI64::new(0));
    let current = Arc::new(AtomicI64::new(0));
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let lock = Arc::clone(&lock);
        let barrier = Arc::clone(&barrier);
        let peak = Arc::clone(&peak);
        let current = Arc::clone(&current);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let guard = lock.write(Range::new(t * 100, t * 100 + 100));
            let now = current.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            // Hold the guard long enough for everyone to arrive.
            std::thread::sleep(std::time::Duration::from_millis(50));
            current.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        peak.load(Ordering::SeqCst),
        8,
        "disjoint writers should have overlapped"
    );
}

#[test]
fn full_range_acquisition_drains_all_holders() {
    let lock = Arc::new(RwListRangeLock::new());
    let holders: Vec<_> = (0..4u64)
        .map(|i| lock.write(Range::new(i * 10, i * 10 + 10)))
        .collect();
    let l2 = Arc::clone(&lock);
    let full = std::thread::spawn(move || {
        let _g = l2.write_full();
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert!(
        !full.is_finished(),
        "full-range writer must wait for every holder"
    );
    drop(holders);
    full.join().unwrap();
}
