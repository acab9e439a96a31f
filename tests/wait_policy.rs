//! Lost-wakeup stress suite for the `Block` wait policy.
//!
//! Threads repeatedly acquire *overlapping* ranges under the parking policy
//! while holders release concurrently, so parks race releases from every
//! direction. A lost wakeup would leave a thread parked forever; each storm
//! therefore runs under a bounded-time join — if any worker is still parked
//! after the deadline, the test fails instead of hanging the suite.
//!
//! Every lock variant of the paper is exercised through the dynamic registry
//! (`rl_baselines::registry`, built under the `Block` policy), plus a
//! statically typed list-lock storm, the `RwSemaphore` and the `LockTable`
//! fcntl composition over a blocking list lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use range_locks_repro::range_lock::{ListRangeLock, Range, RwListRangeLock, RwRangeLock};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_file::{LockMode, LockTable};
use range_locks_repro::rl_sync::stats::WaitStats;
use range_locks_repro::rl_sync::wait::{Block, WaitPolicyKind};
use range_locks_repro::rl_sync::RwSemaphore;

/// Generous per-storm deadline: the work itself takes well under a second;
/// only a thread parked forever can exceed this.
const DEADLINE: Duration = Duration::from_secs(60);

const THREADS: usize = 4;
const ITERS: usize = 400;

/// Runs `spawn_worker(t)` for every thread id and fails the test if any
/// worker has not finished by the deadline (i.e. stayed parked).
fn join_bounded<F>(label: &str, spawn_worker: F)
where
    F: Fn(usize) -> Box<dyn FnOnce() + Send>,
{
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let tx = tx.clone();
        let work = spawn_worker(t);
        handles.push(std::thread::spawn(move || {
            work();
            tx.send(t).expect("main stopped listening");
        }));
    }
    drop(tx);
    for _ in 0..THREADS {
        rx.recv_timeout(DEADLINE).unwrap_or_else(|_| {
            panic!("{label}: a worker stayed parked past the deadline (lost wakeup)")
        });
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Overlapping-range, writer-only storm (how the exclusive locks are driven
/// through the one trait family).
fn storm_exclusive<L>(label: &'static str, lock: L)
where
    L: RwRangeLock + 'static,
{
    let lock = Arc::new(lock);
    join_bounded(label, |t| {
        let lock = Arc::clone(&lock);
        Box::new(move || {
            for i in 0..ITERS {
                // Every range overlaps the centre, so parkers and releasers
                // continuously interleave.
                let start = ((t * 7 + i) % 8) as u64 * 8;
                let guard = lock.write(Range::new(start, start + 80));
                std::hint::black_box(&guard);
                drop(guard);
            }
        })
    });
}

/// Overlapping-range storm over a reader-writer lock (mixed modes).
fn storm_rw<L>(label: String, lock: L)
where
    L: RwRangeLock + 'static,
{
    let label: &str = &label;
    let lock = Arc::new(lock);
    join_bounded(label, |t| {
        let lock = Arc::clone(&lock);
        Box::new(move || {
            for i in 0..ITERS {
                let start = ((t * 11 + i * 3) % 8) as u64 * 8;
                let range = Range::new(start, start + 80);
                if (t + i) % 3 == 0 {
                    drop(lock.write(range));
                } else {
                    drop(lock.read(range));
                }
            }
        })
    });
}

#[test]
fn static_list_ex_block_policy_never_loses_a_wakeup() {
    // Statically typed storm pinning the generic (non-dyn) parking path.
    storm_exclusive("list-ex/block", ListRangeLock::<Block>::with_policy());
}

#[test]
fn static_list_rw_block_policy_never_loses_a_wakeup() {
    storm_rw(
        "list-rw/block/static".to_string(),
        RwListRangeLock::<Block>::with_policy(),
    );
}

#[test]
fn every_registry_variant_under_block_never_loses_a_wakeup() {
    // All five paper variants, built under the parking policy through the
    // dynamic registry and stormed via dynamic dispatch.
    let config = RegistryConfig {
        span: 256,
        segments: 32,
    };
    for spec in registry::all() {
        storm_rw(
            format!("{}/block/registry", spec.name),
            spec.build(WaitPolicyKind::Block, &config),
        );
    }
}

#[test]
fn block_policy_timeouts_park_expire_and_recover() {
    // The timed acquisition API over the parking policy: a blocked
    // `write_timeout` must actually *park* (not spin) until its deadline,
    // expire as a counted cancel with no residue, and succeed normally once
    // the conflict is gone.
    use range_locks_repro::rl_sync::stats::WaitStats;

    let stats = Arc::new(WaitStats::new("timeout-block"));
    let lock = Arc::new(ListRangeLock::<Block>::with_policy().with_stats(Arc::clone(&stats)));
    let held = lock.write(Range::new(0, 100));
    let t0 = std::time::Instant::now();
    assert!(lock
        .write_timeout(Range::new(50, 150), Duration::from_millis(40))
        .is_none());
    assert!(t0.elapsed() >= Duration::from_millis(40));
    let snap = stats.snapshot();
    assert!(snap.parks >= 1, "the timed waiter spun instead of parking");
    assert_eq!(snap.cancels, 1);
    drop(held);
    drop(
        lock.write_timeout(Range::new(50, 150), Duration::from_secs(10))
            .expect("conflict gone: timed acquire succeeds"),
    );
    assert!(lock.is_quiescent());

    // A timed waiter woken *before* the deadline completes early.
    let held = lock.write(Range::new(0, 100));
    let waiter = {
        let lock = Arc::clone(&lock);
        std::thread::spawn(move || {
            lock.write_timeout(Range::new(50, 150), Duration::from_secs(60))
                .is_some()
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    drop(held);
    assert!(waiter.join().unwrap(), "wake before deadline must succeed");

    // The reader-writer trait surface under `Block`.
    let rw = RwListRangeLock::<Block>::with_policy();
    let w = rw.write(Range::new(0, 100));
    assert!(rw
        .read_timeout(Range::new(50, 150), Duration::from_millis(20))
        .is_none());
    assert!(rw
        .write_timeout(Range::new(50, 150), Duration::from_millis(20))
        .is_none());
    drop(w);
    drop(rw.read_timeout(Range::new(50, 150), Duration::from_millis(500)));
    assert!(rw.is_quiescent());
}

#[test]
fn baseline_timed_waiters_are_woken_by_releases_not_deadlines() {
    // Regression: the tree and segment locks' release hooks must wake
    // deadline-parked timed waiters (an earlier design woke only registered
    // async wakers, so a Block-policy `write_timeout` slept its entire
    // deadline even after the conflict cleared).
    use range_locks_repro::range_lock::TwoPhaseRwRangeLock;
    use range_locks_repro::rl_baselines::{RwTreeRangeLock, SegmentRangeLock};

    fn woken_early<L: TwoPhaseRwRangeLock + 'static>(lock: Arc<L>, label: &str)
    where
        for<'a> L::WriteGuard<'a>: Send,
    {
        let held = lock.write(Range::new(0, 64));
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                let g = lock.write_timeout(Range::new(0, 64), Duration::from_secs(60));
                (g.is_some(), t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        let (acquired, waited) = waiter.join().unwrap();
        assert!(acquired, "{label}: timed waiter must acquire after release");
        assert!(
            waited < Duration::from_secs(30),
            "{label}: timed waiter slept toward its deadline instead of \
             being woken by the release (waited {waited:?})"
        );
    }

    woken_early(
        Arc::new(RwTreeRangeLock::<Block>::with_policy()),
        "kernel-rw",
    );
    woken_early(
        Arc::new(SegmentRangeLock::<Block>::with_policy(256, 32)),
        "pnova-rw",
    );
}

#[test]
fn rwsem_block_policy_never_loses_a_wakeup() {
    let sem = Arc::new(RwSemaphore::<Block>::with_policy());
    join_bounded("rwsem/block", |t| {
        let sem = Arc::clone(&sem);
        Box::new(move || {
            for i in 0..ITERS {
                if (t + i) % 3 == 0 {
                    drop(sem.write());
                } else {
                    drop(sem.read());
                }
            }
        })
    });
}

#[test]
fn lock_table_block_policy_never_loses_a_wakeup() {
    // Each worker is its own fcntl owner; overlapping lock/unlock cycles
    // drive the parking paths through split/merge re-acquisition, and the
    // final owner drop exercises the release-everything wake.
    let table = Arc::new(LockTable::new(RwListRangeLock::<Block>::with_policy()));
    let completed = Arc::new(AtomicU64::new(0));
    join_bounded("lock-table/block", |t| {
        let table = Arc::clone(&table);
        let completed = Arc::clone(&completed);
        Box::new(move || {
            let mut owner = table.owner(format!("o{t}"));
            for i in 0..ITERS / 4 {
                let start = ((t * 5 + i) % 8) as u64 * 8;
                let range = Range::new(start, start + 60);
                if (t + i) % 4 == 0 {
                    owner.lock(range, LockMode::Exclusive).unwrap();
                } else {
                    owner.lock(range, LockMode::Shared).unwrap();
                }
                owner.unlock(range);
            }
            completed.fetch_add(1, Ordering::SeqCst);
        })
    });
    assert_eq!(completed.load(Ordering::SeqCst), THREADS as u64);
    assert_eq!(table.held_records(), 0);
}

#[test]
fn blocked_table_owner_does_not_tax_the_running_owners_commits() {
    // Owner B blocks in `lock()` behind A's exclusive record and re-derives
    // its waits-for edges every millisecond from an any-key deadline wait
    // with an always-false predicate. Every `commit` of A broadcasts on the
    // lock's queue. A broadcast may cost A a real wake only when it claims
    // B's entry — a queue that counts B as a waiter for its whole residency
    // makes *every* commit that finds it there an effective wake (a mutex
    // and a syscall each: thousands here, against a handful of parks).
    const PAIRS: usize = 10_000;
    let stats = Arc::new(WaitStats::new("table"));
    let spec = registry::by_name("list-rw").expect("list-rw is registered");
    let table = Arc::new(LockTable::new(spec.build_with_stats(
        WaitPolicyKind::Block,
        &RegistryConfig::default(),
        Arc::clone(&stats),
        None,
    )));
    let contested = Range::new(0, 64);
    let disjoint = Range::new(1024, 1088);
    let mut a = table.owner("a");
    a.lock(contested, LockMode::Exclusive).unwrap();

    let (granted_tx, granted_rx) = mpsc::channel();
    let b = {
        let table = Arc::clone(&table);
        std::thread::spawn(move || {
            let mut b = table.owner("b");
            b.lock(contested, LockMode::Exclusive).unwrap();
            granted_tx.send(()).expect("main stopped listening");
            b.unlock(contested);
        })
    };
    while table.waiting_owners() == 0 || stats.snapshot().parks == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let started = Instant::now();
    for _ in 0..PAIRS {
        a.lock(disjoint, LockMode::Exclusive).unwrap();
        a.unlock(disjoint);
    }
    // One slack unit per 1 ms recheck round of B: a round's last
    // registration can be claimed by a commit in the instant before the
    // expired deadline withdraws it, a wake with no park to show for it.
    let slack = 16 + started.elapsed().as_millis() as u64;
    let snap = stats.snapshot();
    assert!(
        snap.wakes <= snap.parks + slack,
        "{PAIRS} lock/unlock pairs beside one parked owner cost {} effective wakes \
         for {} parks (slack {slack})",
        snap.wakes,
        snap.parks
    );

    a.unlock(contested);
    granted_rx
        .recv_timeout(DEADLINE)
        .expect("B stayed blocked after A unlocked (lost wakeup)");
    b.join().unwrap();
    assert_eq!(table.waiting_owners(), 0);
    assert_eq!(table.held_records(), 0);
}
