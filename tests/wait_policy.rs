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
//! fcntl composition over a blocking list lock. One more test checks the
//! other direction: that every variant, built under each policy, waits the
//! way that policy says — parks under `Block`, never under the spinning
//! ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use range_locks_repro::range_lock::{
    CompatMode, Exclusive, ListLock, ListLockConfig, Range, ReaderWriter, RwRangeLock,
    TwoPhaseRwRangeLock,
};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_file::{LockMode, LockTable};
use range_locks_repro::rl_sync::stats::WaitStats;
use range_locks_repro::rl_sync::wait::WaitPolicyKind::{self, Block};
use range_locks_repro::rl_sync::{RwSemGuard, RwSemaphore};

/// Generous per-storm deadline: the work itself takes well under a second;
/// only a thread parked forever can exceed this.
const DEADLINE: Duration = Duration::from_secs(60);

const THREADS: usize = 4;
const ITERS: usize = 400;

/// A default-configured list lock in mode `M` whose waiters park.
fn parking<M: CompatMode>() -> ListLock<M> {
    ListLock::with_config(ListLockConfig {
        wait: Block,
        ..ListLockConfig::default()
    })
}

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
    storm_exclusive("list-ex/block", parking::<Exclusive>());
}

#[test]
fn static_list_rw_block_policy_never_loses_a_wakeup() {
    storm_rw(
        "list-rw/block/static".to_string(),
        parking::<ReaderWriter>(),
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
            spec.build(Block, &config),
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
    let lock = Arc::new(parking::<Exclusive>().with_stats(Arc::clone(&stats)));
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
    let rw = parking::<ReaderWriter>();
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
    use range_locks_repro::rl_baselines::{RwTreeRangeLock, SegmentRangeLock};

    fn woken_early<L: TwoPhaseRwRangeLock + 'static>(lock: Arc<L>, label: &str) {
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
        Arc::new(RwTreeRangeLock::with_wait(Block, None)),
        "kernel-rw",
    );
    woken_early(
        Arc::new(SegmentRangeLock::with_wait(256, 32, Block)),
        "pnova-rw",
    );
}

#[test]
fn rwsem_block_policy_never_loses_a_wakeup() {
    let sem = Arc::new(RwSemaphore::with_wait(Block));
    join_bounded("rwsem/block", |t| {
        let sem = Arc::clone(&sem);
        Box::new(move || {
            for i in 0..ITERS {
                let mode = if (t + i) % 3 == 0 {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                drop(RwSemGuard::new(&sem, mode));
            }
        })
    });
}

#[test]
fn lock_table_block_policy_never_loses_a_wakeup() {
    // Each worker is its own fcntl owner; overlapping lock/unlock cycles
    // drive the parking paths through split/merge re-acquisition, and the
    // final owner drop exercises the release-everything wake.
    let table = Arc::new(LockTable::new(Box::new(parking::<ReaderWriter>())));
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
    // Owner B blocks in `lock()` behind A's exclusive record and re-polls
    // (re-deriving its waits-for edges) once per 1 ms recheck round. Every
    // `commit` of A broadcasts on the lock's queue, and every release wakes
    // it. Nothing can end B's round early, so no such wake may claim B:
    // B parks once per round, and A pays no effective wake (a mutex and a
    // syscall each) for sharing the lock with it. A round filed where the
    // wakes reach it turns nearly every commit into a wake and a re-park.
    const PAIRS: usize = 10_000;
    let stats = Arc::new(WaitStats::new("table"));
    let spec = registry::by_name("list-rw").expect("list-rw is registered");
    let table = Arc::new(LockTable::new(spec.build_with_stats(
        Block,
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
    let parked_by = Instant::now() + DEADLINE;
    while table.waiting_owners() == 0 || stats.snapshot().parks == 0 {
        assert!(Instant::now() < parked_by, "blocked owner B never parked");
        std::thread::sleep(Duration::from_millis(1));
    }

    let before = stats.snapshot();
    let started = Instant::now();
    for _ in 0..PAIRS {
        a.lock(disjoint, LockMode::Exclusive).unwrap();
        a.unlock(disjoint);
    }
    let elapsed_ms = started.elapsed().as_millis() as u64;
    let snap = stats.snapshot();
    // B's rounds: the one in progress, one per elapsed millisecond, and
    // slack for clock granularity; A never waits on a disjoint range.
    const SLACK: u64 = 16;
    let parks = snap.parks - before.parks;
    assert!(
        parks <= 1 + elapsed_ms + SLACK,
        "{PAIRS} lock/unlock pairs in {elapsed_ms} ms beside one blocked owner \
         cost it {parks} parks (one per round expected)"
    );
    assert!(
        snap.wakes <= SLACK,
        "{PAIRS} lock/unlock pairs beside one blocked owner cost {} effective wakes",
        snap.wakes
    );

    a.unlock(contested);
    granted_rx
        .recv_timeout(DEADLINE)
        .expect("B stayed blocked after A unlocked (lost wakeup)");
    b.join().unwrap();
    assert_eq!(table.waiting_owners(), 0);
    assert_eq!(table.held_records(), 0);
}

#[test]
fn every_variant_waits_the_way_its_kind_says() {
    // The kind a variant is built with must reach every queue it waits on:
    // the blocking path's (the list and tree locks' own queue, each segment's
    // semaphore, the stock semaphore) and the timed path's (the lock-level
    // queue). Under `Block` a writer blocked behind [0, 100) parks before
    // the holder lets go; under the spinning policies it never parks, though
    // the blocking one provably waited.
    type Build = Box<dyn Fn(WaitPolicyKind, Arc<WaitStats>) -> Box<dyn TwoPhaseRwRangeLock>>;
    let mut variants: Vec<(&str, Build)> = registry::all()
        .iter()
        .map(|spec| {
            let build: Build = Box::new(|wait, stats| {
                spec.build_with_stats(wait, &RegistryConfig::default(), stats, None)
            });
            (spec.name, build)
        })
        .collect();
    variants.push((
        "stock",
        Box::new(|wait, stats| registry::build_stock(wait, Some(stats))),
    ));
    for (name, build) in &variants {
        for wait in WaitPolicyKind::ALL {
            for timed in [false, true] {
                let how = if timed { "write_timeout" } else { "write" };
                let label = format!("{name}/{}/{how}", wait.name());
                let stats = Arc::new(WaitStats::new(label.clone()));
                let lock = Arc::new(build(wait, Arc::clone(&stats)));
                let held = lock.write(Range::new(0, 100));
                let (started_tx, started_rx) = mpsc::channel();
                let waiter = {
                    let lock = Arc::clone(&lock);
                    std::thread::spawn(move || {
                        let range = Range::new(50, 150);
                        started_tx.send(()).expect("main stopped listening");
                        if timed {
                            lock.write_timeout(range, DEADLINE).is_some()
                        } else {
                            drop(lock.write(range));
                            true
                        }
                    })
                };
                started_rx
                    .recv_timeout(DEADLINE)
                    .unwrap_or_else(|_| panic!("{label}: the writer never started"));
                if wait == Block {
                    let parked_by = Instant::now() + DEADLINE;
                    while stats.snapshot().parks == 0 {
                        assert!(
                            Instant::now() < parked_by,
                            "{label}: the blocked writer never parked"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                } else {
                    std::thread::sleep(Duration::from_millis(20));
                }
                drop(held);
                let joined_by = Instant::now() + DEADLINE;
                while !waiter.is_finished() {
                    assert!(Instant::now() < joined_by, "{label}: the writer hung");
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(waiter.join().unwrap(), "{label}: the writer timed out");
                let snap = stats.snapshot();
                if wait == Block {
                    assert!(snap.parks >= 1, "{label}");
                } else {
                    assert_eq!(snap.parks, 0, "{label}: a spinning waiter parked");
                    if !timed {
                        assert!(snap.write_waits >= 1, "{label}: the writer never waited");
                    }
                }
            }
        }
    }
}
