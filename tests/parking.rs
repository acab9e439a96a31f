//! Lost-wakeup and wake-selectivity stress suite for the sharded,
//! address-keyed parking lot.
//!
//! Keyed parking has two failure modes:
//!
//! * **Lost wakeup** — a waiter registers under conflict key `K` but the
//!   release that resolves `K` misses its entry (the Dekker
//!   publish-then-check race), leaving it parked forever. Every storm here
//!   runs under a bounded-time join, so a wedge fails the test instead of
//!   hanging the suite.
//! * **Lost selectivity** — a wake under key `K` also wakes (or worse, only
//!   wakes) waiters under other keys. The disjoint-conflict test pins the
//!   headline property: releases of unrelated ranges leave a keyed parker
//!   parked with **zero** spurious wakeups, where a per-lock broadcast
//!   would herd it once per release.
//!
//! Storms cover all five registry variants under all three wait policies,
//! through both the sync face and the async face on a real [`TaskPool`].
//! Shard-collision exactness and async waker-slot migration
//! get deterministic tests of their own.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use range_locks_repro::range_lock::{Range, RwListRangeLock, TwoPhaseRwRangeLock};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_exec::TaskPool;
use range_locks_repro::rl_sync::stats::WaitStats;
use range_locks_repro::rl_sync::wait::{Block, WaitPolicyKind};
use range_locks_repro::rl_sync::WaitQueue;

/// Generous per-storm deadline: the work takes well under a second; only a
/// thread parked forever can exceed this.
const DEADLINE: Duration = Duration::from_secs(60);

const THREADS: usize = 4;
const ITERS: usize = 200;

const CONFIG: RegistryConfig = RegistryConfig {
    span: 256,
    segments: 32,
};

struct CountingWaker(AtomicU64);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn poll_once<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
    let mut cx = Context::from_waker(waker);
    Pin::new(fut).poll(&mut cx)
}

/// Runs `work` on its own thread and fails if it has not finished by the
/// deadline — the bounded join that turns a lost wakeup into a test failure
/// instead of a hung suite (the wedged thread leaks, which is fine for a
/// failing test).
fn run_bounded(label: String, work: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        work();
        let _ = tx.send(());
    });
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{label}: a waiter stayed parked past the deadline"));
    handle.join().unwrap();
}

/// Overlapping mixed-mode storm through the dynamic registry face.
fn storm_sync(label: String, lock: Box<dyn range_locks_repro::range_lock::DynRwRangeLock>) {
    let lock: Arc<_> = Arc::new(lock);
    run_bounded(label, move || {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for i in 0..ITERS {
                        // Segment-aligned (8 slots/segment at span 256 / 32
                        // segments) ranges overlapping the center, so
                        // parkers and releasers continuously interleave.
                        let start = ((t * 11 + i * 3) % 8) as u64 * 8;
                        let range = Range::new(start, start + 80);
                        if (t + i) % 3 == 0 {
                            drop(lock.write_dyn(range));
                        } else {
                            drop(lock.read_dyn(range));
                        }
                    }
                });
            }
        });
    });
}

#[test]
fn keyed_storm_every_variant_every_policy_sync() {
    for spec in registry::all() {
        for wait in WaitPolicyKind::ALL {
            storm_sync(
                format!("{}/{}/sync", spec.name, wait.name()),
                spec.build(wait, &CONFIG),
            );
        }
    }
}

#[test]
fn keyed_storm_every_variant_every_policy_async_on_task_pool() {
    // The async face: waiters suspend with *keyed waker slots* instead of
    // parked threads, and wakes must reach them through the shard table or
    // the pool's tasks never re-poll. Two workers over six tasks forces
    // genuine suspension even on a one-core box.
    for spec in registry::all() {
        for wait in WaitPolicyKind::ALL {
            let lock: Arc<_> = Arc::new(spec.build(wait, &CONFIG));
            run_bounded(format!("{}/{}/async", spec.name, wait.name()), move || {
                let pool = TaskPool::new(2);
                let handles: Vec<_> = (0..6usize)
                    .map(|t| {
                        let lock = Arc::clone(&lock);
                        pool.spawn(async move {
                            for i in 0..60u64 {
                                let start = ((t as u64 * 13 + i * 5) % 8) * 8;
                                let range = Range::new(start, start + 80);
                                if (t as u64 + i).is_multiple_of(3) {
                                    drop(lock.write_async(range).await);
                                } else {
                                    drop(lock.read_async(range).await);
                                }
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
            });
        }
    }
}

#[test]
fn releases_of_disjoint_conflicts_leave_a_keyed_parker_parked() {
    // The tentpole property, measured: a waiter parked on conflict key `A`
    // must sleep through any number of releases of unrelated ranges. A
    // per-lock broadcast would herd it awake on every release (one spurious
    // wakeup per release, O(parked waiters) in aggregate); under keyed
    // parking the spurious count stays exactly zero.
    let stats = Arc::new(WaitStats::new("selectivity"));
    let lock = Arc::new(RwListRangeLock::<Block>::with_policy().with_stats(Arc::clone(&stats)));
    let held = lock.write(Range::new(0, 64));

    let waiter = {
        let lock = Arc::clone(&lock);
        std::thread::spawn(move || drop(lock.write(Range::new(0, 64))))
    };
    // Wait until the waiter has genuinely parked (keyed on the held node).
    while stats.snapshot().parks == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Churn a disjoint range: every release wakes only its own node's key.
    for _ in 0..200 {
        drop(lock.write(Range::new(128, 192)));
    }
    let snap = stats.snapshot();
    assert_eq!(
        snap.spurious_wakeups, 0,
        "disjoint releases herded the keyed parker ({} spurious wakeups)",
        snap.spurious_wakeups
    );

    // The release of the *actual* conflict wakes it with the predicate
    // already true — still no spurious wakeup.
    drop(held);
    waiter.join().unwrap();
    assert_eq!(stats.snapshot().spurious_wakeups, 0);
    assert!(lock.is_quiescent());
}

#[test]
fn keyed_wakes_stay_exact_across_shard_collisions() {
    // 16 distinct keys over 8 shards guarantees collisions; a wake under
    // one key must signal exactly its own parker. Each parker's predicate
    // is its own flag, set before its wake — any bleed-through wakes a
    // parker whose flag is still false and shows up as a spurious wakeup.
    const KEYS: u64 = 16;
    let stats = Arc::new(WaitStats::new("shard-collision"));
    let mut queue = WaitQueue::new();
    queue.attach_stats(Arc::clone(&stats));
    let queue = Arc::new(queue);
    let flags: Arc<Vec<AtomicBool>> = Arc::new((0..KEYS).map(|_| AtomicBool::new(false)).collect());

    run_bounded("shard-collision".to_string(), move || {
        let mut parkers = Vec::new();
        for k in 0..KEYS {
            let queue = Arc::clone(&queue);
            let flags = Arc::clone(&flags);
            parkers.push(std::thread::spawn(move || {
                // Keys spread across (and colliding within) the 8 shards.
                let flagged = || flags[k as usize].load(Ordering::Acquire);
                queue.park(0x1000 + k * 7, flagged, None);
            }));
        }
        // Wake one key at a time, flag first (the publish-then-check
        // protocol makes the pre-registration race benign: a late parker
        // sees its flag before sleeping).
        for k in 0..KEYS {
            flags[k as usize].store(true, Ordering::Release);
            queue.wake_key(0x1000 + k * 7);
        }
        for p in parkers {
            p.join().unwrap();
        }
        assert_eq!(
            stats.snapshot().spurious_wakeups,
            0,
            "a keyed wake bled into a colliding key's parker"
        );
    });
}

#[test]
fn async_waker_slot_migrates_to_the_new_blocking_node() {
    // A suspended future's conflict is not stable: the node it keyed on
    // releases, the future re-polls, and now a *different* node blocks it.
    // The waker slot must move to the new key, or the second release wakes
    // nobody and the future suspends forever.
    let lock = RwListRangeLock::<Block>::with_policy();
    let held = lock.write(Range::new(0, 64));

    let w1 = Arc::new(CountingWaker(AtomicU64::new(0)));
    let w2 = Arc::new(CountingWaker(AtomicU64::new(0)));
    let waker1 = Waker::from(Arc::clone(&w1));
    let waker2 = Waker::from(Arc::clone(&w2));

    let mut fut1 = lock.write_async(Range::new(0, 64));
    let mut fut2 = lock.write_async(Range::new(0, 64));
    assert!(poll_once(&mut fut1, &waker1).is_pending());
    assert!(poll_once(&mut fut2, &waker2).is_pending());

    // Releasing the holder wakes the key both futures registered under.
    drop(held);
    assert!(w1.0.load(Ordering::SeqCst) >= 1, "fut1's waker never fired");
    assert!(w2.0.load(Ordering::SeqCst) >= 1, "fut2's waker never fired");

    // fut1 wins; fut2 re-suspends, now blocked on *fut1's* node — its waker
    // slot must migrate from the released node's key to the new one.
    let g1 = match poll_once(&mut fut1, &waker1) {
        Poll::Ready(g) => g,
        Poll::Pending => panic!("fut1 must acquire after the release"),
    };
    assert!(poll_once(&mut fut2, &waker2).is_pending());
    let woken_before = w2.0.load(Ordering::SeqCst);

    // Only the migrated slot can hear this release.
    drop(g1);
    assert!(
        w2.0.load(Ordering::SeqCst) > woken_before,
        "the release of the new blocker did not reach the migrated waker slot"
    );
    match poll_once(&mut fut2, &waker2) {
        Poll::Ready(g) => drop(g),
        Poll::Pending => panic!("fut2 must acquire after its blocker released"),
    }
    assert!(lock.is_quiescent());
}
