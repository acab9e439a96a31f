//! Cancellation-safety and exclusion suite for the async range-lock API.
//!
//! The dangerous part of a cancellable acquisition protocol is the cancel:
//! a dropped acquisition future must unlink whatever it had already published,
//! wake the waiters behind it, and leave *nothing* — no node, no tree
//! entry, no segment hold, no waker registration — or later acquisitions
//! wedge forever. These tests storm exactly that path for all five registry
//! variants and the `stock` semaphore, through statically typed locks and
//! registry-built boxed ones alike (one generic future type serves both),
//! and verify the absence of residue
//! two ways: the wait-stats counters (waker registrations and cancels must
//! both be non-zero — the async path must not read zero like the pre-fix
//! counters would) and a follow-up *full-range* exclusive acquisition,
//! which any leaked hold would block.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use range_locks_repro::range_lock::{
    DynRwRangeLock, ListRangeLock, Range, RwListRangeLock, TwoPhaseRwRangeLock,
};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_exec::{block_on, TaskPool};
use range_locks_repro::rl_sync::stats::WaitStats;
use range_locks_repro::rl_sync::wait::WaitPolicyKind;

/// Registry configuration small enough that random ranges collide often.
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

fn counting_waker() -> Waker {
    Waker::from(Arc::new(CountingWaker(AtomicU64::new(0))))
}

fn poll_once<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
    let mut cx = Context::from_waker(waker);
    Pin::new(fut).poll(&mut cx)
}

/// Polls `fut` into the suspended state (twice, so the waker re-registers)
/// and abandons it mid-wait; a future that resolves just drops its guard.
/// Returns whether it suspended.
fn poll_then_cancel<F: Future + Unpin>(mut fut: F, waker: &Waker) -> bool {
    if poll_once(&mut fut, waker).is_ready() {
        return false;
    }
    let _ = poll_once(&mut fut, waker);
    true
}

/// Every registry variant plus the `stock` whole-space semaphore, which
/// carries the same two-phase tier and must survive the same storms.
fn all_locks(wait: WaitPolicyKind) -> Vec<(&'static str, Box<dyn DynRwRangeLock>)> {
    let mut locks: Vec<_> = registry::all()
        .iter()
        .map(|spec| (spec.name, spec.build(wait, &CONFIG)))
        .collect();
    locks.push(("stock", registry::build_stock(wait, None)));
    locks
}

/// Tiny deterministic rng (xorshift), one per thread.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn cancellation_storm_all_variants_dyn() {
    // One holder thread churns a center range through the *sync* face of
    // the lock while canceller threads create conflicting write futures,
    // poll them into the suspended state, and drop them mid-wait.
    for wait in [WaitPolicyKind::SpinThenYield, WaitPolicyKind::Block] {
        for (name, lock) in all_locks(wait) {
            let stop = AtomicBool::new(false);
            // Set by the holder's first acquisition: the cancellers' 1 200
            // bounded polls can otherwise finish before the holder thread is
            // first scheduled, and the storm would storm nothing.
            let holding = AtomicBool::new(false);
            std::thread::scope(|s| {
                let holder = s.spawn(|| {
                    let mut held = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        // Segment-aligned center range (8 slots/segment) so
                        // pnova-rw conflicts are honest, not false sharing.
                        let g = lock.write_dyn(Range::new(96, 160));
                        held += 1;
                        holding.store(true, Ordering::Release);
                        std::hint::black_box(&g);
                        drop(g);
                    }
                    held
                });
                let mut cancellers = Vec::new();
                for t in 0..3usize {
                    let (lock, holding) = (&lock, &holding);
                    cancellers.push(s.spawn(move || {
                        while !holding.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        let waker = counting_waker();
                        let mut rng = 0x9e3779b97f4a7c15u64.wrapping_add(t as u64);
                        let mut suspended = 0u64;
                        for i in 0..400u64 {
                            let start = 64 + (xorshift(&mut rng) % 16) * 8;
                            let range = Range::new(start, start + 64);
                            suspended += u64::from(if i % 3 == 0 {
                                poll_then_cancel(lock.read_async(range), &waker)
                            } else {
                                poll_then_cancel(lock.write_async(range), &waker)
                            });
                        }
                        suspended
                    }));
                }
                let suspended: u64 = cancellers.into_iter().map(|c| c.join().unwrap()).sum();
                stop.store(true, Ordering::Release);
                let held = holder.join().unwrap();
                assert!(held > 0, "{name}: holder made no progress");
                // On a contended 1-core box some futures must have suspended;
                // if none did the storm was vacuous (still correct, but note
                // it via the follow-up check only).
                std::hint::black_box(suspended);
            });
            // No residue: the full range is immediately acquirable through
            // both faces of the lock.
            let g = lock
                .try_write_dyn(Range::new(0, 256))
                .unwrap_or_else(|| panic!("{name}: cancelled futures left residue"));
            drop(g);
            let waker = counting_waker();
            let mut fut = lock.write_async(Range::new(0, 256));
            match poll_once(&mut fut, &waker) {
                Poll::Ready(g) => drop(g),
                Poll::Pending => panic!("{name}: async full-range acquire blocked"),
            };
        }
    }
}

#[test]
fn cancellation_storm_generic_api_counts_wakers_and_cancels() {
    // The statically typed list locks with attached stats: the uniform
    // accounting satellite — waker registrations and cancels must be
    // counted (they would silently read zero before), and the lock must be
    // quiescent afterwards.
    let stats = Arc::new(WaitStats::new("async-storm"));
    let lock = Arc::new(RwListRangeLock::new().with_stats(Arc::clone(&stats)));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let holder = {
            let lock = Arc::clone(&lock);
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let g = lock.write(Range::new(50, 150));
                    // Hold for a real window so cancellers (time-sliced on a
                    // small box) actually observe the conflict and suspend.
                    for _ in 0..2_000 {
                        std::hint::spin_loop();
                    }
                    drop(g);
                }
            })
        };
        let mut cancellers = Vec::new();
        for t in 0..3usize {
            let lock = Arc::clone(&lock);
            cancellers.push(s.spawn(move || {
                let waker = counting_waker();
                let mut rng = 0xdeadbeefu64.wrapping_add(t as u64);
                for i in 0..500u64 {
                    let start = xorshift(&mut rng) % 100;
                    let range = Range::new(start, start + 100);
                    let mut read_fut;
                    let mut write_fut;
                    let poll = if i % 2 == 0 {
                        read_fut = lock.read_async(range);
                        poll_once(&mut read_fut, &waker).map(drop)
                    } else {
                        write_fut = lock.write_async(range);
                        poll_once(&mut write_fut, &waker).map(drop)
                    };
                    // Ready guards drop here; pending futures drop (cancel)
                    // at the end of the iteration.
                    let _ = std::hint::black_box(poll);
                }
            }));
        }
        for c in cancellers {
            c.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        holder.join().unwrap();
    });
    // No leaked nodes: quiescent and fully acquirable.
    assert!(lock.is_quiescent());
    drop(lock.try_write(Range::FULL).expect("no residue"));

    // Deterministic accounting epilogue (the storm's suspension count is
    // timing-dependent on a small box): one guaranteed suspension + cancel
    // in each mode must show up in the counters.
    let before = stats.snapshot();
    let held = lock.write(Range::new(0, 100));
    let waker = counting_waker();
    let mut rf = lock.read_async(Range::new(50, 150));
    assert!(poll_once(&mut rf, &waker).is_pending());
    drop(rf);
    let mut wf = lock.write_async(Range::new(50, 150));
    assert!(poll_once(&mut wf, &waker).is_pending());
    drop(wf);
    drop(held);
    let snap = stats.snapshot();
    assert!(
        snap.waker_registrations >= before.waker_registrations + 2,
        "suspensions were not counted"
    );
    assert!(
        snap.cancels >= before.cancels + 2,
        "cancellations were not counted"
    );
    assert!(lock.is_quiescent());

    // Same check for the exclusive lock.
    let ex_stats = Arc::new(WaitStats::new("async-storm-ex"));
    let ex = ListRangeLock::new().with_stats(Arc::clone(&ex_stats));
    let held = ex.write(Range::new(0, 100));
    let waker = counting_waker();
    let mut fut = ex.write_async(Range::new(50, 150));
    assert!(poll_once(&mut fut, &waker).is_pending());
    drop(fut);
    drop(held);
    let snap = ex_stats.snapshot();
    assert!(snap.waker_registrations >= 1);
    assert_eq!(snap.cancels, 1);
    assert!(ex.is_quiescent());
}

#[test]
fn async_exclusion_holds_on_a_task_pool() {
    // M tasks ≫ N workers hammer overlapping ranges through the async API;
    // writer exclusion and reader sharing must hold exactly as in the sync
    // storms. (No awaits inside the critical section, so the counters
    // observe real exclusion windows.)
    for spec in registry::all() {
        let lock: Arc<_> = Arc::new(spec.build(WaitPolicyKind::Block, &CONFIG));
        let pool = TaskPool::new(2);
        let readers_inside = Arc::new(AtomicI64::new(0));
        let writer_inside = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let readers_inside = Arc::clone(&readers_inside);
                let writer_inside = Arc::clone(&writer_inside);
                let violations = Arc::clone(&violations);
                pool.spawn(async move {
                    let mut rng = 0xabcdef12u64.wrapping_add(t as u64);
                    for i in 0..100u64 {
                        // All ranges overlap the center; segment-aligned.
                        let start = 64 + (xorshift(&mut rng) % 8) * 8;
                        let range = Range::new(start, start + 128);
                        if (t as u64 + i).is_multiple_of(3) {
                            let g = lock.write_async(range).await;
                            writer_inside.fetch_add(1, Ordering::SeqCst);
                            if writer_inside.load(Ordering::SeqCst) != 1
                                || readers_inside.load(Ordering::SeqCst) != 0
                            {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            writer_inside.fetch_sub(1, Ordering::SeqCst);
                            drop(g);
                        } else {
                            let g = lock.read_async(range).await;
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
        for h in handles {
            h.join();
        }
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "{}: async exclusion violated",
            spec.name
        );
        assert!(lock.try_write_dyn(Range::new(0, 256)).is_some());
    }
}

#[test]
fn block_on_bridges_the_generic_async_api() {
    // The sync→async bridge end to end, with contention resolved by a real
    // release from another thread.
    let lock = Arc::new(RwListRangeLock::new());
    let held = lock.write(Range::new(0, 100));
    let waiter = {
        let lock = Arc::clone(&lock);
        std::thread::spawn(move || {
            block_on(async {
                let g = lock.write_async(Range::new(50, 150)).await;
                g.range()
            })
        })
    };
    // Let the waiter suspend, then release.
    std::thread::sleep(std::time::Duration::from_millis(20));
    drop(held);
    assert_eq!(waiter.join().unwrap(), Range::new(50, 150));
    assert!(lock.is_quiescent());
}

#[test]
fn dropping_a_pool_cancels_suspended_acquisitions() {
    // Tasks suspended on a lock when their pool dies must cancel (via the
    // future drops) *at pool drop*, not at some later wake — and must not
    // leak their pending nodes.
    let stats = Arc::new(WaitStats::new("pool-drop"));
    let lock = Arc::new(RwListRangeLock::new().with_stats(Arc::clone(&stats)));
    let held = lock.write(Range::new(0, 256));
    {
        let pool = TaskPool::new(1);
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            // Handles dropped immediately: detached tasks.
            drop(pool.spawn(async move {
                let g = lock.write_async(Range::new(0, 256)).await;
                drop(g);
            }));
        }
        // Give the worker time to poll the tasks into the suspended state.
        std::thread::sleep(std::time::Duration::from_millis(30));
        // Pool drop: workers stop, queued AND suspended tasks drop,
        // futures cancel.
    }
    // The conflict is still held, so no wake has happened yet: the cancels
    // below prove the pool drop itself ran the cleanup.
    assert!(
        stats.snapshot().cancels >= 1,
        "pool drop deferred the cancellations"
    );
    drop(held);
    assert!(lock.is_quiescent());
    drop(
        lock.try_write(Range::FULL)
            .expect("no residue from dead pool"),
    );
}
