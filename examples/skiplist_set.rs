//! A concurrent ordered set built on range locks (Section 6).
//!
//! Run with `cargo run --example skiplist_set --release`.
//!
//! Compares the original optimistic skip list (one spin lock per node) with
//! the range-lock-based skip list under the paper's 80% find / 20% update
//! workload, and verifies that both behave as a set.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use range_lock::ListRangeLock;
use rl_skiplist::{DynRangeSkipList, OptimisticSkipList, RangeSkipList};
use rl_sync::wait::WaitPolicyKind;

const KEY_RANGE: u64 = 1 << 16;
const PREFILL: u64 = 1 << 15;
const RUN_FOR: Duration = Duration::from_millis(500);

fn workload<S, I, R, C>(name: &str, set: Arc<S>, insert: I, remove: R, contains: C, threads: usize)
where
    S: Send + Sync + 'static,
    I: Fn(&S, u64) -> bool + Send + Copy + 'static,
    R: Fn(&S, u64) -> bool + Send + Copy + 'static,
    C: Fn(&S, u64) -> bool + Send + Copy + 'static,
{
    // Pre-fill with even keys.
    for k in 1..=PREFILL {
        insert(&set, k * 2);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let set = Arc::clone(&set);
        let stop = Arc::clone(&stop);
        let ops = Arc::clone(&ops);
        handles.push(std::thread::spawn(move || {
            let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = state % KEY_RANGE + 1;
                match state % 10 {
                    0 => {
                        insert(&set, key);
                    }
                    1 => {
                        remove(&set, key);
                    }
                    _ => {
                        contains(&set, key);
                    }
                }
                local += 1;
            }
            ops.fetch_add(local, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(RUN_FOR);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = started.elapsed();
    println!(
        "{name:>12}: {:.0} ops/s over {threads} threads",
        ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
    );
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(4);
    println!("skip-list set comparison: 80% find / 10% insert / 10% remove, {KEY_RANGE} keys\n");

    workload(
        "orig",
        Arc::new(OptimisticSkipList::new()),
        |s, k| s.insert(k),
        |s, k| s.remove(k),
        |s, k| s.contains(k),
        threads,
    );
    workload(
        "range-list",
        Arc::new(RangeSkipList::with_lock(ListRangeLock::new())),
        |s, k| s.insert(k),
        |s, k| s.remove(k),
        |s, k| s.contains(k),
        threads,
    );
    // The same set over a registry-chosen lock: any of the five paper
    // variants under any wait policy is a runtime choice.
    workload(
        "list-rw+block",
        Arc::new(
            DynRangeSkipList::from_registry("list-rw", WaitPolicyKind::Block)
                .expect("registry variant exists"),
        ),
        |s, k| s.insert(k),
        |s, k| s.remove(k),
        |s, k| s.contains(k),
        threads,
    );

    // Quick correctness cross-check of the range-locked variant.
    let set = RangeSkipList::with_lock(ListRangeLock::new());
    assert!(set.insert(10));
    assert!(!set.insert(10));
    assert!(set.contains(10));
    assert!(set.remove(10));
    assert!(!set.contains(10));
    println!("\nset semantics verified; see `repro -- fig4` for the full Figure 4 sweep");
}
