//! ParkBench — quantifies the sharded, address-keyed parking lot: what a
//! per-conflict wake saves over a per-lock broadcast.
//!
//! Two experiment families:
//!
//! * **Targeted-wake storm** (queue level, deterministic): `W` waiter
//!   threads park on one [`WaitQueue`], each under its own key; a releaser
//!   wakes exactly one of them per round and waits for it to run before the
//!   next round. The *broadcast* leg parks everyone under `KEY_ANY` and
//!   wakes with [`WaitQueue::wake_all`] — what a lock that cannot name its
//!   conflicts does — so every release herds all `W` waiters awake,
//!   `W - 1` of them spuriously. The *keyed* leg parks under per-waiter
//!   keys and wakes with [`WaitQueue::wake_key`], so a release costs O(1)
//!   wakeups however many waiters are parked. Same table, same park loop:
//!   the legs differ only in the keys. The spurious-wakeups-per-release
//!   column is the paper-facing number: O(parked waiters) vs ~0, read from
//!   the [`WaitStats`] attached to the queue.
//!   Wake-to-run latency (stamped by the releaser, recorded by the woken
//!   waiter into an [`rl_obs`] histogram) gives the p50/p99 columns.
//!
//! * **Disjoint-pair lock storm** (whole-lock, `Block` policy): `P` thread
//!   pairs each contend on their *own* range of a shared
//!   [`RwListRangeLock`], so every release resolves exactly one pair's
//!   conflict. Keyed parking keeps the other `P - 1` parked waiters
//!   asleep; the attached [`WaitStats`] report the measured spurious-
//!   wakeups-per-release, which the committed baseline pins near zero.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use range_lock::{ListLockConfig, Range, RwListRangeLock};
use rl_obs::LatencyHistogram;
use rl_sync::stats::WaitStats;
use rl_sync::{WaitPolicyKind, WaitQueue, KEY_ANY};

use crate::report::Table;
use crate::runner::{self, Run, Stop};

/// The two parking disciplines the targeted-wake storm compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkMode {
    /// Every waiter parks under `KEY_ANY`; every wake is the broadcast herd.
    Broadcast,
    /// Every waiter parks under its own key; every wake targets one key.
    Keyed,
}

impl ParkMode {
    /// Both disciplines, in column order.
    pub const ALL: [ParkMode; 2] = [ParkMode::Broadcast, ParkMode::Keyed];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            ParkMode::Broadcast => "broadcast",
            ParkMode::Keyed => "keyed",
        }
    }

    /// The key waiter `i` parks under. The keyed leg's keys are distinct
    /// and spread so neighbouring waiters land in different shards (and
    /// some collide).
    fn key(self, i: usize) -> u64 {
        match self {
            ParkMode::Broadcast => KEY_ANY,
            ParkMode::Keyed => 0x40 + i as u64 * 7,
        }
    }
}

/// How long the targeted-wake storm waits for its waiters to park, and
/// for each round's woken waiter to answer, before it declares a lost
/// wakeup.
const LOST_WAKE: Duration = Duration::from_secs(10);

/// Per-waiter mailbox for the targeted-wake storm.
struct Mailbox {
    /// Round number this waiter should answer (0 = keep sleeping,
    /// `u64::MAX` = exit).
    round: AtomicU64,
    /// Last round this waiter acknowledged.
    ack: AtomicU64,
}

/// Runs one targeted-wake storm: `waiters` parked threads, `releases`
/// rounds of wake-exactly-one. An operation is a release, and the cell's
/// histogram holds each woken waiter's wake-to-run latency (ns); beside it
/// come the spurious wakeups of the whole storm. A waiter that does not
/// park, or does not answer its round, within 10 s is a lost wakeup: the
/// storm panics, naming the mode, waiter count and round, instead of
/// hanging.
pub fn run_targeted(mode: ParkMode, waiters: usize, releases: u64) -> (Run, u64) {
    let stats = Arc::new(WaitStats::new("parkbench-targeted"));
    let mut queue = WaitQueue::new(WaitPolicyKind::Block);
    queue.attach_stats(Arc::clone(&stats));
    let queue = Arc::new(queue);
    let hist = Arc::new(LatencyHistogram::new());
    let base = Instant::now();
    // Nanoseconds since `base` at which the releaser issued the current
    // round's wake; the woken waiter subtracts to get wake-to-run latency.
    let wake_stamp = Arc::new(AtomicU64::new(0));
    let boxes: Arc<Vec<Mailbox>> = Arc::new(
        (0..waiters)
            .map(|_| Mailbox {
                round: AtomicU64::new(0),
                ack: AtomicU64::new(0),
            })
            .collect(),
    );

    let threads: Vec<_> = (0..waiters)
        .map(|i| {
            let queue = Arc::clone(&queue);
            let hist = Arc::clone(&hist);
            let wake_stamp = Arc::clone(&wake_stamp);
            let boxes = Arc::clone(&boxes);
            std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let cond = || boxes[i].round.load(Ordering::Acquire) != last;
                    queue.park(mode.key(i), cond, None);
                    let round = boxes[i].round.load(Ordering::Acquire);
                    if round == u64::MAX {
                        return;
                    }
                    let now = base.elapsed().as_nanos() as u64;
                    hist.record(now.saturating_sub(wake_stamp.load(Ordering::Acquire)));
                    last = round;
                    boxes[i].ack.store(round, Ordering::Release);
                }
            })
        })
        .collect();
    // Round 0 waits for every waiter to park before measuring.
    let wait_for = |round: u64, done: &dyn Fn() -> bool| {
        let since = Instant::now();
        while !done() {
            let (mode, stuck) = (mode.name(), since.elapsed() > LOST_WAKE);
            assert!(
                !stuck,
                "parkbench {mode}: {waiters} waiters, round {round}: lost wakeup"
            );
            std::thread::yield_now();
        }
    };
    wait_for(0, &|| stats.snapshot().parks >= waiters as u64);

    let t0 = Instant::now();
    for r in 1..=releases {
        let target = (r % waiters as u64) as usize;
        boxes[target].round.store(r, Ordering::Release);
        wake_stamp.store(base.elapsed().as_nanos() as u64, Ordering::Release);
        match mode {
            ParkMode::Broadcast => queue.wake_all(),
            ParkMode::Keyed => queue.wake_key(mode.key(target)),
        }
        wait_for(r, &|| boxes[target].ack.load(Ordering::Acquire) == r);
    }
    let elapsed = t0.elapsed();

    for mb in boxes.iter() {
        mb.round.store(u64::MAX, Ordering::Release);
    }
    queue.wake_all();
    for t in threads {
        t.join().expect("parkbench waiter panicked");
    }
    let hist = hist.snapshot();
    let run = Run {
        ops: releases,
        elapsed,
        hist,
    };
    (run, stats.snapshot().spurious_wakeups)
}

/// Runs the disjoint-pair storm: `pairs` thread pairs, each fighting over
/// its own 64-slot region of one `Block`-policy list lock. An operation is a
/// write acquisition (and its release); beside the run come the spurious
/// wakeups the lock's waiters saw.
pub fn run_pairs(pairs: usize, duration: Duration) -> (Run, u64) {
    let stats = Arc::new(WaitStats::new("parkbench-pairs"));
    let lock = RwListRangeLock::with_config(ListLockConfig {
        wait: WaitPolicyKind::Block,
        ..ListLockConfig::default()
    })
    .with_stats(Arc::clone(&stats));
    let name = format!("ParkBench pair storm x{pairs}");
    let run = runner::run(&name, pairs * 2, Stop::After(duration), |t| {
        let region = (t / 2) as u64 * 128;
        let range = Range::new(region, region + 64);
        let lock = &lock;
        move |_: &_| {
            drop(std::hint::black_box(lock.write(range)));
            true
        }
    });
    (run, stats.snapshot().spurious_wakeups)
}

/// A storm's spurious wakeups per release (every operation releases once):
/// the herd cost of one wake.
fn spurious_per_release((run, spurious): &(Run, u64)) -> f64 {
    *spurious as f64 / run.ops as f64
}

/// The full ParkBench table set (what `repro -- parkbench` emits and what
/// `BENCH_park.json` pins).
pub fn tables(quick: bool) -> Vec<Table> {
    let releases: u64 = if quick { 2_000 } else { 20_000 };
    let counts: Vec<usize> = if quick { vec![4, 16] } else { vec![4, 16, 64] };

    let mode_columns: Vec<String> = ParkMode::ALL.iter().map(|m| m.name().to_string()).collect();
    let mut throughput = Table::new(
        "ParkBench targeted wakes: one eligible waiter per release",
        "waiters",
        "releases/sec",
        mode_columns.clone(),
    );
    let mut herd = Table::new(
        "ParkBench herd cost: waiters woken with a false predicate",
        "waiters",
        "spurious wakes/release",
        mode_columns,
    );
    let latency_columns: Vec<String> = ParkMode::ALL
        .iter()
        .flat_map(|m| [format!("{} p50", m.name()), format!("{} p99", m.name())])
        .collect();
    let mut latency = Table::new(
        "ParkBench wake-to-run latency",
        "waiters",
        "wake latency (us)",
        latency_columns,
    );

    for &w in &counts {
        let mut tp_row = Vec::new();
        let mut herd_row = Vec::new();
        let mut lat_row = Vec::new();
        for mode in ParkMode::ALL {
            let storm = run_targeted(mode, w, releases);
            tp_row.push(storm.0.per_sec());
            herd_row.push(spurious_per_release(&storm));
            lat_row.extend([storm.0.p50_us(), storm.0.p99_us()]);
        }
        throughput.push_row(w as u64, tp_row);
        herd.push_row(w as u64, herd_row);
        latency.push_row(w as u64, lat_row);
    }

    let pair_duration = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_secs(1)
    };
    let pair_counts: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8] };
    let mut pair_tp = Table::new(
        "ParkBench disjoint-pair lock storm (list-rw, block policy)",
        "pairs",
        "ops/sec",
        vec!["list-rw".to_string()],
    );
    let mut pair_herd = Table::new(
        "ParkBench disjoint-pair herd cost (list-rw, block policy)",
        "pairs",
        "spurious wakes/release",
        vec!["list-rw".to_string()],
    );
    for &pairs in &pair_counts {
        let storm = run_pairs(pairs, pair_duration);
        pair_tp.push_row(pairs as u64, vec![storm.0.per_sec()]);
        pair_herd.push_row(pairs as u64, vec![spurious_per_release(&storm)]);
    }

    vec![throughput, herd, latency, pair_tp, pair_herd]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_herds_and_keyed_does_not() {
        // 8 any-key waiters: each broadcast wakes all of them, 7 with a
        // false predicate — so spurious/release must be far above the keyed
        // leg, which wakes exactly the eligible waiter.
        let herd = run_targeted(ParkMode::Broadcast, 8, 200);
        let keyed = run_targeted(ParkMode::Keyed, 8, 200);
        assert_eq!(herd.0.ops, 200);
        assert_eq!(keyed.0.ops, 200);
        assert_eq!(keyed.1, 0, "keyed wakes must not herd other keys' parkers");
        assert!(
            spurious_per_release(&herd) >= 1.0,
            "the broadcast stopped herding (got {:.2}/release) — \
             did the baseline leg accidentally go keyed?",
            spurious_per_release(&herd)
        );
        assert!(keyed.0.hist.count() > 0);
    }

    #[test]
    fn pair_storm_releases_wake_only_their_own_pair() {
        let storm = run_pairs(2, Duration::from_millis(100));
        // Disjoint pairs: a release resolves exactly one waiter's conflict,
        // and that waiter's predicate is true by the time it runs. A small
        // residue is tolerated (any-key nudges and barging races), but
        // the herd behaviour — one spurious wake per parked waiter per
        // release — must be gone.
        assert!(
            spurious_per_release(&storm) < 0.5,
            "disjoint-pair storm herded: {} spurious wakes over {} releases",
            storm.1,
            storm.0.ops
        );
    }
}
