//! Deadlock-storm suite and waits-for cycle-detector properties.
//!
//! The lock table's `EDEADLK` detection (PR 6) has two testable faces:
//!
//! * **Liveness under adversarial contention.** The storm arm runs several
//!   owners that deliberately hold-and-wait in random cyclic patterns over a
//!   small slot space, across **every registry variant × every wait
//!   policy**. Without detection, such a run wedges within milliseconds;
//!   with it, every blocking `lock()` must either complete or surface
//!   `EDEADLK`, and the whole storm must finish inside a bounded join
//!   timeout. The number of surfaced errors must agree exactly with the
//!   table's detection counter.
//!
//! * **Correctness of the cycle check itself.** The proptest arm drives
//!   `range_lock::WaitGraph` directly with random register/deregister
//!   programs and compares every outcome against a naive adjacency-map +
//!   depth-first-search reference, including the self-edge regression case.
//!
//! Storm slots are 64-byte aligned so the sweep legitimately includes
//! `pnova-rw`, whose segment granularity (span 1 << 10 over 16 segments)
//! requires segment-aligned records under the table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use range_locks_repro::range_lock::{Range, RwListRangeLock, WaitGraph};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_file::{LockMode, LockTable};
use range_locks_repro::rl_sync::wait::WaitPolicyKind;

const OWNERS: usize = 4;
const ITERS: usize = 30;
const SLOTS: u64 = 8;
/// 64 bytes: exactly one `pnova-rw` segment at the storm's registry config
/// (span `1 << 10`, 16 segments), so records never false-share a segment.
const SLOT_BYTES: u64 = 64;

fn slot_range(slot: u64) -> Range {
    Range::new(slot * SLOT_BYTES, (slot + 1) * SLOT_BYTES)
}

/// Tiny deterministic PRNG (xorshift) so the storm needs no external crate
/// and every run of a given seed replays the same schedule *requests* (the
/// interleaving itself stays nondeterministic, which is the point).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs one hold-and-wait storm over `table`: every owner repeatedly locks
/// one slot, then — while holding it — blocks on a second slot, which is
/// exactly the pattern that forms waits-for cycles. Items are chosen from a
/// slot space small enough that cycles form constantly. Returns the number
/// of `EDEADLK`s surfaced.
///
/// The per-iteration pattern keeps the two slots *disjoint* (no same-slot
/// re-lock): an upgrade's rollback re-acquires spans unchecked, which is
/// documented best-effort and not a liveness guarantee this storm can bound.
///
/// With `hold_and_wait` off every owner holds one slot at a time: no cycle
/// can form, and the run only proves that contended acquisitions complete.
fn run_storm(table: Arc<LockTable>, label: &str, hold_and_wait: bool) -> u64 {
    let deadlocks = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..OWNERS)
        .map(|t| {
            let table = Arc::clone(&table);
            let deadlocks = Arc::clone(&deadlocks);
            std::thread::spawn(move || {
                let mut owner = table.owner(format!("o{t}"));
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((t as u64 + 1) << 32);
                for i in 0..ITERS {
                    let first = xorshift(&mut rng) % SLOTS;
                    let second = (first + 1 + xorshift(&mut rng) % (SLOTS - 1)) % SLOTS;
                    let mode = if (i + t) % 3 == 0 {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    };
                    // Hold `first`, then wait for `second`: the cycle recipe.
                    // Either step may surface EDEADLK (the second genuinely,
                    // the first through a conservatively stale edge — POSIX
                    // allows both); the run must never wedge.
                    if owner.lock(slot_range(first), mode).is_err() {
                        deadlocks.fetch_add(1, Ordering::Relaxed);
                        owner.unlock_all();
                        continue;
                    }
                    if hold_and_wait && owner.lock(slot_range(second), LockMode::Exclusive).is_err()
                    {
                        deadlocks.fetch_add(1, Ordering::Relaxed);
                    }
                    owner.unlock_all();
                }
            })
        })
        .collect();

    // Bounded join: a storm that outlives the deadline is a wedged storm —
    // precisely the failure mode detection exists to rule out.
    let deadline = Instant::now() + Duration::from_secs(60);
    for handle in handles {
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{label}: storm wedged — undetected deadlock"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().unwrap();
    }
    assert_eq!(table.held_records(), 0, "{label}: residue after storm");
    assert_eq!(table.waiting_owners(), 0, "{label}: stale waits-for edges");
    table.check_invariants();
    let surfaced = deadlocks.load(Ordering::Relaxed);
    assert_eq!(
        table.deadlocks_detected(),
        surfaced,
        "{label}: every detection must surface as exactly one EDEADLK"
    );
    surfaced
}

#[test]
fn storm_completes_or_surfaces_edeadlk_on_every_variant_and_policy() {
    let config = RegistryConfig {
        span: 1 << 10,
        segments: 16,
    };
    for spec in registry::all() {
        for wait in WaitPolicyKind::ALL {
            let label = format!("{}/{}", spec.name, wait.name());
            let table = Arc::new(LockTable::new(spec.build(wait, &config)));
            run_storm(table, &label, true);
        }
    }
}

#[test]
fn stock_semaphore_backs_a_table_for_one_range_per_owner() {
    // `stock` carries the two-phase tier like every registry row, so it
    // satisfies `LockTable`'s bound and its blocked owners park on the
    // semaphore's queue. It cannot join the hold-and-wait storm above: the
    // semaphore ignores ranges and is not reentrant, so an owner's *second*
    // range waits on its own first one — a self-deadlock the table cannot
    // see, because it derives waits-for edges from range overlap.
    for wait in WaitPolicyKind::ALL {
        let table = Arc::new(LockTable::new(registry::build_stock(wait, None)));
        let surfaced = run_storm(table, &format!("stock/{}", wait.name()), false);
        assert_eq!(surfaced, 0, "no cycle can form without hold-and-wait");
    }
}

#[test]
fn async_storm_resolves_cycles_among_suspended_tasks() {
    // The async face of the same storm: tasks on a small pool suspend
    // instead of parking, cycles among suspended tasks must resolve to
    // EDEADLK through the commit-wake re-derivation path. Run inside a
    // watchdog thread so a wedge fails the test instead of hanging it.
    let worker = std::thread::spawn(|| {
        let pool = range_locks_repro::rl_exec::TaskPool::new(2);
        let table = Arc::new(LockTable::new(Box::new(RwListRangeLock::new())));
        let deadlocks = Arc::new(AtomicU64::new(0));
        let tasks: Vec<_> = (0..OWNERS)
            .map(|t| {
                let table = Arc::clone(&table);
                let deadlocks = Arc::clone(&deadlocks);
                pool.spawn(async move {
                    let mut owner = table.owner(format!("a{t}"));
                    let mut rng = 0xD1B5_4A32_D192_ED03u64 ^ ((t as u64 + 1) << 24);
                    for _ in 0..ITERS {
                        let first = xorshift(&mut rng) % SLOTS;
                        let second = (first + 1 + xorshift(&mut rng) % (SLOTS - 1)) % SLOTS;
                        if owner
                            .lock_async(slot_range(first), LockMode::Exclusive)
                            .await
                            .is_err()
                        {
                            deadlocks.fetch_add(1, Ordering::Relaxed);
                            owner.unlock_all();
                            continue;
                        }
                        if owner
                            .lock_async(slot_range(second), LockMode::Exclusive)
                            .await
                            .is_err()
                        {
                            deadlocks.fetch_add(1, Ordering::Relaxed);
                        }
                        owner.unlock_all();
                    }
                })
            })
            .collect();
        for task in tasks {
            task.join();
        }
        assert_eq!(table.held_records(), 0);
        assert_eq!(table.waiting_owners(), 0);
        assert_eq!(
            table.deadlocks_detected(),
            deadlocks.load(Ordering::Relaxed)
        );
        table.check_invariants();
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while !worker.is_finished() {
        assert!(
            Instant::now() < deadline,
            "async storm wedged — undetected deadlock among suspended tasks"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.join().unwrap();
}

// ---------------------------------------------------------------------------
// Cycle-detector properties: WaitGraph vs a naive DFS reference.
// ---------------------------------------------------------------------------

/// The obviously-correct reference: replace `waiter`'s edges with `holders`,
/// then ask whether any holder can reach `waiter` by depth-first search.
#[derive(Default, Clone)]
struct NaiveGraph {
    edges: HashMap<u64, Vec<u64>>,
}

impl NaiveGraph {
    fn reaches(&self, from: u64, to: u64, visited: &mut Vec<u64>) -> bool {
        if from == to {
            return true;
        }
        if visited.contains(&from) {
            return false;
        }
        visited.push(from);
        self.edges
            .get(&from)
            .is_some_and(|next| next.iter().any(|&n| self.reaches(n, to, visited)))
    }

    /// Mirrors `WaitGraph::register`: `Ok` applies the replacement, a cycle
    /// leaves the graph unchanged (minus the waiter's old edges, which both
    /// implementations remove unconditionally).
    fn register(&mut self, waiter: u64, holders: &[u64]) -> Result<(), ()> {
        self.edges.remove(&waiter);
        let cycles = holders
            .iter()
            .any(|&h| self.reaches(h, waiter, &mut Vec::new()));
        if cycles {
            return Err(());
        }
        if !holders.is_empty() {
            self.edges.insert(waiter, holders.to_vec());
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum GraphOp {
    Register { waiter: u64, holders: Vec<u64> },
    Deregister { waiter: u64 },
}

fn graph_op_strategy() -> impl Strategy<Value = GraphOp> {
    // Six owners and holder sets up to four wide: dense enough that cycles,
    // diamonds (which must NOT be flagged), and re-registrations all occur.
    // Registers outnumber deregisters 4:1 so the graph stays populated.
    (0u64..5, 0u64..6, collection::vec(0u64..6, 0..4)).prop_map(|(tag, waiter, holders)| {
        if tag == 0 {
            GraphOp::Deregister { waiter }
        } else {
            GraphOp::Register { waiter, holders }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every register/deregister outcome of the real detector agrees with
    /// the naive reference, and the detection counter counts exactly the
    /// rejected registrations.
    #[test]
    fn wait_graph_agrees_with_naive_dfs_reference(
        ops in proptest::collection::vec(graph_op_strategy(), 1..40)
    ) {
        let graph = WaitGraph::new();
        let mut reference = NaiveGraph::default();
        let mut rejected = 0u64;
        for op in &ops {
            match op {
                GraphOp::Register { waiter, holders } => {
                    let real = graph.register(*waiter, holders.iter().copied());
                    let expect = reference.register(*waiter, holders);
                    prop_assert!(
                        real.is_err() == expect.is_err(),
                        "divergence on register({}, {:?})",
                        waiter,
                        holders
                    );
                    if let Err(deadlock) = real {
                        rejected += 1;
                        // The reported cycle must be a genuine closed walk:
                        // it starts and ends at the same owner and every hop
                        // is a real edge of the *reference* graph, except the
                        // closing hop, which is one of the just-rejected
                        // waiter -> holder edges.
                        let cycle = deadlock.cycle();
                        prop_assert!(cycle.len() >= 2);
                        prop_assert_eq!(cycle.first(), cycle.last());
                        prop_assert_eq!(*cycle.first().unwrap(), *waiter);
                        prop_assert!(holders.contains(&cycle[1]));
                        for hop in cycle[1..].windows(2) {
                            prop_assert!(
                                reference
                                    .edges
                                    .get(&hop[0])
                                    .is_some_and(|next| next.contains(&hop[1])),
                                "cycle hop {} -> {} is not a graph edge",
                                hop[0],
                                hop[1]
                            );
                        }
                    }
                }
                GraphOp::Deregister { waiter } => {
                    graph.deregister(*waiter);
                    reference.edges.remove(waiter);
                }
            }
        }
        prop_assert_eq!(graph.deadlocks_detected(), rejected);
        prop_assert_eq!(graph.waiting_owners(), reference.edges.len());
    }
}

/// Regression: an owner whose derived holder set contains *itself* (possible
/// only through misuse, but cheap to defend) is a one-hop cycle, not a hang
/// or a stack overflow.
#[test]
fn self_edge_is_an_immediate_one_hop_cycle() {
    let graph = WaitGraph::new();
    let err = graph.register(7, [7]).unwrap_err();
    assert_eq!(err.cycle(), &[7, 7]);
    assert_eq!(graph.deadlocks_detected(), 1);
    // The failed registration installed nothing.
    assert_eq!(graph.waiting_owners(), 0);
    assert!(graph.register(7, [3]).is_ok());
}
