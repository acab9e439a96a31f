//! Differential property suite: the exclusive list lock and a
//! *writer-only-driven* reader-writer list lock must expose identical
//! acquisition/conflict semantics.
//!
//! Both locks are the same generic `ListLock` (one in `Exclusive`
//! compatibility mode, one in `ReaderWriter` mode driven exclusively through
//! `write`/`try_write`); a writer-only workload must not be able to tell them
//! apart. Random range programs are replayed against both locks *and* a naive
//! held-set oracle, under all three wait policies — this is the regression
//! net for the core extraction, and (by drawing range boundaries from a small
//! set so exact adjacency is common) it also retro-checks the PR 2
//! adjacent-range half-open off-by-one on the exclusive side.
//!
//! Programs are single-threaded, which makes the `try_` outcomes exact (the
//! trait-level contract allows spurious failure only under concurrency), so
//! agreement can be asserted as equality, not merely implication.
//!
//! An **async-driver arm** replays the same programs through single polls of
//! `write_async` futures: first-poll readiness must agree
//! with the oracle exactly as `try_` does, and futures dropped while pending
//! (the cancellation path) must leave no trace the oracle can detect.
//!
//! A **batched-acquisition arm** (PR 6) replays random multi-range batches
//! against two identically-populated lock tables: one takes each batch
//! atomically through `try_lock_many`, the other through the obvious oracle —
//! sequential `try_lock`s in ascending range order, hand-rolled back on
//! failure. Outcomes, the batching owner's records, and the *entire* table
//! contents must agree after every step; in particular a failed batch must
//! leave no residue.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use proptest::prelude::*;

use range_locks_repro::range_lock::{
    ListLockConfig, ListRangeLock, Range, RwListRangeLock, RwRangeLock, TwoPhaseRwRangeLock,
};
use range_locks_repro::rl_file::{LockMode, LockTable};
use range_locks_repro::rl_sync::wait::WaitPolicyKind::{self, Block, SpinThenYield};

/// One step of a range program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Try to acquire `[start, start+len)` (exclusive vs writer mode).
    TryAcquire { start: u64, len: u64 },
    /// Release the `idx % held`-th currently held range (no-op when empty).
    Release { idx: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Boundaries on a coarse grid of small multiples: overlaps AND exact
    // adjacencies (end == start) both occur constantly.
    (0u64..16, 1u64..6, any::<u64>(), any::<bool>()).prop_map(|(slot, len, idx, release)| {
        if release {
            Op::Release { idx: idx as usize }
        } else {
            Op::TryAcquire {
                start: slot * 10,
                len: len * 10,
            }
        }
    })
}

/// Both list locks, default-configured, waiting through `wait`.
fn locks(wait: WaitPolicyKind) -> (ListRangeLock, RwListRangeLock) {
    let config = ListLockConfig {
        wait,
        ..ListLockConfig::default()
    };
    (
        ListRangeLock::with_config(config.clone()),
        RwListRangeLock::with_config(config),
    )
}

/// Replays `ops` against both locks and the oracle under wait policy `wait`.
fn replay(wait: WaitPolicyKind, ops: &[Op]) -> Result<(), TestCaseError> {
    let (ex, rw) = locks(wait);
    let mut ex_held = Vec::new();
    let mut rw_held = Vec::new();
    let mut oracle: Vec<Range> = Vec::new();

    for &op in ops {
        match op {
            Op::TryAcquire { start, len } => {
                let range = Range::new(start, start + len);
                let expected = oracle.iter().all(|held| !held.overlaps(&range));
                let ex_guard = ex.try_write(range);
                let rw_guard = rw.try_write(range);
                // Exclusive lock, writer-only rw lock, and oracle must agree.
                prop_assert_eq!(ex_guard.is_some(), expected);
                prop_assert_eq!(rw_guard.is_some(), expected);
                if expected {
                    ex_held.push(ex_guard.unwrap());
                    rw_held.push(rw_guard.unwrap());
                    oracle.push(range);
                }
            }
            Op::Release { idx } => {
                if !oracle.is_empty() {
                    let i = idx % oracle.len();
                    drop(ex_held.swap_remove(i));
                    drop(rw_held.swap_remove(i));
                    oracle.swap_remove(i);
                }
            }
        }
        prop_assert_eq!(ex.held_ranges(), oracle.len());
        prop_assert_eq!(rw.held_ranges(), oracle.len());
    }

    drop(ex_held);
    drop(rw_held);
    prop_assert!(ex.is_quiescent());
    prop_assert!(rw.is_quiescent());
    Ok(())
}

/// Polls a future exactly once with a no-op waker.
fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let mut cx = Context::from_waker(Waker::noop());
    Pin::new(fut).poll(&mut cx)
}

/// Async-driver arm: the same programs, driven by polling `write_async`
/// `write_async` futures exactly once. Single-threaded, a first poll is as
/// exact as a `try_`: `Ready` iff no conflicting range is held (the
/// poll-driven traversal retries lost races internally and there are none
/// here). A `Pending` future is dropped on the spot — a cancellation — and
/// must leave no residue; the held-count comparison against the oracle
/// after every step is the leak detector.
fn replay_async(wait: WaitPolicyKind, ops: &[Op]) -> Result<(), TestCaseError> {
    let (ex, rw) = locks(wait);
    let mut ex_held = Vec::new();
    let mut rw_held = Vec::new();
    let mut oracle: Vec<Range> = Vec::new();

    for &op in ops {
        match op {
            Op::TryAcquire { start, len } => {
                let range = Range::new(start, start + len);
                let expected = oracle.iter().all(|held| !held.overlaps(&range));
                let mut ex_fut = ex.write_async(range);
                let mut rw_fut = rw.write_async(range);
                let ex_poll = poll_once(&mut ex_fut);
                let rw_poll = poll_once(&mut rw_fut);
                prop_assert_eq!(ex_poll.is_ready(), expected);
                prop_assert_eq!(rw_poll.is_ready(), expected);
                // Pending pairs are dropped here, which cancels both.
                if let (Poll::Ready(ex_guard), Poll::Ready(rw_guard)) = (ex_poll, rw_poll) {
                    ex_held.push(ex_guard);
                    rw_held.push(rw_guard);
                    oracle.push(range);
                }
            }
            Op::Release { idx } => {
                if !oracle.is_empty() {
                    let i = idx % oracle.len();
                    drop(ex_held.swap_remove(i));
                    drop(rw_held.swap_remove(i));
                    oracle.swap_remove(i);
                }
            }
        }
        prop_assert_eq!(ex.held_ranges(), oracle.len());
        prop_assert_eq!(rw.held_ranges(), oracle.len());
    }

    drop(ex_held);
    drop(rw_held);
    prop_assert!(ex.is_quiescent());
    prop_assert!(rw.is_quiescent());
    Ok(())
}

/// One step of a batched-acquisition program.
#[derive(Debug, Clone)]
enum BatchOp {
    /// A background owner (`idx % 2`) tries to take one slot range, in the
    /// given mode, on both tables — this is what batches conflict *against*.
    Background {
        idx: usize,
        slot: u64,
        exclusive: bool,
    },
    /// A background owner drops everything it holds, on both tables.
    BackgroundRelease { idx: usize },
    /// The batching owner submits `(slot, len, exclusive)` items (overlaps
    /// between items filtered out by the harness, order left as generated).
    Batch { items: Vec<(u64, u64, bool)> },
}

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    (
        0u64..8,
        0u64..16,
        any::<bool>(),
        collection::vec((0u64..16, 1u64..4, any::<bool>()), 1..5),
    )
        .prop_map(|(tag, slot, exclusive, items)| match tag {
            0 | 1 => BatchOp::Background {
                idx: slot as usize,
                slot,
                exclusive,
            },
            2 => BatchOp::BackgroundRelease { idx: slot as usize },
            _ => BatchOp::Batch { items },
        })
}

fn mode_of(exclusive: bool) -> LockMode {
    if exclusive {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    }
}

fn mode_rank(mode: LockMode) -> u8 {
    match mode {
        LockMode::Shared => 0,
        LockMode::Exclusive => 1,
    }
}

/// The full committed state of a table as a comparable, order-free value.
fn table_state(table: &LockTable) -> Vec<(String, u64, u64, u8)> {
    let mut out: Vec<_> = table
        .records()
        .into_iter()
        .map(|r| (r.owner, r.range.start, r.range.end, mode_rank(r.mode)))
        .collect();
    out.sort();
    out
}

/// Replays a batched-acquisition program against two identically-driven
/// tables: `try_lock_many` vs the sequential-ascending `try_lock` oracle.
fn replay_batches(ops: &[BatchOp]) -> Result<(), TestCaseError> {
    let atomic = Arc::new(LockTable::new(Box::new(RwListRangeLock::new())));
    let oracle = Arc::new(LockTable::new(Box::new(RwListRangeLock::new())));
    let mut atomic_bg: Vec<_> = (0..2).map(|i| atomic.owner(format!("bg{i}"))).collect();
    let mut oracle_bg: Vec<_> = (0..2).map(|i| oracle.owner(format!("bg{i}"))).collect();
    let mut atomic_batcher = atomic.owner("batcher");
    let mut oracle_batcher = oracle.owner("batcher");

    for op in ops {
        match op {
            BatchOp::Background {
                idx,
                slot,
                exclusive,
            } => {
                let range = Range::new(slot * 10, slot * 10 + 10);
                let mode = mode_of(*exclusive);
                let a = atomic_bg[idx % 2].try_lock(range, mode);
                let b = oracle_bg[idx % 2].try_lock(range, mode);
                // Identical tables, identical request: identical outcome.
                prop_assert_eq!(a.is_ok(), b.is_ok());
            }
            BatchOp::BackgroundRelease { idx } => {
                atomic_bg[idx % 2].unlock_all();
                oracle_bg[idx % 2].unlock_all();
            }
            BatchOp::Batch { items } => {
                // Drop items overlapping an earlier kept item (batches must
                // be self-disjoint); keep the generated submission order.
                let mut kept: Vec<(Range, LockMode)> = Vec::new();
                for &(slot, len, exclusive) in items {
                    let range = Range::new(slot * 10, (slot + len) * 10);
                    if kept.iter().all(|(k, _)| !k.overlaps(&range)) {
                        kept.push((range, mode_of(exclusive)));
                    }
                }

                let atomic_outcome = atomic_batcher.try_lock_many(&kept);

                // Oracle: apply in ascending range order, one `try_lock` at
                // a time; on the first refusal undo the applied prefix by
                // unlocking exactly those items (the batcher holds nothing
                // else, so per-item unlock is an exact inverse).
                let mut ascending = kept.clone();
                ascending.sort_by_key(|(range, _)| (range.start, range.end));
                let mut applied: Vec<Range> = Vec::new();
                let mut oracle_outcome = Ok(());
                for &(range, mode) in &ascending {
                    match oracle_batcher.try_lock(range, mode) {
                        Ok(()) => applied.push(range),
                        Err(would_block) => {
                            oracle_outcome = Err(would_block);
                            for &range in &applied {
                                oracle_batcher.unlock(range);
                            }
                            break;
                        }
                    }
                }

                prop_assert_eq!(atomic_outcome.is_ok(), oracle_outcome.is_ok());
                if atomic_outcome.is_err() {
                    // No residue: a failed batch leaves the batcher with
                    // exactly nothing (it held nothing going in).
                    prop_assert!(atomic_batcher.held().is_empty());
                }
                // Whatever happened, both tables must be indistinguishable.
                prop_assert_eq!(table_state(&atomic), table_state(&oracle));

                atomic_batcher.unlock_all();
                oracle_batcher.unlock_all();
            }
        }
        prop_assert_eq!(table_state(&atomic), table_state(&oracle));
    }

    atomic.check_invariants();
    oracle.check_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The exclusive lock, the writer-only rw lock, and the oracle agree on
    /// every program, under every wait policy.
    #[test]
    fn exclusive_and_writer_only_rw_are_indistinguishable(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        for wait in WaitPolicyKind::ALL {
            replay(wait, &ops)?;
        }
    }

    /// The async driver replays the same programs against the same oracle:
    /// a first poll agrees exactly with `try_`, and dropped (cancelled)
    /// futures leave the locks indistinguishable from never having asked.
    #[test]
    fn async_driver_agrees_with_the_sync_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        replay_async(SpinThenYield, &ops)?;
        replay_async(Block, &ops)?;
    }

    /// Blocking acquisitions of disjoint batches agree too (covers the
    /// non-`try_` insertion path plus the fast path under both modes).
    #[test]
    fn blocking_acquisition_parity_on_disjoint_batches(
        slots in proptest::collection::vec(0u64..32, 1..24),
    ) {
        let ex = ListRangeLock::new();
        let rw = RwListRangeLock::new();
        for chunk in slots.chunks(4) {
            let mut taken: Vec<u64> = Vec::new();
            let mut ex_guards = Vec::new();
            let mut rw_guards = Vec::new();
            for &slot in chunk {
                if taken.contains(&slot) {
                    continue; // overlapping: a blocking acquire would deadlock
                }
                taken.push(slot);
                let range = Range::new(slot * 10, slot * 10 + 10);
                ex_guards.push(ex.write(range));
                rw_guards.push(rw.write(range));
            }
            prop_assert_eq!(ex.held_ranges(), taken.len());
            prop_assert_eq!(rw.held_ranges(), taken.len());
        }
        prop_assert!(ex.is_quiescent());
        prop_assert!(rw.is_quiescent());
    }

    /// The atomic batch path (`try_lock_many`) and the sequential-ascending
    /// `try_lock` oracle are indistinguishable: same outcomes, same records,
    /// same full table state after every step — and a failed batch leaves
    /// zero residue.
    #[test]
    fn batched_acquisition_agrees_with_the_sequential_oracle(
        ops in proptest::collection::vec(batch_op_strategy(), 1..40),
    ) {
        replay_batches(&ops)?;
    }

    /// Adjacency retro-check (the PR 2 off-by-one, exclusive side): ranges
    /// that merely touch (half-open end == start) never conflict, on either
    /// lock, whatever the order.
    #[test]
    fn adjacent_ranges_never_conflict(starts in proptest::collection::vec(0u64..24, 1..16)) {
        let ex = ListRangeLock::new();
        let rw = RwListRangeLock::new();
        let mut ex_guards = Vec::new();
        let mut rw_guards = Vec::new();
        let mut seen = Vec::new();
        for &s in &starts {
            if seen.contains(&s) {
                continue;
            }
            seen.push(s);
            // Exactly adjacent, zero-gap tiling: [10s, 10s+10).
            let range = Range::new(s * 10, s * 10 + 10);
            ex_guards.push(ex.try_write(range).expect("adjacent tiles are disjoint"));
            rw_guards.push(rw.try_write(range).expect("adjacent tiles are disjoint"));
        }
        drop(ex_guards);
        drop(rw_guards);
        prop_assert!(ex.is_quiescent());
        prop_assert!(rw.is_quiescent());
    }
}
