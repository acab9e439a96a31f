//! Model check: [`LockTable`] against a naive POSIX lock-table reference.
//!
//! The reference implements `fcntl`-style set-lock semantics in the simplest
//! possible way — a flat vector of `(owner, range, mode)` records, rebuilt on
//! every operation — with none of the guard bookkeeping the real table does.
//! Random operation sequences (locks, unlocks, upgrades, downgrades, from
//! several owners) are applied to both; after every step the two tables must
//! agree record-for-record, the real table's structural invariants must hold,
//! and `try_lock` must fail exactly when the reference sees a conflict.
//!
//! The generated `kind` byte also picks the **entry point**, so the sweep
//! covers both drivers and the batch machine against the one reference:
//! `try_lock` or `try_lock_async` always; and, when the reference says the
//! request is conflict-free (so it cannot wait, and a single thread can make
//! it), blocking `lock`, `block_on(lock_async)`, or a one-item `lock_many` /
//! `try_lock_many` / `lock_many_async`; unlocks alternate between `unlock`
//! and `block_on(unlock_async)`.
//!
//! Runs over `list-rw` and `kernel-rw` at byte granularity, and over
//! `pnova-rw` at segment alignment (see the granularity requirement in the
//! `lock_table` module docs).

use std::sync::Arc;

use proptest::prelude::*;
use range_lock::{Range, RwListRangeLock, TwoPhaseRwRangeLock};
use rl_baselines::{RwTreeRangeLock, SegmentRangeLock};
use rl_exec::block_on;
use rl_file::{LockMode, LockOwner, LockTable};
use rl_sync::wait::{Block, Spin};

/// One reference record. Kept intentionally dumb: no tiles, no guards.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RefRecord {
    owner: u64,
    start: u64,
    end: u64,
    exclusive: bool,
}

#[derive(Debug, Default)]
struct RefTable {
    records: Vec<RefRecord>,
}

impl RefTable {
    /// Would locking `[start, end)` in the given mode conflict with another
    /// owner's record?
    fn conflicts(&self, owner: u64, start: u64, end: u64, exclusive: bool) -> bool {
        self.records.iter().any(|r| {
            r.owner != owner && r.start < end && start < r.end && (exclusive || r.exclusive)
        })
    }

    /// POSIX set-lock: replace whatever `owner` holds over `[start, end)`
    /// with `op` (`Some(exclusive)` to lock, `None` to unlock), then merge
    /// adjacent same-mode records.
    fn set(&mut self, owner: u64, start: u64, end: u64, op: Option<bool>) {
        let mut out = Vec::new();
        for r in self.records.drain(..) {
            if r.owner != owner || r.end <= start || r.start >= end {
                out.push(r);
                continue;
            }
            if r.start < start {
                out.push(RefRecord {
                    owner,
                    start: r.start,
                    end: start,
                    exclusive: r.exclusive,
                });
            }
            if r.end > end {
                out.push(RefRecord {
                    owner,
                    start: end,
                    end: r.end,
                    exclusive: r.exclusive,
                });
            }
        }
        if let Some(exclusive) = op {
            out.push(RefRecord {
                owner,
                start,
                end,
                exclusive,
            });
        }
        out.sort();
        // Coalesce adjacent same-owner same-mode records.
        let mut merged: Vec<RefRecord> = Vec::new();
        for r in out {
            if let Some(last) = merged.last_mut() {
                if last.owner == r.owner && last.exclusive == r.exclusive && last.end == r.start {
                    last.end = r.end;
                    continue;
                }
            }
            merged.push(r);
        }
        self.records = merged;
    }

    fn snapshot(&self) -> Vec<(String, u64, u64, bool)> {
        let mut v: Vec<_> = self
            .records
            .iter()
            .map(|r| (format!("o{}", r.owner), r.start, r.end, r.exclusive))
            .collect();
        v.sort();
        v
    }
}

/// One generated operation: which owner, where, and what (`kind % 3`:
/// shared, exclusive, unlock; `kind / 3`: which entry point).
type Op = (u64, u64, u64, u8);

/// Applies one set-lock through the entry point `driver` selects. Every
/// entry point that can wait is only chosen when `conflict_free`; `Err`
/// means "would block" (the waiting forms fail only with `EDEADLK`, which a
/// single-threaded run cannot produce).
fn set_lock<L: TwoPhaseRwRangeLock + 'static>(
    owner: &mut LockOwner<L>,
    range: Range,
    mode: LockMode,
    driver: u8,
    conflict_free: bool,
) -> Result<(), String> {
    fn text<E: std::fmt::Display>(outcome: Result<(), E>) -> Result<(), String> {
        outcome.map_err(|e| e.to_string())
    }
    match (driver % 7, conflict_free) {
        (1, _) => text(block_on(owner.try_lock_async(range, mode))),
        (2, _) => text(owner.try_lock_many(&[(range, mode)])),
        (3, true) => text(owner.lock(range, mode)),
        (4, true) => text(block_on(owner.lock_async(range, mode))),
        (5, true) => text(owner.lock_many(&[(range, mode)])),
        (6, true) => text(block_on(owner.lock_many_async(&[(range, mode)]))),
        _ => text(owner.try_lock(range, mode)),
    }
}

/// Applies `ops` to a real `LockTable` over `lock` and to the reference, and
/// checks agreement after every step. `align` snaps every boundary to a
/// multiple (1 = byte granularity); `exact_try` additionally requires
/// `try_lock` to fail *exactly* when the reference sees a conflict (true for
/// exact-granularity locks).
fn run_model<L: TwoPhaseRwRangeLock + 'static>(
    lock: L,
    ops: &[Op],
    align: u64,
    exact_try: bool,
) -> Result<(), TestCaseError> {
    let table = Arc::new(LockTable::new(lock));
    let mut owners = vec![table.owner("o0"), table.owner("o1"), table.owner("o2")];
    let mut reference = RefTable::default();

    for &(owner, start, len, kind) in ops {
        let start = start * align;
        let end = start + len.max(1) * align;
        let owner = owner % owners.len() as u64;
        match kind % 3 {
            // Shared / exclusive set-lock through the entry point the
            // kind byte selects; the reference applies the op only when the
            // table accepted it.
            k @ (0 | 1) => {
                let exclusive = k == 1;
                let mode = if exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                let ref_conflict = reference.conflicts(owner, start, end, exclusive);
                let result = set_lock(
                    &mut owners[owner as usize],
                    Range::new(start, end),
                    mode,
                    kind / 3,
                    !ref_conflict,
                );
                if ref_conflict {
                    prop_assert!(
                        result.is_err(),
                        "table accepted a lock the reference says conflicts: \
                         owner {owner} [{start}, {end}) exclusive={exclusive}"
                    );
                } else if exact_try {
                    prop_assert!(
                        result.is_ok(),
                        "table rejected a conflict-free lock: \
                         owner {owner} [{start}, {end}) exclusive={exclusive}"
                    );
                }
                if result.is_ok() {
                    reference.set(owner, start, end, Some(exclusive));
                }
            }
            // Unlock.
            _ => {
                let range = Range::new(start, end);
                if (kind / 3).is_multiple_of(2) {
                    owners[owner as usize].unlock(range);
                } else {
                    block_on(owners[owner as usize].unlock_async(range));
                }
                reference.set(owner, start, end, None);
            }
        }

        table.check_invariants();
        let real: Vec<(String, u64, u64, bool)> = table
            .records()
            .into_iter()
            .map(|r| {
                (
                    r.owner,
                    r.range.start,
                    r.range.end,
                    r.mode == LockMode::Exclusive,
                )
            })
            .collect();
        prop_assert_eq!(real, reference.snapshot());
    }

    // Dropping every owner must leave the table empty.
    owners.clear();
    prop_assert_eq!(table.held_records(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byte-granular model check over the paper's reader-writer list lock.
    #[test]
    fn list_rw_matches_reference(
        ops in collection::vec((0u64..3, 0u64..240, 1u64..50, any::<u8>()), 1..40),
    ) {
        run_model(RwListRangeLock::new(), &ops, 1, true)?;
    }

    /// Byte-granular model check over the kernel's reader-writer tree lock.
    #[test]
    fn kernel_rw_matches_reference(
        ops in collection::vec((0u64..3, 0u64..240, 1u64..50, any::<u8>()), 1..40),
    ) {
        run_model(RwTreeRangeLock::new(), &ops, 1, true)?;
    }

    /// Segment-aligned model check over the pNOVA segment lock: boundaries
    /// are multiples of the 16-byte segment size, and `try_lock` is allowed
    /// to fail without a reference-level conflict (segment false sharing).
    #[test]
    fn pnova_rw_matches_reference_at_segment_alignment(
        ops in collection::vec((0u64..3, 0u64..200, 1u64..50, any::<u8>()), 1..40),
    ) {
        // 16 bytes per segment; ops stay inside the configured span so that
        // segment alignment is preserved (past-span ranges all clamp onto the
        // last segment, which would reintroduce false sharing).
        run_model(SegmentRangeLock::new(4096, 256), &ops, 16, false)?;
    }
}

// Policy instantiations: the table semantics must be identical no matter how
// the underlying lock waits. Sequential model runs never park, so these pin
// the type-level plumbing (and the `Spin` policy exercises the pure-spin
// waiters through the split/merge re-acquisition paths).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn list_rw_matches_reference_under_block_policy(
        ops in collection::vec((0u64..3, 0u64..240, 1u64..50, any::<u8>()), 1..40),
    ) {
        run_model(RwListRangeLock::<Block>::with_policy(), &ops, 1, true)?;
    }

    #[test]
    fn kernel_rw_matches_reference_under_spin_policy(
        ops in collection::vec((0u64..3, 0u64..240, 1u64..50, any::<u8>()), 1..40),
    ) {
        run_model(RwTreeRangeLock::<Spin>::with_policy(), &ops, 1, true)?;
    }

    #[test]
    fn pnova_rw_matches_reference_under_block_policy(
        ops in collection::vec((0u64..3, 0u64..200, 1u64..50, any::<u8>()), 1..40),
    ) {
        run_model(SegmentRangeLock::<Block>::with_policy(4096, 256), &ops, 16, false)?;
    }
}

/// A deterministic worked example of the three headline re-lock shapes —
/// split, merge, upgrade — checked against the reference step by step.
#[test]
fn split_merge_upgrade_worked_example() {
    let ops: Vec<Op> = vec![
        (0, 0, 100, 0),  // o0: shared [0, 100)
        (0, 40, 20, 1),  // o0: exclusive [40, 60)  -> split + upgrade middle
        (0, 40, 20, 0),  // o0: shared [40, 60)     -> downgrade, merge to one
        (0, 100, 50, 0), // o0: shared [100, 150)   -> adjacent, merges
        (1, 200, 50, 1), // o1: exclusive [200, 250)
        (0, 120, 10, 2), // o0: unlock [120, 130)   -> split
        (1, 210, 10, 2), // o1: unlock [210, 220)   -> split exclusive record
        (0, 0, 300, 2),  // o0: unlock everything
    ];
    run_model(RwListRangeLock::new(), &ops, 1, true).expect("model agreement");
}
