//! Property-based tests (proptest) over the core data structures.
//!
//! These complement the per-module unit tests with randomized checking of the
//! structural invariants the paper's correctness arguments rely on:
//! range-overlap algebra, the interval tree against a naive oracle, the VMA
//! tree against a `BTreeMap` model, sequential lock usage against a
//! conflict-free schedule, and both skip lists against `BTreeSet`.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use range_locks_repro::range_lock::{ListRangeLock, Range, RwListRangeLock};
use range_locks_repro::rl_baselines::{Interval, RangeTree};
use range_locks_repro::rl_skiplist::{OptimisticSkipList, RangeSkipList};
use range_locks_repro::rl_vm::{MemorySpace, Protection, PAGE_SIZE};

fn range_strategy() -> impl Strategy<Value = Range> {
    (0u64..1_000, 1u64..200).prop_map(|(start, len)| Range::new(start, start + len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Overlap is symmetric, irreflexive for empty ranges, and consistent
    /// with intersection.
    #[test]
    fn range_overlap_algebra(a in range_strategy(), b in range_strategy()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlaps(&b), a.intersection(&b).is_some());
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_range(&i));
            prop_assert!(b.contains_range(&i));
            prop_assert!(!i.is_empty());
        }
        let hull = a.hull(&b);
        prop_assert!(hull.contains_range(&a));
        prop_assert!(hull.contains_range(&b));
    }

    /// The interval tree agrees with a brute-force vector oracle after an
    /// arbitrary sequence of inserts and removes.
    #[test]
    fn interval_tree_matches_oracle(ops in proptest::collection::vec((0u64..500, 1u64..100, any::<bool>()), 1..200)) {
        let mut tree = RangeTree::new();
        let mut oracle: Vec<Interval> = Vec::new();
        for (id, (start, len, remove)) in ops.iter().enumerate() {
            if *remove && !oracle.is_empty() {
                let victim = oracle.swap_remove(id % oracle.len());
                prop_assert!(tree.remove(&victim));
            } else {
                let entry = Interval { range: Range::new(*start, start + len), id: id as u64 };
                tree.insert(entry);
                oracle.push(entry);
            }
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), oracle.len());
        for probe_start in (0..500u64).step_by(37) {
            let probe = Range::new(probe_start, probe_start + 50);
            let expected = oracle.iter().filter(|i| i.range.overlaps(&probe)).count();
            prop_assert_eq!(tree.count_overlaps(&probe), expected);
        }
    }

    /// Sequential acquire/release of random ranges never deadlocks and always
    /// leaves the exclusive list lock empty.
    #[test]
    fn list_lock_sequential_usage(ranges in proptest::collection::vec(range_strategy(), 1..64)) {
        let lock = ListRangeLock::new();
        for chunk in ranges.chunks(4) {
            // Acquire a batch of pairwise-disjoint ranges together.
            let mut held: Vec<_> = Vec::new();
            for r in chunk {
                if held.iter().all(|g: &range_locks_repro::range_lock::ListGuard<'_, range_locks_repro::range_lock::Exclusive>| !g.range().overlaps(r)) {
                    held.push(lock.write(*r));
                }
            }
            drop(held);
        }
        prop_assert!(lock.is_quiescent());
    }

    /// Reader-writer list lock: any interleaving of non-overlapping
    /// single-thread acquisitions leaves the lock quiescent.
    #[test]
    fn rw_list_lock_sequential_usage(ops in proptest::collection::vec((range_strategy(), any::<bool>()), 1..64)) {
        let lock = RwListRangeLock::new();
        for (range, reader) in ops {
            let guard = if reader { lock.read(range) } else { lock.write(range) };
            prop_assert_eq!(guard.range(), range);
            drop(guard);
        }
        prop_assert!(lock.is_quiescent());
    }

    /// The list locks behave identically under every wait policy for
    /// sequential usage: the policy only changes how contended waiters pass
    /// the time, which sequential runs never reach — so these pin the
    /// policy-generic plumbing across the whole property space.
    #[test]
    fn list_lock_sequential_usage_is_policy_independent(
        ranges in proptest::collection::vec(range_strategy(), 1..32),
    ) {
        use range_locks_repro::rl_sync::wait::{Block, Spin};
        let spin = ListRangeLock::<Spin>::with_policy();
        let block = ListRangeLock::<Block>::with_policy();
        for r in &ranges {
            drop(spin.write(*r));
            drop(block.write(*r));
        }
        prop_assert!(spin.is_quiescent());
        prop_assert!(block.is_quiescent());
    }

    /// Reader-writer variant of the policy-independence property.
    #[test]
    fn rw_list_lock_sequential_usage_is_policy_independent(
        ops in proptest::collection::vec((range_strategy(), any::<bool>()), 1..32),
    ) {
        use range_locks_repro::rl_sync::wait::{Block, Spin};
        let spin = RwListRangeLock::<Spin>::with_policy();
        let block = RwListRangeLock::<Block>::with_policy();
        for (range, reader) in ops {
            let (a, b) = if reader {
                (spin.read(range), block.read(range))
            } else {
                (spin.write(range), block.write(range))
            };
            prop_assert_eq!(a.range(), range);
            prop_assert_eq!(b.range(), range);
            drop(a);
            drop(b);
        }
        prop_assert!(spin.is_quiescent());
        prop_assert!(block.is_quiescent());
    }

    /// The VMA-space mmap/munmap/mprotect logic agrees with a simple
    /// page-protection model (a BTreeMap from page index to protection).
    #[test]
    fn memory_space_matches_page_model(ops in proptest::collection::vec((0u64..64, 1u64..16, 0u8..3), 1..60)) {
        let mut space = MemorySpace::new();
        let mut model: BTreeMap<u64, Protection> = BTreeMap::new();
        let base = 0x100000u64;
        // Start from one big PROT_NONE mapping of 128 pages.
        space.mmap(Some(base), 128 * PAGE_SIZE, Protection::NONE).unwrap();
        for page in 0..128u64 {
            model.insert(page, Protection::NONE);
        }
        for (page, len, prot_sel) in ops {
            let len = len.min(128 - page);
            if len == 0 { continue; }
            let prot = match prot_sel {
                0 => Protection::NONE,
                1 => Protection::READ,
                _ => Protection::READ_WRITE,
            };
            space.mprotect_structural(base + page * PAGE_SIZE, len * PAGE_SIZE, prot).unwrap();
            for p in page..page + len {
                model.insert(p, prot);
            }
            space.tree().check_invariants().map_err(TestCaseError::fail)?;
        }
        // Every page's effective protection must match the model.
        for (page, prot) in &model {
            let vma = space.find_vma(base + page * PAGE_SIZE).unwrap();
            prop_assert!(vma.contains(base + page * PAGE_SIZE));
            prop_assert_eq!(vma.protection(), *prot);
        }
        // VMAs must be coalesced: no two adjacent VMAs share a protection.
        let vmas = space.tree().to_vec();
        for pair in vmas.windows(2) {
            if pair[0].end() == pair[1].start() {
                prop_assert_ne!(pair[0].protection(), pair[1].protection());
            }
        }
    }

    /// Both skip lists behave exactly like BTreeSet under a random
    /// single-threaded operation sequence.
    #[test]
    fn skip_lists_match_btreeset(ops in proptest::collection::vec((1u64..300, 0u8..3), 1..300)) {
        let optimistic = OptimisticSkipList::new();
        let range_locked: RangeSkipList<RwListRangeLock> = RangeSkipList::default();
        let mut oracle = BTreeSet::new();
        for (key, op) in ops {
            match op {
                0 => {
                    let expected = oracle.insert(key);
                    prop_assert_eq!(optimistic.insert(key), expected);
                    prop_assert_eq!(range_locked.insert(key), expected);
                }
                1 => {
                    let expected = oracle.remove(&key);
                    prop_assert_eq!(optimistic.remove(key), expected);
                    prop_assert_eq!(range_locked.remove(key), expected);
                }
                _ => {
                    let expected = oracle.contains(&key);
                    prop_assert_eq!(optimistic.contains(key), expected);
                    prop_assert_eq!(range_locked.contains(key), expected);
                }
            }
        }
        let expected: Vec<u64> = oracle.iter().copied().collect();
        prop_assert_eq!(optimistic.to_vec(), expected.clone());
        prop_assert_eq!(range_locked.to_vec(), expected);
    }
}
