//! End-to-end integration tests of the VM stack: arena allocator → simulated
//! mm → range locks, plus a small Metis run per strategy.

use std::sync::Arc;

use range_locks_repro::rl_metis::{run, MetisConfig, Workload};
use range_locks_repro::rl_vm::{Arena, Mm, Protection, Strategy, PAGE_SIZE};

const ALL_STRATEGIES: [Strategy; 7] = [
    Strategy::STOCK,
    Strategy::TREE_FULL,
    Strategy::LIST_FULL,
    Strategy::TREE_REFINED,
    Strategy::LIST_REFINED,
    Strategy::LIST_PF,
    Strategy::LIST_MPROTECT,
];

#[test]
fn arena_lifecycle_is_identical_across_strategies() {
    // The VMA layout after a fixed allocation script must not depend on the
    // synchronization strategy: synchronization changes performance, not
    // semantics.
    let mut snapshots = Vec::new();
    for strategy in ALL_STRATEGIES {
        let mm = Arc::new(Mm::new(strategy));
        let mut arena = Arena::new(Arc::clone(&mm), 1 << 20).unwrap();
        for _ in 0..64 {
            arena.alloc(3 * 1024).unwrap();
        }
        arena.trim().unwrap();
        let snapshot: Vec<(u64, u64, u8)> = mm
            .vma_snapshot()
            .into_iter()
            .map(|(s, e, p)| (s - arena.base(), e - arena.base(), p.bits()))
            .collect();
        snapshots.push((strategy.name, snapshot));
    }
    let (first_name, first) = &snapshots[0];
    for (name, snapshot) in &snapshots[1..] {
        assert_eq!(snapshot, first, "{name} diverged from {first_name}");
    }
}

#[test]
fn concurrent_arena_threads_do_not_corrupt_the_address_space() {
    for strategy in [
        Strategy::STOCK,
        Strategy::TREE_REFINED,
        Strategy::LIST_REFINED,
    ] {
        let mm = Arc::new(Mm::new(strategy));
        let threads = 6;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let mm = Arc::clone(&mm);
            handles.push(std::thread::spawn(move || {
                let mut arena = Arena::new(mm, 8 << 20).unwrap();
                for i in 0..500u64 {
                    let addr = arena.alloc(1_500).unwrap();
                    arena.read(addr, 1_500).unwrap();
                    if i % 100 == 99 {
                        arena.reset().unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All arenas dropped: the address space must be empty again.
        assert_eq!(mm.vma_count(), 0, "strategy {}", strategy.name);
        let stats = mm.stats();
        assert_eq!(stats.mmaps, threads as u64);
        assert_eq!(stats.munmaps, threads as u64);
        assert!(stats.page_faults > 0);
    }
}

#[test]
fn page_fault_permission_checks_hold_under_every_strategy() {
    for strategy in ALL_STRATEGIES {
        let mm = Mm::new(strategy);
        let base = mm.mmap(None, 16 * PAGE_SIZE, Protection::NONE).unwrap();
        mm.mprotect(base, 4 * PAGE_SIZE, Protection::READ).unwrap();
        assert!(mm.page_fault(base, false).is_ok());
        assert!(mm.page_fault(base, true).is_err(), "{}", strategy.name);
        assert!(mm.page_fault(base + 8 * PAGE_SIZE, false).is_err());
        mm.mprotect(base, 4 * PAGE_SIZE, Protection::READ_WRITE)
            .unwrap();
        assert!(mm.page_fault(base + PAGE_SIZE, true).is_ok());
    }
}

#[test]
fn every_registry_variant_and_wait_policy_runs_the_arena_lifecycle() {
    // The 15-row sweep (5 registry variants × 3 wait policies, fully
    // refined) must produce the same VMA layout as the stock semaphore for
    // a fixed allocation script.
    let reference = {
        let mm = Arc::new(Mm::new(Strategy::STOCK));
        let mut arena = Arena::new(Arc::clone(&mm), 1 << 20).unwrap();
        for _ in 0..48 {
            arena.alloc(2 * 1024).unwrap();
        }
        arena.trim().unwrap();
        normalized_snapshot(&mm, arena.base())
    };
    for strategy in Strategy::SWEEP {
        let mm = Arc::new(Mm::new(strategy));
        let mut arena = Arena::new(Arc::clone(&mm), 1 << 20).unwrap();
        for _ in 0..48 {
            arena.alloc(2 * 1024).unwrap();
        }
        arena.trim().unwrap();
        assert_eq!(
            normalized_snapshot(&mm, arena.base()),
            reference,
            "{} diverged from stock",
            strategy.name
        );
    }
}

fn normalized_snapshot(mm: &Mm, base: u64) -> Vec<(u64, u64, u8)> {
    mm.vma_snapshot()
        .into_iter()
        .map(|(s, e, p)| (s - base, e - base, p.bits()))
        .collect()
}

#[test]
fn speculative_mprotect_matches_the_structural_path_under_concurrent_faults() {
    // Differential test of Listing 4: the speculative mprotect must leave a
    // byte-identical protection map to the full-range structural path for
    // the same script, even while other threads fault all over the region.
    use std::sync::atomic::{AtomicBool, Ordering};

    // LIST_PF refines faults but routes every mprotect through the
    // structural full-range path, so it is the oracle for LIST_REFINED.
    let spec = Arc::new(Mm::new(Strategy::LIST_REFINED));
    let full = Arc::new(Mm::new(Strategy::LIST_PF));

    let mut bases = Vec::new();
    for mm in [&spec, &full] {
        bases.push(mm.mmap(None, 1 << 22, Protection::NONE).unwrap());
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for (mm, base) in [(&spec, bases[0]), (&full, bases[1])] {
        for t in 0..2u64 {
            let mm = Arc::clone(mm);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Faults race with the mprotect script and may hit
                    // PROT_NONE pages; only liveness matters here, the
                    // protection map is compared at the end.
                    let addr = base + ((t * 13 + i * 7) % 1024) * PAGE_SIZE;
                    let _ = mm.page_fault(addr, i.is_multiple_of(3));
                    i += 1;
                }
            }));
        }
    }

    // The same deterministic mix of boundary moves, splits, merges and
    // re-protections on both address spaces.
    for round in 0..120u64 {
        let pages = 1 + round % 7;
        let at = (round * 37) % 900;
        let prot = match round % 3 {
            0 => Protection::READ_WRITE,
            1 => Protection::READ,
            _ => Protection::NONE,
        };
        for (mm, base) in [(&spec, bases[0]), (&full, bases[1])] {
            mm.mprotect(base + at * PAGE_SIZE, pages * PAGE_SIZE, prot)
                .unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(
        normalized_snapshot(&spec, bases[0]),
        normalized_snapshot(&full, bases[1]),
        "speculative and structural mprotect diverged"
    );
    let spec_stats = spec.stats();
    assert!(
        spec_stats.spec_success > 0,
        "the speculative path never ran: {spec_stats:?}"
    );
    assert_eq!(full.stats().spec_success, 0);
}

#[test]
fn metis_results_are_strategy_independent() {
    let config = MetisConfig {
        total_words: 12_000,
        ..MetisConfig::small(Workload::Wr, 3)
    };
    let mut distinct = Vec::new();
    for strategy in [Strategy::STOCK, Strategy::TREE_FULL, Strategy::LIST_REFINED] {
        let report = run(&config, strategy).unwrap();
        assert_eq!(report.total_count, report.words_processed);
        distinct.push(report.distinct_words);
    }
    assert!(distinct.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn refined_strategies_speculate_on_metis() {
    let config = MetisConfig::small(Workload::Wrmem, 4);
    let report = run(&config, Strategy::LIST_REFINED).unwrap();
    assert!(report.vm_stats.spec_success > 0);
    assert!(
        report.vm_stats.speculation_success_rate() > 0.9,
        "{:?}",
        report.vm_stats
    );
    // Full-range strategies must never report speculative successes.
    let report = run(&config, Strategy::LIST_FULL).unwrap();
    assert_eq!(report.vm_stats.spec_success, 0);
}

#[test]
fn every_fault_is_one_vmacache_hit_or_one_miss() {
    // `vmacache_hits` is derived as `page_faults - vmacache_misses`, which
    // is right only if every fault ends as exactly one hit or one miss. With
    // hits counted on their own, this identity held on every row below; with
    // them derived, it pins what is left to check from outside: misses never
    // outnumber faults, and a strategy without the cache reports neither.
    let config = MetisConfig::small(Workload::Wr, 2);
    for strategy in ALL_STRATEGIES.into_iter().chain(Strategy::SWEEP) {
        for strategy in [strategy, strategy.without_vmacache()] {
            let stats = run(&config, strategy).unwrap().vm_stats;
            assert!(stats.page_faults > 0, "{}: {stats:?}", strategy.name);
            if strategy.vmacache {
                assert_eq!(
                    stats.vmacache_hits + stats.vmacache_misses,
                    stats.page_faults,
                    "{}: {stats:?}",
                    strategy.name
                );
            } else {
                assert_eq!(
                    (stats.vmacache_hits, stats.vmacache_misses),
                    (0, 0),
                    "{} without vmacache: {stats:?}",
                    strategy.name
                );
            }
        }
    }
}
