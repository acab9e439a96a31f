//! Torn-read/-write storm over the `rl-file` subsystem, for every lock
//! variant.
//!
//! A shared [`RangeFile`] is hammered by a mixed reader/writer storm on
//! aligned regions: writers stamp a whole region with their tag under one
//! write acquisition and re-read it before releasing; readers require a
//! region to be uniformly one tag. Any exclusion violation by the lock under
//! test — a torn write or a torn read — is therefore counted, and the test
//! asserts the count is zero for all five variants (the exclusive locks
//! serialize their readers). A second storm drives the
//! [`LockTable`] from many concurrently dropping owners, once with
//! single-slot lock/unlock pairs and once with owners that also split,
//! upgrade and downgrade what they hold. A negative control
//! runs the stamped protocol over a lock that excludes nothing and requires
//! the violations to be *reported* — the zero counts above mean something
//! only while the checker still bites.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use range_locks_repro::range_lock::{
    Held, ListRangeLock, LockId, Range, RwListRangeLock, RwRangeLock,
};
use range_locks_repro::rl_baselines::{RwTreeRangeLock, SegmentRangeLock, TreeRangeLock};
use range_locks_repro::rl_file::{FileStore, LockMode, LockTable, RangeFile};

const FILE_SIZE: u64 = 1 << 16;
const REGION: u64 = 128;
const THREADS: usize = 6;
const OPS_PER_THREAD: u64 = 1_200;

#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs the mixed reader/writer storm over one file and returns the number
/// of observed integrity violations.
fn storm(lock: Box<dyn RwRangeLock>) -> u64 {
    let file = Arc::new(RangeFile::new(lock));
    file.truncate(FILE_SIZE);
    let violations = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let file = Arc::clone(&file);
            let violations = Arc::clone(&violations);
            scope.spawn(move || {
                let mut rng = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut torn = 0u64;
                for i in 0..OPS_PER_THREAD {
                    let region = xorshift(&mut rng) % (FILE_SIZE / REGION);
                    let offset = region * REGION;
                    // 60% reads, 40% writes, with occasional appends and a
                    // rare truncate thrown in for metadata pressure.
                    match xorshift(&mut rng) % 10 {
                        0..=5 => {
                            if file.read_stamped(offset, REGION as usize).is_none() {
                                torn += 1;
                            }
                        }
                        6..=8 => {
                            if !file.write_stamped(offset, REGION as usize, t as u8 + 1) {
                                torn += 1;
                            }
                        }
                        _ => {
                            if i % 64 == 0 {
                                file.truncate(FILE_SIZE);
                            } else {
                                file.append(&[t as u8 + 1; 32]);
                            }
                        }
                    }
                }
                violations.fetch_add(torn, Ordering::Relaxed);
            });
        }
    });
    violations.load(Ordering::Relaxed)
}

#[test]
fn no_torn_io_under_list_rw() {
    assert_eq!(storm(Box::new(RwListRangeLock::new())), 0);
}

#[test]
fn no_torn_io_under_kernel_rw() {
    assert_eq!(storm(Box::new(RwTreeRangeLock::new())), 0);
}

#[test]
fn no_torn_io_under_pnova_rw() {
    // One segment per 4 KiB page, pNOVA's natural granularity.
    let lock = SegmentRangeLock::new(FILE_SIZE, (FILE_SIZE >> 12) as usize);
    assert_eq!(storm(Box::new(lock)), 0);
}

#[test]
fn no_torn_io_under_list_ex() {
    assert_eq!(storm(Box::new(ListRangeLock::new())), 0);
}

#[test]
fn no_torn_io_under_lustre_ex() {
    assert_eq!(storm(Box::new(TreeRangeLock::new())), 0);
}

/// A "range lock" that grants every request at once: the broken lock the
/// stamped-I/O checker exists to catch.
#[derive(Default)]
struct GrantAll(LockId);

impl RwRangeLock for GrantAll {
    fn acquire(&self, range: Range, mode: LockMode) -> Held {
        self.0.issue(range, mode, 0)
    }

    fn try_acquire(&self, range: Range, mode: LockMode) -> Option<Held> {
        Some(self.acquire(range, mode))
    }

    fn release(&self, held: Held) {
        self.0.verify(&held);
    }

    fn name(&self) -> &'static str {
        "grant-all"
    }
}

/// Negative control: two stamped writers racing over one span with no
/// exclusion at all must be caught by the writers' own re-read.
#[test]
fn stamped_io_reports_a_lock_that_excludes_nothing() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        eprintln!("skipped: two writers cannot run at once on 1 CPU");
        return;
    }
    const SPAN: usize = 64 << 10;
    let file = RangeFile::new(Box::new(GrantAll::default()));
    let violations = AtomicU64::new(0);
    let start = Barrier::new(2);
    let deadline = Instant::now() + Duration::from_secs(20);
    std::thread::scope(|scope| {
        for tag in [1u8, 2] {
            let (file, violations, start) = (&file, &violations, &start);
            scope.spawn(move || {
                start.wait();
                while violations.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
                    if !file.write_stamped(0, SPAN, tag) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert!(
        violations.load(Ordering::Relaxed) > 0,
        "two unexcluded stamped writers over one span were never reported"
    );
}

/// How one owner of [`table_storm`] picks its operations.
#[derive(Clone, Copy, Debug)]
enum TableInput {
    /// Lock one slot, stamp or check it, unlock it: every operation is one
    /// of the table's plans that wait for nothing but the lock.
    OneSlot,
    /// Lock 1–3 slots, then sometimes unlock the first or last slot (a
    /// split: the kept edge is re-taken) and re-lock what is left in the
    /// other mode (an upgrade or an in-place downgrade), checking the
    /// stamps after every step. Owners on the no-wait plans and owners in
    /// full transactions interleave over the same slots.
    Reshaping,
}

const SLOTS: u64 = 16;
const SLOT: u64 = 256;

/// Stamps every byte of `range` with `tag` one `pwrite` at a time and reads
/// it back: only the table's exclusion keeps another owner out in between.
fn stamp_holds(file: &RangeFile, range: Range, tag: u8) -> bool {
    for b in range.start..range.end {
        file.pwrite(b, &[tag]);
    }
    let mut buf = vec![0u8; (range.end - range.start) as usize];
    file.pread(range.start, &mut buf);
    buf.iter().all(|&b| b == tag)
}

/// Whether every slot of `range` reads as one writer's stamp (each writer
/// stamps whole slots, so a mixed slot is a torn one).
fn slots_uniform(file: &RangeFile, range: Range) -> bool {
    let mut buf = vec![0u8; (range.end - range.start) as usize];
    file.pread(range.start, &mut buf);
    buf.chunks(SLOT as usize)
        .all(|slot| slot.iter().all(|&b| b == slot[0]))
}

/// Concurrent owners on one lock table: writers hold exclusive table locks
/// while stamping their span through a plain (unlocked) side buffer of the
/// file, so any failure of the table's cross-owner exclusion shows up as a
/// torn span. Returns the `EDEADLK`s surfaced, which are legitimate: POSIX
/// lets a blocking lock refuse when waiting could close a cycle.
fn table_storm(input: TableInput) -> u64 {
    const OWNERS: u64 = 4;
    let table = Arc::new(LockTable::new(Box::new(RwListRangeLock::new())));
    let file = Arc::new(RangeFile::new(Box::new(RwListRangeLock::new())));
    file.truncate(SLOTS * SLOT);
    let violations = Arc::new(AtomicU64::new(0));
    let deadlocks = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..OWNERS)
        .map(|t| {
            let table = Arc::clone(&table);
            let file = Arc::clone(&file);
            let violations = Arc::clone(&violations);
            let deadlocks = Arc::clone(&deadlocks);
            std::thread::spawn(move || {
                let mut owner = table.owner(format!("owner-{t}"));
                let mut rng = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let tag = t as u8 + 1;
                // Whether `range` holds up under `mode`.
                let check = |range: Range, mode: LockMode| match mode {
                    LockMode::Exclusive => stamp_holds(&file, range, tag),
                    LockMode::Shared => slots_uniform(&file, range),
                };
                for _ in 0..300 {
                    let slots = match input {
                        TableInput::OneSlot => 1,
                        TableInput::Reshaping => 1 + xorshift(&mut rng) % 3,
                    };
                    let first = xorshift(&mut rng) % (SLOTS - slots + 1);
                    let mut range = Range::new(first * SLOT, (first + slots) * SLOT);
                    let mut mode = if xorshift(&mut rng).is_multiple_of(2) {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    let mut ok = owner.lock(range, mode).is_ok();
                    if ok && !check(range, mode) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    if ok && matches!(input, TableInput::Reshaping) {
                        let coin = xorshift(&mut rng);
                        if slots > 1 && coin.is_multiple_of(2) {
                            // Unlock the first or the last slot: a split,
                            // whose kept edge is re-taken.
                            let (cut, kept) = if coin.is_multiple_of(4) {
                                let at = range.start + SLOT;
                                (Range::new(range.start, at), Range::new(at, range.end))
                            } else {
                                let at = range.end - SLOT;
                                (Range::new(at, range.end), Range::new(range.start, at))
                            };
                            owner.unlock(cut);
                            range = kept;
                            if !check(range, mode) {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if !coin.is_multiple_of(3) {
                            mode = match mode {
                                LockMode::Exclusive => LockMode::Shared,
                                LockMode::Shared => LockMode::Exclusive,
                            };
                            ok = owner.lock(range, mode).is_ok();
                            if ok && !check(range, mode) {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    if !ok {
                        deadlocks.fetch_add(1, Ordering::Relaxed);
                    }
                    owner.unlock_all();
                }
                // Leave some locks held so the drop path gets exercised.
                let parked = 100_000 + t * 10_000;
                owner
                    .lock(Range::new(parked, parked + 100), LockMode::Exclusive)
                    .unwrap();
            })
        })
        .collect();
    // Bounded join: a storm that outlives the deadline is a wedged one.
    let deadline = Instant::now() + Duration::from_secs(60);
    for handle in handles {
        while !handle.is_finished() {
            assert!(Instant::now() < deadline, "{input:?}: table storm wedged");
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().unwrap();
    }
    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "{input:?}: torn span"
    );
    // Every owner has been dropped; the table must be empty again.
    assert_eq!(table.held_records(), 0, "{input:?}: residue");
    assert_eq!(
        table.waiting_owners(),
        0,
        "{input:?}: stale waits-for edges"
    );
    let surfaced = deadlocks.load(Ordering::Relaxed);
    assert_eq!(table.deadlocks_detected(), surfaced, "{input:?}");
    surfaced
}

#[test]
fn lock_table_excludes_concurrent_owners() {
    assert_eq!(table_storm(TableInput::OneSlot), 0);
    let deadlocks = table_storm(TableInput::Reshaping);
    eprintln!("reshaping owners surfaced {deadlocks} EDEADLK");
}

/// The sharded store hands out one file per path under concurrent opens.
#[test]
fn file_store_concurrent_opens_agree() {
    let store = Arc::new(FileStore::new(|| {
        RangeFile::new(Box::new(RwListRangeLock::new()))
    }));
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..50 {
                    let file = store.open(&format!("/shared/{}", i % 10));
                    file.append(&[t as u8 + 1; 16]);
                }
            });
        }
    });
    assert_eq!(store.file_count(), 10);
    let total: u64 = (0..10)
        .map(|i| store.open(&format!("/shared/{i}")).len())
        .sum();
    // 4 threads x 50 appends x 16 bytes.
    assert_eq!(total, 4 * 50 * 16);
}
