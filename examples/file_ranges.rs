//! The original range-lock use case, on the real file subsystem.
//!
//! Run with `cargo run --example file_ranges --release`.
//!
//! Byte-range locking in file systems is where range locks come from
//! (Lustre's byte-range locks, pNOVA's per-file segments — the paper's
//! baselines). This example drives `rl-file`'s [`FileStore`]: several writers
//! stamp disjoint-or-conflicting regions of one shared file while readers
//! verify region integrity, once per lock variant, so the scalability gap
//! between the tree baseline and the paper's list lock shows up on a real
//! `pread`/`pwrite` path. A second part demonstrates the POSIX-style
//! [`LockTable`]: owner-named locks that split, merge and upgrade on re-lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use range_lock::{ListRangeLock, Range, RwListRangeLock, RwRangeLock, TwoPhaseRwRangeLock};
use rl_baselines::TreeRangeLock;
use rl_file::{FileStore, LockMode, LockTable, RangeFile};
use rl_sync::LabeledStats;

const FILE_SIZE: u64 = 1 << 20;
const REGION: u64 = 512;
const OPS_PER_THREAD: u64 = 4_000;

#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Mixed reader/writer storm over one file of `store`; panics on any
/// integrity violation.
fn run_store<L: RwRangeLock + 'static>(name: &str, store: &FileStore<L>, threads: usize) {
    let file = store.open("/data/shared.bin");
    file.truncate(FILE_SIZE);
    let torn = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let file = Arc::clone(&file);
            let torn = Arc::clone(&torn);
            scope.spawn(move || {
                let mut rng = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..OPS_PER_THREAD {
                    let offset = (xorshift(&mut rng) % (FILE_SIZE / REGION)) * REGION;
                    if xorshift(&mut rng) % 100 < 70 {
                        if file.read_stamped(offset, REGION as usize).is_none() {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if !file.write_stamped(offset, REGION as usize, t as u8 + 1) {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let total = threads as u64 * OPS_PER_THREAD;
    println!(
        "{name:>10}: {threads} threads, {total} region ops in {elapsed:?} ({:.0} ops/s), torn: {}",
        total as f64 / elapsed.as_secs_f64(),
        torn.load(Ordering::Relaxed)
    );
    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "range lock failed to serialize conflicting region I/O"
    );
}

fn print_table_state<L: TwoPhaseRwRangeLock + 'static>(what: &str, table: &LockTable<L>) {
    print!("  {what}:");
    for rec in table.records() {
        print!(
            " {}:[{}, {}):{}",
            rec.owner,
            rec.range.start,
            rec.range.end,
            rec.mode.name()
        );
    }
    println!();
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(4);

    println!("concurrent region I/O over one {FILE_SIZE}-byte file in rl-file::FileStore\n");

    // The paper's reader-writer list lock...
    let store = FileStore::new(|| RangeFile::new(RwListRangeLock::new()));
    run_store("list-rw", &store, threads);
    // ...the exclusive list lock (readers serialize)...
    let store = FileStore::new(|| RangeFile::new(ListRangeLock::new()));
    run_store("list-ex", &store, threads);
    // ...and the Lustre/Kara tree baseline the paper starts from.
    let store = FileStore::new(|| RangeFile::new(TreeRangeLock::new()));
    run_store("lustre-ex", &store, threads);

    // Per-operation wait accounting, the Figures 7-8 analogue for files.
    let ops = LabeledStats::new();
    let file = RangeFile::new(RwListRangeLock::new()).with_op_stats(&ops);
    file.pwrite(0, &[1u8; 4096]);
    let mut buf = [0u8; 1024];
    file.pread(512, &mut buf);
    file.append(&[2u8; 128]);
    println!("\nper-operation lock acquisition latency (single-threaded):");
    for snap in ops.snapshots() {
        if snap.acquisitions > 0 {
            println!(
                "  {:>8}: {} acquisition(s), avg {:.0} ns",
                snap.name,
                snap.acquisitions,
                snap.avg_wait_per_acquisition_ns().unwrap_or(0.0)
            );
        }
    }

    // The POSIX-style lock table: split, merge, upgrade, release-on-drop.
    println!("\nfcntl-style LockTable over the list-rw lock:");
    let table = Arc::new(LockTable::new(RwListRangeLock::new()));
    let mut alice = table.owner("alice");
    let mut bob = table.owner("bob");
    alice
        .lock(Range::new(0, 100), LockMode::Shared)
        .expect("no cycle here");
    bob.lock(Range::new(100, 200), LockMode::Shared)
        .expect("no cycle here");
    print_table_state("two shared owners", &table);
    alice
        .lock(Range::new(40, 60), LockMode::Exclusive)
        .expect("no cycle here");
    print_table_state("alice upgrades [40, 60) — her record splits", &table);
    match bob.try_lock(Range::new(50, 55), LockMode::Shared) {
        Err(e) => println!("  bob try-locks [50, 55) shared: {e}"),
        Ok(()) => unreachable!("alice holds [40, 60) exclusively"),
    }
    alice
        .lock(Range::new(40, 60), LockMode::Shared)
        .expect("no cycle here");
    print_table_state("alice downgrades — records merge back", &table);
    drop(alice);
    print_table_state("alice drops — her locks vanish", &table);
    bob.unlock_all();

    println!("\nAll locks serialized correctly; compare the ops/s lines for the scalability gap.");
}
