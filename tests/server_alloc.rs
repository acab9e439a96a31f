//! Allocation budget of the in-process RPC path.
//!
//! A counting `#[global_allocator]` needs a binary of its own: every
//! allocation of every thread in the process lands in one counter, so this
//! file holds exactly one test and nothing runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use range_locks_repro::range_lock::Range;
use range_locks_repro::rl_server::{LockMode, Server, ServerConfig};

/// Heap allocations (`alloc` and `realloc` calls) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Steady-state heap allocations, all threads, of one `lock` + `unlock`
/// RPC pair over `Server::connect()`: 9 measured, plus one of slack for
/// the amortized growth of pools. Four of the 9 are the four frames —
/// each is the one `Vec` that moves through the peer's inbox — and five are
/// `LockTable`'s: the lock transaction's missing list and held tiles and
/// the boxed dyn guard, the unlock transaction's detached tiles and
/// originals. Pending acquisitions are not among them: the token is a plain
/// value, so a dyn enqueue allocates nothing.
///
/// Earlier commits measured 13 (two-level records: per-record tile `Vec`s,
/// shapes, a tile pool) and, before the `FrameWriter`/`RequestView` codec,
/// 26 (the client's `path.to_string()`, the encoder's `Vec` regrowing from
/// empty, `payload.to_vec()` into the inbox and the decoder's `String`, per
/// direction where they apply).
const BUDGET: u64 = 10;

#[test]
fn lock_unlock_pair_stays_inside_its_allocation_budget() {
    const PAIRS: u64 = 2000;
    // One worker: a session that migrates between workers takes list
    // nodes from one thread's reclaim pool and retires them into another's,
    // and the refills that causes depend on the scheduler, not on the code.
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = server.connect();
    client.hello("budget").unwrap();
    let range = Range::new(4096, 8192);
    let mut pairs = |n: u64| {
        for _ in 0..n {
            client
                .lock("/budget/f", range, LockMode::Exclusive)
                .unwrap();
            client.unlock("/budget/f", range).unwrap();
        }
    };
    // Warm-up: the owner, the table, pools and thread-locals exist.
    pairs(200);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    pairs(PAIRS);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    client.bye().unwrap();
    server.shutdown();
    let per_pair = spent as f64 / PAIRS as f64;
    eprintln!("allocations per lock+unlock pair: {per_pair:.2}");
    assert!(
        spent <= BUDGET * PAIRS,
        "{per_pair:.2} allocations per lock+unlock pair exceed the budget of {BUDGET}"
    );
}
