//! Allocation budgets of the lock and I/O paths, as counts per request.
//!
//! A counting `#[global_allocator]` needs a binary of its own: every
//! allocation of every thread in the process lands in one counter (and in
//! the allocating thread's own), so the tests here take turns and nothing
//! else runs beside them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use range_locks_repro::range_lock::{
    ListLockConfig, Range, RwListRangeLock, RwRangeLock, TwoPhaseRwRangeLock,
};
use range_locks_repro::rl_baselines::registry::{self, RegistryConfig};
use range_locks_repro::rl_server::wire::{decode_reply, encode_request};
use range_locks_repro::rl_server::{
    Conn, LockMode, Reply, Request, Server, ServerConfig, MAX_FRAME,
};
use range_locks_repro::rl_sync::wait::WaitPolicyKind;

/// Heap allocations (`alloc` and `realloc` calls) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes those calls asked for (a `realloc` counts its new size).
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The same count, for the calling thread alone.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Held by each test for its whole run: every test reads a process-wide
/// count, so no two may run at once.
static SERIAL: Mutex<()> = Mutex::new(());

fn count_one(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with`: a thread being torn down may still allocate.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Steady-state heap allocations, all threads, of one `lock` + `unlock`
/// RPC pair over `Server::connect()`: 0 measured, plus one of slack for
/// the amortized growth of pools. The frames are not among them — one `Vec`
/// ping-pongs between client and session, carrying each request and then
/// its reply — and neither is `LockTable`: a transaction keeps its tiles
/// and missing guards inline, and commits a lone tile in place. The lock
/// itself never allocated: its pending and held ranges are plain tokens.
const BUDGET: u64 = 1;

/// One worker: a session that migrates between workers takes list nodes
/// from one thread's reclaim pool and retires them into another's, and the
/// refills that causes depend on the scheduler, not on the code.
fn one_worker_server() -> Server {
    Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
}

/// The fewest allocations, all threads, over three runs of `f`. The test
/// harness's main thread allocates as it reports a finished test, which
/// can overlap one run of the next test; a cost of the code under test
/// shows in every run.
fn fewest(mut f: impl FnMut()) -> u64 {
    (0..3).map(|_| spent(&mut f).0).min().expect("three runs")
}

/// Allocations and bytes allocated, all threads, while `f` runs.
fn spent(f: impl FnOnce()) -> (u64, u64) {
    let (calls, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    f();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - calls,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn lock_unlock_pair_stays_inside_its_allocation_budget() {
    const PAIRS: u64 = 2000;
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = one_worker_server();
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
    let spent = fewest(|| pairs(PAIRS));
    client.bye().unwrap();
    server.shutdown();
    let per_pair = spent as f64 / PAIRS as f64;
    eprintln!("allocations per lock+unlock pair: {per_pair:.2}");
    assert!(
        spent <= BUDGET * PAIRS,
        "{per_pair:.2} allocations per lock+unlock pair exceed the budget of {BUDGET}"
    );
}

/// A 256-byte `Read` RPC allocates once — the `Vec` `Client::read` returns —
/// and a 256-byte `Write` RPC not at all: the session reads into a scratch
/// buffer it keeps, writes from the request frame, and resolves the path
/// through its path handle.
#[test]
fn read_and_write_rpcs_stay_inside_their_allocation_budgets() {
    const RPCS: u64 = 2000;
    const READ_BUDGET: u64 = 1;
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = one_worker_server();
    let mut client = server.connect();
    client.hello("io-budget").unwrap();
    let data = [7u8; 256];
    let mut writes = |n: u64| {
        for _ in 0..n {
            client.write("/budget/io", 4096, &data).unwrap();
        }
    };
    writes(200);
    let write_spent = fewest(|| writes(RPCS));
    let mut reads = |n: u64| {
        for _ in 0..n {
            assert_eq!(client.read("/budget/io", 4096, 256).unwrap(), data);
        }
    };
    reads(200);
    let read_spent = fewest(|| reads(RPCS));
    client.bye().unwrap();
    server.shutdown();
    eprintln!(
        "allocations per read RPC: {:.2}, per write RPC: {:.2}",
        read_spent as f64 / RPCS as f64,
        write_spent as f64 / RPCS as f64
    );
    assert!(
        read_spent <= READ_BUDGET * RPCS,
        "{read_spent} allocations over {RPCS} reads exceed {READ_BUDGET} per RPC"
    );
    assert_eq!(
        write_spent, 0,
        "{write_spent} allocations over {RPCS} writes: the budget is none"
    );
}

/// A 20-byte `Read` request for the largest read the server serves, of a
/// 1-byte file, allocates what the file holds, not what was asked: the
/// server must not zero-fill ~16 MiB per such request.
#[test]
fn a_tiny_read_of_a_huge_length_allocates_what_the_file_holds() {
    const CAP: u64 = 64 * 1024;
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = one_worker_server();
    let mut client = server.connect();
    client.write("/budget/tiny", 0, b"x").unwrap();
    assert_eq!(client.read("/budget/tiny", 0, 1).unwrap(), b"x");
    let max_read = (MAX_FRAME - 64) as u32;
    let (_, bytes) = spent(|| {
        assert_eq!(client.read("/budget/tiny", 0, max_read).unwrap(), b"x");
    });
    client.bye().unwrap();
    server.shutdown();
    eprintln!("bytes allocated by a {max_read}-byte read of a 1-byte file: {bytes}");
    assert!(
        bytes < CAP,
        "a {max_read}-byte read of a 1-byte file allocated {bytes} bytes"
    );
}

/// One raw in-process session: frames in, frames out, no `Client`.
struct Raw(Conn);

impl Raw {
    fn attach(server: &Server, name: &str) -> Raw {
        let (client_end, server_end) = Conn::pair();
        server.attach(server_end);
        let raw = Raw(client_end);
        raw.send(&encode_request(&Request::Hello {
            name: name.to_string(),
        }));
        raw.expect_ok();
        raw
    }

    fn send(&self, frame: &[u8]) {
        self.0.send(frame).unwrap();
    }

    fn expect_ok(&self) {
        let reply = self.0.recv_blocking().expect("the session is alive");
        assert_eq!(decode_reply(&reply), Ok(Reply::Ok));
    }
}

/// Allocations per suspended hand-off between two raw sessions (the
/// `srv-handoff` shape): the waiter's `Lock` suspends server-side, the
/// holder's `Unlock` grants it, and both replies come back, each encoded
/// into the request frame it answers. The test's own `Conn::send` copies
/// its two request frames into fresh `Vec`s: 2 of the budget. The third is
/// the one wake: the lock's wait queue collects the wakers it claims into
/// a `Vec` before signalling them outside its mutex. The waits-for graph
/// adds none — it reuses its edge sets and skips the cycle search, because
/// the holder is not waiting. 3 measured, plus one of slack.
const HANDOFF_BUDGET: u64 = 4;

#[test]
fn a_suspended_hand_off_stays_inside_its_allocation_budget() {
    const HANDOFFS: u64 = 2000;
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = one_worker_server();
    let sessions = [Raw::attach(&server, "left"), Raw::attach(&server, "right")];
    let lock = encode_request(&Request::Lock {
        path: "/budget/handoff".to_string(),
        start: 0,
        end: 256,
        mode: LockMode::Exclusive,
    });
    let unlock = encode_request(&Request::Unlock {
        path: "/budget/handoff".to_string(),
        start: 0,
        end: 256,
    });
    sessions[0].send(&lock);
    sessions[0].expect_ok();
    let mut holder = 0;
    let mut hand_offs = |n: u64| {
        for _ in 0..n {
            let waiter = 1 - holder;
            sessions[waiter].send(&lock);
            sessions[holder].send(&unlock);
            sessions[holder].expect_ok();
            sessions[waiter].expect_ok();
            holder = waiter;
        }
    };
    hand_offs(200);
    let spent = fewest(|| hand_offs(HANDOFFS));
    drop(sessions);
    server.shutdown();
    let per_handoff = spent as f64 / HANDOFFS as f64;
    eprintln!("allocations per suspended hand-off: {per_handoff:.2}");
    assert!(
        spent <= HANDOFF_BUDGET * HANDOFFS,
        "{per_handoff:.2} allocations per hand-off exceed the budget of {HANDOFF_BUDGET}"
    );
}

/// The calling thread's allocations over `n` read + write pairs on `lock`,
/// after a warm-up that fills the node pools.
fn read_write_pairs<L: RwRangeLock>(lock: &L, n: u64) -> u64 {
    let range = Range::new(4096, 8192);
    let pairs = || {
        for _ in 0..n {
            drop(lock.read(range));
            drop(lock.write(range));
        }
    };
    pairs();
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    pairs();
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// A registry lock behind `dyn` costs no allocation a static lock does not:
/// its guard holds the same concrete token by value.
#[test]
fn a_registry_dyn_lock_allocates_no_more_than_a_static_one() {
    const PAIRS: u64 = 2000;
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = registry::by_name("list-rw").expect("list-rw is registered");
    let dyn_lock: Box<dyn TwoPhaseRwRangeLock> =
        spec.build(WaitPolicyKind::Block, &RegistryConfig::default());
    let dyn_spent = read_write_pairs(&dyn_lock, PAIRS);
    let static_lock = RwListRangeLock::with_config(ListLockConfig {
        wait: WaitPolicyKind::Block,
        ..ListLockConfig::default()
    });
    let static_spent = read_write_pairs(&static_lock, PAIRS);
    eprintln!("allocations over {PAIRS} read+write pairs: dyn {dyn_spent}, static {static_spent}");
    assert!(
        dyn_spent <= static_spent,
        "the dyn lock allocated {dyn_spent} times where the static lock allocated {static_spent}"
    );
}
