//! Epoch-based memory reclamation with per-thread node pools (Section 4.4).
//!
//! The list-based range lock lets threads traverse list nodes concurrently
//! with threads unlinking those nodes, so a node cannot be freed or reused
//! the moment it is removed from the list: another thread may still hold a
//! reference obtained during its traversal. The paper's user-space solution is
//! epoch-based reclamation augmented with two thread-local node pools, and
//! this module is a faithful implementation of that scheme:
//!
//! * Every thread owns an **epoch counter**, incremented right before its
//!   first reference to a list node during an acquisition (making it odd) and
//!   right after its last reference (making it even again). In this module
//!   the odd/even window is expressed by the RAII [`Pin`] guard.
//! * Every thread owns two pools of nodes: an **active** pool from which new
//!   nodes are allocated and a **reclaimed** pool collecting nodes the thread
//!   has unlinked from a list.
//! * When the active pool runs dry, the thread runs a **barrier**: it walks
//!   the epochs of all other registered threads and, for each thread currently
//!   inside a critical section (odd epoch), waits for the epoch to change.
//!   After the barrier no thread can still hold a reference to any node in the
//!   reclaimed pool, so the two pools are swapped and the nodes are reused.
//! * After the swap the active pool is replenished to `N` nodes if it has
//!   fewer than `N / 2`, and trimmed back to `N` if it has more than `2 * N`
//!   (`N` = 128, as in the paper), so the steady-state memory footprint does
//!   not grow and the system allocator is only involved when the workload is
//!   imbalanced.
//!
//! One deviation from the paper, made for robustness rather than performance:
//! the barrier waits a bounded amount of time per thread. If a peer thread
//! stays inside a critical section for too long (for example it is busy
//! waiting for an overlapping range while pinned), the allocating thread
//! simply falls back to the system allocator and keeps its reclaimed pool for
//! a later attempt. This cannot affect correctness — it only delays reuse —
//! and it removes any possibility of a reclamation-induced deadlock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::node::LNode;
use crate::range::Range;

/// Target size of the per-thread active pool (the paper's `N = 128`).
pub const POOL_TARGET: usize = 128;

/// Maximum number of pause iterations the barrier spends on a single peer
/// thread before giving up and falling back to fresh allocation.
const BARRIER_SPIN_LIMIT: u32 = 4096;

/// Per-thread epoch slot registered with the global [`Domain`].
#[derive(Debug)]
struct ThreadSlot {
    /// Odd while the owning thread is inside a critical (pinned) section.
    epoch: AtomicU64,
    /// Set when the owning thread has exited; barriers skip retired slots.
    retired: AtomicBool,
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            epoch: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }
}

/// The global reclamation domain: the registry of every participating thread.
#[derive(Debug, Default)]
pub struct Domain {
    slots: Mutex<Vec<Arc<ThreadSlot>>>,
}

impl Domain {
    fn global() -> &'static Domain {
        static DOMAIN: OnceLock<Domain> = OnceLock::new();
        DOMAIN.get_or_init(Domain::default)
    }

    fn register(&self) -> Arc<ThreadSlot> {
        let slot = Arc::new(ThreadSlot::new());
        self.slots.lock().unwrap().push(Arc::clone(&slot));
        slot
    }

    /// Waits (bounded) for every other thread to leave its current critical
    /// section. Returns `true` if the barrier completed for all threads.
    fn barrier(&self, own: &ThreadSlot) -> bool {
        let slots: Vec<Arc<ThreadSlot>> = self.slots.lock().unwrap().clone();
        for slot in slots {
            if std::ptr::eq(&*slot, own) || slot.retired.load(Ordering::Acquire) {
                continue;
            }
            let observed = slot.epoch.load(Ordering::Acquire);
            if observed % 2 == 0 {
                continue;
            }
            let mut spins = 0u32;
            loop {
                if slot.epoch.load(Ordering::Acquire) != observed
                    || slot.retired.load(Ordering::Acquire)
                {
                    break;
                }
                spins += 1;
                if spins > BARRIER_SPIN_LIMIT {
                    return false;
                }
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        true
    }

    /// Drops retired slots that nobody references anymore. Called
    /// opportunistically on registration to keep the registry small in
    /// programs that create many short-lived threads.
    fn prune(&self) {
        self.slots
            .lock()
            .unwrap()
            .retain(|s| !(s.retired.load(Ordering::Acquire) && Arc::strong_count(s) == 1));
    }
}

/// Thread-local reclamation context: the epoch slot plus the two node pools.
struct ThreadCtx {
    slot: Arc<ThreadSlot>,
    /// Nesting depth of [`Pin`] guards; the epoch only moves at depth 0 <-> 1.
    pin_depth: usize,
    /// Nodes ready to be handed out by [`alloc_node`].
    active: Vec<*mut LNode>,
    /// Nodes unlinked from some list, not yet proven safe to reuse.
    reclaimed: Vec<*mut LNode>,
    /// Counters exposed to tests and the benchmark harness.
    stats: LocalReclaimStats,
}

/// Allocation / reclamation counters for the current thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LocalReclaimStats {
    /// Nodes handed out from the active pool.
    pub pool_allocs: u64,
    /// Nodes allocated from the system allocator (pool empty / barrier failed).
    pub fresh_allocs: u64,
    /// Nodes pushed to the reclaimed pool.
    pub retires: u64,
    /// Successful pool swaps (barrier completed).
    pub pool_swaps: u64,
    /// Barriers that timed out and fell back to fresh allocation.
    pub barrier_failures: u64,
}

impl ThreadCtx {
    fn new() -> Self {
        let domain = Domain::global();
        domain.prune();
        let slot = domain.register();
        let mut active = Vec::with_capacity(POOL_TARGET);
        for _ in 0..POOL_TARGET {
            active.push(Box::into_raw(Box::new(LNode::new(Range::new(0, 0), false))));
        }
        ThreadCtx {
            slot,
            pin_depth: 0,
            active,
            reclaimed: Vec::with_capacity(POOL_TARGET),
            stats: LocalReclaimStats::default(),
        }
    }

    fn pin(&mut self) {
        if self.pin_depth == 0 {
            let e = self.slot.epoch.fetch_add(1, Ordering::AcqRel);
            debug_assert_eq!(e % 2, 0, "pin while already pinned");
        }
        self.pin_depth += 1;
    }

    fn unpin(&mut self) {
        debug_assert!(self.pin_depth > 0, "unpin without pin");
        self.pin_depth -= 1;
        if self.pin_depth == 0 {
            let e = self.slot.epoch.fetch_add(1, Ordering::AcqRel);
            debug_assert_eq!(e % 2, 1, "unpin while not pinned");
        }
    }

    fn alloc(&mut self, range: Range, reader: bool) -> *mut LNode {
        if self.active.is_empty() {
            self.refill();
        }
        if let Some(ptr) = self.active.pop() {
            self.stats.pool_allocs += 1;
            // SAFETY: Nodes in the active pool are exclusively owned by this
            // thread; nothing else references them.
            unsafe { (*ptr).reset(range, reader) };
            ptr
        } else {
            self.stats.fresh_allocs += 1;
            Box::into_raw(Box::new(LNode::new(range, reader)))
        }
    }

    fn refill(&mut self) {
        let domain = Domain::global();
        if domain.barrier(&self.slot) {
            self.stats.pool_swaps += 1;
            // The barrier proved no thread still references reclaimed nodes;
            // they become the new active pool.
            std::mem::swap(&mut self.active, &mut self.reclaimed);
            // Keep the footprint steady: replenish small pools, trim large ones.
            if self.active.len() < POOL_TARGET / 2 {
                while self.active.len() < POOL_TARGET {
                    self.active
                        .push(Box::into_raw(Box::new(LNode::new(Range::new(0, 0), false))));
                }
            } else if self.active.len() > 2 * POOL_TARGET {
                while self.active.len() > POOL_TARGET {
                    let ptr = self.active.pop().expect("len checked above");
                    // SAFETY: Nodes in the active pool are exclusively owned.
                    drop(unsafe { Box::from_raw(ptr) });
                }
            }
        } else {
            self.stats.barrier_failures += 1;
        }
    }

    fn retire(&mut self, ptr: *mut LNode) {
        debug_assert!(!ptr.is_null());
        self.stats.retires += 1;
        self.reclaimed.push(ptr);
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        self.slot.retired.store(true, Ordering::Release);
        // Active-pool nodes were never shared with other threads; free them.
        for ptr in self.active.drain(..) {
            // SAFETY: Exclusively owned by this thread, never published.
            drop(unsafe { Box::from_raw(ptr) });
        }
        // Reclaimed nodes may still be referenced by concurrently traversing
        // threads. Freeing them would require a barrier, which we must not run
        // during thread teardown; intentionally leak them instead. The leak is
        // bounded by one pool per exited thread.
        self.reclaimed.clear();
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

// `with_ctx` and the thin wrappers over it (`pin`, `Pin::drop`,
// `alloc_node`, `retire_node`) are `#[inline]`: they sit on every
// acquisition's fast path, and the generic `ListLock` code that calls them is
// instantiated in *downstream* crates. Without the hint they are compiled
// once, here, and whether `LocalKey::with` folds into them depends on how
// this crate happens to be split into codegen units — an edit to an unrelated
// module moved `core.static_op_ns` by 3 ns that way.
#[inline]
fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
    CTX.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let ctx = borrow.get_or_insert_with(ThreadCtx::new);
        f(ctx)
    })
}

/// RAII guard marking an epoch-protected critical section.
///
/// While a `Pin` is alive the current thread's epoch is odd and no node it
/// can observe in any range-lock list will be reused. Dropping the guard ends
/// the critical section. Pins nest; only the outermost one moves the epoch.
#[derive(Debug)]
pub struct Pin {
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl Pin {
    #[inline]
    fn new() -> Self {
        with_ctx(|ctx| ctx.pin());
        Pin {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for Pin {
    #[inline]
    fn drop(&mut self) {
        with_ctx(|ctx| ctx.unpin());
    }
}

/// Enters an epoch-protected critical section for the current thread.
#[inline]
pub fn pin() -> Pin {
    Pin::new()
}

/// Allocates a list node, preferring the thread-local active pool.
///
/// The returned pointer is exclusively owned by the caller until it is
/// published into a lock list.
#[inline]
pub fn alloc_node(range: Range, reader: bool) -> *mut LNode {
    with_ctx(|ctx| ctx.alloc(range, reader))
}

/// Hands a node that has been physically unlinked from a lock list to the
/// reclamation machinery.
///
/// # Safety
///
/// The node must have been removed from its list (no longer reachable from the
/// list head), and the caller must not touch it afterwards. It may still be
/// referenced by in-flight traversals; it will only be reused after a barrier
/// proves those traversals have finished.
#[inline]
pub(crate) unsafe fn retire_node(ptr: *mut LNode) {
    with_ctx(|ctx| ctx.retire(ptr));
}

/// Immediately frees a node that was never shared or is otherwise known to be
/// unreachable by any thread.
///
/// # Safety
///
/// No other thread may hold a reference to `ptr`, and it must have been
/// allocated by [`alloc_node`] (or `Box::new`) and not freed before.
pub(crate) unsafe fn free_node_now(ptr: *mut LNode) {
    // SAFETY: Per this function's contract the node is exclusively owned.
    drop(unsafe { Box::from_raw(ptr) });
}

/// Returns a copy of the current thread's reclamation counters.
pub fn local_stats() -> LocalReclaimStats {
    with_ctx(|ctx| ctx.stats)
}

/// Returns the current sizes of the thread's (active, reclaimed) pools.
pub fn local_pool_sizes() -> (usize, usize) {
    with_ctx(|ctx| (ctx.active.len(), ctx.reclaimed.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_prefers_pool() {
        let before = local_stats();
        let p = alloc_node(Range::new(0, 8), false);
        let after = local_stats();
        assert_eq!(
            after.pool_allocs + after.fresh_allocs,
            before.pool_allocs + before.fresh_allocs + 1
        );
        // SAFETY: `p` was just allocated and never shared.
        unsafe { free_node_now(p) };
    }

    #[test]
    fn pin_nesting_keeps_epoch_odd() {
        let _a = pin();
        {
            let _b = pin();
        }
        // Dropping the inner pin must not end the critical section; verify by
        // checking that we can still nest again without tripping debug asserts.
        let _c = pin();
    }

    #[test]
    fn retire_then_refill_reuses_nodes() {
        // Drain the active pool so the next allocation triggers a refill.
        let mut held = Vec::new();
        let (active_len, _) = local_pool_sizes();
        for _ in 0..active_len {
            held.push(alloc_node(Range::new(0, 1), false));
        }
        let retired_count = held.len();
        for p in held {
            // SAFETY: These nodes were never published to any list.
            unsafe { retire_node(p) };
        }
        let stats_before = local_stats();
        // Pool is now empty; this allocation must run the barrier and swap.
        let p = alloc_node(Range::new(0, 1), false);
        let stats_after = local_stats();
        assert!(
            stats_after.pool_swaps > stats_before.pool_swaps
                || stats_after.fresh_allocs > stats_before.fresh_allocs
        );
        assert!(stats_after.retires >= retired_count as u64);
        // SAFETY: Just allocated, never shared.
        unsafe { free_node_now(p) };
    }

    #[test]
    fn barrier_waits_for_pinned_peer() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let release = Arc::new(AtomicBool::new(false));
        let pinned = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&release);
        let p2 = Arc::clone(&pinned);
        let peer = std::thread::spawn(move || {
            let _pin = pin();
            p2.store(true, Ordering::Release);
            while !r2.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
        while !pinned.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // Exhaust the pool and retire everything so refill runs a barrier.
        let mut held = Vec::new();
        let (active_len, _) = local_pool_sizes();
        for _ in 0..active_len {
            held.push(alloc_node(Range::new(0, 1), false));
        }
        for p in held {
            // SAFETY: Never published.
            unsafe { retire_node(p) };
        }
        let before = local_stats();
        let p = alloc_node(Range::new(0, 1), false);
        let after = local_stats();
        // The peer never unpins until we release it, so the bounded barrier
        // must either have failed (fresh allocation) or the peer epoch was
        // even before we sampled it (if the pin raced); in both cases we made
        // progress without deadlocking.
        assert_eq!(
            after.pool_allocs + after.fresh_allocs,
            before.pool_allocs + before.fresh_allocs + 1
        );
        release.store(true, Ordering::Release);
        peer.join().unwrap();
        // SAFETY: Just allocated, never shared.
        unsafe { free_node_now(p) };
    }

    #[test]
    fn pool_sizes_are_reported() {
        let (active, reclaimed) = local_pool_sizes();
        assert!(active <= 2 * POOL_TARGET + 1);
        let _ = reclaimed;
    }
}
