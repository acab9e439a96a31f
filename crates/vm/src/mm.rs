//! The synchronized memory-management front-end (`mm`).
//!
//! [`Mm`] wraps a [`MemorySpace`] with one of the synchronization strategies
//! evaluated in Section 7.2 of the paper. A strategy names its lock through
//! the `rl_baselines::registry` (any of the five paper variants, under any
//! [`WaitPolicyKind`]) or picks the stock whole-space semaphore; the paper's
//! named configurations are:
//!
//! | strategy        | lock                         | wait       | page fault      | mprotect              |
//! |-----------------|------------------------------|------------|-----------------|-----------------------|
//! | `stock`         | whole-space rw semaphore     | block      | read (whole mm) | write (whole mm)      |
//! | `tree-full`     | `kernel-rw` tree range lock  | spin-yield | read full range | write full range      |
//! | `list-full`     | `list-rw` list range lock    | spin-yield | read full range | write full range      |
//! | `tree-refined`  | `kernel-rw` tree range lock  | spin-yield | read, one page  | speculative (refined) |
//! | `list-refined`  | `list-rw` list range lock    | spin-yield | read, one page  | speculative (refined) |
//! | `list-pf`       | `list-rw` list range lock    | spin-yield | read, one page  | write full range      |
//! | `list-mprotect` | `list-rw` list range lock    | spin-yield | read full range | speculative (refined) |
//!
//! Beyond the named rows, [`Strategy::SWEEP`] enumerates the fully refined
//! configuration over **all five registry variants × all three wait
//! policies**. Under [`WaitPolicyKind::Block`] the registry locks park each
//! waiter keyed on its conflicting range (the sharded keyed parking of the
//! `rl-sync` wait queue), so a release wakes only the faulting threads whose
//! conflict it resolves instead of broadcasting.
//!
//! `mmap`, `munmap` and structural `mprotect` always take the full-range
//! write acquisition and run their critical section under the per-`mm`
//! sequence counter's seqlock **write protocol**: the generation is odd
//! while the VMA tree is being changed and advances by two per operation, so
//! speculative operations (Section 5.2, Listing 4) and lockless readers
//! detect structural changes that *completed* since they sampled the counter
//! as well as ones still in flight. The same generation doubles as the
//! invalidation signal for the per-thread [`vmacache`]: refined strategies
//! serve repeat faults from the cache **locklessly** under seqlock-style
//! validation of the generation plus the cached VMA's own metadata seqcount
//! (the speculative-page-fault / per-VMA-lock design that eventually
//! replaced `mmap_sem` upstream), while non-refined strategies keep the
//! cache under their lock like the classic `find_vma` cache.
//!
//! With tracing enabled (`rl_obs::trace::install`), an `Mm` emits sampled
//! `AcquireStart`/`Granted` events on the page-fault path and per-call
//! `Granted` (speculative success) / `Cancelled` (structural fallback)
//! events on the speculative `mprotect` path.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use range_lock::{Range, RwRangeLock, TwoPhaseRwRangeLock};
use rl_baselines::registry::{self, RegistryConfig};
use rl_obs::trace;
use rl_obs::EventKind;
use rl_sync::stats::WaitStats;
use rl_sync::wait::WaitPolicyKind;
use rl_sync::SeqCount;

use crate::space::{MemorySpace, VmError};
use crate::vma::{page_align_down, page_align_up, Protection, Vma, PAGE_SIZE};
use crate::vmacache;

/// Which lock an [`Mm`] strategy is backed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmLockChoice {
    /// `mmap_sem`-style whole-space reader-writer semaphore (no ranges):
    /// the stock-kernel baseline.
    Semaphore,
    /// A `rl_baselines::registry` variant by its stable name
    /// (`"list-rw"`, `"kernel-rw"`, `"pnova-rw"`, `"list-ex"`,
    /// `"lustre-ex"`).
    Registry(&'static str),
}

/// A complete synchronization strategy for the VM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategy {
    /// Stable name used in reports (matches the paper's legends).
    pub name: &'static str,
    /// Lock backing the strategy.
    pub lock: VmLockChoice,
    /// How lock waiters wait (registry locks; the semaphore always blocks).
    pub wait: WaitPolicyKind,
    /// Refine page-fault acquisitions to the faulting page (Section 5.3).
    pub refine_page_fault: bool,
    /// Use the speculative, refined-range `mprotect` (Section 5.2).
    pub refine_mprotect: bool,
    /// Serve repeat page faults from the per-thread
    /// [`vmacache`] instead of walking the VMA tree.
    pub vmacache: bool,
}

/// Builds one [`Strategy::SWEEP`] row: fully refined, vmacache on.
const fn sweep_row(name: &'static str, variant: &'static str, wait: WaitPolicyKind) -> Strategy {
    Strategy {
        name,
        lock: VmLockChoice::Registry(variant),
        wait,
        refine_page_fault: true,
        refine_mprotect: true,
        vmacache: true,
    }
}

impl Strategy {
    /// Stock kernel: one reader-writer semaphore for the whole address
    /// space, blocking its waiters like `mmap_sem` does.
    pub const STOCK: Strategy = Strategy {
        name: "stock",
        lock: VmLockChoice::Semaphore,
        wait: WaitPolicyKind::Block,
        refine_page_fault: false,
        refine_mprotect: false,
        vmacache: true,
    };
    /// Tree-based range lock (`kernel-rw`), always acquired for the full
    /// range.
    pub const TREE_FULL: Strategy = Strategy {
        name: "tree-full",
        lock: VmLockChoice::Registry("kernel-rw"),
        wait: WaitPolicyKind::SpinThenYield,
        refine_page_fault: false,
        refine_mprotect: false,
        vmacache: true,
    };
    /// List-based range lock (`list-rw`), always acquired for the full
    /// range.
    pub const LIST_FULL: Strategy = Strategy {
        name: "list-full",
        lock: VmLockChoice::Registry("list-rw"),
        wait: WaitPolicyKind::SpinThenYield,
        refine_page_fault: false,
        refine_mprotect: false,
        vmacache: true,
    };
    /// Tree-based range lock with refined page faults and speculative
    /// mprotect.
    pub const TREE_REFINED: Strategy = Strategy {
        name: "tree-refined",
        lock: VmLockChoice::Registry("kernel-rw"),
        wait: WaitPolicyKind::SpinThenYield,
        refine_page_fault: true,
        refine_mprotect: true,
        vmacache: true,
    };
    /// List-based range lock with refined page faults and speculative
    /// mprotect.
    pub const LIST_REFINED: Strategy = Strategy {
        name: "list-refined",
        lock: VmLockChoice::Registry("list-rw"),
        wait: WaitPolicyKind::SpinThenYield,
        refine_page_fault: true,
        refine_mprotect: true,
        vmacache: true,
    };
    /// List-based range lock refining only the page-fault path (Figure 6).
    pub const LIST_PF: Strategy = Strategy {
        name: "list-pf",
        lock: VmLockChoice::Registry("list-rw"),
        wait: WaitPolicyKind::SpinThenYield,
        refine_page_fault: true,
        refine_mprotect: false,
        vmacache: true,
    };
    /// List-based range lock refining only the mprotect path (Figure 6).
    pub const LIST_MPROTECT: Strategy = Strategy {
        name: "list-mprotect",
        lock: VmLockChoice::Registry("list-rw"),
        wait: WaitPolicyKind::SpinThenYield,
        refine_page_fault: false,
        refine_mprotect: true,
        vmacache: true,
    };

    /// The five strategies compared in Figure 5.
    pub const FIGURE5: [Strategy; 5] = [
        Strategy::STOCK,
        Strategy::TREE_FULL,
        Strategy::LIST_FULL,
        Strategy::TREE_REFINED,
        Strategy::LIST_REFINED,
    ];

    /// The four list-lock variants compared in Figure 6.
    pub const FIGURE6: [Strategy; 4] = [
        Strategy::LIST_FULL,
        Strategy::LIST_PF,
        Strategy::LIST_MPROTECT,
        Strategy::LIST_REFINED,
    ];

    /// The fully refined configuration swept across **every** registry
    /// variant × **every** wait policy: 15 rows, in registry legend order
    /// with policies in escalation order.
    pub const SWEEP: [Strategy; 15] = [
        sweep_row("lustre-ex+spin", "lustre-ex", WaitPolicyKind::Spin),
        sweep_row(
            "lustre-ex+yield",
            "lustre-ex",
            WaitPolicyKind::SpinThenYield,
        ),
        sweep_row("lustre-ex+block", "lustre-ex", WaitPolicyKind::Block),
        sweep_row("kernel-rw+spin", "kernel-rw", WaitPolicyKind::Spin),
        sweep_row(
            "kernel-rw+yield",
            "kernel-rw",
            WaitPolicyKind::SpinThenYield,
        ),
        sweep_row("kernel-rw+block", "kernel-rw", WaitPolicyKind::Block),
        sweep_row("pnova-rw+spin", "pnova-rw", WaitPolicyKind::Spin),
        sweep_row("pnova-rw+yield", "pnova-rw", WaitPolicyKind::SpinThenYield),
        sweep_row("pnova-rw+block", "pnova-rw", WaitPolicyKind::Block),
        sweep_row("list-ex+spin", "list-ex", WaitPolicyKind::Spin),
        sweep_row("list-ex+yield", "list-ex", WaitPolicyKind::SpinThenYield),
        sweep_row("list-ex+block", "list-ex", WaitPolicyKind::Block),
        sweep_row("list-rw+spin", "list-rw", WaitPolicyKind::Spin),
        sweep_row("list-rw+yield", "list-rw", WaitPolicyKind::SpinThenYield),
        sweep_row("list-rw+block", "list-rw", WaitPolicyKind::Block),
    ];

    /// This strategy with the per-thread VMA cache disabled (every fault
    /// walks the tree). Used by the cache microbenchmark and the
    /// differential tests; the name is unchanged.
    pub const fn without_vmacache(self) -> Strategy {
        Strategy {
            vmacache: false,
            ..self
        }
    }

    /// This strategy waiting through `wait` instead of its default policy.
    ///
    /// Only meaningful for registry-backed strategies; the stock semaphore
    /// always blocks. The name is unchanged.
    pub const fn with_wait(self, wait: WaitPolicyKind) -> Strategy {
        Strategy { wait, ..self }
    }
}

/// Operation counters kept by every [`Mm`] instance.
#[derive(Debug, Default)]
struct VmCounters {
    mmaps: AtomicU64,
    munmaps: AtomicU64,
    mprotects: AtomicU64,
    page_faults: AtomicU64,
    spec_success: AtomicU64,
    spec_retries: AtomicU64,
    spec_structural_fallback: AtomicU64,
    /// Faults that walked the tree under a vmacache strategy. Hits have no
    /// counter of their own: every such fault is exactly one hit or one
    /// miss, so [`Mm::stats`] derives them from `page_faults`.
    vmacache_misses: AtomicU64,
}

/// A point-in-time copy of an [`Mm`]'s operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Completed `mmap` calls.
    pub mmaps: u64,
    /// Completed `munmap` calls.
    pub munmaps: u64,
    /// Completed `mprotect` calls.
    pub mprotects: u64,
    /// Handled page faults (including failed ones).
    pub page_faults: u64,
    /// `mprotect` calls that completed on the speculative (refined) path.
    pub spec_success: u64,
    /// Speculation retries due to a concurrent full-range writer (sequence
    /// number or VMA boundary mismatch).
    pub spec_retries: u64,
    /// Speculations abandoned because the operation needed a structural
    /// change, falling back to the full-range write lock.
    pub spec_structural_fallback: u64,
    /// Page faults served from the per-thread VMA cache (no tree walk).
    ///
    /// Derived, not counted: under a vmacache strategy every fault ends as
    /// exactly one hit or one miss, so this is `page_faults -
    /// vmacache_misses` (0 when the strategy has no vmacache). A snapshot
    /// taken while faults are in flight counts those faults as hits.
    pub vmacache_hits: u64,
    /// Page faults that missed the VMA cache and walked the tree.
    pub vmacache_misses: u64,
}

impl VmStats {
    /// Fraction of `mprotect` calls that succeeded speculatively.
    pub fn speculation_success_rate(&self) -> f64 {
        if self.mprotects == 0 {
            0.0
        } else {
            self.spec_success as f64 / self.mprotects as f64
        }
    }

    /// Fraction of cache-eligible page faults served from the VMA cache.
    pub fn vmacache_hit_rate(&self) -> f64 {
        let total = self.vmacache_hits + self.vmacache_misses;
        if total == 0 {
            0.0
        } else {
            self.vmacache_hits as f64 / total as f64
        }
    }
}

/// Source of unique [`Mm`] identities for the per-thread VMA cache.
static NEXT_MM_ID: AtomicU64 = AtomicU64::new(1);

/// A simulated per-process memory-management context.
///
/// # Examples
///
/// ```
/// use rl_vm::{Mm, Strategy, Protection};
///
/// let mm = Mm::new(Strategy::LIST_REFINED);
/// let base = mm.mmap(None, 1 << 20, Protection::NONE).unwrap();
/// mm.mprotect(base, 8192, Protection::READ_WRITE).unwrap();
/// mm.page_fault(base, true).unwrap();
/// assert!(mm.stats().page_faults >= 1);
/// ```
pub struct Mm {
    strategy: Strategy,
    /// The registry-built (or stock) lock protecting the address space.
    ///
    /// Boxed dynamic dispatch: each acquisition and release costs one vtable
    /// call (the guard is a plain value; nothing is allocated), paid
    /// identically by every strategy row — relative comparisons between
    /// rows are unaffected.
    lock: Box<dyn TwoPhaseRwRangeLock>,
    seq: SeqCount,
    space: UnsafeCell<MemorySpace>,
    counters: VmCounters,
    /// Identity for the per-thread VMA cache (never reused).
    id: u64,
    /// Trace id of the page-fault lock acquisitions.
    fault_trace: u64,
    /// Trace id of the speculative-mprotect outcomes.
    mprotect_trace: u64,
    /// Wait-time statistics of the main VM lock (Figure 7).
    lock_stats: Arc<WaitStats>,
    /// Wait-time statistics of the spin lock inside the tree-based locks
    /// (Figure 8); `None` for the other lock variants.
    spin_stats: Option<Arc<WaitStats>>,
}

// SAFETY: `space` is only accessed according to the locking protocol encoded
// in the methods below: `&mut MemorySpace` is created exclusively while the
// full-range write acquisition is held (which conflicts with every other
// acquisition of any range and any mode), and `&MemorySpace` is only created
// while at least a read or refined-write acquisition is held (which conflicts
// with the full-range write acquisition). VMA metadata mutated under refined
// write acquisitions is stored in atomics inside `Vma`. The lockless fault
// fast path never touches `space` at all: it reads only the sequence counter
// and the atomic fields of a `&Vma` borrowed from this thread's vmacache
// slot (every `Vma` mutation goes through `&self` atomic setters, so those
// reads race with nothing non-atomic). The slot's `Arc` keeps the VMA alive
// for the borrow, and the cache's `RefCell` borrow rules out re-entry, so no
// slot is replaced mid-check.
unsafe impl Sync for Mm {}
// SAFETY: Sending an `Mm` between threads transfers the `UnsafeCell` along
// with the locks protecting it; no thread-affine state exists. (The
// per-thread VMA cache owns its `Arc<Vma>` slots, keyed by the `Mm`'s
// unique id, and lends a `&Vma` only for the length of one fault's check on
// the thread that owns the slot.)
unsafe impl Send for Mm {}

impl Mm {
    /// Registry configuration for VM locks.
    ///
    /// The span covers the simulator's mmap area so `pnova-rw` addresses do
    /// not clamp; its uniform segments are still hopelessly coarse for a
    /// sparse 47-bit address space (one segment spans terabytes, so a whole
    /// arena lands in a single segment) — exactly the static-partitioning
    /// granularity caveat the paper raises for pNOVA.
    fn registry_config() -> RegistryConfig {
        RegistryConfig {
            span: MemorySpace::DEFAULT_MMAP_BASE + (1 << 40),
            segments: 1 << 4,
        }
    }

    /// Creates an empty address space synchronized with `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy names a registry variant that does not exist.
    pub fn new(strategy: Strategy) -> Self {
        let lock_stats = Arc::new(WaitStats::new(strategy.name));
        let mut spin_stats = None;
        let lock = match strategy.lock {
            VmLockChoice::Semaphore => {
                registry::build_stock(strategy.wait, Some(Arc::clone(&lock_stats)))
            }
            VmLockChoice::Registry(variant) => {
                let spec = registry::by_name(variant)
                    .unwrap_or_else(|| panic!("unknown registry variant `{variant}`"));
                let spin = spec
                    .internal_spinlock
                    .then(|| Arc::new(WaitStats::new("tree-spinlock")));
                spin_stats = spin.clone();
                spec.build_with_stats(
                    strategy.wait,
                    &Self::registry_config(),
                    Arc::clone(&lock_stats),
                    spin,
                )
            }
        };
        let id = NEXT_MM_ID.fetch_add(1, Ordering::Relaxed);
        let fault_trace = trace::next_lock_id();
        let mprotect_trace = trace::next_lock_id();
        trace::label_lock(fault_trace, &format!("mm{id}:fault:{}", strategy.name));
        trace::label_lock(
            mprotect_trace,
            &format!("mm{id}:mprotect:{}", strategy.name),
        );
        Mm {
            strategy,
            lock,
            seq: SeqCount::new(),
            space: UnsafeCell::new(MemorySpace::new()),
            counters: VmCounters::default(),
            id,
            fault_trace,
            mprotect_trace,
            lock_stats,
            spin_stats,
        }
    }

    /// The strategy this `Mm` was created with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Wait-time statistics of the VM lock (the Figure 7 metric).
    pub fn lock_stats(&self) -> Arc<WaitStats> {
        Arc::clone(&self.lock_stats)
    }

    /// Wait-time statistics of the internal spin lock of the tree-based
    /// locks, if this strategy uses one (the Figure 8 metric).
    pub fn spin_stats(&self) -> Option<Arc<WaitStats>> {
        self.spin_stats.clone()
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> VmStats {
        // Misses first: a fault bumps `page_faults` before it can miss, so
        // the later `page_faults` load is never the smaller one in practice
        // (the subtraction saturates all the same).
        let vmacache_misses = self.counters.vmacache_misses.load(Ordering::Relaxed);
        let page_faults = self.counters.page_faults.load(Ordering::Relaxed);
        let vmacache_hits = if self.strategy.vmacache {
            page_faults.saturating_sub(vmacache_misses)
        } else {
            0
        };
        VmStats {
            mmaps: self.counters.mmaps.load(Ordering::Relaxed),
            munmaps: self.counters.munmaps.load(Ordering::Relaxed),
            mprotects: self.counters.mprotects.load(Ordering::Relaxed),
            page_faults,
            spec_success: self.counters.spec_success.load(Ordering::Relaxed),
            spec_retries: self.counters.spec_retries.load(Ordering::Relaxed),
            spec_structural_fallback: self
                .counters
                .spec_structural_fallback
                .load(Ordering::Relaxed),
            vmacache_hits,
            vmacache_misses,
        }
    }

    /// Maps `len` bytes (rounded up to whole pages) with protection `prot`.
    ///
    /// Structural operation: always takes the full-range write acquisition.
    pub fn mmap(&self, addr: Option<u64>, len: u64, prot: Protection) -> Result<u64, VmError> {
        self.counters.mmaps.fetch_add(1, Ordering::Relaxed);
        let guard = self.lock.write(Range::FULL);
        self.seq.write_begin();
        // SAFETY: Full-range write acquisition held (see the `Sync` comment).
        let space = unsafe { &mut *self.space.get() };
        let result = space.mmap(addr, len, prot);
        self.seq.write_end();
        drop(guard);
        result
    }

    /// Unmaps `[addr, addr + len)`.
    ///
    /// Structural operation: always takes the full-range write acquisition.
    pub fn munmap(&self, addr: u64, len: u64) -> Result<(), VmError> {
        self.counters.munmaps.fetch_add(1, Ordering::Relaxed);
        let guard = self.lock.write(Range::FULL);
        self.seq.write_begin();
        // SAFETY: Full-range write acquisition held.
        let space = unsafe { &mut *self.space.get() };
        let result = space.munmap(addr, len);
        self.seq.write_end();
        drop(guard);
        result
    }

    /// Changes the protection of `[addr, addr + len)`.
    ///
    /// With a refining strategy this uses the speculative protocol of
    /// Listing 4; otherwise it takes the full-range write acquisition.
    pub fn mprotect(&self, addr: u64, len: u64, prot: Protection) -> Result<(), VmError> {
        self.counters.mprotects.fetch_add(1, Ordering::Relaxed);
        if self.strategy.refine_mprotect {
            self.mprotect_speculative(addr, len, prot)
        } else {
            self.mprotect_full(addr, len, prot)
        }
    }

    /// Simulates a page fault at `addr` (`write` selects the access type).
    ///
    /// Refined strategies serve repeat faults on a cached VMA **without any
    /// lock acquisition**, in the style of Linux's speculative page faults /
    /// per-VMA locks: read the generation, probe the per-thread
    /// [`vmacache`], snapshot the cached VMA's bounds and protection under
    /// the VMA's own seqcount, and re-validate both counters. Every
    /// structural operation holds the generation odd for its whole critical
    /// section (seqlock write protocol), so an unchanged even generation
    /// proves no structural change overlapped any part of the check.
    /// Metadata-only updates (speculative `mprotect`) never touch the
    /// generation, but each setter is a write section on the *per-VMA*
    /// seqcount, so the `contains` + protection pair is validated as one
    /// consistent point in the VMA's history — without it, a boundary move
    /// handing `addr` to a neighbour followed by a protection change on the
    /// shrunk VMA could be observed as stale bounds with fresh protection, a
    /// state that never existed. Any miss or retry on either counter falls
    /// back to the locked path below. The check runs on a VMA borrowed from
    /// its cache slot, so a hit's one atomic read-modify-write is the fault
    /// counter: no reference count changes, and hits are not counted (see
    /// [`VmStats::vmacache_hits`]).
    ///
    /// The locked path is always a read acquisition; refined strategies lock
    /// only the faulting page (Section 5.3). Non-refined strategies run the
    /// vmacache *under* the lock — exactly the pre-SPF Linux shape where
    /// `find_vma`'s cache saves the tree walk but not `mmap_sem`.
    pub fn page_fault(&self, addr: u64, write: bool) -> Result<(), VmError> {
        self.counters.page_faults.fetch_add(1, Ordering::Relaxed);
        if self.strategy.refine_page_fault && self.strategy.vmacache {
            let begin = self.seq.read();
            let hit = vmacache::probe(self.id, begin, addr, |vma| {
                // The probe's `contains` only selected the slot; re-read
                // bounds and protection as one snapshot under the per-VMA
                // seqcount so serialized metadata updates cannot interleave
                // between the two reads.
                let vma_seq = vma.seq_read_begin();
                let covered = vma.contains(addr);
                let result = Self::check_access(vma, write);
                (covered && !vma.seq_read_retry(vma_seq) && !self.seq.read_retry(begin))
                    .then_some(result)
            });
            if let Some(Some(result)) = hit {
                return result;
            }
            // Metadata moved mid-snapshot, a structural operation
            // overlapped, or no cached VMA covers `addr`; retake the answer
            // under the lock.
        }
        let range = if self.strategy.refine_page_fault {
            let page = page_align_down(addr);
            Range::new(page, page + PAGE_SIZE)
        } else {
            Range::FULL
        };
        trace::emit_sampled(
            EventKind::AcquireStart,
            self.fault_trace,
            range.start,
            range.end,
        );
        let guard = self.lock.read(range);
        trace::emit_sampled(EventKind::Granted, self.fault_trace, range.start, range.end);
        // The generation read under the read acquisition: any structural
        // change bumps it before its write guard is released, so a cache
        // entry at this generation is still in the tree.
        let generation = self.seq.read();
        if self.strategy.vmacache {
            if let Some(result) = vmacache::probe(self.id, generation, addr, |vma| {
                Self::check_access(vma, write)
            }) {
                drop(guard);
                return result;
            }
        }
        // SAFETY: A read acquisition is held, so no full-range writer (and
        // thus no `&mut MemorySpace`) can exist concurrently.
        let space = unsafe { &*self.space.get() };
        let result = space.handle_fault(addr, write);
        if self.strategy.vmacache {
            self.counters
                .vmacache_misses
                .fetch_add(1, Ordering::Relaxed);
            if let Ok(vma) = &result {
                vmacache::store(self.id, generation, vma);
            }
        }
        drop(guard);
        result.map(|_| ())
    }

    /// Permission check against a (possibly cached) VMA, mirroring
    /// [`MemorySpace::handle_fault`]'s access rule.
    fn check_access(vma: &Vma, write: bool) -> Result<(), VmError> {
        let prot = vma.protection();
        let allowed = if write {
            prot.writable()
        } else {
            prot.readable()
        };
        if allowed {
            Ok(())
        } else {
            Err(VmError::AccessViolation)
        }
    }

    /// Number of VMAs currently mapped.
    pub fn vma_count(&self) -> usize {
        let guard = self.lock.read(Range::FULL);
        // SAFETY: Read acquisition held.
        let count = unsafe { &*self.space.get() }.vma_count();
        drop(guard);
        count
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        let guard = self.lock.read(Range::FULL);
        // SAFETY: Read acquisition held.
        let bytes = unsafe { &*self.space.get() }.mapped_bytes();
        drop(guard);
        bytes
    }

    /// Returns the `(start, end, protection)` triples of every VMA, for tests
    /// and debugging.
    pub fn vma_snapshot(&self) -> Vec<(u64, u64, Protection)> {
        let guard = self.lock.read(Range::FULL);
        // SAFETY: Read acquisition held.
        let space = unsafe { &*self.space.get() };
        let out = space
            .tree()
            .to_vec()
            .iter()
            .map(|v| (v.start(), v.end(), v.protection()))
            .collect();
        drop(guard);
        out
    }

    fn mprotect_full(&self, addr: u64, len: u64, prot: Protection) -> Result<(), VmError> {
        let guard = self.lock.write(Range::FULL);
        self.seq.write_begin();
        // SAFETY: Full-range write acquisition held.
        let space = unsafe { &mut *self.space.get() };
        let result = space.mprotect_structural(addr, len, prot);
        self.seq.write_end();
        drop(guard);
        result
    }

    /// The speculative mprotect of Listing 4.
    fn mprotect_speculative(&self, addr: u64, len: u64, prot: Protection) -> Result<(), VmError> {
        // Validate the arguments before any VMA lookup, mirroring
        // `plan_mprotect`/`mprotect_structural`, so refined and non-refined
        // strategies return the same error code for the same bad input.
        if len == 0 || !addr.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::InvalidArgument);
        }
        let end = addr
            .checked_add(page_align_up(len))
            .ok_or(VmError::InvalidArgument)?;
        let mut speculate = true;
        loop {
            if !speculate {
                return self.mprotect_full(addr, len, prot);
            }

            // Step 1: locate the VMA under a read acquisition of the input
            // range, and remember the sequence number.
            let input_range = Range::new(addr, end);
            let read_guard = self.lock.read(input_range);
            // SAFETY: Read acquisition held.
            let space = unsafe { &*self.space.get() };
            let vma = match space.find_vma(addr) {
                Some(v) => v,
                None => {
                    drop(read_guard);
                    return Err(VmError::NoSuchMapping);
                }
            };
            let seq = self.seq.read();
            let v_start = vma.start();
            let v_end = vma.end();
            let refined = Range::new(
                v_start.saturating_sub(PAGE_SIZE),
                v_end.saturating_add(PAGE_SIZE),
            );
            drop(read_guard);

            // Step 2: upgrade to a write acquisition of the enclosing VMA plus
            // one page on each side, then validate that nothing changed.
            let write_guard = self.lock.write(refined);
            if self.seq.read() != seq || vma.start() != v_start || vma.end() != v_end {
                self.counters.spec_retries.fetch_add(1, Ordering::Relaxed);
                drop(write_guard);
                continue;
            }

            // Step 3: decide whether the change is metadata-only.
            // SAFETY: A (refined) write acquisition is held, which conflicts
            // with the full-range writer; only metadata can change
            // concurrently and those fields are atomic.
            let space = unsafe { &*self.space.get() };
            let plan = match space.plan_mprotect(addr, len, prot) {
                Ok(plan) => plan,
                Err(e) => {
                    drop(write_guard);
                    return Err(e);
                }
            };
            if plan.is_structural() {
                self.counters
                    .spec_structural_fallback
                    .fetch_add(1, Ordering::Relaxed);
                trace::emit_here(EventKind::Cancelled, self.mprotect_trace, addr, addr + len);
                drop(write_guard);
                speculate = false;
                continue;
            }
            space.apply_metadata_plan(&plan, prot);
            self.counters.spec_success.fetch_add(1, Ordering::Relaxed);
            trace::emit_here(EventKind::Granted, self.mprotect_trace, addr, addr + len);
            drop(write_guard);
            return Ok(());
        }
    }
}

impl std::fmt::Debug for Mm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mm")
            .field("strategy", &self.strategy.name)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_basic(strategy: Strategy) {
        let mm = Mm::new(strategy);
        let base = mm.mmap(None, 1 << 20, Protection::NONE).unwrap();
        assert_eq!(mm.vma_count(), 1);

        // First allocation: structural split.
        mm.mprotect(base, 16 * PAGE_SIZE, Protection::READ_WRITE)
            .unwrap();
        assert_eq!(mm.vma_count(), 2);
        mm.page_fault(base, true).unwrap();
        mm.page_fault(base + 15 * PAGE_SIZE, false).unwrap();
        assert!(mm.page_fault(base + 17 * PAGE_SIZE, true).is_err());

        // Growth: boundary move, metadata only.
        mm.mprotect(
            base + 16 * PAGE_SIZE,
            16 * PAGE_SIZE,
            Protection::READ_WRITE,
        )
        .unwrap();
        assert_eq!(mm.vma_count(), 2);
        mm.page_fault(base + 20 * PAGE_SIZE, true).unwrap();

        // Shrink: boundary move back.
        mm.mprotect(base + 24 * PAGE_SIZE, 8 * PAGE_SIZE, Protection::NONE)
            .unwrap();
        assert_eq!(mm.vma_count(), 2);
        assert!(mm.page_fault(base + 25 * PAGE_SIZE, false).is_err());

        // Unmap everything.
        mm.munmap(base, 1 << 20).unwrap();
        assert_eq!(mm.vma_count(), 0);

        let stats = mm.stats();
        assert_eq!(stats.mmaps, 1);
        assert_eq!(stats.munmaps, 1);
        assert_eq!(stats.mprotects, 3);
        assert!(stats.page_faults >= 4);
    }

    #[test]
    fn all_strategies_pass_the_same_scenario() {
        for strategy in [
            Strategy::STOCK,
            Strategy::TREE_FULL,
            Strategy::LIST_FULL,
            Strategy::TREE_REFINED,
            Strategy::LIST_REFINED,
            Strategy::LIST_PF,
            Strategy::LIST_MPROTECT,
        ] {
            exercise_basic(strategy);
        }
    }

    #[test]
    fn the_full_sweep_passes_the_same_scenario() {
        // Every registry variant × every wait policy, refined + vmacache.
        for strategy in Strategy::SWEEP {
            exercise_basic(strategy);
            exercise_basic(strategy.without_vmacache());
        }
    }

    #[test]
    fn sweep_rows_cover_all_variants_and_policies() {
        let mut seen = std::collections::HashSet::new();
        for strategy in Strategy::SWEEP {
            let VmLockChoice::Registry(variant) = strategy.lock else {
                panic!("sweep rows are registry-backed");
            };
            assert!(rl_baselines::registry::by_name(variant).is_some());
            assert!(strategy.refine_page_fault && strategy.refine_mprotect);
            seen.insert((variant, strategy.wait.name()));
        }
        assert_eq!(seen.len(), 15, "5 variants x 3 policies, no duplicates");
    }

    #[test]
    fn speculative_path_is_taken_for_boundary_moves() {
        let mm = Mm::new(Strategy::LIST_REFINED);
        let base = mm.mmap(None, 1 << 20, Protection::NONE).unwrap();
        mm.mprotect(base, 4 * PAGE_SIZE, Protection::READ_WRITE)
            .unwrap();
        for i in 1..50u64 {
            mm.mprotect(
                base + i * 4 * PAGE_SIZE,
                4 * PAGE_SIZE,
                Protection::READ_WRITE,
            )
            .unwrap();
        }
        let stats = mm.stats();
        assert_eq!(stats.mprotects, 50);
        // The first call needs a split (structural); the 49 growth calls are
        // boundary moves that succeed speculatively.
        assert_eq!(stats.spec_success, 49);
        assert_eq!(stats.spec_structural_fallback, 1);
        assert!(stats.speculation_success_rate() > 0.95);
    }

    #[test]
    fn full_strategies_never_speculate() {
        let mm = Mm::new(Strategy::LIST_FULL);
        let base = mm.mmap(None, 1 << 20, Protection::NONE).unwrap();
        mm.mprotect(base, 4 * PAGE_SIZE, Protection::READ_WRITE)
            .unwrap();
        assert_eq!(mm.stats().spec_success, 0);
    }

    #[test]
    fn mprotect_error_paths() {
        let mm = Mm::new(Strategy::LIST_REFINED);
        assert_eq!(
            mm.mprotect(0x1000, PAGE_SIZE, Protection::READ),
            Err(VmError::NoSuchMapping)
        );
        let base = mm.mmap(None, 16 * PAGE_SIZE, Protection::NONE).unwrap();
        // Hole after the end of the mapping.
        assert_eq!(
            mm.mprotect(base, 32 * PAGE_SIZE, Protection::READ),
            Err(VmError::NoSuchMapping)
        );
    }

    #[test]
    fn mprotect_error_codes_agree_across_strategies() {
        // Refined (speculative) and full strategies must return the same
        // error for the same bad input: argument validation happens before
        // the VMA lookup on both paths.
        for strategy in [Strategy::LIST_REFINED, Strategy::LIST_FULL] {
            let mm = Mm::new(strategy);
            // Zero length and unaligned address on an unmapped address are
            // invalid arguments, not missing mappings.
            assert_eq!(
                mm.mprotect(0x1000, 0, Protection::READ),
                Err(VmError::InvalidArgument),
                "{}: zero length",
                strategy.name
            );
            assert_eq!(
                mm.mprotect(0x1001, PAGE_SIZE, Protection::READ),
                Err(VmError::InvalidArgument),
                "{}: unaligned address",
                strategy.name
            );
            assert_eq!(
                mm.mprotect(page_align_down(u64::MAX), 2 * PAGE_SIZE, Protection::READ),
                Err(VmError::InvalidArgument),
                "{}: overflowing range",
                strategy.name
            );
            // A well-formed request on an unmapped address still reports the
            // missing mapping.
            assert_eq!(
                mm.mprotect(0x1000, PAGE_SIZE, Protection::READ),
                Err(VmError::NoSuchMapping),
                "{}: unmapped address",
                strategy.name
            );
        }
    }

    #[test]
    fn lockless_faults_never_see_composite_vma_state() {
        use std::sync::atomic::AtomicBool;
        // Regression stress for the stale-bounds/fresh-protection race: a
        // mutator moves the boundary page between VMA `a` (rw) and VMA `v`
        // (read) back and forth and toggles `v`'s protection while it does
        // NOT own the page — all speculative metadata ops, so the mm
        // generation never changes and readers stay on the lockless path.
        // The boundary page is readable at every instant (rw in `a`, read in
        // `v`), so a fault that observes `v`'s stale bounds together with
        // `v`'s transient NONE protection is the composite state that never
        // existed; the per-VMA seqcount must force those reads to retry.
        let mm = Arc::new(Mm::new(Strategy::LIST_REFINED));
        let base = mm.mmap(None, 1 << 20, Protection::NONE).unwrap();
        let boundary = base + 32 * PAGE_SIZE;
        let tail_len = (1 << 20) - 33 * PAGE_SIZE;
        // a = [base, boundary) rw, v = [boundary, end) read.
        mm.mprotect(base, 32 * PAGE_SIZE, Protection::READ_WRITE)
            .unwrap();
        mm.mprotect(boundary, tail_len + PAGE_SIZE, Protection::READ)
            .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let mm = Arc::clone(&mm);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut spurious = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if mm.page_fault(boundary, false).is_err() {
                        spurious += 1;
                    }
                }
                spurious
            }));
        }
        for _ in 0..2_000u64 {
            // Boundary move: the page joins `a` (GrowPrevBoundary).
            mm.mprotect(boundary, PAGE_SIZE, Protection::READ_WRITE)
                .unwrap();
            // Protection toggle on the shrunk `v`, which no longer covers
            // the boundary page.
            mm.mprotect(boundary + PAGE_SIZE, tail_len, Protection::NONE)
                .unwrap();
            mm.mprotect(boundary + PAGE_SIZE, tail_len, Protection::READ)
                .unwrap();
            // Boundary move back: the page rejoins `v` (GrowNextBoundary).
            mm.mprotect(boundary, PAGE_SIZE, Protection::READ).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let spurious: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            spurious, 0,
            "the boundary page is readable throughout; any failure is a \
             composite bounds/protection snapshot"
        );
        let stats = mm.stats();
        assert_eq!(
            stats.spec_structural_fallback, 1,
            "only the initial arena split is structural"
        );
        assert!(stats.spec_success >= 8_000, "the loop stays speculative");
    }

    #[test]
    fn vmacache_serves_repeat_faults_and_invalidates_on_structural_ops() {
        crate::vmacache::flush();
        let mm = Mm::new(Strategy::LIST_REFINED);
        let base = mm.mmap(None, 1 << 20, Protection::READ_WRITE).unwrap();
        mm.page_fault(base, true).unwrap();
        for i in 0..64u64 {
            mm.page_fault(base + (i % 16) * PAGE_SIZE, false).unwrap();
        }
        let stats = mm.stats();
        assert_eq!(stats.vmacache_misses, 1, "one cold miss fills the cache");
        assert_eq!(stats.vmacache_hits, 64);
        assert!(stats.vmacache_hit_rate() > 0.9);

        // A structural op bumps the generation: the next fault must walk the
        // tree again (and must see the new protection map).
        mm.mprotect(base, 4 * PAGE_SIZE, Protection::NONE).unwrap();
        assert!(mm.page_fault(base, false).is_err());
        mm.page_fault(base + 8 * PAGE_SIZE, true).unwrap();
        let stats = mm.stats();
        assert!(stats.vmacache_misses >= 2, "generation bump invalidates");
    }

    #[test]
    fn disabled_vmacache_counts_nothing() {
        let mm = Mm::new(Strategy::LIST_REFINED.without_vmacache());
        let base = mm.mmap(None, 1 << 20, Protection::READ_WRITE).unwrap();
        for _ in 0..8 {
            mm.page_fault(base, false).unwrap();
        }
        let stats = mm.stats();
        assert_eq!(stats.vmacache_hits, 0);
        assert_eq!(stats.vmacache_misses, 0);
        assert_eq!(stats.vmacache_hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_faults_and_mprotects_are_consistent() {
        use std::sync::atomic::AtomicBool;
        // One thread grows/shrinks an arena-like VMA pair while others fault
        // on addresses that are always mapped readable; the faulting threads
        // must never observe a missing mapping.
        let mm = Arc::new(Mm::new(Strategy::LIST_REFINED));
        let base = mm.mmap(None, 1 << 22, Protection::NONE).unwrap();
        // Keep the first 32 pages always readable/writable.
        mm.mprotect(base, 32 * PAGE_SIZE, Protection::READ_WRITE)
            .unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..3 {
            let mm = Arc::clone(&mm);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut failures = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let addr = base + ((t * 7 + i) % 32) * PAGE_SIZE;
                    if mm.page_fault(addr, i.is_multiple_of(2)).is_err() {
                        failures += 1;
                    }
                    i += 1;
                }
                failures
            }));
        }
        // The mutator grows and shrinks the region above the stable prefix:
        // 300 rounds, and on until a fault has run against it (on one core
        // the faulting threads may not be scheduled before then).
        for round in 0u64.. {
            if round >= 300 && mm.stats().page_faults > 0 {
                break;
            }
            let extra = 32 + (round % 64);
            mm.mprotect(
                base + 32 * PAGE_SIZE,
                (extra - 32 + 1) * PAGE_SIZE,
                Protection::READ_WRITE,
            )
            .unwrap();
            mm.mprotect(
                base + 32 * PAGE_SIZE,
                (extra - 32 + 1) * PAGE_SIZE,
                Protection::NONE,
            )
            .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let failures: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            failures, 0,
            "faults on the stable prefix must always succeed"
        );
        let stats = mm.stats();
        assert!(stats.page_faults > 0);
        assert!(stats.mprotects >= 600);
    }

    #[test]
    fn lock_stats_are_exposed() {
        let mm = Mm::new(Strategy::TREE_REFINED);
        assert!(mm.spin_stats().is_some());
        let mm = Mm::new(Strategy::LIST_REFINED);
        assert!(mm.spin_stats().is_none());
        let _ = mm.lock_stats();
        assert_eq!(mm.strategy().name, "list-refined");
        // The stock semaphore has no internal spin lock either.
        assert!(Mm::new(Strategy::STOCK).spin_stats().is_none());
    }

    #[test]
    fn lock_stats_see_every_acquisition() {
        for strategy in [Strategy::STOCK, Strategy::LIST_REFINED] {
            let mm = Mm::new(strategy);
            let base = mm
                .mmap(None, 8 * PAGE_SIZE, Protection::READ_WRITE)
                .unwrap();
            mm.page_fault(base, false).unwrap();
            let snap = mm.lock_stats().snapshot();
            assert!(
                snap.acquisitions >= 2,
                "{}: mmap + fault must reach the stats",
                strategy.name
            );
        }
    }

    #[test]
    fn vma_snapshot_reports_protections() {
        let mm = Mm::new(Strategy::STOCK);
        let base = mm.mmap(None, 8 * PAGE_SIZE, Protection::NONE).unwrap();
        mm.mprotect(base, 4 * PAGE_SIZE, Protection::READ_WRITE)
            .unwrap();
        let snap = mm.vma_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].2, Protection::READ_WRITE);
        assert_eq!(snap[1].2, Protection::NONE);
    }
}
