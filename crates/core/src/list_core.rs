//! The list-based range lock: both of the paper's list locks, written once.
//!
//! The paper's exclusive lock (Listing 1) and reader-writer lock
//! (Listings 2–3) maintain the *same* data structure — a singly linked list of
//! acquired ranges sorted by start address, with CAS insertion, wait-free
//! FAA-mark release, lazy unlinking of marked nodes, the empty-list fast path
//! of Section 4.5, the fairness gate of Section 4.3 and epoch reclamation
//! (Section 4.4). They differ only in their **compatibility rule** (which
//! pairs of overlapping nodes conflict) and in whether an insertion must be
//! **validated** after its CAS (the Figure 1 reader/writer race exists only
//! when overlapping nodes are allowed to coexist).
//!
//! [`ListLock`] is the one lock type, parameterized by a compile-time
//! [`CompatMode`]; how its waiters wait is the [`WaitPolicyKind`] its
//! [`ListLockConfig`] names:
//!
//! * [`Exclusive`] — every overlap conflicts; insertion needs no validation
//!   because two overlapping nodes always compete for the same insertion
//!   point (the mutual-exclusion argument of Section 4.1). Aliased as
//!   [`ListRangeLock`] (`list-ex`); its `read` is as exclusive as its `write`.
//! * [`ReaderWriter`] — overlapping readers share; reader and writer
//!   insertions are validated per Listing 3 (`r_validate` / `w_validate`),
//!   with readers preferred in conflicts exactly as in the paper. Aliased as
//!   [`RwListRangeLock`] (`list-rw`).
//!
//! Both modes issue the workspace's one [`Held`] token, whose word is the
//! node's address: [`ListLock::release`] is the paper's FAA-mark release
//! (or the fast path's head CAS), and a downgrade flips a held writer to a
//! reader in place (the identity under `Exclusive`).
//!
//! # One walk, three drivers
//!
//! The §4.5 fast path, the `InsertNode` walk and reader validation exist once
//! each. The walk and the validator are generic over *what a conflict does*
//! (a private, monomorphized parameter — the `is_nonblocking` flag of
//! Occlum's `set_lock`), and each way of acquiring is a short driver over the
//! same body:
//!
//! * **blocking** `read` / `write` — wait in place on the lock's queue,
//!   keyed on the conflicting node while pinned, then resume the walk at the
//!   node waited on; lost races restart. Only this driver enters the §4.3
//!   fairness gate and escalates after `impatience_threshold` attempts.
//! * **two-phase poll** ([`TwoPhaseRwRangeLock::poll`]) — stop at a conflict
//!   and report the blocker's address as the [`Pending::wait_key`]; lost
//!   races are retried, and a reader blocked in validation stays published
//!   across polls.
//! * **`try_`** — give up at a conflict or a lost race and leave no residue.
//!
//! # The clock
//!
//! The lock reads the clock only for a [`WaitStats`] sink: never on the fast
//! path, and on a slow path only when a sink is attached (the start time
//! lives in the [`Pending`] token). `try_` acquisitions read none.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rl_sync::stats::WaitStats;
use rl_sync::wait::{SpinThenYield, WaitPolicy, WaitPolicyKind, WaitQueue};
use rl_sync::{CachePadded, KEY_ANY};

use crate::fairness::{FairnessGate, FairnessPermit};
use crate::node::{deref_node, is_marked, mark, to_ptr, unmark, LNode};
use crate::range::Range;
use crate::reclaim;
use crate::traits::{Held, LockId, LockMode, RangeGuard, RwRangeLock};
use crate::twophase::TwoPhaseRwRangeLock;

/// Configuration for the list-based range locks (both modes).
#[derive(Debug, Clone)]
pub struct ListLockConfig {
    /// Enable the empty-list fast path of Section 4.5.
    pub fast_path: bool,
    /// Enable the starvation-avoidance gate of Section 4.3.
    pub fairness: bool,
    /// Number of failed insertion attempts before a thread becomes impatient
    /// (only meaningful when `fairness` is enabled).
    pub impatience_threshold: u32,
    /// How blocked acquisitions wait (and the fairness gate's auxiliary
    /// lock with them); the paper's `Pause()` loop by default.
    pub wait: WaitPolicyKind,
}

impl Default for ListLockConfig {
    fn default() -> Self {
        ListLockConfig {
            fast_path: true,
            fairness: false,
            impatience_threshold: 16,
            wait: WaitPolicyKind::SpinThenYield,
        }
    }
}

/// Result of comparing the node under inspection (`cur`) with the node being
/// inserted (`lock`), mirroring the paper's `compare` return values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Keep traversing: `cur` sorts before `lock`.
    CurBeforeLock,
    /// The two nodes conflict under the compatibility mode.
    Conflict,
    /// Insert `lock` right before `cur`.
    CurAfterLock,
}

/// A compile-time compatibility rule: which pairs of overlapping nodes
/// conflict, and whether insertions must be validated after their CAS.
///
/// Implemented by exactly two zero-sized types, [`Exclusive`] and
/// [`ReaderWriter`]; the trait exists so [`ListLock`] (and the tree
/// baselines in `rl-baselines`) can be written once and monomorphized per
/// mode.
pub trait CompatMode: Send + Sync + 'static {
    /// `true` if overlapping reader nodes may coexist (and insertions
    /// therefore need the Listing 3 validation passes).
    const READERS_SHARE: bool;

    /// The paper's `compare`: how `lock` orders against a live node `cur`.
    fn compare(cur: &LNode, lock: &LNode) -> Cmp;
}

/// Every overlap conflicts (the Section 4.1 exclusive lock, Listing 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Exclusive;

impl CompatMode for Exclusive {
    const READERS_SHARE: bool = false;

    #[inline]
    fn compare(cur: &LNode, lock: &LNode) -> Cmp {
        if cur.start >= lock.end {
            Cmp::CurAfterLock
        } else if lock.start >= cur.end {
            Cmp::CurBeforeLock
        } else {
            Cmp::Conflict
        }
    }
}

/// Overlapping readers share; writers exclude every overlap (the Section 4.2
/// reader-writer lock, Listing 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReaderWriter;

impl CompatMode for ReaderWriter {
    const READERS_SHARE: bool = true;

    #[inline]
    fn compare(cur: &LNode, lock: &LNode) -> Cmp {
        let both_readers = cur.is_reader() && lock.is_reader();
        if lock.start >= cur.end {
            return Cmp::CurBeforeLock;
        }
        if both_readers && lock.start >= cur.start {
            return Cmp::CurBeforeLock;
        }
        if cur.start >= lock.end {
            return Cmp::CurAfterLock;
        }
        if both_readers && cur.start >= lock.start {
            return Cmp::CurAfterLock;
        }
        Cmp::Conflict
    }
}

/// One pending (started but not yet completed) two-phase acquisition: the
/// single token type of [`TwoPhaseRwRangeLock`], whatever the lock.
///
/// A list lock issues it from `enqueue`, drives it with `poll` and abandons
/// it with `cancel`. The token owns the request node until the acquisition
/// completes (the node moves into the returned [`Held`]) or is cancelled
/// (the node is freed, or logically deleted if it was already published to
/// the list); leaking the token without either leaks the node — the future
/// types guarantee one of the two by cancelling on drop. (The blocking and
/// `try_` drivers keep their in-flight state in the same type, privately.)
/// Like a [`Held`], a list lock's token carries its [`LockId`], and a list
/// lock handed a token another lock issued panics instead of touching its
/// node.
///
/// State machine of a list-lock token:
///
/// * **searching** (`published == false`) — the node is exclusively owned
///   and not yet in the list; each poll re-runs the insertion walk and
///   backs out on conflict. Cancelling frees the node.
/// * **validating** (`published == true`, reader-writer mode readers only) —
///   the node is CAS-published but an earlier overlapping writer has not
///   released yet (the Listing 3 `r_validate` wait). The node *stays* in the
///   list across polls — that is what preserves the paper's
///   readers-preferred ordering: writers arriving later fail `w_validate`
///   against it. Cancelling marks the node deleted and wakes the queue so
///   those writers can proceed — the unlink-on-abandonment the blocking API
///   cannot express.
/// * **done** (`node == null`) — completed or cancelled; polling again is a
///   contract violation and panics.
///
/// Locks whose poll is a plain `try_` acquisition (the tree, segment and
/// semaphore baselines) keep no state between polls beyond the request:
/// their tokens come from [`Pending::try_based`] and never carry a node.
#[derive(Debug)]
pub struct Pending {
    range: Range,
    mode: LockMode,
    node: *mut LNode,
    /// The issuing list lock's [`LockId`]; 0 for a try-based token.
    issuer: u64,
    published: bool,
    /// Set once any attempt observed a conflict or lost a race; completions
    /// record as contended acquisitions in the attached [`WaitStats`].
    contended: bool,
    /// Address of the node that blocked the most recent unsuccessful poll
    /// (`KEY_ANY` before the first block). The key the caller should wait
    /// under; re-read after every poll, because the blocker can change.
    wait_key: u64,
    /// When the acquisition started — read only if a stats sink is attached.
    started: Option<Instant>,
}

// SAFETY: The node pointer is exclusively owned by this token (searching) or
// published to a lock-free list whose operations are all atomic (validating);
// either way the token may move across threads.
unsafe impl Send for Pending {}

impl Pending {
    /// The token of a *try-based* two-phase lock — one whose poll is a
    /// `try_` acquisition of [`Pending::range`] in [`Pending::mode`] and
    /// whose cancel has nothing to undo. It names no blocking conflict, so
    /// waiters file under `KEY_ANY`, which every wake claims.
    pub fn try_based(range: Range, mode: LockMode) -> Self {
        Pending {
            range,
            mode,
            node: std::ptr::null_mut(),
            issuer: 0,
            published: false,
            contended: false,
            wait_key: KEY_ANY,
            started: None,
        }
    }

    /// The requested range.
    pub fn range(&self) -> Range {
        self.range
    }

    /// The requested mode (in a list lock's token, the mode it will grant).
    pub fn mode(&self) -> LockMode {
        self.mode
    }

    /// Whether the request is for a reader node.
    fn reader(&self) -> bool {
        self.mode == LockMode::Shared
    }

    /// The wait key of the conflict that blocked the most recent poll: the
    /// blocking node's address, or `KEY_ANY` if no poll has blocked yet (and
    /// always for [try-based](Pending::try_based) tokens).
    ///
    /// Callers suspend under this key (a keyed park or keyed waker
    /// registration) so only the blocker's release wakes them, and must
    /// re-read it after every poll — the paper's protocol can block each
    /// retry on a different node.
    pub fn wait_key(&self) -> u64 {
        self.wait_key
    }

    /// `true` once a list-lock acquisition has completed or been cancelled.
    fn is_done(&self) -> bool {
        self.node.is_null()
    }
}

/// What an acquisition does when its walk meets a live conflicting node or
/// loses a race: the one parameter of the walk and the validator, fixed per
/// driver at compile time.
trait OnConflict {
    /// Wait in place on the conflicting node (through the lock's policy) and
    /// resume there; otherwise stop and report the node's address.
    const WAIT: bool;
    /// Retry a lost race — an insertion CAS, a deleted predecessor, a
    /// writer's failed validation; otherwise give up.
    const RETRY: bool;
}

/// The blocking driver's conflict rule.
struct Wait;

impl OnConflict for Wait {
    const WAIT: bool = true;
    const RETRY: bool = true;
}

/// The two-phase poll's conflict rule.
struct Report;

impl OnConflict for Report {
    const WAIT: bool = false;
    const RETRY: bool = true;
}

/// The `try_` driver's conflict rule.
struct GiveUp;

impl OnConflict for GiveUp {
    const WAIT: bool = false;
    const RETRY: bool = false;
}

/// How one walk, validation pass or attempt ended.
enum Step {
    /// Done: the node is inserted (walk) or the range is held (validation,
    /// attempt).
    Done,
    /// Stopped at a live conflicting node, whose address is the wait key.
    Blocked(u64),
    /// Lost a race; start over.
    Retry,
}

/// A list-based range lock in compatibility mode `M`.
///
/// Disjoint ranges can be held simultaneously by different threads;
/// overlapping ranges are serialized (overlapping readers share under
/// [`ReaderWriter`]). The lock itself uses no internal lock in the common
/// case. Waiters wait through the [`ListLockConfig::wait`] policy (spin,
/// spin-yield, or park-and-wake); the default is
/// [`WaitPolicyKind::SpinThenYield`], the paper's `Pause()` loop. The
/// empty-list fast path is identical under every policy.
///
/// `P` names a policy as a type for the frozen `benchmark/` harness alone,
/// whose [`ListLock::with_policy`] is its only use; every other constructor
/// lives on the default instantiation. Both go when the harness is
/// re-based.
///
/// Usually spelled through its aliases, [`ListRangeLock`] and
/// [`RwListRangeLock`].
pub struct ListLock<M: CompatMode, P: WaitPolicy = SpinThenYield> {
    /// Padded so the hottest word in the structure (every acquisition CASes
    /// or reads it) does not share a line with the config/stats cold fields
    /// or with the queue's counters.
    head: CachePadded<AtomicU64>,
    config: ListLockConfig,
    fairness: Option<FairnessGate>,
    stats: Option<Arc<WaitStats>>,
    /// Where blocked acquisitions wait, through `config.wait`, and the wake
    /// channel of suspended two-phase acquisitions.
    queue: WaitQueue,
    /// Stamped on every token this lock issues.
    id: LockId,
    _mode: PhantomData<(M, P)>,
}

/// The exclusive list-based range lock (`list-ex`, Section 4.1, Listing 1).
///
/// # Examples
///
/// ```
/// use range_lock::{ListRangeLock, Range, RwRangeLock};
///
/// let lock = ListRangeLock::new();
/// let a = lock.write(Range::new(0, 100));
/// let b = lock.write(Range::new(100, 200)); // disjoint: no waiting
/// assert!(lock.try_read(Range::new(50, 150)).is_none()); // readers too
/// drop(a);
/// drop(b);
/// ```
///
/// Selecting the blocking policy (waiters park instead of spinning):
///
/// ```
/// use range_lock::{ListLockConfig, ListRangeLock, Range, RwRangeLock};
/// use rl_sync::wait::WaitPolicyKind;
///
/// let lock = ListRangeLock::with_config(ListLockConfig {
///     wait: WaitPolicyKind::Block,
///     ..ListLockConfig::default()
/// });
/// drop(lock.write(Range::new(0, 100)));
/// ```
pub type ListRangeLock<P = SpinThenYield> = ListLock<Exclusive, P>;

/// The reader-writer list-based range lock (`list-rw`, Section 4.2,
/// Listings 2–3).
///
/// # Examples
///
/// ```
/// use range_lock::{Range, RwListRangeLock};
///
/// let lock = RwListRangeLock::new();
/// let r1 = lock.read(Range::new(0, 100));
/// let r2 = lock.read(Range::new(50, 150)); // overlapping readers share
/// drop(r1);
/// drop(r2);
/// let _w = lock.write(Range::new(0, 100)); // writers are exclusive
/// ```
pub type RwListRangeLock<P = SpinThenYield> = ListLock<ReaderWriter, P>;

impl<M: CompatMode> ListLock<M> {
    /// Creates a lock with the default configuration (fast path on, fairness
    /// off — the configuration evaluated in Section 7.1 — waiting through
    /// [`WaitPolicyKind::SpinThenYield`]).
    pub fn new() -> Self {
        Self::with_config(ListLockConfig::default())
    }

    /// Creates a lock with an explicit configuration, wait policy included.
    pub fn with_config(config: ListLockConfig) -> Self {
        ListLock::build(config)
    }
}

impl<M: CompatMode, P: WaitPolicy> ListLock<M, P> {
    /// Creates a lock with the default configuration waiting through `P`'s
    /// [`WaitPolicy::KIND`]. Kept only for the frozen `benchmark/` harness,
    /// which names its policy as a type; new code calls
    /// [`ListLock::with_config`].
    pub fn with_policy() -> Self {
        Self::build(ListLockConfig {
            wait: P::KIND,
            ..ListLockConfig::default()
        })
    }

    fn build(config: ListLockConfig) -> Self {
        ListLock {
            head: CachePadded::new(AtomicU64::new(0)),
            fairness: config.fairness.then(|| FairnessGate::new(config.wait)),
            queue: WaitQueue::new(config.wait),
            config,
            stats: None,
            id: LockId::default(),
            _mode: PhantomData,
        }
    }

    /// Attaches a [`WaitStats`] sink recording contended acquisition times
    /// (and, under [`WaitPolicyKind::Block`], park/wake counts).
    ///
    /// Also registers the stats label as this lock's trace label, so
    /// `rl-obs` events from this lock show up under the same name as its
    /// counters.
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        rl_obs::trace::label_lock(self.queue.trace_id(), stats.name());
        self.queue.attach_stats(Arc::clone(&stats));
        self.stats = Some(stats);
        self
    }

    /// [`RwRangeLock::read`] as an inherent method, for the frozen
    /// `benchmark/` harness, which calls it without importing the trait;
    /// deleted when the harness is re-based.
    #[inline]
    pub fn read(&self, range: Range) -> RangeGuard<'_, Self> {
        RwRangeLock::read(self, range)
    }

    /// [`RwRangeLock::write`] as an inherent method; see [`ListLock::read`].
    #[inline]
    pub fn write(&self, range: Range) -> RangeGuard<'_, Self> {
        RwRangeLock::write(self, range)
    }

    /// Returns the number of currently held (not logically deleted) ranges.
    pub fn held_ranges(&self) -> usize {
        let _pin = reclaim::pin();
        let mut count = 0;
        let mut cur = unmark(self.head.load(Ordering::Acquire));
        // SAFETY: Pinned; nodes reachable from the head are not reclaimed.
        while let Some(node) = unsafe { deref_node(cur) } {
            if !node.is_deleted() {
                count += 1;
            }
            cur = unmark(node.next.load(Ordering::Acquire));
        }
        count
    }

    /// Returns `true` if no range is currently held.
    ///
    /// Marked (released but not yet unlinked) nodes count as absent. The
    /// answer is immediately stale in the presence of concurrent threads and
    /// is intended for assertions and tests.
    pub fn is_quiescent(&self) -> bool {
        self.held_ranges() == 0
    }

    /// The mode this lock grants a request for `mode`: shared only if
    /// readers share.
    #[inline]
    fn granted(mode: LockMode) -> LockMode {
        if M::READERS_SHARE {
            mode
        } else {
            LockMode::Exclusive
        }
    }

    /// The node a token this lock issued holds.
    #[inline]
    fn node_of<'h>(&self, held: &'h Held) -> &'h LNode {
        let node = self.id.verify(held) as *const LNode;
        // SAFETY: This lock issued `held` (verified above) with the address
        // of a node it published, and a node stays allocated until the one
        // release that consumes its token (or until the lock itself, which
        // can redeem no token once dropped, frees its chain).
        unsafe { &*node }
    }

    /// The token of a blocking or `try_` acquisition that took the fast
    /// path: an uncontended acquisition, whose `Granted` is sampled like
    /// every fast-path event.
    #[inline]
    fn fast_held(&self, node: *mut LNode, range: Range, mode: LockMode) -> Held {
        if let Some(s) = &self.stats {
            s.record_uncontended();
        }
        rl_obs::trace::emit_sampled(
            rl_obs::EventKind::Granted,
            self.queue.trace_id(),
            range.start,
            range.end,
        );
        let mut held = self.id.issue(range, mode, node as u64);
        held.fast = true;
        held
    }

    /// The blocking driver: attempts that wait in place, under the §4.3
    /// fairness permit, escalating to impatient after
    /// `impatience_threshold` attempts (a refused writer validation counts
    /// as one).
    fn block_on(&self, mut pending: Pending) -> Held {
        let mut permit = match &self.fairness {
            Some(gate) => gate.enter(),
            None => FairnessPermit::Disabled,
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            if let (Some(gate), true) = (
                &self.fairness,
                permit.should_escalate(attempts, self.config.impatience_threshold),
            ) {
                permit = gate.escalate(permit);
            }
            let _pin = reclaim::pin();
            if let Step::Done = self.attempt::<Wait>(&mut pending) {
                return self.grant(&mut pending, false);
            }
        }
    }

    /// A token for an acquisition of `range` through `node`, announced by
    /// its `AcquireStart` event; the clock is read only for a stats sink.
    fn pending(&self, range: Range, node: *mut LNode, mode: LockMode) -> Pending {
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::AcquireStart,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }
        Pending {
            node,
            issuer: self.id.0,
            started: self.stats.as_ref().map(|_| Instant::now()),
            ..Pending::try_based(range, mode)
        }
    }

    /// Completes a slow-path acquisition: records it (a wait if any attempt
    /// was contended) and emits the unsampled `Granted` that pairs with a
    /// blocking or two-phase acquisition's `AcquireStart`.
    fn grant(&self, pending: &mut Pending, fast: bool) -> Held {
        let range = pending.range;
        if let Some(s) = &self.stats {
            match pending.started {
                Some(started) if pending.contended => {
                    s.record_wait_ns(pending.mode.into(), started.elapsed().as_nanos() as u64);
                }
                _ => s.record_uncontended(),
            }
        }
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::Granted,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }
        let node = std::mem::replace(&mut pending.node, std::ptr::null_mut());
        let mut held = self.id.issue(range, pending.mode, node as u64);
        held.fast = fast;
        held
    }

    /// Checks that this lock issued `pending` and that it is still in
    /// flight. A hard check, not a debug one: the token type is shared by
    /// every lock in the workspace, so safe code can hand this lock a token
    /// it never issued (`Pending::try_based`, or another list lock's) or one
    /// it already resolved, and the code below would dereference its node.
    fn check(&self, pending: &Pending) {
        assert!(
            pending.issuer == self.id.0 && !pending.is_done(),
            "poll of a completed acquisition, or of a token no list lock issued"
        );
    }

    /// Drops whatever an unfinished acquisition still owns: a node never
    /// published is freed; a published one is logically deleted and its
    /// key woken, so writers already waiting on it proceed.
    fn abandon(&self, pending: &mut Pending) {
        let node = std::mem::replace(&mut pending.node, std::ptr::null_mut());
        if node.is_null() {
            return;
        }
        if pending.published {
            // SAFETY: Published and never released: alive, marked once.
            let node_ref = unsafe { &*node };
            node_ref.mark_deleted();
            self.queue.wake_key(to_ptr(node_ref));
        } else {
            // SAFETY: Never published; exclusively owned by the token.
            unsafe { reclaim::free_node_now(node) };
        }
    }

    /// The §4.5 fast path: on an empty list, CAS the head to a marked
    /// pointer to `node`. `Some(true)` took it, `Some(false)` lost the race
    /// to another acquirer, `None` did not try.
    #[inline]
    fn fast_path(&self, node: *mut LNode) -> Option<bool> {
        if !self.config.fast_path || self.head.load(Ordering::Acquire) != 0 {
            return None;
        }
        let taken = self
            .head
            .compare_exchange(0, mark(node as u64), Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        Some(taken)
    }

    /// One attempt (the caller holds a pin): the `InsertNode` walk for a node
    /// not yet in the list, then, under `ReaderWriter`, the Listing 3
    /// validation. A reader's node stays published while validation waits
    /// out an earlier writer; a writer refused by validation starts over
    /// with a fresh node (or, giving up, leaves the deleted one to the list).
    fn attempt<C: OnConflict>(&self, pending: &mut Pending) -> Step {
        // SAFETY: The node is exclusively owned until published; a published
        // node is not released before the acquisition resolves.
        let node = unsafe { &*pending.node };
        let mut step = Step::Done;
        if !pending.published {
            step = self.insert::<C>(node, &mut pending.contended);
            if matches!(step, Step::Done) && M::READERS_SHARE {
                if pending.reader() {
                    pending.published = true;
                } else if !self.w_validate(node) {
                    pending.node = if C::RETRY {
                        reclaim::alloc_node(pending.range, false)
                    } else {
                        std::ptr::null_mut()
                    };
                    step = Step::Retry;
                }
            }
        }
        if pending.published {
            step = self.r_validate::<C>(node, &mut pending.contended);
        }
        pending.contended |= !matches!(step, Step::Done);
        step
    }

    /// The `InsertNode` walk (Listings 1 and 2): find `node`'s place and CAS
    /// it in. On a conflict, `C` waits in place and resumes at the node it
    /// waited on, or stops; a deleted predecessor restarts; a lost CAS is
    /// re-tried from the same predecessor unless `C` gives up.
    fn insert<C: OnConflict>(&self, node: &LNode, contended: &mut bool) -> Step {
        let mut prev: &AtomicU64 = &self.head;
        let mut cur = prev.load(Ordering::Acquire);
        loop {
            if is_marked(cur) {
                if !std::ptr::eq(prev, &*self.head) {
                    // The node owning `prev` was logically deleted: the
                    // pointer to our predecessor is lost.
                    return Step::Retry;
                }
                // A fast-path acquisition marked the head pointer: strip the
                // mark and continue on the regular path (Section 4.5).
                let _ = self.head.compare_exchange(
                    cur,
                    unmark(cur),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                cur = prev.load(Ordering::Acquire);
                continue;
            }
            // SAFETY: The caller holds a pin, so any node reachable from the
            // list cannot be reclaimed while we inspect it.
            let cur_node = unsafe { deref_node(cur) };
            if let Some(cn) = cur_node {
                let cn_next = cn.next.load(Ordering::Acquire);
                if is_marked(cn_next) {
                    // `cur` is logically deleted: try to unlink it and keep
                    // going from its successor regardless of the CAS outcome.
                    cur = self.unlink(prev, cur, cn_next);
                    continue;
                }
            }
            match compare_step::<M>(cur_node, node) {
                Cmp::CurBeforeLock => {
                    let cn = cur_node.expect("CurBeforeLock implies a live node");
                    prev = &cn.next;
                    cur = prev.load(Ordering::Acquire);
                }
                Cmp::Conflict => {
                    let cn = cur_node.expect("Conflict implies a live node");
                    // A reader also stops waiting when the holder downgrades
                    // to a reader it can share with.
                    let sharable = M::READERS_SHARE && node.is_reader();
                    if !self.wait_out::<C>(cn, sharable, contended) {
                        return Step::Blocked(to_ptr(cn));
                    }
                    // Loop around: a marked node is unlinked above, a
                    // downgraded one re-compares as a reader.
                }
                Cmp::CurAfterLock => {
                    node.next.store(cur, Ordering::Relaxed);
                    if prev
                        .compare_exchange(cur, to_ptr(node), Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Step::Done;
                    }
                    if !C::RETRY {
                        return Step::Retry;
                    }
                    *contended = true;
                    cur = prev.load(Ordering::Acquire);
                }
            }
        }
    }

    /// Reader validation (Listing 3, `r_validate`): scan forward from our
    /// published node until a node that starts after our range; an
    /// overlapping writer is waited out in place (or until it downgrades)
    /// or, if `C` does not wait, reported.
    fn r_validate<C: OnConflict>(&self, node: &LNode, contended: &mut bool) -> Step {
        let mut prev: &AtomicU64 = &node.next;
        let mut cur = unmark(prev.load(Ordering::Acquire));
        loop {
            // SAFETY: Pinned (the caller holds the pin across validation).
            let Some(cn) = (unsafe { deref_node(cur) }) else {
                return Step::Done;
            };
            // Ranges are half-open, so a node starting exactly at our end is
            // disjoint; `>` here would make the reader wait out an *adjacent*
            // writer (which may never release under a lock-table workload).
            if cn.start >= node.end {
                return Step::Done;
            }
            let cn_next = cn.next.load(Ordering::Acquire);
            if is_marked(cn_next) {
                cur = self.unlink(prev, cur, cn_next);
            } else if cn.is_reader() {
                prev = &cn.next;
                cur = unmark(prev.load(Ordering::Acquire));
            } else if !self.wait_out::<C>(cn, true, contended) {
                return Step::Blocked(to_ptr(cn));
            }
        }
    }

    /// Writer validation (Listing 3, `w_validate`): re-scan from the head
    /// until we find our own node; an overlapping node on the way means a
    /// reader raced us, so delete our node and fail. Never waits.
    fn w_validate(&self, node: &LNode) -> bool {
        let own = to_ptr(node);
        let mut prev: &AtomicU64 = &self.head;
        let mut cur = unmark(prev.load(Ordering::Acquire));
        loop {
            if cur == own {
                return true;
            }
            // SAFETY: Pinned (the caller holds the pin across validation). Our
            // own unmarked node is always reachable from the head, so the
            // traversal cannot fall off the end of the list before finding it.
            let Some(cn) = (unsafe { deref_node(cur) }) else {
                unreachable!("w_validate fell off the list before finding its own node")
            };
            let cn_next = cn.next.load(Ordering::Acquire);
            if is_marked(cn_next) {
                cur = self.unlink(prev, cur, cn_next);
            } else if cn.end <= node.start {
                prev = &cn.next;
                cur = unmark(prev.load(Ordering::Acquire));
            } else {
                // Overlapping node ahead of us in the list: a reader won the
                // race. Leave the list and fail validation; wake anyone that
                // had already started waiting on our published node.
                node.mark_deleted();
                self.queue.wake_key(own);
                return false;
            }
        }
    }

    /// What a conflict does. Under `C::WAIT`: wait on the queue — keyed on
    /// the conflicting node, so only *its* release (or downgrade) wakes us —
    /// until `cn` is deleted or, if `sharable`, downgraded to a reader, and
    /// return `true` to resume the walk. Otherwise return `false` at once.
    #[inline]
    fn wait_out<C: OnConflict>(&self, cn: &LNode, sharable: bool, contended: &mut bool) -> bool {
        if C::WAIT {
            *contended = true;
            let cleared =
                || is_marked(cn.next.load(Ordering::Acquire)) || (sharable && cn.is_reader());
            self.queue.wait(to_ptr(cn), cleared, None);
        }
        C::WAIT
    }

    /// Unlinks the logically deleted node `cur` from `prev` and returns its
    /// successor (the next node to inspect), retiring `cur` on success.
    #[inline]
    fn unlink(&self, prev: &AtomicU64, cur: u64, cn_next: u64) -> u64 {
        let next = unmark(cn_next);
        if prev
            .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: `cur` is now unreachable from the list head; in-flight
            // readers are protected by the epoch.
            unsafe { reclaim::retire_node(unmark(cur) as *mut LNode) };
        }
        next
    }
}

/// Applies the mode's `compare` with the end-of-list case folded in.
#[inline]
fn compare_step<M: CompatMode>(cur: Option<&LNode>, lock: &LNode) -> Cmp {
    match cur {
        None => Cmp::CurAfterLock,
        Some(cur) => M::compare(cur, lock),
    }
}

impl<M: CompatMode> Default for ListLock<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: CompatMode, P: WaitPolicy> Drop for ListLock<M, P> {
    fn drop(&mut self) {
        // `&mut self` proves there are no outstanding guards (they borrow the
        // lock), and a bare token can be redeemed by no lock but this one
        // (its `LockId`), so every node still in the chain can be freed
        // directly.
        let mut cur = unmark(*self.head.get_mut());
        while cur != 0 {
            let ptr = cur as *mut LNode;
            // SAFETY: Exclusive access to the lock; no thread can traverse it.
            let next = unmark(unsafe { (*ptr).next.load(Ordering::Relaxed) });
            // SAFETY: The node is reachable only from this chain.
            unsafe { reclaim::free_node_now(ptr) };
            cur = next;
        }
    }
}

impl<M: CompatMode, P: WaitPolicy> std::fmt::Debug for ListLock<M, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListLock")
            .field("name", &self.name())
            .field("held_ranges", &self.held_ranges())
            .field("config", &self.config)
            .finish()
    }
}

/// Under [`Exclusive`] both modes are the same exclusive acquisition, so
/// overlapping "readers" serialize — exactly the cost the paper's
/// reader-writer variant exists to remove, and how the file subsystem and
/// the `filebench` sweep drive `list-ex` through the same generic code as the
/// sharing locks.
impl<M: CompatMode, P: WaitPolicy> RwRangeLock for ListLock<M, P> {
    /// The blocking driver's entry: the fast path inline, everything else in
    /// `block_on`.
    #[inline]
    fn acquire(&self, range: Range, mode: LockMode) -> Held {
        let mode = Self::granted(mode);
        let node = reclaim::alloc_node(range, mode == LockMode::Shared);
        let fast = self.fast_path(node);
        if fast == Some(true) {
            return self.fast_held(node, range, mode);
        }
        // A lost fast-path race keeps its node and counts as contention.
        let mut pending = self.pending(range, node, mode);
        pending.contended = fast.is_some();
        self.block_on(pending)
    }

    /// The `try_` driver: one attempt that never waits and never retries;
    /// a failure frees (never published) or logically deletes (published)
    /// the node, so it leaves nothing behind and counts nothing. A grant
    /// counts once as an uncontended acquisition, like every other lock's.
    fn try_acquire(&self, range: Range, mode: LockMode) -> Option<Held> {
        let mode = Self::granted(mode);
        let node = reclaim::alloc_node(range, mode == LockMode::Shared);
        if self.fast_path(node) == Some(true) {
            return Some(self.fast_held(node, range, mode));
        }
        let _pin = reclaim::pin();
        let mut pending = Pending {
            node,
            ..Pending::try_based(range, mode)
        };
        if let Step::Done = self.attempt::<GiveUp>(&mut pending) {
            return Some(self.grant(&mut pending, false));
        }
        self.abandon(&mut pending);
        None
    }

    /// The release of Listings 1–2: one FAA marks the node deleted (later
    /// traversals unlink it) and wakes its key — or, for a fast-path hold
    /// still alone in the list, one CAS empties the head again.
    #[inline]
    fn release(&self, held: Held) {
        let node = self.node_of(&held);
        let range = held.range();
        if held.fast {
            let marked_ptr = mark(to_ptr(node));
            if self.head.load(Ordering::Acquire) == marked_ptr
                && self
                    .head
                    .compare_exchange(marked_ptr, 0, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                // Eager removal succeeded; the node is unreachable from the
                // list but may still be referenced by a traversal that read
                // the head before our CAS, so retire it rather than free it.
                // No wake is needed: a waiter can only wait on a node it
                // reached by traversing, and every traversal strips the
                // fast-path head mark first — which would have made this CAS
                // fail. SAFETY: Unreachable from the list head.
                unsafe { reclaim::retire_node(to_ptr(node) as *mut LNode) };
                rl_obs::trace::emit_sampled(
                    rl_obs::EventKind::Release,
                    self.queue.trace_id(),
                    range.start,
                    range.end,
                );
                return;
            }
            // Another thread stripped the fast-path mark (we are now a regular
            // node in the list); fall through to the regular release.
        }
        node.mark_deleted();
        // Wake hook: waiters poll for the mark set above. Keyed on our own
        // node — the only node whose mark this release changed — so waiters
        // parked on other conflicts stay parked.
        self.queue.wake_key(to_ptr(node));
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::Release,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }
    }

    /// Flips the node's reader flag in place and wakes blocked overlapping
    /// readers so they can share immediately. Unlike a release-and-re-read
    /// sequence, no other writer can slip in between: the node never leaves
    /// the list, so the holder's exclusion only ever *weakens* to shared.
    /// The flip only weakens the node's exclusion, so every concurrent
    /// traversal stays correct whichever value it reads; waiting readers see
    /// it through the wake (their wait predicates re-check the reader flag,
    /// not just the deletion mark). A shared hold, or any hold under
    /// [`Exclusive`] (where it already satisfies a shared one), is left as
    /// it is.
    fn downgrade(&self, held: &mut Held) -> bool {
        let node = self.node_of(held);
        if M::READERS_SHARE && !node.is_reader() {
            node.set_reader();
            self.queue.wake_key(to_ptr(node));
            held.set_shared();
        }
        true
    }

    fn readers_share(&self) -> bool {
        M::READERS_SHARE
    }

    fn name(&self) -> &'static str {
        if M::READERS_SHARE {
            "list-rw"
        } else {
            "list-ex"
        }
    }
}

/// Enqueue allocates the request node and does no list work — inserting
/// *is* (modulo validation) acquiring, so the physical insertion happens in
/// the first poll that finds the insertion point. The mode is fixed at
/// enqueue and travels in the token.
impl<M: CompatMode, P: WaitPolicy> TwoPhaseRwRangeLock for ListLock<M, P> {
    fn enqueue(&self, range: Range, mode: LockMode) -> Pending {
        let mode = Self::granted(mode);
        let node = reclaim::alloc_node(range, mode == LockMode::Shared);
        self.pending(range, node, mode)
    }

    /// The two-phase poll driver: drives `pending` as far as it can get
    /// without waiting. `None` means a conflicting holder blocks it *right
    /// now* (its address is the new [`Pending::wait_key`]); lost races are
    /// retried, never reported. Polls bypass the fairness gate: impatience
    /// cannot be carried across suspensions without holding a gate permit
    /// while descheduled.
    fn poll(&self, pending: &mut Pending) -> Option<Held> {
        self.check(pending);
        let _pin = reclaim::pin();
        if !pending.published {
            match self.fast_path(pending.node) {
                Some(true) => return Some(self.grant(pending, true)),
                Some(false) => pending.contended = true,
                None => {}
            }
        }
        loop {
            match self.attempt::<Report>(pending) {
                Step::Done => return Some(self.grant(pending, false)),
                Step::Blocked(key) => {
                    pending.wait_key = key;
                    return None;
                }
                Step::Retry => {}
            }
        }
    }

    /// Cancellation accounting ([`WaitStats`] `cancels`) is recorded by the
    /// callers that decide to abandon (future drops, expired timeouts), not
    /// here, so a cancel is counted exactly once.
    fn cancel(&self, pending: &mut Pending) {
        if pending.is_done() {
            return;
        }
        self.check(pending);
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::Cancelled,
                self.queue.trace_id(),
                pending.range.start,
                pending.range.end,
            );
        }
        self.abandon(pending);
    }

    fn wait_queue(&self) -> &WaitQueue {
        &self.queue
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::future::Future;
    use std::sync::atomic::{AtomicI64, AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::task::{Context, Poll, Waker};
    use std::thread::JoinHandle;
    use std::time::Duration;

    use WaitPolicyKind::{Block, Spin, SpinThenYield};

    /// A default-configured lock waiting through `wait`.
    pub(crate) fn waiting<M: CompatMode>(wait: WaitPolicyKind) -> ListLock<M> {
        ListLock::with_config(ListLockConfig {
            wait,
            ..ListLockConfig::default()
        })
    }

    /// How long any test waiter may take before the test fails instead of
    /// hanging — this stack's failure mode.
    pub(crate) const BOUND: Duration = Duration::from_secs(60);

    /// Joins `handles`, failing if any is still running after [`BOUND`].
    pub(crate) fn join_within(handles: Vec<JoinHandle<()>>) {
        let deadline = Instant::now() + BOUND;
        for h in handles {
            while !h.is_finished() {
                assert!(Instant::now() < deadline, "a waiter hung");
                std::thread::sleep(Duration::from_millis(1));
            }
            h.join().unwrap();
        }
    }

    /// One of the four ways to acquire.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Driver {
        Blocking,
        Try,
        /// Two-phase polls: single polls in [`ask`], the timed poll-and-park
        /// loop in [`exclusion_storm`].
        Poll,
        AsyncFirstPoll,
    }

    pub(crate) const BLOCKING: &[Driver] = &[Driver::Blocking];
    pub(crate) const EVERY_DRIVER: &[Driver] = &[
        Driver::Blocking,
        Driver::Try,
        Driver::Poll,
        Driver::AsyncFirstPoll,
    ];

    /// Polls `fut` once; a pending future is dropped, which cancels it.
    fn first_poll<F: Future>(fut: F) -> Option<F::Output> {
        match std::pin::pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(out) => Some(out),
            Poll::Pending => None,
        }
    }

    /// `threads` threads acquire ranges that all overlap, a third of them as
    /// writers, rotating through `drivers`, and check exclusion in the
    /// critical section: a writer is alone, a reader sees no writer — and
    /// under [`Exclusive`], where reads are exclusive too, every acquisition
    /// is alone. Ends quiescent, with the full range free.
    pub(crate) fn exclusion_storm<M: CompatMode>(
        lock: ListLock<M>,
        threads: usize,
        iters: usize,
        drivers: &'static [Driver],
    ) {
        let lock = Arc::new(lock);
        let readers = Arc::new(AtomicI64::new(0));
        let writers = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(StdAtomicU64::new(0));
        let handles = (0..threads)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let readers = Arc::clone(&readers);
                let writers = Arc::clone(&writers);
                let violations = Arc::clone(&violations);
                std::thread::spawn(move || {
                    for i in 0..iters {
                        // Every range covers [245, 300).
                        let start = ((t * 13 + i * 7) % 50) as u64 * 5;
                        let range = Range::new(start, start + 300);
                        let write = (t + i) % 3 == 0;
                        let timeout = Duration::from_millis(5);
                        let guard = match (drivers[i % drivers.len()], write) {
                            (Driver::Blocking, true) => Some(lock.write(range)),
                            (Driver::Blocking, false) => Some(lock.read(range)),
                            (Driver::Try, true) => lock.try_write(range),
                            (Driver::Try, false) => lock.try_read(range),
                            (Driver::Poll, true) => lock.write_timeout(range, timeout),
                            (Driver::Poll, false) => lock.read_timeout(range, timeout),
                            (Driver::AsyncFirstPoll, true) => first_poll(lock.write_async(range)),
                            (Driver::AsyncFirstPoll, false) => first_poll(lock.read_async(range)),
                        };
                        let Some(guard) = guard else { continue };
                        if write || !M::READERS_SHARE {
                            writers.fetch_add(1, StdOrdering::SeqCst);
                            if writers.load(StdOrdering::SeqCst) != 1
                                || readers.load(StdOrdering::SeqCst) != 0
                            {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            std::hint::black_box(i);
                            writers.fetch_sub(1, StdOrdering::SeqCst);
                        } else {
                            readers.fetch_add(1, StdOrdering::SeqCst);
                            if writers.load(StdOrdering::SeqCst) != 0 {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            readers.fetch_sub(1, StdOrdering::SeqCst);
                        }
                        drop(guard);
                    }
                })
            })
            .collect();
        join_within(handles);
        assert_eq!(violations.load(StdOrdering::SeqCst), 0);
        assert!(lock.is_quiescent());
        drop(lock.try_write(Range::FULL).expect("no residue"));
    }

    /// Four threads through a fairness-enabled lock whose impatience
    /// threshold is 2, so any restarted acquisition escalates to the
    /// auxiliary lock.
    pub(crate) fn fairness_smoke<M: CompatMode>() {
        let lock = Arc::new(ListLock::<M>::with_config(ListLockConfig {
            fairness: true,
            impatience_threshold: 2,
            ..Default::default()
        }));
        let handles = (0..4)
            .map(|t| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let start = ((t * 17 + i * 3) % 64) as u64;
                        let range = Range::new(start, start + 32);
                        if i % 4 == 0 {
                            drop(lock.write(range));
                        } else {
                            drop(lock.read(range));
                        }
                    }
                })
            })
            .collect();
        join_within(handles);
        assert!(lock.is_quiescent());
    }

    /// The lock through `RwRangeLock`-generic code, as the file store and the
    /// benchmark drivers use it.
    pub(crate) fn trait_round_trip<M: CompatMode>(name: &str) {
        fn exercise<L: RwRangeLock>(lock: &L) {
            drop(lock.read(Range::new(0, 5)));
            drop(lock.write(Range::new(0, 5)));
            drop(lock.read_full());
            drop(lock.write_full());
        }
        let lock = ListLock::<M>::new();
        exercise(&lock);
        assert_eq!(RwRangeLock::name(&lock), name);
        assert_eq!(lock.readers_share(), M::READERS_SHARE);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn exclusive_compare_matches_overlap_algebra() {
        let a = LNode::new(Range::new(0, 10), false);
        let probe = |s, e| {
            let b = LNode::new(Range::new(s, e), false);
            Exclusive::compare(&a, &b)
        };
        assert_eq!(probe(10, 20), Cmp::CurBeforeLock); // adjacent after
        assert_eq!(probe(5, 15), Cmp::Conflict);
        let later = LNode::new(Range::new(100, 110), false);
        let b = LNode::new(Range::new(0, 10), false);
        assert_eq!(Exclusive::compare(&later, &b), Cmp::CurAfterLock);
    }

    #[test]
    fn rw_compare_lets_readers_share() {
        let r1 = LNode::new(Range::new(0, 10), true);
        let r2 = LNode::new(Range::new(5, 15), true);
        let w = LNode::new(Range::new(5, 15), false);
        assert_eq!(ReaderWriter::compare(&r1, &r2), Cmp::CurBeforeLock);
        assert_eq!(ReaderWriter::compare(&r1, &w), Cmp::Conflict);
        assert_eq!(ReaderWriter::compare(&w, &r2), Cmp::Conflict);
    }

    #[test]
    fn rw_compare_sees_downgrade() {
        let w = LNode::new(Range::new(0, 10), false);
        let r = LNode::new(Range::new(5, 15), true);
        assert_eq!(ReaderWriter::compare(&w, &r), Cmp::Conflict);
        w.set_reader();
        assert_eq!(ReaderWriter::compare(&w, &r), Cmp::CurBeforeLock);
    }

    #[test]
    fn core_round_trip_both_modes() {
        let ex = ListRangeLock::new();
        let held = ex.acquire(Range::new(0, 10), LockMode::Exclusive);
        assert!(held.fast);
        assert_eq!(held.range(), Range::new(0, 10));
        ex.release(held);
        assert!(ex.is_quiescent());

        let rw = RwListRangeLock::new();
        let r = rw.read(Range::new(0, 10));
        assert!(r.is_reader());
        drop(r);
        assert!(rw.is_quiescent());
    }

    #[test]
    fn two_phase_poll_completes_and_blocks() {
        let ex = ListRangeLock::new();
        // Uncontended: the first poll completes via the fast path.
        let mut p = ex.enqueue(Range::new(0, 10), LockMode::Exclusive);
        assert!(!p.is_done());
        assert_eq!(p.range(), Range::new(0, 10));
        let held = ex.poll(&mut p).expect("uncontended poll completes");
        assert!(held.fast);
        assert!(p.is_done());
        // Contended: polls return None (and never complete) while the
        // conflicting holder remains.
        let mut p2 = ex.enqueue(Range::new(5, 15), LockMode::Exclusive);
        assert!(ex.poll(&mut p2).is_none());
        assert!(ex.poll(&mut p2).is_none());
        assert!(!p2.is_done());
        ex.release(held);
        ex.release(ex.poll(&mut p2).expect("post-release poll"));
        assert!(ex.is_quiescent());
    }

    #[test]
    fn two_phase_cancel_leaves_no_residue() {
        let ex = ListRangeLock::new();
        let held = ex.write(Range::new(0, 10));
        let mut p = ex.enqueue(Range::new(5, 15), LockMode::Exclusive);
        assert!(ex.poll(&mut p).is_none());
        ex.cancel(&mut p);
        assert!(p.is_done());
        ex.cancel(&mut p); // idempotent
        drop(held);
        // The abandoned request left nothing behind: the full range is free.
        drop(ex.try_write(Range::FULL).expect("no residue"));
        assert!(ex.is_quiescent());
    }

    #[test]
    fn two_phase_rw_writer_blocks_on_reader_and_recovers() {
        let rw = RwListRangeLock::new();
        let r = rw.read(Range::new(0, 10));
        let mut p = rw.enqueue(Range::new(5, 15), LockMode::Exclusive);
        assert!(rw.poll(&mut p).is_none());
        drop(r);
        let w = rw.poll(&mut p).expect("writer proceeds");
        assert!(!w.is_reader());
        rw.release(w);
        assert!(rw.is_quiescent());
    }

    #[test]
    fn downgrade_flips_held_node() {
        let rw = RwListRangeLock::new();
        let mut w = rw.write(Range::new(0, 10));
        assert!(!w.is_reader());
        assert!(w.downgrade());
        assert!(w.is_reader());
        // An overlapping reader can now share without the writer releasing.
        let r = rw.try_read(Range::new(5, 15)).expect("shares");
        drop(r);
        drop(w);
        assert!(rw.is_quiescent());

        // Under `Exclusive` the downgrade is the identity.
        let ex = ListRangeLock::new();
        let mut w = ex.write(Range::new(0, 10));
        assert!(w.downgrade());
        assert!(!w.is_reader());
        assert!(ex.try_read(Range::new(5, 15)).is_none());
    }

    #[test]
    fn blocked_reader_stays_published_between_polls() {
        // Figure 1: the reader [15, 45) slides past the reader [20, 25) and
        // is CAS-published before the writer [30, 35), which validation
        // must then wait out — with the node left in the list.
        let rw = RwListRangeLock::new();
        let _r1 = rw.read(Range::new(1, 10));
        let _r2 = rw.read(Range::new(20, 25));
        let w = rw.acquire(Range::new(30, 35), LockMode::Exclusive);
        let mut p = rw.enqueue(Range::new(15, 45), LockMode::Shared);
        assert!(rw.poll(&mut p).is_none());
        assert!(p.published);
        assert_eq!(rw.held_ranges(), 4);
        assert_eq!(p.wait_key(), rw.id.verify(&w));
        assert!(rw.poll(&mut p).is_none());
        assert_eq!(rw.held_ranges(), 4);
        rw.release(w);
        let r = rw.poll(&mut p).expect("writer gone: validated");
        assert!(r.is_reader());
        rw.release(r);
    }

    /// Asks for `range` (shared iff `read`) through `driver` and checks that
    /// it is `granted` at once or not. A grant is released at once; a
    /// refused `try_`, poll or future leaves no residue (a blocked poll is
    /// re-polled first: it must name its blocker as a stable wait key). A
    /// blocking acquisition runs on a helper thread: if it must wait, the
    /// still-waiting thread is returned for the caller to join (bounded)
    /// after releasing what it holds.
    fn ask<M: CompatMode>(
        lock: &Arc<ListLock<M>>,
        driver: Driver,
        range: Range,
        read: bool,
        granted: bool,
    ) -> Option<JoinHandle<()>> {
        let what = format!("{driver:?} read={read} {range:?} on {}", lock.name());
        match driver {
            Driver::Blocking => {
                let parked = lock.wait_queue().waiters();
                let waiter = Arc::clone(lock);
                let h = std::thread::spawn(move || {
                    drop(if read {
                        waiter.read(range)
                    } else {
                        waiter.write(range)
                    });
                });
                if granted {
                    join_within(vec![h]);
                    return None;
                }
                // Under `Block` a waiter ends up parked in the queue.
                let deadline = Instant::now() + BOUND;
                while lock.wait_queue().waiters() == parked {
                    assert!(!h.is_finished(), "{what}: must wait");
                    assert!(Instant::now() < deadline, "{what}: never parked");
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Some(h);
            }
            Driver::Try => {
                let g = if read {
                    lock.try_read(range)
                } else {
                    lock.try_write(range)
                };
                assert_eq!(g.is_some(), granted, "{what}");
            }
            Driver::Poll => {
                let mode = if read {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                let mut p = lock.enqueue(range, mode);
                match lock.poll(&mut p) {
                    Some(held) => {
                        assert!(granted, "{what}");
                        lock.release(held);
                    }
                    None => {
                        assert!(!granted, "{what}");
                        let key = p.wait_key();
                        assert_ne!(key, KEY_ANY, "{what}: a blocked poll names its blocker");
                        assert!(lock.poll(&mut p).is_none(), "{what}");
                        assert_eq!(p.wait_key(), key, "{what}: same holder, same key");
                        lock.cancel(&mut p);
                    }
                }
            }
            Driver::AsyncFirstPoll => {
                let g = if read {
                    first_poll(lock.read_async(range))
                } else {
                    first_poll(lock.write_async(range))
                };
                assert_eq!(g.is_some(), granted, "{what}");
            }
        }
        None
    }

    /// Every driver × both modes on the cases the protocol is argued on.
    fn every_driver_on<M: CompatMode>() {
        let lock = Arc::new(waiting::<M>(Block));
        let share = M::READERS_SHARE;
        for &driver in EVERY_DRIVER {
            let mut waiting = Vec::new();
            // PR 2's adjacency: half-open ranges ending (or starting)
            // exactly where a held writer starts (or ends) are disjoint.
            let w = lock.write(Range::new(185, 214));
            for read in [true, false] {
                waiting.extend(ask(&lock, driver, Range::new(166, 185), read, true));
                waiting.extend(ask(&lock, driver, Range::new(214, 230), read, true));
            }
            drop(w);

            // An overlapping range blocks or fails — unless both are
            // readers of a lock whose readers share.
            for held_read in [false, true] {
                let held = if held_read {
                    lock.read(Range::new(0, 100))
                } else {
                    lock.write(Range::new(0, 100))
                };
                for read in [true, false] {
                    let granted = held_read && read && share;
                    waiting.extend(ask(&lock, driver, Range::new(50, 150), read, granted));
                }
                drop(held);
                join_within(std::mem::take(&mut waiting));
            }

            // Figure 1's pre-state: readers [1, 10), [20, 25), [40, 50) —
            // those this mode admits next to the reader [15, 45) — and the
            // writer [30, 35) refused while [15, 45) is held.
            let mut held = vec![lock.read(Range::new(15, 45))];
            for range in [Range::new(1, 10), Range::new(20, 25), Range::new(40, 50)] {
                held.extend(lock.try_read(range));
            }
            assert_eq!(held.len(), if share { 4 } else { 2 });
            waiting.extend(ask(&lock, driver, Range::new(30, 35), false, false));
            drop(held);
            join_within(waiting);

            assert!(lock.is_quiescent(), "{driver:?}");
            drop(lock.try_write(Range::FULL).expect("no residue"));
        }
    }

    #[test]
    fn every_driver_agrees_in_both_modes() {
        every_driver_on::<Exclusive>();
        every_driver_on::<ReaderWriter>();
    }

    #[test]
    fn every_driver_storm_under_every_policy_leaves_no_residue() {
        for wait in [Spin, SpinThenYield, Block] {
            exclusion_storm(waiting::<Exclusive>(wait), 4, 200, EVERY_DRIVER);
            exclusion_storm(waiting::<ReaderWriter>(wait), 4, 200, EVERY_DRIVER);
        }
    }
}
