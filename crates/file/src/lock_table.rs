//! A POSIX `fcntl`-style byte-range lock table over the registry's boxed
//! [`TwoPhaseRwRangeLock`]; tests box a static one.
//!
//! The paper's range locks hand out RAII guards: one guard, one range, one
//! mode, released on drop. File systems expose a different contract —
//! `fcntl(F_SETLK)` — in which a named **owner** accumulates a set of byte
//! ranges per file, and re-locking by the same owner *replaces* whatever that
//! owner held over the affected bytes:
//!
//! * locking the middle of a held range **splits** it;
//! * locking across two adjacent held ranges **merges** them;
//! * re-locking in the other mode **upgrades** (shared → exclusive) or
//!   **downgrades** (exclusive → shared) the affected bytes;
//! * unlocking is just "replace with nothing";
//! * dropping the owner releases everything it still holds.
//!
//! [`LockTable`] implements that contract over the registry's boxed lock
//! (tests box a static one), so the same table runs over the paper's
//! `RwListRangeLock`, the kernel's `kernel-rw` tree lock, or the `pnova-rw`
//! segment lock interchangeably — the underlying lock remains the one and
//! only exclusion mechanism between owners.
//!
//! The table also inherits the underlying lock's **wait policy**, but a
//! blocked `lock()` call does not wait *for a release*: it re-polls once
//! per 1 ms recheck round and sits each round out through the policy. Over
//! a lock that blocks its waiters it sleeps the round away — one park, no CPU —
//! filed where no release or commit can wake it, so the owners that keep
//! running pay no wake on its account; under the spinning policies it backs
//! off to the round's end. A blocked `lock()` is therefore granted up to one
//! round after the release (or [`LockOwner`] drop) that unblocks it, not at
//! it as an in-kernel `F_SETLKW` sleeper is. The async forms are woken by
//! that release itself: they suspend under the blocking request's wait key,
//! and every commit broadcasts to them.
//!
//! # How records map onto the underlying lock
//!
//! There is one level of bookkeeping: an owner is a sorted list of disjoint
//! **tiles**, each one held guard of the underlying lock with its range and
//! mode. Two conflicting tiles can never coexist: their guards would
//! conflict. A *record* — what `fcntl` reports — is not stored
//! anywhere: guards cannot merge, so adjacent same-mode tiles are coalesced
//! into maximal runs only where somebody looks ([`LockTable::records`],
//! [`LockOwner::held`], the `F_GETLK` answer, the "already held" check).
//!
//! Every entry point runs one operation through the same steps:
//!
//! 1. **begin** (table mutex held, no waiting): fail-fast conflict check for
//!    the non-blocking form, no-op check, then the plan. Two plans have
//!    nothing to roll back and finish inside *begin*, at what the lock
//!    itself costs:
//!    * a **lock of a span the owner holds none of** drops the mutex, makes
//!      one enqueue + poll, and commits the granted tile in place. A blocked
//!      `try_` cancels the request and fails; a blocked blocking lock
//!      becomes a transaction that carries the request already enqueued
//!      (cancelling and re-enqueueing would unlink a published reader node
//!      and send it behind later arrivals);
//!    * an **unlock that splits no tile** detaches the tiles under the mutex
//!      and drops them after it.
//!
//!    Every other plan — a split, a merge, an upgrade or downgrade — detaches
//!    the owner's tiles that overlap the span and becomes a
//!    **transaction**. After the mutex is dropped the detached tiles are
//!    sorted into those that stay held (in-place downgrade, below) and those
//!    released, and the list of missing guards is computed: the re-locked
//!    span itself (the **target**) plus the **gaps** — the parts of a split
//!    tile outside the span, which must be re-taken.
//! 2. **poll** drives a transaction as far as it can get without waiting:
//!    for each missing guard in ascending range order — which keeps
//!    concurrent multi-piece transactions from deadlocking against each
//!    other — enqueue on the underlying lock on the first visit, then poll.
//!    A conflict on the target either fails the transaction (`try_`: one
//!    poll + cancel), or registers the owner's waits-for edges and fails on
//!    a cycle (`EDEADLK`), or reports "pending"; a conflict on a gap just
//!    reports "pending". A failed transaction releases what it holds and
//!    keeps going with its detached originals as the missing list.
//! 3. **commit**: when nothing is missing the tiles go back into the owner's
//!    list, and the lock's queue is broadcast so a suspended async owner
//!    re-derives its waits-for edges (a blocked sync owner re-derives them
//!    at its next recheck round). The two plans that finish inside *begin*
//!    commit — and wake — the same way.
//! 4. Dropping an unfinished transaction cancels the in-flight request,
//!    removes the waits-for edges and releases its tiles.
//!
//! Two small **drivers** are the only code that waits, and only a
//! transaction reaches them. The blocking one (`lock`, `try_lock`,
//! `unlock`, `lock_many`, `try_lock_many`) is
//! `loop { poll; pause one recheck round }` through the lock's own wait
//! policy; the async one (`lock_async`, `try_lock_async`, `unlock_async`,
//! `lock_many_async`) registers the task's waker on the lock's queue under
//! the in-flight request's wait key. A batch is the same machine one level
//! up: a list of steps, each begun like a single operation, and on failure
//! an undo list.
//!
//! # Fidelity caveats (vs. an in-kernel `fcntl`)
//!
//! * **Re-lock and partial unlock are not atomic.** The kernel edits its
//!   lock list under one spinlock; a guard-based composition must release a
//!   guard before it can re-acquire a sub-range or the other mode, so a
//!   waiting owner can slip in between the release and the re-acquisition
//!   (POSIX itself warns that an upgrade may block and that the old lock may
//!   be lost when it does). The same window applies to the *retained edges*
//!   of a split: unlocking the middle of a held range re-acquires the two
//!   ends, and a queued waiter can seize an end first — the unlock then
//!   waits for it, and the owner's exclusion over that edge has a gap.
//!   **Exception — blocking downgrades:** a blocking exclusive→shared
//!   re-lock (`lock`) keeps every exclusive tile that lies entirely inside
//!   the re-locked span *held*, flipping it in place through
//!   [`range_lock::RwRangeLock::downgrade`] when the lock supports it (the
//!   list locks do — `list-ex` trivially; so does `lustre-ex`).
//!   Those bytes stay continuously protected: no other writer can slip in,
//!   exactly as in the kernel. Locks without downgrade support (e.g.
//!   `kernel-rw`) fall back to the release-and-re-acquire path with its
//!   usual window, as does a non-blocking `try_lock` — its rollback must be
//!   able to restore the original tiles, which a premature downgrade
//!   would have already weakened.
//! * **Abandoning a transaction loses what it detached.** Dropping a
//!   `lock_async`/`unlock_async` future mid-wait leaves the table
//!   consistent, but — like a POSIX upgrade that blocks — the tiles detached
//!   by *begin* are gone, as if the part of them inside the span had been
//!   unlocked and the split edges not yet re-taken. Callers that cannot
//!   accept that should not abandon an in-flight operation.
//! * **`try_lock` is non-blocking only for the requested span.** The
//!   conflict *decision* never waits: a request that conflicts with a
//!   committed tile fails immediately, leaving the table unchanged. But a
//!   request that is granted — or that loses a bounded-acquisition race to
//!   an uncommitted transaction — may still wait while re-establishing the
//!   owner's retained coverage (split edges, rollback of the originals),
//!   exactly as in the first bullet. (`try_lock_async` suspends instead.)
//! * **`try_lock` conflict checks are table-level.** A conflicting guard held
//!   by an operation that has not committed yet is detected by the single
//!   poll of the underlying lock instead, and reported without a
//!   conflicting-owner name (`conflict: None`). That includes a fresh-span
//!   lock between its granting poll and its commit, and the guards of
//!   tiles a concurrent operation has *detached but not yet released*:
//!   they leave the table under the mutex and are dropped after it, so for
//!   that instant the table shows no conflict while the lock still has one.
//! * **`EDEADLK` detection is best-effort, exactly as POSIX specifies.**
//!   Whenever a poll finds the target blocked, a blocking `lock()` derives
//!   the set of owners whose *committed* tiles conflict with the requested
//!   span and registers those edges in a table-wide waits-for graph; an
//!   acquisition whose edges would close a cycle fails fast with
//!   [`DeadlockError`] instead of waiting. SUSv4 only requires detection
//!   "as far as the implementation can determine", and that is the contract
//!   here: a wait that blocks on an *uncommitted* transaction's guard has no
//!   visible holder and contributes no edge, so such a cycle is detected
//!   only once the transaction commits (every commit wakes the lock's async
//!   waiters, which re-derive their edges on wake; sync waiters re-derive
//!   theirs every recheck round), and a conservatively derived edge can
//!   flag a cycle that a lucky scheduling would have dissolved. The gap and
//!   rollback acquisitions that restore coverage an owner already held are
//!   *not* checked — they re-take spans the owner released moments earlier —
//!   but they go through the same enqueue → poll → wait steps as the target
//!   (they do not block inside the lock's own `read`/`write`), so a blocked
//!   one is re-polled on the same recheck interval and can be abandoned.
//!   Over an exclusive-only lock (`list-ex`, `lustre-ex`), overlapping *shared*
//!   tiles conflict too ([`range_lock::RwRangeLock::readers_share`] is
//!   `false`), and the edge derivation accounts for it — a reader parked
//!   behind a reader is a real wait there and can complete a real cycle.
//!
//! # Atomic multi-range acquisition
//!
//! [`LockOwner::lock_many`] (and its `try_` / `async` forms) applies a batch
//! of disjoint `(range, mode)` items **all-or-nothing**: the items are
//! applied in ascending address order — the same ordered-acquisition
//! discipline every multi-piece transaction in this table follows, so two
//! batches cannot deadlock *against each other* — one committed transaction
//! per item, because committed prefixes are what make a batch-vs-single
//! cycle visible to the waits-for graph. A failure part-way through (an
//! `EDEADLK` against a non-batch waiter, or a conflict for the non-blocking
//! form) switches the batch to its undo list: unlock the spans already
//! taken, then re-establish the owner's pre-batch records that overlapped
//! them, before the error is returned. The undo transactions wait like any
//! other, and re-locking an original is itself deadlock-checked: one that
//! can no longer be restored without closing a cycle is skipped, exactly as
//! a blocked POSIX upgrade loses its old lock.
//!
//! # Granularity requirement
//!
//! The table backs each record with guards of *exactly* the record's range,
//! so the underlying lock must serialize only **truly overlapping** ranges —
//! true for the list locks and the tree locks. A false-sharing lock such as
//! `pnova-rw` conflicts at segment granularity: two disjoint tiles in the
//! same segment would need two same-segment guards, which that lock cannot
//! hold at once (a split would self-deadlock). `pnova-rw` therefore works
//! under this table exactly when every locked range is segment-aligned — the
//! same granularity contract pNOVA itself imposes — and the model tests
//! exercise it at that alignment.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{ready, Poll};
use std::time::{Duration, Instant};

use range_lock::{Held, LockMode, Pending, Range, RangeGuard, TwoPhaseRwRangeLock, WaitGraph};
use rl_sync::{WakerSlot, KEY_ANY};

/// How long a blocked synchronous acquisition waits before re-deriving its
/// waits-for edges. Bounds the detection latency of a cycle whose closing
/// record was committed *after* this waiter last looked.
const DEADLOCK_RECHECK: Duration = Duration::from_millis(1);

/// A snapshot of one committed lock-table record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRecord {
    /// Name of the owner holding the record.
    pub owner: String,
    /// The locked byte range.
    pub range: Range,
    /// The mode the range is held in.
    pub mode: LockMode,
}

/// Error returned by [`LockOwner::try_lock`] when the request would have to
/// wait (the `EAGAIN` of `fcntl(F_SETLK)`).
#[derive(Debug, Clone)]
pub struct WouldBlock {
    /// The committed record the request conflicted with, when one was
    /// identifiable at check time (the `F_GETLK` answer). `None` means the
    /// bounded acquisition lost to a transaction that had not committed yet.
    pub conflict: Option<LockRecord>,
}

impl fmt::Display for WouldBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.conflict {
            Some(rec) => write!(
                f,
                "would block: [{}, {}) held {} by owner \"{}\"",
                rec.range.start,
                rec.range.end,
                rec.mode.name(),
                rec.owner
            ),
            None => write!(f, "would block: lost a bounded acquisition race"),
        }
    }
}

impl std::error::Error for WouldBlock {}

/// Error returned by the blocking acquisitions ([`LockOwner::lock`],
/// [`LockOwner::lock_async`], [`LockOwner::lock_many`]) when waiting would
/// close a cycle of owners — the `EDEADLK` of `fcntl(F_SETLKW)`.
///
/// Detection is best-effort, as POSIX allows; see the fidelity caveats in
/// the [module documentation](self). The table is left as if the failing
/// call had not been made (for `lock_many`, as if the *batch* had not been
/// made, up to the rollback caveat documented there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockError {
    /// Owner names along the detected cycle, closing back on the first
    /// (e.g. `["alice", "bob", "alice"]`). An owner released between
    /// detection and formatting appears as `"owner-<id>"`.
    pub cycle: Vec<String>,
    /// Graphviz DOT dump of the waits-for graph at detection time, with the
    /// cycle highlighted; see [`DeadlockError::waits_dot`].
    waits_dot: String,
}

impl DeadlockError {
    /// The waits-for graph at detection time as Graphviz DOT source: one
    /// box per waiting owner, one edge per waits-for dependency, the
    /// detected cycle in red. Pipe it to `dot -Tsvg` to see who was stuck
    /// on whom when the acquisition was refused.
    pub fn waits_dot(&self) -> &str {
        &self.waits_dot
    }
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resource deadlock would occur (EDEADLK): {}",
            self.cycle.join(" -> ")
        )
    }
}

impl std::error::Error for DeadlockError {}

/// Internal failure of one transaction: the non-blocking form fails with
/// `EAGAIN`, the blocking form with `EDEADLK`; neither form can produce the
/// other's error, which is what the two projections below rely on.
enum SetLockError {
    WouldBlock(WouldBlock),
    Deadlock(DeadlockError),
}

impl SetLockError {
    /// The error of a blocking entry point.
    fn deadlock(self) -> DeadlockError {
        match self {
            SetLockError::Deadlock(deadlock) => deadlock,
            SetLockError::WouldBlock(_) => {
                unreachable!("a blocking target never fails with EAGAIN")
            }
        }
    }

    /// The error of a non-blocking entry point.
    fn would_block(self) -> WouldBlock {
        match self {
            SetLockError::WouldBlock(wb) => wb,
            SetLockError::Deadlock(_) => {
                unreachable!("a non-blocking target is never cycle-checked")
            }
        }
    }
}

/// The outcome of an unlock: only a target can fail, and an unlock has none.
fn unlock_cannot_fail(outcome: Result<(), SetLockError>) {
    if outcome.is_err() {
        unreachable!("an unlock has no target to fail on");
    }
}

/// One acquisition's hold on the table's [`WaitGraph`]: installs the
/// owner's waits-for edges when a poll finds it must wait, and removes them
/// when the acquisition resolves — granted, refused, or abandoned (an async
/// acquisition's future dropped mid-wait). An acquisition granted on its
/// first poll never registers, so it never takes the graph's mutex.
struct WaitEdges<'a> {
    graph: &'a WaitGraph,
    owner_id: u64,
    registered: bool,
}

impl WaitEdges<'_> {
    /// Replaces the owner's edge set with `holders`. A refused registration
    /// leaves no edges behind (see [`WaitGraph::register`]).
    fn register(
        &mut self,
        holders: impl IntoIterator<Item = u64>,
    ) -> Result<(), range_lock::Deadlock> {
        let outcome = self.graph.register(self.owner_id, holders);
        self.registered = outcome.is_ok();
        outcome
    }

    /// Removes the owner's edges, if any are installed.
    fn clear(&mut self) {
        if mem::take(&mut self.registered) {
            self.graph.deregister(self.owner_id);
        }
    }
}

impl Drop for WaitEdges<'_> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// One held range of the underlying lock, in the table's mode: the unit an
/// owner's holdings are kept in.
struct Tile {
    range: Range,
    /// The mode the owner asked for (over an exclusive-only lock, a shared
    /// tile's guard is exclusive underneath).
    mode: LockMode,
    /// Held for its Drop impl, which releases the range.
    guard: RangeGuard<'static, dyn TwoPhaseRwRangeLock>,
}

impl Tile {
    /// Turns a tile that lies inside a shared-mode target into a shared
    /// tile *without releasing it* when possible: shared tiles pass through
    /// unchanged, exclusive ones are atomically downgraded when the
    /// underlying lock supports it. `None` means the guard had to be
    /// released (no downgrade support) and the span must be re-acquired as
    /// a gap.
    fn downgrade(mut self) -> Option<Self> {
        if self.mode == LockMode::Exclusive && !self.guard.downgrade() {
            return None;
        }
        self.mode = LockMode::Shared;
        Some(self)
    }
}

/// The records `fcntl` would report for a sorted, disjoint tile list:
/// maximal runs of adjacent same-mode tiles (POSIX merges touching locks of
/// equal type; guards cannot merge, so the merge happens here, on read).
fn runs(tiles: &[Tile]) -> impl Iterator<Item = (Range, LockMode)> + '_ {
    let mut tiles = tiles.iter().peekable();
    std::iter::from_fn(move || {
        let first = tiles.next()?;
        let (mut range, mode) = (first.range, first.mode);
        while let Some(next) = tiles.next_if(|t| t.range.start == range.end && t.mode == mode) {
            range.end = next.range.end;
        }
        Some((range, mode))
    })
}

/// Items a transaction keeps inline before it spills to the heap: one
/// re-lock touches one to four tiles in the common case (the target, its
/// two split edges, a neighbour it merges with).
const INLINE: usize = 4;

/// A list that keeps its first [`INLINE`] items inline and only the rest in
/// a `Vec`, so a transaction's tiles and missing guards allocate nothing in
/// the common case. Items are kept in push order.
struct Few<T> {
    inline: [Option<T>; INLINE],
    len: usize,
    spill: Vec<T>,
}

impl<T> Default for Few<T> {
    fn default() -> Self {
        Few {
            inline: std::array::from_fn(|_| None),
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl<T> Few<T> {
    fn push(&mut self, item: T) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = Some(item),
            None => self.spill.push(item),
        }
        self.len += 1;
    }

    fn get(&self, at: usize) -> Option<&T> {
        match self.inline.get(at) {
            Some(slot) => slot.as_ref(),
            None => self.spill.get(at - INLINE),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().flatten().chain(&self.spill)
    }
}

impl<T> IntoIterator for Few<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, INLINE>>,
        std::vec::IntoIter<T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

struct OwnerState {
    name: String,
    /// `rl-obs` actor id this owner's lock events are stamped with.
    actor: u64,
    /// Sorted by start; pairwise disjoint.
    tiles: Vec<Tile>,
}

/// Hashes an owner id. The table issues ids in sequence, so no client can
/// pick them to collide and SipHash's protection buys nothing; a Fibonacci
/// multiply spreads them over the whole word, top bits included.
#[derive(Default)]
struct OwnerIdHasher(u64);

impl Hasher for OwnerIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("owner ids hash as a u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

struct TableState {
    owners: HashMap<u64, OwnerState, BuildHasherDefault<OwnerIdHasher>>,
}

/// One guard a transaction still has to acquire.
#[derive(Clone, Copy)]
struct Missing {
    range: Range,
    mode: LockMode,
    /// Part of the requested span — honours the transaction's `blocking`
    /// flag and is deadlock-checked — as opposed to coverage the owner held
    /// going in (a split edge, or an original being restored), which always
    /// waits, unchecked.
    is_target: bool,
}

/// A resumable operation on the table. `poll` never waits; waiting is the
/// two drivers' job ([`LockTable::drive_blocking`], [`LockTable::drive_async`]).
trait Resumable {
    /// Drives the operation as far as it can get without waiting.
    fn poll(&mut self) -> Poll<Result<(), SetLockError>>;

    /// The wait key of the request the last `Pending` poll stopped at.
    fn wait_key(&self) -> u64;
}

/// One re-lock transaction in flight: replaces whatever the owner holds over
/// one span with one mode (or nothing). Built by [`LockTable::begin`] for a
/// plan that has to wait or holds rollback state; a plain value between
/// polls. Dropping it unfinished abandons the operation:
/// the in-flight request is cancelled (and the cancel recorded), the owner's
/// waits-for edges are removed, and the tiles it holds are released.
struct Transaction<'t> {
    table: &'t LockTable,
    owner_id: u64,
    /// Whether a conflict on the target waits (`EDEADLK`-checked) or fails
    /// the transaction with `EAGAIN`.
    blocking: bool,
    /// Tiles this transaction holds and will commit: kept across the mode
    /// change (in-place downgrade) or acquired so far.
    held: Few<Tile>,
    /// Guards to acquire, ascending; `missing[next..]` are still missing.
    missing: Few<Missing>,
    next: usize,
    /// The in-flight request for `missing[next]`, once enqueued.
    pending: Option<Pending>,
    /// What `begin` detached, as the missing list of a rollback.
    originals: Few<Missing>,
    /// Set once the transaction has failed and is restoring `originals`.
    failure: Option<SetLockError>,
    edges: WaitEdges<'t>,
}

impl Transaction<'_> {
    /// Cancels the in-flight request, if any; `true` if there was one.
    fn cancel_pending(&mut self) -> bool {
        let Some(mut pending) = self.pending.take() else {
            return false;
        };
        self.table.lock_ref().cancel(&mut pending);
        true
    }

    /// Switches to rolling back: everything held is released, and the
    /// originals become the missing list — re-taken from scratch, ascending,
    /// unchecked (the spans were held by this owner moments ago) — to be
    /// committed in place of the plan before `err` is reported.
    fn fail(&mut self, err: SetLockError) {
        self.held = Few::default();
        self.missing = mem::take(&mut self.originals);
        self.next = 0;
        self.failure = Some(err);
    }
}

impl Resumable for Transaction<'_> {
    fn poll(&mut self) -> Poll<Result<(), SetLockError>> {
        let table = self.table;
        loop {
            let Some(&want) = self.missing.get(self.next) else {
                table.commit(self.owner_id, mem::take(&mut self.held));
                return Poll::Ready(self.failure.take().map_or(Ok(()), Err));
            };
            if let Some(tile) = table.poll_tile(&mut self.pending, want.range, want.mode) {
                self.edges.clear();
                self.held.push(tile);
                self.next += 1;
            } else if !want.is_target {
                return Poll::Pending;
            } else if !self.blocking {
                // `try_`: one poll + cancel.
                self.cancel_pending();
                self.fail(SetLockError::WouldBlock(WouldBlock { conflict: None }));
            } else {
                // (Re-)derive this owner's waits-for edges from the
                // committed table. An edge set that closes a cycle cancels
                // the request and fails with `EDEADLK`; otherwise the driver
                // waits and re-polls, so a cycle committed behind this
                // waiter's back is still noticed. The graph collects the
                // holders straight from the table state, so the table mutex
                // is held across the registration (table, then graph; the
                // graph never takes the table's).
                let st = table.state.lock().unwrap();
                let holders =
                    table.conflicting_owner_ids(&st, self.owner_id, want.range, want.mode);
                let outcome = self.edges.register(holders);
                drop(st);
                let Err(cycle) = outcome else {
                    return Poll::Pending;
                };
                self.cancel_pending();
                let queue = table.lock_ref().wait_queue();
                queue.record_cancel();
                queue.record_deadlock();
                rl_obs::trace::emit(
                    rl_obs::EventKind::DeadlockDetected,
                    queue.trace_id(),
                    table.owner_actor(self.owner_id),
                    want.range.start,
                    want.range.end,
                );
                self.fail(SetLockError::Deadlock(table.deadlock_error(cycle.cycle())));
            }
        }
    }

    fn wait_key(&self) -> u64 {
        self.pending.as_ref().map_or(KEY_ANY, Pending::wait_key)
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if self.cancel_pending() {
            self.table.lock_ref().wait_queue().record_cancel();
        }
    }
}

/// An all-or-nothing batch in flight: the transaction machine one level up.
/// Its steps are whole transactions, run one at a time in order; when one
/// fails, the steps are replaced by the undo list — unlock what was applied,
/// then re-lock the pre-batch records that overlapped it — and the failure
/// is reported once that has run. Dropping it unfinished abandons the step
/// in flight; the steps already committed stay committed.
struct Batch<'t> {
    table: &'t LockTable,
    owner_id: u64,
    blocking: bool,
    /// The owner's records going in: the restore set of a rollback.
    before: Vec<(Range, LockMode)>,
    /// `(span, op)` of every step; `steps[next..]` have not begun.
    steps: Vec<(Range, Option<LockMode>)>,
    next: usize,
    /// The step in flight.
    current: Option<Transaction<'t>>,
    /// Set once an item has failed (the steps are the undo list from then
    /// on), with the span of the items that had been applied.
    failure: Option<(SetLockError, Range)>,
}

impl Batch<'_> {
    /// The non-blocking batch's up-front check: the first lock step that
    /// conflicts with a committed record of another owner, looked up for
    /// every step under one mutex hold.
    fn precheck(&self) -> Result<(), WouldBlock> {
        let st = self.table.state.lock().unwrap();
        let conflict = self.steps.iter().find_map(|&(range, op)| {
            self.table
                .conflicting_record(&st, self.owner_id, range, op?)
        });
        match conflict {
            None => Ok(()),
            Some(_) => Err(WouldBlock { conflict }),
        }
    }
}

impl Resumable for Batch<'_> {
    fn poll(&mut self) -> Poll<Result<(), SetLockError>> {
        loop {
            let outcome = match &mut self.current {
                Some(step) => {
                    let outcome = ready!(step.poll());
                    self.current = None;
                    outcome
                }
                None => {
                    let Some(&(range, op)) = self.steps.get(self.next) else {
                        let Some((err, span)) = self.failure.take() else {
                            return Poll::Ready(Ok(()));
                        };
                        let queue = self.table.lock_ref().wait_queue();
                        queue.record_batch_rollback();
                        rl_obs::trace::emit(
                            rl_obs::EventKind::BatchRollback,
                            queue.trace_id(),
                            self.table.owner_actor(self.owner_id),
                            span.start,
                            span.end,
                        );
                        return Poll::Ready(Err(err));
                    };
                    // Undo steps restore what the owner held: they wait.
                    let blocking = self.blocking || self.failure.is_some();
                    match self.table.begin(self.owner_id, range, op, blocking) {
                        ControlFlow::Break(outcome) => outcome,
                        ControlFlow::Continue(step) => {
                            self.current = Some(step);
                            continue;
                        }
                    }
                }
            };
            self.next += 1;
            match outcome {
                Ok(()) => {}
                // Restoring an original is best-effort: one that would
                // itself close a cycle is skipped — the coverage is lost, as
                // when a blocked POSIX upgrade loses its old lock.
                Err(_) if self.failure.is_some() => {}
                Err(err) => {
                    let applied = &self.steps[..self.next - 1];
                    let overlaps_applied = |r: &Range| applied.iter().any(|(a, _)| a.overlaps(r));
                    let undo = applied
                        .iter()
                        .map(|&(range, _)| (range, None))
                        .chain(
                            self.before
                                .iter()
                                .filter(|(range, _)| overlaps_applied(range))
                                .map(|&(range, mode)| (range, Some(mode))),
                        )
                        .collect();
                    self.failure = Some((err, batch_span(applied)));
                    self.steps = undo;
                    self.next = 0;
                }
            }
        }
    }

    fn wait_key(&self) -> u64 {
        self.current.as_ref().map_or(KEY_ANY, Transaction::wait_key)
    }
}

/// A per-file POSIX-style byte-range lock table over a boxed
/// [`TwoPhaseRwRangeLock`].
///
/// See the [module documentation](self) for the semantics. Construct one per
/// file, wrap it in an [`Arc`], and hand out [`LockOwner`] handles.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use range_lock::{Range, RwListRangeLock};
/// use rl_file::{LockMode, LockTable};
///
/// let table = Arc::new(LockTable::new(Box::new(RwListRangeLock::new())));
/// let mut alice = table.owner("alice");
/// let mut bob = table.owner("bob");
///
/// alice.lock(Range::new(0, 100), LockMode::Shared);
/// bob.lock(Range::new(0, 100), LockMode::Shared); // shared locks coexist
/// assert!(bob.try_lock(Range::new(50, 60), LockMode::Exclusive).is_err());
///
/// drop(bob); // releases everything bob held
/// alice.lock(Range::new(40, 60), LockMode::Exclusive); // split + upgrade
/// assert_eq!(table.held_records(), 3);
/// ```
pub struct LockTable {
    /// Declared (and therefore dropped) before `lock` is freed.
    state: Mutex<TableState>,
    /// Waits-for edges between blocked owners and the committed-tile
    /// holders blocking them; cycle-checked on every (re-)registration.
    waits: WaitGraph,
    next_owner: AtomicU64,
    /// The box `new` was given, as a stable heap address; the guards stored
    /// in `state` borrow it as `'static` (see [`LockTable::tile`]). Freed
    /// manually in `Drop`, strictly after `state` has been cleared.
    lock: *mut dyn TwoPhaseRwRangeLock,
}

// SAFETY: The raw pointer is the uniquely owned allocation of the box `new`
// was given (leaked) that only `Drop` frees; shared access to the lock itself
// is safe because `RwRangeLock` requires `Send + Sync`, and the guards the
// table stores are `Send` for the same reason.
unsafe impl Send for LockTable {}

// SAFETY: See the `Send` justification; all interior mutability is behind the
// `Mutex`.
unsafe impl Sync for LockTable {}

impl LockTable {
    /// Creates a table over `lock`; the table becomes the lock's only user.
    /// It keeps the box's own allocation: a lock call chases one pointer.
    pub fn new(lock: Box<dyn TwoPhaseRwRangeLock>) -> Self {
        LockTable {
            state: Mutex::new(TableState {
                owners: HashMap::default(),
            }),
            waits: WaitGraph::new(),
            next_owner: AtomicU64::new(1),
            lock: Box::into_raw(lock),
        }
    }

    fn lock_ref(&self) -> &dyn TwoPhaseRwRangeLock {
        // SAFETY: `self.lock` is a live heap allocation until `Drop`.
        unsafe { &*self.lock }
    }

    /// Short name of the underlying lock (`"list-rw"`, `"kernel-rw"`, …).
    pub fn lock_name(&self) -> &'static str {
        self.lock_ref().name()
    }

    /// Registers a new owner. Dropping the handle releases every range the
    /// owner still holds.
    pub fn owner(self: &Arc<Self>, name: impl Into<String>) -> LockOwner {
        let name = name.into();
        let id = self.next_owner.fetch_add(1, Ordering::Relaxed);
        let actor = rl_obs::trace::next_actor_id();
        rl_obs::trace::label_actor(actor, &name);
        self.state.lock().unwrap().owners.insert(
            id,
            OwnerState {
                name: name.clone(),
                actor,
                tiles: Vec::new(),
            },
        );
        LockOwner {
            table: Arc::clone(self),
            id,
            name,
        }
    }

    /// The `rl-obs` actor id registered for `owner_id` (0 if released).
    fn owner_actor(&self, owner_id: u64) -> u64 {
        let st = self.state.lock().unwrap();
        st.owners.get(&owner_id).map_or(0, |o| o.actor)
    }

    /// Snapshot of every committed record, sorted by (owner, start).
    pub fn records(&self) -> Vec<LockRecord> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<LockRecord> = st
            .owners
            .values()
            .flat_map(|o| {
                runs(&o.tiles).map(|(range, mode)| LockRecord {
                    owner: o.name.clone(),
                    range,
                    mode,
                })
            })
            .collect();
        out.sort_by(|a, b| (&a.owner, a.range.start).cmp(&(&b.owner, b.range.start)));
        out
    }

    /// Number of committed records across all owners.
    pub fn held_records(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.owners.values().map(|o| runs(&o.tiles).count()).sum()
    }

    /// Panics if a structural invariant is violated: every owner's tiles
    /// must be non-empty, sorted, and pairwise disjoint. Used by the model
    /// tests; cheap enough to call after every operation.
    pub fn check_invariants(&self) {
        let st = self.state.lock().unwrap();
        for owner in st.owners.values() {
            for tile in &owner.tiles {
                assert!(
                    !tile.range.is_empty(),
                    "owner {}: empty tile {:?}",
                    owner.name,
                    tile.range
                );
            }
            for pair in owner.tiles.windows(2) {
                assert!(
                    pair[0].range.end <= pair[1].range.start,
                    "owner {}: tiles out of order or overlapping at {:?}",
                    owner.name,
                    pair[1].range
                );
            }
        }
    }

    /// Returns the first committed record of *another* owner that conflicts
    /// with locking `range` in `mode` — the `F_GETLK` answer — or `None` if
    /// the request would succeed against the committed table. Over a lock
    /// whose "readers" serialize ([`range_lock::RwRangeLock::readers_share`]
    /// is `false`), overlap alone conflicts, whatever the modes.
    fn conflicting_record(
        &self,
        st: &TableState,
        owner_id: u64,
        range: Range,
        mode: LockMode,
    ) -> Option<LockRecord> {
        let readers_share = self.lock_ref().readers_share();
        st.owners
            .iter()
            .filter(|(&id, _)| id != owner_id)
            .find_map(|(_, owner)| {
                runs(&owner.tiles)
                    .find(|(held, held_mode)| {
                        held.overlaps(&range) && (mode.conflicts_with(*held_mode) || !readers_share)
                    })
                    .map(|(range, mode)| LockRecord {
                        owner: owner.name.clone(),
                        range,
                        mode,
                    })
            })
    }

    /// The one route into the underlying lock: enqueues the request for
    /// `range` on the first visit (leaving the token in `pending`), then
    /// polls it. `None` means a conflicting holder blocks it right now and
    /// the token stays in `pending` for the next poll — or for `cancel`.
    fn poll_tile(
        &self,
        pending: &mut Option<Pending>,
        range: Range,
        mode: LockMode,
    ) -> Option<Tile> {
        let lock = self.lock_ref();
        let held = lock.poll(pending.get_or_insert_with(|| lock.enqueue(range, mode)))?;
        *pending = None;
        Some(self.tile(range, mode, held))
    }

    /// Wraps a range held in the underlying lock as a tile, whose guard
    /// borrows the lock for `'static`.
    fn tile(&self, range: Range, mode: LockMode, held: Held) -> Tile {
        // SAFETY: The lock is a stable heap allocation that `Drop` frees only
        // after every tile — and with it every guard borrowing the lock — is
        // gone.
        let lock: &'static dyn TwoPhaseRwRangeLock = unsafe { &*self.lock };
        Tile {
            range,
            mode,
            guard: RangeGuard::new(lock, held),
        }
    }

    /// Publishes a finished operation's tiles into the owner's list. They
    /// lie in the hole `begin` detached them (or their originals) from, or
    /// in a span the owner held none of, so each goes in where it sorts with
    /// one in-place insert.
    fn commit(&self, owner_id: u64, tiles: impl IntoIterator<Item = Tile>) {
        let mut tiles = tiles.into_iter();
        if let Some(first) = tiles.next() {
            let mut st = self.state.lock().unwrap();
            let owner = st
                .owners
                .get_mut(&owner_id)
                .expect("commit for an unregistered owner");
            for tile in std::iter::once(first).chain(tiles) {
                let at = owner
                    .tiles
                    .partition_point(|t| t.range.start < tile.range.start);
                owner.tiles.insert(at, tile);
            }
        }
        // A commit changes the waits-for edges other blocked owners must
        // derive: the new tiles are new potential holders. Sync waiters
        // re-derive every recheck round, and no wake reaches them; async
        // waiters re-derive only when polled, so wake the lock's queue (a
        // spurious wake costs one re-poll). This is deliberately the
        // keyed-table *broadcast*, not a per-conflict wake: a cycle formed
        // by this commit can pass through any suspended waiter, including
        // ones keyed on nodes this commit never touches, and a keyed waiter
        // left parked would never re-poll to notice the EDEADLK it is part
        // of.
        self.lock_ref().wait_queue().wake_all();
    }

    /// Ids of the *other* owners whose committed tiles block `owner_id`
    /// from acquiring `range` in `mode` right now — one waits-for edge per
    /// yielded id — read from the table state `st`. Over a lock whose
    /// "readers" serialize ([`range_lock::RwRangeLock::readers_share`] is
    /// `false`), overlap alone conflicts, whatever the modes.
    fn conflicting_owner_ids<'s>(
        &self,
        st: &'s TableState,
        owner_id: u64,
        range: Range,
        mode: LockMode,
    ) -> impl Iterator<Item = u64> + 's {
        let readers_share = self.lock_ref().readers_share();
        st.owners.iter().filter_map(move |(&id, owner)| {
            let blocks = id != owner_id
                && owner.tiles.iter().any(|tile| {
                    tile.range.overlaps(&range)
                        && (mode.conflicts_with(tile.mode) || !readers_share)
                });
            blocks.then_some(id)
        })
    }

    /// Maps a cycle of owner ids to the named error surfaced to callers,
    /// attaching a DOT dump of the waits-for graph at detection time.
    fn deadlock_error(&self, cycle: &[u64]) -> DeadlockError {
        let edge_ids = self.waits.snapshot_edges();
        let st = self.state.lock().unwrap();
        let name_of = |id: &u64| {
            st.owners
                .get(id)
                .map(|o| o.name.clone())
                .unwrap_or_else(|| format!("owner-{id}"))
        };
        let cycle: Vec<String> = cycle.iter().map(name_of).collect();
        let mut edges = Vec::new();
        for (waiter, holders) in &edge_ids {
            for holder in holders {
                edges.push((name_of(waiter), name_of(holder)));
            }
        }
        let waits_dot = rl_obs::waits_for_dot(&edges, &cycle);
        DeadlockError { cycle, waits_dot }
    }

    /// Snapshot of one owner's committed `(range, mode)` records.
    fn owner_records(&self, owner_id: u64) -> Vec<(Range, LockMode)> {
        let st = self.state.lock().unwrap();
        st.owners
            .get(&owner_id)
            .map(|o| runs(&o.tiles).collect())
            .unwrap_or_default()
    }

    /// The heart of the table: begins the operation that replaces whatever
    /// `owner_id` holds over `target` with `op` (`Some(mode)` to lock, `None`
    /// to unlock). Plans under the table mutex and never waits:
    /// `Break` carries the outcome of an operation that finished here,
    /// `Continue` the transaction that has to wait or holds rollback state.
    ///
    /// Two plans have nothing to roll back and finish right here: a lock of
    /// a span the owner holds none of ([`LockTable::lock_fresh`]), and an
    /// unlock that releases whole tiles. Every other plan — a split, a
    /// merge, a mode change — becomes a [`Transaction`].
    ///
    /// A non-blocking request fails with `EAGAIN` when it would have to
    /// wait; a blocking one fails with `EDEADLK` when waiting would close an
    /// owner cycle. Either way the owner's prior tiles are restored before
    /// the error is reported.
    fn begin(
        &self,
        owner_id: u64,
        target: Range,
        op: Option<LockMode>,
        blocking: bool,
    ) -> ControlFlow<Result<(), SetLockError>, Transaction<'_>> {
        if target.is_empty() {
            return ControlFlow::Break(Ok(()));
        }
        let detached = {
            let mut st = self.state.lock().unwrap();
            if let (Some(mode), false) = (op, blocking) {
                if let Some(conflict) = self.conflicting_record(&st, owner_id, target, mode) {
                    return ControlFlow::Break(Err(SetLockError::WouldBlock(WouldBlock {
                        conflict: Some(conflict),
                    })));
                }
            }
            let owner = st
                .owners
                .get_mut(&owner_id)
                .expect("operation on an unregistered owner");
            // The tiles overlapping `target` are one contiguous block.
            let lo = owner.tiles.partition_point(|t| t.range.end <= target.start);
            let hi = owner.tiles.partition_point(|t| t.range.start < target.end);
            let noop = match op {
                // The span is already held in this mode.
                Some(mode) => runs(&owner.tiles[lo..hi]).any(|(held, held_mode)| {
                    held_mode == mode && held.start <= target.start && held.end >= target.end
                }),
                None => lo == hi,
            };
            if noop {
                return ControlFlow::Break(Ok(()));
            }
            if let (Some(mode), true) = (op, lo == hi) {
                // A lock of a span the owner holds none of.
                drop(st);
                return self.lock_fresh(owner_id, target, mode, blocking);
            }
            let whole_tiles = op.is_none()
                && owner.tiles[lo].range.start >= target.start
                && owner.tiles[hi - 1].range.end <= target.end;
            let mut detached = Few::default();
            for tile in owner.tiles.drain(lo..hi) {
                detached.push(tile);
            }
            if whole_tiles {
                // An unlock that splits no tile is done once the detached
                // tiles are dropped, after the mutex; the commit's wake is
                // all that is left.
                drop(st);
                drop(detached);
                self.commit(owner_id, None);
                return ControlFlow::Break(Ok(()));
            }
            detached
        };
        // The detached tiles belong to the transaction now, so the guards
        // that have to go are released here, after the mutex: a release
        // wakes waiters, and every other owner's `begin` and `commit` would
        // queue behind it.
        // `missing` is built in ascending order: the left split edge (only
        // the first detached tile can start before the target), the
        // target's pieces, then the right split edge (only the last can end
        // after it).
        let mut txn = self.transaction(owner_id, blocking);
        let mut right_edge = None;
        for tile in detached {
            let (range, mode) = (tile.range, tile.mode);
            let unchecked = |range| Missing {
                range,
                mode,
                is_target: false,
            };
            txn.originals.push(unchecked(range));
            if range.start < target.start {
                txn.missing
                    .push(unchecked(Range::new(range.start, target.start)));
            }
            if range.end > target.end {
                right_edge = Some(unchecked(Range::new(target.end, range.end)));
            }
            if blocking
                && op == Some(LockMode::Shared)
                && range.start >= target.start
                && range.end <= target.end
            {
                // Blocking exclusive→shared re-lock: keep the tile held
                // across the mode change (in-place downgrade) so no other
                // writer can slip in. Falls back to release + re-acquire
                // when the lock has no downgrade. Non-blocking requests skip
                // the downgrade because their rollback would have to
                // release the weakened tile and re-take it exclusive.
                if let Some(tile) = tile.downgrade() {
                    txn.held.push(tile);
                }
            }
            // Every other tile is dropped here, releasing its guard so the
            // span can be re-acquired by the polls.
        }
        if let Some(mode) = op {
            // The target is missing wherever a kept tile does not cover it.
            let mut cursor = target.start;
            let kept_ends = txn.held.iter().map(|t| (t.range.start, t.range.end));
            for (start, end) in kept_ends.chain([(target.end, target.end)]) {
                if start > cursor {
                    txn.missing.push(Missing {
                        range: Range::new(cursor, start),
                        mode,
                        is_target: true,
                    });
                }
                cursor = end;
            }
        }
        if let Some(edge) = right_edge {
            txn.missing.push(edge);
        }
        ControlFlow::Continue(txn)
    }

    /// Locks `target`, a span `owner_id` holds none of. Nothing was
    /// detached, so nothing can need rolling back: one poll, and a granted
    /// tile is committed on the spot. A blocked `try_` is cancelled and
    /// refused. A blocked blocking request becomes a transaction that
    /// carries the request already enqueued: cancelling and re-enqueueing
    /// would unlink a published reader node and send it behind later
    /// arrivals.
    fn lock_fresh(
        &self,
        owner_id: u64,
        target: Range,
        mode: LockMode,
        blocking: bool,
    ) -> ControlFlow<Result<(), SetLockError>, Transaction<'_>> {
        let mut pending = None;
        if let Some(tile) = self.poll_tile(&mut pending, target, mode) {
            self.commit(owner_id, Some(tile));
            return ControlFlow::Break(Ok(()));
        }
        if !blocking {
            // `try_`: one poll + cancel.
            if let Some(request) = &mut pending {
                self.lock_ref().cancel(request);
            }
            return ControlFlow::Break(Err(SetLockError::WouldBlock(WouldBlock {
                conflict: None,
            })));
        }
        let mut txn = self.transaction(owner_id, blocking);
        txn.missing.push(Missing {
            range: target,
            mode,
            is_target: true,
        });
        txn.pending = pending;
        ControlFlow::Continue(txn)
    }

    /// An empty transaction for `owner_id`, for `begin` to fill in.
    fn transaction(&self, owner_id: u64, blocking: bool) -> Transaction<'_> {
        Transaction {
            table: self,
            owner_id,
            blocking,
            held: Few::default(),
            missing: Few::default(),
            next: 0,
            pending: None,
            originals: Few::default(),
            failure: None,
            edges: WaitEdges {
                graph: &self.waits,
                owner_id,
                registered: false,
            },
        }
    }

    /// Runs one operation to completion on this thread: the blocking driver
    /// runs only when `begin` could not finish it.
    fn apply(
        &self,
        owner_id: u64,
        target: Range,
        op: Option<LockMode>,
        blocking: bool,
    ) -> Result<(), SetLockError> {
        match self.begin(owner_id, target, op, blocking) {
            ControlFlow::Break(outcome) => outcome,
            ControlFlow::Continue(txn) => self.drive_blocking(txn),
        }
    }

    /// [`LockTable::apply`], suspending the task where that blocks.
    async fn apply_async(
        &self,
        owner_id: u64,
        target: Range,
        op: Option<LockMode>,
        blocking: bool,
    ) -> Result<(), SetLockError> {
        match self.begin(owner_id, target, op, blocking) {
            ControlFlow::Break(outcome) => outcome,
            ControlFlow::Continue(txn) => self.drive_async(txn).await,
        }
    }

    /// The blocking driver: poll, and between polls sit out one
    /// [`DEADLOCK_RECHECK`] round through the lock's own wait policy
    /// ([`rl_sync::WaitQueue::pause_until`] on the lock's queue), so every
    /// poll — and with it the re-derivation of the owner's waits-for edges —
    /// happens on that fixed interval. No release or commit ends a round early: under
    /// `Block` the round is a park filed where no wake of the queue reaches
    /// it, so the owners that keep running pay no wake on its account.
    fn drive_blocking(&self, mut op: impl Resumable) -> Result<(), SetLockError> {
        loop {
            if let Poll::Ready(outcome) = op.poll() {
                return outcome;
            }
            self.lock_ref()
                .wait_queue()
                .pause_until(Instant::now() + DEADLOCK_RECHECK);
        }
    }

    /// The async driver: poll, and suspend the task on the lock's queue
    /// under the wait key of the request the poll stopped at, so the
    /// blocker's release (or any commit's broadcast) re-polls it — the one
    /// async wait step, [`WakerSlot::step`], the lock futures use too.
    ///
    /// The waker registration lives in `slot` and goes with it: when the
    /// operation resolves, or — dropping the future abandons `op` — before
    /// the operation's own `Drop` cancels whatever it had in flight.
    async fn drive_async(&self, mut op: impl Resumable) -> Result<(), SetLockError> {
        let mut slot = WakerSlot::new(self.lock_ref().wait_queue());
        std::future::poll_fn(|cx| {
            slot.step(cx.waker(), || match op.poll() {
                Poll::Ready(outcome) => Ok(outcome),
                Poll::Pending => Err(op.wait_key()),
            })
        })
        .await
    }

    /// Begins an all-or-nothing batch for `owner_id`: empty items are
    /// dropped and the rest applied in ascending order, one transaction
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if two items overlap: a batch is a set of independent spans,
    /// and "lock `[0, 10)` shared and `[5, 15)` exclusive atomically" has no
    /// coherent replace-semantics answer for the overlap.
    fn begin_many(&self, owner_id: u64, items: &[(Range, LockMode)], blocking: bool) -> Batch<'_> {
        let mut steps: Vec<(Range, Option<LockMode>)> = items
            .iter()
            .filter(|(range, _)| !range.is_empty())
            .map(|&(range, mode)| (range, Some(mode)))
            .collect();
        steps.sort_by_key(|(r, _)| (r.start, r.end));
        for pair in steps.windows(2) {
            assert!(
                !pair[0].0.overlaps(&pair[1].0),
                "batched lock items overlap: {:?} and {:?}",
                pair[0].0,
                pair[1].0
            );
        }
        Batch {
            table: self,
            owner_id,
            blocking,
            before: self.owner_records(owner_id),
            steps,
            next: 0,
            current: None,
            failure: None,
        }
    }

    /// Number of `EDEADLK` failures this table has surfaced (each one also
    /// mirrors into the underlying lock's wait statistics, when attached).
    pub fn deadlocks_detected(&self) -> u64 {
        self.waits.deadlocks_detected()
    }

    /// Number of owners with waits-for edges registered right now, i.e.
    /// blocked (or suspended) in a deadlock-checked acquisition. `0` whenever
    /// no acquisition is in flight: edges never outlive the acquisition that
    /// registered them.
    pub fn waiting_owners(&self) -> usize {
        self.waits.waiting_owners()
    }

    fn release_owner(&self, owner_id: u64) {
        // Detached under the mutex, dropped — every tile, and therefore
        // every guard — after it.
        let owner = self.state.lock().unwrap().owners.remove(&owner_id);
        drop(owner);
    }
}

/// Smallest range covering every item of a (possibly empty) batch prefix;
/// the range stamped on batch-rollback trace events.
fn batch_span(items: &[(Range, Option<LockMode>)]) -> Range {
    let start = items.iter().map(|(r, _)| r.start).min().unwrap_or(0);
    let end = items.iter().map(|(r, _)| r.end).max().unwrap_or(0);
    Range::new(start, end)
}

impl Drop for LockTable {
    fn drop(&mut self) {
        // Drop every guard before freeing the lock they borrow.
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        state.owners.clear();
        // SAFETY: The box `new` was given, leaked by `Box::into_raw`; freed
        // exactly once, and no guard referencing it remains.
        unsafe { drop(Box::from_raw(self.lock)) };
    }
}

impl fmt::Debug for LockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockTable")
            .field("lock", &self.lock_name())
            .field("held_records", &self.held_records())
            .finish()
    }
}

/// A registered lock owner (the analogue of a process id in `fcntl`).
///
/// All mutating operations take `&mut self`: POSIX serializes a process's
/// `fcntl` calls in the kernel, and the borrow checker provides the same
/// one-transaction-at-a-time guarantee per owner for free. Dropping the
/// handle releases everything the owner still holds.
pub struct LockOwner {
    table: Arc<LockTable>,
    id: u64,
    name: String,
}

impl LockOwner {
    /// The owner's name, as passed to [`LockTable::owner`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table this owner is registered with.
    pub fn table(&self) -> &Arc<LockTable> {
        &self.table
    }

    /// Locks `range` in `mode`, waiting for conflicting owners
    /// (`fcntl(F_SETLKW)`). Replaces whatever this owner held over `range`:
    /// splits, merges, upgrades and downgrades as described in the
    /// [module documentation](self).
    ///
    /// # Errors
    ///
    /// Fails with [`DeadlockError`] — the `EDEADLK` of `F_SETLKW` — when
    /// waiting for the span would close a cycle of owners each blocked on
    /// the next's committed records. The table is left as if the call had
    /// not been made. Detection is best-effort, exactly as POSIX allows;
    /// see the fidelity caveats in the [module documentation](self).
    // `#[inline]` here and on `unlock`: the table is compiled once, here, and
    // without the hint these thin entry points stop being inlined into their
    // callers, as they were while the table was generic over its lock.
    #[inline]
    pub fn lock(&mut self, range: Range, mode: LockMode) -> Result<(), DeadlockError> {
        self.table
            .apply(self.id, range, Some(mode), true)
            .map_err(SetLockError::deadlock)
    }

    /// Locks `range` in `mode` without waiting for the requested span
    /// (`fcntl(F_SETLK)`); on conflict the table is left unchanged.
    ///
    /// "Without waiting" covers the conflict decision on `range` itself;
    /// re-establishing coverage this owner already held (split edges, or the
    /// rollback after losing a bounded-acquisition race) may still wait —
    /// see the fidelity caveats in the [module documentation](self).
    pub fn try_lock(&mut self, range: Range, mode: LockMode) -> Result<(), WouldBlock> {
        self.table
            .apply(self.id, range, Some(mode), false)
            .map_err(SetLockError::would_block)
    }

    /// Asynchronous [`LockOwner::try_lock`]: the conflict decision is the
    /// same and as immediate, but where `try_lock` may still *block* the
    /// thread — re-taking split edges, or rolling back after a lost race —
    /// this suspends the task, and dropping the future abandons the wait.
    pub async fn try_lock_async(&mut self, range: Range, mode: LockMode) -> Result<(), WouldBlock> {
        let outcome = self.table.apply_async(self.id, range, Some(mode), false);
        outcome.await.map_err(SetLockError::would_block)
    }

    /// Atomically locks every `(range, mode)` item of a batch, waiting for
    /// conflicting owners — **all-or-nothing**: either every item is applied
    /// (in ascending address order) or, on an `EDEADLK` part-way through,
    /// the applied prefix is rolled back to this owner's pre-batch records
    /// before the error returns. See the
    /// [module documentation](self#atomic-multi-range-acquisition) for the
    /// ordering argument and the rollback caveat.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    pub fn lock_many(&mut self, items: &[(Range, LockMode)]) -> Result<(), DeadlockError> {
        let batch = self.table.begin_many(self.id, items, true);
        self.table
            .drive_blocking(batch)
            .map_err(SetLockError::deadlock)
    }

    /// Non-blocking [`LockOwner::lock_many`] (`F_SETLK` over a batch): every
    /// item is first conflict-checked against the committed table under one
    /// mutex hold — a visible conflict fails the whole batch before anything
    /// is touched — then applied item by item; a lost bounded-acquisition
    /// race rolls the applied prefix back. On `Err` the owner's records are
    /// exactly its pre-batch records — no residue.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    pub fn try_lock_many(&mut self, items: &[(Range, LockMode)]) -> Result<(), WouldBlock> {
        let batch = self.table.begin_many(self.id, items, false);
        batch.precheck()?;
        self.table
            .drive_blocking(batch)
            .map_err(SetLockError::would_block)
    }

    /// Asynchronous [`LockOwner::lock_many`]: contended items suspend the
    /// task instead of blocking a thread; `EDEADLK` rolls the applied prefix
    /// back with suspending waits too. Dropping the future mid-batch
    /// abandons the item in flight; the items already applied stay applied.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    pub async fn lock_many_async(
        &mut self,
        items: &[(Range, LockMode)],
    ) -> Result<(), DeadlockError> {
        let batch = self.table.begin_many(self.id, items, true);
        let outcome = self.table.drive_async(batch).await;
        outcome.map_err(SetLockError::deadlock)
    }

    /// Releases whatever this owner holds inside `range` (`F_UNLCK`),
    /// splitting boundary records. Unlike POSIX, re-securing the retained
    /// edges of a split may wait behind a queued waiter — see the fidelity
    /// caveats in the [module documentation](self). Unlocking never fails:
    /// only the deadlock-checked *target* acquisitions of a `lock` can
    /// return `EDEADLK`, and an unlock has none.
    #[inline]
    pub fn unlock(&mut self, range: Range) {
        unlock_cannot_fail(self.table.apply(self.id, range, None, true));
    }

    /// Releases every range this owner holds.
    pub fn unlock_all(&mut self) {
        self.unlock(Range::FULL);
    }

    /// Releases every range this owner holds and reports how many committed
    /// records the release freed — the post-split/merge shape, i.e. the
    /// length of what [`LockOwner::held`] would have returned.
    ///
    /// This is the explicit form of what `Drop` does implicitly; a server
    /// session uses it on disconnect so the count of ranges a dead client
    /// freed can be surfaced in its stats before the owner itself goes
    /// away. The owner stays usable afterwards (holding nothing).
    pub fn release_all(&mut self) -> usize {
        let freed = self.held().len();
        if freed > 0 {
            self.unlock_all();
        }
        freed
    }

    /// Asynchronous [`LockOwner::lock`]: same replace semantics
    /// (split/merge/upgrade/downgrade) and the same `EDEADLK` contract, but
    /// waiting for conflicting owners suspends the task instead of blocking
    /// a thread — it is the same transaction, polled by a waker instead of a
    /// loop, so async owners keep the same ascending-order discipline as
    /// blocking ones (and may wait behind them and vice versa; the
    /// underlying lock is the only exclusion mechanism either way), and a
    /// task suspended in a cycle is detected exactly like a blocked thread.
    ///
    /// # Cancellation
    ///
    /// Dropping the future mid-wait leaves the table consistent and the
    /// lock free of residue, but the operation is not atomic: what this
    /// owner held over `range` going in is gone, as if it had been unlocked
    /// (see the fidelity caveats in the [module documentation](self)).
    pub async fn lock_async(&mut self, range: Range, mode: LockMode) -> Result<(), DeadlockError> {
        let outcome = self.table.apply_async(self.id, range, Some(mode), true);
        outcome.await.map_err(SetLockError::deadlock)
    }

    /// Asynchronous [`LockOwner::unlock`]: re-securing the retained edges of
    /// a split suspends instead of blocking.
    pub async fn unlock_async(&mut self, range: Range) {
        unlock_cannot_fail(self.table.apply_async(self.id, range, None, true).await);
    }

    /// The `F_GETLK` probe: the first committed record of another owner that
    /// would make `lock(range, mode)` wait, if any.
    pub fn would_block(&self, range: Range, mode: LockMode) -> Option<LockRecord> {
        let st = self.table.state.lock().unwrap();
        self.table.conflicting_record(&st, self.id, range, mode)
    }

    /// Snapshot of this owner's committed records, sorted by start.
    pub fn held(&self) -> Vec<(Range, LockMode)> {
        self.table.owner_records(self.id)
    }
}

impl Drop for LockOwner {
    fn drop(&mut self) {
        self.table.release_owner(self.id);
    }
}

impl fmt::Debug for LockOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockOwner")
            .field("name", &self.name)
            .field("held", &self.held().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::{RwListRangeLock, RwRangeLock};

    fn table() -> Arc<LockTable> {
        Arc::new(LockTable::new(Box::new(RwListRangeLock::new())))
    }

    fn held_of(o: &LockOwner) -> Vec<(u64, u64, LockMode)> {
        o.held()
            .into_iter()
            .map(|(r, m)| (r.start, r.end, m))
            .collect()
    }

    #[test]
    fn release_all_reports_freed_ranges_and_empties_the_table() {
        let t = table();
        let mut a = t.owner("a");
        let mut b = t.owner("b");
        a.lock(Range::new(0, 10), LockMode::Exclusive).unwrap();
        a.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        a.lock(Range::new(40, 50), LockMode::Exclusive).unwrap();
        b.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a).len(), 3);

        // The count is the owner's committed record count, and the owner's
        // side of the table is record-free afterwards.
        assert_eq!(a.release_all(), 3);
        assert!(held_of(&a).is_empty());
        assert_eq!(a.release_all(), 0, "nothing left to free");

        // Only b's shared record survives; dropping b empties the table.
        assert_eq!(t.held_records(), 1);
        assert_eq!(b.release_all(), 1);
        assert_eq!(t.held_records(), 0);
        assert!(t.records().is_empty());
        t.check_invariants();

        // The owner stays usable after release_all.
        a.lock(Range::new(0, 10), LockMode::Exclusive).unwrap();
        assert_eq!(held_of(&a), vec![(0, 10, LockMode::Exclusive)]);
    }

    #[test]
    fn two_owner_cycle_fails_with_edeadlk() {
        use rl_sync::stats::WaitStats;

        // a holds [0,100), b holds [200,300); then b waits for a's span
        // while a waits for b's. Exactly one of the two blocking locks must
        // fail with EDEADLK (whichever registers the cycle-closing edge);
        // the loser's rollback dissolves the cycle and the other completes
        // once the failing side releases.
        let stats = Arc::new(WaitStats::new("edeadlk"));
        let t = Arc::new(LockTable::new(Box::new(
            RwListRangeLock::new().with_stats(Arc::clone(&stats)),
        )));
        let mut a = t.owner("alice");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();

        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || {
            let mut b = t2.owner("bob");
            b.lock(Range::new(200, 300), LockMode::Exclusive).unwrap();
            ready_tx.send(()).unwrap();
            let result = b.lock(Range::new(0, 100), LockMode::Exclusive);
            if result.is_err() {
                // Rolled back: bob must still hold exactly his first range.
                assert_eq!(b.held(), vec![(Range::new(200, 300), LockMode::Exclusive)]);
            }
            result
            // Dropping bob releases [200, 300) and unblocks alice if she is
            // the surviving waiter.
        });
        ready_rx.recv().unwrap();
        let a_result = a.lock(Range::new(200, 300), LockMode::Exclusive);
        if a_result.is_err() {
            // Alice keeps her original coverage and must release it so a
            // surviving bob can finish.
            assert_eq!(a.held(), vec![(Range::new(0, 100), LockMode::Exclusive)]);
            a.unlock_all();
        }
        let b_result = handle.join().unwrap();
        assert_ne!(
            a_result.is_err(),
            b_result.is_err(),
            "exactly one side of the cycle gets EDEADLK: {a_result:?} / {b_result:?}"
        );
        let err = a_result.err().or(b_result.err()).unwrap();
        let msg = err.to_string();
        assert!(msg.contains("EDEADLK"), "{msg}");
        assert!(msg.contains("alice") && msg.contains("bob"), "{msg}");
        assert_eq!(err.cycle.first(), err.cycle.last());
        assert_eq!(t.deadlocks_detected(), 1);
        // The detection mirrored into the lock's wait statistics.
        assert_eq!(stats.snapshot().deadlocks_detected, 1);
        assert_eq!(t.waiting_owners(), 0);
        t.check_invariants();
    }

    #[test]
    fn async_cycle_is_detected_at_the_first_cycle_closing_poll() {
        use std::future::Future;
        use std::task::{Context, Waker};

        // Single-threaded and fully deterministic: a holds [0,100), b holds
        // [200,300). a's async lock of [200,300) pends (registering a -> b);
        // b's async lock of [0,100) then closes the cycle on its very first
        // poll and resolves to EDEADLK without ever suspending.
        let t = table();
        let mut a = t.owner("alice");
        let mut b = t.owner("bob");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        b.lock(Range::new(200, 300), LockMode::Exclusive).unwrap();

        let mut cx = Context::from_waker(Waker::noop());
        let mut fut_a = Box::pin(a.lock_async(Range::new(200, 300), LockMode::Exclusive));
        assert!(fut_a.as_mut().poll(&mut cx).is_pending());
        assert_eq!(t.waiting_owners(), 1);
        {
            let mut fut_b = Box::pin(b.lock_async(Range::new(0, 100), LockMode::Exclusive));
            match fut_b.as_mut().poll(&mut cx) {
                Poll::Ready(Err(deadlock)) => {
                    assert!(deadlock.to_string().contains("EDEADLK"));
                }
                other => panic!("expected immediate EDEADLK, got {other:?}"),
            }
        }
        // Abandon a's future too: its edge goes with it, and both owners
        // keep exactly their originals.
        drop(fut_a);
        assert_eq!(t.waiting_owners(), 0);
        assert_eq!(t.deadlocks_detected(), 1);
        assert_eq!(a.held(), vec![(Range::new(0, 100), LockMode::Exclusive)]);
        assert_eq!(b.held(), vec![(Range::new(200, 300), LockMode::Exclusive)]);
        t.check_invariants();
    }

    /// A waker that counts its deliveries.
    fn counting_waker() -> (Arc<AtomicU64>, std::task::Waker) {
        struct CountingWaker(Arc<AtomicU64>);
        impl std::task::Wake for CountingWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let wakes = Arc::new(AtomicU64::new(0));
        let waker = std::task::Waker::from(Arc::new(CountingWaker(Arc::clone(&wakes))));
        (wakes, waker)
    }

    /// A table over a registry-built `list-rw` with wait statistics
    /// attached, and a waker that counts its deliveries.
    fn abandonment_fixture() -> (
        Arc<LockTable>,
        Arc<rl_sync::stats::WaitStats>,
        Arc<AtomicU64>,
        std::task::Waker,
    ) {
        let stats = Arc::new(rl_sync::stats::WaitStats::new("abandon"));
        let spec = rl_baselines::registry::by_name("list-rw").expect("paper variant");
        let lock = spec.build_with_stats(
            rl_sync::WaitPolicyKind::Block,
            &Default::default(),
            Arc::clone(&stats),
            None,
        );
        let (wakes, waker) = counting_waker();
        (Arc::new(LockTable::new(lock)), stats, wakes, waker)
    }

    #[test]
    fn abandoned_lock_async_is_cancelled_and_loses_what_it_detached() {
        use std::future::Future;
        use std::task::Context;

        // A holds [5, 10) exclusive. B's exclusive lock of [0, 10) pends
        // behind A and is dropped, in two shapes: an upgrade that detached
        // B's shared [0, 5) tile (a transaction from `begin` on), and a
        // lock of a span B holds none of (a transaction only once its first
        // poll blocked, carrying that poll's request).
        for b_held in [Some(Range::new(0, 5)), None] {
            let (t, stats, wakes, waker) = abandonment_fixture();
            let mut a = t.owner("a");
            let mut b = t.owner("b");
            a.lock(Range::new(5, 10), LockMode::Exclusive).unwrap();
            if let Some(range) = b_held {
                b.lock(range, LockMode::Shared).unwrap();
            }
            let cancels = stats.snapshot().cancels;
            {
                let mut cx = Context::from_waker(&waker);
                let mut fut = Box::pin(b.lock_async(Range::new(0, 10), LockMode::Exclusive));
                assert!(fut.as_mut().poll(&mut cx).is_pending());
                assert_eq!(t.waiting_owners(), 1);
            }
            // The drop cancelled the one request in flight — once, not once
            // by `begin` and again by the transaction — and removed the
            // waits-for edge; what B held over the span going in is gone.
            assert_eq!(t.waiting_owners(), 0);
            assert_eq!(stats.snapshot().cancels, cancels + 1, "{b_held:?}");
            assert!(b.held().is_empty());
            assert_eq!(a.held(), vec![(Range::new(5, 10), LockMode::Exclusive)]);
            // No residue: the waker went with the future, and once A unlocks
            // the whole space is free — no node of B's was left in the lock.
            a.unlock_all();
            assert_eq!(wakes.load(Ordering::SeqCst), 0, "{b_held:?}");
            t.owner("c")
                .try_lock(Range::FULL, LockMode::Exclusive)
                .unwrap();
            t.check_invariants();
        }
    }

    #[test]
    fn abandoned_lock_many_async_keeps_the_items_already_applied() {
        use std::future::Future;
        use std::task::Context;

        // B's batch commits [0, 10), pends on [20, 30) behind A, and is
        // dropped: the first item stays, nothing else does.
        let (t, stats, wakes, waker) = abandonment_fixture();
        let mut a = t.owner("a");
        let mut b = t.owner("b");
        a.lock(Range::new(20, 30), LockMode::Exclusive).unwrap();
        let cancels = stats.snapshot().cancels;
        let items = [
            (Range::new(20, 30), LockMode::Shared),
            (Range::new(0, 10), LockMode::Exclusive),
        ];
        {
            let mut cx = Context::from_waker(&waker);
            let mut fut = Box::pin(b.lock_many_async(&items));
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            assert_eq!(t.waiting_owners(), 1);
        }
        assert_eq!(t.waiting_owners(), 0);
        assert_eq!(stats.snapshot().cancels, cancels + 1);
        assert_eq!(stats.snapshot().batch_rollbacks, 0);
        assert_eq!(b.held(), vec![(Range::new(0, 10), LockMode::Exclusive)]);
        assert_eq!(a.held(), vec![(Range::new(20, 30), LockMode::Exclusive)]);
        a.unlock_all();
        b.unlock_all();
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        t.owner("c")
            .try_lock(Range::FULL, LockMode::Exclusive)
            .unwrap();
        t.check_invariants();
    }

    #[test]
    fn lock_many_applies_batches_and_merges() {
        let t = table();
        let mut a = t.owner("a");
        a.lock_many(&[
            (Range::new(20, 30), LockMode::Shared),
            (Range::new(0, 10), LockMode::Exclusive),
            (Range::new(10, 20), LockMode::Exclusive),
            (Range::new(40, 40), LockMode::Shared), // empty: dropped
        ])
        .unwrap();
        // Items are applied ascending whatever the input order; the two
        // adjacent exclusive items merge, exactly as sequential locks would.
        assert_eq!(
            held_of(&a),
            vec![(0, 20, LockMode::Exclusive), (20, 30, LockMode::Shared)]
        );
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "batched lock items overlap")]
    fn overlapping_batch_items_panic() {
        let t = table();
        let mut a = t.owner("a");
        let _ = a.lock_many(&[
            (Range::new(0, 10), LockMode::Shared),
            (Range::new(5, 15), LockMode::Exclusive),
        ]);
    }

    #[test]
    fn try_lock_many_is_all_or_nothing_against_committed_conflicts() {
        let t = table();
        let mut a = t.owner("a");
        let mut b = t.owner("b");
        b.lock(Range::new(25, 35), LockMode::Exclusive).unwrap();
        a.lock(Range::new(0, 10), LockMode::Shared).unwrap();

        // Second item conflicts with b: the precheck fails the whole batch
        // before anything is touched — including the conflict-free first
        // item's upgrade.
        let err = a
            .try_lock_many(&[
                (Range::new(0, 10), LockMode::Exclusive),
                (Range::new(20, 30), LockMode::Exclusive),
            ])
            .unwrap_err();
        assert_eq!(err.conflict.unwrap().owner, "b");
        assert_eq!(held_of(&a), vec![(0, 10, LockMode::Shared)]);
        assert_eq!(t.held_records(), 2);

        // A conflict-free batch commits everything.
        a.try_lock_many(&[
            (Range::new(0, 10), LockMode::Exclusive),
            (Range::new(50, 60), LockMode::Shared),
        ])
        .unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 10, LockMode::Exclusive), (50, 60, LockMode::Shared)]
        );
        t.check_invariants();
    }

    #[test]
    fn lock_many_async_round_trip() {
        rl_exec::block_on(async {
            let t = table();
            let mut a = t.owner("a");
            a.lock_many_async(&[
                (Range::new(30, 40), LockMode::Exclusive),
                (Range::new(0, 10), LockMode::Shared),
            ])
            .await
            .unwrap();
            assert_eq!(
                held_of(&a),
                vec![(0, 10, LockMode::Shared), (30, 40, LockMode::Exclusive)]
            );
            t.check_invariants();
        });
    }

    #[test]
    fn failed_batch_rollback_is_counted_and_leaves_no_residue() {
        use rl_sync::stats::WaitStats;

        // Deterministic mid-batch deadlock: alice's batch takes [0,100),
        // then deadlocks against bob on the second item — bob holds
        // [200,300) and (async, suspended) waits for [0,100), which the
        // batch just took. The rollback must return alice to exactly her
        // pre-batch records and count one batch rollback.
        use std::future::Future;
        use std::task::{Context, Waker};

        let stats = Arc::new(WaitStats::new("batch-rollback"));
        let t = Arc::new(LockTable::new(Box::new(
            RwListRangeLock::new().with_stats(Arc::clone(&stats)),
        )));
        let mut alice = t.owner("alice");
        let mut bob = t.owner("bob");
        alice.lock(Range::new(0, 10), LockMode::Shared).unwrap();
        bob.lock(Range::new(200, 300), LockMode::Exclusive).unwrap();

        let mut cx = Context::from_waker(Waker::noop());
        // Bob suspends waiting for [0, 100) — once alice's batch commits its
        // first item, the commit wake lets this edge re-derive to alice.
        let mut bob_fut = Box::pin(bob.lock_async(Range::new(0, 100), LockMode::Exclusive));
        assert!(bob_fut.as_mut().poll(&mut cx).is_pending());

        // Alice's batch: item 1 ([120,130), disjoint from bob's published
        // [0,100) node so it cannot queue behind it) commits; item 2 then
        // waits for bob's committed [200,300) — the edge alice -> bob closes
        // the cycle with bob's already-registered bob -> alice and the whole
        // batch resolves to EDEADLK.
        let before = alice.held();
        let items = [
            (Range::new(120, 130), LockMode::Exclusive),
            (Range::new(200, 300), LockMode::Shared),
        ];
        let err = {
            let mut batch_fut = Box::pin(alice.lock_many_async(&items));
            let mut err = None;
            for _ in 0..64 {
                match batch_fut.as_mut().poll(&mut cx) {
                    Poll::Ready(Err(deadlock)) => {
                        err = Some(deadlock);
                        break;
                    }
                    Poll::Ready(Ok(())) => panic!("batch must deadlock"),
                    Poll::Pending => {
                        // Item 1 committed; give bob a poll so he re-derives
                        // his edge (bob -> alice) and the next batch poll
                        // (alice -> bob, via [200,300)) closes the cycle.
                        assert!(bob_fut.as_mut().poll(&mut cx).is_pending());
                    }
                }
            }
            err.expect("batch did not resolve to EDEADLK")
        };
        assert!(err.to_string().contains("EDEADLK"));
        // Zero residue: alice is back to exactly her pre-batch records.
        assert_eq!(alice.held(), before);
        assert!(stats.snapshot().batch_rollbacks >= 1);
        assert!(stats.snapshot().deadlocks_detected >= 1);
        drop(bob_fut);
        t.check_invariants();
    }

    #[test]
    fn lock_unlock_round_trip() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        a.unlock(Range::new(0, 100));
        assert!(a.held().is_empty());
        assert_eq!(t.held_records(), 0);
        t.check_invariants();
    }

    #[test]
    fn unlock_middle_splits() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        a.unlock(Range::new(40, 60));
        assert_eq!(
            held_of(&a),
            vec![(0, 40, LockMode::Exclusive), (60, 100, LockMode::Exclusive)]
        );
        t.check_invariants();
    }

    #[test]
    fn adjacent_same_mode_locks_merge() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 50), LockMode::Shared).unwrap();
        a.lock(Range::new(50, 100), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        // Different mode does not merge.
        a.lock(Range::new(100, 150), LockMode::Exclusive).unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 100, LockMode::Shared), (100, 150, LockMode::Exclusive)]
        );
        t.check_invariants();
    }

    #[test]
    fn upgrade_middle_splits_modes() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        a.lock(Range::new(40, 60), LockMode::Exclusive).unwrap();
        assert_eq!(
            held_of(&a),
            vec![
                (0, 40, LockMode::Shared),
                (40, 60, LockMode::Exclusive),
                (60, 100, LockMode::Shared)
            ]
        );
        // Downgrade back: everything merges into one shared record again.
        a.lock(Range::new(40, 60), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn relock_inside_same_mode_is_noop() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        a.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn cross_owner_conflicts_and_getlk() {
        let t = table();
        let mut a = t.owner("alice");
        let mut b = t.owner("bob");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        b.lock(Range::new(50, 150), LockMode::Shared).unwrap();

        let err = b
            .try_lock(Range::new(60, 80), LockMode::Exclusive)
            .unwrap_err();
        let conflict = err.conflict.expect("conflicting record is known");
        assert_eq!(conflict.owner, "alice");
        assert_eq!(conflict.mode, LockMode::Shared);
        assert_eq!(
            b.would_block(Range::new(60, 80), LockMode::Exclusive)
                .unwrap()
                .owner,
            "alice"
        );
        assert!(b
            .would_block(Range::new(100, 120), LockMode::Exclusive)
            .is_none());

        // The failed try left both owners' tables unchanged.
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        assert_eq!(held_of(&b), vec![(50, 150, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn owner_drop_releases_everything() {
        let t = table();
        let mut a = t.owner("a");
        let mut b = t.owner("b");
        a.lock(Range::new(0, 10), LockMode::Exclusive).unwrap();
        a.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        assert!(b.try_lock(Range::new(5, 25), LockMode::Exclusive).is_err());
        drop(a);
        assert_eq!(t.held_records(), 0);
        b.try_lock(Range::new(5, 25), LockMode::Exclusive).unwrap();
        t.check_invariants();
    }

    #[test]
    fn blocking_lock_waits_for_conflicting_owner() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let started = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(50, 150), LockMode::Exclusive).unwrap();
            started.elapsed()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        a.unlock_all();
        let waited = handle.join().unwrap();
        assert!(waited >= std::time::Duration::from_millis(20));
        t.check_invariants();
    }

    #[test]
    fn block_policy_waiter_parks_and_owner_drop_wakes_it() {
        use std::future::Future;
        use std::task::Context;

        use rl_sync::stats::WaitStats;

        // The whole fcntl stack over the parking policy: a blocked lock()
        // must actually park (not spin), and dropping the conflicting owner
        // must wake the queue via the underlying lock's release hooks. The
        // wake is asserted on a suspended `lock_async` of C: B's blocking
        // lock sleeps in bounded rounds, and the drop can fall between two
        // of them and find B registered nowhere, while C's waker stays
        // filed until a release claims it.
        let stats = Arc::new(WaitStats::new("locktable-block"));
        let t = Arc::new(LockTable::new(Box::new(
            RwListRangeLock::with_config(range_lock::ListLockConfig {
                wait: rl_sync::WaitPolicyKind::Block,
                ..Default::default()
            })
            .with_stats(Arc::clone(&stats)),
        )));
        let a = {
            let mut a = t.owner("a");
            a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
            a
        };
        let (delivered, waker) = counting_waker();
        let mut c = t.owner("c");
        let mut cx = Context::from_waker(&waker);
        let mut c_fut = Box::pin(c.lock_async(Range::new(0, 10), LockMode::Exclusive));
        assert!(c_fut.as_mut().poll(&mut cx).is_pending());

        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(50, 150), LockMode::Exclusive).unwrap();
        });
        // B parks at once in its first recheck round. Sleep, not yield,
        // while waiting for it: a yielding watcher only competes with B.
        let parked_by = Instant::now() + std::time::Duration::from_secs(60);
        while stats.snapshot().parks == 0 {
            assert!(Instant::now() < parked_by, "blocked owner B never parked");
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        drop(a); // owner drop releases everything and wakes the queue
        assert_eq!(delivered.load(Ordering::SeqCst), 1);
        assert!(stats.snapshot().wakes >= 1);
        assert!(matches!(c_fut.as_mut().poll(&mut cx), Poll::Ready(Ok(()))));
        drop(c_fut);
        drop(c);
        handle.join().unwrap();
        assert!(stats.snapshot().parks >= 1);
        assert_eq!(t.held_records(), 0);
        t.check_invariants();
    }

    #[test]
    fn exclusive_to_shared_relock_downgrades_in_place() {
        // Owner `a` re-locks an exclusive span as shared. The backing tile is
        // downgraded without ever being released, and a blocked shared locker
        // of another owner is admitted by the downgrade itself.
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();

        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(0, 100), LockMode::Shared).unwrap();
            b.unlock_all();
        });
        // Let the waiter block on the exclusive record.
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        waiter.join().unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn partial_downgrade_splits_and_keeps_inner_tiles_shared() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 30), LockMode::Exclusive).unwrap();
        a.lock(Range::new(30, 60), LockMode::Exclusive).unwrap();
        // Re-lock a span that exactly covers the second record: its tile is
        // fully inside the target and downgrades in place.
        a.lock(Range::new(30, 60), LockMode::Shared).unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 30, LockMode::Exclusive), (30, 60, LockMode::Shared)]
        );
        // And a downgrade across a split boundary still produces the right
        // record shape through the fallback path.
        a.lock(Range::new(10, 40), LockMode::Shared).unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 10, LockMode::Exclusive), (10, 60, LockMode::Shared),]
        );
        t.check_invariants();
    }

    #[test]
    fn downgrade_works_over_a_registry_built_lock() {
        // The in-place downgrade must survive the dynamic-dispatch erasure:
        // a registry-built list-rw behind `Box<dyn TwoPhaseRwRangeLock>` downgrades
        // exactly like the statically typed lock.
        use rl_baselines::registry;
        let t = Arc::new(LockTable::new(
            registry::by_name("list-rw")
                .expect("paper variant")
                .build(rl_sync::WaitPolicyKind::SpinThenYield, &Default::default()),
        ));
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(0, 100), LockMode::Shared).unwrap();
            b.unlock_all();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        waiter.join().unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn the_table_keeps_the_registry_box() {
        // A lock call goes through one pointer: `new` keeps the allocation
        // of the box it is given rather than boxing the box again.
        let lock = rl_baselines::registry::by_name("list-rw")
            .expect("paper variant")
            .build(rl_sync::WaitPolicyKind::Block, &Default::default());
        let at: *const dyn TwoPhaseRwRangeLock = &*lock;
        let t = LockTable::new(lock);
        assert!(std::ptr::addr_eq(t.lock_ref(), at));
    }

    #[test]
    fn downgrade_fallback_works_without_lock_support() {
        // `kernel-rw` has no atomic downgrade: the table must fall back to
        // release + re-acquire and still produce the same record shape.
        use rl_baselines::RwTreeRangeLock;
        let t = Arc::new(LockTable::new(Box::new(RwTreeRangeLock::new())));
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        assert_eq!(
            a.held()
                .into_iter()
                .map(|(r, m)| (r.start, r.end, m))
                .collect::<Vec<_>>(),
            vec![(0, 100, LockMode::Shared)]
        );
        // Another owner can now share.
        let mut b = t.owner("b");
        b.try_lock(Range::new(0, 100), LockMode::Shared).unwrap();
        t.check_invariants();
    }

    #[test]
    fn lock_async_round_trip_with_split_and_merge() {
        // The async path must produce exactly the same record shapes as the
        // sync path: lock, split by an exclusive re-lock, unlock the middle.
        rl_exec::block_on(async {
            let t = table();
            let mut a = t.owner("a");
            a.lock_async(Range::new(0, 100), LockMode::Shared)
                .await
                .unwrap();
            a.lock_async(Range::new(40, 60), LockMode::Exclusive)
                .await
                .unwrap();
            assert_eq!(
                held_of(&a),
                vec![
                    (0, 40, LockMode::Shared),
                    (40, 60, LockMode::Exclusive),
                    (60, 100, LockMode::Shared)
                ]
            );
            a.unlock_async(Range::new(45, 55)).await;
            assert_eq!(
                held_of(&a),
                vec![
                    (0, 40, LockMode::Shared),
                    (40, 45, LockMode::Exclusive),
                    (55, 60, LockMode::Exclusive),
                    (60, 100, LockMode::Shared)
                ]
            );
            t.check_invariants();
        });
    }

    #[test]
    fn lock_async_waits_for_conflicting_owner_without_a_thread() {
        // M owners on one pool worker: a suspended lock_async must not wedge
        // the worker, and the conflicting owner's unlock must wake it.
        let pool = rl_exec::TaskPool::new(1);
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();

        let t2 = Arc::clone(&t);
        let waiter = pool.spawn(async move {
            let mut b = t2.owner("b");
            b.lock_async(Range::new(50, 150), LockMode::Exclusive)
                .await
                .unwrap();
            b.held().len()
        });
        // A second task on the same worker proves the suspended waiter does
        // not block the thread.
        let t3 = Arc::clone(&t);
        let independent = pool.spawn(async move {
            let mut c = t3.owner("c");
            c.lock_async(Range::new(500, 600), LockMode::Exclusive)
                .await
                .unwrap();
            c.unlock_all();
        });
        independent.join();
        a.unlock_all();
        assert_eq!(waiter.join(), 1);
        t.check_invariants();
    }

    #[test]
    fn records_snapshot_names_owners() {
        let t = table();
        let mut a = t.owner("alice");
        let mut b = t.owner("bob");
        a.lock(Range::new(0, 10), LockMode::Shared).unwrap();
        b.lock(Range::new(10, 20), LockMode::Exclusive).unwrap();
        let records = t.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].owner, "alice");
        assert_eq!(records[1].owner, "bob");
        assert_eq!(records[1].mode, LockMode::Exclusive);
        a.unlock_all();
        b.unlock_all();
    }

    #[test]
    fn empty_range_operations_are_noops() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(10, 10), LockMode::Exclusive).unwrap();
        assert!(a.held().is_empty());
        a.unlock(Range::new(5, 5));
        a.try_lock(Range::new(7, 7), LockMode::Shared).unwrap();
        assert_eq!(t.held_records(), 0);
    }

    #[test]
    fn exclusive_only_locks_report_overlapping_shared_records() {
        // Over `list-ex` and `lustre-ex` a "shared" tile is exclusive
        // underneath, so an overlapping shared request of another owner
        // waits: F_GETLK, `try_lock` and the `try_lock_many` precheck must
        // all name the record it waits for.
        for name in ["list-ex", "lustre-ex"] {
            let spec = rl_baselines::registry::by_name(name).expect("registered variant");
            let t = Arc::new(LockTable::new(
                spec.build(rl_sync::WaitPolicyKind::SpinThenYield, &Default::default()),
            ));
            let mut a = t.owner("a");
            let mut b = t.owner("b");
            a.lock(Range::new(0, 10), LockMode::Shared).unwrap();

            let probe = b.would_block(Range::new(0, 10), LockMode::Shared);
            assert_eq!(probe.expect("{name}: F_GETLK missed a conflict").owner, "a");
            let err = b.try_lock(Range::new(5, 15), LockMode::Shared).unwrap_err();
            assert_eq!(err.conflict.expect("{name}: conflict unnamed").owner, "a");
            let err = b
                .try_lock_many(&[
                    (Range::new(20, 30), LockMode::Shared),
                    (Range::new(5, 15), LockMode::Shared),
                ])
                .unwrap_err();
            assert_eq!(err.conflict.expect("{name}: precheck missed").owner, "a");
            assert!(
                b.held().is_empty(),
                "{name}: the refused batch left residue"
            );
            t.check_invariants();
        }
    }

    /// A forwarding `list-rw` lock that counts the two-phase steps the
    /// table takes, as `[enqueues, polls, cancels]` in an array the test
    /// keeps.
    struct Counting(RwListRangeLock, Arc<[AtomicU64; 3]>);

    impl RwRangeLock for Counting {
        fn acquire(&self, range: Range, mode: LockMode) -> Held {
            self.0.acquire(range, mode)
        }

        fn try_acquire(&self, range: Range, mode: LockMode) -> Option<Held> {
            self.0.try_acquire(range, mode)
        }

        fn release(&self, held: Held) {
            self.0.release(held);
        }

        fn downgrade(&self, held: &mut Held) -> bool {
            self.0.downgrade(held)
        }

        fn readers_share(&self) -> bool {
            self.0.readers_share()
        }

        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    impl TwoPhaseRwRangeLock for Counting {
        fn enqueue(&self, range: Range, mode: LockMode) -> Pending {
            self.1[0].fetch_add(1, Ordering::SeqCst);
            self.0.enqueue(range, mode)
        }

        fn poll(&self, pending: &mut Pending) -> Option<Held> {
            self.1[1].fetch_add(1, Ordering::SeqCst);
            self.0.poll(pending)
        }

        fn cancel(&self, pending: &mut Pending) {
            self.1[2].fetch_add(1, Ordering::SeqCst);
            self.0.cancel(pending);
        }

        fn wait_queue(&self) -> &rl_sync::WaitQueue {
            self.0.wait_queue()
        }
    }

    /// A table over a [`Counting`] lock, and that lock's counts.
    struct CountingTable(Arc<LockTable>, Arc<[AtomicU64; 3]>);

    impl std::ops::Deref for CountingTable {
        type Target = Arc<LockTable>;

        fn deref(&self) -> &Arc<LockTable> {
            &self.0
        }
    }

    fn counting_table() -> CountingTable {
        let counts = Arc::new([const { AtomicU64::new(0) }; 3]);
        let lock = Box::new(Counting(RwListRangeLock::new(), Arc::clone(&counts)));
        CountingTable(Arc::new(LockTable::new(lock)), counts)
    }

    /// The `[enqueues, polls, cancels]` that `op` cost the table's lock.
    fn steps_of(t: &CountingTable, op: impl FnOnce()) -> [u64; 3] {
        let read = || t.1.each_ref().map(|c| c.load(Ordering::SeqCst));
        let before = read();
        op();
        let after = read();
        [0, 1, 2].map(|i| after[i] - before[i])
    }

    #[test]
    fn plans_that_wait_for_nothing_cost_what_the_lock_costs() {
        let t = counting_table();
        let mut a = t.owner("a");
        let span = Range::new(0, 10);
        // A fresh-span lock is one enqueue and one poll; a whole-tile unlock
        // touches no request at all.
        assert_eq!(
            steps_of(&t, || a.lock(span, LockMode::Exclusive).unwrap()),
            [1, 1, 0]
        );
        assert_eq!(steps_of(&t, || a.unlock(span)), [0, 0, 0]);
        assert_eq!(
            steps_of(&t, || rl_exec::block_on(
                a.lock_async(span, LockMode::Shared)
            )
            .unwrap()),
            [1, 1, 0]
        );
        assert_eq!(
            steps_of(&t, || rl_exec::block_on(a.unlock_async(span))),
            [0, 0, 0]
        );
        // A split unlock is a transaction: it re-takes both edges.
        a.lock(Range::new(0, 30), LockMode::Exclusive).unwrap();
        assert_eq!(steps_of(&t, || a.unlock(Range::new(10, 20)))[0], 2);
        a.lock(Range::new(0, 30), LockMode::Exclusive).unwrap();
        assert_eq!(
            steps_of(&t, || rl_exec::block_on(a.unlock_async(Range::new(10, 20))))[0],
            2
        );
        assert_eq!(
            held_of(&a),
            vec![(0, 10, LockMode::Exclusive), (20, 30, LockMode::Exclusive)]
        );
        t.check_invariants();
    }

    #[test]
    fn a_fresh_span_lock_that_waits_keeps_its_first_request() {
        use std::future::Future;
        use std::task::{Context, Waker};

        let t = counting_table();
        let mut a = t.owner("a");
        let span = Range::new(0, 10);

        // Sync: B's first poll blocks behind A, and the transaction it waits
        // in carries that request until A's unlock grants it.
        a.lock(span, LockMode::Exclusive).unwrap();
        let steps = steps_of(&t, || {
            let t2 = Arc::clone(&t);
            let b = std::thread::spawn(move || {
                let mut b = t2.owner("b");
                b.lock(span, LockMode::Exclusive).unwrap();
                b.unlock(span);
            });
            while t.waiting_owners() == 0 {
                std::thread::yield_now();
            }
            a.unlock(span);
            b.join().unwrap();
        });
        assert_eq!([steps[0], steps[2]], [1, 0], "enqueues, cancels: {steps:?}");
        assert!(steps[1] >= 2, "the blocked request was polled again");

        // Async, on one thread: the same request is pending across the
        // suspension.
        a.lock(span, LockMode::Exclusive).unwrap();
        let mut b = t.owner("b");
        let steps = steps_of(&t, || {
            let mut cx = Context::from_waker(Waker::noop());
            let mut fut = Box::pin(b.lock_async(span, LockMode::Shared));
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            a.unlock(span);
            assert!(matches!(fut.as_mut().poll(&mut cx), Poll::Ready(Ok(()))));
        });
        assert_eq!([steps[0], steps[2]], [1, 0], "enqueues, cancels: {steps:?}");
        assert_eq!(held_of(&b), vec![(0, 10, LockMode::Shared)]);
        assert_eq!(t.waiting_owners(), 0);
        t.check_invariants();
    }
}
