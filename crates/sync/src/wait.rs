//! Wait policies: what a lock waiter does while it cannot proceed.
//!
//! The paper's pseudo-code waits by spinning (`Pause()` in a loop), which is
//! the right model on a machine with spare cores — but the kernel locks the
//! range locks replace (`mmap_sem`, the Lustre tree lock) *block* their
//! waiters, and on an oversubscribed machine spinning measures the scheduler
//! instead of the lock. So every lock in the workspace owns one
//! [`WaitQueue`], and the queue carries the lock's [`WaitPolicyKind`], fixed
//! when the lock is built:
//!
//! * [`WaitPolicyKind::Spin`] — pure busy-waiting with exponential backoff,
//!   never yields the CPU. The strongest form of the paper's `Pause()` loop;
//!   only honest when threads ≤ cores.
//! * [`WaitPolicyKind::SpinThenYield`] — busy-wait briefly, then interleave
//!   [`std::thread::yield_now`] between polls. The list and tree locks'
//!   default, and what every lock did before this layer existed.
//! * [`WaitPolicyKind::Block`] — busy-wait briefly, then **park** on the
//!   queue until a release wakes it. The user-space analogue of a futex
//!   wait: the kernel-fidelity choice, and the only policy whose waiters
//!   consume no CPU while descheduled.
//!
//! Locks wait through [`WaitQueue::wait`] instead of open-coded backoff
//! loops, and wake the queue from every release path. Waking is not a
//! policy decision: a release calls [`WaitQueue::wake_key`] (or
//! [`WaitQueue::wake_all`]) whatever the policy, because suspended futures
//! and timed parkers must be woken even on a lock whose blocking waiters
//! spin. With nobody waiting a wake is one generation bump (fetch-add), a
//! fence and one or two loads — no mutex, no syscall. The policy only
//! matters once a waiter has lost its race, so it is a value the queue
//! branches on, not a type the lock is compiled for.
//!
//! # One mechanism: keyed parking
//!
//! The queue is per lock, but waiting is **per conflict**. Everything that
//! waits on a queue — a parked thread or a suspended future's
//! [`core::task::Waker`], with or without a deadline — is an entry in the
//! queue's sharded [`ShardTable`] (see [`crate::parking`]), filed under a
//! key: the address of the node or range that blocks it. The blocker's
//! release calls [`WaitQueue::wake_key`] with that address and wakes
//! exactly the matching entries — a futex analogue with per-conflict wait
//! words, so a release costs O(1) wakeups however many waiters are parked
//! on other conflicts.
//!
//! A waiter that cannot name its conflict (a barging two-phase poller of a
//! try-based lock) files under the reserved key [`KEY_ANY`], whose entries
//! **every** wake also claims; `wake_key(KEY_ANY)` wakes that population
//! alone. [`WaitQueue::wake_all`] is the one broadcast, for releases that
//! cannot name what they resolved (guard-drop fallbacks, deadlock
//! re-derivation). Spurious wakeups — woken, predicate still false,
//! re-parked — are counted in the owning lock's attached [`WaitStats`], so
//! the `spurious_wakeups` column in benchmark reports measures whatever herd
//! remains directly.
//!
//! A wait with nothing to wait *for* — a fixed re-check round whose
//! predicate never holds — files nowhere: [`WaitQueue::pause_until`]
//! parks out its deadline where no wake can claim it, so it costs the
//! lock's releasers nothing.
//!
//! # Lost wakeups
//!
//! One Dekker-style protocol, run against the generation counter and the
//! shard occupancies, covers every waiter:
//!
//! * **waiter** — publish the entry (a sequentially consistent occupancy
//!   store), `SeqCst` fence, *then* re-check: a parking thread re-evaluates
//!   its predicate, a future compares the generation with the snapshot it
//!   took **before** polling the lock;
//! * **waker** — publish the state change the predicate observes, bump the
//!   generation (`SeqCst`), `SeqCst` fence, *then* load the occupancy of
//!   the key's shard and of `KEY_ANY`'s.
//!
//! In the fence order either the waker's occupancy load sees the entry and
//! claims it, or the waiter's re-check sees the released state (the thread
//! returns; the future's registration reports `false` and
//! [`WakerSlot::step`] re-polls the lock) — never neither. A wakeup can
//! therefore not fall between a waiter's check and its sleep.
//!
//! # Examples
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use rl_sync::wait::{WaitPolicyKind, WaitQueue};
//!
//! let queue = WaitQueue::new(WaitPolicyKind::Block);
//! let flag = AtomicBool::new(true); // pretend a release already happened
//! // Wait out conflict 0x40; the release wakes exactly that key.
//! queue.wait(0x40, || flag.load(Ordering::Acquire), None);
//! queue.wake_key(0x40); // no waiters: a few atomics, no syscall
//! ```
//!
//! [`KEY_ANY`]: crate::parking::KEY_ANY

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::time::Instant;

use crate::backoff::Backoff;
use crate::parking::{ShardTable, ThreadParker};
use crate::stats::WaitStats;

/// A futex-analogue wait queue owned by a lock instance: a generation
/// counter over a sharded address-keyed parking table.
///
/// Waiters — threads ([`WaitQueue::park`]) and futures
/// ([`WaitQueue::register_waker`]) — sit in the [`ShardTable`] under the
/// address of the conflict that blocks them (or [`KEY_ANY`]) and are woken
/// selectively by [`WaitQueue::wake_key`]; every release path of the owning
/// lock calls it or [`WaitQueue::wake_all`]. How a blocked thread passes the
/// time before it parks is the queue's [`WaitPolicyKind`], fixed by the
/// owning lock's constructor ([`WaitQueue::wait`]). The queue keeps no counters of
/// its own: each wait event (park, effective wake, spurious wakeup, waker
/// registration, cancel, deadlock, batch rollback) is recorded once, into the
/// [`WaitStats`] the owning lock attached, and costs nothing without one.
///
/// [`KEY_ANY`]: crate::parking::KEY_ANY
pub struct WaitQueue {
    /// Bumped by every wake; futures register against a snapshot of it.
    generation: AtomicU64,
    /// The parking table: every waiter of this queue, filed under the
    /// conflicting node/range address.
    table: ShardTable,
    /// Allocator for waiter ids (waker slots and parked threads).
    next_slot: AtomicU64,
    /// How [`WaitQueue::wait`] passes the time.
    policy: WaitPolicyKind,
    /// Where the wait events go, attached by the owning lock's `with_stats`
    /// builder before the lock is shared.
    stats: Option<Arc<WaitStats>>,
    /// Lazily-allocated `rl-obs` lock id stamped on every event the owning
    /// lock (and this queue) emits; 0 until first use. Lazy because
    /// [`WaitQueue::new`] is `const`.
    trace_id: AtomicU64,
}

impl WaitQueue {
    /// Creates an empty queue whose waiters wait through `policy`.
    pub const fn new(policy: WaitPolicyKind) -> Self {
        WaitQueue {
            generation: AtomicU64::new(0),
            table: ShardTable::new(),
            next_slot: AtomicU64::new(1),
            policy,
            stats: None,
            trace_id: AtomicU64::new(0),
        }
    }

    /// The `rl-obs` lock id events about the owning lock are stamped with,
    /// allocated from the process-global counter on first use. Owning locks
    /// use this as *their* id too, so queue-level events (parks/wakes) and
    /// lock-level events (grants/releases) land on the same trace track.
    pub fn trace_id(&self) -> u64 {
        let id = self.trace_id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = rl_obs::trace::next_lock_id();
        match self
            .trace_id
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(current) => current,
        }
    }

    /// Records this queue's wait events (parks, wakes, spurious wakeups,
    /// waker registrations, cancels, deadlocks, batch rollbacks) into
    /// `stats`.
    ///
    /// Must be called before the queue is shared (it takes `&mut self`),
    /// which is why every lock exposes it through its `with_stats` builder.
    pub fn attach_stats(&mut self, stats: Arc<WaitStats>) {
        self.stats = Some(stats);
    }

    /// Number of waiters (threads + wakers) currently registered.
    pub fn waiters(&self) -> u64 {
        self.table.occupancy()
    }

    /// Current generation. Snapshot this **before** polling the condition a
    /// wake would signal, then pass the snapshot to
    /// [`WaitQueue::register_waker`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Allocates a fresh waker slot id for one pending acquisition.
    ///
    /// Slot ids only disambiguate registrations; they hold no resources, so
    /// an id whose future never registers needs no cleanup.
    pub fn alloc_waker_slot(&self) -> u64 {
        self.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers (or re-arms) `waker` for future `slot` in the parking
    /// table under `key`, unless the generation has advanced past the `gen`
    /// snapshot. Only [`WaitQueue::wake_key`] for that key (every key, for
    /// `KEY_ANY`) or a broadcast wakes it.
    ///
    /// Returns `false`, leaving nothing registered, when a wake slipped in
    /// between the caller's snapshot and this call; the caller must then
    /// re-poll its condition and retry with a fresh snapshot — that re-poll
    /// is what makes the registration lost-wakeup-free (see the module-level
    /// argument). A future whose blocking conflict *changes* between polls
    /// must deregister its old key ([`WaitQueue::deregister_waker`]) before
    /// registering the new one — the waker-slot migration path.
    pub fn register_waker(&self, key: u64, slot: u64, gen: u64, waker: &Waker) -> bool {
        // Publish *before* the generation check: either the releaser's bump
        // precedes our check (we fail and re-poll) or our occupancy store
        // precedes the releaser's occupancy load (it claims and wakes us).
        self.table.register(key, slot, waker);
        fence(Ordering::SeqCst);
        if self.generation.load(Ordering::SeqCst) != gen {
            self.table.deregister(key, slot);
            return false;
        }
        if let Some(stats) = &self.stats {
            stats.record_waker_registration();
        }
        true
    }

    /// Removes the waker registered for `slot` under `key`, if a wake has
    /// not already claimed it. Called when the owning future migrates keys,
    /// resolves or is dropped; idempotent.
    pub fn deregister_waker(&self, key: u64, slot: u64) {
        self.table.deregister(key, slot);
    }

    /// Records one abandoned two-phase acquisition (a dropped
    /// acquisition future or an expired timeout).
    pub fn record_cancel(&self) {
        if let Some(stats) = &self.stats {
            stats.record_cancel();
        }
    }

    /// Records one acquisition refused with `EDEADLK`: a waits-for cycle
    /// check decided that waiting would have closed a cycle. The refused
    /// acquisition also cancels its pending node, so callers record a
    /// [`WaitQueue::record_cancel`] alongside.
    pub fn record_deadlock(&self) {
        if let Some(stats) = &self.stats {
            stats.record_deadlock();
        }
    }

    /// Records one batched acquisition (`lock_many`) that failed partway
    /// and rolled back every range it had already taken.
    pub fn record_batch_rollback(&self) {
        if let Some(stats) = &self.stats {
            stats.record_batch_rollback();
        }
    }

    /// Records one spurious wakeup: a waiter woke and found its predicate
    /// still false.
    fn record_spurious(&self) {
        if let Some(stats) = &self.stats {
            stats.record_spurious_wakeup();
        }
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(rl_obs::EventKind::SpuriousWake, self.trace_id(), 0, 0);
        }
    }

    fn record_park(&self) {
        if let Some(stats) = &self.stats {
            stats.record_park();
        }
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(rl_obs::EventKind::Parked, self.trace_id(), 0, 0);
        }
    }

    fn record_woken(&self) {
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(rl_obs::EventKind::Woken, self.trace_id(), 0, 0);
        }
    }

    /// Parks the calling thread in the table under `key` until `cond`
    /// returns `true` or, when there is one, `deadline` passes; returns the
    /// final value of `cond`. Only [`WaitQueue::wake_key`] for `key` (every
    /// key, for `KEY_ANY`) or a [`WaitQueue::wake_all`] broadcast wakes it.
    ///
    /// The caller keys on the conflict it is waiting out (the blocking
    /// node's address), and `cond` must become observable before that
    /// conflict's release wakes the key — which every lock's release order
    /// (publish state, then wake) guarantees. `cond` may have side effects
    /// (e.g. a CAS that acquires the lock): it is not called again once it
    /// has returned `true`.
    pub fn park(
        &self,
        key: u64,
        mut cond: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        let parker = ThreadParker::new();
        let waker = Waker::from(Arc::clone(&parker));
        let id = self.alloc_waker_slot();
        loop {
            parker.reset();
            self.table.register(key, id, &waker);
            // Publish-then-check (see the module-level protocol): either the
            // releaser's occupancy load sees our entry, or this re-check
            // sees the released state.
            fence(Ordering::SeqCst);
            if cond() {
                self.table.deregister(key, id);
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                self.table.deregister(key, id);
                // One last look: the deadline racing a wake must not report
                // failure when the condition in fact became true.
                return cond();
            }
            self.record_park();
            let signaled = parker.park(deadline);
            self.record_woken();
            if !signaled {
                // Expired while registered: withdraw (a racing wake that
                // already claimed the entry makes this a no-op and leaves a
                // stray signal, which is dropped with the parker).
                self.table.deregister(key, id);
                return cond();
            }
            // The wake that signalled us also claimed (removed) our entry,
            // so the next round re-registers from scratch.
            if cond() {
                return true;
            }
            self.record_spurious();
        }
    }

    /// Waits until `cond` yields `true` (returning `true`) or, when there is
    /// one, `deadline` passes first (returning `false`), through this
    /// queue's policy. `key` is the address of the conflict being waited
    /// out (`KEY_ANY` when the caller cannot name one), so a parked waiter
    /// is woken by its blocker's release instead of by every release on the
    /// lock; the spinning policies never park and poll the clock between
    /// backoff steps.
    ///
    /// [`KEY_ANY`]: crate::parking::KEY_ANY
    #[inline]
    pub fn wait(
        &self,
        key: u64,
        mut cond: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        // Optimistic phase: the holder usually releases within the backoff
        // ramp, in which case a blocking waiter never touches the table.
        // The policy is read once: it shares a cache line with the
        // generation every release bumps, and re-reading it per step
        // bounced that line between spinning waiters and the releasers
        // (`core-crowd` ran ≈ 5 % slower that way on a 2-vCPU x86-64 box).
        let policy = self.policy;
        let backoff = Backoff::new();
        while !(policy == WaitPolicyKind::Block && backoff.is_completed()) {
            if cond() {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            if policy == WaitPolicyKind::Spin {
                backoff.spin();
            } else {
                backoff.snooze();
            }
        }
        self.park(key, cond, deadline)
    }

    /// Passes the time until `deadline` with nothing to wait for: a fixed
    /// round, not a wait for a release — such as the `rl-file` lock table's
    /// deadlock re-derivation, whose predicate never holds.
    ///
    /// Under `Block` the caller parks at once — no backoff ramp, and filed
    /// under no key, where no wake of this queue reaches it — so a release
    /// or a broadcast costs its caller nothing on its account; it records
    /// one park (and the `Parked`/`Woken` trace events) unless `deadline`
    /// has already passed. The spinning policies back off to the deadline
    /// exactly as [`WaitQueue::wait`] does with a predicate that never
    /// holds.
    pub fn pause_until(&self, deadline: Instant) {
        if self.policy != WaitPolicyKind::Block {
            self.wait(crate::parking::KEY_ANY, || false, Some(deadline));
            return;
        }
        if Instant::now() >= deadline {
            return;
        }
        self.record_park();
        // Never signalled: the parker only absorbs stray unpark tokens
        // until the deadline.
        ThreadParker::new().park(Some(deadline));
        self.record_woken();
    }

    /// One wake operation: bump, fence, then let `claim` pick the entries.
    fn wake_with(&self, claim: impl FnOnce(&ShardTable) -> usize) {
        // Bump first so a concurrently registering waiter (parking thread
        // or future) detects the wake even if the occupancy loads in
        // `claim` miss its registration (see the module-level argument).
        self.generation.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if claim(&self.table) > 0 {
            if let Some(stats) = &self.stats {
                stats.record_wake();
            }
        }
    }

    /// Wakes exactly the waiters (threads and wakers) parked under `key`,
    /// plus the `KEY_ANY` waiters, which every wake claims; waiters under
    /// other keys stay parked. `wake_key(KEY_ANY)` wakes the any-key
    /// population alone — for release paths that proved no keyed waiter
    /// became eligible but must still nudge barging two-phase pollers.
    ///
    /// With nobody waiting this is a fetch-add, a fence and two loads — no
    /// mutex, no syscall.
    pub fn wake_key(&self, key: u64) {
        self.wake_with(|table| table.wake_key(key));
    }

    /// Wakes every parked waiter, threads and wakers under every key, so it
    /// re-checks its predicate.
    ///
    /// The broadcast fallback: guard-drop herds, deadlock re-derivation,
    /// and every call site that cannot name the conflict it resolved. With
    /// nobody waiting this is a fetch-add, a fence and one load.
    pub fn wake_all(&self) {
        self.wake_with(ShardTable::wake_all);
    }
}

/// One pending acquisition's waker registration on a [`WaitQueue`] — the
/// bookkeeping every future that suspends on a queue needs, and the async
/// wait step itself, written once ([`WakerSlot::step`]):
///
/// * the slot id is allocated by the **first registration attempt**, so an
///   acquisition granted on its first poll touches no shared word of the
///   queue and has nothing to deregister;
/// * the waker is filed under the key of the conflict the latest poll named,
///   and **migrates** when a re-poll names a different one (the old key is
///   deregistered before the new one is registered);
/// * the registration is removed when the acquisition resolves, and by
///   `Drop` when the owning future is abandoned, so no waker outlives the
///   acquisition that filed it.
///
/// The lost-wakeup contract is [`WaitQueue::register_waker`]'s: snapshot the
/// generation *before* polling, and treat `false` as "re-poll".
/// [`WakerSlot::step`] is that contract as code, and the only way to file a
/// waker through a slot; the acquisition futures of the lock traits and the
/// `rl-file` lock table's async driver all suspend through it.
#[derive(Debug)]
pub struct WakerSlot<'q> {
    queue: &'q WaitQueue,
    /// Slot id on the queue; `None` until the first registration attempt.
    id: Option<u64>,
    /// The key the waker is filed under, while one is.
    filed: Option<u64>,
}

impl<'q> WakerSlot<'q> {
    /// A slot on `queue` with nothing allocated and nothing registered.
    pub const fn new(queue: &'q WaitQueue) -> Self {
        WakerSlot {
            queue,
            id: None,
            filed: None,
        }
    }

    /// Files (or re-arms) `waker` under `key` against the `gen` snapshot,
    /// re-homing it first if it is filed under another key. `false` means a
    /// wake slipped in after the snapshot: nothing stays registered and
    /// [`WakerSlot::step`] re-polls with a fresh snapshot.
    fn register(&mut self, key: u64, gen: u64, waker: &Waker) -> bool {
        if self.filed != Some(key) {
            self.clear();
        }
        let id = *self.id.get_or_insert_with(|| self.queue.alloc_waker_slot());
        let registered = self.queue.register_waker(key, id, gen, waker);
        self.filed = registered.then_some(key);
        registered
    }

    /// Removes the registration, if a wake has not already claimed it.
    #[inline]
    pub fn clear(&mut self) {
        if let (Some(id), Some(key)) = (self.id, self.filed.take()) {
            self.queue.deregister_waker(key, id);
        }
    }

    /// One async wait step: drives `poll` — which must never wait, and
    /// returns either its value or the wait key of the conflict it stopped
    /// at — until it is ready or `waker` is filed under that key.
    ///
    /// Each round snapshots the generation *before* polling; a registration
    /// the snapshot makes stale means a wake slipped in after the poll, and
    /// whatever it signalled may unblock us, so the step re-polls instead of
    /// suspending. On ready the registration is withdrawn, so a step that is
    /// ready on its first poll allocates no slot id at all.
    ///
    /// Inlined, with [`WakerSlot::clear`], into the futures that call it
    /// across the crate boundary: out of line, the pair cost an `rl-server`
    /// lock hand-off ≈ 3 % (one pinned x86-64 vCPU).
    #[inline]
    pub fn step<T>(&mut self, waker: &Waker, mut poll: impl FnMut() -> Result<T, u64>) -> Poll<T> {
        loop {
            let gen = self.queue.generation();
            match poll() {
                Ok(value) => {
                    self.clear();
                    return Poll::Ready(value);
                }
                Err(key) => {
                    if self.register(key, gen, waker) {
                        return Poll::Pending;
                    }
                }
            }
        }
    }
}

impl Drop for WakerSlot<'_> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl std::fmt::Debug for WaitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitQueue")
            .field("waiters", &self.waiters())
            .field("generation", &self.generation())
            .field("policy", &self.policy.name())
            .finish()
    }
}

/// How a lock waiter passes the time once it has lost its race: the value
/// every [`WaitQueue`] carries, fixed when its lock is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicyKind {
    /// Pure busy-waiting with exponential backoff; never yields the CPU.
    Spin,
    /// Busy-wait briefly, then interleave [`std::thread::yield_now`]
    /// between polls.
    SpinThenYield,
    /// Busy-wait through one backoff ramp, then park on the queue until a
    /// release of the conflict waited on wakes it.
    Block,
}

impl WaitPolicyKind {
    /// All policies, in escalation order.
    pub const ALL: [WaitPolicyKind; 3] = [
        WaitPolicyKind::Spin,
        WaitPolicyKind::SpinThenYield,
        WaitPolicyKind::Block,
    ];

    /// Stable short name used by benchmark reports
    /// (`"spin"` / `"spin-yield"` / `"block"`).
    pub fn name(self) -> &'static str {
        match self {
            WaitPolicyKind::Spin => "spin",
            WaitPolicyKind::SpinThenYield => "spin-yield",
            WaitPolicyKind::Block => "block",
        }
    }
}

/// A policy named as a type, for `ListLock`'s type parameter alone: its
/// default is [`SpinThenYield`], and only the frozen `benchmark/` harness
/// spells another (`RwListRangeLock::<Block>::with_policy()`). Deleted when
/// the harness is re-based; everything else passes a [`WaitPolicyKind`].
pub trait WaitPolicy: Send + Sync + 'static {
    /// The value this type names.
    const KIND: WaitPolicyKind;
}

/// [`WaitPolicyKind::SpinThenYield`] as a type; see [`WaitPolicy`].
#[derive(Debug)]
pub struct SpinThenYield;

impl WaitPolicy for SpinThenYield {
    const KIND: WaitPolicyKind = WaitPolicyKind::SpinThenYield;
}

/// [`WaitPolicyKind::Block`] as a type; see [`WaitPolicy`].
#[derive(Debug)]
pub struct Block;

impl WaitPolicy for Block {
    const KIND: WaitPolicyKind = WaitPolicyKind::Block;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parking::{shard_index, KEY_ANY};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// Spawns a thread that parks on `queue` under `key` until `flag` is
    /// set; returns the park's result.
    fn spawn_parker(
        queue: &Arc<WaitQueue>,
        key: u64,
        flag: &Arc<AtomicBool>,
        deadline: Option<Instant>,
    ) -> std::thread::JoinHandle<bool> {
        let (queue, flag) = (Arc::clone(queue), Arc::clone(flag));
        std::thread::spawn(move || queue.park(key, || flag.load(Ordering::Acquire), deadline))
    }

    /// Polls `cond` every millisecond; panics after 30 s instead of hanging.
    fn sleep_until(mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never held");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    use WaitPolicyKind::{Block, Spin, SpinThenYield};

    /// A `policy` queue whose wait events are recorded into the returned
    /// stats (the queue itself counts nothing).
    fn counted(policy: WaitPolicyKind) -> (Arc<WaitQueue>, Arc<WaitStats>) {
        let stats = Arc::new(WaitStats::new("queue"));
        let mut queue = WaitQueue::new(policy);
        queue.attach_stats(Arc::clone(&stats));
        (Arc::new(queue), stats)
    }

    /// A counted `Block` queue.
    fn counted_queue() -> (Arc<WaitQueue>, Arc<WaitStats>) {
        counted(Block)
    }

    #[test]
    fn satisfied_condition_returns_immediately() {
        for policy in WaitPolicyKind::ALL {
            let (queue, stats) = counted(policy);
            for key in [KEY_ANY, 0x40] {
                assert!(queue.wait(key, || true, None));
                assert!(queue.park(key, || true, None));
            }
            assert_eq!(stats.snapshot().parks, 0);
            assert_eq!(queue.waiters(), 0);
        }
    }

    #[test]
    fn block_parks_and_release_wakes() {
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                queue.wait(KEY_ANY, || flag.load(Ordering::Acquire), None);
            })
        };
        // Give the waiter long enough to exhaust the backoff ramp and park
        // (the ramp is a few microseconds of spinning).
        sleep_until(|| stats.snapshot().parks != 0);
        flag.store(true, Ordering::Release);
        queue.wake_all();
        waiter.join().unwrap();
        assert!(stats.snapshot().parks >= 1);
        assert_eq!(stats.snapshot().wakes, 1);
    }

    #[test]
    fn wake_with_no_waiters_is_quiet() {
        let (queue, stats) = counted_queue();
        for _ in 0..100 {
            queue.wake_all();
            queue.wake_key(0x40);
            queue.wake_key(KEY_ANY);
        }
        assert_eq!(stats.snapshot().wakes, 0);
    }

    /// A writer bumps a turn counter and wakes; the waiter — through the one
    /// wait function, with and without a (never-reached) deadline — must
    /// always observe the bump in bounded time, across many iterations
    /// racing the park itself.
    fn rapid_handoff(policy: WaitPolicyKind, key: u64, wake: impl Fn(&WaitQueue, u64)) {
        const ITERS: u64 = 2_000;
        let name = policy.name();
        for timed in [false, true] {
            let queue = Arc::new(WaitQueue::new(policy));
            let turn = Arc::new(AtomicU64::new(0));
            let waiter = {
                let queue = Arc::clone(&queue);
                let turn = Arc::clone(&turn);
                std::thread::spawn(move || {
                    let deadline = timed.then(|| Instant::now() + Duration::from_secs(600));
                    for i in 0..ITERS {
                        let passed = || turn.load(Ordering::Acquire) > i;
                        assert!(queue.wait(key, passed, deadline), "{name}");
                    }
                })
            };
            for i in 0..ITERS {
                turn.store(i + 1, Ordering::Release);
                wake(&queue, i);
                // Vary the interleaving so some rounds race the park itself.
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
            }
            waiter.join().unwrap();
            assert_eq!(queue.waiters(), 0, "{name} left an entry behind");
        }
    }

    #[test]
    fn no_lost_wakeup_under_rapid_handoff() {
        // Any-key waiter: the broadcast and a wake naming some unrelated
        // conflict must both reach it.
        fn wake(queue: &WaitQueue, i: u64) {
            if i.is_multiple_of(2) {
                queue.wake_all();
            } else {
                queue.wake_key(0x80);
            }
        }
        for policy in WaitPolicyKind::ALL {
            rapid_handoff(policy, KEY_ANY, wake);
        }
    }

    #[test]
    fn no_lost_wakeup_under_rapid_keyed_handoff() {
        // Registration racing wake_key on the same key must never strand
        // the waiter.
        const KEY: u64 = 0xA40;
        for policy in WaitPolicyKind::ALL {
            rapid_handoff(policy, KEY, |queue, _| queue.wake_key(KEY));
        }
    }

    #[test]
    fn keyed_park_ignores_other_keys_and_wakes_on_its_own() {
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = spawn_parker(&queue, 0x40, &flag, None);
        sleep_until(|| stats.snapshot().parks == 1);
        // A wake for an unrelated key must leave the waiter parked (its
        // entry stays in the table) and cost no spurious wakeup.
        queue.wake_key(0x80);
        std::thread::sleep(Duration::from_millis(5));
        assert!(!waiter.is_finished());
        assert_eq!(queue.waiters(), 1);
        assert_eq!(stats.snapshot().spurious_wakeups, 0);
        flag.store(true, Ordering::Release);
        queue.wake_key(0x40);
        assert!(waiter.join().unwrap());
        assert_eq!(queue.waiters(), 0);
        assert_eq!(stats.snapshot().spurious_wakeups, 0);
    }

    #[test]
    fn wake_key_claims_any_key_waiters_and_stays_exact_under_collision() {
        let collides_with = |key: u64| {
            (2..10_000u64)
                .map(|i| i * 64)
                .find(|k| *k != key && shard_index(*k) == shard_index(key))
                .expect("some aligned key collides into the shard")
        };
        let k = 64u64;
        assert_ne!(shard_index(k), shard_index(KEY_ANY));
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let any = spawn_parker(&queue, KEY_ANY, &flag, None);
        let own = spawn_parker(&queue, k, &flag, None);
        let in_home_shard = spawn_parker(&queue, collides_with(k), &flag, None);
        let in_any_shard = spawn_parker(&queue, collides_with(KEY_ANY), &flag, None);
        let (count, waker) = counting_waker();
        let slot = queue.alloc_waker_slot();
        assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker));
        sleep_until(|| stats.snapshot().parks == 4);
        // Everyone's predicate holds from here on, so whoever is woken
        // leaves and whoever stays parked was provably not woken.
        flag.store(true, Ordering::Release);
        queue.wake_key(k);
        assert!(any.join().unwrap());
        assert!(own.join().unwrap());
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!in_home_shard.is_finished() && !in_any_shard.is_finished());
        assert_eq!(queue.waiters(), 2);
        assert_eq!(stats.snapshot().wakes, 1, "one wake operation counts once");
        // Naming `KEY_ANY` wakes the any-key population alone.
        assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker));
        queue.wake_key(KEY_ANY);
        assert_eq!(count.0.load(Ordering::SeqCst), 2);
        assert_eq!(queue.waiters(), 2);
        queue.wake_all();
        assert!(in_home_shard.join().unwrap());
        assert!(in_any_shard.join().unwrap());
        assert_eq!(stats.snapshot().spurious_wakeups, 0);
    }

    #[test]
    fn broadcast_wakes_keyed_parker_and_counts_spurious() {
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = spawn_parker(&queue, 0x40, &flag, None);
        sleep_until(|| stats.snapshot().parks == 1);
        // A broadcast herds the keyed parker awake with its predicate still
        // false — one spurious wakeup, then it re-parks.
        queue.wake_all();
        sleep_until(|| stats.snapshot().spurious_wakeups == 1 && stats.snapshot().parks == 2);
        flag.store(true, Ordering::Release);
        queue.wake_all();
        assert!(waiter.join().unwrap());
        assert_eq!(stats.snapshot().spurious_wakeups, 1);
    }

    #[test]
    fn unkeyed_herd_wakeups_are_counted_spurious() {
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = spawn_parker(&queue, KEY_ANY, &flag, None);
        sleep_until(|| stats.snapshot().parks == 1);
        // A wake for some conflict claims the any-key waiter without
        // satisfying its predicate: it re-parks and the herd counter ticks.
        queue.wake_key(0x80);
        sleep_until(|| stats.snapshot().spurious_wakeups == 1 && stats.snapshot().parks == 2);
        flag.store(true, Ordering::Release);
        queue.wake_key(0xC0);
        assert!(waiter.join().unwrap());
        assert_eq!(stats.snapshot().spurious_wakeups, 1);
    }

    #[test]
    fn parked_deadline_waiter_does_not_tax_every_wake() {
        // A wake is effective only if it claims an entry, and each entry
        // was parked on — so a waiter resident in a deadline wait must not
        // turn every wake of the queue into an effective one (a mutex and a
        // syscall per release, for as long as it sits there).
        let (queue, stats) = counted_queue();
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_millis(200);
                queue.wait(KEY_ANY, || false, Some(deadline))
            })
        };
        sleep_until(|| stats.snapshot().parks != 0);
        for _ in 0..100_000 {
            queue.wake_all();
        }
        assert!(!waiter.join().unwrap(), "the predicate never held");
        let snap = stats.snapshot();
        assert!(
            snap.wakes <= snap.parks + 1,
            "{} effective wakes for {} parks",
            snap.wakes,
            snap.parks
        );
        assert_eq!(queue.waiters(), 0);
    }

    #[test]
    fn pause_until_sleeps_out_its_round_where_no_wake_reaches() {
        // A round with nothing to wait for: under `Block` one park that no
        // release or broadcast can claim, however many land meanwhile, and
        // that ends at its deadline, not earlier; the spinning policies
        // back off to the deadline and never park.
        fn round(policy: WaitPolicyKind) -> crate::stats::LockStatSnapshot {
            let name = policy.name();
            let (queue, stats) = counted(policy);
            let stop = Arc::new(AtomicBool::new(false));
            let hammer = {
                let (queue, stop) = (Arc::clone(&queue), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        queue.wake_all();
                        queue.wake_key(KEY_ANY);
                    }
                })
            };
            sleep_until(|| queue.generation() != 0);
            let deadline = Instant::now() + Duration::from_millis(20);
            queue.pause_until(deadline);
            assert!(Instant::now() >= deadline, "{name} left its round early");
            stop.store(true, Ordering::Relaxed);
            hammer.join().unwrap();
            assert_eq!(queue.waiters(), 0, "{name} left an entry behind");
            stats.snapshot()
        }
        let block = round(Block);
        assert_eq!(
            (block.parks, block.wakes, block.spurious_wakeups),
            (1, 0, 0)
        );
        for snap in [round(Spin), round(SpinThenYield)] {
            assert_eq!((snap.parks, snap.wakes), (0, 0));
        }
        // A round whose deadline has passed returns at once, uncounted.
        let (queue, stats) = counted_queue();
        queue.pause_until(Instant::now());
        assert_eq!(stats.snapshot().parks, 0);
    }

    #[test]
    fn park_counters_mirror_into_stats() {
        // Every park, effective wake and spurious wakeup lands in the
        // attached stats exactly once: park, a herding wake (one spurious
        // wakeup), re-park, then the wake that satisfies the predicate.
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = spawn_parker(&queue, KEY_ANY, &flag, None);
        sleep_until(|| stats.snapshot().parks == 1);
        queue.wake_all();
        sleep_until(|| stats.snapshot().parks == 2);
        flag.store(true, Ordering::Release);
        queue.wake_all();
        assert!(waiter.join().unwrap());
        let snap = stats.snapshot();
        assert_eq!((snap.parks, snap.wakes, snap.spurious_wakeups), (2, 2, 1));
    }

    #[test]
    fn kinds_keep_their_report_names() {
        let names = WaitPolicyKind::ALL.map(WaitPolicyKind::name);
        assert_eq!(names, ["spin", "spin-yield", "block"]);
        // The harness's type-level spellings name the same values.
        assert_eq!(super::SpinThenYield::KIND, SpinThenYield);
        assert_eq!(super::Block::KIND, Block);
    }

    #[test]
    fn queue_debug_lists_counters() {
        let queue = WaitQueue::new(Block);
        let s = format!("{queue:?}");
        assert!(s.contains("waiters"));
        assert!(s.contains("generation"));
        assert!(s.contains("block"));
    }

    /// Waker that counts deliveries, for driving the registration protocol
    /// by hand.
    struct CountingWaker(AtomicU64);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, Waker) {
        let count = Arc::new(CountingWaker(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    #[test]
    fn registered_waker_is_woken_by_repeated_wakes() {
        for _ in 0..2 {
            let (queue, stats) = counted_queue();
            let (count, waker) = counting_waker();
            let slot = queue.alloc_waker_slot();
            let gen = queue.generation();
            assert!(queue.register_waker(KEY_ANY, slot, gen, &waker));
            assert_eq!(stats.snapshot().waker_registrations, 1);
            queue.wake_all();
            assert_eq!(count.0.load(Ordering::SeqCst), 1);
            // The wake claimed the registration: waking again is a no-op.
            queue.wake_all();
            assert_eq!(count.0.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn stale_generation_registration_is_refused() {
        let (queue, stats) = counted_queue();
        let (count, waker) = counting_waker();
        let slot = queue.alloc_waker_slot();
        let gen = queue.generation();
        queue.wake_all(); // a wake slips in between snapshot and register
        assert!(!queue.register_waker(KEY_ANY, slot, gen, &waker));
        // The refused registration left nothing behind.
        assert_eq!(queue.waiters(), 0);
        queue.wake_all();
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        assert_eq!(stats.snapshot().waker_registrations, 0);
    }

    #[test]
    fn keyed_waker_is_woken_only_by_its_key_or_broadcast() {
        let (queue, stats) = counted_queue();
        let (count, waker) = counting_waker();
        let slot = queue.alloc_waker_slot();
        assert!(queue.register_waker(0x40, slot, queue.generation(), &waker));
        assert_eq!(stats.snapshot().waker_registrations, 1);
        // Wakes for a different key, or for the any-key population alone,
        // leave the keyed waker registered.
        queue.wake_key(0x80);
        queue.wake_key(KEY_ANY);
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        assert_eq!(queue.waiters(), 1);
        // Its own key wakes (and claims) it.
        queue.wake_key(0x40);
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        assert_eq!(queue.waiters(), 0);
        // Re-register, then a broadcast claims it too.
        let (count2, waker2) = counting_waker();
        assert!(queue.register_waker(0x40, slot, queue.generation(), &waker2));
        queue.wake_all();
        assert_eq!(count2.0.load(Ordering::SeqCst), 1);
        assert_eq!(queue.waiters(), 0);
    }

    #[test]
    fn stale_keyed_registration_is_refused_and_migration_rehomes_slots() {
        let queue = WaitQueue::new(Block);
        let (count, waker) = counting_waker();
        let slot = queue.alloc_waker_slot();
        let gen = queue.generation();
        queue.wake_key(0x80); // unrelated key, but every wake bumps the generation
        assert!(!queue.register_waker(0x40, slot, gen, &waker));
        assert_eq!(queue.waiters(), 0);
        // Migration: register under one conflict, move to another (as a
        // future does when re-polling finds a different blocker).
        assert!(queue.register_waker(0x40, slot, queue.generation(), &waker));
        queue.deregister_waker(0x40, slot);
        assert!(queue.register_waker(0x80, slot, queue.generation(), &waker));
        queue.wake_key(0x40);
        assert_eq!(count.0.load(Ordering::SeqCst), 0, "old key must be empty");
        queue.wake_key(0x80);
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn waker_slot_allocates_lazily_migrates_and_withdraws_on_drop() {
        let queue = WaitQueue::new(Block);
        let first_id = WaitQueue::new(Block).alloc_waker_slot();
        let (count, waker) = counting_waker();
        // Never registered: no slot id was taken, nothing to withdraw.
        drop(WakerSlot::new(&queue));
        let mut slot = WakerSlot::new(&queue);
        slot.clear();
        assert_eq!(queue.alloc_waker_slot(), first_id);
        // A stale snapshot is refused and leaves nothing filed.
        let gen = queue.generation();
        queue.wake_all();
        assert!(!slot.register(0x40, gen, &waker));
        assert_eq!(queue.waiters(), 0);
        // Filed under one conflict, then re-homed under another: one entry,
        // one slot id, and the old key no longer reaches it.
        assert!(slot.register(0x40, queue.generation(), &waker));
        assert!(slot.register(0x80, queue.generation(), &waker));
        assert_eq!(queue.waiters(), 1);
        assert_eq!(queue.alloc_waker_slot(), first_id + 2);
        queue.wake_key(0x40);
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        queue.wake_key(0x80);
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        // Re-armed after the wake claimed it; dropping the slot withdraws it.
        assert!(slot.register(0x80, queue.generation(), &waker));
        drop(slot);
        assert_eq!(queue.waiters(), 0);
        queue.wake_all();
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn step_ready_on_its_first_poll_allocates_no_slot() {
        let queue = WaitQueue::new(Block);
        let first_id = WaitQueue::new(Block).alloc_waker_slot();
        let (_, waker) = counting_waker();
        let mut slot = WakerSlot::new(&queue);
        let mut polls = 0;
        let step = slot.step(&waker, || {
            polls += 1;
            Ok::<_, u64>(7)
        });
        assert_eq!((step, polls), (Poll::Ready(7), 1));
        assert_eq!(queue.alloc_waker_slot(), first_id);
        assert_eq!(queue.waiters(), 0);
    }

    #[test]
    fn step_repolls_when_a_wake_lands_between_snapshot_and_registration() {
        let queue = WaitQueue::new(Block);
        let (count, waker) = counting_waker();
        let mut slot = WakerSlot::new(&queue);
        let mut polls = 0;
        // The first poll names its conflict, and that conflict's release
        // lands before the step registers: the registration is refused and
        // the step must poll again rather than suspend on a spent wake.
        let step = slot.step(&waker, || {
            polls += 1;
            if polls == 1 {
                queue.wake_key(0x40);
            }
            Err::<(), _>(0x40)
        });
        assert!(step.is_pending());
        assert_eq!(polls, 2, "a refused registration re-polls");
        assert_eq!(queue.waiters(), 1, "the second round's registration");
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        // Ready on the next step: the registration goes with the wait.
        assert_eq!(slot.step(&waker, || Ok::<_, u64>(())), Poll::Ready(()));
        assert_eq!(queue.waiters(), 0);
    }

    #[test]
    fn dropping_a_suspended_step_deregisters_before_the_operation_cancels() {
        use std::future::Future;
        use std::task::Context;

        /// A never-ready operation whose `Drop` is its cancel: by then the
        /// waker it was suspended under must already be gone.
        struct Op<'q> {
            queue: &'q WaitQueue,
            cancelled: &'q AtomicBool,
        }
        impl Drop for Op<'_> {
            fn drop(&mut self) {
                assert_eq!(self.queue.waiters(), 0, "waker outlived the step");
                self.cancelled.store(true, Ordering::SeqCst);
            }
        }
        /// The shape of a suspending driver: the operation comes in by
        /// value, the slot is a local of the future.
        async fn drive(queue: &WaitQueue, _op: Op<'_>) {
            let mut slot = WakerSlot::new(queue);
            std::future::poll_fn(|cx| slot.step(cx.waker(), || Err::<(), _>(0x40))).await
        }

        let queue = WaitQueue::new(Block);
        let cancelled = AtomicBool::new(false);
        let (_, waker) = counting_waker();
        let op = Op {
            queue: &queue,
            cancelled: &cancelled,
        };
        let mut fut = Box::pin(drive(&queue, op));
        assert!(fut
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        assert_eq!(queue.waiters(), 1);
        drop(fut);
        assert!(cancelled.load(Ordering::SeqCst));
    }

    #[test]
    fn reregistration_replaces_and_deregistration_removes() {
        let (queue, stats) = counted_queue();
        let (count_a, waker_a) = counting_waker();
        let (count_b, waker_b) = counting_waker();
        let slot = queue.alloc_waker_slot();
        assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker_a));
        // Re-registering the same slot replaces the waker (one slot, one
        // pending acquisition).
        assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker_b));
        assert_eq!(queue.waiters(), 1);
        queue.deregister_waker(KEY_ANY, slot);
        queue.wake_all();
        assert_eq!(count_a.0.load(Ordering::SeqCst), 0);
        assert_eq!(count_b.0.load(Ordering::SeqCst), 0);

        queue.record_cancel();
        assert_eq!(stats.snapshot().cancels, 1);
    }

    #[test]
    fn deadlock_and_rollback_counters_mirror_into_stats() {
        let (queue, stats) = counted_queue();
        queue.record_deadlock();
        queue.record_batch_rollback();
        queue.record_batch_rollback();
        let snap = stats.snapshot();
        assert_eq!(snap.deadlocks_detected, 1);
        assert_eq!(snap.batch_rollbacks, 2);
    }

    #[test]
    fn deadline_park_times_out_and_reports_late_success() {
        let (queue, stats) = counted_queue();
        let soon = || Some(Instant::now() + Duration::from_millis(10));
        for key in [KEY_ANY, 0x40] {
            // Condition never satisfied: the deadline must fire, leaving no
            // residue in the table.
            assert!(!queue.park(key, || false, soon()));
            assert_eq!(queue.waiters(), 0);
            // Condition already satisfied: immediate success, no park.
            let parks = stats.snapshot().parks;
            assert!(queue.park(key, || true, soon()));
            assert_eq!(stats.snapshot().parks, parks);
            assert_eq!(queue.waiters(), 0);
        }
    }

    #[test]
    fn deadline_park_is_woken_before_the_deadline() {
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let deadline = Instant::now() + Duration::from_secs(60);
        let waiter = spawn_parker(&queue, KEY_ANY, &flag, Some(deadline));
        sleep_until(|| stats.snapshot().parks != 0);
        flag.store(true, Ordering::Release);
        queue.wake_all();
        // Must return well before the 60s deadline, reporting success.
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn keyed_deadline_park_is_woken_by_its_key() {
        let (queue, stats) = counted_queue();
        let flag = Arc::new(AtomicBool::new(false));
        let deadline = Instant::now() + Duration::from_secs(60);
        let waiter = spawn_parker(&queue, 0x40, &flag, Some(deadline));
        sleep_until(|| stats.snapshot().parks != 0);
        flag.store(true, Ordering::Release);
        queue.wake_key(0x40);
        assert!(waiter.join().unwrap());
        assert_eq!(queue.waiters(), 0);
    }

    #[test]
    fn every_policy_honors_wait_until_deadline() {
        for policy in WaitPolicyKind::ALL {
            let queue = WaitQueue::new(policy);
            for key in [KEY_ANY, 0x40] {
                let deadline = Some(Instant::now() + Duration::from_millis(5));
                assert!(!queue.wait(key, || false, deadline));
                assert!(queue.wait(key, || true, deadline));
                assert_eq!(queue.waiters(), 0);
            }
        }
    }
}
