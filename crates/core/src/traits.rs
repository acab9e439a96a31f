//! The blocking range-lock interface, and the two concrete values it trades
//! in: a held range is a [`Held`] token, and a [`RangeGuard`] releases one on
//! drop.
//!
//! Every range-lock implementation in this workspace — the paper's list-based
//! locks in this crate and the tree / segment / semaphore baselines in
//! `rl-baselines` — implements [`RwRangeLock`], so that the file store, the
//! skip list and the benchmark harness can be written once and parameterized
//! over the lock. It is the base of the workspace's one lock-trait family:
//! [`crate::TwoPhaseRwRangeLock`] extends it with the cancellable
//! enqueue / poll / cancel protocol (and, written once on top of it, timed
//! and async acquisition). Both traits are object-safe: no method returns a
//! per-lock type, so `dyn TwoPhaseRwRangeLock` is the dynamic lock, and a
//! `RangeGuard` over it costs one vtable call per acquire and release.
//!
//! There is no separate exclusive-only trait, nor an exclusive-only type: the
//! exclusive locks ([`crate::ListRangeLock`], `rl_baselines::TreeRangeLock`)
//! are the [`Exclusive`](crate::Exclusive) instantiations of the generic list
//! and tree locks, implement this trait with every acquisition exclusive, and
//! say so through [`RwRangeLock::readers_share`].
//!
//! # `try_` semantics (normative)
//!
//! The bounded acquisition methods ([`RwRangeLock::try_acquire`] and the
//! provided `try_read` / `try_write` on top of it) share one contract,
//! specified here once for every implementation in the workspace:
//!
//! * **Never waits.** A `try_` call performs a bounded amount of work and
//!   returns; it never spins on, yields to, or parks behind another thread
//!   regardless of the lock's wait policy.
//! * **May fail spuriously.** `None` means "could not acquire *now*": either
//!   a genuinely conflicting range is held, or the attempt lost a race to a
//!   concurrent list/tree modification that a blocking acquisition would
//!   simply have retried. Callers must not interpret `None` as proof that a
//!   conflicting holder exists. In the *absence* of concurrent calls the
//!   answer is exact: `None` is returned iff a conflicting range is held.
//! * **Leaves no residue.** A failed attempt restores the lock to the state
//!   it would have had without the call: no node, tree entry, or segment
//!   hold remains (a transiently published node is logically deleted and any
//!   waiter that might have observed it is woken), no wait-statistics
//!   acquisition is recorded, and subsequent acquisitions — including the
//!   empty-list fast path once all holders release — behave as if the failed
//!   `try_` had never happened. The `try_semantics` integration suite
//!   asserts this for every registry variant.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::range::Range;

/// The two lock modes, shared by every lock in the workspace down to the
/// `rl-sync` semaphore.
pub use rl_sync::LockMode;

/// One range held in a lock: what `acquire` returns and only `release`
/// consumes — the concrete token of every lock in the workspace, as
/// [`Pending`](crate::Pending) is for a request still in flight.
///
/// It carries the range, the mode the lock grants (exclusive for a "read"
/// of an exclusive-only lock), one lock-specific word — the list node's
/// address, the tree entry's id — the §4.5 fast-path bit, and the
/// [`LockId`] of the lock that issued it. Usually it lives inside a
/// [`RangeGuard`]; code that stores held ranges without a borrow of the lock
/// (a lock table) keeps the bare token and hands it back itself. Dropping a
/// token without releasing it leaks the hold, as `mem::forget` of a guard
/// would.
///
/// **Forging or mismatching a token is a panic, never undefined behaviour.**
/// The fields are private, the type is neither `Clone` nor `Copy`, and every
/// lock reads the word only through [`LockId::verify`], which panics unless
/// its own id issued the token. So a word is only ever interpreted by the
/// lock that wrote it (the list lock dereferences it as a node), and a
/// token releases its hold at most once.
#[must_use = "the range stays held until the token is released"]
#[derive(Debug)]
pub struct Held {
    range: Range,
    word: u64,
    issuer: u64,
    mode: LockMode,
    /// Taken through the list lock's §4.5 empty-list fast path.
    pub(crate) fast: bool,
}

impl Held {
    /// The held range.
    pub fn range(&self) -> Range {
        self.range
    }

    /// The mode the range is held in: [`LockMode::Exclusive`] for every
    /// acquisition of a lock whose readers do not share.
    pub fn mode(&self) -> LockMode {
        self.mode
    }

    /// Returns `true` if the range is held in shared (reader) mode.
    pub fn is_reader(&self) -> bool {
        self.mode == LockMode::Shared
    }

    /// Records an in-place exclusive→shared downgrade.
    pub(crate) fn set_shared(&mut self) {
        self.mode = LockMode::Shared;
    }
}

/// The identity a lock stamps on every [`Held`] it issues and checks on
/// every one it is handed back. Unique per value, and neither `Clone` nor
/// `Copy`: a lock keeps its id private, so no other code can issue or
/// redeem its tokens.
#[derive(Debug)]
pub struct LockId(pub(crate) u64);

impl Default for LockId {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        LockId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl LockId {
    /// Issues the token of a hold on `range` in `mode`, with the lock's
    /// `word`.
    #[inline]
    pub fn issue(&self, range: Range, mode: LockMode, word: u64) -> Held {
        Held {
            range,
            word,
            issuer: self.0,
            mode,
            fast: false,
        }
    }

    /// The word of a token this lock issued.
    ///
    /// # Panics
    ///
    /// Panics if another lock issued `held`.
    #[inline]
    pub fn verify(&self, held: &Held) -> u64 {
        assert!(held.issuer == self.0, "a held range this lock never issued");
        held.word
    }
}

/// A reader-writer range lock: overlapping *reader* ranges may be held
/// concurrently; a writer range excludes every overlapping reader or writer.
///
/// A lock implements `acquire`, `try_acquire`, `release` and `name` over
/// [`Held`] tokens (and `downgrade` / `readers_share` where the defaults do
/// not fit); the RAII surface (`read`, `write`, their `try_` and `_full`
/// forms) is provided on top, for every lock at once, returning one guard
/// type, [`RangeGuard`].
///
/// An exclusive-only lock implements the same trait with `read` as exclusive
/// as `write` — the cost the paper's reader-writer variants exist to remove:
///
/// ```
/// use range_lock::{ListRangeLock, Range, RwRangeLock};
///
/// let lock = ListRangeLock::new();
/// assert!(!lock.readers_share());
/// let r = lock.read(Range::new(0, 10)); // really exclusive
/// assert!(lock.try_read(Range::new(5, 15)).is_none());
/// drop(r);
/// let _w = lock.write(Range::new(0, 10));
/// ```
pub trait RwRangeLock: Send + Sync {
    /// Acquires `range` in `mode`, waiting for conflicting holders.
    fn acquire(&self, range: Range, mode: LockMode) -> Held;

    /// Attempts to acquire `range` in `mode` without waiting; see the
    /// [module-level `try_` contract](self#try_-semantics-normative) for the
    /// spurious-failure and no-residue guarantees. Required, with no
    /// always-`None` default: the try-based two-phase adapter polls with it,
    /// so a lock that never succeeds here would hang every timed and async
    /// acquisition instead of failing to compile.
    fn try_acquire(&self, range: Range, mode: LockMode) -> Option<Held>;

    /// Releases a range this lock issued, waking whoever waits on it.
    ///
    /// # Panics
    ///
    /// Panics if another lock issued `held` (see [`LockId::verify`]).
    fn release(&self, held: Held);

    /// Atomically downgrades a held exclusive range to shared without
    /// releasing it.
    ///
    /// `true` means the range stayed continuously held — no other writer can
    /// have slipped in — and is now shared, with blocked overlapping readers
    /// woken (for a lock whose readers do not share, an exclusive hold
    /// already satisfies a shared one, and the token is unchanged). `false`
    /// leaves the token unchanged and means this lock has no atomic
    /// downgrade; the caller may fall back to releasing and re-acquiring in
    /// shared mode (accepting the window that opens). The default declines.
    fn downgrade(&self, _held: &mut Held) -> bool {
        false
    }

    /// Whether overlapping *shared* acquisitions of this lock can actually
    /// be held concurrently.
    ///
    /// `true` (the default) for genuine reader-writer locks. The
    /// exclusive-only variants (`list-ex`, `lustre-ex`) return `false`:
    /// there, two "readers" of overlapping ranges conflict even though their
    /// *modes* are compatible. Deadlock-detection layers must consult this
    /// when deriving waits-for edges, otherwise a reader blocked behind
    /// another reader looks unblockable and its cycle is invisible.
    fn readers_share(&self) -> bool {
        true
    }

    /// Short, stable identifier used by the benchmark harness
    /// (e.g. `"list-rw"`, `"list-ex"`, `"kernel-rw"`, `"pnova-rw"`).
    fn name(&self) -> &'static str;

    /// Acquires `range` in shared mode.
    fn read(&self, range: Range) -> RangeGuard<'_, Self>
    where
        Self: Sized,
    {
        RangeGuard::new(self, self.acquire(range, LockMode::Shared))
    }

    /// Acquires `range` in exclusive mode.
    fn write(&self, range: Range) -> RangeGuard<'_, Self>
    where
        Self: Sized,
    {
        RangeGuard::new(self, self.acquire(range, LockMode::Exclusive))
    }

    /// Acquires the entire resource (the `[0 .. 2^64-1]` full-range call of
    /// the kernel API) in shared mode.
    fn read_full(&self) -> RangeGuard<'_, Self>
    where
        Self: Sized,
    {
        self.read(Range::FULL)
    }

    /// Acquires the entire resource in exclusive mode.
    fn write_full(&self) -> RangeGuard<'_, Self>
    where
        Self: Sized,
    {
        self.write(Range::FULL)
    }

    /// Attempts to acquire `range` in shared mode without waiting.
    fn try_read(&self, range: Range) -> Option<RangeGuard<'_, Self>>
    where
        Self: Sized,
    {
        let held = self.try_acquire(range, LockMode::Shared)?;
        Some(RangeGuard::new(self, held))
    }

    /// Attempts to acquire `range` in exclusive mode without waiting.
    fn try_write(&self, range: Range) -> Option<RangeGuard<'_, Self>>
    where
        Self: Sized,
    {
        let held = self.try_acquire(range, LockMode::Exclusive)?;
        Some(RangeGuard::new(self, held))
    }
}

/// The RAII guard of every lock: a [`Held`] token and the lock it goes back
/// to, released on drop. `L` may be unsized, so `RangeGuard<'_, dyn
/// TwoPhaseRwRangeLock>` is the guard of a lock chosen at runtime.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct RangeGuard<'a, L: RwRangeLock + ?Sized> {
    lock: &'a L,
    held: ManuallyDrop<Held>,
}

impl<'a, L: RwRangeLock + ?Sized> RangeGuard<'a, L> {
    /// Wraps a token `lock` issued, to be released into it on drop.
    #[inline]
    pub fn new(lock: &'a L, held: Held) -> Self {
        RangeGuard {
            lock,
            held: ManuallyDrop::new(held),
        }
    }

    /// The range this guard protects.
    pub fn range(&self) -> Range {
        self.held.range
    }

    /// Returns `true` if this guard holds the range in shared (reader) mode.
    pub fn is_reader(&self) -> bool {
        self.held.is_reader()
    }

    /// Atomically downgrades the range to shared without releasing it; see
    /// [`RwRangeLock::downgrade`]. `false` leaves the guard unchanged.
    ///
    /// ```
    /// use range_lock::{Range, RwListRangeLock, RwRangeLock};
    ///
    /// let lock = RwListRangeLock::new();
    /// let mut w = lock.write(Range::new(0, 100));
    /// assert!(lock.try_read(Range::new(0, 100)).is_none());
    /// assert!(w.downgrade());
    /// assert!(w.is_reader());
    /// // Overlapping readers now share; writers are still excluded.
    /// assert!(lock.try_read(Range::new(50, 150)).is_some());
    /// assert!(lock.try_write(Range::new(50, 150)).is_none());
    /// ```
    pub fn downgrade(&mut self) -> bool {
        self.lock.downgrade(&mut self.held)
    }
}

impl<L: RwRangeLock + ?Sized> Drop for RangeGuard<'_, L> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: `held` is taken exactly once, here; the guard is gone after.
        let held = unsafe { ManuallyDrop::take(&mut self.held) };
        self.lock.release(held);
    }
}

impl<L: RwRangeLock + ?Sized> std::fmt::Debug for RangeGuard<'_, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeGuard")
            .field("lock", &self.lock.name())
            .field("held", &*self.held)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ListRangeLock;

    #[test]
    fn default_full_range_methods_delegate() {
        let lock = ListRangeLock::new();
        assert_eq!(lock.read_full().range(), Range::FULL);
        assert_eq!(lock.write_full().range(), Range::FULL);
    }

    #[test]
    fn exclusive_as_rw_serializes_readers() {
        // The exclusive list lock is its own reader-writer face: both modes
        // are exclusive underneath, so a second "reader" conflicts.
        let lock = ListRangeLock::new();
        assert_eq!(lock.name(), "list-ex");
        assert!(!lock.readers_share());
        let r = lock.read(Range::new(0, 10));
        assert!(lock.try_read(Range::new(5, 15)).is_none());
        assert!(lock.try_write(Range::new(5, 15)).is_none());
        drop(r);
        assert!(lock.try_read(Range::new(5, 15)).is_some());
        // A downgrade is the identity: the range stays (over-)protected.
        let mut w = lock.write(Range::new(0, 10));
        assert!(w.downgrade(), "exclusive downgrade is the identity");
        assert!(lock.try_read(Range::new(0, 10)).is_none());
        drop(w);
        assert!(lock.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "never issued")]
    fn another_locks_held_token_panics_on_release() {
        let (a, b) = (ListRangeLock::new(), ListRangeLock::new());
        let held = a.acquire(Range::new(0, 10), LockMode::Exclusive);
        b.release(held);
    }
}
