//! The blocking range-lock interface.
//!
//! Every range-lock implementation in this workspace — the paper's list-based
//! locks in this crate and the tree / segment / semaphore baselines in
//! `rl-baselines` — implements [`RwRangeLock`], so that the file store, the
//! skip list and the benchmark harness can be written once and parameterized
//! over the lock. It is the base of the workspace's one lock-trait family:
//! [`crate::TwoPhaseRwRangeLock`] extends it with the cancellable
//! enqueue / poll / cancel protocol (and, written once on top of it, timed
//! and async acquisition), and [`crate::DynRwRangeLock`] is the object-safe
//! mirror of both for callers that choose the variant at runtime.
//!
//! There is no separate exclusive-only trait, nor an exclusive-only type: the
//! exclusive locks ([`crate::ListRangeLock`], `rl_baselines::TreeRangeLock`)
//! are the [`Exclusive`](crate::Exclusive) instantiations of the generic list
//! and tree locks, implement this trait with every acquisition exclusive, and
//! say so through [`RwRangeLock::readers_share`].
//!
//! # `try_` semantics (normative)
//!
//! The bounded acquisition methods ([`RwRangeLock::try_read`],
//! [`RwRangeLock::try_write`], and the locks' inherent methods of the same
//! names) share one contract, specified here once for every implementation
//! in the workspace:
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

use crate::range::Range;

/// A reader-writer range lock: overlapping *reader* ranges may be held
/// concurrently; a writer range excludes every overlapping reader or writer.
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
    /// RAII guard for a shared (reader) acquisition.
    type ReadGuard<'a>
    where
        Self: 'a;
    /// RAII guard for an exclusive (writer) acquisition.
    type WriteGuard<'a>
    where
        Self: 'a;

    /// Acquires `range` in shared mode.
    fn read(&self, range: Range) -> Self::ReadGuard<'_>;

    /// Acquires `range` in exclusive mode.
    fn write(&self, range: Range) -> Self::WriteGuard<'_>;

    /// Acquires the entire resource (the `[0 .. 2^64-1]` full-range call of
    /// the kernel API) in shared mode.
    fn read_full(&self) -> Self::ReadGuard<'_> {
        self.read(Range::FULL)
    }

    /// Acquires the entire resource in exclusive mode.
    fn write_full(&self) -> Self::WriteGuard<'_> {
        self.write(Range::FULL)
    }

    /// Attempts to acquire `range` in shared mode without waiting.
    ///
    /// Returns `None` if a conflicting (writer) range is held; see the
    /// [module-level `try_` contract](self#try_-semantics-normative) for the
    /// spurious-failure and no-residue guarantees. Required, with no
    /// always-`None` default: the try-based two-phase adapter polls with it,
    /// so a lock that never succeeds here would hang every timed and async
    /// acquisition instead of failing to compile.
    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>>;

    /// Attempts to acquire `range` in exclusive mode without waiting.
    ///
    /// Returns `None` if any overlapping range is held; see the
    /// [module-level `try_` contract](self#try_-semantics-normative) for the
    /// spurious-failure and no-residue guarantees. Required, like
    /// [`RwRangeLock::try_read`].
    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>>;

    /// Atomically downgrades a held write guard to a read guard without
    /// releasing the range.
    ///
    /// `Ok(read_guard)` means the range stayed continuously held — no other
    /// writer can have slipped in — and is now shared, with blocked
    /// overlapping readers woken. `Err(write_guard)` returns the guard
    /// unchanged and means this lock has no atomic downgrade; the caller may
    /// fall back to dropping and re-acquiring in shared mode (accepting the
    /// window that opens). The default implementation declines.
    fn downgrade<'a>(
        &'a self,
        guard: Self::WriteGuard<'a>,
    ) -> Result<Self::ReadGuard<'a>, Self::WriteGuard<'a>> {
        Err(guard)
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
        let w = lock.write(Range::new(0, 10));
        let r = lock
            .downgrade(w)
            .expect("exclusive downgrade is the identity");
        assert!(lock.try_read(Range::new(0, 10)).is_none());
        drop(r);
        assert!(lock.is_quiescent());
    }
}
