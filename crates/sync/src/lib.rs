//! Synchronization substrate for the range-lock reproduction.
//!
//! This crate collects the low-level synchronization primitives that the rest
//! of the workspace builds on:
//!
//! * [`SpinLock`] — a test-and-test-and-set spin lock with exponential
//!   backoff. It plays the role of the spin lock that protects the range tree
//!   in the kernel's range-lock implementation (the `lustre-ex` / `kernel-rw`
//!   baselines), and of the per-node locks of the optimistic skip list.
//! * [`RwSemaphore`] — a blocking, writer-preference reader-writer semaphore
//!   with a spin-then-park slow path, taken in a [`LockMode`]. It approximates the Linux kernel's
//!   `mmap_sem` (`rw_semaphore` with optimistic spinning) and is used as the
//!   *stock* synchronization strategy of the VM simulator.
//! * [`SeqCount`] — a sequence counter used by the speculative `mprotect`
//!   validation of Section 5.2 of the paper.
//! * [`Backoff`] and [`pause`] — polite busy-waiting, the `Pause()` of the
//!   paper's pseudo-code.
//! * [`wait`] — the futex-analogue [`WaitQueue`] every lock in the
//!   workspace waits on, through the [`WaitPolicyKind`] it carries (spin,
//!   spin-then-yield, or park until a release wakes it).
//! * [`parking`] — the sharded, address-keyed parking table every
//!   [`WaitQueue`] wait goes through: waiters park under the address of the
//!   conflict that blocks them, and releases wake only the matching keys
//!   instead of broadcasting to the whole queue.
//! * [`stats`] — per-lock wait-time accounting, the user-space analogue of
//!   the kernel's `lock_stat` facility used to produce Figures 7 and 8, now
//!   including park/wake counters that attribute waiting to blocked vs spun
//!   time.
//!
//! All primitives are dependency-free (only `std` plus `crossbeam-utils` for
//! cache padding) and are written so that their fast paths are a handful of
//! atomic operations.

#![warn(missing_docs)]

pub mod backoff;
pub mod padded;
pub mod parking;
pub mod rwsem;
pub mod seqcount;
pub mod spinlock;
pub mod stats;
pub mod wait;

pub use backoff::{pause, spin_loop_hint, Backoff};
pub use padded::CachePadded;
pub use parking::{ShardTable, ThreadParker, KEY_ANY};
pub use rwsem::{LockMode, RwSemGuard, RwSemaphore};
pub use seqcount::SeqCount;
pub use spinlock::{SpinLock, SpinLockGuard};
pub use stats::{LabeledStats, LockStatSnapshot, WaitKind, WaitStats};
pub use wait::{WaitPolicyKind, WaitQueue, WakerSlot};
