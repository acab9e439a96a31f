//! # Scalable list-based range locks
//!
//! This crate is a faithful, production-oriented Rust implementation of the
//! range locks introduced in *"Scalable Range Locks for Scalable Address
//! Spaces and Beyond"* (Kogan, Dice, Issa — EuroSys 2020). A range lock
//! mediates access to a shared resource (a file, an address space, an array,
//! a key space…) at the granularity of address ranges: threads locking
//! disjoint ranges proceed in parallel, threads locking overlapping ranges
//! serialize.
//!
//! Unlike the kernel's tree-based range lock — a red-black range tree guarded
//! by one spin lock that every acquisition and release must take — the locks
//! in this crate keep acquired ranges in a **sorted linked list** that is
//! maintained without any internal lock in the common case:
//!
//! * acquiring a range inserts a node with one CAS on the predecessor's
//!   `next` pointer; overlapping ranges compete for the same insertion point,
//!   which is the entire mutual-exclusion argument;
//! * releasing a range is a single wait-free fetch-and-add that marks the
//!   node as logically deleted; marked nodes are unlinked by later traversals;
//! * an empty-list **fast path** acquires and releases the lock in a constant
//!   number of steps (Section 4.5);
//! * an optional **fairness gate** (impatient counter + auxiliary
//!   reader-writer lock) bounds starvation (Section 4.3);
//! * node memory is recycled through **epoch-based reclamation with
//!   per-thread pools** (Section 4.4), so the system allocator is not on the
//!   acquisition path in steady state;
//! * waiting follows a **wait policy** (`rl_sync::wait`), a value the
//!   lock's [`ListLockConfig::wait`] names and its wait queue carries:
//!   `Spin`, `SpinThenYield` (default — the paper's `Pause()` loop) or
//!   `Block` (park on a futex-analogue queue, woken by the release paths —
//!   the behaviour of the kernel locks the paper replaces). The empty-list
//!   fast path is the same atomic sequence under every policy.
//!
//! One lock type implements the list protocol once: [`ListLock`], generic
//! over a compile-time [`CompatMode`]. An acquisition
//! returns the node as a [`Held`] token and [`ListLock::release`] marks it
//! with one FAA, as in the paper; the RAII [`RangeGuard`] around the token is
//! the workspace's one guard type. Two aliases name the paper's variants:
//!
//! * [`ListRangeLock`] — `ListLock<Exclusive, _>`, the exclusive-access
//!   variant (Listing 1);
//! * [`RwListRangeLock`] — `ListLock<ReaderWriter, _>`, the reader-writer
//!   variant (Listings 2–3), in which overlapping reader ranges share and
//!   writers exclude; a held writer downgrades atomically in place
//!   ([`RangeGuard::downgrade`]).
//!
//! # Quick start
//!
//! ```
//! use range_lock::{Range, RwListRangeLock};
//! use std::sync::Arc;
//!
//! let lock = Arc::new(RwListRangeLock::new());
//!
//! // Writers to disjoint halves of a resource proceed in parallel.
//! let lo = lock.write(Range::new(0, 512));
//! let hi = lock.write(Range::new(512, 1024));
//! drop(lo);
//! drop(hi);
//!
//! // Readers share overlapping ranges.
//! let r1 = lock.read(Range::new(0, 1024));
//! let r2 = lock.read(Range::new(256, 768));
//! drop(r1);
//! drop(r2);
//! ```
//!
//! # One lock-trait family
//!
//! The paper's primitive has two operations — acquire a range in a
//! [`LockMode`], release it — and two traits describe it for every lock in
//! the workspace (this crate's and the baselines in `rl-baselines`), over two
//! concrete tokens, [`Held`] and [`Pending`]:
//!
//! * [`RwRangeLock`] — blocking and `try_` acquisition returning a `Held`,
//!   its release and its in-place downgrade. The RAII surface (`read`,
//!   `write`, `try_read`, …) is provided on top, returning a [`RangeGuard`].
//!   The exclusive locks implement it too, with both modes exclusive and
//!   [`RwRangeLock::readers_share`] `false`.
//! * [`TwoPhaseRwRangeLock`] — the cancellable enqueue / poll / cancel
//!   protocol over one `Pending` token. Timed (`read_timeout`) and async
//!   (`read_async`) acquisition are provided methods written once on top of
//!   it, both driving one [`Acquire`] value that resolves to a `RangeGuard`.
//!   Batched all-or-nothing acquisition is the `rl-file` lock table's
//!   `lock_many`, a consumer of the same protocol.
//!
//! Neither trait names a per-lock type, so both are object-safe: `dyn
//! TwoPhaseRwRangeLock` is the lock chosen at *runtime*, and a
//! `Box<dyn TwoPhaseRwRangeLock>` implements the two traits itself, so a
//! boxed lock drives every generic subsystem (see [`dynlock`]; the variant
//! registry in `rl-baselines` enumerates every paper variant by name on top
//! of it).

#![deny(missing_docs)]

pub mod dynlock;
pub mod fairness;
pub mod list_core;
pub mod node;
pub mod range;
pub mod reclaim;
pub mod traits;
pub mod twophase;
pub mod waits_for;

// The list lock's per-mode unit tests. They keep the module paths of the
// two façade modules the lock replaced, so their test ids did not change.
#[cfg(test)]
#[path = "list_core/ex_tests.rs"]
mod mutex_list;
#[cfg(test)]
#[path = "list_core/rw_tests.rs"]
mod rw_list;

pub use dynlock::DynRwRangeLock;
pub use fairness::{FairnessGate, FairnessPermit};
pub use list_core::{
    CompatMode, Exclusive, ListLock, ListLockConfig, ListRangeLock, Pending, ReaderWriter,
    RwListRangeLock,
};
pub use range::Range;
pub use traits::{Held, LockId, LockMode, RangeGuard, RwRangeLock};
pub use twophase::{Acquire, TwoPhaseRwRangeLock};
pub use waits_for::{Deadlock, WaitGraph};
