//! Baseline range-lock implementations the paper compares against.
//!
//! The EuroSys 2020 evaluation (Section 7.1) pits the new list-based range
//! locks against three existing designs, all of which are implemented from
//! scratch in this crate:
//!
//! * [`TreeRangeLock`] (`lustre-ex`) — the exclusive tree-based range lock
//!   originally from the Lustre file system and Jan Kara's kernel patch: a
//!   balanced range tree protected by a spin lock, with per-waiter
//!   blocking-range counts;
//! * [`RwTreeRangeLock`] (`kernel-rw`) — Davidlohr Bueso's reader-writer
//!   extension of the same design (both are aliases of one [`TreeLock`],
//!   generic over the list lock's `CompatMode`);
//! * [`SegmentRangeLock`] (`pnova-rw`) — the pNOVA design of Kim et al.: the
//!   resource is statically split into segments, each guarded by its own
//!   reader-writer lock.
//!
//! The supporting [`range_tree`] module contains the augmented balanced
//! interval tree used by the tree-based locks (the kernel's "range tree").
//! All locks implement [`range_lock::RwRangeLock`] and
//! [`range_lock::TwoPhaseRwRangeLock`] (the exclusive tree lock with both
//! modes exclusive) so they can be swapped freely in the VM simulator, the
//! skip list and the benchmark harness; the [`registry`]
//! module additionally enumerates all five paper variants (these three
//! baselines plus `list-ex` / `list-rw`) by name for runtime, dynamic-dispatch
//! selection.

#![deny(missing_docs)]

pub mod range_tree;
pub mod registry;
pub mod segment_lock;
pub mod sem_lock;
pub mod tree_lock;

pub use range_tree::{Interval, RangeTree};
pub use registry::{RegistryConfig, VariantSpec};
pub use segment_lock::{SegmentRangeLock, SegmentReadGuard, SegmentWriteGuard};
pub use sem_lock::WholeSpaceSem;
pub use tree_lock::{RwTreeRangeLock, TreeGuard, TreeLock, TreeRangeLock};
