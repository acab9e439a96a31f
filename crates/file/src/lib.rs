//! # `rl-file` — a byte-range-locked file subsystem
//!
//! The paper's title promises range locks "for scalable address spaces **and
//! beyond**"; its motivating prior work (Lustre's byte-range locks, pNOVA's
//! per-file reader-writer segments) comes from file systems. This crate is
//! that *beyond*: a small file subsystem whose entire concurrency story is
//! the registry's boxed range lock (tests box a static one), giving every
//! lock variant in the workspace a second arena besides the VM simulator.
//!
//! Two layers:
//!
//! * [`LockTable`] / [`LockOwner`] — a POSIX `fcntl`-style **advisory** lock
//!   table: named owners, shared/exclusive modes, `try_`/blocking
//!   acquisition, range split/merge and upgrade/downgrade on re-lock, and
//!   release-on-owner-drop, over a `Box<dyn TwoPhaseRwRangeLock>`;
//! * [`FileStore`] / [`RangeFile`] — a sharded, paged, in-memory file store
//!   whose `pread`/`pwrite`/`append`/`truncate` take the byte range they
//!   touch on the file's `Box<dyn RwRangeLock>`, with a built-in
//!   data-integrity checker (stamped reads/writes that detect any exclusion
//!   violation) and per-operation wait-time accounting through
//!   [`rl_sync::stats::LabeledStats`].
//!
//! The `filebench` sweep in `rl-bench` drives this crate across every lock
//! variant, thread count and reader/writer mix (`repro -- filebench`).

#![warn(missing_docs)]

pub mod lock_table;
pub mod store;

pub use lock_table::{DeadlockError, LockOwner, LockRecord, LockTable, WouldBlock};
pub use range_lock::LockMode;
pub use store::{FileStore, RangeFile, PAGE_SIZE};
