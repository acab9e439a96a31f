//! # Benchmark harness reproducing the paper's evaluation
//!
//! One module per experiment family (the lock-variant axis of every sweep
//! comes from the dynamic registry in `rl_baselines::registry`, driven
//! through the object-safe `DynRwRangeLock` interface):
//!
//! * [`arrbench`] — the ArrBench array microbenchmark (Figure 3, all six
//!   panels);
//! * [`asyncbench`] — M lock owners ≫ N threads: async (waker-driven) task
//!   acquisition on an `rl-exec` pool vs thread-per-owner block/spin-yield
//!   baselines, under oversubscription;
//! * [`skipbench`] — the Synchrobench-style skip-list benchmark (Figure 4);
//! * [`metisbench`] — the Metis workloads on the simulated VM subsystem
//!   (Figures 5–8, plus the speculation-success statistics quoted in the
//!   text of Section 7.2);
//! * [`filebench`] — the byte-range-locked file workload over `rl-file`
//!   (the paper's "and beyond": reader/writer mixes, uniform and skewed
//!   offsets, per-operation wait accounting, built-in integrity checking);
//! * [`batchbench`] — atomic multi-range acquisition (`lock_many`) vs
//!   hand-rolled sequential ascending-order locking on the deadlock-checked
//!   lock table;
//! * [`obsbench`] — overhead of the `rl-obs` observability layer on the
//!   uncontended fast path (recorder absent / disabled / sampled / full);
//! * [`parkbench`] — keyed wakes vs the broadcast on the one parking table:
//!   spurious wakeups per release (O(parked waiters) vs ~0), wake-to-run
//!   latency, and a disjoint-pair lock storm under the `Block` policy;
//! * [`serverbench`] — the `rl-server` range-lock/file service under
//!   client saturation: N blocking clients × session tasks on a small
//!   pool, lock → I/O → unlock triples over the in-process transport plus
//!   a loopback-TCP spot check;
//! * [`perfdiff`] — the regression gate: parses the committed
//!   `BENCH_*.json` baselines and compares a fresh quick run cell-by-cell,
//!   direction-aware (throughput down, p50/p99 latency up);
//! * [`report`] — table rendering shared by the `repro` binary.
//!
//! The `repro` binary drives full thread sweeps and prints one table per
//! figure; the Criterion benches under `benches/` time representative single
//! configurations so `cargo bench` stays fast.

#![warn(missing_docs)]

pub mod arrbench;
pub mod asyncbench;
pub mod batchbench;
pub mod filebench;
pub mod metisbench;
pub mod obsbench;
pub mod parkbench;
pub mod perfdiff;
pub mod report;
pub mod rng;
pub mod serverbench;
pub mod skipbench;

pub use arrbench::{ArrBenchConfig, ArrBenchResult, RangePolicy};
pub use asyncbench::{AsyncBenchConfig, AsyncBenchResult, AsyncDriver};
pub use batchbench::{BatchBenchConfig, BatchBenchResult, BatchDriver};
pub use filebench::{FileBenchConfig, FileBenchResult, OffsetDist};
pub use metisbench::{figure5, figure6, measure, MetisMeasurement, MetisScale};
pub use obsbench::ObsBenchResult;
pub use parkbench::{PairStormResult, ParkBenchResult, ParkMode};
pub use perfdiff::{DiffReport, ParsedTable, Regression};
pub use report::{Table, TableRow};
pub use serverbench::{ServerBenchConfig, ServerBenchResult};
pub use skipbench::{SkipBenchConfig, SkipBenchResult, SkipListVariant};
