//! The declared metrics: what `BENCHMARK.json` lists, what the result lines
//! carry, and what `compare` holds changes to.

use crate::trial::TrialOutput;

/// An end-to-end metric: what a user of the stack would see. The same set
/// is reported on every workload; time-based ones are calibrated.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
    pub read: fn(&TrialOutput) -> f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.10,
        read: |t| t.summary.ops_per_s,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
        read: |t| t.summary.op_p50_us,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
        read: |t| t.summary.cpu_us_per_op,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
        read: |t| t.peak_rss_mb,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        read: |t| t.setup_s,
    },
];

/// A per-layer metric: `(name, unit, better, what it should move)`. They
/// carry no bound; each names the end-to-end number it explains.
pub const PER_LAYER: [(&str, &str, &str, &str); 59] = [
    (
        "harness.raw_ops_per_s",
        "ops/s",
        "higher",
        "uncalibrated ops_per_s: against ops_per_s it shows what calibration removed",
    ),
    (
        "harness.cal_rate_mps",
        "M/s",
        "higher",
        "calibrator rate: the host's speed during the run",
    ),
    (
        "harness.cal_cv",
        "ratio",
        "lower",
        "calibrator spread across periods: a noisy host is visible, not silently absorbed",
    ),
    (
        "harness.trial_cv",
        "ratio",
        "lower",
        "largest cv across trials of ops_per_s, op_p50_us, cpu_us_per_op: must stay <= 0.06",
    ),
    (
        "harness.op_p99_us",
        "us",
        "lower",
        "tail of the op; end-to-end grade only on core-crowd, table-mix, srv-handoff",
    ),
    (
        "harness.op_p90_us",
        "us",
        "lower",
        "the tail vm-metis' sample supports",
    ),
    (
        "harness.trace_overhead_ratio",
        "ratio",
        "lower",
        "share of ops_per_s the span recorder costs",
    ),
    (
        "harness.spans_dropped",
        "count",
        "lower",
        "must be 0: the trace sampling keeps the buffer from overflowing",
    ),
    (
        "harness.opstream_hash",
        "count",
        "higher",
        "same seed, same value: the inputs were the same",
    ),
    (
        "harness.cpus_allowed",
        "count",
        "lower",
        "1 on srv-*: the pin held",
    ),
    (
        "harness.fail_ratio",
        "ratio",
        "lower",
        "failed / attempted; any increase is a regression",
    ),
    (
        "harness.load_threads",
        "count",
        "higher",
        "nproc on core-crowd, table-mix, vm-metis; 1 elsewhere",
    ),
    (
        "core.read_acq_ns",
        "ns",
        "lower",
        "ops_per_s/op_p50_us on core-solo ~1:1, a few % on core-crowd; not srv-*",
    ),
    ("core.write_acq_ns", "ns", "lower", "as core.read_acq_ns"),
    ("core.release_ns", "ns", "lower", "as core.read_acq_ns"),
    (
        "core.static_op_ns",
        "ns",
        "lower",
        "rung: core-solo's stream on the static lock, no shadow check",
    ),
    (
        "sync.wait_ratio",
        "ratio",
        "lower",
        "op_p99 and cpu_us_per_op on core-crowd; 0 on core-solo",
    ),
    ("sync.wait_ns_per_acq", "ns", "lower", "as sync.wait_ratio"),
    (
        "sync.parks_per_kop",
        "1/kop",
        "lower",
        "cpu_us_per_op on core-crowd",
    ),
    (
        "sync.wakes_per_kop",
        "1/kop",
        "lower",
        "as sync.parks_per_kop",
    ),
    (
        "sync.spurious_per_kop",
        "1/kop",
        "lower",
        "as sync.parks_per_kop",
    ),
    (
        "baselines.dyn_op_ns",
        "ns",
        "lower",
        "rung: the same stream through the registry's Box<dyn>",
    ),
    (
        "baselines.dyn_tax_ns",
        "ns",
        "lower",
        "dyn - static: op_p50_us on core-crowd, table-mix; not core-solo",
    ),
    (
        "file.lock_ns",
        "ns",
        "lower",
        "ops_per_s/op_p50_us on table-mix",
    ),
    ("file.io_ns", "ns", "lower", "as file.lock_ns"),
    ("file.unlock_ns", "ns", "lower", "as file.lock_ns"),
    (
        "file.table_op_ns",
        "ns",
        "lower",
        "rung: LockOwner lock+unlock on srv-duplex's stream; a term of the srv ladders",
    ),
    (
        "file.store_io_ns",
        "ns",
        "lower",
        "rung: FileStore open + 256 B pread/pwrite; a term of the srv-duplex ladder",
    ),
    (
        "file.store_io_ns_4k",
        "ns",
        "lower",
        "rung: the same at 4 KiB; a term of the srv-tcp ladder",
    ),
    (
        "file.deadlocks_detected",
        "count",
        "lower",
        "must be 0 on table-mix: one range held at a time",
    ),
    (
        "file.held_records_end",
        "count",
        "lower",
        "must be 0: nothing leaks past the owners",
    ),
    (
        "exec.hop_ns",
        "ns",
        "lower",
        "rung: TaskPool::spawn to JoinHandle::join; op_p50_us on srv-duplex, srv-handoff",
    ),
    (
        "server.lock_rpc_ns",
        "ns",
        "lower",
        "op_p50_us on srv-duplex, srv-tcp",
    ),
    ("server.io_rpc_ns", "ns", "lower", "as server.lock_rpc_ns"),
    (
        "server.unlock_rpc_ns",
        "ns",
        "lower",
        "as server.lock_rpc_ns",
    ),
    (
        "server.grant_ns",
        "ns",
        "lower",
        "holder's Unlock sent to waiter's grant received: op_p50_us on srv-handoff",
    ),
    (
        "server.wire_codec_ns",
        "ns",
        "lower",
        "rung: encode+decode of the op's three requests and replies at 256 B",
    ),
    (
        "server.wire_codec_ns_4k",
        "ns",
        "lower",
        "rung: the same at 4 KiB",
    ),
    (
        "server.transport_rtt_ns",
        "ns",
        "lower",
        "rung: one Conn::pair round trip; three per srv-duplex op",
    ),
    (
        "server.tcp_rtt_ns",
        "ns",
        "lower",
        "rung: one Conn::tcp round trip; three per srv-tcp op",
    ),
    (
        "server.session_residual_ns",
        "ns",
        "lower",
        "op_p50 minus the rungs: what only in-program spans can split",
    ),
    (
        "server.session_residual_share",
        "ratio",
        "lower",
        "the residual as a share of op_p50_us",
    ),
    (
        "server.lock_wait_p50_ns",
        "ns",
        "lower",
        "the server's own view of a granted Lock",
    ),
    (
        "server.io_p50_ns",
        "ns",
        "lower",
        "the server's own view of a data-plane op",
    ),
    (
        "server.ops_total",
        "count",
        "higher",
        "must equal the RPCs the client issued",
    ),
    ("server.protocol_errors", "count", "lower", "must be 0"),
    ("server.deadlocks", "count", "lower", "must be 0"),
    (
        "server.disconnects",
        "count",
        "lower",
        "must be 0: every session said Bye",
    ),
    (
        "vm.fault_ns",
        "ns",
        "lower",
        "rung: vmacache-hit page_fault; ops_per_s/op_p50_us on vm-metis only",
    ),
    (
        "vm.mprotect_ns",
        "ns",
        "lower",
        "rung: speculative boundary-move mprotect",
    ),
    (
        "vm.mmap_munmap_ns",
        "ns",
        "lower",
        "rung: mmap + munmap of 16 pages",
    ),
    (
        "vm.faults_per_job",
        "count",
        "lower",
        "work per vm-metis job",
    ),
    (
        "vm.mprotects_per_job",
        "count",
        "lower",
        "as vm.faults_per_job",
    ),
    (
        "vm.spec_success_ratio",
        "ratio",
        "higher",
        "the paper's speculative-mprotect claim",
    ),
    (
        "vm.spec_retries_per_job",
        "count",
        "lower",
        "speculation wasted",
    ),
    (
        "vm.vmacache_hit_ratio",
        "ratio",
        "higher",
        "faults served without a lock",
    ),
    (
        "vm.lock_wait_ns_per_acq",
        "ns",
        "lower",
        "Figure 7's metric on the Mm lock",
    ),
    (
        "metis.run_ms",
        "ms",
        "lower",
        "one job as the harness sees it: op_p50_us on vm-metis",
    ),
    (
        "metis.words_per_s",
        "1/s",
        "higher",
        "ops_per_s on vm-metis in the paper's unit",
    ),
];
