//! ServerBench — the range-lock/file service under client saturation.
//!
//! Everything below the wire is machinery the other benches already
//! measure in isolation; this one measures the *composition*: N blocking
//! clients, each a session task multiplexed onto a small `rl-exec` pool
//! inside [`rl_server::Server`], hammering slot-aligned lock → I/O →
//! unlock triples against one shared file. The registry axis sweeps the
//! same five paper locks as every other experiment, so the question the
//! tables answer is the paper's question one layer up: does the lock's
//! scalability survive being put behind a service boundary?
//!
//! Two transports: the in-process duplex pair (deterministic; the main
//! sweep) and a loopback-TCP spot check (same workload through real
//! sockets and one pump thread per server-side socket, to bound the
//! framing/syscall tax).
//!
//! The workload is deliberately deadlock-free — each client holds at most
//! one range at a time — so every configuration drains deterministically
//! and the numbers are pure contention/handoff, not EDEADLK retry noise.
//! Slots are segment-aligned so the `pnova-rw` variant sweeps through the
//! same driver unmodified.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use range_lock::Range;
use rl_baselines::registry::{RegistryConfig, VariantSpec};
use rl_file::LockMode;
use rl_obs::{HistogramSnapshot, LatencyHistogram};
use rl_server::{Client, Server, ServerConfig, StatsSnapshot};
use rl_sync::wait::WaitPolicyKind;

use crate::rng::{seed, xorshift};

/// Lockable slots in the shared file.
pub const SLOTS: u64 = 64;
/// Bytes per slot; equals the segment size of [`SERVER_REGISTRY_CONFIG`]
/// so slot ranges are segment-aligned for the `pnova-rw` variant.
pub const SLOT_BYTES: u64 = 4096;
/// Payload bytes written/read inside each locked slot.
const IO_BYTES: usize = 256;
/// The file every client operates on.
const BENCH_PATH: &str = "/bench/shared.dat";

/// Registry geometry for the server under test: span covers the slots
/// exactly, one segment per slot.
pub const SERVER_REGISTRY_CONFIG: RegistryConfig = RegistryConfig {
    span: SLOTS * SLOT_BYTES,
    segments: SLOTS as usize,
};

/// One ServerBench configuration point.
#[derive(Debug, Clone, Copy)]
pub struct ServerBenchConfig {
    /// Registry entry of the lock variant the server is built from.
    pub lock: &'static VariantSpec,
    /// Wait policy for the server's locks.
    pub wait: WaitPolicyKind,
    /// Concurrent client connections (each one session server-side).
    pub connections: usize,
    /// Worker threads in the server's session pool.
    pub workers: usize,
    /// Percentage of operations that are shared-mode reads (0–100).
    pub read_pct: u32,
    /// Lock → I/O → unlock triples each connection performs.
    pub ops_per_conn: u64,
    /// Run over loopback TCP instead of the in-process transport.
    pub tcp: bool,
}

/// Result of one ServerBench run.
#[derive(Debug, Clone)]
pub struct ServerBenchResult {
    /// Total completed operations (connections × ops each; one operation
    /// is a full lock → I/O → unlock triple, i.e. three RPCs).
    pub operations: u64,
    /// Wall-clock time to drain the whole backlog.
    pub elapsed: Duration,
    /// Client-observed latency distribution of full operation triples
    /// (nanoseconds, request sent to unlock acknowledged).
    pub op_hist: HistogramSnapshot,
    /// The server's own counters at shutdown.
    pub stats: StatsSnapshot,
}

impl ServerBenchResult {
    /// Throughput in operation triples per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64()
    }

    /// Median operation latency in microseconds (0 if nothing recorded).
    pub fn p50_op_us(&self) -> f64 {
        self.op_hist.p50().unwrap_or(0) as f64 / 1_000.0
    }

    /// 99th-percentile operation latency in microseconds (0 if nothing
    /// recorded).
    pub fn p99_op_us(&self) -> f64 {
        self.op_hist.p99().unwrap_or(0) as f64 / 1_000.0
    }
}

/// One client's whole run: `ops` random slot triples against the server.
fn client_loop(mut client: Client, who: usize, config: ServerBenchConfig, hist: &LatencyHistogram) {
    client
        .hello(&format!("bench-{who}"))
        .expect("hello must succeed");
    let mut rng_state = seed(who);
    let payload = [who as u8; IO_BYTES];
    let mut buf_offset;
    for _ in 0..config.ops_per_conn {
        let slot = xorshift(&mut rng_state) % SLOTS;
        let read = (xorshift(&mut rng_state) % 100) < config.read_pct as u64;
        let range = Range::new(slot * SLOT_BYTES, (slot + 1) * SLOT_BYTES);
        buf_offset = range.start;
        let started = Instant::now();
        if read {
            client
                .lock(BENCH_PATH, range, LockMode::Shared)
                .expect("shared lock must succeed");
            let data = client
                .read(BENCH_PATH, buf_offset, IO_BYTES as u32)
                .expect("read must succeed");
            std::hint::black_box(data);
        } else {
            client
                .lock(BENCH_PATH, range, LockMode::Exclusive)
                .expect("exclusive lock must succeed");
            client
                .write(BENCH_PATH, buf_offset, &payload)
                .expect("write must succeed");
        }
        client
            .unlock(BENCH_PATH, range)
            .expect("unlock must succeed");
        hist.record(started.elapsed().as_nanos() as u64);
    }
    client.bye().expect("bye must succeed");
}

/// Runs one ServerBench configuration: builds a server, saturates it with
/// `connections` concurrent clients, and returns throughput, latency, and
/// the server's final counters.
pub fn run(config: &ServerBenchConfig) -> ServerBenchResult {
    assert!(config.connections > 0);
    assert!(config.ops_per_conn > 0);
    assert!(config.read_pct <= 100);
    let server = Server::new(ServerConfig {
        variant: config.lock,
        wait: config.wait,
        registry: SERVER_REGISTRY_CONFIG,
        workers: config.workers.max(1),
        ..ServerConfig::default()
    });
    let tcp = if config.tcp {
        Some(
            server
                .serve_tcp("127.0.0.1:0")
                .expect("binding a loopback listener"),
        )
    } else {
        None
    };
    let hist = Arc::new(LatencyHistogram::new());
    let barrier = Arc::new(Barrier::new(config.connections + 1));
    let handles: Vec<_> = (0..config.connections)
        .map(|who| {
            let client = match &tcp {
                Some(handle) => {
                    Client::connect_tcp(handle.addr()).expect("connecting over loopback")
                }
                None => server.connect(),
            };
            let hist = Arc::clone(&hist);
            let barrier = Arc::clone(&barrier);
            let config = *config;
            std::thread::spawn(move || {
                barrier.wait();
                client_loop(client, who, config, &hist);
            })
        })
        .collect();
    // The clock starts before the barrier releases the clients: read after
    // it, a quick backlog can be half drained (on two CPUs: fully) before
    // this thread is scheduled again, and the cell reports the throughput
    // of a run that was never timed.
    let started = Instant::now();
    barrier.wait();
    for handle in handles {
        handle.join().expect("ServerBench client thread panicked");
    }
    let elapsed = started.elapsed();
    if let Some(handle) = tcp {
        handle.stop();
    }
    let stats = server.shutdown();
    ServerBenchResult {
        operations: config.connections as u64 * config.ops_per_conn,
        elapsed,
        op_hist: hist.snapshot(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_baselines::registry;
    use rl_server::OpKind;

    #[test]
    fn every_variant_completes_in_process() {
        for lock in registry::all() {
            let result = run(&ServerBenchConfig {
                lock,
                wait: WaitPolicyKind::Block,
                connections: 3,
                workers: 2,
                read_pct: 60,
                ops_per_conn: 20,
                tcp: false,
            });
            assert_eq!(result.operations, 60, "{}", lock.name);
            assert_eq!(result.op_hist.count(), 60, "{}", lock.name);
            assert_eq!(result.stats.sessions_started, 3, "{}", lock.name);
            assert_eq!(result.stats.sessions_active, 0, "{}", lock.name);
            assert_eq!(result.stats.deadlocks, 0, "{}", lock.name);
            assert_eq!(result.stats.disconnects, 0, "{}", lock.name);
            assert_eq!(result.stats.op_count(OpKind::Lock), 60, "{}", lock.name);
            assert_eq!(result.stats.op_count(OpKind::Unlock), 60, "{}", lock.name);
            assert!(result.ops_per_sec() > 0.0);
            assert!(result.p99_op_us() >= result.p50_op_us());
        }
    }

    #[test]
    fn tcp_spot_check_completes() {
        let lock = registry::by_name("list-rw").unwrap();
        let result = run(&ServerBenchConfig {
            lock,
            wait: WaitPolicyKind::Block,
            connections: 2,
            workers: 2,
            read_pct: 50,
            ops_per_conn: 15,
            tcp: true,
        });
        assert_eq!(result.operations, 30);
        assert_eq!(result.stats.sessions_started, 2);
        assert_eq!(result.stats.disconnects, 0);
    }

    #[test]
    fn slots_are_segment_aligned() {
        let seg = SERVER_REGISTRY_CONFIG.span / SERVER_REGISTRY_CONFIG.segments as u64;
        assert_eq!(seg, SLOT_BYTES);
    }
}
