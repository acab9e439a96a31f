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

use std::time::Instant;

use range_lock::Range;
use rl_baselines::registry::{RegistryConfig, VariantSpec};
use rl_file::LockMode;
use rl_obs::LatencyHistogram;
use rl_server::{Client, Server, ServerConfig, StatsSnapshot};
use rl_sync::wait::WaitPolicyKind;

use crate::rng::{seed, xorshift};
use crate::runner::{self, Run, Stop};

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

/// One client's session: `hello` now, then one random slot triple (lock →
/// I/O → unlock, timed from request to unlock acknowledged) per call, and
/// `bye` after the last of `ops_per_conn`.
fn session(
    mut client: Client,
    who: usize,
    config: &ServerBenchConfig,
) -> impl FnMut(&LatencyHistogram) -> bool {
    client
        .hello(&format!("bench-{who}"))
        .expect("hello must succeed");
    let (mut client, mut left) = (Some(client), config.ops_per_conn);
    let mut rng_state = seed(who);
    let payload = [who as u8; IO_BYTES];
    let read_pct = config.read_pct as u64;
    move |hist| {
        let live = client.as_mut().expect("a session ends after its last op");
        let slot = xorshift(&mut rng_state) % SLOTS;
        let read = (xorshift(&mut rng_state) % 100) < read_pct;
        let range = Range::new(slot * SLOT_BYTES, (slot + 1) * SLOT_BYTES);
        let started = Instant::now();
        if read {
            live.lock(BENCH_PATH, range, LockMode::Shared)
                .expect("shared lock must succeed");
            let data = live
                .read(BENCH_PATH, range.start, IO_BYTES as u32)
                .expect("read must succeed");
            std::hint::black_box(data);
        } else {
            live.lock(BENCH_PATH, range, LockMode::Exclusive)
                .expect("exclusive lock must succeed");
            live.write(BENCH_PATH, range.start, &payload)
                .expect("write must succeed");
        }
        live.unlock(BENCH_PATH, range).expect("unlock must succeed");
        hist.record(started.elapsed().as_nanos() as u64);
        left -= 1;
        if left == 0 {
            let done = client.take().expect("one bye per session");
            done.bye().expect("bye must succeed");
        }
        true
    }
}

/// Runs one ServerBench configuration: builds a server and saturates it
/// with `connections` concurrent clients, each doing its `ops_per_conn`
/// triples. An operation is one triple, and the cell's histogram holds
/// each one's client-observed latency (ns); beside it come the server's
/// own counters at shutdown.
pub fn run(config: &ServerBenchConfig) -> (Run, StatsSnapshot) {
    assert!(config.read_pct <= 100);
    let server = Server::new(ServerConfig {
        variant: config.lock,
        wait: config.wait,
        registry: SERVER_REGISTRY_CONFIG,
        workers: config.workers.max(1),
        ..ServerConfig::default()
    });
    let tcp = config.tcp.then(|| {
        server
            .serve_tcp("127.0.0.1:0")
            .expect("binding a loopback listener")
    });
    let addr = tcp.as_ref().map(|handle| handle.addr());
    let transport = if config.tcp { "tcp" } else { "in-process" };
    let name = format!(
        "ServerBench {} / {transport} x{}",
        config.lock.name, config.connections
    );
    let run = runner::run(
        &name,
        config.connections,
        Stop::Quota(config.ops_per_conn),
        |who| {
            let client = match addr {
                Some(addr) => Client::connect_tcp(addr).expect("connecting over loopback"),
                None => server.connect(),
            };
            session(client, who, config)
        },
    );
    if let Some(handle) = tcp {
        handle.stop();
    }
    (run, server.shutdown())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_baselines::registry;
    use rl_server::OpKind;

    #[test]
    fn every_variant_completes_in_process() {
        for lock in registry::all() {
            let (result, stats) = run(&ServerBenchConfig {
                lock,
                wait: WaitPolicyKind::Block,
                connections: 3,
                workers: 2,
                read_pct: 60,
                ops_per_conn: 20,
                tcp: false,
            });
            assert_eq!(result.ops, 60, "{}", lock.name);
            assert_eq!(result.hist.count(), 60, "{}", lock.name);
            assert_eq!(stats.sessions_started, 3, "{}", lock.name);
            assert_eq!(stats.sessions_active, 0, "{}", lock.name);
            assert_eq!(stats.deadlocks, 0, "{}", lock.name);
            assert_eq!(stats.disconnects, 0, "{}", lock.name);
            assert_eq!(stats.op_count(OpKind::Lock), 60, "{}", lock.name);
            assert_eq!(stats.op_count(OpKind::Unlock), 60, "{}", lock.name);
            assert!(result.per_sec() > 0.0);
            assert!(result.p99_us() >= result.p50_us());
        }
    }

    #[test]
    fn tcp_spot_check_completes() {
        let lock = registry::by_name("list-rw").unwrap();
        let (result, stats) = run(&ServerBenchConfig {
            lock,
            wait: WaitPolicyKind::Block,
            connections: 2,
            workers: 2,
            read_pct: 50,
            ops_per_conn: 15,
            tcp: true,
        });
        assert_eq!(result.ops, 30);
        assert_eq!(stats.sessions_started, 2);
        assert_eq!(stats.disconnects, 0);
    }

    #[test]
    fn slots_are_segment_aligned() {
        let seg = SERVER_REGISTRY_CONFIG.span / SERVER_REGISTRY_CONFIG.segments as u64;
        assert_eq!(seg, SLOT_BYTES);
    }
}
