//! `srv-duplex`, `srv-handoff` and `srv-tcp`: one client's view of
//! `rl-server`, with the whole process on one CPU.
//!
//! Unpinned, a 1-client loop is bimodal by 10× depending on whether the
//! client thread and the pool worker happen to share a vCPU (a cross-vCPU
//! wake of an idle vCPU costs ~40 µs on the reference box). On one CPU the
//! program, not the hypervisor, sets the number — so these workloads pin,
//! verify the pin, and refuse to report without it.

use range_lock::Range;
use rl_server::wire::{decode_reply, encode_request};
use rl_server::{Client, Conn, LockMode, Reply, Request, Server, ServerConfig, StatsSnapshot};

use crate::drive::{drive, Sampling, ThreadLog};
use crate::opstream::{self, Mix, Op, STREAM_LEN};
use crate::span::name_id;
use crate::trial::{Ctx, Loaded};

const PATHS: u8 = 8;
const SLOTS: u16 = 64;

/// The files the client workloads (and the ladder's replays) address.
pub fn paths() -> Vec<String> {
    (0..PATHS).map(|p| format!("/bench/f{p}")).collect()
}

/// Checks the server's own account of the trial against the client's.
fn integrity(stats: &StatsSnapshot, issued: u64) -> (u64, Vec<(&'static str, f64)>) {
    let misses = u64::from(stats.total_ops() != issued)
        + stats.protocol_errors
        + stats.deadlocks
        + stats.disconnects;
    let layers = vec![
        ("server.ops_total", stats.total_ops() as f64),
        ("server.protocol_errors", stats.protocol_errors as f64),
        ("server.deadlocks", stats.deadlocks as f64),
        ("server.disconnects", stats.disconnects as f64),
        (
            "server.lock_wait_p50_ns",
            stats.lock_wait.p50().unwrap_or(0) as f64,
        ),
        ("server.io_p50_ns", stats.io_wait.p50().unwrap_or(0) as f64),
    ];
    (misses, layers)
}

/// Shuts the server down, holds its account of the trial against the
/// client's, and packs the result. `clean`: every session said goodbye.
fn finish(
    ctx: &Ctx,
    server: Server,
    log: ThreadLog,
    ops: Vec<Op>,
    issued: u64,
    clean: bool,
) -> Loaded {
    let (misses, layers) = integrity(&server.shutdown(), issued);
    Loaded {
        threads: 1,
        logs: vec![log],
        warmup: ctx.spec.warmup as usize,
        integrity_failures: misses + u64::from(!clean),
        layers,
        opstream_hash: opstream::hash(&[ops]),
    }
}

/// The client loop `srv-duplex` and `srv-tcp` share: pre-populate every
/// slot, then lock → `IO` bytes read or written → unlock per op. Payloads
/// carry one tag in every byte, so a torn or misplaced span shows up as a
/// mixed read. Returns the log and the number of RPCs issued.
fn lock_io_unlock<const IO: usize>(
    ctx: &Ctx,
    client: &mut Client,
    ops: &[Op],
    trace_every: u32,
) -> Result<(ThreadLog, u64), String> {
    let paths = paths();
    let err = |e| format!("{}: set-up RPC failed: {e}", ctx.spec.workload);
    client.hello("bench").map_err(err)?;
    let mut issued = 0u64;
    for path in &paths {
        for slot in 0..u64::from(SLOTS) {
            client
                .write(path, slot * IO as u64, &[1u8; IO])
                .map_err(err)?;
            issued += 1;
        }
    }
    let (lock_span, io_span, unlock_span) = (
        name_id("server.lock_rpc"),
        name_id("server.io_rpc"),
        name_id("server.unlock_rpc"),
    );
    let sampling = Sampling {
        time_every: 1,
        trace_every: ctx.trace_every(trace_every),
    };

    let sched = ctx.start();
    let log = drive(&sched, 0, sampling, |n, tr| {
        let op = ops[n as usize % STREAM_LEN];
        let path = &paths[usize::from(op.path)];
        let offset = u64::from(op.slot) * IO as u64;
        let range = Range::new(offset, offset + IO as u64);
        let mode = if op.write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        issued += 3;
        let t0 = tr.start();
        let locked = client.lock(path, range, mode).is_ok();
        let t1 = tr.span(lock_span, t0);
        let io_ok = if op.write {
            client.write(path, offset, &[op.tag; IO]).is_ok()
        } else {
            client
                .read(path, offset, IO as u32)
                .is_ok_and(|data| data.len() == IO && data.iter().all(|b| *b == data[0]))
        };
        let t2 = tr.span(io_span, t1);
        let unlocked = client.unlock(path, range).is_ok();
        tr.span(unlock_span, t2);
        locked && io_ok && unlocked
    });
    Ok((log, issued))
}

/// `srv-duplex`'s stream: 20 % writes.
pub const DUPLEX_MIX: Mix = Mix {
    slots: SLOTS,
    max_span: 1,
    paths: PATHS,
    write_pct: 20,
};
/// `srv-tcp`'s stream: 50 % writes.
pub const TCP_MIX: Mix = Mix {
    write_pct: 50,
    ..DUPLEX_MIX
};

/// `Server::connect()` client, 256 B reads (80 %) and writes (20 %).
pub fn duplex(ctx: &Ctx) -> Result<Loaded, String> {
    ctx.pin()?;
    let ops = opstream::generate(ctx.spec.seed, 0, DUPLEX_MIX);
    let server = Server::new(ServerConfig::default());
    let mut client = server.connect();
    let (log, issued) = lock_io_unlock::<256>(ctx, &mut client, &ops, 16)?;
    let bye = client.bye().is_ok();
    Ok(finish(ctx, server, log, ops, issued, bye))
}

/// `Client::connect_tcp` to `serve_tcp("127.0.0.1:0")`, 4 KiB reads (50 %)
/// and writes (50 %). Host loopback, not a link.
pub fn tcp(ctx: &Ctx) -> Result<Loaded, String> {
    ctx.pin()?;
    let ops = opstream::generate(ctx.spec.seed, 0, TCP_MIX);
    let server = Server::new(ServerConfig::default());
    let acceptor = server
        .serve_tcp("127.0.0.1:0")
        .map_err(|e| format!("binding loopback: {e}"))?;
    let mut client =
        Client::connect_tcp(acceptor.addr()).map_err(|e| format!("connecting to loopback: {e}"))?;
    let (log, issued) = lock_io_unlock::<4096>(ctx, &mut client, &ops, 2)?;
    let bye = client.bye().is_ok();
    acceptor.stop();
    Ok(finish(ctx, server, log, ops, issued, bye))
}

/// One raw session: frames in, frames out, no `Client` in between.
struct RawSession(Conn);

impl RawSession {
    fn attach(server: &Server, name: &str) -> Result<Self, String> {
        let (client_end, server_end) = Conn::pair();
        server.attach(server_end);
        let session = RawSession(client_end);
        session.send(&Request::Hello {
            name: name.to_string(),
        });
        if session.granted() {
            Ok(session)
        } else {
            Err(format!("srv-handoff: Hello of {name} was refused"))
        }
    }

    fn send(&self, req: &Request) -> bool {
        self.0.send(&encode_request(req)).is_ok()
    }

    /// Waits for the next reply; true if it is `Ok`.
    fn granted(&self) -> bool {
        self.0
            .recv_blocking()
            .is_some_and(|frame| decode_reply(&frame) == Ok(Reply::Ok))
    }
}

/// Two raw sessions on one exclusive range: the waiter sends `Lock`, the
/// holder sends `Unlock`, the waiter receives its grant, roles swap. Every
/// acquisition suspends server-side and is granted by the other session's
/// release. The seed picks the path and slot they fight over.
pub fn handoff(ctx: &Ctx) -> Result<Loaded, String> {
    ctx.pin()?;
    let ops = opstream::generate(ctx.spec.seed, 0, DUPLEX_MIX);
    let path = paths().swap_remove(usize::from(ops[0].path));
    let (start, end) = (
        u64::from(ops[0].slot) * 256,
        u64::from(ops[0].slot + 1) * 256,
    );
    let lock = || Request::Lock {
        path: path.clone(),
        start,
        end,
        mode: LockMode::Exclusive,
    };
    let unlock = || Request::Unlock {
        path: path.clone(),
        start,
        end,
    };
    let server = Server::new(ServerConfig::default());
    let sessions = [
        RawSession::attach(&server, "left")?,
        RawSession::attach(&server, "right")?,
    ];
    let mut holder = 0;
    sessions[holder].send(&lock());
    if !sessions[holder].granted() {
        return Err("srv-handoff: the first Lock was refused".into());
    }
    let mut issued = 1u64;
    let grant_span = name_id("server.grant");
    let sampling = Sampling {
        time_every: 1,
        trace_every: ctx.trace_every(16),
    };

    let sched = ctx.start();
    let log = drive(&sched, 0, sampling, |_, tr| {
        let waiter = 1 - holder;
        issued += 2;
        let asked = sessions[waiter].send(&lock());
        let t0 = tr.start();
        let released = sessions[holder].send(&unlock()) && sessions[holder].granted();
        let granted = sessions[waiter].granted();
        tr.span(grant_span, t0);
        holder = waiter;
        asked && released && granted
    });

    sessions[holder].send(&unlock());
    issued += 1;
    let mut clean = sessions[holder].granted();
    for session in &sessions {
        session.send(&Request::Bye);
        clean &= session.granted();
    }
    Ok(finish(ctx, server, log, ops, issued, clean))
}
