//! Who polls a session: the hop count of the served RPC path.
//!
//! `rl-exec`'s direct hand-off says the thread that makes a session
//! runnable polls it — the in-process sender, the socket's pump, the
//! session whose release granted it. These tests hold that to account
//! without a clock:
//!
//! * **context switches** (Linux `/proc`): in steady state an in-process
//!   `lock` + `unlock` pair blocks nobody — neither the client thread nor
//!   any pool worker goes to sleep — and over TCP the workers stay asleep
//!   (client and pump block in `read`, which is the transport, not the
//!   executor). Before direct hand-off 5 000 in-process pairs cost the
//!   client 5 800–10 000 voluntary switches and the workers 4 000–10 000
//!   (pinned to one CPU or not); over TCP the workers paid 10 000–11 400.
//! * **the grant**, single-threaded: when a holder's `Unlock` is sent, the
//!   sending thread polls the holder's session and then — through the run
//!   scope's slot — the waiter's, so both replies are queued by the time
//!   `send` returns. Through the injector that is a race the sender loses.

use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

use range_locks_repro::range_lock::Range;
use range_locks_repro::rl_server::{
    wire, Client, Conn, LockMode, Reply, Request, Server, ServerConfig,
};

/// Pairs timed after the warm-up, and the warm-up itself.
const PAIRS: u64 = 5_000;
const WARM_UP: u64 = 100;
/// Voluntary context switches `PAIRS` pairs may cost a party that is not
/// supposed to block at all. Not zero: a page fault or a contended
/// allocator lock may put a thread to sleep once in a while.
const SLACK: u64 = 100;

/// One test at a time: the worker census below counts every `rl-exec-*`
/// thread in the process.
static ONE_SERVER: Mutex<()> = Mutex::new(());

fn one_server() -> std::sync::MutexGuard<'static, ()> {
    ONE_SERVER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `voluntary_ctxt_switches` out of a `/proc/.../status` file.
fn voluntary_switches(status_path: &std::path::Path) -> u64 {
    std::fs::read_to_string(status_path)
        .expect("Linux /proc")
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line")
        .trim()
        .parse()
        .expect("a count")
}

fn my_switches() -> u64 {
    voluntary_switches("/proc/thread-self/status".as_ref())
}

/// Summed over every pool worker (`rl-exec-*`) of this process.
fn worker_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux /proc")
        .filter_map(|task| {
            let task = task.ok()?.path();
            let comm = std::fs::read_to_string(task.join("comm")).ok()?;
            comm.starts_with("rl-exec-")
                .then(|| voluntary_switches(&task.join("status")))
        })
        .sum()
}

/// `pairs` uncontended `lock` + `unlock` round trips.
fn lock_unlock(client: &mut Client, pairs: u64) {
    let range = Range::new(0, 256);
    for _ in 0..pairs {
        client.lock("/hops", range, LockMode::Exclusive).unwrap();
        client.unlock("/hops", range).unwrap();
    }
}

/// Warm-up, then `PAIRS` pairs; returns how many voluntary context
/// switches they cost (the calling thread, all pool workers).
fn switches_per_run(client: &mut Client) -> (u64, u64) {
    client.hello("hops").unwrap();
    lock_unlock(client, WARM_UP);
    let (me, workers) = (my_switches(), worker_switches());
    lock_unlock(client, PAIRS);
    (my_switches() - me, worker_switches() - workers)
}

#[test]
fn in_process_rpcs_put_no_thread_to_sleep() {
    let _one = one_server();
    let server = Server::new(ServerConfig::default());
    let mut client = server.connect();
    let (client_switches, worker_switches) = switches_per_run(&mut client);
    eprintln!("in-process: client {client_switches}, workers {worker_switches}");
    client.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.total_ops(), 2 * (WARM_UP + PAIRS));
    assert!(
        client_switches < SLACK,
        "the client thread slept {client_switches} times over {PAIRS} pairs"
    );
    assert!(
        worker_switches < SLACK,
        "pool workers slept {worker_switches} times over {PAIRS} pairs"
    );
}

#[test]
fn tcp_rpcs_leave_the_workers_asleep() {
    let _one = one_server();
    let server = Server::new(ServerConfig::default());
    let acceptor = server.serve_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect_tcp(acceptor.addr()).unwrap();
    let (client_switches, worker_switches) = switches_per_run(&mut client);
    eprintln!("tcp: client {client_switches}, workers {worker_switches}");
    client.bye().unwrap();
    acceptor.stop();
    let stats = server.shutdown();
    assert_eq!(stats.total_ops(), 2 * (WARM_UP + PAIRS));
    assert!(
        worker_switches < SLACK,
        "pool workers slept {worker_switches} times over {PAIRS} TCP pairs: \
         the pump is not polling its session"
    );
}

/// One raw session, as the benchmark's `srv-handoff` builds them: frames
/// in, frames out, no `Client` in between.
struct RawSession(Conn);

impl RawSession {
    fn attach(server: &Server) -> RawSession {
        let (client_end, server_end) = Conn::pair();
        server.attach(server_end);
        RawSession(client_end)
    }

    fn send(&self, request: &Request) {
        self.0.send(&wire::encode_request(request)).unwrap();
    }

    /// The reply queued right now, if any. Never waits.
    fn queued(&self) -> Option<Reply> {
        match self
            .0
            .inbox()
            .poll_recv(&mut Context::from_waker(Waker::noop()))
        {
            Poll::Ready(frame) => Some(wire::decode_reply(&frame.expect("hung up")).unwrap()),
            Poll::Pending => None,
        }
    }

    /// Sends `Hello`s until one `send` comes back with its reply already
    /// queued. A session's first poll is a pool worker's, and a frame that
    /// arrives while the worker is still in that poll is the worker's too;
    /// from the first frame that finds the session suspended, every poll is
    /// the sender's, so what follows is single-threaded.
    fn warm_up(&self, name: &str) {
        let hello = Request::Hello {
            name: name.to_string(),
        };
        for _ in 0..10_000 {
            self.send(&hello);
            if let Some(reply) = self.queued() {
                assert_eq!(reply, Reply::Ok);
                return;
            }
            let late = self.0.recv_blocking().expect("hung up");
            assert_eq!(wire::decode_reply(&late).unwrap(), Reply::Ok);
        }
        panic!("{name}: no send ever returned with its reply queued");
    }
}

#[test]
fn an_unlock_returns_with_the_waiters_grant_already_queued() {
    let _one = one_server();
    let server = Server::new(ServerConfig::default());
    let (holder, waiter) = (RawSession::attach(&server), RawSession::attach(&server));
    holder.warm_up("holder");
    waiter.warm_up("waiter");

    let lock = Request::Lock {
        path: "/grant".to_string(),
        start: 0,
        end: 256,
        mode: LockMode::Exclusive,
    };
    holder.send(&lock);
    assert_eq!(holder.queued(), Some(Reply::Ok), "uncontended: answered");
    waiter.send(&lock);
    assert_eq!(waiter.queued(), None, "the waiter's session is suspended");

    holder.send(&Request::Unlock {
        path: "/grant".to_string(),
        start: 0,
        end: 256,
    });
    // No waiting between the send and these: the sending thread polled the
    // holder's session, whose release put the waiter's in the slot.
    assert_eq!(holder.queued(), Some(Reply::Ok), "the unlock is answered");
    assert_eq!(waiter.queued(), Some(Reply::Ok), "and the lock it granted");

    for session in [&holder, &waiter] {
        session.send(&Request::Bye);
        assert_eq!(session.queued(), Some(Reply::Ok));
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_active, 0);
    assert_eq!(stats.disconnects, 0);
    assert_eq!(stats.deadlocks, 0);
}
