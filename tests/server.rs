//! Integration suite for the `rl-server` range-lock/file service.
//!
//! Four properties carry the subsystem and each gets its own stress:
//!
//! * **Session storms** — N clients per server, every one of the five
//!   registry variants, hammering conflicting slot ranges with
//!   lock → write → read-back → unlock triples. The read-back inside the
//!   exclusive hold is an integrity check: any isolation failure across
//!   the service boundary shows up as a torn payload, not just a bad
//!   counter.
//! * **Release-on-disconnect** — a client killed *while holding* must free
//!   its ranges promptly, and a client killed *mid-wait* (its session
//!   suspended deep inside an async acquisition) must cancel the pending
//!   enqueue without wedging the grant chain behind it. Both run under
//!   bounded joins on every variant, so a lost cancellation fails the test
//!   instead of hanging the suite.
//! * **Wire robustness** — encode/decode round-trips over randomized
//!   requests and replies, every strict prefix of a valid frame rejected,
//!   and a garbage frame answered with a `Protocol` error followed by a
//!   hangup. Trust-boundary checks ride along: data-plane spans bounded
//!   by the configured max file size, oversized frames refused at the
//!   sender, oversized strings refused before encoding.
//! * **Real sockets** — the same guarantees over loopback TCP, plus what
//!   only a byte stream can get wrong: five requests pipelined into one
//!   segment, a socket cut while its session is suspended in a lock wait,
//!   sessions that end on the pump thread polling them (which must not
//!   join itself), a client that pipelines without reading (which must
//!   stall nobody but itself), and a blocking-only `Conn::tcp` that must
//!   not spawn a pump thread.
//!   (The framing itself is tortured in `rl_server::wire`'s unit tests.)

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use range_locks_repro::range_lock::Range;
use range_locks_repro::rl_baselines::registry;
use range_locks_repro::rl_server::{
    wire, Client, ClientError, Conn, ErrCode, LockMode, OpKind, Reply, Request, Server,
    ServerConfig,
};
use range_locks_repro::rl_sync::WaitPolicyKind;

/// Per-test wall-clock budget for storms and disconnect races.
const DEADLINE: Duration = Duration::from_secs(60);

/// 16 slots of 4 KiB each; span covers them exactly with one segment per
/// slot, so every slot range is segment-aligned and the `pnova-rw` variant
/// runs the same workload unmodified.
const SLOTS: u64 = 16;
const SLOT_BYTES: u64 = 4096;

fn slot_range(slot: u64) -> Range {
    Range::new(slot * SLOT_BYTES, (slot + 1) * SLOT_BYTES)
}

fn server_for(variant: &'static registry::VariantSpec) -> Server {
    Server::new(ServerConfig {
        variant,
        wait: WaitPolicyKind::Block,
        registry: registry::RegistryConfig {
            span: SLOTS * SLOT_BYTES,
            segments: SLOTS as usize,
        },
        workers: 2,
        ..ServerConfig::default()
    })
}

/// Tiny deterministic PRNG so the storm needs no external crate.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs `work` on its own thread and fails if it has not finished by the
/// deadline — a wedged grant chain becomes a test failure, not a hang.
fn run_bounded(label: String, work: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        work();
        let _ = tx.send(());
    });
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{label}: still running past the deadline"));
    handle.join().unwrap();
}

/// N clients × conflicting slots × lock/write/read-back/unlock, per
/// variant. Every client writes its own byte pattern under an exclusive
/// hold and must read it back intact before releasing.
#[test]
fn session_storms_every_variant() {
    const CLIENTS: usize = 6;
    const OPS: u64 = 40;
    // Few slots, many clients: conflicts on every iteration.
    const HOT_SLOTS: u64 = 4;
    for spec in registry::all() {
        run_bounded(format!("storm/{}", spec.name), move || {
            let server = server_for(spec);
            let clients: Vec<Client> = (0..CLIENTS).map(|_| server.connect()).collect();
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(who, mut client)| {
                    std::thread::spawn(move || {
                        client.hello(&format!("storm-{who}")).unwrap();
                        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((who as u64 + 1) << 32);
                        let payload = [who as u8 + 1; 128];
                        for _ in 0..OPS {
                            let slot = xorshift(&mut rng) % HOT_SLOTS;
                            let range = slot_range(slot);
                            client.lock("/storm", range, LockMode::Exclusive).unwrap();
                            client.write("/storm", range.start, &payload).unwrap();
                            let back = client.read("/storm", range.start, 128).unwrap();
                            assert_eq!(
                                back, payload,
                                "torn read inside an exclusive hold ({})",
                                spec.name
                            );
                            client.unlock("/storm", range).unwrap();
                        }
                        client.bye().unwrap();
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            let stats = server.shutdown();
            assert_eq!(stats.sessions_started, CLIENTS as u64);
            assert_eq!(stats.sessions_active, 0);
            assert_eq!(stats.disconnects, 0, "every client said Bye");
            assert_eq!(stats.deadlocks, 0, "single-range holds cannot cycle");
            assert_eq!(stats.protocol_errors, 0);
        });
    }
}

/// Mixed shared/exclusive storm: readers overlap, writers exclude, and the
/// lock-wait histogram actually records contended acquisitions.
#[test]
fn shared_and_exclusive_sessions_coexist() {
    let server = server_for(registry::by_name("list-rw").unwrap());
    let handles: Vec<_> = (0..4)
        .map(|who| {
            let mut client = server.connect();
            std::thread::spawn(move || {
                client.hello(&format!("mix-{who}")).unwrap();
                let mut rng = 0xD1B5_4A32_D192_ED03u64 ^ ((who as u64 + 1) << 16);
                for i in 0..50u64 {
                    let range = slot_range(xorshift(&mut rng) % 3);
                    let mode = if (who + i as usize).is_multiple_of(3) {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    client.lock("/mix", range, mode).unwrap();
                    if mode == LockMode::Exclusive {
                        client.write("/mix", range.start, b"x").unwrap();
                    } else {
                        let _ = client.read("/mix", range.start, 1).unwrap();
                    }
                    client.unlock("/mix", range).unwrap();
                }
                client.bye().unwrap();
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_started, 4);
    assert_eq!(stats.deadlocks, 0);
    assert!(
        stats.lock_wait.count() > 0,
        "granted blocking locks must feed the wait histogram"
    );
    assert!(stats.io_wait.count() > 0);
}

/// The headline guarantee, per variant: a client killed while *holding* a
/// range frees it, and a client killed while *waiting* for that same range
/// cancels its pending acquisition — the surviving waiter must be granted
/// within the bounded join either way.
#[test]
fn kill_mid_wait_releases_and_cancels_every_variant() {
    for spec in registry::all() {
        run_bounded(format!("disconnect/{}", spec.name), move || {
            let server = server_for(spec);
            let range = slot_range(0);

            // A holds slot 0 exclusively.
            let mut a = server.connect();
            a.hello("holder").unwrap();
            a.lock("/f", range, LockMode::Exclusive).unwrap();

            // B blocks waiting for slot 0 (its session suspends mid-wait).
            let mut b = server.connect();
            b.hello("survivor").unwrap();
            let b_thread = std::thread::spawn(move || {
                b.lock("/f", range, LockMode::Exclusive).unwrap();
                b.unlock("/f", range).unwrap();
                b.bye().unwrap();
            });

            // C also enqueues behind A — driven over a raw connection so the
            // test can sever it *while the acquisition is pending*.
            let (c_end, c_server_end) = Conn::pair();
            server.attach(c_server_end);
            c_end
                .send(&wire::encode_request(&Request::Hello {
                    name: "killed-mid-wait".to_string(),
                }))
                .unwrap();
            assert_eq!(
                wire::decode_reply(&c_end.recv_blocking().unwrap()).unwrap(),
                Reply::Ok
            );
            c_end
                .send(&wire::encode_request(&Request::Lock {
                    path: "/f".to_string(),
                    start: range.start,
                    end: range.end,
                    mode: LockMode::Exclusive,
                }))
                .unwrap();
            // Let B and C actually enqueue behind A before the kills.
            std::thread::sleep(Duration::from_millis(100));

            // Kill C mid-wait: its session must cancel the pending enqueue.
            drop(c_end);
            // Kill A without a Bye: its exclusive hold must be released.
            a.kill();

            // The surviving waiter is granted; the bounded join catches a
            // wedge (a leaked pending enqueue would block B forever on the
            // exclusive chain).
            b_thread.join().unwrap();

            let stats = server.shutdown();
            assert!(
                stats.disconnects >= 2,
                "{}: A and C both died abruptly",
                spec.name
            );
            assert!(
                stats.disconnect_releases >= 1,
                "{}: A died holding a range",
                spec.name
            );
            assert!(
                stats.ranges_freed_on_disconnect >= 1,
                "{}: A's exclusive hold must be counted",
                spec.name
            );
        });
    }
}

/// Dropping a client that holds ranges across *several* files releases all
/// of them (one `LockOwner` per path server-side).
#[test]
fn disconnect_releases_ranges_across_files() {
    let server = server_for(registry::by_name("kernel-rw").unwrap());
    let mut a = server.connect();
    a.hello("multi").unwrap();
    a.lock("/one", slot_range(0), LockMode::Exclusive).unwrap();
    a.lock("/two", slot_range(1), LockMode::Shared).unwrap();
    a.lock("/two", slot_range(2), LockMode::Exclusive).unwrap();
    a.kill();

    // Both files must become lockable again.
    let mut b = server.connect();
    b.hello("after").unwrap();
    run_bounded("multi-file disconnect".to_string(), move || {
        b.lock("/one", slot_range(0), LockMode::Exclusive).unwrap();
        b.lock("/two", slot_range(1), LockMode::Exclusive).unwrap();
        b.lock("/two", slot_range(2), LockMode::Exclusive).unwrap();
        b.bye().unwrap();
    });
    let stats = server.shutdown();
    assert_eq!(stats.disconnect_releases, 1);
    assert_eq!(stats.ranges_freed_on_disconnect, 3);
}

/// Deadlock across sessions surfaces as a typed remote error, not a hang:
/// two clients each hold one slot and request the other's.
#[test]
fn cross_session_deadlock_returns_edeadlk() {
    run_bounded("cross-session deadlock".to_string(), || {
        let server = server_for(registry::by_name("list-rw").unwrap());
        let mut a = server.connect();
        let mut b = server.connect();
        a.hello("a").unwrap();
        b.hello("b").unwrap();
        a.lock("/d", slot_range(0), LockMode::Exclusive).unwrap();
        b.lock("/d", slot_range(1), LockMode::Exclusive).unwrap();
        // A blocks on slot 1; B then closes the cycle on slot 0 and one of
        // the two must get EDEADLK while the other is granted.
        let a_thread = std::thread::spawn(move || {
            let result = a.lock("/d", slot_range(1), LockMode::Exclusive);
            (a, result)
        });
        std::thread::sleep(Duration::from_millis(100));
        let b_result = b.lock("/d", slot_range(0), LockMode::Exclusive);
        // Whichever way the victim fell, B still holds slot 1; kill it so
        // release-on-disconnect unblocks A if A is the survivor.
        b.kill();
        let (a, a_result) = a_thread.join().unwrap();
        let deadlocked = [&a_result, &b_result]
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Err(ClientError::Remote {
                        code: ErrCode::Deadlock,
                        ..
                    })
                )
            })
            .count();
        assert_eq!(
            deadlocked, 1,
            "exactly one of the cycle's two requests is the victim: {a_result:?} / {b_result:?}"
        );
        a.kill();
        let stats = server.shutdown();
        assert_eq!(stats.deadlocks, 1);
    });
}

/// `TryLock` on a held range reports would-block without waiting.
#[test]
fn try_lock_reports_would_block() {
    let server = server_for(registry::by_name("lustre-ex").unwrap());
    let mut a = server.connect();
    let mut b = server.connect();
    a.lock("/t", slot_range(0), LockMode::Exclusive).unwrap();
    assert!(!b
        .try_lock("/t", slot_range(0), LockMode::Exclusive)
        .unwrap());
    assert!(b
        .try_lock("/t", slot_range(1), LockMode::Exclusive)
        .unwrap());
    a.bye().unwrap();
    b.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.would_blocks, 1);
}

/// `LockMany` is all-or-nothing across sessions and batches release on
/// disconnect like everything else.
#[test]
fn lock_many_and_data_plane_round_trip() {
    let server = server_for(registry::by_name("pnova-rw").unwrap());
    let mut a = server.connect();
    a.hello("batch").unwrap();
    a.lock_many(
        "/b",
        &[
            (slot_range(0), LockMode::Exclusive),
            (slot_range(2), LockMode::Shared),
        ],
    )
    .unwrap();
    let off = a.append("/b", b"hello server").unwrap();
    assert_eq!(off, 0);
    assert_eq!(a.read("/b", 0, 12).unwrap(), b"hello server");
    a.truncate("/b", 5).unwrap();
    assert_eq!(a.read("/b", 0, 12).unwrap(), b"hello");
    a.kill();
    let stats = server.shutdown();
    assert_eq!(stats.ranges_freed_on_disconnect, 2);
}

// ---------------------------------------------------------------------------
// Wire robustness
// ---------------------------------------------------------------------------

fn arbitrary_request(rng: &mut u64) -> Request {
    let path = format!("/p{}", xorshift(rng) % 4);
    let mode = if xorshift(rng).is_multiple_of(2) {
        LockMode::Shared
    } else {
        LockMode::Exclusive
    };
    let start = (xorshift(rng) % 1000) * 8;
    let end = start + 8 + xorshift(rng) % 512;
    match xorshift(rng) % 10 {
        0 => Request::Hello {
            name: format!("client-{}", xorshift(rng) % 100),
        },
        1 => Request::Lock {
            path,
            start,
            end,
            mode,
        },
        2 => Request::TryLock {
            path,
            start,
            end,
            mode,
        },
        3 => Request::LockMany {
            path,
            items: (0..xorshift(rng) % 5)
                .map(|i| (i * 100, i * 100 + 50, mode))
                .collect(),
        },
        4 => Request::Unlock { path, start, end },
        5 => Request::Read {
            path,
            offset: start,
            len: (xorshift(rng) % 4096) as u32,
        },
        6 => Request::Write {
            path,
            offset: start,
            data: (0..xorshift(rng) % 64).map(|b| b as u8).collect(),
        },
        7 => Request::Append {
            path,
            data: (0..xorshift(rng) % 64).map(|b| (b * 3) as u8).collect(),
        },
        8 => Request::Truncate { path, len: start },
        _ => Request::Bye,
    }
}

fn arbitrary_reply(rng: &mut u64) -> Reply {
    match xorshift(rng) % 4 {
        0 => Reply::Ok,
        1 => Reply::Offset(xorshift(rng)),
        2 => Reply::Data((0..xorshift(rng) % 128).map(|b| b as u8).collect()),
        _ => Reply::Err {
            code: match xorshift(rng) % 3 {
                0 => ErrCode::WouldBlock,
                1 => ErrCode::Deadlock,
                _ => ErrCode::Protocol,
            },
            message: format!("error {}", xorshift(rng) % 100),
        },
    }
}

/// Randomized round-trip identity, plus: every strict prefix of a valid
/// encoding must be rejected, never mis-decoded (truncated-frame
/// robustness at the payload layer).
#[test]
fn wire_round_trips_and_rejects_every_truncation() {
    let mut rng = 0xA076_1D64_78BD_642Fu64;
    for _ in 0..500 {
        let req = arbitrary_request(&mut rng);
        let bytes = wire::encode_request(&req);
        assert_eq!(wire::decode_request(&bytes).unwrap(), req);
        for cut in 0..bytes.len() {
            assert!(
                wire::decode_request(&bytes[..cut]).is_err(),
                "strict prefix of {req:?} (len {cut}/{}) must not decode",
                bytes.len()
            );
        }

        let reply = arbitrary_reply(&mut rng);
        let bytes = wire::encode_reply(&reply);
        assert_eq!(wire::decode_reply(&bytes).unwrap(), reply);
        for cut in 0..bytes.len() {
            assert!(
                wire::decode_reply(&bytes[..cut]).is_err(),
                "strict prefix of {reply:?} (len {cut}/{}) must not decode",
                bytes.len()
            );
        }
    }
}

/// Trailing garbage after a well-formed message is also a decode error.
#[test]
fn wire_rejects_trailing_bytes() {
    let mut bytes = wire::encode_request(&Request::Bye);
    bytes.push(0);
    assert!(wire::decode_request(&bytes).is_err());
}

/// A garbage frame gets a typed `Protocol` error reply and then a hangup —
/// the session does not limp along desynchronized.
#[test]
fn garbage_frame_answered_then_hung_up() {
    let server = server_for(registry::by_name("list-rw").unwrap());
    let (raw, server_end) = Conn::pair();
    server.attach(server_end);
    raw.send(&[0xFF, 0xEE, 0xDD]).unwrap();
    let reply = wire::decode_reply(&raw.recv_blocking().unwrap()).unwrap();
    assert!(matches!(
        reply,
        Reply::Err {
            code: ErrCode::Protocol,
            ..
        }
    ));
    assert!(
        raw.recv_blocking().is_none(),
        "the server hangs up after a protocol error"
    );
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

/// Misaligned ranges on the segment variant are a protocol error, not a
/// panic inside the lock.
#[test]
fn pnova_rejects_misaligned_ranges() {
    let server = server_for(registry::by_name("pnova-rw").unwrap());
    let mut client = server.connect();
    let err = client
        .lock("/f", Range::new(1, 100), LockMode::Exclusive)
        .unwrap_err();
    assert!(matches!(
        err,
        ClientError::Remote {
            code: ErrCode::Protocol,
            ..
        }
    ));
}

/// Data-plane spans are validated at the trust boundary: a write at a
/// huge offset, a truncate to `u64::MAX`, and an append past the cap are
/// `Protocol` errors — not page allocations for the whole span (the OOM
/// vector `MAX_FRAME` alone cannot close).
#[test]
fn data_plane_spans_are_bounded() {
    let cap = SLOTS * SLOT_BYTES;
    let server = Server::new(ServerConfig {
        variant: registry::by_name("list-rw").unwrap(),
        max_file_size: cap,
        ..ServerConfig::default()
    });
    let is_protocol = |err: &ClientError| {
        matches!(
            err,
            ClientError::Remote {
                code: ErrCode::Protocol,
                ..
            }
        )
    };

    // Each probe costs its connection: protocol errors hang up.
    let mut c = server.connect();
    assert!(is_protocol(&c.write("/f", 1 << 60, b"x").unwrap_err()));
    let mut c = server.connect();
    assert!(is_protocol(&c.truncate("/f", u64::MAX).unwrap_err()));
    let mut c = server.connect();
    assert!(is_protocol(&c.write("/f", cap - 1, b"xy").unwrap_err()));

    // Growing to exactly the cap is fine; the append that would cross it
    // is refused.
    let mut c = server.connect();
    c.truncate("/f", cap).unwrap();
    assert!(is_protocol(&c.append("/f", b"over").unwrap_err()));

    // Spans inside the cap still work end to end.
    let mut c = server.connect();
    c.write("/ok", cap - 4, b"tail").unwrap();
    assert_eq!(c.read("/ok", cap - 4, 4).unwrap(), b"tail");
    c.bye().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 4);
}

/// A request that would exceed `MAX_FRAME` fails at the *sender* — same
/// error on both transports — and nothing is sent, so the session stays
/// usable instead of dying at the receiver's frame cap.
#[test]
fn oversized_frames_fail_at_the_sender() {
    let server = server_for(registry::by_name("list-rw").unwrap());
    let mut c = server.connect();
    let big = vec![0u8; wire::MAX_FRAME + 1];
    assert!(matches!(
        c.write("/f", 0, &big).unwrap_err(),
        ClientError::Io(err) if err.kind() == std::io::ErrorKind::InvalidData
    ));
    c.write("/f", 0, b"ok").unwrap();
    c.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
}

/// Renaming a session after it created lock owners is a protocol error —
/// owners capture the name at creation, so a late rename would leave
/// `EDEADLK` cycle reports and traces attributed to the stale name.
#[test]
fn hello_after_lock_is_rejected() {
    let server = server_for(registry::by_name("list-rw").unwrap());
    let mut c = server.connect();
    c.hello("early").unwrap();
    c.hello("renamed-before-locks").unwrap(); // fine: no owners yet
    c.lock("/f", slot_range(0), LockMode::Exclusive).unwrap();
    assert!(matches!(
        c.hello("late").unwrap_err(),
        ClientError::Remote {
            code: ErrCode::Protocol,
            ..
        }
    ));
    // The hangup released the held range like any disconnect.
    let mut b = server.connect();
    run_bounded("hello-after-lock release".to_string(), move || {
        b.lock("/f", slot_range(0), LockMode::Exclusive).unwrap();
        b.bye().unwrap();
    });
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

/// Paths and names longer than the wire's `u16` length prefix are refused
/// client-side before encoding — silent truncation would make the request
/// target a *different* path.
#[test]
fn oversized_strings_are_refused_before_encoding() {
    let server = server_for(registry::by_name("list-rw").unwrap());
    let mut c = server.connect();
    let long = "p".repeat(u16::MAX as usize + 1);
    assert!(matches!(
        c.hello(&long).unwrap_err(),
        ClientError::TooLong("name")
    ));
    assert!(matches!(
        c.lock(&long, slot_range(0), LockMode::Exclusive)
            .unwrap_err(),
        ClientError::TooLong("path")
    ));
    // Nothing reached the server; the session is untouched.
    c.hello("short").unwrap();
    c.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
}

/// The wire encoder cuts oversized strings (only server error messages
/// can realistically exceed the `u16` prefix) at a char boundary, so the
/// peer always decodes valid UTF-8 instead of `BadUtf8`-hanging-up.
#[test]
fn oversized_strings_truncate_at_char_boundaries() {
    let mut message = "x".repeat(u16::MAX as usize - 1);
    message.push('€'); // 3 bytes: straddles the 65535-byte cap
    let bytes = wire::encode_reply(&Reply::Err {
        code: ErrCode::Protocol,
        message: message.clone(),
    });
    match wire::decode_reply(&bytes).unwrap() {
        Reply::Err {
            message: decoded, ..
        } => {
            assert_eq!(decoded.len(), u16::MAX as usize - 1);
            assert_eq!(decoded, &message[..u16::MAX as usize - 1]);
        }
        other => panic!("wanted an Err reply, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Real sockets
// ---------------------------------------------------------------------------

/// Serializes the tests that put sessions on sockets: one of them counts
/// the process's `rl-server-rx` threads, which every TCP session has.
static SOCKETS: Mutex<()> = Mutex::new(());

fn sockets() -> std::sync::MutexGuard<'static, ()> {
    SOCKETS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Threads of this process named like the TCP pump (`rl-server-rx`).
fn pump_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux /proc")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "rl-server-rx")
        .count()
}

/// Waits (bounded) for the pump count to reach `want`: a thread names
/// itself only once it runs, and its `/proc` entry outlives a join by a
/// moment.
fn pump_threads_settle_at(want: usize) -> bool {
    settles(1000, || pump_threads() == want)
}

/// Polls `done` once a millisecond, `polls` times; `false` if it never
/// held.
fn settles(polls: u32, mut done: impl FnMut() -> bool) -> bool {
    (0..polls).any(|_| {
        let settled = done();
        if !settled {
            std::thread::sleep(Duration::from_millis(1));
        }
        settled
    })
}

/// The same storms and guarantees hold over real sockets: a TCP client
/// killed abruptly (socket death) releases its ranges for a TCP waiter.
#[test]
fn tcp_sessions_and_socket_death() {
    let _sockets = sockets();
    run_bounded("tcp socket death".to_string(), || {
        let server = server_for(registry::by_name("list-rw").unwrap());
        let handle = server.serve_tcp("127.0.0.1:0").expect("bind loopback");
        let addr = handle.addr();

        let mut a = Client::connect_tcp(addr).unwrap();
        a.hello("tcp-holder").unwrap();
        a.lock("/tcp", slot_range(0), LockMode::Exclusive).unwrap();
        a.write("/tcp", 0, b"held over tcp").unwrap();

        let mut b = Client::connect_tcp(addr).unwrap();
        b.hello("tcp-waiter").unwrap();
        let b_thread = std::thread::spawn(move || {
            b.lock("/tcp", slot_range(0), LockMode::Exclusive).unwrap();
            let data = b.read("/tcp", 0, 13).unwrap();
            b.bye().unwrap();
            data
        });
        std::thread::sleep(Duration::from_millis(100));
        a.kill(); // abrupt socket shutdown, no Bye

        assert_eq!(b_thread.join().unwrap(), b"held over tcp");
        handle.stop();
        let stats = server.shutdown();
        assert_eq!(stats.sessions_started, 2);
        assert!(stats.disconnects >= 1);
        assert_eq!(stats.disconnect_releases, 1);
    });
}

/// Five requests in one segment get five replies, in order: the buffered
/// reader hands the session every frame one `read` delivered and strands
/// none of them behind a `read` that will never return.
#[test]
fn pipelined_requests_in_one_write_are_all_answered() {
    let _sockets = sockets();
    run_bounded("tcp pipelining".to_string(), || {
        let server = server_for(registry::by_name("list-rw").unwrap());
        let handle = server.serve_tcp("127.0.0.1:0").expect("bind loopback");
        let range = slot_range(3);
        let path = || "/pipe".to_string();
        let requests = [
            Request::Hello {
                name: "pipeliner".to_string(),
            },
            Request::Lock {
                path: path(),
                start: range.start,
                end: range.end,
                mode: LockMode::Exclusive,
            },
            Request::Write {
                path: path(),
                offset: range.start,
                data: vec![0xAB; SLOT_BYTES as usize],
            },
            Request::Unlock {
                path: path(),
                start: range.start,
                end: range.end,
            },
            Request::Bye,
        ];
        let mut writer = wire::FrameWriter::new();
        let mut burst = Vec::new();
        for req in &requests {
            writer
                .write(&mut burst, |out| wire::encode_request_into(req, out))
                .unwrap();
        }
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&burst).unwrap();

        let mut reader = wire::FrameReader::new();
        for req in &requests {
            let frame = reader
                .read_frame(&mut stream)
                .unwrap()
                .unwrap_or_else(|| panic!("hung up before answering {req:?}"));
            assert_eq!(wire::decode_reply(frame).unwrap(), Reply::Ok, "{req:?}");
        }
        assert!(
            reader.read_frame(&mut stream).unwrap().is_none(),
            "a clean EOF follows the Bye"
        );

        let mut check = Client::connect_tcp(handle.addr()).unwrap();
        assert_eq!(
            check.read("/pipe", range.start, 4).unwrap(),
            [0xAB; 4],
            "the pipelined write landed"
        );
        check.bye().unwrap();
        handle.stop();
        let stats = server.shutdown();
        assert_eq!(stats.disconnects, 0, "both sessions said Bye");
        assert_eq!(stats.protocol_errors, 0);
    });
}

/// A TCP session in steady state is polled by its own pump thread (the
/// thread that delivers a frame polls the session it woke), so a session
/// that ends *because of a frame* — `Bye`, an undecodable request — drops
/// its `Conn` on the very thread `Conn::drop` wants to join. The pump must
/// step over itself and fall out of its loop; a `kill()` still tears down
/// on a worker, which joins the pump as before. Either way nothing is left:
/// no session, no held range, no `rl-server-rx` thread, and `shutdown`
/// returns.
#[test]
fn tcp_sessions_that_end_on_their_pump_thread_leave_nothing_behind() {
    let _sockets = sockets();
    run_bounded("tcp session end on the pump".to_string(), || {
        let server = server_for(registry::by_name("list-rw").unwrap());
        let handle = server.serve_tcp("127.0.0.1:0").expect("bind loopback");
        // A session's first poll is a pool worker's; a few round trips in,
        // every frame finds it suspended and the pump polls it.
        let settled = |name: &str, slot: u64| {
            let mut client = Client::connect_tcp(handle.addr()).unwrap();
            client.hello(name).unwrap();
            for _ in 0..20 {
                assert!(client
                    .try_lock("/end", slot_range(slot), LockMode::Exclusive)
                    .unwrap());
                client.unlock("/end", slot_range(slot)).unwrap();
            }
            client
        };

        // `Bye` while holding: released, but not a disconnect.
        let mut polite = settled("polite", 0);
        polite
            .lock("/end", slot_range(0), LockMode::Exclusive)
            .unwrap();
        polite.bye().unwrap();

        // Protocol hang-up: answered with a typed error, then EOF.
        let mut rude = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = wire::FrameWriter::new();
        let mut reader = wire::FrameReader::new();
        let hello = Request::Hello {
            name: "rude".to_string(),
        };
        for _ in 0..20 {
            writer
                .write(&mut rude, |out| wire::encode_request_into(&hello, out))
                .unwrap();
            let frame = reader.read_frame(&mut rude).unwrap().unwrap();
            assert_eq!(wire::decode_reply(frame).unwrap(), Reply::Ok);
        }
        writer
            .write(&mut rude, |out| out.extend_from_slice(&[0xFF, 0xEE, 0xDD]))
            .unwrap();
        let frame = reader.read_frame(&mut rude).unwrap().unwrap();
        assert!(matches!(
            wire::decode_reply(frame).unwrap(),
            Reply::Err {
                code: ErrCode::Protocol,
                ..
            }
        ));
        assert!(
            reader.read_frame(&mut rude).unwrap().is_none(),
            "the server hangs up after a protocol error"
        );

        // Killed while holding: the range is freed and counted.
        let mut victim = settled("victim", 1);
        victim
            .lock("/end", slot_range(1), LockMode::Exclusive)
            .unwrap();
        victim.kill();

        // Both slots are free again — which also waits out the teardowns.
        let mut after = settled("after", 2);
        for slot in [0, 1] {
            after
                .lock("/end", slot_range(slot), LockMode::Exclusive)
                .unwrap();
        }
        after.bye().unwrap();

        // Nothing joins a detached pump or waits for a worker's teardown of
        // the killed session: these are asynchronous exits, so they get a
        // longer window than a `/proc` entry outliving a join does.
        assert!(
            settles(5000, || server.stats().sessions_active == 0),
            "a session outlived its connection"
        );
        assert!(
            settles(5000, || pump_threads() == 0),
            "a pump outlived its session"
        );
        handle.stop();
        let stats = server.shutdown();
        assert_eq!(stats.sessions_started, 4);
        assert_eq!(stats.sessions_active, 0);
        assert_eq!(stats.protocol_errors, 1);
        assert_eq!(stats.disconnects, 2, "the hang-up and the kill");
        assert_eq!(stats.disconnect_releases, 1);
        assert_eq!(stats.ranges_freed_on_disconnect, 1, "the victim's slot");
    });
}

/// The price of the pump polling its own session: the session's reply
/// `write` blocks the pump, so a client that pipelines requests and does
/// not read stops its own connection being served once the socket buffers
/// are full of replies. This pins down how far that goes. The stall is that
/// connection's alone — other sockets and in-process clients are served
/// while it lasts; it ends the moment the client reads, every reply
/// arriving whole and in order; and a client that hangs up instead fails
/// the blocked `write`, which ends the session on its pump and frees what
/// it held.
///
/// The requests are small and the replies large, so the client never blocks
/// writing. A client whose *requests* also outgrow the socket buffers while
/// it reads nothing deadlocks against itself (there is no unbounded inbox
/// behind the socket to absorb them); that one is documented in DESIGN.md,
/// not tested.
#[test]
fn a_tcp_client_that_stops_reading_stalls_only_its_own_connection() {
    const READS: usize = 512;
    const READ_LEN: usize = 60 * 1024;
    let _sockets = sockets();
    run_bounded("tcp client that stops reading".to_string(), || {
        let server = server_for(registry::by_name("list-rw").unwrap());
        let handle = server.serve_tcp("127.0.0.1:0").expect("bind loopback");
        let pattern: Vec<u8> = (0..READS + READ_LEN).map(|i| (i % 251) as u8).collect();
        let mut seed = Client::connect_tcp(handle.addr()).unwrap();
        seed.write("/big", 0, &pattern).unwrap();
        seed.bye().unwrap();

        // A raw socket that holds `slot`, has been polled by its pump for a
        // while, and then bursts READS large reads without reading a reply.
        // Returns once the server has stopped making progress on them.
        let stalled = |name: &str, slot: u64| {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            let mut writer = wire::FrameWriter::new();
            let mut reader = wire::FrameReader::new();
            let hello = Request::Hello {
                name: name.to_string(),
            };
            let lock = Request::Lock {
                path: "/big".to_string(),
                start: slot_range(slot).start,
                end: slot_range(slot).end,
                mode: LockMode::Exclusive,
            };
            for req in std::iter::repeat_n(&hello, 20).chain([&lock]) {
                writer
                    .write(&mut stream, |out| wire::encode_request_into(req, out))
                    .unwrap();
                let frame = reader.read_frame(&mut stream).unwrap().unwrap();
                assert_eq!(wire::decode_reply(frame).unwrap(), Reply::Ok);
            }
            let before = server.stats().op_count(OpKind::Read);
            let mut burst = Vec::new();
            for i in 0..READS {
                let req = Request::Read {
                    path: "/big".to_string(),
                    offset: i as u64,
                    len: READ_LEN as u32,
                };
                writer
                    .write(&mut burst, |out| wire::encode_request_into(&req, out))
                    .unwrap();
            }
            stream.write_all(&burst).unwrap();
            // Requests are counted on receipt; the count stands still once
            // the reply in flight no longer fits the socket buffers.
            let served = || (server.stats().op_count(OpKind::Read) - before) as usize;
            let mut last = (0, 0);
            assert!(
                settles(10_000, || {
                    last = if served() == last.0 {
                        (last.0, last.1 + 1)
                    } else {
                        (served(), 0)
                    };
                    last.0 > 0 && last.1 >= 200
                }),
                "the burst never came to rest"
            );
            assert!(
                served() < READS,
                "the socket buffers took {READS} replies; raise READS"
            );
            (stream, reader)
        };

        let (mut greedy, mut reader) = stalled("greedy", 0);
        // Everyone else is served meanwhile, on sockets and in process.
        let mut tcp = Client::connect_tcp(handle.addr()).unwrap();
        let mut local = server.connect();
        for (client, slot) in [(&mut tcp, 1), (&mut local, 2)] {
            client.hello("bystander").unwrap();
            client
                .lock("/big", slot_range(slot), LockMode::Exclusive)
                .unwrap();
            assert_eq!(client.read("/big", 7, 4).unwrap(), pattern[7..11]);
            client.unlock("/big", slot_range(slot)).unwrap();
            assert!(!client
                .try_lock("/big", slot_range(0), LockMode::Shared)
                .unwrap());
        }
        tcp.bye().unwrap();
        local.bye().unwrap();

        // Reading is all it takes: every reply, whole and in order.
        for i in 0..READS {
            let frame = reader.read_frame(&mut greedy).unwrap().unwrap();
            match wire::decode_reply(frame).unwrap() {
                Reply::Data(data) => assert!(data == pattern[i..i + READ_LEN], "reply {i}"),
                other => panic!("reply {i}: {other:?}"),
            }
        }
        let mut writer = wire::FrameWriter::new();
        writer
            .write(&mut greedy, |out| {
                wire::encode_request_into(&Request::Bye, out)
            })
            .unwrap();
        let frame = reader.read_frame(&mut greedy).unwrap().unwrap();
        assert_eq!(wire::decode_reply(frame).unwrap(), Reply::Ok);
        assert!(reader.read_frame(&mut greedy).unwrap().is_none());

        // Hanging up instead fails the blocked write: the session ends on
        // its pump and slot 3 comes free with no one reading anything.
        let (quitter, _) = stalled("quitter", 3);
        drop(quitter);
        let mut after = Client::connect_tcp(handle.addr()).unwrap();
        for slot in [0, 3] {
            after
                .lock("/big", slot_range(slot), LockMode::Exclusive)
                .unwrap();
        }
        after.bye().unwrap();

        assert!(
            settles(5000, || server.stats().sessions_active == 0),
            "a session outlived its connection"
        );
        assert!(
            settles(5000, || pump_threads() == 0),
            "a pump outlived its session"
        );
        handle.stop();
        let stats = server.shutdown();
        assert_eq!(stats.sessions_started, 6);
        assert_eq!(stats.protocol_errors, 0);
        assert_eq!(stats.disconnects, 1, "the quitter");
        assert_eq!(stats.ranges_freed_on_disconnect, 1, "the quitter's slot");
    });
}

/// Disconnect beats a wait over TCP too. The victim holds slot 1 and its
/// session is suspended acquiring slot 0 — not reading its inbox — when
/// the victim's socket dies. Only the pump can notice; it must close the
/// inbox, which cancels the acquisition and frees slot 1 while slot 0 is
/// still held, so nothing else could have ended that wait.
#[test]
fn tcp_client_killed_while_its_session_waits_frees_its_ranges() {
    let _sockets = sockets();
    run_bounded("tcp kill mid-wait".to_string(), || {
        let server = server_for(registry::by_name("list-rw").unwrap());
        let handle = server.serve_tcp("127.0.0.1:0").expect("bind loopback");

        let mut holder = Client::connect_tcp(handle.addr()).unwrap();
        holder.hello("holder").unwrap();
        holder
            .lock("/w", slot_range(0), LockMode::Exclusive)
            .unwrap();

        // The victim is a raw socket, so the test can cut it while its
        // second request is pending.
        let mut victim = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = wire::FrameWriter::new();
        for slot in [1, 0] {
            let req = Request::Lock {
                path: "/w".to_string(),
                start: slot_range(slot).start,
                end: slot_range(slot).end,
                mode: LockMode::Exclusive,
            };
            writer
                .write(&mut victim, |out| wire::encode_request_into(&req, out))
                .unwrap();
        }
        let mut reader = wire::FrameReader::new();
        let granted = reader.read_frame(&mut victim).unwrap().unwrap();
        assert_eq!(wire::decode_reply(granted).unwrap(), Reply::Ok);
        // Requests are counted on receipt: at three Locks the session has
        // reached the one it suspends in, behind the holder.
        while server.stats().op_count(OpKind::Lock) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(victim);

        let mut after = Client::connect_tcp(handle.addr()).unwrap();
        after.hello("after").unwrap();
        after
            .lock("/w", slot_range(1), LockMode::Exclusive)
            .unwrap();
        after.bye().unwrap();
        holder.bye().unwrap();
        handle.stop();
        let stats = server.shutdown();
        assert_eq!(stats.disconnects, 1);
        assert_eq!(stats.disconnect_releases, 1);
        assert_eq!(stats.ranges_freed_on_disconnect, 1);
    });
}

/// A `Conn::tcp` that is only ever consumed with `recv_blocking` reads its
/// socket on the caller's thread: no `rl-server-rx` pump exists until
/// somebody asks for the inbox.
#[test]
fn blocking_only_tcp_conn_spawns_no_pump_thread() {
    let _sockets = sockets();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (far, _) = listener.accept().unwrap();
    let (near, far) = (Conn::tcp(near).unwrap(), Conn::tcp(far).unwrap());
    assert!(pump_threads_settle_at(0), "earlier sessions are gone");

    let echo = std::thread::spawn(move || {
        while let Some(frame) = far.recv_blocking() {
            far.send(&frame).unwrap();
        }
    });
    for len in [0usize, 1, 4096, 100_000] {
        let frame = vec![len as u8; len];
        near.send(&frame).unwrap();
        assert_eq!(near.recv_blocking().unwrap(), frame);
    }
    assert_eq!(pump_threads(), 0, "blocking receives need no pump");

    // Asking for the inbox is what starts one — and it takes over
    // mid-stream without losing a frame.
    let inbox = near.inbox();
    assert!(
        pump_threads_settle_at(1),
        "the pump names itself once it runs"
    );
    near.send(b"after the switch").unwrap();
    assert_eq!(inbox.recv_blocking().unwrap(), b"after the switch");
    near.send(b"and through Conn").unwrap();
    assert_eq!(near.recv_blocking().unwrap(), b"and through Conn");

    drop(near);
    echo.join().unwrap();
    assert!(pump_threads_settle_at(0), "dropping the Conn ends its pump");
}
