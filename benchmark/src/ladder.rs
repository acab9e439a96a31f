//! The outside-in cost ladder: the op streams of `core-solo`, `srv-duplex`
//! and `srv-tcp` replayed single-threaded against each lower rung's public
//! API, one rung at a time, under the same period loop and calibrator as the
//! workloads. A rung's value is the calibrated mean time of one op (1e9 ÷
//! ops/s, median over periods) — ops this short cannot be timed one by one.
//!
//! For `srv-duplex`:
//!   op_p50 ≈ 3·server.transport_rtt_ns + server.wire_codec_ns
//!          + file.table_op_ns + file.store_io_ns + server.session_residual_ns
//! and for `srv-tcp` the same with `server.tcp_rtt_ns` and the `_4k` rungs.
//! The residual is what only in-program spans can split later.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use range_lock::{DynRwRangeLock, Range, RwListRangeLock};
use rl_baselines::registry::{self, RegistryConfig};
use rl_exec::TaskPool;
use rl_file::{FileStore, LockMode, LockTable, RangeFile};
use rl_server::wire::{decode_reply, decode_request, encode_reply, encode_request};
use rl_server::{Conn, Reply, Request};
use rl_sync::wait::{Block, WaitPolicyKind};
use rl_vm::{Mm, Protection, Strategy, PAGE_SIZE};

use crate::drive::{drive, summarize, Sampling, Schedule};
use crate::opstream::{self, Op, STREAM_LEN};
use crate::span::Tracer;
use crate::sys;
use crate::workloads::{paths, DUPLEX_MIX, SOLO_MIX, TCP_MIX};

const WARMUP: u32 = 1;
const MEASURED: u32 = 5;
/// Ops whose frames the transport rungs pre-encode and cycle through.
const FRAMED_OPS: usize = 1024;

/// Calibrated mean ns per op of `op` run alone on this thread.
fn rung(time_every: u32, op: impl FnMut(u64, &mut Tracer) -> bool) -> Result<f64, String> {
    let sched = Schedule::starting_now(WARMUP, MEASURED);
    let sampling = Sampling {
        time_every,
        trace_every: 0,
    };
    let log = drive(&sched, 0, sampling, op);
    let summary = summarize(&[log.periods], WARMUP as usize);
    if summary.failed > 0 || summary.ops_per_s <= 0.0 {
        return Err(format!(
            "{} of {} rung ops failed",
            summary.failed, summary.attempted
        ));
    }
    Ok(1e9 / summary.ops_per_s)
}

fn solo_stream(seed: u64) -> Vec<Op> {
    opstream::generate(seed, 0, SOLO_MIX)
}

/// The `srv-duplex` (256 B) or `srv-tcp` (4 KiB) stream.
fn client_stream(seed: u64, io: usize) -> Vec<Op> {
    opstream::generate(seed, 0, if io == 256 { DUPLEX_MIX } else { TCP_MIX })
}

fn list_rw() -> Result<&'static registry::VariantSpec, String> {
    registry::by_name("list-rw").ok_or_else(|| "list-rw is not registered".to_string())
}

fn lock_rungs(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let ops = solo_stream(seed);
    let range = |op: Op| Range::new(u64::from(op.slot) * 4096, u64::from(op.slot + 1) * 4096);
    let lock = RwListRangeLock::<Block>::with_policy();
    let static_ns = rung(16, |n, _| {
        let op = ops[n as usize % STREAM_LEN];
        if op.write {
            drop(lock.write(range(op)));
        } else {
            drop(lock.read(range(op)));
        }
        true
    })?;
    let lock: Box<dyn DynRwRangeLock> =
        list_rw()?.build(WaitPolicyKind::Block, &RegistryConfig::default());
    let dyn_ns = rung(16, |n, _| {
        let op = ops[n as usize % STREAM_LEN];
        if op.write {
            drop(lock.write_dyn(range(op)));
        } else {
            drop(lock.read_dyn(range(op)));
        }
        true
    })?;
    Ok(vec![
        ("core.static_op_ns", static_ns),
        ("baselines.dyn_op_ns", dyn_ns),
        ("baselines.dyn_tax_ns", dyn_ns - static_ns),
    ])
}

fn file_rungs(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let spec = list_rw()?;
    let config = RegistryConfig::default();
    // One table per path, as the server keeps them.
    let ops = client_stream(seed, 256);
    let mut owners: Vec<_> = (0..8)
        .map(|_| {
            Arc::new(LockTable::new(
                spec.build_twophase(WaitPolicyKind::Block, &config),
            ))
            .owner("rung")
        })
        .collect();
    let table_ns = rung(1, |n, _| {
        let op = ops[n as usize % STREAM_LEN];
        let range = Range::new(u64::from(op.slot) * 256, u64::from(op.slot + 1) * 256);
        let mode = if op.write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        let owner = &mut owners[usize::from(op.path)];
        let ok = owner.lock(range, mode).is_ok();
        owner.unlock(range);
        ok
    })?;

    let paths = paths();
    let mut out = vec![("file.table_op_ns", table_ns)];
    for (name, io) in [
        ("file.store_io_ns", 256usize),
        ("file.store_io_ns_4k", 4096),
    ] {
        let ops = client_stream(seed, io);
        let store =
            FileStore::new(move || RangeFile::new(spec.build(WaitPolicyKind::Block, &config)));
        for path in &paths {
            store.open(path).pwrite(0, &vec![1u8; 64 * io]);
        }
        let mut buf = vec![0u8; io];
        let ns = rung(1, |n, _| {
            let op = ops[n as usize % STREAM_LEN];
            let file = store.open(&paths[usize::from(op.path)]);
            let offset = u64::from(op.slot) * io as u64;
            if op.write {
                buf.fill(op.tag);
                file.pwrite(offset, &buf);
                true
            } else {
                file.pread(offset, &mut buf) == io
            }
        })?;
        out.push((name, ns));
    }
    Ok(out)
}

fn exec_rung() -> Result<Vec<(&'static str, f64)>, String> {
    let pool = TaskPool::new(2);
    let ns = rung(1, |n, _| pool.spawn(async move { n }).join() == n)?;
    pool.shutdown();
    Ok(vec![("exec.hop_ns", ns)])
}

/// The three requests of one client op and the replies they draw.
fn rpcs(op: Op, path: &str, io: usize) -> [(Request, Reply); 3] {
    let (start, end) = (
        u64::from(op.slot) * io as u64,
        u64::from(op.slot + 1) * io as u64,
    );
    let path = || path.to_string();
    let lock = Request::Lock {
        path: path(),
        start,
        end,
        mode: if op.write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        },
    };
    let io_rpc = if op.write {
        let data = vec![op.tag; io];
        (
            Request::Write {
                path: path(),
                offset: start,
                data,
            },
            Reply::Ok,
        )
    } else {
        let req = Request::Read {
            path: path(),
            offset: start,
            len: io as u32,
        };
        (req, Reply::Data(vec![op.tag; io]))
    };
    let unlock = Request::Unlock {
        path: path(),
        start,
        end,
    };
    [(lock, Reply::Ok), io_rpc, (unlock, Reply::Ok)]
}

fn codec_rung(seed: u64, io: usize) -> Result<f64, String> {
    let ops = client_stream(seed, io);
    let paths = paths();
    let messages: Vec<_> = ops[..FRAMED_OPS]
        .iter()
        .map(|op| rpcs(*op, &paths[usize::from(op.path)], io))
        .collect();
    rung(1, |n, _| {
        messages[n as usize % FRAMED_OPS]
            .iter()
            .all(|(req, reply)| {
                decode_request(&encode_request(req)).as_ref() == Ok(req)
                    && decode_reply(&encode_reply(reply)).as_ref() == Ok(reply)
            })
    })
}

/// Round trips of the op's three frames against a peer thread that answers
/// each with a frame of the reply's size; the value is per round trip.
fn rtt_rung(seed: u64, io: usize, (near, far): (Conn, Conn)) -> Result<f64, String> {
    let ops = client_stream(seed, io);
    let paths = paths();
    let frames: Vec<(Vec<u8>, usize)> = ops[..FRAMED_OPS]
        .iter()
        .flat_map(|op| rpcs(*op, &paths[usize::from(op.path)], io))
        .map(|(req, reply)| (encode_request(&req), encode_reply(&reply).len()))
        .collect();
    let reply_lens: Vec<usize> = frames.iter().map(|(_, len)| *len).collect();
    let peer = std::thread::spawn(move || {
        let payload = vec![0u8; reply_lens.iter().copied().max().unwrap_or(0)];
        for i in 0.. {
            if far.recv_blocking().is_none() {
                break;
            }
            if far
                .send(&payload[..reply_lens[i % reply_lens.len()]])
                .is_err()
            {
                break;
            }
        }
    });
    let mut next = 0;
    let per_op = rung(1, |_, _| {
        (0..3).all(|_| {
            let (frame, reply_len) = &frames[next % frames.len()];
            next += 1;
            near.send(frame).is_ok() && near.recv_blocking().is_some_and(|r| r.len() == *reply_len)
        })
    });
    drop(near);
    peer.join().map_err(|_| "the echo peer panicked")?;
    Ok(per_op? / 3.0)
}

fn tcp_pair() -> Result<(Conn, Conn), String> {
    let err = |e: std::io::Error| format!("loopback socket pair: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let near = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
    let (far, _) = listener.accept().map_err(err)?;
    near.set_nodelay(true).map_err(err)?;
    far.set_nodelay(true).map_err(err)?;
    Ok((Conn::tcp(near).map_err(err)?, Conn::tcp(far).map_err(err)?))
}

fn server_rungs(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    Ok(vec![
        ("server.wire_codec_ns", codec_rung(seed, 256)?),
        ("server.wire_codec_ns_4k", codec_rung(seed, 4096)?),
        (
            "server.transport_rtt_ns",
            rtt_rung(seed, 256, Conn::pair())?,
        ),
        ("server.tcp_rtt_ns", rtt_rung(seed, 4096, tcp_pair()?)?),
    ])
}

fn vm_rungs() -> Result<Vec<(&'static str, f64)>, String> {
    const PAGES: u64 = 16;
    let err = |e| format!("vm rung set-up: {e:?}");
    let mm = Mm::new(Strategy::LIST_REFINED);
    let base = mm.mmap(None, 64 << 20, Protection::NONE).map_err(err)?;
    mm.mprotect(base, PAGES * PAGE_SIZE, Protection::READ_WRITE)
        .map_err(err)?;
    let fault_ns = rung(16, |n, _| {
        mm.page_fault(base + n % PAGES * PAGE_SIZE, false).is_ok()
    })?;
    // Moving the READ_WRITE | NONE boundary one page out and back: the
    // arena's grow/trim, the case the speculative path exists for.
    let edge = base + PAGES * PAGE_SIZE;
    let mprotect_ns = rung(1, |n, _| {
        let prot = if n % 2 == 0 {
            Protection::READ_WRITE
        } else {
            Protection::NONE
        };
        mm.mprotect(edge, PAGE_SIZE, prot).is_ok()
    })?;
    let stats = mm.stats();
    if stats.speculation_success_rate() < 0.99 {
        return Err(format!(
            "vm.mprotect_ns left the speculative path: {stats:?}"
        ));
    }
    let map_ns = rung(1, |_, _| {
        mm.mmap(None, 16 * PAGE_SIZE, Protection::READ_WRITE)
            .and_then(|addr| mm.munmap(addr, 16 * PAGE_SIZE))
            .is_ok()
    })?;
    Ok(vec![
        ("vm.fault_ns", fault_ns),
        ("vm.mprotect_ns", mprotect_ns),
        ("vm.mmap_munmap_ns", map_ns),
    ])
}

/// Every rung, measured on one CPU (the regime the `srv-*` ops run in).
pub fn rungs(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    sys::pin_to_one_cpu(None)?;
    let mut out = lock_rungs(seed)?;
    out.extend(file_rungs(seed)?);
    out.extend(exec_rung()?);
    out.extend(server_rungs(seed)?);
    out.extend(vm_rungs()?);
    Ok(out)
}
