//! One connection = one session: a named `LockOwner` per touched file,
//! driven as a single task on the `rl-exec` pool.
//!
//! The session loop is a plain request/reply automaton — receive a frame,
//! decode, execute, reply — with one twist: every *waiting* step (the
//! async lock acquisitions, and receive itself) is raced against the
//! connection's close notification. If the peer dies mid-wait, the race
//! resolves to [`Raced::Disconnected`], the pinned acquisition future is
//! dropped — which is a clean two-phase cancel: the pending waiter
//! deregisters from the lock's queue and the waits-for graph — and the
//! teardown path releases every range the session still holds via
//! `LockOwner::release_all`, counting what a dead client freed. Waiters
//! blocked on those ranges are woken by the release like any other.
//!
//! Data-plane operations (`Read`/`Write`/…) call the `FileStore` directly
//! on whichever thread is polling the session: their internal mandatory range locks are held
//! only for the copy itself (the same trade filebench makes), while all
//! *advisory* waiting happens in the async lock table. Like lock ranges,
//! data spans are validated at the trust boundary before they touch the
//! store: reads are capped at [`MAX_READ`] and every write/append/truncate
//! span must fit under the server's configured max file size, so no single
//! frame can make the paged store allocate unbounded memory.

use std::collections::HashMap;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use range_lock::Range;
use rl_file::{LockMode, LockOwner};
use rl_obs::trace;

use crate::server::{DynLock, ServerState};
use crate::stats::OpKind;
use crate::transport::{Conn, FrameQueue};
use crate::wire::{encode_reply_into, ErrCode, Reply, RequestView};

/// Outcome of racing a future against connection close.
enum Raced<T> {
    /// The future resolved first.
    Done(T),
    /// The connection closed first; the future was dropped (cancelled).
    Disconnected,
}

/// Future adapter backing the race: close notification beats completion.
struct UnlessClosed<'a, F> {
    rx: &'a FrameQueue,
    fut: Pin<&'a mut F>,
}

impl<F: Future> Future for UnlessClosed<'_, F> {
    type Output = Raced<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.rx.poll_closed(cx).is_ready() {
            return Poll::Ready(Raced::Disconnected);
        }
        match this.fut.as_mut().poll(cx) {
            Poll::Ready(out) => Poll::Ready(Raced::Done(out)),
            Poll::Pending => Poll::Pending,
        }
    }
}

fn unless_closed<'a, F: Future>(rx: &'a FrameQueue, fut: Pin<&'a mut F>) -> UnlessClosed<'a, F> {
    UnlessClosed { rx, fut }
}

/// Waker-based receive of the next request frame.
async fn recv(rx: &FrameQueue) -> Option<Vec<u8>> {
    std::future::poll_fn(|cx| rx.poll_recv(cx)).await
}

/// Sends a reply; `false` means the peer is gone and the session should
/// end.
fn send(conn: &Conn, reply: &Reply) -> bool {
    conn.send_with(|out| encode_reply_into(reply, out)).is_ok()
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Largest single `Read` the server will serve (matches the frame cap,
/// minus header room).
const MAX_READ: u32 = (crate::wire::MAX_FRAME - 64) as u32;

/// Validates a client-supplied byte range: well-formed, and — for the
/// segment-granular pnova variant, whose lock table layering requires
/// segment-aligned records — aligned to the server's segment size.
fn checked_range(state: &ServerState, start: u64, end: u64) -> Result<Range, String> {
    if start > end {
        return Err(format!("invalid range [{start}, {end})"));
    }
    if let Some(seg) = state.required_alignment() {
        if !start.is_multiple_of(seg) || !end.is_multiple_of(seg) || end > state.registry.span {
            return Err(format!(
                "{} requires {seg}-byte-aligned ranges within [0, {})",
                state.spec.name, state.registry.span
            ));
        }
    }
    Ok(Range::new(start, end))
}

/// Validates a data-plane span at the trust boundary: `[offset,
/// offset + len)` must fit under the server's configured max file size.
/// Without this, one hostile frame (`Write { offset: 1 << 60, .. }`,
/// `Truncate { len: u64::MAX }` followed by a tail read) would make the
/// store allocate pages for the whole span and OOM the server — the
/// bounded-memory guarantee `MAX_FRAME` gives the control plane, extended
/// to the data plane.
fn checked_file_span(state: &ServerState, offset: u64, len: u64) -> Result<(), String> {
    match offset.checked_add(len) {
        Some(end) if end <= state.max_file_size => Ok(()),
        _ => Err(format!(
            "data span [{offset}, {offset} + {len}) exceeds the {}-byte file-size cap",
            state.max_file_size
        )),
    }
}

/// Lazily creates the session's `LockOwner` for `path`.
fn owner_for<'a>(
    state: &Arc<ServerState>,
    owners: &'a mut HashMap<String, LockOwner<DynLock>>,
    path: &str,
    session: &str,
) -> &'a mut LockOwner<DynLock> {
    if !owners.contains_key(path) {
        let table = state.table_for(path);
        owners.insert(path.to_string(), table.owner(session.to_string()));
    }
    owners.get_mut(path).expect("just inserted")
}

/// Runs one session to completion. Spawned by `Server::attach`.
pub(crate) async fn run(state: Arc<ServerState>, conn: Conn) {
    let stats = Arc::clone(&state.stats);
    stats.sessions_started.fetch_add(1, Ordering::Relaxed);
    stats.sessions_active.fetch_add(1, Ordering::Relaxed);
    let actor = trace::next_actor_id();
    let mut name = format!("session-{actor}");
    trace::label_actor(actor, &name);

    let mut owners: HashMap<String, LockOwner<DynLock>> = HashMap::new();
    // Pessimistic: anything but a clean `Bye` is a disconnect.
    let mut disconnected = true;

    // Asking for the inbox is what makes a TCP connection start its pump.
    let inbox = conn.inbox();

    'session: loop {
        let Some(frame) = recv(inbox).await else {
            break; // peer hung up between requests
        };
        // Borrowed from `frame`: the path and the data are used in place.
        let req = match RequestView::decode(&frame) {
            Ok(req) => req,
            Err(err) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send(
                    &conn,
                    &Reply::Err {
                        code: ErrCode::Protocol,
                        message: err.to_string(),
                    },
                );
                break; // an undecodable peer gets hung up on
            }
        };
        let reply = match req {
            RequestView::Hello { name: n } => {
                if owners.is_empty() {
                    name = n.to_string();
                    trace::label_actor(actor, &name);
                    Reply::Ok
                } else {
                    // Owners capture the session name at creation; a rename
                    // now would leave EDEADLK cycle reports and traces
                    // attributed to the stale name.
                    protocol_err(&stats, "Hello must precede lock requests".to_string())
                }
            }
            RequestView::Bye => {
                disconnected = false;
                let _ = send(&conn, &Reply::Ok);
                break;
            }
            RequestView::Lock {
                path,
                start,
                end,
                mode,
            } => {
                stats.count_op(OpKind::Lock);
                match checked_range(&state, start, end) {
                    Err(message) => protocol_err(&stats, message),
                    Ok(range) => {
                        let started = Instant::now();
                        let outcome = {
                            let owner = owner_for(&state, &mut owners, path, &name);
                            let mut fut = pin!(owner.lock_async(range, mode));
                            unless_closed(inbox, fut.as_mut()).await
                        };
                        match outcome {
                            Raced::Disconnected => break 'session,
                            Raced::Done(Ok(())) => {
                                stats.lock_wait.record(elapsed_ns(started));
                                Reply::Ok
                            }
                            Raced::Done(Err(dead)) => {
                                stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                                Reply::Err {
                                    code: ErrCode::Deadlock,
                                    message: dead.to_string(),
                                }
                            }
                        }
                    }
                }
            }
            RequestView::TryLock {
                path,
                start,
                end,
                mode,
            } => {
                stats.count_op(OpKind::TryLock);
                match checked_range(&state, start, end) {
                    Err(message) => protocol_err(&stats, message),
                    Ok(range) => {
                        // The conflict decision never waits, but re-taking
                        // split edges (or rolling back a lost race) can: it
                        // suspends the task, and a dead socket cancels it.
                        let outcome = {
                            let owner = owner_for(&state, &mut owners, path, &name);
                            let mut fut = pin!(owner.try_lock_async(range, mode));
                            unless_closed(inbox, fut.as_mut()).await
                        };
                        match outcome {
                            Raced::Disconnected => break 'session,
                            Raced::Done(Ok(())) => Reply::Ok,
                            Raced::Done(Err(wb)) => {
                                stats.would_blocks.fetch_add(1, Ordering::Relaxed);
                                Reply::Err {
                                    code: ErrCode::WouldBlock,
                                    message: wb.to_string(),
                                }
                            }
                        }
                    }
                }
            }
            RequestView::LockMany { path, items } => {
                stats.count_op(OpKind::LockMany);
                match checked_batch(&state, &items) {
                    Err(message) => protocol_err(&stats, message),
                    Ok(batch) => {
                        let started = Instant::now();
                        let outcome = {
                            let owner = owner_for(&state, &mut owners, path, &name);
                            let mut fut = pin!(owner.lock_many_async(&batch));
                            unless_closed(inbox, fut.as_mut()).await
                        };
                        match outcome {
                            Raced::Disconnected => break 'session,
                            Raced::Done(Ok(())) => {
                                stats.lock_wait.record(elapsed_ns(started));
                                Reply::Ok
                            }
                            Raced::Done(Err(dead)) => {
                                stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                                Reply::Err {
                                    code: ErrCode::Deadlock,
                                    message: dead.to_string(),
                                }
                            }
                        }
                    }
                }
            }
            RequestView::Unlock { path, start, end } => {
                stats.count_op(OpKind::Unlock);
                match checked_range(&state, start, end) {
                    Err(message) => protocol_err(&stats, message),
                    Ok(range) => {
                        // Unlocking can wait too (re-securing the retained
                        // edges of a split), so it is raced like a lock.
                        let outcome = {
                            let owner = owner_for(&state, &mut owners, path, &name);
                            let mut fut = pin!(owner.unlock_async(range));
                            unless_closed(inbox, fut.as_mut()).await
                        };
                        match outcome {
                            Raced::Disconnected => break 'session,
                            Raced::Done(()) => Reply::Ok,
                        }
                    }
                }
            }
            RequestView::Read { path, offset, len } => {
                stats.count_op(OpKind::Read);
                if len > MAX_READ {
                    protocol_err(&stats, format!("read of {len} bytes exceeds {MAX_READ}"))
                } else {
                    let started = Instant::now();
                    let file = state.store.open(path);
                    let mut buf = vec![0u8; len as usize];
                    let n = file.pread(offset, &mut buf);
                    buf.truncate(n);
                    stats.io_wait.record(elapsed_ns(started));
                    Reply::Data(buf)
                }
            }
            RequestView::Write { path, offset, data } => {
                stats.count_op(OpKind::Write);
                match checked_file_span(&state, offset, data.len() as u64) {
                    Err(message) => protocol_err(&stats, message),
                    Ok(()) => {
                        let started = Instant::now();
                        let file = state.store.open(path);
                        file.pwrite(offset, data);
                        stats.io_wait.record(elapsed_ns(started));
                        Reply::Ok
                    }
                }
            }
            RequestView::Append { path, data } => {
                stats.count_op(OpKind::Append);
                let file = state.store.open(path);
                // The length check races concurrent appenders, but each
                // passing request adds at most one frame of data, so the
                // overshoot stays bounded by sessions × MAX_FRAME — the
                // guarantee is bounded memory, not an exact cut.
                match checked_file_span(&state, file.len(), data.len() as u64) {
                    Err(message) => protocol_err(&stats, message),
                    Ok(()) => {
                        let started = Instant::now();
                        let offset = file.append(data);
                        stats.io_wait.record(elapsed_ns(started));
                        Reply::Offset(offset)
                    }
                }
            }
            RequestView::Truncate { path, len } => {
                stats.count_op(OpKind::Truncate);
                match checked_file_span(&state, len, 0) {
                    Err(message) => protocol_err(&stats, message),
                    Ok(()) => {
                        let started = Instant::now();
                        let file = state.store.open(path);
                        file.truncate(len);
                        stats.io_wait.record(elapsed_ns(started));
                        Reply::Ok
                    }
                }
            }
        };
        let hang_up = matches!(
            reply,
            Reply::Err {
                code: ErrCode::Protocol,
                ..
            }
        );
        if !send(&conn, &reply) || hang_up {
            break;
        }
    }

    // Teardown: count and release whatever the session still holds. This
    // runs on *every* exit path — clean Bye (usually zero ranges left, but
    // clients may Bye while holding), protocol hang-up, and disconnect —
    // and it is what unblocks waiters queued behind a dead session.
    let mut freed = 0usize;
    for (_, mut owner) in owners.drain() {
        freed += owner.release_all();
    }
    if disconnected {
        stats.disconnects.fetch_add(1, Ordering::Relaxed);
        if freed > 0 {
            stats.disconnect_releases.fetch_add(1, Ordering::Relaxed);
            stats
                .ranges_freed_on_disconnect
                .fetch_add(freed as u64, Ordering::Relaxed);
            // The session-level cancel event: a disconnect released held
            // ranges without a client unlock.
            trace::emit(rl_obs::EventKind::Cancelled, 0, actor, 0, freed as u64);
        }
    }
    stats.sessions_active.fetch_sub(1, Ordering::Relaxed);
    conn.close();
}

/// Counts and builds a `Protocol` error reply.
fn protocol_err(stats: &crate::stats::ServerStats, message: String) -> Reply {
    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    Reply::Err {
        code: ErrCode::Protocol,
        message,
    }
}

/// Validates a `LockMany` batch: every range well-formed and aligned, and
/// pairwise disjoint (the lock table treats overlapping batch items as a
/// caller bug, so the server screens them at the trust boundary).
fn checked_batch(
    state: &ServerState,
    items: &[(u64, u64, LockMode)],
) -> Result<Vec<(Range, LockMode)>, String> {
    let mut batch = Vec::with_capacity(items.len());
    for &(start, end, mode) in items {
        batch.push((checked_range(state, start, end)?, mode));
    }
    let mut sorted: Vec<Range> = batch.iter().map(|(r, _)| *r).collect();
    sorted.sort_by_key(|r| r.start);
    for pair in sorted.windows(2) {
        if pair[0].end > pair[1].start {
            return Err(format!(
                "batch items [{}, {}) and [{}, {}) overlap",
                pair[0].start, pair[0].end, pair[1].start, pair[1].end
            ));
        }
    }
    Ok(batch)
}
