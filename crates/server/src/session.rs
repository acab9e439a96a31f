//! One connection = one session: a named `LockOwner` per touched file,
//! driven as a single task on the `rl-exec` pool.
//!
//! A session is split in two. [`SessionCore`] is everything but the
//! connection: it owns the path handles, the session name and trace actor,
//! the two histogram samplers, `Read`'s scratch buffer and the server state,
//! and it names no transport type and no executor.
//! - [`SessionCore::apply`] takes one request frame. It decodes and
//!   validates the request, resolves its path, and answers every op that
//!   does not touch the lock table: `Hello`, `Bye`, the four data-plane ops
//!   and every protocol error. A lock-plane op (`Lock`, `TryLock`,
//!   `LockMany`, `Unlock`) comes back as a [`LockOp`], plain data.
//! - [`SessionCore::wait`], the core's one `async fn`, runs a `LockOp` on
//!   the table's async driver and turns the outcome into a reply.
//! - [`SessionCore::finish`] is the teardown.
//!
//! [`run`] is the shell around it and only moves frames: receive, `apply`,
//! race a `wait` against the connection's close, send, recycle. The unit
//! tests below drive the core alone, with no thread, no `Conn` and no
//! executor.
//!
//! A session resolves each path it is sent once, to a *path handle* that
//! caches the path's `LockOwner` (created by the first lock-plane request on
//! it) and its `RangeFile` (opened by the first data-plane request). Every
//! later request on the path costs one hash-map lookup instead of the
//! table map's and the store's hash, shard mutex and `Arc` clone. A cached
//! file handle behaves like any open handle: were the path unlinked from
//! the `FileStore` — which no wire op can do — the session would keep
//! reading and writing the orphaned file, as a POSIX process keeps an
//! unlinked file it has open. Handles live as long as the session: its
//! memory grows by one handle (the path string, a map entry, an owner
//! and an `Arc`) per distinct path it has touched, on top of what the
//! table and the store already keep for that path.
//!
//! The reply to a request is encoded into the request's own frame, which
//! then travels back to the peer (in-process) or, over TCP, is handed to the
//! socket's pump to read the next request into; `Read` fills a scratch
//! buffer the core keeps. Both are given up rather than kept once one
//! large request grew them past 64 KiB.
//!
//! Every *waiting* step — a `wait`, and receive itself — is raced against
//! the connection's close notification. If the peer dies mid-wait, the race
//! resolves to [`Raced::Disconnected`] and the `wait` future is dropped,
//! which is a clean two-phase cancel: the pending waiter deregisters from
//! the lock's queue and the waits-for graph. `finish` then releases every
//! range the session still holds via `LockOwner::release_all`, counting
//! what a dead client freed. Waiters blocked on those ranges are woken by
//! the release like any other.
//!
//! Data-plane operations (`Read`/`Write`/…) call the `FileStore` directly
//! on whichever thread is polling the session: their internal mandatory range locks are held
//! only for the copy itself (the same trade filebench makes), while all
//! *advisory* waiting happens in the async lock table. Like lock ranges,
//! data spans are validated at the trust boundary before they touch the
//! store: reads are capped at [`MAX_READ`] and every write/append/truncate
//! span must fit under the server's configured max file size, so no single
//! frame can make the paged store allocate unbounded memory.
//!
//! The `lock_wait` and `io_wait` histograms are sampled: a session times
//! one lock grant (`Lock`, `LockMany`) in [`SAMPLE_EVERY`] and one
//! data-plane op (`Read`, `Write`, `Append`, `Truncate`) in as many, each
//! kind on its own countdown that starts by timing the session's first op.
//! An op left untimed reads no clock and records nothing: on a 2-vCPU
//! cloud VM the two clock reads of a timed op cost ≈ 100 ns, against
//! ≈ 500 ns for a whole in-process RPC. The histograms' counts are
//! therefore sample counts; every counter beside them, op totals (`ops`)
//! included, stays exact.

use std::collections::HashMap;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use range_lock::Range;
use rl_file::{LockMode, LockOwner, RangeFile};
use rl_obs::{trace, LatencyHistogram};

use crate::server::ServerState;
use crate::stats::OpKind;
use crate::transport::{recycle, Conn, FrameQueue};
use crate::wire::{decode_with, encode_reply_into, ErrCode, Reply, Request};

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

    /// A connection already closed wins without a poll of the future. A
    /// future that then completes needs no close notification; only one
    /// that has to wait registers for it, so an uncontended lock costs one
    /// atomic load here rather than a trip through the inbox's mutex.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.rx.is_closed() {
            return Poll::Ready(Raced::Disconnected);
        }
        match this.fut.as_mut().poll(cx) {
            Poll::Ready(out) => Poll::Ready(Raced::Done(out)),
            Poll::Pending if this.rx.poll_closed(cx).is_ready() => Poll::Ready(Raced::Disconnected),
            Poll::Pending => Poll::Pending,
        }
    }
}

fn unless_closed<'a, F: Future>(rx: &'a FrameQueue, fut: Pin<&'a mut F>) -> UnlessClosed<'a, F> {
    UnlessClosed { rx, fut }
}

/// Runs one session to completion: the transport shell around a
/// [`SessionCore`]. Spawned by `Server::attach`.
pub(crate) async fn run(state: Arc<ServerState>, conn: Conn) {
    let mut core = SessionCore::new(state);
    // Asking for the inbox is what makes a TCP connection start its pump.
    let inbox = conn.inbox();
    while let Some(mut frame) = std::future::poll_fn(|cx| inbox.poll_recv(cx)).await {
        let (reply, last) = match core.apply(&frame) {
            Step::Reply(reply) => (reply, false),
            Step::Close(reply) => (reply, true),
            Step::Wait(op) => match unless_closed(inbox, pin!(core.wait(op))).await {
                Raced::Done(reply) => (reply, false),
                Raced::Disconnected => break,
            },
        };
        // `false` means the peer is gone and the session should end.
        let sent = conn
            .send_in(&mut frame, |out| encode_reply_into(&reply, out))
            .is_ok();
        // Over TCP the frame is left here: the pump reads the next request
        // into it. In-process it is already on its way back to the peer.
        inbox.recycle(frame);
        core.recycle(reply);
        if !sent || last {
            break;
        }
    }
    core.finish();
    conn.close();
}

/// One op in this many of each histogram's kind is timed, per session;
/// the tracer keeps fast-path events at the same rate.
const SAMPLE_EVERY: u32 = 1 << rl_obs::RecorderConfig::DEFAULT_SAMPLE_SHIFT;

/// A session's countdown to its next timed op of one kind; see the
/// [module docs](self).
#[derive(Default)]
struct Sampler(u32);

impl Sampler {
    /// The clock at the start of the op if it is one to time, else `None`
    /// (and no clock read).
    fn start(&mut self) -> Option<Instant> {
        if self.0 == 0 {
            self.0 = SAMPLE_EVERY - 1;
            Some(Instant::now())
        } else {
            self.0 -= 1;
            None
        }
    }
}

/// Records the time since `started` into `hist`, for a timed op.
fn record_since(hist: &LatencyHistogram, started: Option<Instant>) {
    if let Some(since) = started {
        hist.record(u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
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

/// Validates a `LockMany` batch: every range well-formed and aligned, and
/// the non-empty ones pairwise disjoint (the lock table drops empty items
/// and treats overlapping ones as a caller bug, so the server screens them
/// at the trust boundary by the same rule).
fn checked_batch(
    state: &ServerState,
    items: &[(u64, u64, LockMode)],
) -> Result<Vec<(Range, LockMode)>, String> {
    let mut batch = Vec::with_capacity(items.len());
    for &(start, end, mode) in items {
        batch.push((checked_range(state, start, end)?, mode));
    }
    let mut sorted: Vec<Range> = batch
        .iter()
        .map(|(r, _)| *r)
        .filter(|r| !r.is_empty())
        .collect();
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

/// One path as this session knows it; see the [module docs](self).
#[derive(Default)]
struct PathHandle {
    owner: Option<LockOwner>,
    file: Option<Arc<RangeFile>>,
}

/// The session's path handles. The map holds indices rather than the
/// handles themselves so that a hit is one probe and the handle can still
/// be borrowed mutably afterwards.
#[derive(Default)]
struct Paths {
    index: HashMap<String, usize>,
    handles: Vec<PathHandle>,
}

impl Paths {
    fn handle(&mut self, path: &str) -> usize {
        match self.index.get(path) {
            Some(&at) => at,
            None => {
                self.index.insert(path.to_string(), self.handles.len());
                self.handles.push(PathHandle::default());
                self.handles.len() - 1
            }
        }
    }

    /// The index of the handle for `path`, whose `LockOwner` this creates
    /// on first use.
    fn owner(&mut self, state: &ServerState, path: &str, session: &str) -> usize {
        let at = self.handle(path);
        self.handles[at]
            .owner
            .get_or_insert_with(|| state.table_for(path).owner(session));
        at
    }

    /// The store's file at `path`, opened on first use.
    fn file(&mut self, state: &ServerState, path: &str) -> &RangeFile {
        let at = self.handle(path);
        self.handles[at]
            .file
            .get_or_insert_with(|| state.store.open(path))
    }
}

/// A lock-plane op that [`SessionCore::apply`] has validated and resolved
/// and that [`SessionCore::wait`] runs. Plain data: it borrows neither the
/// frame nor the core.
#[derive(Debug)]
pub(crate) struct LockOp {
    /// Index of the path handle whose owner runs the op.
    handle: usize,
    kind: LockKind,
    /// The clock at the start of a timed `Lock`/`LockMany`.
    started: Option<Instant>,
}

#[derive(Debug)]
enum LockKind {
    Lock(Range, LockMode),
    TryLock(Range, LockMode),
    LockMany(Vec<(Range, LockMode)>),
    Unlock(Range),
}

/// What the transport does after [`SessionCore::apply`].
#[derive(Debug)]
pub(crate) enum Step {
    /// Send the reply and receive the next request.
    Reply(Reply),
    /// Send the reply and end the session: after `Bye`, and after every
    /// protocol error (an undecodable or invalid request gets hung up on).
    Close(Reply),
    /// Send the reply [`SessionCore::wait`] gives for the op.
    Wait(LockOp),
}

/// A session without its connection; see the [module docs](self).
pub(crate) struct SessionCore {
    state: Arc<ServerState>,
    actor: u64,
    name: String,
    paths: Paths,
    /// What `Read` fills; lent to its reply until [`SessionCore::recycle`].
    scratch: Vec<u8>,
    lock_sampler: Sampler,
    io_sampler: Sampler,
    /// Whether the client said `Bye`; every other end is a disconnect.
    bye: bool,
}

impl SessionCore {
    /// A new session of `state`'s server, counted as started and active.
    pub(crate) fn new(state: Arc<ServerState>) -> SessionCore {
        state.stats.sessions_started.fetch_add(1, Ordering::Relaxed);
        state.stats.sessions_active.fetch_add(1, Ordering::Relaxed);
        let actor = trace::next_actor_id();
        let name = format!("session-{actor}");
        trace::label_actor(actor, &name);
        SessionCore {
            state,
            actor,
            name,
            paths: Paths::default(),
            scratch: Vec::new(),
            lock_sampler: Sampler::default(),
            io_sampler: Sampler::default(),
            bye: false,
        }
    }

    /// Decodes, validates and resolves one request frame, and answers it
    /// unless it is a lock-plane op.
    pub(crate) fn apply(&mut self, frame: &[u8]) -> Step {
        // Borrowed from `frame`: the path and the data are used in place.
        let step = match decode_with(frame, |s| s, |b| b) {
            Ok(req) => self.execute(req),
            Err(err) => Err(err.to_string()),
        };
        step.unwrap_or_else(|message| {
            self.state
                .stats
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            Step::Close(Reply::Err {
                code: ErrCode::Protocol,
                message,
            })
        })
    }

    /// [`SessionCore::apply`] for a decoded request; `Err` carries a
    /// protocol error's message.
    fn execute(&mut self, req: Request<&str, &[u8]>) -> Result<Step, String> {
        let state = &*self.state;
        let stats = &state.stats;
        let reply = match req {
            // Owners capture the session name at creation; a rename now
            // would leave EDEADLK cycle reports and traces attributed to
            // the stale name.
            Request::Hello { .. } if self.paths.handles.iter().any(|h| h.owner.is_some()) => {
                return Err("Hello must precede lock requests".to_string())
            }
            Request::Hello { name } => {
                self.name = name.to_string();
                trace::label_actor(self.actor, &self.name);
                Reply::Ok
            }
            Request::Bye => {
                self.bye = true;
                return Ok(Step::Close(Reply::Ok));
            }
            Request::Lock {
                path,
                start,
                end,
                mode,
            } => {
                stats.count_op(OpKind::Lock);
                let kind = LockKind::Lock(checked_range(state, start, end)?, mode);
                let started = self.lock_sampler.start();
                return Ok(self.lock_op(path, kind, started));
            }
            Request::TryLock {
                path,
                start,
                end,
                mode,
            } => {
                stats.count_op(OpKind::TryLock);
                let kind = LockKind::TryLock(checked_range(state, start, end)?, mode);
                return Ok(self.lock_op(path, kind, None));
            }
            Request::LockMany { path, items } => {
                stats.count_op(OpKind::LockMany);
                let kind = LockKind::LockMany(checked_batch(state, &items)?);
                let started = self.lock_sampler.start();
                return Ok(self.lock_op(path, kind, started));
            }
            Request::Unlock { path, start, end } => {
                stats.count_op(OpKind::Unlock);
                let kind = LockKind::Unlock(checked_range(state, start, end)?);
                return Ok(self.lock_op(path, kind, None));
            }
            Request::Read { path, offset, len } => {
                stats.count_op(OpKind::Read);
                if len > MAX_READ {
                    return Err(format!("read of {len} bytes exceeds {MAX_READ}"));
                }
                let started = self.io_sampler.start();
                let file = self.paths.file(state, path);
                // Sized by what the file holds, not by what was asked: a
                // 20-byte request for `MAX_READ` bytes of a 1-byte file
                // must not zero-fill 16 MiB.
                let held = file.len().saturating_sub(offset);
                self.scratch.resize(held.min(u64::from(len)) as usize, 0);
                let n = file.pread(offset, &mut self.scratch);
                self.scratch.truncate(n);
                record_since(&stats.io_wait, started);
                Reply::Data(std::mem::take(&mut self.scratch))
            }
            Request::Write { path, offset, data } => {
                stats.count_op(OpKind::Write);
                checked_file_span(state, offset, data.len() as u64)?;
                let started = self.io_sampler.start();
                self.paths.file(state, path).pwrite(offset, data);
                record_since(&stats.io_wait, started);
                Reply::Ok
            }
            Request::Append { path, data } => {
                stats.count_op(OpKind::Append);
                let file = self.paths.file(state, path);
                // The length check races concurrent appenders, but each
                // passing request adds at most one frame of data, so the
                // overshoot stays bounded by sessions × MAX_FRAME — the
                // guarantee is bounded memory, not an exact cut.
                checked_file_span(state, file.len(), data.len() as u64)?;
                let started = self.io_sampler.start();
                let offset = file.append(data);
                record_since(&stats.io_wait, started);
                Reply::Offset(offset)
            }
            Request::Truncate { path, len } => {
                stats.count_op(OpKind::Truncate);
                checked_file_span(state, len, 0)?;
                let started = self.io_sampler.start();
                self.paths.file(state, path).truncate(len);
                record_since(&stats.io_wait, started);
                Reply::Ok
            }
        };
        Ok(Step::Reply(reply))
    }

    /// Resolves a validated lock-plane op to the handle whose owner runs
    /// it; `started` is the clock of a grant to time.
    fn lock_op(&mut self, path: &str, kind: LockKind, started: Option<Instant>) -> Step {
        let handle = self.paths.owner(&self.state, path, &self.name);
        Step::Wait(LockOp {
            handle,
            kind,
            started,
        })
    }

    /// Runs a lock-plane op on the table's async driver. Any of the four
    /// can suspend: a `Lock`/`LockMany` behind a conflicting owner, and a
    /// `TryLock` or an `Unlock` while it re-takes the retained edges of a
    /// split (or a `TryLock` rolls back a lost race; its conflict decision
    /// itself never waits). Dropping the future is a clean two-phase
    /// cancel; see the [module docs](self).
    pub(crate) async fn wait(&mut self, op: LockOp) -> Reply {
        let stats = &self.state.stats;
        let owner = self.paths.handles[op.handle]
            .owner
            .as_mut()
            .expect("apply created the owner");
        let granted = match op.kind {
            LockKind::Lock(range, mode) => owner.lock_async(range, mode).await,
            LockKind::LockMany(batch) => owner.lock_many_async(&batch).await,
            LockKind::TryLock(range, mode) => {
                return match owner.try_lock_async(range, mode).await {
                    Ok(()) => Reply::Ok,
                    Err(wb) => {
                        stats.would_blocks.fetch_add(1, Ordering::Relaxed);
                        Reply::Err {
                            code: ErrCode::WouldBlock,
                            message: wb.to_string(),
                        }
                    }
                };
            }
            LockKind::Unlock(range) => {
                owner.unlock_async(range).await;
                return Reply::Ok;
            }
        };
        match granted {
            Ok(()) => {
                record_since(&stats.lock_wait, op.started);
                Reply::Ok
            }
            Err(dead) => {
                stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                Reply::Err {
                    code: ErrCode::Deadlock,
                    message: dead.to_string(),
                }
            }
        }
    }

    /// Takes back what a sent reply borrowed: `Read`'s scratch buffer.
    pub(crate) fn recycle(&mut self, reply: Reply) {
        if let Reply::Data(buf) = reply {
            self.scratch = buf;
            recycle(&mut self.scratch);
        }
    }

    /// Teardown: counts and releases whatever the session still holds. It
    /// runs at *every* end — clean `Bye` (usually nothing is left, but a
    /// client may `Bye` while holding), protocol hang-up and disconnect —
    /// and it is what unblocks waiters queued behind a dead session.
    pub(crate) fn finish(self) {
        let stats = &self.state.stats;
        let freed: usize = self
            .paths
            .handles
            .into_iter()
            .filter_map(|handle| handle.owner)
            .map(|mut owner| owner.release_all())
            .sum();
        if !self.bye {
            stats.disconnects.fetch_add(1, Ordering::Relaxed);
            if freed > 0 {
                stats.disconnect_releases.fetch_add(1, Ordering::Relaxed);
                stats
                    .ranges_freed_on_disconnect
                    .fetch_add(freed as u64, Ordering::Relaxed);
                // The session-level cancel event: a disconnect released
                // held ranges without a client unlock.
                trace::emit(rl_obs::EventKind::Cancelled, 0, self.actor, 0, freed as u64);
            }
        }
        stats.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::task::Waker;

    use rl_baselines::registry;

    use super::*;
    use crate::server::ServerConfig;
    use crate::wire::{decode_request, encode_request};

    type Req<'a> = Request<&'a str, &'a [u8]>;

    fn encoded(req: &Req) -> Vec<u8> {
        let mut out = Vec::new();
        req.encode_into(&mut out);
        out
    }

    fn state(config: ServerConfig) -> Arc<ServerState> {
        Arc::new(ServerState::new(&config))
    }

    /// Feeds one frame to `core` and polls a `Wait` once, with a waker
    /// that does nothing; a wait still pending is dropped, which cancels
    /// it. The reply (`None` for a dropped wait) and whether the session
    /// ends.
    fn feed(core: &mut SessionCore, frame: &[u8]) -> (Option<Reply>, bool) {
        match core.apply(frame) {
            Step::Reply(reply) => (Some(reply), false),
            Step::Close(reply) => (Some(reply), true),
            Step::Wait(op) => {
                let fut = pin!(core.wait(op));
                match fut.poll(&mut Context::from_waker(Waker::noop())) {
                    Poll::Ready(reply) => (Some(reply), false),
                    Poll::Pending => (None, false),
                }
            }
        }
    }

    /// [`feed`] for a request that is answered and keeps the session.
    fn answer(core: &mut SessionCore, req: Req) -> Reply {
        match feed(core, &encoded(&req)) {
            (Some(reply), false) => reply,
            other => panic!("{req:?} drew {other:?}"),
        }
    }

    fn code(reply: &Reply) -> Option<ErrCode> {
        match reply {
            Reply::Err { code, .. } => Some(*code),
            _ => None,
        }
    }

    fn lock(path: &str, start: u64, end: u64, mode: LockMode) -> Req<'_> {
        Request::Lock {
            path,
            start,
            end,
            mode,
        }
    }

    /// Every table `paths` names holds nothing and has nobody waiting.
    fn assert_tables_empty<'a>(state: &ServerState, paths: impl IntoIterator<Item = &'a str>) {
        for path in paths {
            let table = state.table_for(path);
            table.check_invariants();
            assert_eq!(table.held_records(), 0, "{path}");
            assert_eq!(table.waiting_owners(), 0, "{path}");
        }
    }

    #[test]
    fn every_op_runs_through_the_core() {
        use LockMode::{Exclusive, Shared};
        let state = state(ServerConfig::default());
        let (mut a, mut b) = (
            SessionCore::new(state.clone()),
            SessionCore::new(state.clone()),
        );
        assert_eq!(answer(&mut a, Request::Hello { name: "a" }), Reply::Ok);
        assert_eq!(a.name, "a");
        assert_eq!(answer(&mut a, lock("/f", 0, 64, Exclusive)), Reply::Ok);
        let try_lock = |start, end, mode| Request::TryLock {
            path: "/f",
            start,
            end,
            mode,
        };
        let busy = answer(&mut b, try_lock(0, 64, Shared));
        assert_eq!(code(&busy), Some(ErrCode::WouldBlock));
        assert_eq!(answer(&mut b, try_lock(64, 128, Exclusive)), Reply::Ok);
        // A blocking lock behind `a` stays pending, and dropping it leaves
        // nothing behind.
        let frame = encoded(&lock("/f", 0, 64, Shared));
        assert_eq!(feed(&mut b, &frame), (None, false));
        assert_eq!(state.table_for("/f").waiting_owners(), 0);
        let items = vec![(0, 8, Shared), (16, 32, Exclusive)];
        let many = Request::LockMany { path: "/g", items };
        assert_eq!(answer(&mut a, many), Reply::Ok);

        let data = b"hello".as_slice();
        let write = Request::Write {
            path: "/f",
            offset: 0,
            data,
        };
        assert_eq!(answer(&mut a, write), Reply::Ok);
        let append = Request::Append {
            path: "/f",
            data: b"!".as_slice(),
        };
        assert_eq!(answer(&mut a, append), Reply::Offset(5));
        let read = Request::Read {
            path: "/f",
            offset: 0,
            len: 16,
        };
        assert_eq!(
            answer(&mut a, read.clone()),
            Reply::Data(b"hello!".to_vec())
        );
        let truncate = Request::Truncate { path: "/f", len: 2 };
        assert_eq!(answer(&mut a, truncate), Reply::Ok);
        let reply = answer(&mut a, read);
        assert_eq!(reply, Reply::Data(b"he".to_vec()));
        a.recycle(reply);
        assert!(a.scratch.capacity() >= 2, "the scratch buffer came back");

        let unlock = Request::Unlock {
            path: "/f",
            start: 0,
            end: 64,
        };
        assert_eq!(answer(&mut a, unlock), Reply::Ok);
        assert_eq!(answer(&mut b, lock("/f", 0, 64, Shared)), Reply::Ok);
        let bye = feed(&mut a, &encoded(&Req::Bye));
        assert_eq!(bye, (Some(Reply::Ok), true));
        a.finish();
        b.finish();

        let stats = state.stats.snapshot();
        let counts = OpKind::ALL.map(|kind| stats.op_count(kind));
        // lock, try_lock, lock_many, unlock, read, write, append, truncate
        assert_eq!(counts, [3, 2, 1, 1, 2, 1, 1, 1]);
        assert_eq!(stats.would_blocks, 1);
        assert_eq!((stats.protocol_errors, stats.deadlocks), (0, 0));
        assert_eq!((stats.sessions_started, stats.sessions_active), (2, 0));
        // `b` ended without `Bye`, holding two records.
        assert_eq!(stats.disconnects, 1);
        assert_eq!(stats.ranges_freed_on_disconnect, 2);
        // Each session times its first grant and its first data-plane op;
        // `b`'s timed lock was the one it dropped.
        assert_eq!((stats.lock_wait.count(), stats.io_wait.count()), (1, 1));
        assert_tables_empty(&state, ["/f", "/g"]);
    }

    #[test]
    fn every_protocol_error_closes_the_session() {
        let cap = 4096;
        let small = state(ServerConfig {
            max_file_size: cap,
            ..ServerConfig::default()
        });
        let pnova = state(ServerConfig {
            variant: registry::by_name("pnova-rw").unwrap(),
            ..ServerConfig::default()
        });
        let seg = pnova.required_alignment().unwrap();
        let full = vec![0u8; cap as usize];
        let bad = |path, start, end| lock(path, start, end, LockMode::Exclusive);
        let mut undecodable = encoded(&bad("/p", 0, 8));
        undecodable.pop();
        // A session with `setup` behind it is sent `frame`.
        let mut cases: Vec<(&Arc<ServerState>, Vec<Req>, Vec<u8>)> =
            vec![(&small, vec![], vec![0xff]), (&small, vec![], undecodable)];
        let requests: [(&Arc<ServerState>, Vec<Req>, Req); 8] = [
            (&small, vec![], bad("/p", 64, 0)),
            (&pnova, vec![bad("/p", 0, seg)], bad("/p", 1, seg)),
            (
                &small,
                vec![],
                Request::LockMany {
                    path: "/p",
                    items: vec![(0, 64, LockMode::Shared), (32, 96, LockMode::Shared)],
                },
            ),
            (
                &small,
                vec![],
                Request::Read {
                    path: "/p",
                    offset: 0,
                    len: MAX_READ + 1,
                },
            ),
            (
                &small,
                vec![],
                Request::Write {
                    path: "/p",
                    offset: cap - 1,
                    data: b"ab",
                },
            ),
            (
                &small,
                vec![Request::Write {
                    path: "/full",
                    offset: 0,
                    data: &full,
                }],
                Request::Append {
                    path: "/full",
                    data: b"!",
                },
            ),
            (
                &small,
                vec![],
                Request::Truncate {
                    path: "/p",
                    len: cap + 1,
                },
            ),
            (
                &small,
                vec![bad("/p", 0, 8)],
                Request::Hello { name: "late" },
            ),
        ];
        cases.extend(requests.map(|(state, setup, req)| (state, setup, encoded(&req))));
        let errors = cases.len() as u64;
        for (state, setup, frame) in cases {
            let mut core = SessionCore::new(Arc::clone(state));
            for req in setup {
                assert_eq!(code(&answer(&mut core, req)), None);
            }
            let (reply, closed) = feed(&mut core, &frame);
            assert!(closed, "{reply:?}");
            assert_eq!(code(&reply.unwrap()), Some(ErrCode::Protocol));
            core.finish();
        }
        let (small, pnova) = (small.stats.snapshot(), pnova.stats.snapshot());
        assert_eq!(small.protocol_errors + pnova.protocol_errors, errors);
        assert_eq!(small.disconnects + pnova.disconnects, errors);
        assert_eq!(small.sessions_active + pnova.sessions_active, 0);
    }

    #[test]
    fn batch_overlap_check_leaves_empty_items_out() {
        use LockMode::{Exclusive, Shared};
        let state = state(ServerConfig::default());
        let batch = |a: (u64, u64), b: (u64, u64)| {
            checked_batch(&state, &[(a.0, a.1, Shared), (b.0, b.1, Exclusive)])
        };
        // An empty item inside another's span, at its start, in either
        // order: it locks nothing, so it overlaps nothing.
        for (a, b) in [((0, 10), (5, 5)), ((5, 10), (5, 5)), ((5, 5), (5, 10))] {
            let items = batch(a, b).unwrap_or_else(|e| panic!("{a:?}+{b:?}: {e}"));
            assert_eq!(items.len(), 2, "the table drops the empty item itself");
        }
        let refused = batch((0, 10), (5, 15)).unwrap_err();
        assert!(refused.contains("overlap"), "{refused}");
    }

    /// xorshift64*: the fuzz's one source of choices.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    const FUZZ_PATHS: [&str; 3] = ["/fuzz/a", "/fuzz/b", "/fuzz/c"];
    const FUZZ_CAP: u64 = 4096;

    /// A request of the fuzz's usual shape: one of three paths, ranges in
    /// `[0, 256)`, and now and then a field made invalid on purpose.
    fn random_request(rng: &mut Rng) -> Request {
        let path = FUZZ_PATHS[rng.below(3) as usize].to_string();
        let mut range = || {
            let (a, b) = (rng.below(257), rng.below(257));
            let inverted = rng.one_in(40);
            (a.min(b), a.max(b), inverted)
        };
        let (mut start, mut end, inverted) = range();
        if inverted && start != end {
            (start, end) = (end, start);
        }
        let mode = if rng.one_in(2) {
            LockMode::Shared
        } else {
            LockMode::Exclusive
        };
        let data = |rng: &mut Rng| vec![rng.below(256) as u8; rng.below(64) as usize];
        match rng.below(48) {
            0..=14 => Request::Lock {
                path,
                start,
                end,
                mode,
            },
            15..=20 => Request::TryLock {
                path,
                start,
                end,
                mode,
            },
            21..=24 => {
                // Distinct 32-byte slots, unless the first is repeated.
                let first = rng.below(8);
                let mut items: Vec<_> = (0..=rng.below(3))
                    .map(|i| {
                        let slot = (first + 3 * i) % 8 * 32;
                        (slot, slot + 1 + rng.below(31), mode)
                    })
                    .collect();
                if rng.one_in(40) {
                    items.push(items[0]);
                }
                // An empty item anywhere, often inside another's span.
                if rng.one_in(8) {
                    let at = rng.below(257);
                    let pos = rng.below(items.len() as u64 + 1) as usize;
                    items.insert(pos, (at, at, mode));
                }
                Request::LockMany { path, items }
            }
            25..=37 => Request::Unlock { path, start, end },
            38..=40 => Request::Read {
                path,
                offset: start,
                len: if rng.one_in(40) {
                    MAX_READ + 1
                } else {
                    rng.below(300) as u32
                },
            },
            41..=43 => Request::Write {
                path,
                offset: if rng.one_in(40) { FUZZ_CAP } else { start },
                data: data(rng),
            },
            44 => Request::Append {
                path,
                data: data(rng),
            },
            45 => Request::Truncate {
                path,
                len: if rng.one_in(40) { FUZZ_CAP + 1 } else { end },
            },
            46 => Request::Hello {
                name: format!("fuzz-{}", rng.below(100)),
            },
            _ => Request::Bye,
        }
    }

    /// Bytes that are mostly not a request: noise, or a request's
    /// encoding cut short, grown by a byte, or with one byte changed.
    fn random_bytes(rng: &mut Rng) -> Vec<u8> {
        if rng.one_in(2) {
            return (0..rng.below(24)).map(|_| rng.below(256) as u8).collect();
        }
        let mut bytes = encode_request(&random_request(rng));
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(3) {
            0 => bytes.truncate(at),
            1 => bytes.push(rng.below(256) as u8),
            _ => bytes[at] = rng.below(256) as u8,
        }
        bytes
    }

    /// Whether the session must answer `req` with a protocol error, given
    /// whether it has taken a lock yet: the checks the module documents,
    /// written out again, against file lengths read from the store.
    fn is_protocol_error(state: &ServerState, req: &Request, has_owner: bool) -> bool {
        let over_cap = |offset: u64, len: usize| offset.saturating_add(len as u64) > FUZZ_CAP;
        match req {
            Request::Hello { .. } => has_owner,
            Request::Bye => false,
            Request::Lock { start, end, .. }
            | Request::TryLock { start, end, .. }
            | Request::Unlock { start, end, .. } => start > end,
            Request::LockMany { items, .. } => {
                // Some byte lies inside two of the items.
                let share_a_byte = |i: usize, j: usize| {
                    let ((s0, e0, _), (s1, e1, _)) = (items[i], items[j]);
                    s0.max(s1) < e0.min(e1)
                };
                items.iter().any(|(start, end, _)| start > end)
                    || (0..items.len()).any(|i| (0..i).any(|j| share_a_byte(i, j)))
            }
            Request::Read { len, .. } => *len > MAX_READ,
            Request::Write { offset, data, .. } => over_cap(*offset, data.len()),
            Request::Append { path, data } => over_cap(state.store.open(path).len(), data.len()),
            Request::Truncate { len, .. } => *len > FUZZ_CAP,
        }
    }

    /// The op a request counts as, and its path.
    fn op(req: &Request) -> Option<(OpKind, &str)> {
        Some(match req {
            Request::Hello { .. } | Request::Bye => return None,
            Request::Lock { path, .. } => (OpKind::Lock, path),
            Request::TryLock { path, .. } => (OpKind::TryLock, path),
            Request::LockMany { path, .. } => (OpKind::LockMany, path),
            Request::Unlock { path, .. } => (OpKind::Unlock, path),
            Request::Read { path, .. } => (OpKind::Read, path),
            Request::Write { path, .. } => (OpKind::Write, path),
            Request::Append { path, .. } => (OpKind::Append, path),
            Request::Truncate { path, .. } => (OpKind::Truncate, path),
        })
    }

    /// Two sessions of one server fed random requests and random bytes,
    /// every wait polled once and dropped if it has to wait: the tables
    /// stay well-formed after every step, end empty once every session has
    /// finished, and the counters match what was sent.
    fn fuzz_sessions(seed: u64, steps: usize) {
        let state = state(ServerConfig {
            max_file_size: FUZZ_CAP,
            ..ServerConfig::default()
        });
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut cores = [(); 2].map(|()| (SessionCore::new(state.clone()), false));
        let mut paths: BTreeSet<String> = FUZZ_PATHS.iter().map(|p| p.to_string()).collect();
        let (mut ops, mut errors, mut would_blocks) = ([0u64; OpKind::ALL.len()], 0, 0);
        let mut started = 2;
        for step in 0..steps {
            let (core, has_owner) = &mut cores[rng.below(2) as usize];
            let frame = if rng.one_in(16) {
                random_bytes(&mut rng)
            } else {
                encode_request(&random_request(&mut rng))
            };
            let req = decode_request(&frame);
            let protocol_error = req
                .as_ref()
                .map_or(true, |req| is_protocol_error(&state, req, *has_owner));
            if let Some((kind, path)) = req.as_ref().ok().and_then(op) {
                ops[kind as usize] += 1;
                // The lock plane is the first four kinds, in wire order.
                if kind as usize <= OpKind::Unlock as usize {
                    *has_owner |= !protocol_error;
                    paths.insert(path.to_string());
                }
            }
            let (reply, closed) = feed(core, &frame);
            let code = reply.as_ref().and_then(code);
            assert_eq!(
                code == Some(ErrCode::Protocol),
                protocol_error,
                "step {step}: {req:?}"
            );
            assert_eq!(
                closed,
                protocol_error || req == Ok(Request::Bye),
                "step {step}"
            );
            would_blocks += u64::from(code == Some(ErrCode::WouldBlock));
            if let Some(reply) = reply {
                core.recycle(reply);
            }
            if closed {
                errors += u64::from(protocol_error);
                std::mem::replace(core, SessionCore::new(state.clone())).finish();
                (*has_owner, started) = (false, started + 1);
            }
            for path in &paths {
                state.table_for(path).check_invariants();
            }
        }
        for (core, _) in cores {
            core.finish();
        }
        assert_tables_empty(&state, paths.iter().map(String::as_str));
        let stats = state.stats.snapshot();
        assert_eq!(stats.ops.map(|(_, n)| n), ops, "seed {seed}");
        assert_eq!(stats.protocol_errors, errors);
        assert_eq!(stats.would_blocks, would_blocks);
        assert_eq!(stats.deadlocks, 0, "no session ever waits, so no cycle");
        assert_eq!(
            (stats.sessions_started, stats.sessions_active),
            (started, 0)
        );
        // Every session but those that said `Bye`, the last two included.
        assert_eq!(stats.disconnects, errors + 2);
    }

    #[test]
    fn sessions_survive_random_frames() {
        for seed in 1..=8 {
            fuzz_sessions(seed, 2_000);
        }
    }
}
