//! The transport abstraction: framed, bidirectional, disconnect-aware.
//!
//! A [`Conn`] is one end of a connection: an inbox of received frames (a
//! [`FrameQueue`]) plus an outbound sink. Two implementations share it:
//!
//! * **in-process duplex** ([`Conn::pair`]) — two cross-wired frame
//!   queues. A sent frame is one `Vec` that moves into the peer's inbox;
//!   deterministic, no syscalls. What the tests, benches and examples use.
//! * **TCP** ([`Conn::tcp`]) — one [`FrameWriter`]/[`FrameReader`] pair per
//!   socket. A frame is assembled behind its length prefix in the reusable
//!   send buffer and leaves in **one** `write`; it arrives through a
//!   grow-on-demand receive buffer that hands out every whole frame one
//!   `read` delivered. One RPC is therefore 2 writes and 2 reads across
//!   both ends (it was 4 and ≥ 4 when prefix and payload travelled
//!   separately), and neither direction allocates per frame.
//!
//! # Threads
//!
//! Who reads a socket depends on how its `Conn` is consumed, and the
//! `Conn` finds out by being asked:
//!
//! * a **blocking** consumer ([`Conn::recv_blocking`]: every
//!   [`crate::Client`]) reads the socket itself, on its own thread. A TCP
//!   client costs **zero** extra threads and a reply reaches it in one
//!   wake-up.
//! * a **waker-based** consumer ([`Conn::inbox`]: the server session,
//!   which must not block whoever polls it in `read`) gets a *pump*
//!   thread, started by the first `inbox()` call, that reads frames into
//!   the [`FrameQueue`] and closes it on EOF or error. A server pays
//!   **one** thread per TCP socket.
//!
//! There is one constructor and no flag: the same `Conn::tcp` serves both,
//! so a measurement of the transport alone and a measurement through the
//! `Client` run the same code.
//!
//! **Who polls a session.** Frame delivery — [`FrameQueue::push`] — wakes
//! the registered waker inside an [`rl_exec::run_woken`] scope, so the
//! thread that delivers a frame polls the session it woke, right there,
//! before `push` returns:
//!
//! * in-process, that thread is the *sender*. `Conn::send` carries the
//!   request into the session and comes back with the reply already in the
//!   sender's own inbox; the `recv` that follows finds it without waiting.
//!   An RPC is zero thread wake-ups (it was two: session, client).
//! * over TCP it is the socket's *pump*, which runs its own session
//!   between two `read`s. An RPC is two wake-ups — pump, client — where the
//!   pump → session hop made three (and the eager reader thread on both
//!   ends, before that, four).
//!
//! `push` takes no part in the poll: it has released the queue's lock, and
//! `wake()` itself only parks the task in the scope's slot. A suspended
//! session woken by something else (another session's release, a close) is
//! polled by whichever thread ran that release, or by a pool worker; see
//! `rl-exec`'s crate docs for the rules.
//!
//! The price is one hazard, designed for here: a session owns the
//! server-end `Conn`, whose destructor joins the pump, and a session that
//! ends *because of a frame* (`Bye`, a protocol hang-up, a failed reply)
//! now ends on a pump thread — normally its own. A pump therefore never
//! joins: not itself (that hangs at once) and not another connection's pump
//! either (two pumps, each ending the other's session through the slot,
//! would wait for each other). It detaches the pump instead, which falls
//! out of its loop on the shut-down socket as soon as the poll it is in
//! returns. Every other thread — a pool worker tearing down a killed or
//! shut-down session, a client dropping its end — still joins.
//!
//! An epoll reactor (one thread for *all* sockets) stays deferred. The hop
//! it was meant to remove is gone without one; what is left for it is
//! thousands of mostly idle sockets without thousands of stacks, and that
//! needs a many-session workload in the benchmark before it can be claimed.
//!
//! # Disconnects
//!
//! The property the server leans on is *disconnect visibility from the
//! waker world*: a session suspended deep inside an async lock acquisition
//! is not reading its inbox, so the inbox itself is the thing that must
//! wake it. [`FrameQueue`] therefore supports both blocking receive (for
//! synchronous clients) and poll-based receive **and close-notification**
//! (for sessions): `close()` — called when a peer drops its `Conn`, the
//! pump hits EOF/error, or the server shuts down — wakes the registered
//! waker, and [`FrameQueue::poll_closed`] lets the session race "the
//! connection died" against "the lock was granted". The pump keeps reading
//! while its session is suspended, which is what lets a dead socket beat a
//! wait.
//!
//! Closing beats backlog by design: once a connection is closed, queued
//! but unserviced requests are dropped, exactly like requests that died in
//! a kernel socket buffer when the process vanished.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

use crate::wire::{oversize, FrameReader, FrameWriter, LOCK_PLANE_FRAME, MAX_FRAME};

/// A closeable queue of frames with blocking *and* waker-based receive.
///
/// Single-consumer by convention: one session (or one blocking client)
/// polls it, so one waker slot suffices; pushes and closes wake whoever is
/// registered.
pub struct FrameQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
    waker: Option<Waker>,
    /// Receivers inside `ready.wait` right now. std's futex condvar makes a
    /// syscall per notify whether or not anyone waits; a queue whose
    /// consumer is a waker, or whose receiver has not started waiting yet,
    /// is not charged for it.
    blocked: usize,
}

impl FrameQueue {
    /// An open, empty queue.
    pub fn new() -> Self {
        FrameQueue {
            state: Mutex::new(QueueState {
                frames: VecDeque::new(),
                closed: false,
                waker: None,
                blocked: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues a frame and wakes the consumer. Returns `false` (dropping
    /// the frame) if the queue is closed.
    ///
    /// A waker-based consumer — a session — is woken inside
    /// [`rl_exec::run_woken`], so it is polled *by the delivering thread*,
    /// after the queue's lock is released and before `push` returns: an
    /// in-process sender usually comes back with the reply already in its
    /// own inbox. See the [module docs](self#threads).
    pub fn push(&self, frame: Vec<u8>) -> bool {
        let (waker, blocked) = {
            let mut st = self.state.lock().unwrap();
            if st.closed {
                return false;
            }
            st.frames.push_back(frame);
            (st.waker.take(), st.blocked)
        };
        if blocked > 0 {
            self.ready.notify_one();
        }
        if let Some(waker) = waker {
            rl_exec::run_woken(|| waker.wake());
        }
        true
    }

    /// Closes the queue and wakes the consumer — both the blocking and the
    /// waker-based one. Idempotent. Frames already queued stay readable by
    /// [`FrameQueue::recv_blocking`] but [`FrameQueue::poll_closed`]
    /// reports closure immediately (disconnect beats backlog).
    ///
    /// Unlike [`FrameQueue::push`] this is a plain wake: it opens no run
    /// scope, so the teardown of a killed or shut-down session is a pool
    /// worker's job and no destructor or shutdown loop ever runs a session.
    pub fn close(&self) {
        let (waker, blocked) = {
            let mut st = self.state.lock().unwrap();
            st.closed = true;
            (st.waker.take(), st.blocked)
        };
        if blocked > 0 {
            self.ready.notify_all();
        }
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Whether [`FrameQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// Blocks until a frame arrives or the queue closes; `None` once the
    /// queue is closed **and** drained.
    pub fn recv_blocking(&self) -> Option<Vec<u8>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(frame) = st.frames.pop_front() {
                return Some(frame);
            }
            if st.closed {
                return None;
            }
            st.blocked += 1;
            st = self.ready.wait(st).unwrap();
            st.blocked -= 1;
        }
    }

    /// Waker-based receive: `Ready(Some(frame))`, `Ready(None)` once
    /// closed-and-drained, or `Pending` with the waker registered.
    pub fn poll_recv(&self, cx: &mut Context<'_>) -> Poll<Option<Vec<u8>>> {
        let mut st = self.state.lock().unwrap();
        if let Some(frame) = st.frames.pop_front() {
            return Poll::Ready(Some(frame));
        }
        if st.closed {
            return Poll::Ready(None);
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }

    /// Resolves as soon as the queue is closed, regardless of backlog —
    /// the session side of release-on-disconnect races this against its
    /// in-flight lock acquisition.
    pub fn poll_closed(&self, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Poll::Ready(());
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl Default for FrameQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FrameQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("FrameQueue")
            .field("queued", &st.frames.len())
            .field("closed", &st.closed)
            .finish()
    }
}

/// The outbound half of a connection.
enum FrameTx {
    /// In-process: push straight into the peer's inbox.
    Queue(Arc<FrameQueue>),
    /// TCP: the socket and both framing buffers.
    Tcp(TcpEnd),
}

/// The TCP end of a connection. The stream is shared (`&TcpStream` reads
/// and writes) between senders, whoever receives, and `close`.
struct TcpEnd {
    stream: Arc<TcpStream>,
    /// The send buffer; its mutex also keeps concurrent senders' frames
    /// from interleaving on the socket.
    writer: Mutex<FrameWriter>,
    rx: Mutex<TcpRx>,
}

/// Who reads the socket; see the [module docs](self#threads).
enum TcpRx {
    /// Nobody has asked for the inbox: a blocking receive reads the socket
    /// itself, through this buffer.
    Direct(FrameReader),
    /// A waker-based consumer asked for the inbox: the pump thread took
    /// the buffer (and any bytes in it) and feeds the [`FrameQueue`].
    Pumped(JoinHandle<()>),
    /// A direct read hit EOF or an error; the inbox is closed.
    Ended,
}

thread_local! {
    /// Set on pump threads. A pump polls sessions — its own, and through
    /// the run scope's slot whichever session that one's release granted —
    /// and a session that ends drops its `Conn`, whose destructor joins
    /// *that* connection's pump. Joining itself would hang at once; joining
    /// another pump can hang too (two pumps, each ending the other's
    /// session), so pumps are the leaves of the join graph: they wait for
    /// no thread, and every other thread may wait for them.
    static ON_PUMP: Cell<bool> = const { Cell::new(false) };
}

impl TcpEnd {
    /// Hands the read side to a pump thread, unless that already happened
    /// or the stream already ended.
    fn start_pump(&self, inbox: &Arc<FrameQueue>) {
        let mut rx = self.rx.lock().expect("a receiver panicked");
        let mut reader = match std::mem::replace(&mut *rx, TcpRx::Ended) {
            TcpRx::Direct(reader) => reader,
            other => {
                *rx = other;
                return;
            }
        };
        let stream = Arc::clone(&self.stream);
        let inbox = Arc::clone(inbox);
        let pump = std::thread::Builder::new()
            .name("rl-server-rx".to_string())
            .spawn(move || {
                ON_PUMP.with(|on| on.set(true));
                loop {
                    match reader.read_frame(&mut &*stream) {
                        // `push` polls the session on this thread; when it
                        // returns the reply is usually on the wire already.
                        Ok(Some(frame)) => {
                            if !inbox.push(frame.to_vec()) {
                                // Consumer hung up; stop reading.
                                let _ = stream.shutdown(Shutdown::Both);
                                break;
                            }
                        }
                        Ok(None) | Err(_) => {
                            // Clean EOF or a dead socket: either way the
                            // connection is over.
                            inbox.close();
                            break;
                        }
                    }
                }
            })
            .expect("spawning a connection pump thread");
        *rx = TcpRx::Pumped(pump);
    }
}

/// One end of a framed connection. Dropping it disconnects: the peer's
/// inbox closes (in-process) or the socket shuts down (TCP), which is what
/// triggers release-on-disconnect in the session holding the other end.
pub struct Conn {
    rx: Arc<FrameQueue>,
    tx: FrameTx,
}

fn push_to(peer: &FrameQueue, frame: Vec<u8>) -> io::Result<()> {
    if peer.push(frame) {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "peer disconnected",
        ))
    }
}

impl Conn {
    /// An in-process duplex pair: what `a` sends, `b` receives, and vice
    /// versa.
    pub fn pair() -> (Conn, Conn) {
        let ab = Arc::new(FrameQueue::new());
        let ba = Arc::new(FrameQueue::new());
        let a = Conn {
            rx: Arc::clone(&ba),
            tx: FrameTx::Queue(Arc::clone(&ab)),
        };
        let b = Conn {
            rx: ab,
            tx: FrameTx::Queue(ba),
        };
        (a, b)
    }

    /// Wraps a TCP stream, setting `TCP_NODELAY` (a frame is a complete
    /// message; Nagle would only hold it back). Spawns nothing: see the
    /// [module docs](self#threads) for who reads the socket. Used by both
    /// the server's acceptor (per accepted socket) and
    /// [`crate::Client::connect_tcp`].
    pub fn tcp(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn {
            rx: Arc::new(FrameQueue::new()),
            tx: FrameTx::Tcp(TcpEnd {
                stream: Arc::new(stream),
                writer: Mutex::new(FrameWriter::new()),
                rx: Mutex::new(TcpRx::Direct(FrameReader::new())),
            }),
        })
    }

    /// Sends one frame to the peer. Fails with `InvalidData` (and sends
    /// nothing) if the payload exceeds [`MAX_FRAME`] — uniformly across
    /// both transports, so an oversized request is a recoverable error at
    /// the sender instead of a TCP-only connection kill at the receiver's
    /// frame cap — with `BrokenPipe` once the peer is gone (in-process),
    /// or with the socket's error (TCP).
    pub fn send(&self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME {
            return Err(oversize(payload.len()));
        }
        match &self.tx {
            FrameTx::Queue(peer) => push_to(peer, payload.to_vec()),
            FrameTx::Tcp(_) => self.send_with(|out| out.extend_from_slice(payload)),
        }
    }

    /// [`Conn::send`] for a payload that does not exist yet: `encode`
    /// appends it to the buffer it is handed, which is the frame itself —
    /// the `Vec` that moves into the peer's inbox (in-process) or the
    /// socket's send buffer, already behind its length prefix (TCP).
    pub(crate) fn send_with(&self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        match &self.tx {
            FrameTx::Queue(peer) => {
                let mut frame = Vec::with_capacity(LOCK_PLANE_FRAME);
                encode(&mut frame);
                if frame.len() > MAX_FRAME {
                    return Err(oversize(frame.len()));
                }
                push_to(peer, frame)
            }
            FrameTx::Tcp(tcp) => tcp
                .writer
                .lock()
                .expect("a sender panicked")
                .write(&mut &*tcp.stream, encode),
        }
    }

    /// Runs `f` on the next frame read straight off the socket, if this is
    /// a TCP end nobody pumps; hands `f` back otherwise.
    fn recv_direct<T, F: FnOnce(&[u8]) -> T>(&self, f: F) -> Result<Option<T>, F> {
        let FrameTx::Tcp(tcp) = &self.tx else {
            return Err(f);
        };
        let mut rx = tcp.rx.lock().expect("a receiver panicked");
        let TcpRx::Direct(reader) = &mut *rx else {
            return Err(f);
        };
        match reader.read_frame(&mut &*tcp.stream) {
            Ok(Some(frame)) => Ok(Some(f(frame))),
            Ok(None) | Err(_) => {
                *rx = TcpRx::Ended;
                self.rx.close();
                Ok(None)
            }
        }
    }

    /// Blocks until the peer sends a frame; `None` once disconnected and
    /// drained. The synchronous-client receive path: on a TCP end it reads
    /// the socket on the calling thread.
    pub fn recv_blocking(&self) -> Option<Vec<u8>> {
        self.recv_direct(<[u8]>::to_vec)
            .unwrap_or_else(|_| self.rx.recv_blocking())
    }

    /// [`Conn::recv_blocking`] for a consumer that only looks at the
    /// frame: `f` runs on it where it lies (in the receive buffer, on TCP).
    pub(crate) fn recv_with<T>(&self, f: impl FnOnce(&[u8]) -> T) -> Option<T> {
        self.recv_direct(f)
            .unwrap_or_else(|f| self.rx.recv_blocking().map(|frame| f(&frame)))
    }

    /// The inbox, for waker-based consumers (the session loop). On a TCP
    /// end the first call starts the pump thread that fills it; from then
    /// on blocking receives drain the inbox too.
    pub fn inbox(&self) -> &Arc<FrameQueue> {
        if let FrameTx::Tcp(tcp) = &self.tx {
            tcp.start_pump(&self.rx);
        }
        &self.rx
    }

    /// Disconnects both directions; what `Drop` calls.
    pub fn close(&self) {
        self.rx.close();
        match &self.tx {
            FrameTx::Queue(peer) => peer.close(),
            FrameTx::Tcp(tcp) => {
                let _ = tcp.stream.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.close();
        if let FrameTx::Tcp(tcp) = &mut self.tx {
            // The shutdown above ends the pump's read; a poisoned mutex
            // just means there is no pump state worth joining.
            if let Ok(TcpRx::Pumped(pump)) = tcp
                .rx
                .get_mut()
                .map(|rx| std::mem::replace(rx, TcpRx::Ended))
            {
                // A session that ends while a pump is polling it (`Bye`,
                // protocol hang-up, send failure) drops its `Conn` *on*
                // that pump thread — usually its own, which cannot join
                // itself. The pump is detached instead: it falls out of
                // its loop on the shut-down socket as soon as the poll it
                // is in returns. Every other thread joins.
                if !ON_PUMP.with(Cell::get) {
                    let _ = pump.join();
                }
            }
        }
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field(
                "transport",
                &match self.tx {
                    FrameTx::Queue(_) => "in-process",
                    FrameTx::Tcp(_) => "tcp",
                },
            )
            .field("inbox", &self.rx)
            .finish()
    }
}
