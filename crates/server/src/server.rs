//! The server: lock tables + file store + task pool + session registry.
//!
//! One [`Server`] owns a per-path family of deadlock-checked
//! [`LockTable`]s and one [`FileStore`], all built from a single registry
//! variant (any of the five paper locks) under a chosen wait policy, plus
//! an `rl-exec` [`TaskPool`] that every session is a task of — M sessions ≫
//! N worker threads, which is the async layer's whole point at service
//! scale.
//!
//! A session is *spawned on* the pool but, in steady state, not *polled
//! by* it: the thread that makes a session runnable polls it
//! ([`rl_exec::run_woken`]). That is the thread delivering its next frame
//! (the in-process sender, the socket's pump — see [`crate::transport`]),
//! or a thread already polling a session whose release granted this one;
//! the workers take everything else — first polls, closes, shutdown,
//! wakes from blocking threads, and a scope's overflow.
//!
//! Connections arrive two ways: [`Server::connect`] hands back the client
//! end of an in-process duplex pair (tests, benches, examples), and
//! [`Server::serve_tcp`] runs a real `std::net` acceptor whose blocking
//! loop hands each socket to the pool through an [`rl_exec::Spawner`] —
//! the acceptor outlives any borrow of the pool, which is exactly what
//! `Spawner` exists for. A session must not block the thread polling it in
//! `read`, so each accepted socket also gets one pump thread feeding its
//! inbox; TCP *clients* need none.
//! [`Server::shutdown`] is drain-then-stop: close every session inbox
//! (sessions observe it like a disconnect, cancel in-flight waits, release
//! their ranges) and then [`TaskPool::shutdown`] waits for them all to
//! finish.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use range_lock::DynRwRangeLock;
use rl_baselines::registry::{self, RegistryConfig, VariantSpec};
use rl_exec::{Spawner, TaskPool};
use rl_file::{FileStore, LockTable, RangeFile};
use rl_sync::WaitPolicyKind;

use crate::client::Client;
use crate::session;
use crate::stats::{ServerStats, StatsSnapshot};
use crate::transport::{Conn, FrameQueue};

/// The registry-built lock every table and file in one server uses.
///
/// A newtype over the boxed dyn lock rather than a type alias: session
/// futures are spawned as `'static` tasks, and rustc's auto-trait checking
/// over-generalizes the lifetime of a bare `Box<dyn Trait>` inside such a
/// future ("implementation is not general enough"). A nominal type keeps the
/// trait obligations lifetime-free, and derefs to the dyn lock, which is all
/// `range_lock` asks of a pointer to make it a static-trait lock again.
pub struct DynLock(Box<dyn DynRwRangeLock>);

impl std::ops::Deref for DynLock {
    type Target = dyn DynRwRangeLock;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for DynLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("DynLock").field(&self.dyn_name()).finish()
    }
}

/// What to build a [`Server`] from.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which of the five registry lock variants backs the tables and files.
    pub variant: &'static VariantSpec,
    /// Wait policy for the locks (async sessions suspend on wakers either
    /// way; the policy governs the underlying queues and any sync waiters).
    pub wait: WaitPolicyKind,
    /// Geometry for the segment variant (span/segments).
    pub registry: RegistryConfig,
    /// Worker threads in the session pool. This bounds how many sessions
    /// can be polled at once *by the pool* — first polls, teardown after a
    /// close, wakes from threads outside any run scope, overflow — not how
    /// many run at once: a session answering a frame runs on the thread
    /// that delivered it (see the [module docs](self)).
    pub workers: usize,
    /// Largest byte offset any data-plane operation may reach (`offset +
    /// len` for a write, the new length for a truncate). The store
    /// allocates pages for every span it touches, so this — not
    /// [`crate::wire::MAX_FRAME`], which only bounds one frame — is what
    /// keeps a single hostile request (`Write` at offset `1 << 60`,
    /// `Truncate` to `u64::MAX`) from allocating unbounded memory.
    /// Requests past it get an [`crate::ErrCode::Protocol`] reply.
    pub max_file_size: u64,
}

/// Default [`ServerConfig::max_file_size`]: 1 GiB.
pub const DEFAULT_MAX_FILE_SIZE: u64 = 1 << 30;

/// How long the acceptor sleeps after a failed `accept` before retrying.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

impl Default for ServerConfig {
    /// `list-rw` under the `Block` policy on a two-worker pool — the
    /// paper's lock, parked waiters, and enough workers to overlap — with
    /// files capped at [`DEFAULT_MAX_FILE_SIZE`].
    fn default() -> Self {
        ServerConfig {
            variant: registry::by_name("list-rw").expect("list-rw is registered"),
            wait: WaitPolicyKind::Block,
            registry: RegistryConfig::default(),
            workers: 2,
            max_file_size: DEFAULT_MAX_FILE_SIZE,
        }
    }
}

/// Everything sessions share; `Arc`ed into each session task.
pub(crate) struct ServerState {
    pub(crate) spec: &'static VariantSpec,
    pub(crate) wait: WaitPolicyKind,
    pub(crate) registry: RegistryConfig,
    /// Advisory lock tables, one per file path, created on first touch.
    tables: Mutex<HashMap<String, Arc<LockTable<DynLock>>>>,
    /// The data plane; its files carry their own (mandatory, brief)
    /// internal range locks, separate from the advisory tables — the same
    /// split POSIX makes.
    pub(crate) store: FileStore<DynLock>,
    /// Trust-boundary cap on data-plane spans; see
    /// [`ServerConfig::max_file_size`].
    pub(crate) max_file_size: u64,
    pub(crate) stats: Arc<ServerStats>,
    /// Every live session's inbox, so shutdown can close them all.
    inboxes: Mutex<Vec<Weak<FrameQueue>>>,
}

impl ServerState {
    /// The advisory lock table for `path`, created on demand.
    pub(crate) fn table_for(&self, path: &str) -> Arc<LockTable<DynLock>> {
        let mut tables = self.tables.lock().unwrap();
        if let Some(table) = tables.get(path) {
            return Arc::clone(table);
        }
        let table = Arc::new(LockTable::new(DynLock(
            self.spec.build(self.wait, &self.registry),
        )));
        tables.insert(path.to_string(), Arc::clone(&table));
        table
    }

    /// Required client range alignment, if the variant has one (the
    /// segment lock's table layering needs segment-aligned records).
    pub(crate) fn required_alignment(&self) -> Option<u64> {
        if self.spec.name == "pnova-rw" {
            Some(self.registry.span / self.registry.segments.max(1) as u64)
        } else {
            None
        }
    }
}

/// A running range-lock/file service. See the [module docs](self).
pub struct Server {
    pool: TaskPool,
    state: Arc<ServerState>,
}

impl Server {
    /// Builds the service and starts its worker pool.
    pub fn new(config: ServerConfig) -> Server {
        let spec = config.variant;
        let wait = config.wait;
        let reg = config.registry;
        let store_reg = reg;
        let state = Arc::new(ServerState {
            spec,
            wait,
            registry: reg,
            tables: Mutex::new(HashMap::new()),
            store: FileStore::new(move || RangeFile::new(DynLock(spec.build(wait, &store_reg)))),
            max_file_size: config.max_file_size,
            stats: Arc::new(ServerStats::new()),
            inboxes: Mutex::new(Vec::new()),
        });
        Server {
            pool: TaskPool::new(config.workers.max(1)),
            state,
        }
    }

    /// The variant name the server was built with.
    pub fn lock_name(&self) -> &'static str {
        self.state.spec.name
    }

    /// Attaches one connection as a new session task. The server end of
    /// the pair goes in; the caller keeps the client end.
    pub fn attach(&self, conn: Conn) {
        attach_conn(&self.state, &self.pool.spawner(), conn);
    }

    /// In-process connect: creates a duplex pair, attaches the server end,
    /// and returns a blocking [`Client`] over the other.
    pub fn connect(&self) -> Client {
        let (client_end, server_end) = Conn::pair();
        self.attach(server_end);
        Client::over(client_end)
    }

    /// Binds `addr` and serves TCP connections until the handle is
    /// stopped or the server shuts down. The acceptor is a plain blocking
    /// thread; each accepted socket becomes a session task via
    /// [`rl_exec::Spawner`].
    pub fn serve_tcp(&self, addr: impl ToSocketAddrs) -> io::Result<TcpHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let spawner = self.pool.spawner();
        let state = Arc::clone(&self.state);
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rl-server-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        // A socket `Conn::tcp` cannot configure is already
                        // dead; dropping it is the hang-up.
                        Ok(stream) => {
                            if let Ok(conn) = Conn::tcp(stream) {
                                attach_conn(&state, &spawner, conn);
                            }
                        }
                        // `accept` errors that persist (`EMFILE`: out of
                        // descriptors until some session ends) must not
                        // turn the acceptor into a spin loop.
                        Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                    }
                }
            })
            .expect("spawning the acceptor thread");
        Ok(TcpHandle {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// A point-in-time copy of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }

    /// Graceful drain-then-stop: closes every session inbox — sessions
    /// observe that exactly like a client disconnect, cancel any in-flight
    /// acquisition, release their ranges and finish — then waits for the
    /// pool to drain and returns the final counters.
    pub fn shutdown(self) -> StatsSnapshot {
        for inbox in self.state.inboxes.lock().unwrap().drain(..) {
            if let Some(inbox) = inbox.upgrade() {
                inbox.close();
            }
        }
        self.pool.shutdown();
        self.state.stats.snapshot()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("lock", &self.state.spec.name)
            .field("workers", &self.pool.workers())
            .finish()
    }
}

/// Registers the connection's inbox for shutdown and spawns its session.
/// Shared by [`Server::attach`] and the acceptor thread.
fn attach_conn(state: &Arc<ServerState>, spawner: &Spawner, conn: Conn) {
    {
        let mut inboxes = state.inboxes.lock().unwrap();
        // Amortized pruning of inboxes of sessions long gone.
        if inboxes.len() == inboxes.capacity() {
            inboxes.retain(|w| w.strong_count() > 0);
        }
        inboxes.push(Arc::downgrade(conn.inbox()));
    }
    let task = spawner.spawn(session::run(Arc::clone(state), conn));
    // A shutting-down pool refuses the spawn; the dropped Conn then closes
    // the client end, which sees a disconnect — the right outcome.
    drop(task);
}

/// Handle to a running TCP acceptor; stop it explicitly with
/// [`TcpHandle::stop`] or implicitly by dropping it.
pub struct TcpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting: sets the flag, nudges the blocking `accept` with a
    /// throwaway connection, and joins the acceptor thread. Existing
    /// sessions are unaffected.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor; if connecting fails the listener is
        // already dead and the thread exits on its own.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for TcpHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for TcpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHandle")
            .field("addr", &self.addr)
            .finish()
    }
}
