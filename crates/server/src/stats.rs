//! Per-server operation accounting: sessions, ops by kind, deadlocks,
//! disconnect-releases, and per-op wait histograms. The counters are plain
//! relaxed atomics bumped on the session hot path and are exact; the
//! histograms are sampled, one op in 16 per session (see the session
//! module). A [`StatsSnapshot`] is what feeds report tables
//! (`serverbench`) and test assertions.

use std::sync::atomic::{AtomicU64, Ordering};

use rl_obs::{HistogramSnapshot, LatencyHistogram};

/// The kinds of client operations a session executes, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Blocking range acquisition.
    Lock,
    /// Non-blocking range acquisition.
    TryLock,
    /// Batched all-or-nothing acquisition.
    LockMany,
    /// Range release.
    Unlock,
    /// `pread`.
    Read,
    /// `pwrite`.
    Write,
    /// End-of-file append.
    Append,
    /// Truncate / zero-extend.
    Truncate,
}

impl OpKind {
    /// Every operation kind, in wire order.
    pub const ALL: [OpKind; 8] = [
        OpKind::Lock,
        OpKind::TryLock,
        OpKind::LockMany,
        OpKind::Unlock,
        OpKind::Read,
        OpKind::Write,
        OpKind::Append,
        OpKind::Truncate,
    ];

    /// Stable lowercase name (table column / snapshot key).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Lock => "lock",
            OpKind::TryLock => "try_lock",
            OpKind::LockMany => "lock_many",
            OpKind::Unlock => "unlock",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Append => "append",
            OpKind::Truncate => "truncate",
        }
    }
}

/// Live counters, shared by every session of one server.
pub(crate) struct ServerStats {
    pub(crate) sessions_started: AtomicU64,
    pub(crate) sessions_active: AtomicU64,
    ops: [AtomicU64; OpKind::ALL.len()],
    pub(crate) deadlocks: AtomicU64,
    pub(crate) would_blocks: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) disconnects: AtomicU64,
    pub(crate) disconnect_releases: AtomicU64,
    pub(crate) ranges_freed_on_disconnect: AtomicU64,
    /// Nanoseconds a granted blocking `Lock`/`LockMany` waited, for the
    /// one grant in 16 per session that is timed.
    pub(crate) lock_wait: LatencyHistogram,
    /// Nanoseconds a data-plane op (`Read`/`Write`/`Append`/`Truncate`)
    /// took, including its mandatory internal range lock, for the one op
    /// in 16 per session that is timed.
    pub(crate) io_wait: LatencyHistogram,
}

impl ServerStats {
    pub(crate) fn new() -> Self {
        ServerStats {
            sessions_started: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            ops: std::array::from_fn(|_| AtomicU64::new(0)),
            deadlocks: AtomicU64::new(0),
            would_blocks: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            disconnect_releases: AtomicU64::new(0),
            ranges_freed_on_disconnect: AtomicU64::new(0),
            lock_wait: LatencyHistogram::new(),
            io_wait: LatencyHistogram::new(),
        }
    }

    pub(crate) fn count_op(&self, kind: OpKind) {
        self.ops[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_started: self.sessions_started.load(Ordering::Relaxed),
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            ops: OpKind::ALL.map(|k| (k.name(), self.ops[k as usize].load(Ordering::Relaxed))),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            would_blocks: self.would_blocks.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            disconnect_releases: self.disconnect_releases.load(Ordering::Relaxed),
            ranges_freed_on_disconnect: self.ranges_freed_on_disconnect.load(Ordering::Relaxed),
            lock_wait: self.lock_wait.snapshot(),
            io_wait: self.io_wait.snapshot(),
        }
    }
}

/// A point-in-time copy of a server's counters; see
/// [`crate::Server::stats`].
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Sessions ever attached.
    pub sessions_started: u64,
    /// Sessions attached and not yet ended.
    pub sessions_active: u64,
    /// `(kind name, count)` per [`OpKind`], in wire order.
    pub ops: [(&'static str, u64); OpKind::ALL.len()],
    /// Acquisitions refused with `EDEADLK`.
    pub deadlocks: u64,
    /// `TryLock`s refused with `WouldBlock`.
    pub would_blocks: u64,
    /// Malformed requests answered with a `Protocol` error.
    pub protocol_errors: u64,
    /// Sessions that ended without a clean `Bye` (socket death, peer drop,
    /// or server shutdown).
    pub disconnects: u64,
    /// Disconnected sessions that still held ranges when they died.
    pub disconnect_releases: u64,
    /// Total committed records those disconnects released.
    pub ranges_freed_on_disconnect: u64,
    /// Wait-time distribution of granted blocking acquisitions (ns),
    /// sampled: each session times its first `Lock`/`LockMany` and one in
    /// 16 after it, so `count()` is a sample count. The number of
    /// acquisitions is in [`ops`](Self::ops).
    pub lock_wait: HistogramSnapshot,
    /// Duration distribution of data-plane operations (ns), sampled like
    /// [`lock_wait`](Self::lock_wait): one `Read`/`Write`/`Append`/
    /// `Truncate` in 16 per session, the first included.
    pub io_wait: HistogramSnapshot,
}

impl StatsSnapshot {
    /// Count for one operation kind.
    pub fn op_count(&self, kind: OpKind) -> u64 {
        self.ops[kind as usize].1
    }

    /// Total operations of every kind.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|(_, n)| n).sum()
    }
}
