//! `rl-server`: a networked range-lock/file service on the async stack.
//!
//! This crate turns the workspace's library surface — registry-built range
//! locks ([`rl_baselines::registry`]), deadlock-checked [`rl_file`] lock
//! tables, the sharded [`rl_file::FileStore`] — into a *service*: a
//! [`Server`] that multiplexes many client sessions onto a small
//! `rl-exec` worker pool (and, frame by frame, onto the threads that
//! deliver their requests). Each connection is one session task; an
//! `fcntl`-flavoured request vocabulary (`Lock`/`TryLock`/`LockMany`/
//! `Unlock` over shared/exclusive byte ranges, plus `Read`/`Write`/
//! `Append`/`Truncate` against the store) rides a hand-rolled
//! length-prefixed binary wire protocol ([`wire`]).
//!
//! Two transports share one abstraction ([`Conn`]): an in-process duplex
//! channel (deterministic; tests and benches) and real `std::net` TCP.
//! The load-bearing guarantee is **release-on-disconnect**: when a
//! connection dies — clean `Bye`, dropped client, killed socket, or
//! server shutdown — the session releases every range its owner holds,
//! *including* cancelling a blocking acquisition it is suspended in
//! mid-wait, so waiters behind a dead client are granted promptly instead
//! of hanging forever. Sessions emit `rl-obs` trace events and feed
//! per-op wait histograms; [`Server::stats`] snapshots the counters.
//!
//! ```
//! use range_lock::Range;
//! use rl_server::{LockMode, Server, ServerConfig};
//!
//! let server = Server::new(ServerConfig::default());
//! let mut client = server.connect();
//! client.hello("demo").unwrap();
//! client.lock("/tmp/a", Range::new(0, 64), LockMode::Exclusive).unwrap();
//! client.write("/tmp/a", 0, b"hello").unwrap();
//! assert_eq!(client.read("/tmp/a", 0, 5).unwrap(), b"hello");
//! client.unlock("/tmp/a", Range::new(0, 64)).unwrap();
//! client.bye().unwrap();
//! let stats = server.shutdown();
//! assert_eq!(stats.disconnects, 0);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod server;
mod session;
pub mod stats;
pub mod transport;
pub mod wire;

pub use client::{Client, ClientError};
pub use server::{Server, ServerConfig, TcpHandle, DEFAULT_MAX_FILE_SIZE};
pub use stats::{OpKind, StatsSnapshot};
pub use transport::{Conn, FrameQueue};
pub use wire::{ErrCode, Reply, Request, WireError, MAX_FRAME};

pub use rl_file::LockMode;
