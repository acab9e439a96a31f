//! A blocking client: one RPC per call over a [`Conn`].
//!
//! The client is deliberately synchronous — it models an ordinary POSIX
//! process doing `fcntl`/`pread`/`pwrite` against the service, one
//! outstanding request at a time. Concurrency lives on the *server* side,
//! where thousands of these sessions multiplex onto a few worker threads;
//! a load generator simply runs many clients.
//!
//! A client is exactly one thread — its caller's. Over TCP an RPC is one
//! `write` of the request frame and (normally) one `read` of the reply,
//! both on the calling thread; nothing is spawned per connection. The
//! request is encoded from the borrowed arguments straight into the
//! connection's send buffer and the reply is decoded where it lies in the
//! receive buffer, so a call allocates only what it returns (`read`'s
//! bytes, an error's message). In-process, the request is encoded into the
//! frame the last reply arrived in, and the session encodes its reply into
//! the request: one frame goes back and forth, and a steady-state call
//! allocates nothing else either.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use range_lock::Range;
use rl_file::LockMode;

use crate::transport::Conn;
use crate::wire::{decode_reply, ErrCode, Reply, Request, WireError};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection died before a reply arrived.
    Disconnected,
    /// A transport-level I/O failure.
    Io(io::Error),
    /// The reply frame didn't decode.
    Wire(WireError),
    /// The server answered with an error reply.
    Remote {
        /// The server's error code.
        code: ErrCode,
        /// The server's human-readable message.
        message: String,
    },
    /// The server answered with the wrong reply shape for this request.
    Unexpected(&'static str),
    /// A request string field (the named `"path"` or session `"name"`)
    /// exceeds the wire protocol's 65535-byte string limit; sending it
    /// would silently truncate it into a *different* path, so the client
    /// refuses before encoding.
    TooLong(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "bad reply frame: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected reply: wanted {what}"),
            ClientError::TooLong(field) => {
                write!(
                    f,
                    "request {field} exceeds the wire protocol's 65535-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            ClientError::Disconnected
        } else {
            ClientError::Io(e)
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Rejects request strings the wire encoding would truncate: `put_str`
/// carries a `u16` length prefix, and a silently shortened path would make
/// the operation target a *different* file.
fn check_strings(req: &Request<&str, &[u8]>) -> Result<(), ClientError> {
    let (field, s) = match req {
        Request::Hello { name } => ("name", *name),
        Request::Lock { path, .. }
        | Request::TryLock { path, .. }
        | Request::LockMany { path, .. }
        | Request::Unlock { path, .. }
        | Request::Read { path, .. }
        | Request::Write { path, .. }
        | Request::Append { path, .. }
        | Request::Truncate { path, .. } => ("path", *path),
        Request::Bye => return Ok(()),
    };
    if s.len() > u16::MAX as usize {
        return Err(ClientError::TooLong(field));
    }
    Ok(())
}

/// A blocking session handle; see the [module docs](self).
#[derive(Debug)]
pub struct Client {
    conn: Conn,
    /// The last in-process reply frame, emptied: the next request's frame.
    frame: Vec<u8>,
}

impl Client {
    /// Wraps an existing connection end (the in-process path;
    /// [`crate::Server::connect`] calls this for you).
    pub fn over(conn: Conn) -> Client {
        Client {
            conn,
            frame: Vec::new(),
        }
    }

    /// Connects over TCP to a server started with
    /// [`crate::Server::serve_tcp`]. [`Conn::tcp`] sets `TCP_NODELAY`.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Ok(Client::over(Conn::tcp(TcpStream::connect(addr)?)?))
    }

    /// One RPC; see the [module docs](self) for what it costs.
    fn call(&mut self, req: &Request<&str, &[u8]>) -> Result<Reply, ClientError> {
        check_strings(req)?;
        self.conn
            .send_in(&mut self.frame, |out| req.encode_into(out))?;
        let reply = self
            .conn
            .recv_with(&mut self.frame, decode_reply)
            .ok_or(ClientError::Disconnected)?;
        Ok(reply?)
    }

    fn expect_ok(&mut self, req: &Request<&str, &[u8]>) -> Result<(), ClientError> {
        match self.call(req)? {
            Reply::Ok => Ok(()),
            Reply::Err { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("Ok")),
        }
    }

    /// Names this session; the name labels its lock owner and trace actor.
    /// Must be called before the first lock request — the server rejects a
    /// rename once lock owners exist (they capture the name at creation).
    pub fn hello(&mut self, name: &str) -> Result<(), ClientError> {
        self.expect_ok(&Request::Hello { name })
    }

    /// Blocking acquisition of `range` on `path` in `mode`. Waits
    /// server-side (the session suspends; no worker thread is held) and
    /// fails with a [`ErrCode::Deadlock`] remote error if granting it
    /// would create a wait cycle.
    pub fn lock(&mut self, path: &str, range: Range, mode: LockMode) -> Result<(), ClientError> {
        self.expect_ok(&Request::Lock {
            path,
            start: range.start,
            end: range.end,
            mode,
        })
    }

    /// Non-blocking acquisition: `Ok(true)` if granted, `Ok(false)` if it
    /// would have had to wait.
    pub fn try_lock(
        &mut self,
        path: &str,
        range: Range,
        mode: LockMode,
    ) -> Result<bool, ClientError> {
        let req = Request::TryLock {
            path,
            start: range.start,
            end: range.end,
            mode,
        };
        match self.call(&req)? {
            Reply::Ok => Ok(true),
            Reply::Err {
                code: ErrCode::WouldBlock,
                ..
            } => Ok(false),
            Reply::Err { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("Ok or WouldBlock")),
        }
    }

    /// All-or-nothing batched acquisition of disjoint ranges on `path`.
    pub fn lock_many(
        &mut self,
        path: &str,
        items: &[(Range, LockMode)],
    ) -> Result<(), ClientError> {
        self.expect_ok(&Request::LockMany {
            path,
            items: items.iter().map(|(r, m)| (r.start, r.end, *m)).collect(),
        })
    }

    /// Releases a previously acquired `range` on `path`.
    pub fn unlock(&mut self, path: &str, range: Range) -> Result<(), ClientError> {
        self.expect_ok(&Request::Unlock {
            path,
            start: range.start,
            end: range.end,
        })
    }

    /// Reads up to `len` bytes of `path` at `offset`; short at EOF.
    pub fn read(&mut self, path: &str, offset: u64, len: u32) -> Result<Vec<u8>, ClientError> {
        let req = Request::Read { path, offset, len };
        match self.call(&req)? {
            Reply::Data(data) => Ok(data),
            Reply::Err { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("Data")),
        }
    }

    /// Writes `data` to `path` at `offset`, extending the file if needed.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<(), ClientError> {
        self.expect_ok(&Request::Write { path, offset, data })
    }

    /// Appends `data` to `path`; returns the offset it landed at.
    pub fn append(&mut self, path: &str, data: &[u8]) -> Result<u64, ClientError> {
        let req = Request::Append { path, data };
        match self.call(&req)? {
            Reply::Offset(off) => Ok(off),
            Reply::Err { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("Offset")),
        }
    }

    /// Truncates (or zero-extends) `path` to `len` bytes.
    pub fn truncate(&mut self, path: &str, len: u64) -> Result<(), ClientError> {
        self.expect_ok(&Request::Truncate { path, len })
    }

    /// Clean goodbye: the session releases everything and ends without
    /// counting as a disconnect.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Bye)
    }

    /// Abrupt death: drops the connection with no goodbye, exactly like a
    /// killed process. The session must notice and release every held
    /// range — the tests use this to exercise release-on-disconnect.
    pub fn kill(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use crate::wire::RETAIN;
    use crate::{LockMode, Server, ServerConfig};
    use range_lock::Range;

    /// A session that alternates 1 MiB `Write`s and `Read`s with 256-byte
    /// lock-plane and I/O requests keeps no frame above 64 KiB on the client
    /// side, and still reuses the one it keeps for the small requests.
    #[test]
    fn large_requests_leave_no_large_frame_behind() {
        let server = Server::new(ServerConfig::default());
        let mut client = server.connect();
        let big = vec![3u8; 1 << 20];
        let small = [5u8; 256];
        for _ in 0..4 {
            client.write("/r", 0, &big).unwrap();
            assert!(client.frame.capacity() <= RETAIN);
            client
                .lock("/r", Range::new(0, 256), LockMode::Shared)
                .unwrap();
            client.write("/s", 0, &small).unwrap();
            assert!(client.frame.capacity() >= small.len());
            assert_eq!(client.read("/r", 0, 1 << 20).unwrap(), big);
            assert!(client.frame.capacity() <= RETAIN);
            assert_eq!(client.read("/s", 0, 256).unwrap(), small);
            client.unlock("/r", Range::new(0, 256)).unwrap();
            assert!(client.frame.capacity() <= RETAIN);
        }
        client.bye().unwrap();
        server.shutdown();
    }
}
