//! The hand-rolled, length-prefixed binary wire protocol.
//!
//! The workspace is offline and dependency-free, so — like the hand-rolled
//! JSON in `rl_bench::report` — the protocol is written out by hand: every
//! frame on the wire is a little-endian `u32` payload length followed by
//! the payload, and every payload is one [`Request`] or [`Reply`] encoded
//! as a one-byte opcode plus fixed-width little-endian integers,
//! `u16`-length-prefixed UTF-8 strings, and `u32`-length-prefixed byte
//! buffers. No self-description, no varints: the protocol's whole job is
//! to carry fcntl-style lock calls and file I/O between a client and its
//! session, and to be mechanically checkable — [`decode_request`] and
//! [`decode_reply`] reject truncated, trailing, or out-of-range bytes with
//! a typed [`WireError`] rather than panicking, which the round-trip fuzz
//! in `tests/server.rs` leans on.

use std::borrow::Cow;
use std::io::{self, Read, Write};

use rl_file::LockMode;

/// Hard ceiling on one frame's payload size (16 MiB). [`FrameReader`]
/// rejects larger length prefixes before reserving anything for the
/// payload, so a corrupt or hostile peer cannot make the server buffer
/// unbounded memory.
pub const MAX_FRAME: usize = 1 << 24;

/// One client → server message. `path`s name files in the server's
/// `FileStore`; byte ranges are half-open `[start, end)` like everywhere
/// else in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Names the session; the name becomes the `LockOwner` name (what a
    /// `DeadlockError` cycle prints) and the rl-obs actor label. Must
    /// precede any lock request: owners capture the session name at
    /// creation, so renaming after the first lock is a `Protocol` error
    /// (stale names would mis-attribute `EDEADLK` cycles and traces).
    Hello {
        /// Session name, e.g. `"client-3"`.
        name: String,
    },
    /// Blocking shared/exclusive acquisition of one byte range (`F_SETLKW`).
    Lock {
        /// File the range belongs to.
        path: String,
        /// Range start (inclusive).
        start: u64,
        /// Range end (exclusive).
        end: u64,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// Non-blocking acquisition (`F_SETLK`): replies `WouldBlock` instead
    /// of waiting.
    TryLock {
        /// File the range belongs to.
        path: String,
        /// Range start (inclusive).
        start: u64,
        /// Range end (exclusive).
        end: u64,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// All-or-nothing batched acquisition of several ranges of one file.
    LockMany {
        /// File the ranges belong to.
        path: String,
        /// `(start, end, mode)` per range; must be pairwise disjoint.
        items: Vec<(u64, u64, LockMode)>,
    },
    /// Releases whatever the session holds inside the range (`F_UNLCK`).
    Unlock {
        /// File the range belongs to.
        path: String,
        /// Range start (inclusive).
        start: u64,
        /// Range end (exclusive).
        end: u64,
    },
    /// Reads up to `len` bytes at `offset`; replies [`Reply::Data`].
    Read {
        /// File to read.
        path: String,
        /// Byte offset of the first byte.
        offset: u64,
        /// Number of bytes requested.
        len: u32,
    },
    /// Writes `data` at `offset`; replies [`Reply::Ok`].
    Write {
        /// File to write.
        path: String,
        /// Byte offset of the first byte.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Appends `data` at end-of-file; replies [`Reply::Offset`] with the
    /// offset the data landed at.
    Append {
        /// File to append to.
        path: String,
        /// Bytes to append.
        data: Vec<u8>,
    },
    /// Truncates (or zero-extends) the file to `len` bytes.
    Truncate {
        /// File to truncate.
        path: String,
        /// New length.
        len: u64,
    },
    /// Clean goodbye: the server replies [`Reply::Ok`], releases the
    /// session's locks, and ends the session — the *not-disconnected* exit.
    Bye,
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The request succeeded and has no payload.
    Ok,
    /// The request succeeded and yields an offset (`Append`).
    Offset(u64),
    /// The request succeeded and yields bytes (`Read`; short reads at
    /// end-of-file return fewer bytes than asked).
    Data(Vec<u8>),
    /// The request failed; the session stays usable unless the code is
    /// [`ErrCode::Protocol`] (after which the server hangs up).
    Err {
        /// What kind of failure.
        code: ErrCode,
        /// Human-readable detail (e.g. the `EDEADLK` cycle).
        message: String,
    },
}

/// Typed failure codes carried by [`Reply::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// A `TryLock` (or `try`-batched) acquisition conflicted (`EAGAIN`).
    WouldBlock,
    /// The acquisition would have closed a waits-for cycle (`EDEADLK`).
    Deadlock,
    /// The request was malformed (bad range, oversized read, misaligned
    /// range for the segment variant, undecodable frame).
    Protocol,
}

impl ErrCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrCode::WouldBlock => 1,
            ErrCode::Deadlock => 2,
            ErrCode::Protocol => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(ErrCode::WouldBlock),
            2 => Ok(ErrCode::Deadlock),
            3 => Ok(ErrCode::Protocol),
            other => Err(WireError::BadCode(other)),
        }
    }
}

/// Decoding failure: what exactly was wrong with the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// The message ended before the payload did (trailing garbage).
    Trailing,
    /// Unknown message opcode.
    BadOpcode(u8),
    /// Unknown lock-mode byte.
    BadMode(u8),
    /// Unknown error-code byte.
    BadCode(u8),
    /// A string field was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-message"),
            WireError::Trailing => write!(f, "trailing bytes after message"),
            WireError::BadOpcode(b) => write!(f, "unknown opcode {b}"),
            WireError::BadMode(b) => write!(f, "unknown lock mode {b}"),
            WireError::BadCode(b) => write!(f, "unknown error code {b}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes of the little-endian `u32` length prefix in front of every frame.
const PREFIX: usize = 4;

/// Buffer capacity an idle [`FrameReader`] or [`FrameWriter`] keeps between
/// frames; what one large frame grew beyond it is given back.
const RETAIN: usize = 64 * 1024;

/// How far ahead of the bytes it has actually received a [`FrameReader`]
/// commits memory — [`RETAIN`] with the prefix counted in: a peer that
/// announces a 16 MiB frame and stalls pins 64 KiB, not 16 MiB, and has
/// to send the payload to make the buffer grow.
const READ_AHEAD: usize = RETAIN - PREFIX;

/// The smallest buffer a [`FrameReader`] offers its source: room for a
/// burst of lock-plane frames in one `read`.
const MIN_READ: usize = 512;

/// Initial capacity of a frame that is not assembled in a reused buffer:
/// every lock-plane request and reply fits, so encoding one never regrows
/// (a data-plane frame regrows once, to its exact size).
pub(crate) const LOCK_PLANE_FRAME: usize = 64;

pub(crate) fn oversize(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
    )
}

/// The outbound half of the framing: one reusable buffer per connection in
/// which every frame is assembled — length prefix first, patched in place
/// once the payload's size is known — and from which it leaves in a single
/// `write`. On a `TCP_NODELAY` socket that is one segment and one syscall
/// per frame; writing prefix and payload separately costs two of each.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// An empty writer; the buffer grows to the largest frame sent (up to
    /// 64 KiB, beyond which it is given back after the frame).
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one frame whose payload is whatever `encode` **appends** to
    /// the buffer it is handed (e.g. [`encode_request_into`]). Fails with
    /// `InvalidData`, writing nothing, if that exceeds [`MAX_FRAME`]. Does
    /// not flush: a socket has nothing to flush, and a buffering `w` is
    /// its owner's to flush.
    pub fn write(
        &mut self,
        w: &mut impl Write,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        self.buf.clear();
        self.buf.shrink_to(RETAIN);
        self.buf.extend_from_slice(&[0; PREFIX]);
        encode(&mut self.buf);
        let len = self
            .buf
            .len()
            .checked_sub(PREFIX)
            .expect("a frame encoder only appends");
        if len > MAX_FRAME {
            return Err(oversize(len));
        }
        self.buf[..PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
        w.write_all(&self.buf)
    }
}

/// The inbound half of the framing: a grow-on-demand buffer that takes
/// whatever one `read` delivers and hands out the whole frames in it, one
/// per call, as slices of itself. A lone RPC frame costs one `read` and no
/// allocation; frames a peer pipelined into one segment cost no further
/// `read` at all; a frame and a half waits, in place, for its other half.
///
/// Memory follows the bytes received, not the length announced: the
/// prefix is checked against [`MAX_FRAME`] before anything is reserved for
/// the payload, and the buffer then stays at most 64 KiB ahead of what
/// has arrived; what one large frame grew it beyond 64 KiB is given back.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Initialized storage; `buf[head..tail]` holds received, unconsumed
    /// bytes and `buf[tail..]` is where the next `read` lands.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameReader {
    /// An empty reader; allocates on the first read.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next frame's payload, valid until the next call. `Ok(None)` is a
    /// clean end-of-stream (EOF exactly at a frame boundary); EOF inside a
    /// frame is `UnexpectedEof` and a length prefix beyond [`MAX_FRAME`] is
    /// `InvalidData`. After an error the stream is out of step and the
    /// reader must not be used again.
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
            if self.buf.len() > RETAIN {
                self.buf.truncate(RETAIN);
                self.buf.shrink_to_fit();
            }
        }
        loop {
            let avail = self.tail - self.head;
            let missing = if avail < PREFIX {
                PREFIX - avail
            } else {
                let prefix = &self.buf[self.head..self.head + PREFIX];
                let len = u32::from_le_bytes(prefix.try_into().expect("PREFIX bytes")) as usize;
                if len > MAX_FRAME {
                    return Err(oversize(len));
                }
                if avail >= PREFIX + len {
                    let start = self.head + PREFIX;
                    self.head = start + len;
                    return Ok(Some(&self.buf[start..start + len]));
                }
                PREFIX + len - avail
            };
            self.make_room(missing);
            let n = loop {
                match r.read(&mut self.buf[self.tail..]) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    other => break other?,
                }
            };
            if n == 0 {
                return if avail == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame",
                    ))
                };
            }
            self.tail += n;
        }
    }

    /// Makes `buf[tail..]` hold the `missing` bytes of the frame in flight,
    /// or [`READ_AHEAD`] of them if that is less: first by sliding the
    /// partial frame to the front, then by growing.
    fn make_room(&mut self, missing: usize) {
        let need = missing.min(READ_AHEAD);
        if self.buf.len() - self.tail < need && self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.tail < need {
            let len = self.tail + need.max(MIN_READ);
            self.buf.reserve_exact(len - self.buf.len());
            self.buf.resize(len, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Payload encoding: a byte-buffer writer and a checked cursor reader.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_mode(out: &mut Vec<u8>, mode: LockMode) {
    put_u8(
        out,
        match mode {
            LockMode::Shared => 0,
            LockMode::Exclusive => 1,
        },
    );
}

/// Strings carry a `u16` length prefix, so anything longer than 65535
/// bytes is cut — at a char boundary, never mid-codepoint, so the peer
/// always decodes valid UTF-8. Only server error messages (e.g. a long
/// `EDEADLK` cycle) can realistically reach the cap, where truncation is
/// harmless; the client refuses oversized paths and session names before
/// encoding (`ClientError::TooLong`) so a request can never silently
/// target a truncated, different path.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn mode(&mut self) -> Result<LockMode, WireError> {
        match self.u8()? {
            0 => Ok(LockMode::Shared),
            1 => Ok(LockMode::Exclusive),
            other => Err(WireError::BadMode(other)),
        }
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

const OP_HELLO: u8 = 1;
const OP_LOCK: u8 = 2;
const OP_TRY_LOCK: u8 = 3;
const OP_LOCK_MANY: u8 = 4;
const OP_UNLOCK: u8 = 5;
const OP_READ: u8 = 6;
const OP_WRITE: u8 = 7;
const OP_APPEND: u8 = 8;
const OP_TRUNCATE: u8 = 9;
const OP_BYE: u8 = 10;

const RE_OK: u8 = 1;
const RE_OFFSET: u8 = 2;
const RE_DATA: u8 = 3;
const RE_ERR: u8 = 4;

/// A [`Request`] whose strings and buffers are borrowed: from the frame it
/// was decoded out of (the session executes requests without copying the
/// path or the data out of the receive buffer) or from the caller's
/// arguments (the client encodes without first building an owned
/// `Request`). The one encoder and the one decoder work on this type;
/// the owned functions below convert at the edge.
#[derive(Debug)]
pub(crate) enum RequestView<'a> {
    Hello {
        name: &'a str,
    },
    Lock {
        path: &'a str,
        start: u64,
        end: u64,
        mode: LockMode,
    },
    TryLock {
        path: &'a str,
        start: u64,
        end: u64,
        mode: LockMode,
    },
    LockMany {
        path: &'a str,
        items: Cow<'a, [(u64, u64, LockMode)]>,
    },
    Unlock {
        path: &'a str,
        start: u64,
        end: u64,
    },
    Read {
        path: &'a str,
        offset: u64,
        len: u32,
    },
    Write {
        path: &'a str,
        offset: u64,
        data: &'a [u8],
    },
    Append {
        path: &'a str,
        data: &'a [u8],
    },
    Truncate {
        path: &'a str,
        len: u64,
    },
    Bye,
}

impl<'a> RequestView<'a> {
    /// Appends the request's payload encoding to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            RequestView::Hello { name } => {
                put_u8(out, OP_HELLO);
                put_str(out, name);
            }
            RequestView::Lock {
                path,
                start,
                end,
                mode,
            } => {
                put_u8(out, OP_LOCK);
                put_str(out, path);
                put_u64(out, *start);
                put_u64(out, *end);
                put_mode(out, *mode);
            }
            RequestView::TryLock {
                path,
                start,
                end,
                mode,
            } => {
                put_u8(out, OP_TRY_LOCK);
                put_str(out, path);
                put_u64(out, *start);
                put_u64(out, *end);
                put_mode(out, *mode);
            }
            RequestView::LockMany { path, items } => {
                put_u8(out, OP_LOCK_MANY);
                put_str(out, path);
                put_u32(out, items.len() as u32);
                for (start, end, mode) in items.iter() {
                    put_u64(out, *start);
                    put_u64(out, *end);
                    put_mode(out, *mode);
                }
            }
            RequestView::Unlock { path, start, end } => {
                put_u8(out, OP_UNLOCK);
                put_str(out, path);
                put_u64(out, *start);
                put_u64(out, *end);
            }
            RequestView::Read { path, offset, len } => {
                put_u8(out, OP_READ);
                put_str(out, path);
                put_u64(out, *offset);
                put_u32(out, *len);
            }
            RequestView::Write { path, offset, data } => {
                put_u8(out, OP_WRITE);
                put_str(out, path);
                put_u64(out, *offset);
                put_bytes(out, data);
            }
            RequestView::Append { path, data } => {
                put_u8(out, OP_APPEND);
                put_str(out, path);
                put_bytes(out, data);
            }
            RequestView::Truncate { path, len } => {
                put_u8(out, OP_TRUNCATE);
                put_str(out, path);
                put_u64(out, *len);
            }
            RequestView::Bye => put_u8(out, OP_BYE),
        }
    }

    /// Decodes a request payload without copying its strings or buffers.
    /// Every byte must be consumed.
    pub(crate) fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(buf);
        let req = match c.u8()? {
            OP_HELLO => RequestView::Hello { name: c.str()? },
            OP_LOCK => RequestView::Lock {
                path: c.str()?,
                start: c.u64()?,
                end: c.u64()?,
                mode: c.mode()?,
            },
            OP_TRY_LOCK => RequestView::TryLock {
                path: c.str()?,
                start: c.u64()?,
                end: c.u64()?,
                mode: c.mode()?,
            },
            OP_LOCK_MANY => {
                let path = c.str()?;
                let count = c.u32()? as usize;
                // Bound up-front allocation by what the payload can actually
                // hold (17 bytes per item), so a hostile count can't balloon.
                let mut items = Vec::with_capacity(count.min(buf.len() / 17 + 1));
                for _ in 0..count {
                    items.push((c.u64()?, c.u64()?, c.mode()?));
                }
                RequestView::LockMany {
                    path,
                    items: Cow::Owned(items),
                }
            }
            OP_UNLOCK => RequestView::Unlock {
                path: c.str()?,
                start: c.u64()?,
                end: c.u64()?,
            },
            OP_READ => RequestView::Read {
                path: c.str()?,
                offset: c.u64()?,
                len: c.u32()?,
            },
            OP_WRITE => RequestView::Write {
                path: c.str()?,
                offset: c.u64()?,
                data: c.bytes()?,
            },
            OP_APPEND => RequestView::Append {
                path: c.str()?,
                data: c.bytes()?,
            },
            OP_TRUNCATE => RequestView::Truncate {
                path: c.str()?,
                len: c.u64()?,
            },
            OP_BYE => RequestView::Bye,
            other => return Err(WireError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }

    fn into_owned(self) -> Request {
        match self {
            RequestView::Hello { name } => Request::Hello { name: name.into() },
            RequestView::Lock {
                path,
                start,
                end,
                mode,
            } => Request::Lock {
                path: path.into(),
                start,
                end,
                mode,
            },
            RequestView::TryLock {
                path,
                start,
                end,
                mode,
            } => Request::TryLock {
                path: path.into(),
                start,
                end,
                mode,
            },
            RequestView::LockMany { path, items } => Request::LockMany {
                path: path.into(),
                items: items.into_owned(),
            },
            RequestView::Unlock { path, start, end } => Request::Unlock {
                path: path.into(),
                start,
                end,
            },
            RequestView::Read { path, offset, len } => Request::Read {
                path: path.into(),
                offset,
                len,
            },
            RequestView::Write { path, offset, data } => Request::Write {
                path: path.into(),
                offset,
                data: data.into(),
            },
            RequestView::Append { path, data } => Request::Append {
                path: path.into(),
                data: data.into(),
            },
            RequestView::Truncate { path, len } => Request::Truncate {
                path: path.into(),
                len,
            },
            RequestView::Bye => Request::Bye,
        }
    }
}

impl Request {
    fn view(&self) -> RequestView<'_> {
        match self {
            Request::Hello { name } => RequestView::Hello { name },
            Request::Lock {
                path,
                start,
                end,
                mode,
            } => RequestView::Lock {
                path,
                start: *start,
                end: *end,
                mode: *mode,
            },
            Request::TryLock {
                path,
                start,
                end,
                mode,
            } => RequestView::TryLock {
                path,
                start: *start,
                end: *end,
                mode: *mode,
            },
            Request::LockMany { path, items } => RequestView::LockMany {
                path,
                items: Cow::Borrowed(items),
            },
            Request::Unlock { path, start, end } => RequestView::Unlock {
                path,
                start: *start,
                end: *end,
            },
            Request::Read { path, offset, len } => RequestView::Read {
                path,
                offset: *offset,
                len: *len,
            },
            Request::Write { path, offset, data } => RequestView::Write {
                path,
                offset: *offset,
                data,
            },
            Request::Append { path, data } => RequestView::Append { path, data },
            Request::Truncate { path, len } => RequestView::Truncate { path, len: *len },
            Request::Bye => RequestView::Bye,
        }
    }
}

/// Appends a request's payload encoding (no length prefix) to `out` — the
/// allocation-free form, for a caller that reuses its buffer or frames
/// through a [`FrameWriter`].
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) {
    req.view().encode_into(out);
}

/// Encodes a request into a fresh frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(LOCK_PLANE_FRAME);
    encode_request_into(req, &mut out);
    out
}

/// Decodes a request payload; the inverse of [`encode_request`]. Every
/// byte must be consumed.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    RequestView::decode(buf).map(RequestView::into_owned)
}

/// Appends a reply's payload encoding (no length prefix) to `out`; see
/// [`encode_request_into`].
pub fn encode_reply_into(reply: &Reply, out: &mut Vec<u8>) {
    match reply {
        Reply::Ok => put_u8(out, RE_OK),
        Reply::Offset(v) => {
            put_u8(out, RE_OFFSET);
            put_u64(out, *v);
        }
        Reply::Data(data) => {
            put_u8(out, RE_DATA);
            put_bytes(out, data);
        }
        Reply::Err { code, message } => {
            put_u8(out, RE_ERR);
            put_u8(out, code.to_byte());
            put_str(out, message);
        }
    }
}

/// Encodes a reply into a fresh frame payload (no length prefix).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::with_capacity(LOCK_PLANE_FRAME);
    encode_reply_into(reply, &mut out);
    out
}

/// Decodes a reply payload; the inverse of [`encode_reply`]. Every byte
/// must be consumed.
pub fn decode_reply(buf: &[u8]) -> Result<Reply, WireError> {
    let mut c = Cursor::new(buf);
    let reply = match c.u8()? {
        RE_OK => Reply::Ok,
        RE_OFFSET => Reply::Offset(c.u64()?),
        RE_DATA => Reply::Data(c.bytes()?.to_vec()),
        RE_ERR => Reply::Err {
            code: ErrCode::from_byte(c.u8()?)?,
            message: c.str()?.to_string(),
        },
        other => return Err(WireError::BadOpcode(other)),
    };
    c.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted byte source: hands out `data` in chunks of the sizes
    /// `chunk` dictates (at most what the caller's buffer takes), counts
    /// the reads, and at the end either reports EOF or stalls.
    struct Feed<'a, F> {
        data: &'a [u8],
        chunk: F,
        stall: bool,
        reads: usize,
    }

    impl<'a, F: FnMut() -> usize> Feed<'a, F> {
        fn new(data: &'a [u8], chunk: F) -> Self {
            Feed {
                data,
                chunk,
                stall: false,
                reads: 0,
            }
        }
    }

    impl<F: FnMut() -> usize> Read for Feed<'_, F> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.data.is_empty() && self.stall {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = (self.chunk)().max(1).min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Counts `write` calls; takes whatever it is given.
    #[derive(Default)]
    struct Sink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn framed(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut writer = FrameWriter::new();
        let mut stream = Vec::new();
        for frame in frames {
            writer
                .write(&mut stream, |out| out.extend_from_slice(frame))
                .unwrap();
        }
        stream
    }

    fn read_all(reader: &mut FrameReader, feed: &mut impl Read) -> io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(frame) = reader.read_frame(feed)? {
            out.push(frame.to_vec());
        }
        Ok(out)
    }

    /// Payload sizes around every boundary the reader has: empty, the
    /// prefix width, `MIN_READ`, a 4 KiB data frame, `READ_AHEAD`/`RETAIN`.
    fn assorted_frames() -> Vec<Vec<u8>> {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        [
            0, 1, 3, 4, 5, 29, 507, 508, 509, 512, 4124, 1, 0, 65531, 65532, 65536, 70000, 2,
            200_000, 7,
        ]
        .iter()
        .map(|&len| (0..len).map(|_| xorshift(&mut rng) as u8).collect())
        .collect()
    }

    /// The corpus behind [`GOLDEN`], in stream order.
    fn corpus() -> (Vec<Request>, Vec<Reply>) {
        let a = || "/golden/a".to_string();
        let requests = vec![
            Request::Hello {
                name: "client-7".to_string(),
            },
            Request::Lock {
                path: a(),
                start: 4096,
                end: 8192,
                mode: LockMode::Exclusive,
            },
            Request::TryLock {
                path: a(),
                start: 0,
                end: u64::MAX,
                mode: LockMode::Shared,
            },
            Request::LockMany {
                path: "/golden/b".to_string(),
                items: vec![(0, 64, LockMode::Shared), (128, 256, LockMode::Exclusive)],
            },
            Request::Unlock {
                path: a(),
                start: 4096,
                end: 8192,
            },
            Request::Read {
                path: "/golden/ü".to_string(),
                offset: 1 << 40,
                len: 4096,
            },
            Request::Write {
                path: a(),
                offset: 4096,
                data: (0..32u8).collect(),
            },
            Request::Append {
                path: String::new(),
                data: Vec::new(),
            },
            Request::Truncate {
                path: a(),
                len: 12345,
            },
            Request::Bye,
        ];
        let replies = vec![
            Reply::Ok,
            Reply::Offset(0x0102_0304_0506_0708),
            Reply::Data((0..16u8).rev().collect()),
            Reply::Data(Vec::new()),
            Reply::Err {
                code: ErrCode::WouldBlock,
                message: "busy".to_string(),
            },
            Reply::Err {
                code: ErrCode::Deadlock,
                message: "a → b → a".to_string(),
            },
            Reply::Err {
                code: ErrCode::Protocol,
                message: String::new(),
            },
        ];
        (requests, replies)
    }

    /// The framed byte stream of [`corpus`] as the two-write
    /// `write_frame(encode_*(..))` of the commit before `FrameWriter`
    /// produced it.
    const GOLDEN: &[&str] = &[
        "0b000000010800636c69656e742d371d0000000209002f676f6c64656e2f6100",
        "100000000000000020000000000000011d0000000309002f676f6c64656e2f61",
        "0000000000000000ffffffffffffffff00320000000409002f676f6c64656e2f",
        "6202000000000000000000000040000000000000000080000000000000000001",
        "000000000000011c0000000509002f676f6c64656e2f61001000000000000000",
        "2000000000000019000000060a002f676f6c64656e2fc3bc0000000000010000",
        "00100000380000000709002f676f6c64656e2f61001000000000000020000000",
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "0700000008000000000000140000000909002f676f6c64656e2f613930000000",
        "000000010000000a010000000109000000020807060504030201150000000310",
        "0000000f0e0d0c0b0a0908070605040302010005000000030000000008000000",
        "04010400627573791100000004020d006120e28692206220e286922061040000",
        "0004030000",
    ];

    #[test]
    fn wire_bytes_are_the_parents() {
        let golden: Vec<u8> = GOLDEN
            .concat()
            .as_bytes()
            .chunks(2)
            .map(|hex| u8::from_str_radix(std::str::from_utf8(hex).unwrap(), 16).unwrap())
            .collect();
        let (requests, replies) = corpus();

        // The new writer produces the old stream…
        let mut writer = FrameWriter::new();
        let mut stream = Vec::new();
        for req in &requests {
            writer
                .write(&mut stream, |out| encode_request_into(req, out))
                .unwrap();
        }
        for reply in &replies {
            writer
                .write(&mut stream, |out| encode_reply_into(reply, out))
                .unwrap();
        }
        assert_eq!(stream, golden);

        // …and the new reader cuts it into the old payloads.
        let payloads = read_all(&mut FrameReader::new(), &mut &golden[..]).unwrap();
        assert_eq!(payloads.len(), requests.len() + replies.len());
        let (req_payloads, reply_payloads) = payloads.split_at(requests.len());
        for (req, payload) in requests.iter().zip(req_payloads) {
            assert_eq!(&encode_request(req), payload);
            assert_eq!(&decode_request(payload).unwrap(), req);
        }
        for (reply, payload) in replies.iter().zip(reply_payloads) {
            assert_eq!(&encode_reply(reply), payload);
            assert_eq!(&decode_reply(payload).unwrap(), reply);
        }
    }

    #[test]
    fn frames_survive_every_split() {
        let frames = assorted_frames();
        let stream = framed(&frames);

        // One byte per read: every frame is a frame and a half for a while.
        let mut feed = Feed::new(&stream, || 1);
        assert_eq!(
            read_all(&mut FrameReader::new(), &mut feed).unwrap(),
            frames
        );

        // Everything one read can take: several frames (and the head of the
        // next) per read.
        let mut feed = Feed::new(&stream, || usize::MAX);
        assert_eq!(
            read_all(&mut FrameReader::new(), &mut feed).unwrap(),
            frames
        );

        // Random chunks at three scales, from "mid-prefix" to "many frames".
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for scale in [7, 600, 100_000] {
            for _ in 0..20 {
                let mut feed = Feed::new(&stream, || (xorshift(&mut rng) % scale) as usize);
                assert_eq!(
                    read_all(&mut FrameReader::new(), &mut feed).unwrap(),
                    frames
                );
            }
        }
    }

    #[test]
    fn eof_is_clean_only_at_a_frame_boundary() {
        let frames = vec![b"abc".to_vec(), Vec::new(), vec![7; 1000]];
        let stream = framed(&frames);
        let boundaries = [0, 7, 11, stream.len()];
        for cut in 0..=stream.len() {
            let mut reader = FrameReader::new();
            let outcome = read_all(&mut reader, &mut &stream[..cut]);
            match boundaries.iter().position(|b| *b == cut) {
                Some(whole) => assert_eq!(outcome.unwrap(), frames[..whole], "cut at {cut}"),
                // Inside a prefix or inside a payload.
                None => assert_eq!(
                    outcome.unwrap_err().kind(),
                    io::ErrorKind::UnexpectedEof,
                    "cut at {cut}"
                ),
            }
        }
    }

    #[test]
    fn oversize_prefix_is_rejected_before_reserving() {
        let mut stream = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        stream.extend_from_slice(&[0; 64]);
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut &stream[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(reader.buf.capacity() <= MIN_READ);

        // The largest legal prefix is not an error, just a long wait.
        let stream = (MAX_FRAME as u32).to_le_bytes();
        let mut feed = Feed::new(&stream, || 4);
        feed.stall = true;
        let err = FrameReader::new().read_frame(&mut feed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn memory_follows_bytes_received_not_bytes_announced() {
        // Four bytes announcing 16 MiB, then silence: 64 KiB, not 16 MiB.
        let mut stream = (MAX_FRAME as u32).to_le_bytes().to_vec();
        let mut feed = Feed::new(&stream, || usize::MAX);
        feed.stall = true;
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut feed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(reader.buf.capacity() <= 64 * 1024);

        // A peer that does send has to pay for every further 64 KiB.
        stream.extend_from_slice(&vec![1; 300_000]);
        let mut feed = Feed::new(&stream, || 1000);
        feed.stall = true;
        let mut reader = FrameReader::new();
        let err = reader.read_frame(&mut feed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(reader.buf.capacity() <= stream.len() + 64 * 1024);
    }

    #[test]
    fn buffers_give_back_what_one_large_frame_grew() {
        let frames = vec![vec![9; 1 << 20], b"small".to_vec()];
        let stream = framed(&frames);
        let mut reader = FrameReader::new();
        let mut feed = Feed::new(&stream[..4 + (1 << 20)], || usize::MAX);
        assert_eq!(
            reader.read_frame(&mut feed).unwrap().unwrap(),
            &frames[0][..]
        );
        assert!(reader.buf.capacity() > RETAIN);
        let mut feed = Feed::new(&stream[4 + (1 << 20)..], || usize::MAX);
        assert_eq!(reader.read_frame(&mut feed).unwrap().unwrap(), b"small");
        assert!(reader.buf.capacity() <= RETAIN);

        let mut writer = FrameWriter::new();
        let mut sink = Sink::default();
        writer
            .write(&mut sink, |out| out.extend_from_slice(&frames[0]))
            .unwrap();
        writer.write(&mut sink, |out| out.push(1)).unwrap();
        assert!(writer.buf.capacity() <= RETAIN);
    }

    /// The syscall arithmetic of the module docs, on counted mock sockets:
    /// a frame leaves in one `write`; a lone frame arrives in one `read`
    /// once the buffer has seen its size; pipelined frames share a `read`.
    #[test]
    fn one_write_per_frame_and_one_read_per_delivery() {
        let (requests, replies) = corpus();
        let mut writer = FrameWriter::new();
        let mut sink = Sink::default();
        for req in &requests {
            writer
                .write(&mut sink, |out| encode_request_into(req, out))
                .unwrap();
        }
        assert_eq!(sink.writes, requests.len());

        // An oversized payload is refused with nothing written.
        let err = writer
            .write(&mut sink, |out| out.resize(out.len() + MAX_FRAME + 1, 0))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(sink.writes, requests.len());

        // RPC-style: the peer sends one frame and waits. 4 KiB data frames
        // and 1-byte `Ok`s alternate, as on the client of a write loop.
        let data = framed(&[encode_reply(&Reply::Data(vec![5; 4096]))]);
        let ok = framed(&[encode_reply(&replies[0])]);
        let mut reader = FrameReader::new();
        let mut lone = |stream: &[u8]| {
            let mut feed = Feed::new(stream, || usize::MAX);
            feed.stall = true;
            reader.read_frame(&mut feed).unwrap().unwrap();
            feed.reads
        };
        assert_eq!(lone(&data), 2, "the first large frame sizes the buffer");
        for _ in 0..3 {
            assert_eq!(lone(&ok), 1);
            assert_eq!(lone(&data), 1);
        }

        // Pipelined: ten frames in one segment cost one read, not ten.
        let stream = framed(&requests.iter().map(encode_request).collect::<Vec<_>>());
        let mut feed = Feed::new(&stream, || usize::MAX);
        feed.stall = true;
        let mut reader = FrameReader::new();
        for req in &requests {
            let frame = reader.read_frame(&mut feed).unwrap().unwrap();
            assert_eq!(&decode_request(frame).unwrap(), req);
        }
        assert_eq!(feed.reads, 1);
    }
}
