//! A sharded, paged, in-memory file store whose only concurrency control is a
//! range lock.
//!
//! [`RangeFile`] is the data-plane counterpart of the [`crate::LockTable`]:
//! where the table reproduces the *advisory* `fcntl` interface, the file
//! reproduces the *mandatory* exclusion a file system needs internally —
//! every `pread`/`pwrite`/`append`/`truncate` takes the byte range it touches
//! on the file's [`RwRangeLock`], so disjoint operations run in parallel and
//! overlapping reader/writer pairs serialize. This is the workload the range
//! locks were originally built for (Lustre's byte-range locks, pNOVA's
//! per-file segment locks), generalized over every lock variant in the
//! workspace.
//!
//! Two supporting mechanisms make the store useful as a correctness harness
//! and a benchmark:
//!
//! * **Integrity checking** — file bytes live in atomic 8-byte words and
//!   every access to them is an atomic operation (see `Page`), so even a
//!   broken lock cannot cause undefined behavior, and
//!   [`RangeFile::write_stamped`] / [`RangeFile::read_stamped`] implement a
//!   tag protocol that *detects* any exclusion violation: a stamped writer
//!   re-reads its range before releasing, a stamped reader requires the
//!   range to be uniform, so any torn read or write — down to a single
//!   byte — surfaces as a counted violation.
//! * **Per-operation wait accounting** — with
//!   [`RangeFile::with_op_stats`] each operation records its lock
//!   acquisition latency into a [`LabeledStats`] handle named after the
//!   operation (`pread`, `pwrite`, `append`, `truncate`), the file-workload
//!   analogue of the paper's Figures 7–8 wait-time tables.
//!
//! Pages are **sparse**: a page is allocated by the first write into it, a
//! hole reads as zeros, so a write at a high offset costs one page (plus
//! eight bytes of page table per page index below it), not the whole prefix.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use range_lock::{Range, RwRangeLock};
use rl_sync::stats::{LabeledStats, WaitKind, WaitStats};

/// Bytes per page of the backing store.
pub const PAGE_SIZE: usize = 4096;

/// Bytes per word of a [`Page`].
const WORD: usize = 8;

/// One page of file bytes, held as little-endian atomic words: file byte
/// `8w + i` is byte `i` of `words[w]` under `to_le_bytes`, whatever the
/// host's endianness.
///
/// Every access is an atomic operation, so that racy access — which can only
/// happen if the range lock under test is broken — stays defined behavior
/// and is *observed* by the integrity checker instead of being UB. That is
/// why the byte movers are not a `memcpy` over an `UnsafeCell`: it would be
/// faster still, and would turn a lock bug into a data race. Whole words of
/// a span move as one relaxed 8-byte load or store (the range lock held
/// around the access orders it against every other holder; the words
/// themselves publish nothing).
///
/// **The masked-edge rule.** Range locks are byte-granular, so two writers
/// holding adjacent ranges that meet inside one word both own bytes of it.
/// A span's partial first and last word are therefore written only through
/// an atomic read-modify-write that replaces the bytes under the span's
/// mask and leaves the rest of the word as it finds it — never by a load,
/// a merge and a plain store, which would write back a stale copy of the
/// neighbour's bytes.
struct Page {
    words: [AtomicU64; PAGE_SIZE / WORD],
}

/// The word bits holding bytes `[lo, lo + n)` of a word (`1 <= n`,
/// `lo + n <= WORD`).
#[inline]
fn byte_mask(lo: usize, n: usize) -> u64 {
    (u64::MAX >> (64 - 8 * n)) << (8 * lo)
}

/// `tag` in every byte of a word.
#[inline]
fn splat(tag: u8) -> u64 {
    u64::from_ne_bytes([tag; WORD])
}

impl Page {
    fn new_boxed() -> Box<Page> {
        Box::new(Page {
            words: [const { AtomicU64::new(0) }; PAGE_SIZE / WORD],
        })
    }

    /// Visits the words under bytes `[at, at + n)` of the page in order:
    /// `f(word, lo, k, pos)` covers bytes `[lo, lo + k)` of `word`, which
    /// are bytes `[pos, pos + k)` of the span. Only the first and the last
    /// call can have `k < WORD`; the interior loop passes the constants
    /// `(0, WORD)`, so once inlined a visitor's partial-word arm folds away
    /// there.
    #[inline]
    fn walk(&self, at: usize, n: usize, mut f: impl FnMut(&AtomicU64, usize, usize, usize)) {
        let mut first = at / WORD;
        let lo = at % WORD;
        let head = if lo == 0 { 0 } else { (WORD - lo).min(n) };
        if head > 0 {
            f(&self.words[first], lo, head, 0);
            first += 1;
        }
        let (body, tail) = ((n - head) / WORD, (n - head) % WORD);
        for (i, word) in self.words[first..first + body].iter().enumerate() {
            f(word, 0, WORD, head + i * WORD);
        }
        if tail > 0 {
            f(&self.words[first + body], 0, tail, n - tail);
        }
    }

    /// Sets bytes `[lo, lo + k)` of `word` to those bytes of `value`: a
    /// plain store for a whole word, the masked read-modify-write of the
    /// type docs for a partial one.
    #[inline]
    fn put(word: &AtomicU64, lo: usize, k: usize, value: u64) {
        if k == WORD {
            word.store(value, Ordering::Relaxed);
        } else {
            let mask = byte_mask(lo, k);
            let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some((cur & !mask) | (value & mask))
            });
        }
    }

    /// Copies `data` to bytes `[at, at + data.len())` of the page.
    fn store(&self, at: usize, data: &[u8]) {
        self.walk(at, data.len(), |word, lo, k, pos| {
            let mut bytes = [0u8; WORD];
            bytes[lo..lo + k].copy_from_slice(&data[pos..pos + k]);
            Page::put(word, lo, k, u64::from_le_bytes(bytes));
        });
    }

    /// Copies bytes `[at, at + buf.len())` of the page to `buf`.
    fn load(&self, at: usize, buf: &mut [u8]) {
        self.walk(at, buf.len(), |word, lo, k, pos| {
            let bytes = word.load(Ordering::Relaxed).to_le_bytes();
            buf[pos..pos + k].copy_from_slice(&bytes[lo..lo + k]);
        });
    }

    /// Sets bytes `[at, at + n)` of the page to `tag`.
    fn fill(&self, at: usize, n: usize, tag: u8) {
        let pattern = splat(tag);
        self.walk(at, n, |word, lo, k, _| Page::put(word, lo, k, pattern));
    }

    /// Whether every byte of `[at, at + n)` equals `tag`. XOR against the
    /// pattern keeps the check byte-granular: one differing byte anywhere
    /// under the span's masks leaves a non-zero bit.
    fn all_eq(&self, at: usize, n: usize, tag: u8) -> bool {
        let pattern = splat(tag);
        let mut diff = 0;
        self.walk(at, n, |word, lo, k, _| {
            diff |= (word.load(Ordering::Relaxed) ^ pattern) & byte_mask(lo, k);
        });
        diff == 0
    }
}

/// The page table: slot `i` backs file bytes `[i * PAGE_SIZE, (i + 1) *
/// PAGE_SIZE)`; `None` (or past the end) is a hole that reads as zeros.
type PageTable = Vec<Option<Box<Page>>>;

fn page_at(pages: &[Option<Box<Page>>], index: usize) -> Option<&Page> {
    pages.get(index)?.as_deref()
}

/// Cuts the byte span `[offset, offset + len)` at page boundaries:
/// `f(page, at, n, pos)` covers bytes `[at, at + n)` of page `page`, which
/// are bytes `[pos, pos + n)` of the span.
#[inline]
fn for_pages(offset: u64, len: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut addr = usize::try_from(offset).expect("file offset exceeds addressable memory");
    let mut pos = 0;
    while pos < len {
        let (page, at) = (addr / PAGE_SIZE, addr % PAGE_SIZE);
        let n = (PAGE_SIZE - at).min(len - pos);
        f(page, at, n, pos);
        addr += n;
        pos += n;
    }
}

/// Pre-resolved per-operation wait-stat handles (see
/// [`RangeFile::with_op_stats`]).
struct OpStats {
    pread: Arc<WaitStats>,
    pwrite: Arc<WaitStats>,
    append: Arc<WaitStats>,
    truncate: Arc<WaitStats>,
}

/// An in-memory file whose byte ranges are protected by a range lock.
///
/// # Examples
///
/// ```
/// use range_lock::RwListRangeLock;
/// use rl_file::RangeFile;
///
/// let file = RangeFile::new(RwListRangeLock::new());
/// file.pwrite(0, b"hello, range locks");
/// let mut buf = [0u8; 5];
/// assert_eq!(file.pread(7, &mut buf), 5);
/// assert_eq!(&buf, b"range");
/// let off = file.append(b"!");
/// assert_eq!(off, 18);
/// file.truncate(5);
/// assert_eq!(file.len(), 5);
/// ```
///
/// # Concurrency semantics
///
/// Operations are atomic with respect to each other exactly over the byte
/// ranges they lock. `append` reserves its offset with one fetch-add and then
/// behaves like a `pwrite` of the reserved range, so two concurrent appends
/// never overlap; a reader can observe a later append's bytes before an
/// earlier in-flight append completes (the gap reads as zeros), which matches
/// the usual "size is advisory under concurrency" file-system contract.
pub struct RangeFile<L: RwRangeLock> {
    lock: L,
    /// Page table. Pages are only ever added (truncation zeroes rather than
    /// frees). Its guard is the innermost lock of an operation: taken once,
    /// after the range lock is held, for the duration of the byte copy — so
    /// nobody waits for a range while holding it.
    pages: RwLock<PageTable>,
    /// Committed logical length: maximum end of any completed write.
    len: AtomicU64,
    /// Reservation cursor for `append`: max end ever reserved or written.
    reserved: AtomicU64,
    ops: Option<OpStats>,
}

impl<L: RwRangeLock> RangeFile<L> {
    /// Creates an empty file protected by `lock`.
    pub fn new(lock: L) -> Self {
        RangeFile {
            lock,
            pages: RwLock::new(Vec::new()),
            len: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            ops: None,
        }
    }

    /// Attaches per-operation wait accounting: each operation's lock
    /// acquisition latency is recorded under the labels `pread`, `pwrite`,
    /// `append` and `truncate` of `labels`. The recorded "wait" is the full
    /// acquisition latency of the underlying range lock (uncontended
    /// acquisitions therefore contribute their small constant cost), so
    /// [`rl_sync::stats::LockStatSnapshot::avg_wait_per_acquisition_ns`] is
    /// the mean time an operation spent entering its critical section.
    pub fn with_op_stats(mut self, labels: &LabeledStats) -> Self {
        self.ops = Some(OpStats {
            pread: labels.handle("pread"),
            pwrite: labels.handle("pwrite"),
            append: labels.handle("append"),
            truncate: labels.handle("truncate"),
        });
        self
    }

    /// Committed file length in bytes.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Returns `true` if no byte has been written (or the file was truncated
    /// to zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short name of the protecting lock (`"list-rw"`, `"kernel-rw"`, …).
    pub fn lock_name(&self) -> &'static str {
        self.lock.name()
    }

    /// Number of allocated pages (monotonic; never shrinks). Holes — pages
    /// no write has touched — are not counted.
    pub fn allocated_pages(&self) -> usize {
        self.pages.read().iter().flatten().count()
    }

    /// Runs `acquire` (a range-lock acquisition), recording its latency as a
    /// `kind` wait under the `stats` label when op stats are attached — the
    /// clock is read only then.
    fn timed<G>(
        &self,
        kind: WaitKind,
        stats: impl Fn(&OpStats) -> &Arc<WaitStats>,
        acquire: impl FnOnce() -> G,
    ) -> G {
        let Some(ops) = &self.ops else {
            return acquire();
        };
        let started = Instant::now();
        let guard = acquire();
        stats(ops).record_wait_ns(kind, started.elapsed().as_nanos() as u64);
        guard
    }

    fn lock_write(
        &self,
        range: Range,
        stats: impl Fn(&OpStats) -> &Arc<WaitStats>,
    ) -> L::WriteGuard<'_> {
        self.timed(WaitKind::Write, stats, || self.lock.write(range))
    }

    fn lock_read(&self, range: Range) -> L::ReadGuard<'_> {
        self.timed(WaitKind::Read, |o| &o.pread, || self.lock.read(range))
    }

    /// The page table with every page under bytes `[offset, end)` allocated.
    fn pages_for_write(&self, offset: u64, end: u64) -> RwLockReadGuard<'_, PageTable> {
        let end = usize::try_from(end).expect("file offset exceeds addressable memory");
        // `offset <= end`, so it fits as well.
        let span = offset as usize / PAGE_SIZE..end.div_ceil(PAGE_SIZE);
        loop {
            let pages = self.pages.read();
            if pages
                .get(span.clone())
                .is_some_and(|slots| slots.iter().all(Option::is_some))
            {
                return pages;
            }
            drop(pages);
            let mut pages = self.pages.write();
            if pages.len() < span.end {
                pages.resize_with(span.end, || None);
            }
            for slot in &mut pages[span.clone()] {
                slot.get_or_insert_with(Page::new_boxed);
            }
        }
    }

    /// Copies `data` into the file at `offset`. The caller must hold the
    /// covering range acquisition; `pages` must come from
    /// [`RangeFile::pages_for_write`] over the span.
    fn copy_in(pages: &[Option<Box<Page>>], offset: u64, data: &[u8]) {
        for_pages(offset, data.len(), |page, at, n, pos| {
            let page = page_at(pages, page).expect("write span is allocated");
            page.store(at, &data[pos..pos + n]);
        });
    }

    /// Copies `buf.len()` bytes out of the file at `offset`; holes read as
    /// zeros.
    fn copy_out(pages: &[Option<Box<Page>>], offset: u64, buf: &mut [u8]) {
        for_pages(offset, buf.len(), |page, at, n, pos| {
            let buf = &mut buf[pos..pos + n];
            match page_at(pages, page) {
                Some(page) => page.load(at, buf),
                None => buf.fill(0),
            }
        });
    }

    /// Whether every byte of `[offset, offset + len)` equals `tag`.
    fn span_all_eq(pages: &[Option<Box<Page>>], offset: u64, len: usize, tag: u8) -> bool {
        let mut uniform = true;
        for_pages(offset, len, |page, at, n, _| {
            uniform &= match page_at(pages, page) {
                Some(page) => page.all_eq(at, n, tag),
                None => tag == 0,
            };
        });
        uniform
    }

    /// Publishes a completed write ending at `end`.
    fn publish_write(&self, end: u64) {
        self.reserved.fetch_max(end, Ordering::AcqRel);
        self.len.fetch_max(end, Ordering::AcqRel);
    }

    /// Writes `data` at `offset`, extending the file if needed
    /// (positioned write, `pwrite(2)`).
    pub fn pwrite(&self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = offset
            .checked_add(data.len() as u64)
            .expect("file range overflows u64");
        let _g = self.lock_write(Range::new(offset, end), |o| &o.pwrite);
        Self::copy_in(&self.pages_for_write(offset, end), offset, data);
        self.publish_write(end);
    }

    /// Reads up to `buf.len()` bytes at `offset`, stopping at end-of-file;
    /// returns the number of bytes read (positioned read, `pread(2)`).
    pub fn pread(&self, offset: u64, buf: &mut [u8]) -> usize {
        let len = self.len();
        let n = (len.saturating_sub(offset)).min(buf.len() as u64) as usize;
        if n == 0 {
            return 0;
        }
        let _g = self.lock_read(Range::new(offset, offset + n as u64));
        Self::copy_out(&self.pages.read(), offset, &mut buf[..n]);
        n
    }

    /// Appends `data` at the current append cursor and returns the offset it
    /// was written at. Concurrent appends never overlap: each reserves its
    /// offset with one atomic fetch-add before locking its range, and the
    /// cursor never moves backwards (see [`RangeFile::truncate`]).
    pub fn append(&self, data: &[u8]) -> u64 {
        let n = data.len() as u64;
        let offset = self.reserved.fetch_add(n, Ordering::AcqRel);
        if n == 0 {
            return offset;
        }
        let end = offset.checked_add(n).expect("file range overflows u64");
        let _g = self.lock_write(Range::new(offset, end), |o| &o.append);
        Self::copy_in(&self.pages_for_write(offset, end), offset, data);
        self.publish_write(end);
        offset
    }

    /// Sets the file length to `new_len`: shrinking zeroes the cut-off tail
    /// (so a later re-extension reads zeros, as `ftruncate(2)` guarantees),
    /// growing just moves the end-of-file (the gap reads as zeros already).
    ///
    /// The operation write-locks `[new_len, 2^64-1)`, so it excludes every
    /// in-flight operation past the cut while leaving operations below it
    /// untouched.
    ///
    /// The append cursor is deliberately **not** moved back by a shrinking
    /// truncate: an in-flight [`RangeFile::append`] may hold a reservation
    /// past the cut (taken before the truncate's guard excluded it), and
    /// re-issuing those offsets would let two appends collide. Appends after
    /// a shrinking truncate therefore continue from the pre-truncate
    /// high-water mark, leaving a zero-filled gap — append offsets are
    /// monotonic for the lifetime of the file.
    pub fn truncate(&self, new_len: u64) {
        let _g = self.lock_write(Range::new(new_len, u64::MAX), |o| &o.truncate);
        let old_end = self
            .reserved
            .load(Ordering::Acquire)
            .max(self.len.load(Ordering::Acquire));
        if old_end > new_len {
            let pages = self.pages.read();
            // Nothing past the table's end, and no hole, needs zeroing.
            let zero_end = old_end.min((pages.len() * PAGE_SIZE) as u64);
            let cut = zero_end.saturating_sub(new_len) as usize;
            for_pages(new_len, cut, |page, at, n, _| {
                if let Some(page) = page_at(&pages, page) {
                    page.fill(at, n, 0);
                }
            });
        }
        self.len.store(new_len, Ordering::Release);
        // Only ever raise the cursor (see the doc comment above).
        self.reserved.fetch_max(new_len, Ordering::AcqRel);
    }

    /// Stamped write for integrity checking: writes `tag` into every byte of
    /// `[offset, offset + len)` under one write acquisition, then re-reads
    /// the span *before releasing*. Returns `false` — an exclusion violation
    /// — if any byte changed under the held write lock.
    pub fn write_stamped(&self, offset: u64, len: usize, tag: u8) -> bool {
        if len == 0 {
            return true;
        }
        let end = offset
            .checked_add(len as u64)
            .expect("file range overflows u64");
        let _g = self.lock_write(Range::new(offset, end), |o| &o.pwrite);
        let pages = self.pages_for_write(offset, end);
        for_pages(offset, len, |page, at, n, _| {
            let page = page_at(&pages, page).expect("write span is allocated");
            page.fill(at, n, tag);
        });
        let ok = Self::span_all_eq(&pages, offset, len, tag);
        drop(pages);
        self.publish_write(end);
        ok
    }

    /// Stamped read for integrity checking: reads `[offset, offset + len)`
    /// under one read acquisition and returns the span's uniform tag, or
    /// `None` — an exclusion violation — if the span mixes tags (a writer ran
    /// concurrently inside a supposedly read-locked range). Unwritten spans
    /// uniformly read tag `0`.
    pub fn read_stamped(&self, offset: u64, len: usize) -> Option<u8> {
        if len == 0 {
            return Some(0);
        }
        let end = offset
            .checked_add(len as u64)
            .expect("file range overflows u64");
        let _g = self.lock_read(Range::new(offset, end));
        let pages = self.pages.read();
        let mut first = [0u8];
        Self::copy_out(&pages, offset, &mut first);
        Self::span_all_eq(&pages, offset, len, first[0]).then_some(first[0])
    }
}

impl<L: RwRangeLock> std::fmt::Debug for RangeFile<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeFile")
            .field("lock", &self.lock_name())
            .field("len", &self.len())
            .field("allocated_pages", &self.allocated_pages())
            .finish()
    }
}

/// A sharded path → [`RangeFile`] namespace.
///
/// Paths are hashed onto a fixed number of shards, each protected by its own
/// mutex, so concurrent `open` calls on different files rarely contend — the
/// namespace is never the bottleneck the per-file range locks are being
/// measured against.
///
/// # Examples
///
/// ```
/// use range_lock::RwListRangeLock;
/// use rl_file::{FileStore, RangeFile};
///
/// let store = FileStore::new(|| RangeFile::new(RwListRangeLock::new()));
/// let log = store.open("/var/log/app");
/// log.append(b"started\n");
/// assert!(std::sync::Arc::ptr_eq(&log, &store.open("/var/log/app")));
/// assert_eq!(store.file_count(), 1);
/// ```
pub struct FileStore<L: RwRangeLock> {
    shards: Vec<Mutex<HashMap<String, Arc<RangeFile<L>>>>>,
    factory: Box<dyn Fn() -> RangeFile<L> + Send + Sync>,
}

/// Default number of namespace shards.
pub const DEFAULT_SHARDS: usize = 16;

impl<L: RwRangeLock> FileStore<L> {
    /// Creates a store with [`DEFAULT_SHARDS`] shards; `factory` builds the
    /// backing file (and in particular its lock) for every newly opened path.
    pub fn new(factory: impl Fn() -> RangeFile<L> + Send + Sync + 'static) -> Self {
        Self::with_shards(DEFAULT_SHARDS, factory)
    }

    /// Creates a store with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(
        shards: usize,
        factory: impl Fn() -> RangeFile<L> + Send + Sync + 'static,
    ) -> Self {
        assert!(shards > 0, "shard count must be positive");
        FileStore {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            factory: Box::new(factory),
        }
    }

    fn shard(&self, path: &str) -> &Mutex<HashMap<String, Arc<RangeFile<L>>>> {
        let mut hasher = DefaultHasher::new();
        path.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Returns the file at `path`, creating it on first open.
    pub fn open(&self, path: &str) -> Arc<RangeFile<L>> {
        let mut shard = self.shard(path).lock();
        if let Some(file) = shard.get(path) {
            return Arc::clone(file);
        }
        let file = Arc::new((self.factory)());
        shard.insert(path.to_string(), Arc::clone(&file));
        file
    }

    /// Returns the file at `path` if it exists.
    pub fn get(&self, path: &str) -> Option<Arc<RangeFile<L>>> {
        self.shard(path).lock().get(path).map(Arc::clone)
    }

    /// Unlinks `path`; existing handles keep working on the orphaned file.
    /// Returns `true` if the path existed.
    pub fn remove(&self, path: &str) -> bool {
        self.shard(path).lock().remove(path).is_some()
    }

    /// Number of files currently in the namespace.
    pub fn file_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Number of namespace shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl<L: RwRangeLock> std::fmt::Debug for FileStore<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("files", &self.file_count())
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use range_lock::RwListRangeLock;

    fn file() -> RangeFile<RwListRangeLock> {
        RangeFile::new(RwListRangeLock::new())
    }

    /// The whole file as `pread` sees it.
    fn contents(f: &RangeFile<RwListRangeLock>) -> Vec<u8> {
        let mut buf = vec![0xAA; f.len() as usize];
        assert_eq!(f.pread(0, &mut buf), buf.len());
        buf
    }

    /// Reference model of a [`RangeFile`]: the committed bytes (its length
    /// is the file length) and the append cursor.
    #[derive(Default)]
    struct Model {
        bytes: Vec<u8>,
        reserved: usize,
    }

    impl Model {
        fn pwrite(&mut self, offset: usize, data: &[u8]) {
            if data.is_empty() {
                return;
            }
            let end = offset + data.len();
            if self.bytes.len() < end {
                self.bytes.resize(end, 0);
            }
            self.bytes[offset..end].copy_from_slice(data);
            self.reserved = self.reserved.max(end);
        }

        fn append(&mut self, data: &[u8]) -> usize {
            let offset = self.reserved;
            self.reserved += data.len();
            self.pwrite(offset, data);
            offset
        }

        fn truncate(&mut self, new_len: usize) {
            self.bytes.truncate(new_len);
            self.bytes.resize(new_len, 0);
            self.reserved = self.reserved.max(new_len);
        }

        fn pread(&self, offset: usize, n: usize) -> &[u8] {
            let len = self.bytes.len();
            &self.bytes[offset.min(len)..(offset + n).min(len)]
        }
    }

    /// An offset near a word, page-interior or page-straddling anchor with
    /// every in-word alignment, and a length of 0–3 pages ending on every
    /// in-word alignment.
    fn span_from(a: u64, b: u64) -> (usize, usize) {
        const ANCHORS: [usize; 4] = [0, PAGE_SIZE / 2, PAGE_SIZE - 24, 2 * PAGE_SIZE - 8];
        const WORDS: [usize; 9] = [0, 0, 1, 2, 5, 511, 512, 1030, 1536];
        let offset = ANCHORS[(a % 4) as usize] + ((a >> 2) % 8) as usize;
        let len = WORDS[((b >> 3) % 9) as usize] * WORD + (b % 8) as usize;
        (offset, len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential check of the word path: random positioned writes,
        /// reads, appends and truncates agree with the byte-vector model
        /// after every step.
        #[test]
        fn ops_match_a_byte_vector_model(
            ops in collection::vec((0u8..4, any::<u64>(), any::<u64>(), any::<u8>()), 1..40),
        ) {
            let f = file();
            let mut model = Model::default();
            for &(kind, a, b, seed) in &ops {
                let (offset, len) = span_from(a, b);
                let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8) | 1).collect();
                match kind {
                    0 => {
                        f.pwrite(offset as u64, &data);
                        model.pwrite(offset, &data);
                    }
                    1 => {
                        let mut buf = vec![0xAA; len];
                        let n = f.pread(offset as u64, &mut buf);
                        prop_assert_eq!(&buf[..n], model.pread(offset, len));
                    }
                    2 => {
                        // Short appends: the cursor only ever grows.
                        let data = &data[..len % 600];
                        prop_assert_eq!(f.append(data), model.append(data) as u64);
                    }
                    _ => {
                        f.truncate(offset as u64);
                        model.truncate(offset);
                    }
                }
                prop_assert_eq!(f.len(), model.bytes.len() as u64);
            }
            prop_assert_eq!(contents(&f), model.bytes);
        }
    }

    #[test]
    fn every_head_and_tail_alignment_round_trips() {
        // All 8x8 (first byte, one-past-last byte) in-word alignments, for
        // spans inside one word, with interior words, and across a page
        // boundary; the bytes around the span must survive.
        for base in [64, PAGE_SIZE - 16] {
            for (head, tail, words) in (0..WORD * WORD * 3).map(|i| (i % 8, i / 8 % 8, i / 64)) {
                let f = file();
                let mut model = vec![0xEE; 2 * PAGE_SIZE];
                f.pwrite(0, &model);
                let len = words * WORD + (tail + WORD - head) % WORD;
                let data: Vec<u8> = (1..=len as u8).collect();
                f.pwrite((base + head) as u64, &data);
                model[base + head..base + head + len].copy_from_slice(&data);
                assert_eq!(contents(&f), model, "base {base} head {head} len {len}");
                let mut back = vec![0; len];
                assert_eq!(f.pread((base + head) as u64, &mut back), len);
                assert_eq!(back, data, "base {base} head {head} len {len}");
            }
        }
    }

    #[test]
    fn stamped_checks_see_a_single_flipped_byte_at_every_in_word_position() {
        // The span [base + 5, base + 27) has a partial head word, two whole
        // words and a partial tail word; with base = PAGE_SIZE - 16 it also
        // straddles a page. Flip each byte of those four words in turn.
        const TAG: u8 = 0x5A;
        for base in [0, PAGE_SIZE as u64 - 16] {
            let f = file();
            f.truncate(base + 32);
            let (start, len) = (base + 5, 22);
            assert!(f.write_stamped(start, len, TAG));
            let clean = contents(&f);
            for at in base..base + 32 {
                let inside = (start..start + len as u64).contains(&at);
                let original = clean[at as usize];
                f.pwrite(at, &[original ^ 0x40]);
                assert_eq!(
                    f.read_stamped(start, len),
                    (!inside).then_some(TAG),
                    "flipped byte {at} of span [{start}, {})",
                    start + len as u64
                );
                // A plain read sees exactly that byte changed.
                let mut expected = clean.clone();
                expected[at as usize] ^= 0x40;
                assert_eq!(contents(&f), expected, "flipped byte {at}");
                f.pwrite(at, &[original]);
            }
            assert_eq!(f.read_stamped(start, len), Some(TAG));
        }
    }

    #[test]
    fn adjacent_writers_sharing_a_word_lose_no_byte() {
        // Two writers hold adjacent byte ranges that meet inside one word —
        // [8, 8 + k) and [8 + k, 16) — under the real lock, which (rightly)
        // lets them run in parallel. Each must always read back what it
        // wrote: a partial-word write that stored back a stale copy of the
        // neighbour's bytes would lose an update here.
        let f = file();
        f.truncate(PAGE_SIZE as u64);
        let rounds = 100_000 / 7 + 1;
        for k in 1..WORD {
            std::thread::scope(|scope| {
                for (start, len) in [(WORD, k), (WORD + k, WORD - k)] {
                    let f = &f;
                    scope.spawn(move || {
                        let mut back = [0u8; WORD];
                        for round in 0..rounds {
                            let data = [(round as u8) | 1; WORD];
                            f.pwrite(start as u64, &data[..len]);
                            assert_eq!(f.pread(start as u64, &mut back[..len]), len);
                            assert_eq!(back[..len], data[..len], "split {k} round {round}");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn pages_are_allocated_by_first_write_only() {
        let f = file();
        let far = 512 << 20;
        f.pwrite(far, &[9]);
        assert_eq!(f.allocated_pages(), 1);
        // Reading holes allocates nothing and sees zeros.
        let mut buf = [7u8; 3 * PAGE_SIZE];
        assert_eq!(
            f.pread(far - 2 * PAGE_SIZE as u64, &mut buf),
            2 * PAGE_SIZE + 1
        );
        assert!(buf[..2 * PAGE_SIZE].iter().all(|&b| b == 0));
        assert_eq!(buf[2 * PAGE_SIZE], 9);
        assert_eq!(f.read_stamped(PAGE_SIZE as u64 + 3, 5 * PAGE_SIZE), Some(0));
        assert_eq!(f.read_stamped(far - 1, 2), None);
        // Truncating across holes skips them; a growing truncate allocates
        // nothing either.
        f.truncate(100);
        f.truncate(far + 1);
        assert_eq!(f.read_stamped(far - 1, 2), Some(0));
        assert_eq!(f.allocated_pages(), 1);
        // A write straddling a page boundary allocates both pages.
        f.pwrite(3 * PAGE_SIZE as u64 - 1, &[1, 2]);
        assert_eq!(f.allocated_pages(), 3);
    }

    #[test]
    fn pwrite_pread_round_trip_across_pages() {
        let f = file();
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 123).map(|i| (i % 251) as u8).collect();
        f.pwrite(100, &data);
        assert_eq!(f.len(), 100 + data.len() as u64);
        let mut buf = vec![0u8; data.len()];
        assert_eq!(f.pread(100, &mut buf), data.len());
        assert_eq!(buf, data);
        // The unwritten prefix reads as zeros.
        let mut head = [1u8; 100];
        assert_eq!(f.pread(0, &mut head), 100);
        assert!(head.iter().all(|&b| b == 0));
    }

    #[test]
    fn pread_stops_at_eof() {
        let f = file();
        f.pwrite(0, b"hello");
        let mut buf = [0u8; 16];
        assert_eq!(f.pread(0, &mut buf), 5);
        assert_eq!(f.pread(3, &mut buf), 2);
        assert_eq!(f.pread(5, &mut buf), 0);
        assert_eq!(f.pread(999, &mut buf), 0);
    }

    #[test]
    fn append_reserves_disjoint_offsets() {
        let f = Arc::new(file());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                let mut offsets = Vec::new();
                for _ in 0..50 {
                    offsets.push(f.append(&[t + 1; 64]));
                }
                offsets
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "append offsets must be unique");
        assert_eq!(f.len(), 200 * 64);
        // Every 64-byte region is uniformly one writer's tag.
        for off in (0..f.len()).step_by(64) {
            let tag = f.read_stamped(off, 64).expect("uniform region");
            assert!((1..=4).contains(&tag));
        }
    }

    #[test]
    fn truncate_zeroes_the_tail() {
        let f = file();
        f.pwrite(0, &[7u8; 1000]);
        f.truncate(100);
        assert_eq!(f.len(), 100);
        let mut buf = [0u8; 1000];
        assert_eq!(f.pread(0, &mut buf), 100);
        // Re-extend and check the old tail reads as zeros.
        f.pwrite(900, &[9u8; 100]);
        let mut tail = [1u8; 800];
        assert_eq!(f.pread(100, &mut tail), 800);
        assert!(tail.iter().all(|&b| b == 0), "truncated tail must be zero");
        // Growing truncate just moves EOF.
        f.truncate(2000);
        assert_eq!(f.len(), 2000);
        assert_eq!(f.read_stamped(1000, 1000), Some(0));
    }

    #[test]
    fn append_offsets_stay_monotonic_across_truncate() {
        // A shrinking truncate must not move the append cursor backwards:
        // an in-flight append may hold a reservation past the cut, and
        // re-issuing those offsets would let two appends collide.
        let f = file();
        f.append(&[1; 100]);
        f.truncate(10);
        assert_eq!(f.len(), 10);
        assert_eq!(f.append(&[2; 5]), 100);
        assert_eq!(f.len(), 105);
        // The gap left by the truncate reads as zeros.
        assert_eq!(f.read_stamped(10, 90), Some(0));
        // A growing truncate raises the cursor with the EOF.
        f.truncate(500);
        assert_eq!(f.append(&[3; 5]), 500);
    }

    #[test]
    fn pread_after_growing_truncate_reads_zeros() {
        // Regression test: a growing truncate moves EOF without allocating
        // pages; pread past the allocated high-water mark must read zeros,
        // not panic on the empty page table.
        let f = file();
        f.truncate(5000);
        let mut buf = [7u8; 100];
        assert_eq!(f.pread(0, &mut buf), 100);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(f.pread(4990, &mut buf), 10);
    }

    #[test]
    fn stamped_protocol_accepts_clean_runs() {
        let f = file();
        assert!(f.write_stamped(0, 256, 42));
        assert_eq!(f.read_stamped(0, 256), Some(42));
        assert!(f.write_stamped(128, 256, 43));
        assert_eq!(f.read_stamped(128, 256), Some(43));
        assert_eq!(f.read_stamped(0, 128), Some(42));
        // A span mixing two stamps is reported as non-uniform.
        assert_eq!(f.read_stamped(0, 256), None);
    }

    #[test]
    fn op_stats_are_recorded_per_label() {
        let labels = LabeledStats::new();
        let f = RangeFile::new(RwListRangeLock::new()).with_op_stats(&labels);
        f.pwrite(0, b"abc");
        let mut buf = [0u8; 3];
        f.pread(0, &mut buf);
        f.append(b"def");
        f.truncate(2);
        let snaps = labels.snapshots();
        let by_name: HashMap<_, _> = snaps.iter().map(|s| (s.name.clone(), s)).collect();
        assert_eq!(by_name["pread"].acquisitions, 1);
        assert_eq!(by_name["pwrite"].acquisitions, 1);
        assert_eq!(by_name["append"].acquisitions, 1);
        assert_eq!(by_name["truncate"].acquisitions, 1);
        assert_eq!(by_name["pread"].read_waits, 1);
        assert_eq!(by_name["append"].write_waits, 1);
    }

    #[test]
    fn store_shards_paths_and_dedups_handles() {
        let store = FileStore::with_shards(4, || RangeFile::new(RwListRangeLock::new()));
        let a = store.open("/a");
        let a2 = store.open("/a");
        assert!(Arc::ptr_eq(&a, &a2));
        for i in 0..50 {
            store.open(&format!("/f{i}"));
        }
        assert_eq!(store.file_count(), 51);
        assert!(store.get("/a").is_some());
        assert!(store.remove("/a"));
        assert!(!store.remove("/a"));
        assert!(store.get("/a").is_none());
        assert_eq!(store.file_count(), 50);
        // The orphaned handle still works.
        a.pwrite(0, b"still alive");
        assert_eq!(a.len(), 11);
    }
}
