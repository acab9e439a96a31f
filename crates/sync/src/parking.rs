//! Sharded, address-keyed parking table — the futex analogue underneath
//! [`WaitQueue`](crate::wait::WaitQueue), and the only place anything in the
//! workspace sleeps while it waits for a lock.
//!
//! A futex scales because each waiter sleeps on a *word*: a wake names the
//! word and only the threads parked on it stir. A per-lock broadcast channel
//! does the opposite — every release wakes every parked waiter, each
//! re-checks its predicate, and the non-matching ones re-park: O(parked
//! waiters) spurious wakeups per release under heavy disjoint-range
//! parking, precisely the herd the paper's scalability claim is about
//! avoiding.
//!
//! [`ShardTable`] is that word table in user space. Waiters register under a
//! `u64` **key** — in practice the address of the conflicting list node,
//! tree waiter, or a small class constant like "writers" — and a release
//! wakes exactly the entries whose key matches. Keys hash onto a fixed
//! array of [`SHARD_COUNT`] cache-padded shards (so disjoint keys rarely
//! contend on the same shard mutex), each shard a short vector of entries.
//!
//! An entry is a [`core::task::Waker`] filed under `(key, id)` — one kind of
//! entry for both kinds of waiter. An acquisition future registers its
//! task's waker; a blocking thread registers a [`ThreadParker`], which *is*
//! a waker ([`std::task::Wake`]: set a per-waiter flag, unpark the thread —
//! the flag is what keeps stray unpark tokens from passing for a real
//! wake). Sync and async waiters of one conflict therefore sit in the same
//! slots and wake together.
//!
//! Key 0 is reserved as [`KEY_ANY`], for waiters that cannot name the
//! conflict blocking them (barging two-phase pollers, deadlock re-checks).
//! It is an ordinary key with one extra rule: **every** wake also claims
//! the `KEY_ANY` entries, so an any-key waiter is woken by any release,
//! while waiters under real keys are woken only by theirs.
//!
//! The table performs no predicate logic and no generation arithmetic: the
//! lost-wakeup protocol (register *then* re-check, paired with the
//! releaser's sequentially consistent generation bump *then* occupancy
//! load) lives in [`WaitQueue`](crate::wait::WaitQueue), which owns one
//! table per lock. Keeping the table per lock instance (rather than one
//! process-global table) keeps `wake_all` — the broadcast the deadlock
//! re-derivation and guard-drop fallback paths rely on — an O(shards) scan
//! of *this lock's* waiters instead of a walk over every waiter in the
//! process.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::thread::Thread;
use std::time::Instant;

use parking_lot::Mutex;

use crate::padded::CachePadded;

/// The reserved "any conflict" key: entries filed under it are claimed by
/// every wake, whatever key the wake names. Real keys (node addresses,
/// waiter addresses, class constants ≥ 1) are never 0.
pub const KEY_ANY: u64 = 0;

/// Number of shards in a [`ShardTable`]. A small power of two: a single
/// lock rarely has more than a handful of distinct conflict keys parked at
/// once, and each shard is cache-padded, so more shards would only pad out
/// the `WaitQueue` footprint.
pub const SHARD_COUNT: usize = 8;

const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();

/// Fibonacci-hashes `key` onto a shard index. The multiplier spreads
/// pointer-like keys (aligned, low bits zero) across shards using their high
/// product bits.
#[inline]
pub(crate) fn shard_index(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)) as usize
}

/// One parked OS thread: the thread handle to unpark plus a per-waiter
/// signal flag. Registered in a [`ShardTable`] as a [`Waker`]
/// (`Waker::from(Arc<ThreadParker>)`), so a wake signals it exactly like it
/// wakes a task.
///
/// The flag is what makes parking immune to stray unpark tokens:
/// [`std::thread::park`] may return spuriously (or consume a token left by
/// a previous wait), so [`ThreadParker::park`] loops until `signaled` is
/// set by a genuine wake.
#[derive(Debug)]
pub struct ThreadParker {
    thread: Thread,
    signaled: AtomicBool,
}

impl ThreadParker {
    /// Creates a parker for the calling thread.
    pub fn new() -> Arc<Self> {
        Arc::new(ThreadParker {
            thread: std::thread::current(),
            signaled: AtomicBool::new(false),
        })
    }

    /// Clears the signal flag, making the parker reusable for another
    /// registration round. Called by the owning waiter between rounds; a
    /// late signal from a previous round then at worst costs one spurious
    /// (counted) wake.
    pub fn reset(&self) {
        self.signaled.store(false, Ordering::SeqCst);
    }

    /// Whether a wake has signalled this parker since the last
    /// [`ThreadParker::reset`].
    pub fn is_signaled(&self) -> bool {
        self.signaled.load(Ordering::Acquire)
    }

    /// Parks the calling thread until signalled or, when there is one,
    /// `deadline` passes; returns `true` when signalled.
    pub fn park(&self, deadline: Option<Instant>) -> bool {
        while !self.is_signaled() {
            match deadline {
                None => std::thread::park(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return self.is_signaled();
                    }
                    std::thread::park_timeout(deadline - now);
                }
            }
        }
        true
    }
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    /// Store-then-unpark: the unpark token guarantees the parked thread
    /// re-runs its [`ThreadParker::is_signaled`] check.
    fn wake_by_ref(self: &Arc<Self>) {
        self.signaled.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

/// One registered waiter: the waker of a parked thread or a suspended task,
/// filed under the conflict `key` it waits out and the `id` of the waiter
/// (unique per queue, so it can withdraw exactly its own entry).
struct Entry {
    key: u64,
    id: u64,
    waker: Waker,
}

/// One shard: a mutex-protected entry list plus a sequentially consistent
/// occupancy mirror so wake paths can prove the shard empty without taking
/// the mutex.
struct Shard {
    entries: Mutex<Vec<Entry>>,
    /// `entries.len()`, mirrored with `SeqCst` stores under the entry
    /// mutex. Release paths load it (also `SeqCst`) to skip empty shards;
    /// the pairing with the waiter side is argued in `crate::wait`.
    occupancy: AtomicU64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            entries: Mutex::new(Vec::new()),
            occupancy: AtomicU64::new(0),
        }
    }
}

/// A fixed table of [`SHARD_COUNT`] cache-padded shards of keyed waiters.
///
/// See the module docs for the design; [`WaitQueue`](crate::wait::WaitQueue)
/// embeds one per lock and layers the lost-wakeup protocol on top.
pub struct ShardTable {
    shards: [CachePadded<Shard>; SHARD_COUNT],
    /// Total entries across all shards, maintained alongside the per-shard
    /// occupancy so `wake_all` can prove the whole table empty with one
    /// load.
    total: AtomicU64,
}

impl ShardTable {
    /// Creates an empty table.
    pub const fn new() -> Self {
        ShardTable {
            // An inline const block so the array repeat re-evaluates it per
            // element without requiring `Copy`.
            shards: [const { CachePadded::new(Shard::new()) }; SHARD_COUNT],
            total: AtomicU64::new(0),
        }
    }

    /// Total registered entries (threads + tasks) across every shard.
    pub fn occupancy(&self) -> u64 {
        self.total.load(Ordering::SeqCst)
    }

    /// Files `waker` under `(key, id)`, publishing the entry with a
    /// sequentially consistent occupancy bump; the caller must re-check its
    /// wait condition *after* this returns (see the protocol in
    /// `crate::wait`). A matching `(key, id)` entry is re-armed in place, so
    /// a future that re-polls without migrating keys never duplicates
    /// itself.
    pub fn register(&self, key: u64, id: u64, waker: &Waker) {
        let shard = &self.shards[shard_index(key)];
        let mut entries = shard.entries.lock();
        if let Some(e) = entries.iter_mut().find(|e| e.key == key && e.id == id) {
            e.waker.clone_from(waker);
            return;
        }
        entries.push(Entry {
            key,
            id,
            waker: waker.clone(),
        });
        shard
            .occupancy
            .store(entries.len() as u64, Ordering::SeqCst);
        self.total.fetch_add(1, Ordering::SeqCst);
    }

    /// Removes the entry filed under `(key, id)`, if a wake has not already
    /// claimed it; returns whether one was removed. Idempotent. A future
    /// migrating to a new conflict key deregisters its old key first, then
    /// registers afresh — the "waker-slot migration" path.
    pub fn deregister(&self, key: u64, id: u64) -> bool {
        let shard = &self.shards[shard_index(key)];
        let mut entries = shard.entries.lock();
        let Some(at) = entries.iter().position(|e| e.key == key && e.id == id) else {
            return false;
        };
        entries.remove(at);
        shard
            .occupancy
            .store(entries.len() as u64, Ordering::SeqCst);
        self.total.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Wakes and removes the entries of `shard` whose key `matches`;
    /// returns how many. One load when the shard's occupancy mirror reads
    /// zero: the provably-empty fast path release sites rely on.
    fn claim(&self, shard: &Shard, matches: impl Fn(u64) -> bool) -> usize {
        if shard.occupancy.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        let claimed: Vec<Entry> = {
            let mut entries = shard.entries.lock();
            let claimed: Vec<Entry> = entries.extract_if(.., |e| matches(e.key)).collect();
            shard
                .occupancy
                .store(entries.len() as u64, Ordering::SeqCst);
            if !claimed.is_empty() {
                self.total.fetch_sub(claimed.len() as u64, Ordering::SeqCst);
            }
            claimed
        };
        // Signal outside the shard mutex: wakers may run executor code and
        // unpark is a syscall.
        let woken = claimed.len();
        for entry in claimed {
            entry.waker.wake();
        }
        woken
    }

    /// Wakes and removes every entry registered under exactly `key`, plus
    /// every [`KEY_ANY`] entry; returns how many were woken. Entries under
    /// other keys — even ones colliding into the same shards — are left
    /// parked. `wake_key(KEY_ANY)` wakes the any-key entries alone.
    ///
    /// Two occupancy loads when nobody waits (one when `key` hashes into
    /// `KEY_ANY`'s shard).
    pub fn wake_key(&self, key: u64) -> usize {
        let (home, any) = (shard_index(key), shard_index(KEY_ANY));
        let mut woken = self.claim(&self.shards[home], |k| k == key || k == KEY_ANY);
        if any != home {
            woken += self.claim(&self.shards[any], |k| k == KEY_ANY);
        }
        woken
    }

    /// Wakes and removes every entry in every shard; returns how many were
    /// woken. The broadcast fallback (deadlock re-derivation, guard-drop
    /// herds); one load when the table is empty.
    pub fn wake_all(&self) -> usize {
        if self.total.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        self.shards.iter().map(|s| self.claim(s, |_| true)).sum()
    }
}

impl Default for ShardTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ShardTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardTable")
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn shard_index_is_in_bounds_and_spreads_aligned_keys() {
        // Node-address-like keys: 64-byte aligned, monotonically allocated.
        let mut seen = [false; SHARD_COUNT];
        for i in 1..=1024u64 {
            let idx = shard_index(i * 64);
            assert!(idx < SHARD_COUNT);
            seen[idx] = true;
        }
        // Fibonacci hashing must not collapse aligned keys onto one shard.
        assert!(
            seen.iter().filter(|s| **s).count() >= SHARD_COUNT / 2,
            "aligned keys used too few shards"
        );
    }

    struct CountingWaker(Counter);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, Waker) {
        let count = Arc::new(CountingWaker(Counter::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    #[test]
    fn wake_key_is_exact_even_under_shard_collision() {
        let table = ShardTable::new();
        // Find two distinct keys that land in the same shard.
        let k1 = 64u64;
        let k2 = (2..10_000u64)
            .map(|i| i * 64)
            .find(|k| *k != k1 && shard_index(*k) == shard_index(k1))
            .expect("some aligned key collides into k1's shard");
        let (c1, w1) = counting_waker();
        let (c2, w2) = counting_waker();
        table.register(k1, 1, &w1);
        table.register(k2, 2, &w2);
        assert_eq!(table.occupancy(), 2);
        // Waking k1 must not disturb k2 despite sharing a shard.
        assert_eq!(table.wake_key(k1), 1);
        assert_eq!(c1.0.load(Ordering::SeqCst), 1);
        assert_eq!(c2.0.load(Ordering::SeqCst), 0);
        assert_eq!(table.occupancy(), 1);
        assert_eq!(table.wake_key(k2), 1);
        assert_eq!(c2.0.load(Ordering::SeqCst), 1);
        assert_eq!(table.occupancy(), 0);
    }

    #[test]
    fn wake_key_on_empty_shard_is_a_noop() {
        let table = ShardTable::new();
        assert_eq!(table.wake_key(64), 0);
        assert_eq!(table.wake_all(), 0);
    }

    #[test]
    fn reregistration_updates_in_place_and_migration_moves_keys() {
        let table = ShardTable::new();
        let (count_old, old) = counting_waker();
        let (count_new, new) = counting_waker();
        table.register(64, 7, &old);
        // Same (key, id): replaced in place, not duplicated.
        table.register(64, 7, &new);
        assert_eq!(table.occupancy(), 1);
        // Migration to a new conflict key: deregister old, register new.
        assert!(table.deregister(64, 7));
        table.register(128, 7, &new);
        assert_eq!(
            table.wake_key(64),
            0,
            "old key must be empty after migration"
        );
        assert_eq!(table.wake_key(128), 1);
        assert_eq!(count_old.0.load(Ordering::SeqCst), 0);
        assert_eq!(count_new.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deregister_is_idempotent_and_exact() {
        let table = ShardTable::new();
        let (_, w) = counting_waker();
        table.register(64, 1, &w);
        table.register(64, 2, &w);
        assert!(table.deregister(64, 1));
        assert!(!table.deregister(64, 1));
        assert_eq!(table.occupancy(), 1);
        assert_eq!(table.wake_key(64), 1);
    }

    #[test]
    fn parker_round_trip_wakes_only_the_matching_key() {
        let table = Arc::new(ShardTable::new());
        let parked = Arc::new(Counter::new(0));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let table = Arc::clone(&table);
                let parked = Arc::clone(&parked);
                std::thread::spawn(move || {
                    let key = (i + 1) * 64;
                    let parker = ThreadParker::new();
                    table.register(key, i, &Waker::from(Arc::clone(&parker)));
                    parked.fetch_add(1, Ordering::SeqCst);
                    assert!(parker.park(None));
                    key
                })
            })
            .collect();
        while parked.load(Ordering::SeqCst) != 4 {
            std::thread::yield_now();
        }
        // Wake them one key at a time; each wake frees exactly one thread.
        for i in 0..4u64 {
            assert_eq!(table.wake_key((i + 1) * 64), 1);
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), (i as u64 + 1) * 64);
        }
        assert_eq!(table.occupancy(), 0);
    }

    #[test]
    fn deregistered_parker_is_not_woken() {
        let table = ShardTable::new();
        let parker = ThreadParker::new();
        table.register(64, 1, &Waker::from(Arc::clone(&parker)));
        assert!(table.deregister(64, 1));
        assert!(!table.deregister(64, 1));
        assert_eq!(table.wake_key(64), 0);
        assert!(!parker.is_signaled());
    }

    #[test]
    fn parker_deadline_expires_without_signal() {
        let parker = ThreadParker::new();
        let deadline = Instant::now() + std::time::Duration::from_millis(5);
        assert!(!parker.park(Some(deadline)));
        parker.reset();
        // A pre-signalled parker returns immediately.
        Waker::from(Arc::clone(&parker)).wake();
        assert!(parker.park(Some(Instant::now() + std::time::Duration::from_secs(60))));
    }

    #[test]
    fn wake_all_drains_every_shard() {
        let table = ShardTable::new();
        let mut counts = Vec::new();
        for i in 1..=16u64 {
            let (c, w) = counting_waker();
            table.register(i * 64, i, &w);
            counts.push(c);
        }
        assert_eq!(table.wake_all(), 16);
        assert_eq!(table.occupancy(), 0);
        for c in counts {
            assert_eq!(c.0.load(Ordering::SeqCst), 1);
        }
    }
}
