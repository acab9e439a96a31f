//! The range-lock-based skip list of Section 6.
//!
//! Structurally identical to the optimistic skip list, but updates are
//! synchronized through **one** range-lock acquisition instead of locking up
//! to `MAX_HEIGHT + 1` individual nodes:
//!
//! * an insert locks the key interval from its highest-level predecessor to
//!   the key being inserted;
//! * a remove locks the interval from its highest-level predecessor to the
//!   key being removed *plus one*, so that inserts that would link to the
//!   victim node (their predecessor is the victim) are also excluded.
//!
//! Searches remain wait-free. Because the per-node spin locks are never used,
//! a production variant could drop them entirely and shrink every node — the
//! memory-footprint argument of Section 6; they are kept in the shared node
//! type so both variants measure the same traversal work.
//!
//! The lock type is generic over [`RwRangeLock`], so any of the five
//! registry variants (under any wait policy) can back the list — the
//! exclusive locks implement the trait with both modes exclusive — and
//! [`DynRangeSkipList::from_registry`] builds a dynamically dispatched list
//! straight from a `rl_baselines::registry` variant name. Updates always
//! take *write* acquisitions — the skip list never reads under the lock
//! (searches are wait-free) — so exclusive and reader-writer variants
//! synchronize identically and the sweep isolates pure lock overhead.

use std::sync::atomic::{AtomicUsize, Ordering};

use range_lock::{DynRwRangeLock, Range, RwListRangeLock, RwRangeLock};
use rl_baselines::registry::{self, RegistryConfig};
use rl_sync::wait::WaitPolicyKind;

use crate::common::{random_level, Graveyard, Node, MAX_HEIGHT, MAX_KEY, MIN_KEY};

/// A concurrent set of `u64` keys whose updates serialize through a range
/// lock.
///
/// # Examples
///
/// ```
/// use rl_skiplist::RangeSkipList;
/// use range_lock::RwListRangeLock;
///
/// let set: RangeSkipList<RwListRangeLock> = RangeSkipList::default();
/// assert!(set.insert(7));
/// assert!(set.contains(7));
/// assert!(set.remove(7));
/// ```
pub struct RangeSkipList<L: RwRangeLock> {
    head: Box<Node>,
    tail: *mut Node,
    lock: L,
    graveyard: Graveyard,
    len: AtomicUsize,
}

/// A [`RangeSkipList`] over a registry-built, dynamically dispatched lock.
pub type DynRangeSkipList = RangeSkipList<Box<dyn DynRwRangeLock>>;

impl DynRangeSkipList {
    /// Builds a skip list over the registry variant `variant` waiting via
    /// `wait`, or `None` if no such variant exists.
    ///
    /// The default [`RegistryConfig`] span (1 MiB segments over a 1 MiB
    /// span) is replaced by one covering the skip list's key universe so
    /// `pnova-rw` actually partitions the keys.
    pub fn from_registry(variant: &str, wait: WaitPolicyKind) -> Option<Self> {
        let config = RegistryConfig {
            span: u64::MAX,
            ..RegistryConfig::default()
        };
        let spec = registry::by_name(variant)?;
        Some(Self::with_lock(spec.build(wait, &config)))
    }
}

// SAFETY: Shared node state is accessed through atomics; updates are
// serialized by the range lock; nodes are never freed while the list lives.
unsafe impl<L: RwRangeLock> Send for RangeSkipList<L> {}
// SAFETY: See the `Send` justification.
unsafe impl<L: RwRangeLock> Sync for RangeSkipList<L> {}

impl Default for RangeSkipList<RwListRangeLock> {
    fn default() -> Self {
        Self::with_lock(RwListRangeLock::new())
    }
}

impl<L: RwRangeLock> RangeSkipList<L> {
    /// Creates an empty set synchronized by `lock`.
    pub fn with_lock(lock: L) -> Self {
        let tail = Box::into_raw(Node::new(u64::MAX, MAX_HEIGHT - 1));
        // SAFETY: `tail` was just allocated and is exclusively owned here.
        unsafe { (*tail).fully_linked.store(true, Ordering::Release) };
        let head = Node::new(u64::MIN, MAX_HEIGHT - 1);
        for level in 0..MAX_HEIGHT {
            head.set_next(level, tail);
        }
        head.fully_linked.store(true, Ordering::Release);
        RangeSkipList {
            head,
            tail,
            lock,
            graveyard: Graveyard::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Name of the underlying range lock (`list-ex`, `lustre-ex`, …).
    pub fn lock_name(&self) -> &'static str {
        self.lock.name()
    }

    /// Approximate number of keys in the set.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if the set is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(
        &self,
        key: u64,
        preds: &mut [*mut Node; MAX_HEIGHT],
        succs: &mut [*mut Node; MAX_HEIGHT],
    ) -> Option<usize> {
        let mut l_found = None;
        let mut pred: &Node = &self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut curr = pred.next(level);
            loop {
                // SAFETY: Nodes reachable from the list are never freed while
                // the list is alive.
                let curr_ref = unsafe { &*curr };
                if curr_ref.key < key {
                    pred = curr_ref;
                    curr = pred.next(level);
                } else {
                    if l_found.is_none() && curr_ref.key == key {
                        l_found = Some(level);
                    }
                    preds[level] = pred as *const Node as *mut Node;
                    succs[level] = curr;
                    break;
                }
            }
        }
        l_found
    }

    /// Wait-free membership test.
    pub fn contains(&self, key: u64) -> bool {
        debug_assert!((MIN_KEY..=MAX_KEY).contains(&key));
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        match self.find(key, &mut preds, &mut succs) {
            None => false,
            Some(level) => {
                // SAFETY: See `find`.
                let node = unsafe { &*succs[level] };
                node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire)
            }
        }
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&self, key: u64) -> bool {
        assert!(
            (MIN_KEY..=MAX_KEY).contains(&key),
            "key {key} outside the supported range"
        );
        let top_level = random_level();
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        loop {
            if let Some(l_found) = self.find(key, &mut preds, &mut succs) {
                // SAFETY: See `find`.
                let found = unsafe { &*succs[l_found] };
                if !found.marked.load(Ordering::Acquire) {
                    while !found.fully_linked.load(Ordering::Acquire) {
                        rl_sync::pause();
                    }
                    return false;
                }
                continue;
            }

            // One range acquisition covers every predecessor: the predecessor
            // at the highest level has the smallest key of them all.
            // SAFETY: See `find`.
            let pred_top_key = unsafe { &*preds[top_level] }.key;
            let guard = self.lock.write(Range::new(pred_top_key, key + 1));

            let mut valid = true;
            for level in 0..=top_level {
                // SAFETY: See `find`.
                let pred_ref = unsafe { &*preds[level] };
                // SAFETY: See `find`.
                let succ_ref = unsafe { &*succs[level] };
                valid = !pred_ref.marked.load(Ordering::Acquire)
                    && !succ_ref.marked.load(Ordering::Acquire)
                    && pred_ref.next(level) == succs[level];
                if !valid {
                    break;
                }
            }
            if !valid {
                drop(guard);
                continue;
            }

            let node = Box::into_raw(Node::new(key, top_level));
            // SAFETY: Just allocated, exclusively owned until published below.
            let node_ref = unsafe { &*node };
            for (level, &succ) in succs.iter().enumerate().take(top_level + 1) {
                node_ref.set_next(level, succ);
            }
            for (level, &pred) in preds.iter().enumerate().take(top_level + 1) {
                // SAFETY: See `find`; the window is protected by the range lock.
                unsafe { &*pred }.set_next(level, node);
            }
            node_ref.fully_linked.store(true, Ordering::Release);
            drop(guard);
            self.len.fetch_add(1, Ordering::Relaxed);
            return true;
        }
    }

    /// Removes `key`; returns `false` if it was not present.
    pub fn remove(&self, key: u64) -> bool {
        assert!(
            (MIN_KEY..=MAX_KEY).contains(&key),
            "key {key} outside the supported range"
        );
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        loop {
            let l_found = match self.find(key, &mut preds, &mut succs) {
                None => return false,
                Some(l) => l,
            };
            let victim_ptr = succs[l_found];
            // SAFETY: See `find`.
            let victim = unsafe { &*victim_ptr };
            if !victim.fully_linked.load(Ordering::Acquire)
                || victim.top_level != l_found
                || victim.marked.load(Ordering::Acquire)
            {
                return false;
            }
            let top_level = victim.top_level;
            // The range extends one past the victim key so that inserts whose
            // predecessor is the victim (and would write into its tower) are
            // excluded as well.
            // SAFETY: See `find`.
            let pred_top_key = unsafe { &*preds[top_level] }.key;
            let guard = self.lock.write(Range::new(pred_top_key, key + 2));

            if victim.marked.load(Ordering::Acquire) {
                drop(guard);
                return false;
            }
            let mut valid = true;
            for (level, &pred) in preds.iter().enumerate().take(top_level + 1) {
                // SAFETY: See `find`.
                let pred_ref = unsafe { &*pred };
                valid =
                    !pred_ref.marked.load(Ordering::Acquire) && pred_ref.next(level) == victim_ptr;
                if !valid {
                    break;
                }
            }
            if !valid {
                drop(guard);
                continue;
            }

            victim.marked.store(true, Ordering::Release);
            for level in (0..=top_level).rev() {
                // SAFETY: See `find`; the window is protected by the range lock.
                unsafe { &*preds[level] }.set_next(level, victim.next(level));
            }
            drop(guard);
            self.graveyard.retire(victim_ptr);
            self.len.fetch_sub(1, Ordering::Relaxed);
            return true;
        }
    }

    /// Collects every present key in ascending order (not linearizable; for
    /// tests and debugging).
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = self.head.next(0);
        while cur != self.tail {
            // SAFETY: Nodes are never freed while the list is alive.
            let node = unsafe { &*cur };
            if node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire) {
                out.push(node.key);
            }
            cur = node.next(0);
        }
        out
    }
}

impl<L: RwRangeLock> Drop for RangeSkipList<L> {
    fn drop(&mut self) {
        let mut cur = self.head.next(0);
        while cur != self.tail {
            // SAFETY: `&mut self` guarantees exclusive access.
            let next = unsafe { (*cur).next(0) };
            // SAFETY: The node is only reachable from this chain.
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
        // SAFETY: No other thread can access the list during drop.
        unsafe { self.graveyard.drop_all() };
        // SAFETY: The tail sentinel is owned by the list.
        drop(unsafe { Box::from_raw(self.tail) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::ListRangeLock;
    use rl_baselines::TreeRangeLock;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics_with_list_lock() {
        let set: RangeSkipList<RwListRangeLock> = RangeSkipList::default();
        assert!(set.insert(10));
        assert!(set.insert(20));
        assert!(!set.insert(10));
        assert!(set.contains(10));
        assert!(!set.contains(15));
        assert!(set.remove(10));
        assert!(!set.remove(10));
        assert_eq!(set.to_vec(), vec![20]);
        assert_eq!(set.lock_name(), "list-rw");
    }

    #[test]
    fn sequential_semantics_with_tree_lock() {
        let set = RangeSkipList::with_lock(TreeRangeLock::new());
        assert!(set.insert(3));
        assert!(set.insert(1));
        assert!(set.insert(2));
        assert_eq!(set.to_vec(), vec![1, 2, 3]);
        assert_eq!(set.lock_name(), "lustre-ex");
    }

    #[test]
    fn exclusive_adapter_preserves_lock_name() {
        let set = RangeSkipList::with_lock(ListRangeLock::new());
        assert!(set.insert(1));
        assert_eq!(set.lock_name(), "list-ex");
    }

    #[test]
    fn every_registry_variant_and_policy_backs_the_set() {
        for spec in rl_baselines::registry::all() {
            for wait in WaitPolicyKind::ALL {
                let set = DynRangeSkipList::from_registry(spec.name, wait)
                    .expect("registry variant must build");
                assert_eq!(set.lock_name(), spec.name);
                for key in [5u64, 1, 9, 3] {
                    assert!(set.insert(key));
                }
                assert!(!set.insert(5));
                assert!(set.remove(3));
                assert_eq!(set.to_vec(), vec![1, 5, 9]);
            }
        }
        assert!(DynRangeSkipList::from_registry("no-such-lock", WaitPolicyKind::Spin).is_none());
    }

    #[test]
    fn registry_backed_set_survives_concurrent_updates() {
        const THREADS: usize = 4;
        const OPS: u64 = 500;
        for variant in ["list-rw", "pnova-rw"] {
            let set = Arc::new(
                DynRangeSkipList::from_registry(variant, WaitPolicyKind::SpinThenYield).unwrap(),
            );
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let set = Arc::clone(&set);
                handles.push(std::thread::spawn(move || {
                    for i in 0..OPS {
                        let key = t as u64 * OPS + i + 1;
                        assert!(set.insert(key));
                        assert!(set.contains(key));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(set.len(), THREADS * OPS as usize, "{variant}");
        }
    }

    #[test]
    fn matches_btreeset_oracle_sequentially() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let set: RangeSkipList<RwListRangeLock> = RangeSkipList::default();
        let mut oracle = BTreeSet::new();
        for _ in 0..5_000 {
            let key = rng.gen_range(1..400u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(set.insert(key), oracle.insert(key)),
                1 => assert_eq!(set.remove(key), oracle.remove(&key)),
                _ => assert_eq!(set.contains(key), oracle.contains(&key)),
            }
        }
        assert_eq!(set.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_mixed_workload_is_a_set() {
        use std::sync::atomic::AtomicI64;
        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let set: Arc<RangeSkipList<RwListRangeLock>> = Arc::new(RangeSkipList::default());
        let balance = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let set = Arc::clone(&set);
            let balance = Arc::clone(&balance);
            handles.push(std::thread::spawn(move || {
                let mut state = (t as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
                for _ in 0..OPS {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = state % 96 + 1;
                    if state & 0x80 == 0 {
                        if set.insert(key) {
                            balance.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if set.remove(key) {
                        balance.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(set.to_vec().len() as i64, balance.load(Ordering::Relaxed));
    }

    #[test]
    fn concurrent_workload_with_tree_lock_backend() {
        const THREADS: usize = 4;
        const OPS: usize = 1_000;
        let set = Arc::new(RangeSkipList::with_lock(TreeRangeLock::new()));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let set = Arc::clone(&set);
            handles.push(std::thread::spawn(move || {
                for i in 0..OPS as u64 {
                    let key = (t as u64 * OPS as u64) + i + 1;
                    assert!(set.insert(key));
                    assert!(set.contains(key));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(set.len(), THREADS * OPS);
    }

    #[test]
    fn contains_remains_wait_free_under_updates() {
        let set: Arc<RangeSkipList<RwListRangeLock>> = Arc::new(RangeSkipList::default());
        for key in (2..2_000u64).step_by(2) {
            set.insert(key);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    set.insert(i * 2 + 1);
                    set.remove(i * 2 + 1);
                    i = (i + 1) % 900 + 1;
                }
            }));
        }
        // Even keys were inserted before the writers started and are never
        // touched by them, so every lookup must succeed.
        for _ in 0..20_000 {
            let key = (rand::random::<u64>() % 999 + 1) * 2;
            assert!(set.contains(key), "key {key} must be present");
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
