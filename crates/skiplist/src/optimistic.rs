//! The optimistic (lazy) skip list with per-node locks — Herlihy, Lev,
//! Luchangco and Shavit's "A Simple Optimistic Skiplist Algorithm".
//!
//! This is the `orig` baseline of Figure 4. Searches are wait-free and never
//! lock; updates search optimistically, lock every predecessor involved (up to
//! one per level, plus the victim for removals), validate that nothing changed
//! and then perform the update. Removal is *lazy*: the victim is first marked
//! and only then unlinked.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::common::{random_level, Graveyard, Node, MAX_HEIGHT, MAX_KEY, MIN_KEY};

/// A concurrent set of `u64` keys backed by the optimistic skip list.
///
/// Keys must lie in `[MIN_KEY, MAX_KEY]` (the extremes are reserved for the
/// sentinels).
///
/// # Examples
///
/// ```
/// use rl_skiplist::OptimisticSkipList;
///
/// let set = OptimisticSkipList::new();
/// assert!(set.insert(42));
/// assert!(set.contains(42));
/// assert!(!set.insert(42));
/// assert!(set.remove(42));
/// assert!(!set.contains(42));
/// ```
pub struct OptimisticSkipList {
    head: Box<Node>,
    tail: *mut Node,
    graveyard: Graveyard,
    len: AtomicUsize,
}

// SAFETY: All shared node state is accessed through atomics or under per-node
// spin locks; raw pointers are only dereferenced while the list is alive and
// nodes are never freed before the list drops (graveyard).
unsafe impl Send for OptimisticSkipList {}
// SAFETY: See the `Send` justification.
unsafe impl Sync for OptimisticSkipList {}

impl OptimisticSkipList {
    /// Creates an empty set.
    pub fn new() -> Self {
        let tail = Box::into_raw(Node::new(u64::MAX, MAX_HEIGHT - 1));
        // SAFETY: `tail` was just allocated and is exclusively owned here.
        unsafe { (*tail).fully_linked.store(true, Ordering::Release) };
        let head = Node::new(u64::MIN, MAX_HEIGHT - 1);
        for level in 0..MAX_HEIGHT {
            head.set_next(level, tail);
        }
        head.fully_linked.store(true, Ordering::Release);
        OptimisticSkipList {
            head,
            tail,
            graveyard: Graveyard::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Approximate number of keys in the set.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if the set is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Searches for `key`, filling `preds` / `succs` for every level.
    /// Returns the highest level at which the key was found.
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
                // the list is alive (removed nodes go to the graveyard).
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
                    // Wait for a concurrent inserter to finish linking.
                    while !found.fully_linked.load(Ordering::Acquire) {
                        rl_sync::pause();
                    }
                    return false;
                }
                // The node is being removed: retry until it is unlinked.
                continue;
            }

            // Lock every distinct predecessor up to the new node's top level
            // and validate that the window is still intact.
            let mut guards = Vec::with_capacity(top_level + 1);
            let mut prev_pred: *mut Node = std::ptr::null_mut();
            let mut valid = true;
            for level in 0..=top_level {
                let pred = preds[level];
                let succ = succs[level];
                if pred != prev_pred {
                    // SAFETY: See `find`.
                    guards.push(unsafe { &*pred }.lock.lock());
                    prev_pred = pred;
                }
                // SAFETY: See `find`.
                let pred_ref = unsafe { &*pred };
                // SAFETY: See `find`.
                let succ_ref = unsafe { &*succ };
                valid = !pred_ref.marked.load(Ordering::Acquire)
                    && !succ_ref.marked.load(Ordering::Acquire)
                    && pred_ref.next(level) == succ;
                if !valid {
                    break;
                }
            }
            if !valid {
                drop(guards);
                continue;
            }

            let node = Box::into_raw(Node::new(key, top_level));
            // SAFETY: Just allocated, exclusively owned until published below.
            let node_ref = unsafe { &*node };
            for (level, &succ) in succs.iter().enumerate().take(top_level + 1) {
                node_ref.set_next(level, succ);
            }
            for (level, &pred) in preds.iter().enumerate().take(top_level + 1) {
                // SAFETY: See `find`; the predecessor is locked.
                unsafe { &*pred }.set_next(level, node);
            }
            node_ref.fully_linked.store(true, Ordering::Release);
            drop(guards);
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
        let mut victim_ptr: *mut Node = std::ptr::null_mut();
        let mut victim_guard: Option<rl_sync::SpinLockGuard<'_, ()>> = None;
        let mut is_marked = false;
        let mut top_level = 0usize;
        loop {
            let l_found = self.find(key, &mut preds, &mut succs);
            if !is_marked {
                let l_found = match l_found {
                    None => return false,
                    Some(l) => l,
                };
                victim_ptr = succs[l_found];
                // SAFETY: See `find`.
                let victim = unsafe { &*victim_ptr };
                let ready = victim.fully_linked.load(Ordering::Acquire)
                    && victim.top_level == l_found
                    && !victim.marked.load(Ordering::Acquire);
                if !ready {
                    return false;
                }
                top_level = victim.top_level;
                let guard = victim.lock.lock();
                if victim.marked.load(Ordering::Acquire) {
                    return false;
                }
                victim.marked.store(true, Ordering::Release);
                victim_guard = Some(guard);
                is_marked = true;
            }

            // Lock the predecessors and validate.
            let mut guards = Vec::with_capacity(top_level + 1);
            let mut prev_pred: *mut Node = std::ptr::null_mut();
            let mut valid = true;
            for (level, &pred) in preds.iter().enumerate().take(top_level + 1) {
                if pred != prev_pred {
                    // SAFETY: See `find`.
                    guards.push(unsafe { &*pred }.lock.lock());
                    prev_pred = pred;
                }
                // SAFETY: See `find`.
                let pred_ref = unsafe { &*pred };
                valid =
                    !pred_ref.marked.load(Ordering::Acquire) && pred_ref.next(level) == victim_ptr;
                if !valid {
                    break;
                }
            }
            if !valid {
                drop(guards);
                continue;
            }

            // SAFETY: The victim is locked and marked by us.
            let victim = unsafe { &*victim_ptr };
            for level in (0..=top_level).rev() {
                // SAFETY: Predecessors are locked; see `find`.
                unsafe { &*preds[level] }.set_next(level, victim.next(level));
            }
            drop(victim_guard.take());
            drop(guards);
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

impl Default for OptimisticSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for OptimisticSkipList {
    fn drop(&mut self) {
        // Free the linked chain at level 0, then the graveyard, then the tail.
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
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn sequential_set_semantics() {
        let set = OptimisticSkipList::new();
        assert!(set.is_empty());
        assert!(set.insert(5));
        assert!(set.insert(1));
        assert!(set.insert(9));
        assert!(!set.insert(5));
        assert_eq!(set.len(), 3);
        assert!(set.contains(1));
        assert!(!set.contains(2));
        assert!(set.remove(1));
        assert!(!set.remove(1));
        assert_eq!(set.to_vec(), vec![5, 9]);
    }

    #[test]
    fn matches_btreeset_oracle_sequentially() {
        // A seeded xorshift64: a value below `bound`.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let set = OptimisticSkipList::new();
        let mut oracle = BTreeSet::new();
        for _ in 0..5_000 {
            let key = below(500 - 1) + 1;
            match below(3) {
                0 => assert_eq!(set.insert(key), oracle.insert(key)),
                1 => assert_eq!(set.remove(key), oracle.remove(&key)),
                _ => assert_eq!(set.contains(key), oracle.contains(&key)),
            }
        }
        assert_eq!(set.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
        assert_eq!(set.len(), oracle.len());
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let set = Arc::new(OptimisticSkipList::new());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let set = Arc::clone(&set);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    assert!(set.insert(t * PER_THREAD + i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(set.len(), (THREADS * PER_THREAD) as usize);
        let all = set.to_vec();
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_mixed_workload_is_a_set() {
        // Every thread works on the same small key space; at the end, the
        // number of present keys equals successful inserts minus successful
        // removes.
        use std::sync::atomic::AtomicI64;
        const THREADS: usize = 8;
        const OPS: usize = 3_000;
        let set = Arc::new(OptimisticSkipList::new());
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
                    let key = state % 128 + 1;
                    if state & 0x100 == 0 {
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
        let present = set.to_vec().len() as i64;
        assert_eq!(present, balance.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "outside the supported range")]
    fn reserved_keys_are_rejected() {
        let set = OptimisticSkipList::new();
        set.insert(u64::MAX);
    }
}
