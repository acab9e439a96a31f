//! A balanced interval tree tracking acquired / requested ranges.
//!
//! The kernel's range lock (Jan Kara's `lib: Implement range locks` and the
//! later reader-writer variant by Davidlohr Bueso) keeps every requested range
//! in a *range tree* — an augmented balanced search tree ordered by range
//! start, where each node also records the maximum range end in its subtree so
//! that overlap queries can prune whole subtrees. This module is that
//! structure, implemented from scratch.
//!
//! The kernel builds its range tree on red-black trees; we use an AVL tree,
//! which provides the same `O(log n)` bounds with simpler deletion. The choice
//! of balancing scheme is irrelevant to the experiments: the tree is only ever
//! manipulated under the range lock's internal spin lock, which is precisely
//! the bottleneck the paper identifies (see `DESIGN.md`).
//!
//! Every stored interval carries an opaque `u64` id so that multiple identical
//! ranges (e.g. two waiters requesting the same range) can coexist and be
//! removed individually.

use range_lock::Range;

/// An entry stored in the tree: a range plus the caller-chosen identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The stored range.
    pub range: Range,
    /// Caller-chosen identifier distinguishing entries with equal ranges.
    pub id: u64,
}

#[derive(Debug)]
struct Node {
    interval: Interval,
    /// Maximum `range.end` in the subtree rooted at this node.
    max_end: u64,
    height: i32,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn new(interval: Interval) -> Box<Node> {
        Box::new(Node {
            max_end: interval.range.end,
            interval,
            height: 1,
            left: None,
            right: None,
        })
    }

    fn key(&self) -> (u64, u64, u64) {
        (
            self.interval.range.start,
            self.interval.range.end,
            self.interval.id,
        )
    }
}

fn height(node: &Option<Box<Node>>) -> i32 {
    node.as_ref().map_or(0, |n| n.height)
}

fn max_end(node: &Option<Box<Node>>) -> u64 {
    node.as_ref().map_or(0, |n| n.max_end)
}

fn update(node: &mut Box<Node>) {
    node.height = 1 + height(&node.left).max(height(&node.right));
    node.max_end = node
        .interval
        .range
        .end
        .max(max_end(&node.left))
        .max(max_end(&node.right));
}

fn balance_factor(node: &Node) -> i32 {
    height(&node.left) - height(&node.right)
}

fn rotate_right(mut node: Box<Node>) -> Box<Node> {
    let mut new_root = node
        .left
        .take()
        .expect("rotate_right requires a left child");
    node.left = new_root.right.take();
    update(&mut node);
    new_root.right = Some(node);
    update(&mut new_root);
    new_root
}

fn rotate_left(mut node: Box<Node>) -> Box<Node> {
    let mut new_root = node
        .right
        .take()
        .expect("rotate_left requires a right child");
    node.right = new_root.left.take();
    update(&mut node);
    new_root.left = Some(node);
    update(&mut new_root);
    new_root
}

fn rebalance(mut node: Box<Node>) -> Box<Node> {
    update(&mut node);
    let bf = balance_factor(&node);
    if bf > 1 {
        if balance_factor(node.left.as_ref().expect("bf > 1 implies left child")) < 0 {
            node.left = Some(rotate_left(node.left.take().expect("checked above")));
        }
        rotate_right(node)
    } else if bf < -1 {
        if balance_factor(node.right.as_ref().expect("bf < -1 implies right child")) > 0 {
            node.right = Some(rotate_right(node.right.take().expect("checked above")));
        }
        rotate_left(node)
    } else {
        node
    }
}

fn insert_node(node: Option<Box<Node>>, interval: Interval) -> Box<Node> {
    match node {
        None => Node::new(interval),
        Some(mut n) => {
            let key = (interval.range.start, interval.range.end, interval.id);
            if key < n.key() {
                n.left = Some(insert_node(n.left.take(), interval));
            } else {
                n.right = Some(insert_node(n.right.take(), interval));
            }
            rebalance(n)
        }
    }
}

fn take_min(mut node: Box<Node>) -> (Option<Box<Node>>, Box<Node>) {
    if node.left.is_none() {
        let right = node.right.take();
        update(&mut node);
        return (right, node);
    }
    let (new_left, min) = take_min(node.left.take().expect("checked above"));
    node.left = new_left;
    (Some(rebalance(node)), min)
}

fn remove_node(
    node: Option<Box<Node>>,
    interval: &Interval,
    removed: &mut bool,
) -> Option<Box<Node>> {
    let mut n = node?;
    let key = (interval.range.start, interval.range.end, interval.id);
    if key < n.key() {
        n.left = remove_node(n.left.take(), interval, removed);
        Some(rebalance(n))
    } else if key > n.key() {
        n.right = remove_node(n.right.take(), interval, removed);
        Some(rebalance(n))
    } else {
        *removed = true;
        match (n.left.take(), n.right.take()) {
            (None, None) => None,
            (Some(l), None) => Some(l),
            (None, Some(r)) => Some(r),
            (Some(l), Some(r)) => {
                let (new_right, mut successor) = take_min(r);
                successor.left = Some(l);
                successor.right = new_right;
                Some(rebalance(successor))
            }
        }
    }
}

/// An augmented balanced interval tree.
///
/// # Examples
///
/// ```
/// use rl_baselines::range_tree::{Interval, RangeTree};
/// use range_lock::Range;
///
/// let mut tree = RangeTree::new();
/// tree.insert(Interval { range: Range::new(0, 10), id: 1 });
/// tree.insert(Interval { range: Range::new(20, 30), id: 2 });
/// assert_eq!(tree.count_overlaps(&Range::new(5, 25)), 2);
/// assert_eq!(tree.count_overlaps(&Range::new(10, 20)), 0);
/// ```
#[derive(Debug, Default)]
pub struct RangeTree {
    root: Option<Box<Node>>,
    len: usize,
}

impl RangeTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RangeTree { root: None, len: 0 }
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no interval is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an interval (duplicates, by range and id, are allowed and kept).
    pub fn insert(&mut self, interval: Interval) {
        self.root = Some(insert_node(self.root.take(), interval));
        self.len += 1;
    }

    /// Removes one interval matching `interval` exactly (range and id).
    ///
    /// Returns `true` if an entry was removed.
    pub fn remove(&mut self, interval: &Interval) -> bool {
        let mut removed = false;
        self.root = remove_node(self.root.take(), interval, &mut removed);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Counts stored intervals overlapping `range`.
    pub fn count_overlaps(&self, range: &Range) -> usize {
        let mut count = 0;
        self.for_each_overlap(range, |_| count += 1);
        count
    }

    /// Invokes `f` for every stored interval overlapping `range`.
    pub fn for_each_overlap<F: FnMut(&Interval)>(&self, range: &Range, mut f: F) {
        fn walk<F: FnMut(&Interval)>(node: &Option<Box<Node>>, range: &Range, f: &mut F) {
            let n = match node {
                None => return,
                Some(n) => n,
            };
            // Prune: nothing in this subtree ends after `range.start`.
            if n.max_end <= range.start {
                return;
            }
            walk(&n.left, range, f);
            if n.interval.range.overlaps(range) {
                f(&n.interval);
            }
            // Prune right subtree: every start there is >= this node's start.
            if n.interval.range.start < range.end {
                walk(&n.right, range, f);
            }
        }
        walk(&self.root, range, &mut f);
    }

    /// Returns every stored interval in start order (for tests and debugging).
    pub fn to_sorted_vec(&self) -> Vec<Interval> {
        fn walk(node: &Option<Box<Node>>, out: &mut Vec<Interval>) {
            if let Some(n) = node {
                walk(&n.left, out);
                out.push(n.interval);
                walk(&n.right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }

    /// Verifies the AVL and augmentation invariants; used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk(node: &Option<Box<Node>>) -> Result<(i32, u64, usize), String> {
            let n = match node {
                None => return Ok((0, 0, 0)),
                Some(n) => n,
            };
            let (lh, lmax, lcount) = walk(&n.left)?;
            let (rh, rmax, rcount) = walk(&n.right)?;
            if (lh - rh).abs() > 1 {
                return Err(format!("AVL balance violated at {:?}", n.interval));
            }
            let expected_height = 1 + lh.max(rh);
            if n.height != expected_height {
                return Err(format!("stale height at {:?}", n.interval));
            }
            let expected_max = n.interval.range.end.max(lmax).max(rmax);
            if n.max_end != expected_max {
                return Err(format!("stale max_end at {:?}", n.interval));
            }
            if let Some(l) = &n.left {
                if l.key() > n.key() {
                    return Err("left child key exceeds parent".to_string());
                }
            }
            if let Some(r) = &n.right {
                if r.key() < n.key() {
                    return Err("right child key precedes parent".to_string());
                }
            }
            Ok((expected_height, expected_max, lcount + rcount + 1))
        }
        let (_, _, count) = walk(&self.root)?;
        if count != self.len {
            return Err(format!("len {} != node count {}", self.len, count));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64, id: u64) -> Interval {
        Interval {
            range: Range::new(start, end),
            id,
        }
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut tree = RangeTree::new();
        assert!(tree.is_empty());
        tree.insert(iv(0, 10, 1));
        tree.insert(iv(5, 15, 2));
        tree.insert(iv(20, 30, 3));
        assert_eq!(tree.len(), 3);
        assert!(tree.remove(&iv(5, 15, 2)));
        assert!(!tree.remove(&iv(5, 15, 2)));
        assert_eq!(tree.len(), 2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn count_overlaps_basic() {
        let mut tree = RangeTree::new();
        tree.insert(iv(1, 3, 1));
        tree.insert(iv(2, 7, 2));
        tree.insert(iv(4, 5, 3));
        // The Section 3 example: [1..3] overlaps [2..7]; [4..5] overlaps [2..7]
        // but not [1..3].
        assert_eq!(tree.count_overlaps(&Range::new(1, 3)), 2);
        assert_eq!(tree.count_overlaps(&Range::new(4, 5)), 2);
        assert_eq!(tree.count_overlaps(&Range::new(8, 9)), 0);
    }

    #[test]
    fn duplicates_are_tracked_individually() {
        let mut tree = RangeTree::new();
        tree.insert(iv(0, 10, 1));
        tree.insert(iv(0, 10, 2));
        assert_eq!(tree.count_overlaps(&Range::new(0, 10)), 2);
        assert!(tree.remove(&iv(0, 10, 1)));
        assert_eq!(tree.count_overlaps(&Range::new(0, 10)), 1);
        assert!(tree.remove(&iv(0, 10, 2)));
        assert!(tree.is_empty());
    }

    #[test]
    fn sorted_iteration() {
        let mut tree = RangeTree::new();
        for (i, start) in [50u64, 10, 30, 20, 40].iter().enumerate() {
            tree.insert(iv(*start, start + 5, i as u64));
        }
        let starts: Vec<u64> = tree.to_sorted_vec().iter().map(|i| i.range.start).collect();
        assert_eq!(starts, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        let mut tree = RangeTree::new();
        for i in 0..1_000u64 {
            tree.insert(iv(i * 10, i * 10 + 5, i));
            if i % 100 == 0 {
                tree.check_invariants().unwrap();
            }
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 1_000);
        // Remove every other entry and re-check.
        for i in (0..1_000u64).step_by(2) {
            assert!(tree.remove(&iv(i * 10, i * 10 + 5, i)));
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 500);
    }
}
