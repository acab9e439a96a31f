//! The VMA tree — the simulator's `mm_rb`.
//!
//! The Linux kernel keeps every `vm_area_struct` of a process in a red-black
//! tree ordered by start address (`mm_rb`); `find_vma(addr)` returns the first
//! VMA whose end is greater than `addr`. This module provides the same
//! interface on top of a from-scratch AVL tree (same asymptotics, simpler
//! deletion — the balancing scheme is irrelevant to the synchronization
//! experiments, see `DESIGN.md`).
//!
//! The tree owns `Arc<Vma>` handles so that operations can keep referring to a
//! VMA found by [`VmaTree::find_vma`] after releasing and re-acquiring locks,
//! exactly like kernel code holds `vm_area_struct` pointers. Structural
//! mutation (insert / remove) must only happen while the caller holds the
//! full-range write lock; lookups may run concurrently with VMA *metadata*
//! updates because those fields are atomic.

use std::sync::Arc;

use crate::vma::Vma;

#[derive(Debug)]
struct Node {
    vma: Arc<Vma>,
    height: i32,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn new(vma: Arc<Vma>) -> Box<Node> {
        Box::new(Node {
            vma,
            height: 1,
            left: None,
            right: None,
        })
    }
}

fn height(node: &Option<Box<Node>>) -> i32 {
    node.as_ref().map_or(0, |n| n.height)
}

fn update(node: &mut Box<Node>) {
    node.height = 1 + height(&node.left).max(height(&node.right));
}

fn balance_factor(node: &Node) -> i32 {
    height(&node.left) - height(&node.right)
}

fn rotate_right(mut node: Box<Node>) -> Box<Node> {
    let mut new_root = node.left.take().expect("rotate_right needs a left child");
    node.left = new_root.right.take();
    update(&mut node);
    new_root.right = Some(node);
    update(&mut new_root);
    new_root
}

fn rotate_left(mut node: Box<Node>) -> Box<Node> {
    let mut new_root = node.right.take().expect("rotate_left needs a right child");
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
        if balance_factor(node.left.as_ref().expect("bf > 1")) < 0 {
            node.left = Some(rotate_left(node.left.take().expect("bf > 1")));
        }
        rotate_right(node)
    } else if bf < -1 {
        if balance_factor(node.right.as_ref().expect("bf < -1")) > 0 {
            node.right = Some(rotate_right(node.right.take().expect("bf < -1")));
        }
        rotate_left(node)
    } else {
        node
    }
}

fn insert_node(node: Option<Box<Node>>, vma: Arc<Vma>) -> Box<Node> {
    match node {
        None => Node::new(vma),
        Some(mut n) => {
            if vma.start() < n.vma.start() {
                n.left = Some(insert_node(n.left.take(), vma));
            } else {
                n.right = Some(insert_node(n.right.take(), vma));
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
    let (new_left, min) = take_min(node.left.take().expect("checked"));
    node.left = new_left;
    (Some(rebalance(node)), min)
}

fn remove_node(
    node: Option<Box<Node>>,
    start: u64,
    removed: &mut Option<Arc<Vma>>,
) -> Option<Box<Node>> {
    let mut n = node?;
    let key = n.vma.start();
    if start < key {
        n.left = remove_node(n.left.take(), start, removed);
        Some(rebalance(n))
    } else if start > key {
        n.right = remove_node(n.right.take(), start, removed);
        Some(rebalance(n))
    } else {
        *removed = Some(Arc::clone(&n.vma));
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

/// The per-address-space tree of VMAs, ordered by start address.
#[derive(Debug, Default)]
pub struct VmaTree {
    root: Option<Box<Node>>,
    len: usize,
}

impl VmaTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        VmaTree { root: None, len: 0 }
    }

    /// Number of VMAs in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the address space has no mappings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a VMA. The caller must guarantee it does not overlap any
    /// existing VMA (checked in debug builds).
    pub fn insert(&mut self, vma: Arc<Vma>) {
        debug_assert!(
            self.find_vma(vma.start())
                .map(|existing| existing.start() >= vma.end())
                .unwrap_or(true),
            "inserted VMA overlaps an existing one"
        );
        self.root = Some(insert_node(self.root.take(), vma));
        self.len += 1;
    }

    /// Removes the VMA whose start address is exactly `start`.
    pub fn remove(&mut self, start: u64) -> Option<Arc<Vma>> {
        let mut removed = None;
        self.root = remove_node(self.root.take(), start, &mut removed);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Returns the first VMA whose end address is greater than `addr` — the
    /// kernel's `find_vma()`. The returned VMA may start after `addr` (i.e.
    /// `addr` may fall in a gap before it).
    pub fn find_vma(&self, addr: u64) -> Option<Arc<Vma>> {
        let mut best: Option<&Box<Node>> = None;
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            if n.vma.end() > addr {
                best = Some(n);
                cur = n.left.as_ref();
            } else {
                cur = n.right.as_ref();
            }
        }
        best.map(|n| Arc::clone(&n.vma))
    }

    /// Returns the VMA containing `addr`, if any.
    pub fn find_containing(&self, addr: u64) -> Option<Arc<Vma>> {
        self.find_vma(addr).filter(|vma| vma.contains(addr))
    }

    /// Returns the VMA with the largest start address strictly below `start`
    /// (the candidate "previous neighbour" used for merging decisions).
    pub fn find_prev(&self, start: u64) -> Option<Arc<Vma>> {
        let mut best: Option<&Box<Node>> = None;
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            if n.vma.start() < start {
                best = Some(n);
                cur = n.right.as_ref();
            } else {
                cur = n.left.as_ref();
            }
        }
        best.map(|n| Arc::clone(&n.vma))
    }

    /// Returns the VMA with the smallest start address greater than or equal
    /// to `addr` (the candidate "next neighbour").
    pub fn find_next(&self, addr: u64) -> Option<Arc<Vma>> {
        let mut best: Option<&Box<Node>> = None;
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            if n.vma.start() >= addr {
                best = Some(n);
                cur = n.left.as_ref();
            } else {
                cur = n.right.as_ref();
            }
        }
        best.map(|n| Arc::clone(&n.vma))
    }

    /// Collects every VMA overlapping `[start, end)`, in address order.
    ///
    /// The pruning relies on VMAs being pairwise non-overlapping: any VMA to
    /// the left of a node whose start is at or below `start` must end at or
    /// before that node's start and therefore cannot overlap the query.
    pub fn overlapping(&self, start: u64, end: u64) -> Vec<Arc<Vma>> {
        let mut out = Vec::new();
        fn walk(node: &Option<Box<Node>>, start: u64, end: u64, out: &mut Vec<Arc<Vma>>) {
            let n = match node {
                None => return,
                Some(n) => n,
            };
            let n_start = n.vma.start();
            if n_start > start {
                walk(&n.left, start, end, out);
            }
            if n_start < end && n.vma.end() > start {
                out.push(Arc::clone(&n.vma));
            }
            if n_start < end {
                walk(&n.right, start, end, out);
            }
        }
        walk(&self.root, start, end, &mut out);
        out
    }

    /// Returns every VMA in address order.
    pub fn to_vec(&self) -> Vec<Arc<Vma>> {
        fn walk(node: &Option<Box<Node>>, out: &mut Vec<Arc<Vma>>) {
            if let Some(n) = node {
                walk(&n.left, out);
                out.push(Arc::clone(&n.vma));
                walk(&n.right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }

    /// Total number of mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.to_vec().iter().map(|v| v.len()).sum()
    }

    /// Verifies ordering, balance and non-overlap invariants (for tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk(node: &Option<Box<Node>>) -> Result<(i32, usize), String> {
            let n = match node {
                None => return Ok((0, 0)),
                Some(n) => n,
            };
            let (lh, lc) = walk(&n.left)?;
            let (rh, rc) = walk(&n.right)?;
            if (lh - rh).abs() > 1 {
                return Err(format!("unbalanced at VMA {:?}", n.vma.range()));
            }
            if n.height != 1 + lh.max(rh) {
                return Err(format!("stale height at VMA {:?}", n.vma.range()));
            }
            Ok((1 + lh.max(rh), lc + rc + 1))
        }
        let (_, count) = walk(&self.root)?;
        if count != self.len {
            return Err(format!("len {} != node count {count}", self.len));
        }
        let all = self.to_vec();
        for pair in all.windows(2) {
            if pair[0].end() > pair[1].start() {
                return Err(format!(
                    "overlapping VMAs {:?} and {:?}",
                    pair[0].range(),
                    pair[1].range()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Protection;

    fn vma(start: u64, end: u64) -> Arc<Vma> {
        Arc::new(Vma::new(start, end, Protection::READ_WRITE))
    }

    #[test]
    fn find_vma_matches_kernel_semantics() {
        let mut tree = VmaTree::new();
        tree.insert(vma(0x1000, 0x3000));
        tree.insert(vma(0x5000, 0x8000));
        tree.insert(vma(0xa000, 0xb000));

        // Address inside a VMA returns that VMA.
        assert_eq!(tree.find_vma(0x2000).unwrap().start(), 0x1000);
        // Address in a gap returns the next VMA above it.
        assert_eq!(tree.find_vma(0x4000).unwrap().start(), 0x5000);
        // Address beyond every VMA returns None.
        assert!(tree.find_vma(0xb000).is_none());
        // find_containing only returns enclosing VMAs.
        assert!(tree.find_containing(0x4000).is_none());
        assert_eq!(tree.find_containing(0x5000).unwrap().start(), 0x5000);
    }

    #[test]
    fn neighbours_are_found() {
        let mut tree = VmaTree::new();
        tree.insert(vma(0x1000, 0x3000));
        tree.insert(vma(0x5000, 0x8000));
        assert_eq!(tree.find_prev(0x5000).unwrap().start(), 0x1000);
        assert!(tree.find_prev(0x1000).is_none());
        assert_eq!(tree.find_next(0x3000).unwrap().start(), 0x5000);
        assert!(tree.find_next(0x8001).is_none());
    }

    #[test]
    fn overlapping_collects_in_order() {
        let mut tree = VmaTree::new();
        for i in 0..10u64 {
            tree.insert(vma(i * 0x10000, i * 0x10000 + 0x8000));
        }
        let hits = tree.overlapping(0x18000, 0x52000);
        let starts: Vec<u64> = hits.iter().map(|v| v.start()).collect();
        assert_eq!(starts, vec![0x20000, 0x30000, 0x40000, 0x50000]);
        assert!(tree.overlapping(0x8000, 0x10000).is_empty());
    }

    #[test]
    fn insert_remove_many_stays_balanced() {
        let mut tree = VmaTree::new();
        for i in 0..500u64 {
            tree.insert(vma(i * 0x10000, i * 0x10000 + 0x1000));
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 500);
        for i in (0..500u64).step_by(2) {
            assert!(tree.remove(i * 0x10000).is_some());
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 250);
        assert!(tree.remove(0).is_none());
    }

    #[test]
    fn mapped_bytes_accounts_everything() {
        let mut tree = VmaTree::new();
        tree.insert(vma(0x1000, 0x3000));
        tree.insert(vma(0x10000, 0x14000));
        assert_eq!(tree.mapped_bytes(), 0x2000 + 0x4000);
    }

    #[test]
    fn randomized_against_btreemap_oracle() {
        use std::collections::BTreeMap;
        // A seeded xorshift64: a value below `bound`.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut tree = VmaTree::new();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new(); // start -> end
        for _ in 0..2_000 {
            if !oracle.is_empty() && below(10) < 4 {
                let idx = below(oracle.len() as u64) as usize;
                let (&start, _) = oracle.iter().nth(idx).unwrap();
                oracle.remove(&start);
                assert!(tree.remove(start).is_some());
            } else {
                // Pick a non-overlapping page-aligned slot.
                let slot = below(4_000) * 0x1000;
                let end = slot + 0x1000;
                let overlaps = oracle
                    .range(..end)
                    .next_back()
                    .map(|(_, &e)| e > slot)
                    .unwrap_or(false);
                if !overlaps && !oracle.contains_key(&slot) {
                    oracle.insert(slot, end);
                    tree.insert(vma(slot, end));
                }
            }
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), oracle.len());
        // find_vma agrees with a linear scan of the oracle.
        for _ in 0..200 {
            let addr = below(4_100) * 0x1000;
            let expected = oracle
                .iter()
                .find(|(_, &end)| end > addr)
                .map(|(&start, _)| start);
            assert_eq!(tree.find_vma(addr).map(|v| v.start()), expected);
        }
    }
}
