//! List nodes and marked (tagged) pointers.
//!
//! The list-based range lock keeps acquired ranges in a singly linked list of
//! [`LNode`]s sorted by range start. Logical deletion is expressed by setting
//! the least-significant bit of a node's `next` pointer (Harris-style
//! marking): since `LNode` is at least 8-byte aligned, the LSB of a real
//! pointer is always zero and can carry the "deleted" flag. Release of a range
//! is therefore a single wait-free fetch-and-add on the owner's `next` field
//! (Listing 1, line 52), and physical unlinking is deferred to later
//! traversals.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::range::Range;

/// A node in the range-lock list, describing one acquired range.
///
/// Equivalent to the paper's `LNode`: the range boundaries, the reader flag
/// (used only by the reader-writer variant), and the marked `next` pointer.
///
/// The reader flag is atomic so that a *held* writer node can be downgraded
/// to a reader node in place (see `ListGuard::downgrade`): concurrent
/// traversals and validation passes read the flag while the owner flips it.
#[repr(align(8))]
#[derive(Debug)]
pub struct LNode {
    /// Inclusive start of the acquired range.
    pub start: u64,
    /// Exclusive end of the acquired range.
    pub end: u64,
    /// `true` if the range is held in shared (reader) mode.
    pub reader: AtomicBool,
    /// Tagged pointer to the next node; LSB set means this node is logically
    /// deleted.
    pub next: AtomicU64,
}

impl LNode {
    /// Creates a detached node covering `range`.
    pub fn new(range: Range, reader: bool) -> Self {
        LNode {
            start: range.start,
            end: range.end,
            reader: AtomicBool::new(reader),
            next: AtomicU64::new(0),
        }
    }

    /// The range carried by this node.
    #[inline]
    pub fn range(&self) -> Range {
        Range {
            start: self.start,
            end: self.end,
        }
    }

    /// Returns `true` if the node is currently held in shared (reader) mode.
    #[inline]
    pub fn is_reader(&self) -> bool {
        self.reader.load(Ordering::Acquire)
    }

    /// Flips a writer node to reader mode in place (the downgrade primitive).
    ///
    /// Only ever weakens the node's exclusion (writer → reader), so concurrent
    /// traversals that read the old value merely wait when they could share.
    #[inline]
    pub fn set_reader(&self) {
        self.reader.store(true, Ordering::Release);
    }

    /// Resets the node in place for reuse from a pool.
    #[inline]
    pub fn reset(&mut self, range: Range, reader: bool) {
        self.start = range.start;
        self.end = range.end;
        *self.reader.get_mut() = reader;
        *self.next.get_mut() = 0;
    }

    /// Returns `true` if this node has been logically deleted (its `next`
    /// pointer is marked).
    #[inline]
    pub fn is_deleted(&self) -> bool {
        is_marked(self.next.load(Ordering::Acquire))
    }

    /// Logically deletes this node by setting the LSB of its `next` pointer.
    ///
    /// This is the paper's `DeleteNode`: a single fetch-and-add, making the
    /// release wait-free. Returns the previous (unmarked) successor pointer.
    #[inline]
    pub fn mark_deleted(&self) -> u64 {
        let prev = self.next.fetch_add(1, Ordering::AcqRel);
        debug_assert!(!is_marked(prev), "node marked as deleted twice");
        prev
    }
}

/// Returns `true` if the tagged pointer has its deletion bit set.
#[inline]
pub fn is_marked(ptr: u64) -> bool {
    ptr & 1 == 1
}

/// Removes the deletion bit from a tagged pointer.
#[inline]
pub fn unmark(ptr: u64) -> u64 {
    ptr & !1
}

/// Sets the deletion bit on a tagged pointer.
#[inline]
pub fn mark(ptr: u64) -> u64 {
    ptr | 1
}

/// Converts a tagged pointer to a node reference, ignoring the mark bit.
///
/// Returns `None` for the null pointer.
///
/// # Safety
///
/// The caller must guarantee that, if non-null, the unmarked pointer refers to
/// a live `LNode` for the duration of the returned borrow (i.e. the caller is
/// inside an epoch-protected section and the node has not been reclaimed).
#[inline]
pub(crate) unsafe fn deref_node<'a>(ptr: u64) -> Option<&'a LNode> {
    let raw = unmark(ptr) as *const LNode;
    // SAFETY: Guaranteed by the caller per this function's contract.
    unsafe { raw.as_ref() }
}

/// Converts a node reference to an (unmarked) tagged pointer value.
#[inline]
pub fn to_ptr(node: &LNode) -> u64 {
    node as *const LNode as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_unmark_round_trip() {
        let node = Box::new(LNode::new(Range::new(0, 10), false));
        let p = to_ptr(&node);
        assert!(!is_marked(p));
        assert!(is_marked(mark(p)));
        assert_eq!(unmark(mark(p)), p);
        assert_eq!(unmark(p), p);
    }

    #[test]
    fn node_alignment_allows_tagging() {
        assert!(std::mem::align_of::<LNode>() >= 2);
        let node = LNode::new(Range::new(1, 2), true);
        assert_eq!(to_ptr(&node) & 1, 0);
    }

    #[test]
    fn mark_deleted_sets_flag_once() {
        let node = LNode::new(Range::new(0, 4), false);
        assert!(!node.is_deleted());
        let prev = node.mark_deleted();
        assert_eq!(prev, 0);
        assert!(node.is_deleted());
    }

    #[test]
    fn reset_clears_state() {
        let mut node = LNode::new(Range::new(0, 4), false);
        node.mark_deleted();
        node.reset(Range::new(8, 16), true);
        assert!(!node.is_deleted());
        assert_eq!(node.range(), Range::new(8, 16));
        assert!(node.is_reader());
    }

    #[test]
    fn set_reader_downgrades_in_place() {
        let node = LNode::new(Range::new(0, 4), false);
        assert!(!node.is_reader());
        node.set_reader();
        assert!(node.is_reader());
    }

    #[test]
    fn deref_null_is_none() {
        // SAFETY: Null is always a valid input; it yields `None`.
        assert!(unsafe { deref_node(0) }.is_none());
    }

    #[test]
    fn deref_live_node() {
        let node = Box::new(LNode::new(Range::new(3, 9), false));
        let ptr = to_ptr(&node);
        // SAFETY: `node` is alive for the duration of the borrow.
        let r = unsafe { deref_node(ptr) }.unwrap();
        assert_eq!(r.range(), Range::new(3, 9));
        // SAFETY: Same as above, with a marked pointer.
        let r = unsafe { deref_node(mark(ptr)) }.unwrap();
        assert_eq!(r.range(), Range::new(3, 9));
    }
}
