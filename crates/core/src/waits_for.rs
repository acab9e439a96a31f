//! Waits-for graph for best-effort deadlock detection (`EDEADLK`).
//!
//! POSIX `fcntl` record locks detect the classic two-owner deadlock — A holds
//! a range B wants, B holds a range A wants, both block — and fail one of the
//! acquisitions with `EDEADLK` instead of letting the processes hang. The
//! detection is *best-effort*: false positives are permitted (SUSv4 allows
//! `EDEADLK` whenever the implementation "detects" a potential deadlock), and
//! deadlocks built out of more exotic dependencies can be missed.
//!
//! This module supplies the graph that backs the same contract for the range
//! locks in this workspace. Each node is an **owner** (a `LockOwner` of the
//! `rl-file` lock table, keyed by its numeric id); each edge `A → B` means
//! "A's in-flight acquisition cannot proceed while B holds what it published".
//! An owner about to wait calls [`WaitGraph::register`] with the holders it
//! derived from the conflicting published state; if installing those edges
//! would close a cycle through the caller, `register` installs **nothing**
//! and returns the cycle as a [`Deadlock`] error — the caller must cancel its
//! pending acquisition and propagate `EDEADLK` instead of parking.
//!
//! # Why the check lives at registration time
//!
//! All mutation happens under one internal mutex, so every registration sees
//! every earlier registration. A genuine (permanent) deadlock means every
//! participant is waiting, and waiters re-derive and re-register their edges
//! periodically (the sync path re-arms on a short deadline, the async path on
//! every wake); once all edges of the cycle are accurate, whichever
//! participant registers last sees the whole cycle and is refused. Detection
//! is therefore *eventually certain* for permanent cycles, while a release
//! racing an edge derivation can at worst produce a spurious `EDEADLK` —
//! exactly the POSIX best-effort contract.
//!
//! # Owner identity
//!
//! One node per owner id requires that an owner has at most one in-flight
//! acquisition at a time (true for `LockOwner`, whose blocking acquisition
//! takes `&mut self`). A batched acquisition is still one node: it waits for
//! one range at a time, and its edge set is replaced wholesale on each
//! re-registration.
//!
//! # Examples
//!
//! ```
//! use range_lock::WaitGraph;
//!
//! let graph = WaitGraph::new();
//! graph.register(1, [2]).unwrap(); // owner 1 waits on owner 2
//! let err = graph.register(2, [1]).unwrap_err(); // 2 → 1 closes the cycle
//! assert_eq!(err.cycle(), &[2, 1, 2]);
//! graph.deregister(1); // owner 1 got its range after 2 backed off
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A cycle in the waits-for graph: waiting would have deadlocked.
///
/// The workspace's `EDEADLK`. Carries the cycle as a list of owner ids,
/// starting and ending with the owner whose registration was refused, so
/// callers with an id→name map can render `deadlock: a -> b -> a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    cycle: Vec<u64>,
}

impl Deadlock {
    /// The detected cycle: `cycle()[0]` is the refused registrant, each
    /// subsequent id is waited-on by its predecessor, and the last id equals
    /// the first.
    pub fn cycle(&self) -> &[u64] {
        &self.cycle
    }
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "resource deadlock would occur (EDEADLK): owners ")?;
        for (i, id) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{id}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Deadlock {}

/// The waits-for graph: owner-id nodes, waiter→holder edges, cycle check on
/// every edge installation.
///
/// One graph per lock-table (or per whatever domain shares owners); owners of
/// different graphs can never deadlock *through the graph's locks* by
/// construction of the table, so no global registry is needed.
#[derive(Debug, Default)]
pub struct WaitGraph {
    edges: Mutex<Edges>,
    /// Number of registrations refused with [`Deadlock`].
    detected: AtomicU64,
}

/// The graph proper, behind [`WaitGraph`]'s mutex.
#[derive(Debug, Default)]
struct Edges {
    /// `waiter → holders` edge sets. An owner has at most one entry (one
    /// in-flight acquisition); registration replaces the set wholesale.
    sets: HashMap<u64, Vec<u64>>,
    /// Emptied edge sets of resolved waiters, reused by the next
    /// registration: a steady stream of waits allocates no set.
    spare: Vec<Vec<u64>>,
}

impl Edges {
    fn remove(&mut self, waiter: u64) {
        if let Some(mut set) = self.sets.remove(&waiter) {
            set.clear();
            self.spare.push(set);
        }
    }
}

impl WaitGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) `waiter`'s outgoing edges before it waits.
    ///
    /// If the new edges would close a cycle through `waiter`, nothing is
    /// installed — any previous edge set of `waiter` is *removed* — and the
    /// cycle is returned as an error; the caller must abandon the
    /// acquisition (cancel its pending node) rather than wait. A `waiter`
    /// appearing in its own `holders` (a self-edge, e.g. derived from a
    /// split re-lock misaccounted as a conflict) is an immediate cycle.
    ///
    /// An empty `holders` set simply clears the waiter's edges. The set is
    /// collected into an emptied set of an earlier waiter, so a steady
    /// stream of waits allocates nothing.
    pub fn register(
        &self,
        waiter: u64,
        holders: impl IntoIterator<Item = u64>,
    ) -> Result<(), Deadlock> {
        let mut edges = self.edges.lock().unwrap();
        // Replace rather than merge: the caller re-derives its full edge set
        // from the current published state on every registration, so stale
        // edges from an earlier derivation must not linger.
        edges.remove(waiter);
        let mut set = edges.spare.pop().unwrap_or_default();
        set.extend(holders);
        if set.is_empty() {
            edges.spare.push(set);
            return Ok(());
        }
        if set.contains(&waiter) {
            set.clear();
            edges.spare.push(set);
            self.detected.fetch_add(1, Ordering::Relaxed);
            return Err(Deadlock {
                cycle: vec![waiter, waiter],
            });
        }
        // A cycle through `waiter` leaves it through a holder that is
        // itself waiting; when no holder is, there is nothing to search.
        let search = set.iter().any(|h| edges.sets.contains_key(h));
        edges.sets.insert(waiter, set);
        if !search {
            return Ok(());
        }
        let mut visited = HashSet::new();
        let mut path = vec![waiter];
        if dfs_back_to(&edges.sets, waiter, waiter, &mut visited, &mut path) {
            edges.remove(waiter);
            self.detected.fetch_add(1, Ordering::Relaxed);
            return Err(Deadlock { cycle: path });
        }
        Ok(())
    }

    /// Removes `waiter`'s edges: its acquisition resolved (granted, timed
    /// out, cancelled, or refused). Idempotent.
    pub fn deregister(&self, waiter: u64) {
        self.edges.lock().unwrap().remove(waiter);
    }

    /// Number of registrations refused with [`Deadlock`] so far.
    pub fn deadlocks_detected(&self) -> u64 {
        self.detected.load(Ordering::Relaxed)
    }

    /// Number of owners currently registered as waiting.
    pub fn waiting_owners(&self) -> usize {
        self.edges.lock().unwrap().sets.len()
    }

    /// A consistent copy of the current `waiter → holders` edge sets,
    /// sorted by waiter id. Feeds diagnostics (the DOT dump attached to
    /// `rl-file` deadlock errors); by the time the caller looks at it the
    /// graph may already have moved on.
    pub fn snapshot_edges(&self) -> Vec<(u64, Vec<u64>)> {
        let edges = self.edges.lock().unwrap();
        let mut out: Vec<(u64, Vec<u64>)> =
            edges.sets.iter().map(|(w, h)| (*w, h.clone())).collect();
        out.sort_by_key(|(w, _)| *w);
        out
    }
}

/// Depth-first search for a path from `current` back to `start`, extending
/// `path` (which already ends at `current`). On success `path` is the full
/// cycle `start -> … -> start`.
fn dfs_back_to(
    edges: &HashMap<u64, Vec<u64>>,
    current: u64,
    start: u64,
    visited: &mut HashSet<u64>,
    path: &mut Vec<u64>,
) -> bool {
    let Some(nexts) = edges.get(&current) else {
        return false;
    };
    for &next in nexts {
        if next == start {
            path.push(next);
            return true;
        }
        if visited.insert(next) {
            path.push(next);
            if dfs_back_to(edges, next, start, visited, path) {
                return true;
            }
            path.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_acyclic_registrations_succeed() {
        let g = WaitGraph::new();
        assert!(g.register(1, []).is_ok());
        assert_eq!(g.waiting_owners(), 0);
        assert!(g.register(1, [2, 3]).is_ok());
        assert!(g.register(2, [3]).is_ok());
        assert!(g.register(3, [4]).is_ok());
        assert_eq!(g.waiting_owners(), 3);
        assert_eq!(g.deadlocks_detected(), 0);
    }

    #[test]
    fn two_owner_cycle_is_refused_with_the_cycle_path() {
        let g = WaitGraph::new();
        g.register(1, [2]).unwrap();
        let err = g.register(2, [1]).unwrap_err();
        assert_eq!(err.cycle(), &[2, 1, 2]);
        assert_eq!(g.deadlocks_detected(), 1);
        // The refused registration installed nothing: owner 2 can re-derive
        // and wait on someone else.
        assert!(g.register(2, [3]).is_ok());
        let msg = err.to_string();
        assert!(msg.contains("EDEADLK"), "{msg}");
        assert!(msg.contains("2 -> 1 -> 2"), "{msg}");
    }

    #[test]
    fn self_edge_is_an_immediate_cycle() {
        // Regression shape for split re-locks: an edge derivation that
        // misattributes the owner's *own* published range as a conflicting
        // holder must be refused, not installed as a permanent self-loop.
        let g = WaitGraph::new();
        let err = g.register(7, [7]).unwrap_err();
        assert_eq!(err.cycle(), &[7, 7]);
        assert_eq!(g.waiting_owners(), 0);
    }

    #[test]
    fn three_owner_cycle_is_found_through_intermediates() {
        let g = WaitGraph::new();
        g.register(1, [2]).unwrap();
        g.register(2, [3]).unwrap();
        let err = g.register(3, [1]).unwrap_err();
        assert_eq!(err.cycle(), &[3, 1, 2, 3]);
    }

    #[test]
    fn reregistration_replaces_the_edge_set() {
        let g = WaitGraph::new();
        g.register(1, [2]).unwrap();
        // 1 re-derives: now it only waits on 3. The stale 1→2 edge must be
        // gone, so 2→1 no longer closes a cycle.
        g.register(1, [3]).unwrap();
        assert!(g.register(2, [1]).is_ok());
    }

    #[test]
    fn deregister_unblocks_the_cycle() {
        let g = WaitGraph::new();
        g.register(1, [2]).unwrap();
        g.deregister(1);
        assert!(g.register(2, [1]).is_ok());
        g.deregister(2);
        g.deregister(2); // idempotent
        assert_eq!(g.waiting_owners(), 0);
    }

    #[test]
    fn snapshot_reports_current_edges_sorted() {
        let g = WaitGraph::new();
        g.register(3, [1]).unwrap();
        g.register(1, [2, 4]).unwrap();
        assert_eq!(g.snapshot_edges(), vec![(1, vec![2, 4]), (3, vec![1])]);
        g.deregister(3);
        assert_eq!(g.snapshot_edges(), vec![(1, vec![2, 4])]);
    }

    #[test]
    fn diamond_without_cycle_is_not_a_false_positive() {
        // 1 → {2, 3}, 2 → 4, 3 → 4: shared sink, no cycle.
        let g = WaitGraph::new();
        g.register(1, [2, 3]).unwrap();
        g.register(2, [4]).unwrap();
        g.register(3, [4]).unwrap();
        assert!(g.register(4, [5]).is_ok());
        assert_eq!(g.deadlocks_detected(), 0);
    }
}
