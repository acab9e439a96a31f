//! Starvation avoidance for the list-based range locks (Section 4.3).
//!
//! The lock-less insertion protocol is deadlock-free but not starvation-free:
//! a thread can keep failing its insertion CAS (or keep restarting because its
//! predecessor was deleted, or — for writers — keep failing validation) while
//! other threads continuously acquire and release ranges. The paper's remedy
//! is an auxiliary *fair* reader-writer lock coupled with an **impatient
//! counter**:
//!
//! * a thread that starts a range acquisition reads the counter; if it is zero
//!   (the common case) it proceeds without touching the auxiliary lock;
//! * if the counter is non-zero it acquires the auxiliary lock for **read**
//!   for the duration of its acquisition;
//! * a thread that has failed "a few" attempts bumps the counter and acquires
//!   the auxiliary lock for **write**, which drains and then holds off all
//!   other acquirers long enough for it to insert its node; the counter is
//!   decremented when that write acquisition is released.
//!
//! The race between a thread reading zero and another thread incrementing the
//! counter is benign: the counter only trades throughput for fairness and is
//! not needed for correctness of the underlying range lock.

use std::sync::atomic::{AtomicU64, Ordering};

use rl_sync::wait::WaitPolicyKind;
use rl_sync::{LockMode, RwSemGuard, RwSemaphore};

/// The impatient counter plus the auxiliary reader-writer lock.
///
/// The auxiliary lock waits through the same [`WaitPolicyKind`] as the
/// range lock that owns the gate, so an impatient thread parks (or spins)
/// exactly the way ordinary waiters of that lock do.
#[derive(Debug)]
pub struct FairnessGate {
    impatient: AtomicU64,
    aux: RwSemaphore,
}

impl FairnessGate {
    /// Creates a gate with a zero impatient counter whose auxiliary lock
    /// waits through `wait`.
    pub fn new(wait: WaitPolicyKind) -> Self {
        FairnessGate {
            impatient: AtomicU64::new(0),
            aux: RwSemaphore::with_wait(wait),
        }
    }

    /// Number of threads currently escalated to impatient mode.
    pub fn impatient_count(&self) -> u64 {
        self.impatient.load(Ordering::Relaxed)
    }

    /// Called at the start of a range acquisition: returns the permit the
    /// caller must hold while it attempts to insert its node.
    pub fn enter(&self) -> FairnessPermit<'_> {
        if self.impatient.load(Ordering::Relaxed) == 0 {
            FairnessPermit::Normal
        } else {
            FairnessPermit::Reader(RwSemGuard::new(&self.aux, LockMode::Shared))
        }
    }

    /// Escalates a starving thread to impatient mode: bumps the counter and
    /// acquires the auxiliary lock for write. The previous permit is released
    /// first so the escalating thread cannot deadlock with itself.
    pub fn escalate<'a>(&'a self, previous: FairnessPermit<'a>) -> FairnessPermit<'a> {
        drop(previous);
        self.impatient.fetch_add(1, Ordering::AcqRel);
        let guard = RwSemGuard::new(&self.aux, LockMode::Exclusive);
        FairnessPermit::Impatient(ImpatientGuard { gate: self, guard })
    }
}

/// What a thread holds (if anything) while acquiring a range.
pub enum FairnessPermit<'a> {
    /// Fairness is disabled for this lock instance.
    Disabled,
    /// Counter was zero: proceed without the auxiliary lock.
    Normal,
    /// Counter was non-zero: shared hold of the auxiliary lock.
    Reader(RwSemGuard<'a>),
    /// This thread escalated: exclusive hold of the auxiliary lock.
    Impatient(ImpatientGuard<'a>),
}

impl FairnessPermit<'_> {
    /// Returns `true` if, after `attempts` failed insertion attempts with the
    /// given threshold, the caller should escalate to impatient mode.
    pub fn should_escalate(&self, attempts: u32, threshold: u32) -> bool {
        match self {
            FairnessPermit::Disabled | FairnessPermit::Impatient(_) => false,
            FairnessPermit::Normal | FairnessPermit::Reader(_) => attempts >= threshold,
        }
    }

    /// Returns `true` if this permit holds the auxiliary lock exclusively.
    pub fn is_impatient(&self) -> bool {
        matches!(self, FairnessPermit::Impatient(_))
    }
}

impl std::fmt::Debug for FairnessPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            FairnessPermit::Disabled => "Disabled",
            FairnessPermit::Normal => "Normal",
            FairnessPermit::Reader(_) => "Reader",
            FairnessPermit::Impatient(_) => "Impatient",
        };
        f.write_str(label)
    }
}

/// Exclusive hold of the auxiliary lock; decrements the impatient counter on
/// release, as prescribed by Section 4.3.
pub struct ImpatientGuard<'a> {
    gate: &'a FairnessGate,
    #[allow(dead_code)]
    guard: RwSemGuard<'a>,
}

impl Drop for ImpatientGuard<'_> {
    fn drop(&mut self) {
        self.gate.impatient.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn normal_path_when_counter_zero() {
        let gate = FairnessGate::new(WaitPolicyKind::SpinThenYield);
        let permit = gate.enter();
        assert!(matches!(permit, FairnessPermit::Normal));
        assert_eq!(gate.impatient_count(), 0);
    }

    #[test]
    fn escalation_bumps_and_releases_counter() {
        let gate = FairnessGate::new(WaitPolicyKind::SpinThenYield);
        let permit = gate.enter();
        let permit = gate.escalate(permit);
        assert!(permit.is_impatient());
        assert_eq!(gate.impatient_count(), 1);
        drop(permit);
        assert_eq!(gate.impatient_count(), 0);
    }

    #[test]
    fn readers_take_aux_lock_when_impatient_present() {
        let gate = Arc::new(FairnessGate::new(WaitPolicyKind::SpinThenYield));
        let permit = gate.enter();
        let impatient = gate.escalate(permit);
        assert_eq!(gate.impatient_count(), 1);
        // A new thread entering now must try to acquire the aux lock for
        // read, which blocks until the impatient thread releases it.
        let g2 = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            let permit = g2.enter();
            matches!(permit, FairnessPermit::Reader(_))
        });
        // Give the reader a moment to observe the non-zero counter, then
        // release the impatient permit so it can finish.
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(impatient);
        assert!(handle.join().unwrap());
    }

    #[test]
    fn should_escalate_thresholds() {
        let gate = FairnessGate::new(WaitPolicyKind::SpinThenYield);
        let permit = gate.enter();
        assert!(!permit.should_escalate(3, 16));
        assert!(permit.should_escalate(16, 16));
        let disabled: FairnessPermit<'_> = FairnessPermit::Disabled;
        assert!(!disabled.should_escalate(1000, 16));
        let imp = gate.escalate(permit);
        assert!(!imp.should_escalate(1000, 16));
    }

    #[test]
    fn escalation_works_under_the_block_policy() {
        let gate = FairnessGate::new(WaitPolicyKind::Block);
        let permit = gate.enter();
        let permit = gate.escalate(permit);
        assert!(permit.is_impatient());
        drop(permit);
        assert_eq!(gate.impatient_count(), 0);
    }
}
