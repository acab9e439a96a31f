//! A test-and-test-and-set spin lock.
//!
//! The paper's user-space port of the kernel range lock protects its range
//! tree with "a simple test-test-and-set lock" (Section 7.1). This module is
//! that lock: a single `AtomicBool` that waiters first read (test) until it is
//! free and only then attempt to CAS (test-and-set), with exponential backoff
//! between attempts. The same lock is reused as the per-node lock of the
//! optimistic skip list baseline.
//!
//! The lock can optionally record how long acquisitions waited via a
//! [`WaitStats`] handle, which is how Figure 8 (wait time on the spin lock
//! protecting the range tree) is produced.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::backoff::Backoff;
use crate::stats::{WaitKind, WaitStats};

/// A mutual-exclusion spin lock protecting a value of type `T`.
///
/// # Examples
///
/// ```
/// use rl_sync::SpinLock;
///
/// let lock = SpinLock::new(0u64);
/// {
///     let mut guard = lock.lock();
///     *guard += 1;
/// }
/// assert_eq!(*lock.lock(), 1);
/// ```
pub struct SpinLock<T: ?Sized> {
    locked: AtomicBool,
    stats: Option<Arc<WaitStats>>,
    data: UnsafeCell<T>,
}

// SAFETY: `SpinLock` provides mutual exclusion for `T`, so it is `Sync` as
// long as `T` can be sent across threads.
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}
// SAFETY: Same argument as for `Send`: access to `data` is serialized by the
// `locked` flag.
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Creates a new unlocked spin lock holding `value`.
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            stats: None,
            data: UnsafeCell::new(value),
        }
    }

    /// Creates a spin lock whose acquisitions report wait times to `stats`.
    pub fn with_stats(value: T, stats: Arc<WaitStats>) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            stats: Some(stats),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquires the lock, spinning until it becomes available.
    pub fn lock(&self) -> SpinLockGuard<'_, T> {
        if self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return SpinLockGuard { lock: self };
        }
        self.lock_slow()
    }

    #[cold]
    fn lock_slow(&self) -> SpinLockGuard<'_, T> {
        let started = self.stats.as_ref().map(|_| Instant::now());
        let backoff = Backoff::new();
        loop {
            // Test: wait until the lock looks free before issuing a CAS.
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                if let (Some(stats), Some(started)) = (&self.stats, started) {
                    stats.record_wait_ns(WaitKind::Write, started.elapsed().as_nanos() as u64);
                }
                return SpinLockGuard { lock: self };
            }
            backoff.spin();
        }
    }

    /// Attempts to acquire the lock without spinning.
    ///
    /// Returns `None` if the lock is currently held by another thread.
    pub fn try_lock(&self) -> Option<SpinLockGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns `true` if the lock is currently held by some thread.
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    /// Returns a mutable reference to the protected value.
    ///
    /// No locking is needed because the exclusive borrow guarantees there are
    /// no other references to the lock.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("SpinLock").field("data", &&*guard).finish(),
            None => f
                .debug_struct("SpinLock")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        SpinLock::new(T::default())
    }
}

/// RAII guard returned by [`SpinLock::lock`]; releases the lock on drop.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct SpinLockGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T: ?Sized> Deref for SpinLockGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The guard proves the lock is held, so no other thread can
        // create a mutable reference to the data.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: The guard proves the lock is held exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SpinLockGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for SpinLockGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_lock_unlock() {
        let lock = SpinLock::new(5);
        assert_eq!(*lock.lock(), 5);
        *lock.lock() = 7;
        assert_eq!(*lock.lock(), 7);
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = SpinLock::new(());
        let guard = lock.lock();
        assert!(lock.try_lock().is_none());
        assert!(lock.is_locked());
        drop(guard);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut lock = SpinLock::new(3);
        *lock.get_mut() += 1;
        assert_eq!(lock.into_inner(), 4);
    }

    #[test]
    fn counter_is_consistent_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 10_000;
        let lock = Arc::new(SpinLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    *lock.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), (THREADS * ITERS) as u64);
    }

    #[test]
    fn stats_record_contended_waits() {
        let stats = Arc::new(WaitStats::new("spin"));
        let lock = Arc::new(SpinLock::with_stats(0u64, Arc::clone(&stats)));
        // Force a contended acquisition deterministically (threads hammering
        // the lock may never overlap on a single-core machine): hold the lock
        // here while a contender blocks in the slow path, then release.
        let guard = lock.lock();
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let contender = {
            let lock = Arc::clone(&lock);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                started.store(true, Ordering::Release);
                *lock.lock() += 1;
            })
        };
        // Handshake: wait until the contender is about to call lock(), then
        // give it a moment to reach the spin loop before releasing.
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(guard);
        contender.join().unwrap();
        assert_eq!(*lock.lock(), 1);
        let snap = stats.snapshot();
        assert!(snap.write_waits > 0);
        assert!(snap.write_wait_ns > 0);
    }

    #[test]
    fn debug_formatting_does_not_deadlock() {
        let lock = SpinLock::new(42);
        let s = format!("{lock:?}");
        assert!(s.contains("42"));
        let guard = lock.lock();
        let s = format!("{lock:?}");
        assert!(s.contains("locked"));
        drop(guard);
    }

    #[test]
    fn default_constructs_default_value() {
        let lock: SpinLock<u32> = SpinLock::default();
        assert_eq!(*lock.lock(), 0);
    }
}
