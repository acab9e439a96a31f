//! The calibrator kernel and the frozen measurement constants.
//!
//! The reference box is a 2-vCPU shared VM whose CPU speed swings ~25 % on a
//! seconds-to-minutes timescale (see README, "Noise evidence"). Every 50 ms
//! period therefore opens with a 10 ms slice of this fixed kernel; the load
//! that follows is reported relative to the kernel's rate in the same
//! period, normalised to [`CAL_REF`]. The kernel mixes what the stack's hot
//! paths are made of — register arithmetic, loads, CAS and fetch-add on
//! cache-resident cells, a `SeqCst` fence, a small allocation — so that
//! whatever slows the program slows the calibrator by the same factor.
//!
//! FROZEN: `calib()`, `CAL_REF`, the slice lengths and the trial count
//! define the unit every committed number is in. Changing any of them is a
//! re-baseline in a PR of its own, never inside a PR that claims a gain.

use std::hint::black_box;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Calibrator iterations per second that count as reference speed.
pub const CAL_REF: f64 = 40e6;
/// One measurement period: a calibrator slice, then a load slice.
pub const PERIOD_NS: u64 = 50_000_000;
/// Calibrator share of each period.
pub const CAL_SLICE_NS: u64 = 10_000_000;
/// Calibrator iterations between clock reads (~25 µs).
pub const CAL_CHUNK: u32 = 1024;
/// Fresh-process trials per workload; a workload's value is their median.
pub const TRIALS: u32 = 7;
/// Warm-up periods run (and discarded) before the measured ones.
pub const WARMUP_PERIODS: u32 = 5;

/// State of the calibrator kernel; one per load thread, so its cells stay
/// in that thread's cache.
pub struct Calibrator {
    x: u64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            x: 0x9E37_79B9_7F4A_7C15,
            a: AtomicU64::new(1),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
        }
    }
}

impl Calibrator {
    /// Runs `iters` iterations of the kernel.
    #[inline(never)]
    pub fn calib(&mut self, iters: u32) {
        let mut x = self.x;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = self.a.load(Ordering::Acquire);
            let seen = self.b.load(Ordering::Relaxed);
            let _ = self.b.compare_exchange(
                seen,
                seen.wrapping_add(a),
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            self.c.fetch_add(x & 1, Ordering::AcqRel);
            fence(Ordering::SeqCst);
            drop(black_box(Box::new(x)));
        }
        self.x = black_box(x);
    }
}
