//! ObsBench — what does the `rl-obs` observability layer cost?
//!
//! The tracing hooks sit on the lock's uncontended fast path (Section 4.5's
//! one-CAS acquire), which is exactly where instrumentation overhead would
//! hurt: a contended acquisition already costs a list traversal, but the
//! fast path is ~70 ns of straight-line atomics. This benchmark times the
//! `lock_overhead` loop shape — single-thread `acquire`/`release` of a fixed
//! range on the exclusive list lock — under four recording regimes:
//!
//! * **baseline** — no recorder has ever been installed in the process;
//!   every emission helper is the relaxed load of the master switch and a
//!   never-taken branch;
//! * **disabled** — a recorder is installed but recording is switched off
//!   ([`rl_obs::trace::set_enabled`]); the cost must be indistinguishable
//!   from baseline (same load-and-branch);
//! * **enabled-sampled** — recording on with the default 1-in-16 fast-path
//!   sampling ([`RecorderConfig::DEFAULT_SAMPLE_SHIFT`]); the shipping
//!   configuration, budgeted at < ~25% over baseline;
//! * **enabled-full** — recording on with `sample_shift = 0` (every
//!   fast-path grant/release recorded); the worst case, reported for
//!   honesty but not part of the overhead budget.
//!
//! **Order matters**: the baseline leg must run before the first
//! [`install`], because installation is process-global and permanent (the
//! recorder is leaked). Running `obsbench` twice in one process therefore
//! reports a baseline that already has a (disabled) recorder installed —
//! which is the point of the disabled leg being within noise.
//!
//! [`install`]: rl_obs::trace::install
//! [`RecorderConfig::DEFAULT_SAMPLE_SHIFT`]: rl_obs::RecorderConfig::DEFAULT_SAMPLE_SHIFT

use std::time::Instant;

use range_lock::{ListRangeLock, Range};
use rl_obs::{trace, Recorder, RecorderConfig};

/// The fixed range every iteration acquires (the `lock_overhead` shape).
const RANGE: Range = Range { start: 10, end: 20 };

/// The four recording regimes, in measurement order.
pub const MODES: [&str; 4] = ["baseline", "disabled", "enabled-sampled", "enabled-full"];

/// One mode's measurement.
#[derive(Debug, Clone, Copy)]
pub struct ObsBenchResult {
    /// Which regime (one of [`MODES`]).
    pub mode: &'static str,
    /// Best-of-reps single-thread acquire+release latency.
    pub ns_per_op: f64,
}

impl ObsBenchResult {
    /// Overhead of this mode relative to `baseline`, in percent.
    pub fn overhead_pct(&self, baseline: &ObsBenchResult) -> f64 {
        (self.ns_per_op / baseline.ns_per_op - 1.0) * 100.0
    }
}

/// Times `iters` uncontended acquire/release pairs, best of `reps` runs
/// (the least-perturbed run is the honest measurement on a shared machine).
fn measure(iters: u64, reps: u32) -> f64 {
    let lock = ListRangeLock::new();
    // Warm up: fault in the lock's head slot and the emission path.
    for _ in 0..iters.min(10_000) {
        drop(lock.write(RANGE));
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        for _ in 0..iters {
            drop(lock.write(RANGE));
        }
        let ns = started.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// Runs all four regimes and returns one result per [`MODES`] entry, in
/// order. Leaves recording **disabled** (but installed) so later
/// experiments in the same process are unaffected.
pub fn run(iters: u64, reps: u32) -> Vec<ObsBenchResult> {
    assert!(iters > 0);
    // Leg 1: before any install (or with whatever state an earlier run left:
    // installed-but-disabled, which the disabled leg shows is equivalent).
    trace::set_enabled(false);
    let baseline = measure(iters, reps);

    // Leg 2: recorder present, switch off.
    trace::install(Recorder::new(RecorderConfig::default()));
    trace::set_enabled(false);
    let disabled = measure(iters, reps);

    // Leg 3: recording on, default 1-in-16 fast-path sampling.
    trace::set_enabled(true);
    let sampled = measure(iters, reps);

    // Leg 4: record every fast-path event (a fresh recorder carries the
    // sampling knob; installing a replacement leaks the old one by design).
    trace::install(Recorder::new(RecorderConfig {
        sample_shift: 0,
        ..RecorderConfig::default()
    }));
    let full = measure(iters, reps);
    trace::set_enabled(false);

    vec![
        ObsBenchResult {
            mode: "baseline",
            ns_per_op: baseline,
        },
        ObsBenchResult {
            mode: "disabled",
            ns_per_op: disabled,
        },
        ObsBenchResult {
            mode: "enabled-sampled",
            ns_per_op: sampled,
        },
        ObsBenchResult {
            mode: "enabled-full",
            ns_per_op: full,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_measure_and_stay_ordered() {
        let results = run(20_000, 2);
        assert_eq!(results.len(), MODES.len());
        for (result, mode) in results.iter().zip(MODES) {
            assert_eq!(result.mode, mode);
            assert!(
                result.ns_per_op.is_finite() && result.ns_per_op > 0.0,
                "{mode}: {0}",
                result.ns_per_op
            );
        }
        // Recording must end up switched off for the rest of the test
        // process.
        assert!(!trace::is_enabled());
    }
}
