//! ObsBench — what does the `rl-obs` observability layer cost?
//!
//! The tracing hooks sit on the lock's uncontended fast path (Section 4.5's
//! one-CAS acquire), which is exactly where instrumentation overhead would
//! hurt: a contended acquisition already costs a list traversal, but the
//! fast path is ~70 ns of straight-line atomics. This benchmark times the
//! `repro -- uncontended` loop shape — single-thread `acquire`/`release` of
//! a fixed range on the exclusive list lock — under four recording regimes:
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

/// The fixed range every iteration acquires (the `uncontended` shape).
const RANGE: Range = Range { start: 10, end: 20 };

/// The four recording regimes, in measurement order.
pub const MODES: [&str; 4] = ["baseline", "disabled", "enabled-sampled", "enabled-full"];

/// Times `iters` calls of `op`, best of `reps` runs (the least-perturbed
/// run is the honest measurement on a shared machine), after a warm-up of
/// up to 10 000 calls that faults in whatever `op` touches.
pub fn ns_per_op(iters: u64, reps: u32, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters.min(10_000) {
        op();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(started.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Times `iters` uncontended acquire/release pairs on a fresh lock.
fn measure(iters: u64, reps: u32) -> f64 {
    let lock = ListRangeLock::new();
    ns_per_op(iters, reps, || drop(lock.write(RANGE)))
}

/// Runs all four regimes and returns each one's best-of-reps ns per
/// acquire+release, in [`MODES`] order. Leaves recording **disabled** (but
/// installed) so later experiments in the same process are unaffected.
pub fn run(iters: u64, reps: u32) -> [f64; 4] {
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
    [baseline, disabled, sampled, full]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_measure_and_stay_ordered() {
        for (ns_per_op, mode) in run(20_000, 2).into_iter().zip(MODES) {
            assert!(
                ns_per_op.is_finite() && ns_per_op > 0.0,
                "{mode}: {ns_per_op}"
            );
        }
        // Recording must end up switched off for the rest of the test
        // process.
        assert!(!trace::is_enabled());
    }
}
