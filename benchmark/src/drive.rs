//! The period loop every load thread runs, and the arithmetic that turns
//! its log into calibrated numbers.
//!
//! Time is cut by the wall clock into [`PERIOD_NS`] periods, each a
//! calibrator slice followed by a load slice. Threads align on the clock
//! alone — no barriers — so all of them calibrate, and all of them load, at
//! the same time. A period's calibrated rate is `ops/s × CAL_REF /
//! cal_rate`; a latency is scaled by `cal_rate / CAL_REF` of its period; a
//! trial's rate is the median over its measured periods, its latency
//! quantiles are exact over the pooled scaled samples.

use crate::calib::{Calibrator, CAL_CHUNK, CAL_REF, CAL_SLICE_NS, PERIOD_NS};
use crate::span::Tracer;
use crate::stats::{cv, median, quantile_sorted};
use crate::sys::{now_ns, process_cpu_ns};

/// Latency samples kept per period and thread; a busier period is thinned
/// by doubling the sampling stride, so harness memory (and with it
/// `peak_rss_mb`) does not depend on how fast the ops are.
const SAMPLE_CAP: usize = 8192;
/// Span buffer per thread; the per-workload trace sampling keeps a trial
/// well below it, and anything beyond is counted as dropped.
const SPAN_CAP: usize = 1 << 17;
/// Sample recorded for a failed op: it exceeds every latency.
pub const FAILED_NS: u32 = u32::MAX;

/// When the periods of a trial start and how many there are.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub t0: u64,
    pub warmup: u32,
    pub measured: u32,
}

/// Where a clock reading falls in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Cal(usize),
    Load(usize),
    Done,
}

impl Schedule {
    /// A schedule whose first period opens 2 ms from now, leaving the load
    /// threads time to start.
    pub fn starting_now(warmup: u32, measured: u32) -> Self {
        Schedule {
            t0: now_ns() + 2_000_000,
            warmup,
            measured,
        }
    }

    pub fn periods(&self) -> usize {
        (self.warmup + self.measured) as usize
    }

    #[inline]
    pub fn locate(&self, now: u64) -> Slot {
        let elapsed = now.saturating_sub(self.t0);
        let k = (elapsed / PERIOD_NS) as usize;
        if k >= self.periods() {
            Slot::Done
        } else if elapsed % PERIOD_NS < CAL_SLICE_NS {
            Slot::Cal(k)
        } else {
            Slot::Load(k)
        }
    }
}

/// Op latencies of one period in ns: every timed op until the buffer
/// fills, then every 2nd, 4th, … (the buffer is thinned to match).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u32>,
    /// log2 of the sampling stride.
    thinned: u32,
    timed: u32,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        if self.timed.is_multiple_of(1 << self.thinned) {
            self.values.push(u32::try_from(ns).unwrap_or(FAILED_NS));
            if self.values.len() >= SAMPLE_CAP {
                let mut keep = false;
                self.values.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.thinned += 1;
            }
        }
        self.timed += 1;
    }

    pub fn values(&self) -> &[u32] {
        &self.values
    }
}

/// What one thread observed in one period.
#[derive(Debug, Default, Clone)]
pub struct PeriodLog {
    pub cal_iters: u64,
    pub cal_ns: u64,
    pub ops: u64,
    pub load_ns: u64,
    pub failed: u64,
    /// Process CPU time over the load slice (thread 0 only).
    pub cpu_ns: u64,
    pub samples: Samples,
}

/// Everything one load thread brings back.
#[derive(Debug)]
pub struct ThreadLog {
    pub periods: Vec<PeriodLog>,
    pub tracer: Tracer,
}

/// How the loop times and traces ops; fixed per workload.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    /// Ops per timed op. A clock read costs as much as a `core-*` op, so
    /// those time one op in 16; everything else times every op.
    pub time_every: u32,
    /// Timed ops per traced op in a traced trial; 0 = untraced.
    pub trace_every: u32,
}

/// Runs the period loop on the calling thread until the schedule is done.
/// `op(n, tracer)` performs op number `n` and says whether it succeeded;
/// `cal(iters)` is the calibrator and `now_ns` the clock — both injectable,
/// so a test can slow calibrator and op alike on a clock of its own.
pub fn drive_with(
    sched: &Schedule,
    thread: usize,
    sampling: Sampling,
    now_ns: impl Fn() -> u64,
    mut cal: impl FnMut(u32),
    mut op: impl FnMut(u64, &mut Tracer) -> bool,
) -> ThreadLog {
    let mut periods: Vec<PeriodLog> = (0..sched.periods())
        .map(|_| PeriodLog {
            samples: Samples {
                values: Vec::with_capacity(SAMPLE_CAP),
                ..Samples::default()
            },
            ..PeriodLog::default()
        })
        .collect();
    let span_cap = if sampling.trace_every == 0 {
        0
    } else {
        SPAN_CAP
    };
    let mut tracer = Tracer::new(thread, span_cap);
    let mut n: u64 = 0;
    let mut timed: u64 = 0;
    // Thread 0 brackets each load slice with the process CPU clock.
    let mut in_load: Option<usize> = None;
    let mut cpu_start = 0;

    let mut now = now_ns();
    while now < sched.t0 {
        std::hint::spin_loop();
        now = now_ns();
    }
    loop {
        let slot = sched.locate(now);
        if thread == 0 {
            let cur = match slot {
                Slot::Load(k) => Some(k),
                _ => None,
            };
            if cur != in_load {
                let cpu = process_cpu_ns();
                if let Some(k) = in_load {
                    periods[k].cpu_ns = cpu - cpu_start;
                }
                cpu_start = cpu;
                in_load = cur;
                now = now_ns(); // the syscall is not load time
            }
        }
        match slot {
            Slot::Done => break,
            Slot::Cal(k) => {
                cal(CAL_CHUNK);
                let t = now_ns();
                periods[k].cal_iters += u64::from(CAL_CHUNK);
                periods[k].cal_ns += t - now;
                now = t;
            }
            Slot::Load(k) => {
                let p = &mut periods[k];
                for _ in 1..sampling.time_every {
                    p.failed += u64::from(!op(n, &mut tracer));
                    n += 1;
                }
                let t1 = if sampling.time_every > 1 {
                    now_ns()
                } else {
                    now
                };
                let traced = sampling.trace_every != 0
                    && k >= sched.warmup as usize
                    && timed.is_multiple_of(u64::from(sampling.trace_every));
                if traced {
                    tracer.begin_op(n);
                }
                let ok = op(n, &mut tracer);
                let t2 = now_ns();
                if traced {
                    tracer.end_op(t1, t2);
                }
                n += 1;
                timed += 1;
                p.ops += u64::from(sampling.time_every);
                p.load_ns += t2 - now;
                if ok {
                    p.samples.push(t2 - t1);
                } else {
                    p.failed += 1;
                    p.samples.push(u64::from(FAILED_NS));
                }
                now = t2;
            }
        }
    }
    ThreadLog { periods, tracer }
}

/// [`drive_with`] under the real calibrator.
pub fn drive(
    sched: &Schedule,
    thread: usize,
    sampling: Sampling,
    op: impl FnMut(u64, &mut Tracer) -> bool,
) -> ThreadLog {
    let mut calibrator = Calibrator::default();
    drive_with(sched, thread, sampling, now_ns, |n| calibrator.calib(n), op)
}

/// One trial's calibrated values (medians over its measured periods) and
/// the raw facts behind them.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_p90_us: f64,
    pub op_p99_us: f64,
    pub cpu_us_per_op: f64,
    /// Uncalibrated ops/s, for the raw-vs-calibrated evidence.
    pub raw_ops_per_s: f64,
    /// Calibrator rate in M iterations/s, median over periods.
    pub cal_rate_mps: f64,
    /// Spread of the calibrator rate across periods: how noisy the host was.
    pub cal_cv: f64,
    /// Median `cal_rate / CAL_REF`: scales this trial's other durations.
    pub cal_factor: f64,
    /// Ops attempted and failed over every period, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub periods: u32,
}

/// Folds the threads' period logs into a [`Summary`], discarding the first
/// `warmup` periods from every value but the attempted/failed counts.
/// Rates are medians over periods; latency quantiles are taken over the
/// pooled samples, each scaled by its own period's calibration factor.
pub fn summarize(threads: &[Vec<PeriodLog>], warmup: usize) -> Summary {
    let n_periods = threads.first().map_or(0, Vec::len);
    let mut out = Summary::default();
    let (mut rate, mut raw, mut cpu, mut cal, mut factor) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut latencies: Vec<f64> = Vec::new();
    for k in 0..n_periods {
        let logs: Vec<&PeriodLog> = threads.iter().map(|t| &t[k]).collect();
        let ops: u64 = logs.iter().map(|p| p.ops).sum();
        out.attempted += ops;
        out.failed += logs.iter().map(|p| p.failed).sum::<u64>();
        if k < warmup || ops == 0 || logs.iter().any(|p| p.cal_ns == 0) {
            continue;
        }
        // iterations per ns, averaged over threads
        let cal_rate = logs
            .iter()
            .map(|p| p.cal_iters as f64 / p.cal_ns as f64)
            .sum::<f64>()
            / logs.len() as f64;
        let f = cal_rate * 1e9 / CAL_REF;
        let raw_rate: f64 = logs
            .iter()
            .filter(|p| p.load_ns > 0)
            .map(|p| p.ops as f64 / p.load_ns as f64 * 1e9)
            .sum();
        cal.push(cal_rate * 1e3);
        factor.push(f);
        raw.push(raw_rate);
        rate.push(raw_rate / f);
        cpu.push(logs[0].cpu_ns as f64 / ops as f64 * f / 1e3);
        latencies.extend(
            logs.iter()
                .flat_map(|p| p.samples.values())
                .map(|&ns| f64::from(ns) * f / 1e3),
        );
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    out.periods = rate.len() as u32;
    out.ops_per_s = median(&rate);
    out.raw_ops_per_s = median(&raw);
    out.op_p50_us = quantile_sorted(&latencies, 0.5);
    out.op_p90_us = quantile_sorted(&latencies, 0.9);
    out.op_p99_us = quantile_sorted(&latencies, 0.99);
    out.cpu_us_per_op = median(&cpu);
    out.cal_rate_mps = median(&cal);
    out.cal_cv = cv(&cal);
    out.cal_factor = median(&factor);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn period(cal_iters: u64, ops: u64, cpu_ns: u64, lat: &[u64]) -> PeriodLog {
        let mut p = PeriodLog {
            cal_iters,
            cal_ns: 10_000_000,
            ops,
            load_ns: 40_000_000,
            cpu_ns,
            ..PeriodLog::default()
        };
        lat.iter().for_each(|ns| p.samples.push(*ns));
        p
    }

    #[test]
    fn summary_normalises_to_the_reference_speed() {
        // Two threads, one warm-up period, then a period at twice the
        // reference speed (800k iterations in 10 ms = 80 M/s) and one at
        // exactly the reference speed.
        let fast = |ops| period(800_000, ops, 64_000_000, &[100, 200, 300]);
        let reference = |ops| period(400_000, ops, 64_000_000, &[200, 400, 600]);
        let threads = [
            vec![period(1, 5, 0, &[]), fast(4000), reference(2000)],
            vec![period(1, 5, 0, &[]), fast(4000), reference(2000)],
        ];
        let s = summarize(&threads, 1);
        assert_eq!((s.attempted, s.failed, s.periods), (12_010, 0, 2));
        // Raw: 2 × 4000 / 40 ms = 200k/s and 100k/s; calibrated: both 100k/s.
        assert!((s.raw_ops_per_s - 150_000.0).abs() < 1e-6);
        assert!((s.ops_per_s - 100_000.0).abs() < 1e-6);
        // Latency 200 ns at 2× speed is 400 ns at reference speed.
        assert!((s.op_p50_us - 0.4).abs() < 1e-9);
        // CPU: 64 ms / 8000 ops × 2 = 64 ms / 4000 ops × 1 = 16 µs either way.
        assert!((s.cpu_us_per_op - 16.0).abs() < 1e-9);
        assert!((s.cal_rate_mps - 60.0).abs() < 1e-9);
        assert!((s.cal_factor - 1.5).abs() < 1e-9);
    }

    #[test]
    fn a_failed_op_exceeds_every_latency() {
        let mut p = period(400_000, 2, 0, &[100]);
        p.samples.push(u64::from(FAILED_NS));
        p.failed = 1;
        let s = summarize(&[vec![p]], 0);
        assert_eq!(s.failed, 1);
        assert!(s.op_p99_us > 4e6);
    }

    #[test]
    fn sample_buffer_thins_instead_of_growing() {
        let mut s = Samples::default();
        (0..100_000u64).for_each(|ns| s.push(ns));
        assert!(s.values().len() < SAMPLE_CAP);
        // What is left is an even sample of the whole period.
        let mid = s.values()[s.values().len() / 2];
        assert!((45_000..55_000).contains(&mid), "median sample {mid}");
    }

    /// The whole loop on a virtual clock: a calibrator chunk costs 25 µs and
    /// an op 7 µs, times `slowdown`, and reading the clock costs 25 ns.
    fn virtual_trial(slowdown: u64) -> Summary {
        let clock = std::cell::Cell::new(1_000_000_000u64);
        let spend = |ns: u64| clock.set(clock.get() + ns);
        let sched = Schedule {
            t0: clock.get() + 2_000_000,
            warmup: 1,
            measured: 8,
        };
        let sampling = Sampling {
            time_every: 1,
            trace_every: 0,
        };
        let log = drive_with(
            &sched,
            1, // not thread 0: the process CPU clock is not virtual
            sampling,
            || {
                spend(25);
                clock.get()
            },
            |_| spend(25_000 * slowdown),
            |_, _| {
                spend(7_000 * slowdown);
                true
            },
        );
        summarize(&[log.periods], 1)
    }

    #[test]
    fn calibration_cancels_a_uniform_slowdown() {
        let (plain, slow) = (virtual_trial(1), virtual_trial(3));
        assert!(slow.raw_ops_per_s < 0.4 * plain.raw_ops_per_s);
        for (name, a, b) in [
            ("ops_per_s", plain.ops_per_s, slow.ops_per_s),
            ("op_p50_us", plain.op_p50_us, slow.op_p50_us),
        ] {
            assert!(
                (b / a - 1.0).abs() < 0.02,
                "{name}: {a} plain, {b} slowed 3x"
            );
        }
        // 1024 iterations per 25 µs chunk is 40.96 M/s: just above CAL_REF,
        // so the plain run's calibrated rate sits just below its raw one.
        assert!((plain.ops_per_s / plain.raw_ops_per_s - 40.0 / 40.96).abs() < 0.01);
    }
}
