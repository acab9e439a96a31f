//! The one way a worker-loop cell is measured.
//!
//! [`run`] spawns the cell's workers, lets each build its loop body with
//! the cell's per-worker setup, and times the cell by one clock rule: the
//! clock starts once every worker has finished its setup, before the start
//! barrier releases them, and stops at the last worker's last operation.
//! Spawning, setup and joining never land inside a cell, and no operation
//! runs before the clock starts. A cell stops at a deadline ([`Stop::After`])
//! or once every worker has completed its quota ([`Stop::Quota`]); either
//! way each worker runs at least one iteration.
//!
//! A body returns whether its iteration completed an operation, and may
//! record latencies (ns) into the one histogram the cell returns. A cell
//! that completes no operation panics and names itself; so does one whose
//! worker panicked, with that worker's message, after halting the others.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use rl_obs::{HistogramSnapshot, LatencyHistogram};

/// When a cell's workers stop.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Fixed time: every worker stops this long after the clock starts.
    After(Duration),
    /// Fixed work: each worker stops after completing this many operations.
    Quota(u64),
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Run {
    /// Operations completed across all workers.
    pub ops: u64,
    /// Time from the clock's start to the last completed operation.
    pub elapsed: Duration,
    /// The latencies the cell recorded, in nanoseconds.
    pub hist: HistogramSnapshot,
}

impl Run {
    /// Operations per second.
    pub fn per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Median recorded latency in microseconds (0 if nothing was recorded).
    pub fn p50_us(&self) -> f64 {
        self.hist.p50().unwrap_or(0) as f64 / 1e3
    }

    /// 99th-percentile recorded latency in microseconds (0 if nothing was
    /// recorded).
    pub fn p99_us(&self) -> f64 {
        self.hist.p99().unwrap_or(0) as f64 / 1e3
    }
}

/// Measures the cell `name`: `workers` threads, worker `i` looping on the
/// body `setup(i)` returns until `stop`.
pub fn run<B>(name: &str, workers: usize, stop: Stop, setup: impl Fn(usize) -> B + Sync) -> Run
where
    B: FnMut(&LatencyHistogram) -> bool,
{
    assert!(workers > 0, "{name}: a cell needs a worker");
    let quota = match stop {
        Stop::After(_) => u64::MAX,
        Stop::Quota(quota) => quota,
    };
    let (hist, halt) = (&LatencyHistogram::new(), &AtomicBool::new(false));
    // Workers and this thread meet twice: once setup is done, and once the
    // clock has started.
    let gate = &Barrier::new(workers + 1);
    let worker = |i| {
        // A panic is caught so that its worker still passes the gate and
        // halts the others: the cell ends instead of hanging.
        let body = panic::catch_unwind(AssertUnwindSafe(|| setup(i)));
        gate.wait();
        gate.wait();
        let outcome = body.and_then(|mut body| {
            panic::catch_unwind(AssertUnwindSafe(move || {
                // At least one iteration each: a worker the scheduler kept
                // off the CPU past the deadline still does its share, and
                // `elapsed` covers it.
                let mut ops = 0;
                loop {
                    ops += u64::from(body(hist));
                    if ops >= quota || halt.load(Ordering::Relaxed) {
                        return (ops, Instant::now());
                    }
                }
            }))
        });
        if outcome.is_err() {
            halt.store(true, Ordering::Relaxed);
        }
        outcome
    };
    let (start, outcomes) = thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|i| s.spawn(move || worker(i))).collect();
        gate.wait();
        let start = Instant::now();
        gate.wait();
        if let Stop::After(duration) = stop {
            thread::sleep(duration);
            halt.store(true, Ordering::Relaxed);
        }
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("panics are caught"));
        (start, joined.collect::<Vec<_>>())
    });
    let (mut ops, mut end) = (0, start);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok((done, at)) => (ops, end) = (ops + done, end.max(at)),
            Err(payload) => panic!("{name}: worker {i} panicked: {}", message(&*payload)),
        }
    }
    assert!(ops > 0, "{name}: made no progress");
    let elapsed = end.duration_since(start);
    Run {
        ops,
        elapsed,
        hist: hist.snapshot(),
    }
}

/// A panic payload's message.
fn message(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("a non-string panic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Runs `f` on a thread of its own and returns its outcome, or fails
    /// the test (leaving that thread behind) if `f` is still running after
    /// 10 s.
    fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(f));
            tx.send(outcome.map_err(|p| message(&*p).to_string())).ok();
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the runner hung");
        handle.join().expect("the outcome was sent");
        outcome
    }

    #[test]
    fn a_fixed_work_cell_counts_every_quota_op_and_every_sample() {
        let cell = || {
            // Every other iteration completes no operation and records
            // nothing.
            run("quota", 3, Stop::Quota(50), |i| {
                let mut done = false;
                move |hist: &LatencyHistogram| {
                    done = !done;
                    if done {
                        hist.record(i as u64 + 1);
                    }
                    done
                }
            })
        };
        let run = bounded(cell).unwrap();
        assert_eq!(run.ops, 150);
        assert_eq!(run.hist.count(), 150);
        assert!(run.p50_us() <= run.p99_us() && run.per_sec() > 0.0);
    }

    #[test]
    fn a_fixed_time_cell_stops_after_its_duration() {
        let duration = Duration::from_millis(30);
        let run = bounded(move || run("deadline", 2, Stop::After(duration), |_| |_: &_| true));
        let run = run.unwrap();
        assert!(run.elapsed >= duration, "{:?}", run.elapsed);
        assert!(run.ops > 0 && run.hist.count() == 0);
    }

    #[test]
    fn a_panicking_worker_fails_the_cell_with_its_message() {
        // Worker 0 would never stop on its own: the panic must halt it.
        let in_body = bounded(|| {
            run("body cell", 2, Stop::Quota(u64::MAX), |i| {
                let mut n = 0;
                move |_: &_| {
                    n += 1;
                    assert!(i == 0 || n < 3, "worker one gave up");
                    true
                }
            })
        });
        let message = in_body.unwrap_err();
        assert!(message.contains("body cell"), "{message}");
        assert!(message.contains("worker 1 panicked: worker one gave up"));
        let in_setup = bounded(|| {
            run("setup cell", 2, Stop::Quota(u64::MAX), |i| {
                assert!(i == 0, "no setup for worker one");
                |_: &_| true
            })
        });
        let message = in_setup.unwrap_err();
        assert!(message.contains("setup cell: worker 1 panicked: no setup for worker one"));
    }

    #[test]
    fn a_cell_with_no_op_panics_with_its_name() {
        let idle = Stop::After(Duration::from_millis(10));
        let message = bounded(move || run("idle cell", 2, idle, |_| |_: &_| false));
        assert_eq!(message.unwrap_err(), "idle cell: made no progress");
    }
}
