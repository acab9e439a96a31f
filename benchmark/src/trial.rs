//! One trial: set a workload up, warm it, measure it, check it — in a
//! process of its own when run through `bench`, because per-process layout
//! and phase effects are the noise that run length does not average out.

use std::path::PathBuf;

use crate::drive::{summarize, Schedule, Summary, ThreadLog};
use crate::json::Json;
use crate::span::{self, SpanRec};
use crate::stats::median;
use crate::sys;
use crate::workloads;

/// What to run.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    pub workload: String,
    pub seed: u64,
    pub warmup: u32,
    pub measured: u32,
    /// Record spans and build locks with `WaitStats` attached.
    pub traced: bool,
    /// `CLOCK_MONOTONIC` reading the parent took just before spawning this
    /// process; set-up time counts from there. `None`: from trial start.
    pub spawned_at: Option<u64>,
    /// CPU the `srv-*` workloads confine themselves to; `None` picks the
    /// last allowed one. They refuse to report if pinning fails.
    pub pin_cpu: Option<usize>,
    /// Where to write the span trace of a traced trial.
    pub trace_out: Option<PathBuf>,
}

/// What a workload hands its set-up code and load threads.
pub struct Ctx<'a> {
    pub spec: &'a TrialSpec,
    setup_done: std::cell::Cell<u64>,
}

impl Ctx<'_> {
    /// Marks set-up finished — the next thing the workload does is its
    /// first warm-up op — and returns the period schedule.
    pub fn start(&self) -> Schedule {
        self.setup_done.set(sys::now_ns());
        Schedule::starting_now(self.spec.warmup, self.spec.measured)
    }

    /// Trace sampling for this trial: one timed op in `every`, or none.
    pub fn trace_every(&self, every: u32) -> u32 {
        if self.spec.traced {
            every
        } else {
            0
        }
    }

    /// Confines the process to one CPU (see [`TrialSpec::pin_cpu`]).
    pub fn pin(&self) -> Result<(), String> {
        sys::pin_to_one_cpu(self.spec.pin_cpu)
    }
}

/// What a workload brings back.
pub struct Loaded {
    /// Load threads in use; at most `nproc`.
    pub threads: usize,
    pub logs: Vec<ThreadLog>,
    /// Periods to discard as warm-up (`vm-metis` logs jobs, not periods).
    pub warmup: usize,
    /// Integrity checks that missed after the load (server counters,
    /// leftover records, …); each counts as one failed op.
    pub integrity_failures: u64,
    /// Per-layer counters and ratios read from the program's own stats.
    pub layers: Vec<(&'static str, f64)>,
    pub opstream_hash: u64,
}

/// A finished trial.
#[derive(Debug, Clone)]
pub struct TrialOutput {
    pub summary: Summary,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub threads: usize,
    pub cpus_allowed: usize,
    pub spans_dropped: u64,
    pub layers: Vec<(String, f64)>,
}

/// Runs one trial on the calling thread (plus the workload's load threads).
pub fn run_trial(spec: &TrialSpec) -> Result<TrialOutput, String> {
    let started = sys::now_ns();
    let ctx = Ctx {
        spec,
        setup_done: std::cell::Cell::new(0),
    };
    let loaded = workloads::run(&ctx)?;
    let cpus_allowed = sys::cpus_allowed()?.len();
    let peak_rss_mb = sys::peak_rss_mb()?;

    let (periods, tracers): (Vec<_>, Vec<_>) = loaded
        .logs
        .into_iter()
        .map(|l| (l.periods, l.tracer))
        .unzip();
    let mut summary = summarize(&periods, loaded.warmup);
    summary.failed += loaded.integrity_failures;
    // Set-up is CPU-bound like everything else, so it is normalised by the
    // same factor as the trial's other durations.
    let setup_ns = ctx.setup_done.get() - spec.spawned_at.unwrap_or(started);
    let setup_s = setup_ns as f64 / 1e9 * summary.cal_factor;

    let spans_dropped = tracers.iter().map(|t| t.dropped()).sum();
    let spans: Vec<SpanRec> = tracers.into_iter().flat_map(|t| t.into_spans()).collect();
    let mut layers: Vec<(String, f64)> = span_medians(&spans, summary.cal_factor);
    layers.extend(loaded.layers.iter().map(|(k, v)| (k.to_string(), *v)));
    layers.push(("harness.opstream_hash".into(), loaded.opstream_hash as f64));
    if let Some(path) = &spec.trace_out {
        let doc = span::trace_json(&spec.workload, spec.seed, spans_dropped, &spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
        std::fs::write(path, doc.to_string()).map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    Ok(TrialOutput {
        summary,
        setup_s,
        peak_rss_mb,
        threads: loaded.threads,
        cpus_allowed,
        spans_dropped,
        layers,
    })
}

/// Calibrated median duration per span name: `<name>_ns`, except the one
/// span long enough to read in milliseconds.
fn span_medians(spans: &[SpanRec], cal_factor: f64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (id, name) in span::NAMES.iter().enumerate().skip(1) {
        let durs: Vec<f64> = spans
            .iter()
            .filter(|s| usize::from(s.name) == id)
            .map(|s| s.dur_ns as f64)
            .collect();
        if durs.is_empty() {
            continue;
        }
        let ns = median(&durs) * cal_factor;
        if *name == "metis.run" {
            out.push(("metis.run_ms".to_string(), ns / 1e6));
        } else {
            out.push((format!("{name}_ns"), ns));
        }
    }
    out
}

impl TrialOutput {
    /// The per-layer value `name`, if this trial produced it.
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The line a trial process prints for its parent.
    pub fn to_json(&self) -> Json {
        let s = &self.summary;
        let num = Json::Num;
        Json::obj([
            ("ops_per_s", num(s.ops_per_s)),
            ("op_p50_us", num(s.op_p50_us)),
            ("op_p90_us", num(s.op_p90_us)),
            ("op_p99_us", num(s.op_p99_us)),
            ("cpu_us_per_op", num(s.cpu_us_per_op)),
            ("raw_ops_per_s", num(s.raw_ops_per_s)),
            ("cal_rate_mps", num(s.cal_rate_mps)),
            ("cal_cv", num(s.cal_cv)),
            ("cal_factor", num(s.cal_factor)),
            ("attempted", num(s.attempted as f64)),
            ("failed", num(s.failed as f64)),
            ("periods", num(f64::from(s.periods))),
            ("setup_s", num(self.setup_s)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
            ("threads", num(self.threads as f64)),
            ("cpus_allowed", num(self.cpus_allowed as f64)),
            ("spans_dropped", num(self.spans_dropped as f64)),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(k, v)| (k.clone(), num(*v)))),
            ),
        ])
    }

    /// Reads back what [`TrialOutput::to_json`] wrote.
    pub fn from_json(doc: &Json) -> Result<TrialOutput, String> {
        let f = |key: &str| -> Result<f64, String> {
            doc.need(key)?
                .as_f64()
                .ok_or_else(|| format!("{key} is not a number"))
        };
        let layers = doc
            .need("layers")?
            .as_obj()
            .ok_or("layers is not an object")?
            .iter()
            .map(|(k, v)| {
                Ok((
                    k.clone(),
                    v.as_f64().ok_or_else(|| format!("{k} is not a number"))?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(TrialOutput {
            summary: Summary {
                ops_per_s: f("ops_per_s")?,
                op_p50_us: f("op_p50_us")?,
                op_p90_us: f("op_p90_us")?,
                op_p99_us: f("op_p99_us")?,
                cpu_us_per_op: f("cpu_us_per_op")?,
                raw_ops_per_s: f("raw_ops_per_s")?,
                cal_rate_mps: f("cal_rate_mps")?,
                cal_cv: f("cal_cv")?,
                cal_factor: f("cal_factor")?,
                attempted: f("attempted")? as u64,
                failed: f("failed")? as u64,
                periods: f("periods")? as u32,
            },
            setup_s: f("setup_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            threads: f("threads")? as usize,
            cpus_allowed: f("cpus_allowed")? as usize,
            spans_dropped: f("spans_dropped")? as u64,
            layers,
        })
    }
}
