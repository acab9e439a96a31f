//! The parent side: runs trials as fresh child processes, interleaved
//! across workloads, and folds them into a workload's reported values.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::calib::{CAL_REF, CAL_SLICE_NS, PERIOD_NS, TRIALS, WARMUP_PERIODS};
use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{cv, median, sorted};
use crate::sys;
use crate::trial::TrialOutput;

/// What to run.
pub struct Plan {
    pub workloads: Vec<String>,
    pub seed: u64,
    /// Measured seconds per workload, split evenly over its trials.
    pub seconds: f64,
    /// Also run traced trials and the ladder, for the per-layer metrics.
    pub traced: bool,
    /// Where a traced run leaves `trace-<workload>.json`.
    pub trace_dir: Option<PathBuf>,
}

/// One workload's trials.
pub struct WorkloadRun {
    pub name: String,
    pub untraced: Vec<TrialOutput>,
    pub traced: Vec<TrialOutput>,
}

/// Runs `bench <args>` to completion and parses the JSON line it prints.
fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning bench {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("bench {args:?} ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("bench {args:?} printed no result: {e}"))
}

fn trial(plan: &Plan, workload: &str, traced: bool, last: bool) -> Result<TrialOutput, String> {
    let measured = ((plan.seconds / f64::from(TRIALS) * 1e9 / PERIOD_NS as f64) as u32).max(1);
    let mut args = vec![
        "trial".to_string(),
        workload.to_string(),
        format!("--seed={}", plan.seed),
        format!("--warmup={WARMUP_PERIODS}"),
        format!("--measured={measured}"),
        format!("--traced={}", u8::from(traced)),
    ];
    if let (true, true, Some(dir)) = (traced, last, &plan.trace_dir) {
        let path = dir.join(format!("trace-{workload}.json"));
        args.push(format!("--trace-out={}", path.display()));
    }
    // Last, so the reading is as close to the exec as it can be.
    args.push(format!("--spawned-at={}", sys::now_ns()));
    TrialOutput::from_json(&child(&args)?)
}

/// The ladder rungs, measured once in a process of their own.
pub fn rungs(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let doc = child(&["rungs".to_string(), format!("--seed={seed}")])?;
    doc.as_obj()
        .ok_or("rungs printed no object")?
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_f64()
                    .ok_or_else(|| format!("rung {k} is not a number"))?,
            ))
        })
        .collect()
}

/// Runs the plan: every round runs each workload once, so slow drifts of
/// the host spread over all workloads instead of landing on one. An
/// untraced plan makes [`TRIALS`] rounds; a traced one alternates
/// untraced and traced rounds, half as many of each.
pub fn run(plan: &Plan) -> Result<Vec<WorkloadRun>, String> {
    let mut runs: Vec<WorkloadRun> = plan
        .workloads
        .iter()
        .map(|name| WorkloadRun {
            name: name.clone(),
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    let rounds = if plan.traced { TRIALS / 2 * 2 } else { TRIALS };
    for round in 0..rounds {
        let traced = plan.traced && round % 2 == 1;
        for run in &mut runs {
            let out = trial(plan, &run.name, traced, round + 1 == rounds)?;
            if traced {
                run.traced.push(out);
            } else {
                run.untraced.push(out);
            }
        }
    }
    Ok(runs)
}

impl WorkloadRun {
    pub fn attempted(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|t| t.summary.attempted)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|t| t.summary.failed)
            .sum()
    }

    /// The untraced trials' values of every end-to-end metric.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, Vec<f64>)> {
        END_TO_END
            .iter()
            .map(|m| (m, self.untraced.iter().map(m.read).collect()))
            .collect()
    }

    /// `(name, unit, value)` of every per-layer metric of a traced run; what
    /// this workload does not exercise reads 0.
    pub fn per_layer(
        &self,
        rungs: &[(String, f64)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let untraced = |read: fn(&TrialOutput) -> f64| -> Vec<f64> {
            self.untraced.iter().map(read).collect()
        };
        let med = |read| median(&untraced(read));
        let all = || self.untraced.iter().chain(&self.traced);
        let hash = |t: &TrialOutput| t.layer("harness.opstream_hash");
        if all().any(|t| hash(t) != all().next().and_then(hash)) {
            return Err(format!(
                "{}: trials of one seed drew different op streams",
                self.name
            ));
        }

        // What the traced trials read from spans and program stats, then
        // the rungs, then what the harness knows about its own run.
        let mut per_trial: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (k, v) in self.traced.iter().flat_map(|t| &t.layers) {
            per_trial.entry(k).or_default().push(*v);
        }
        let mut values: BTreeMap<String, f64> = per_trial
            .into_iter()
            .map(|(k, v)| (k.to_string(), median(&v)))
            .collect();
        values.extend(rungs.iter().cloned());
        let ops = med(|t| t.summary.ops_per_s);
        let traced_ops: Vec<f64> = self.traced.iter().map(|t| t.summary.ops_per_s).collect();
        let trial_cv = [
            cv(&untraced(|t| t.summary.ops_per_s)),
            cv(&untraced(|t| t.summary.op_p50_us)),
            cv(&untraced(|t| t.summary.cpu_us_per_op)),
        ];
        let harness = [
            ("harness.raw_ops_per_s", med(|t| t.summary.raw_ops_per_s)),
            ("harness.cal_rate_mps", med(|t| t.summary.cal_rate_mps)),
            ("harness.cal_cv", med(|t| t.summary.cal_cv)),
            ("harness.trial_cv", trial_cv.into_iter().fold(0.0, f64::max)),
            ("harness.op_p99_us", med(|t| t.summary.op_p99_us)),
            ("harness.op_p90_us", med(|t| t.summary.op_p90_us)),
            (
                "harness.trace_overhead_ratio",
                1.0 - median(&traced_ops) / ops,
            ),
            (
                "harness.spans_dropped",
                self.traced.iter().map(|t| t.spans_dropped as f64).sum(),
            ),
            (
                "harness.cpus_allowed",
                all().map(|t| t.cpus_allowed as f64).fold(0.0, f64::max),
            ),
            (
                "harness.load_threads",
                all().map(|t| t.threads as f64).fold(0.0, f64::max),
            ),
            (
                "harness.fail_ratio",
                self.failed() as f64 / self.attempted().max(1) as f64,
            ),
        ];
        values.extend(harness.map(|(k, v)| (k.to_string(), v)));

        // The ladder: what is left of the op once the rungs are taken out.
        let rung = |k: &str| values.get(k).copied().unwrap_or(0.0);
        let below = match self.name.as_str() {
            "srv-duplex" => Some(
                3.0 * rung("server.transport_rtt_ns")
                    + rung("server.wire_codec_ns")
                    + rung("file.table_op_ns")
                    + rung("file.store_io_ns"),
            ),
            "srv-tcp" => Some(
                3.0 * rung("server.tcp_rtt_ns")
                    + rung("server.wire_codec_ns_4k")
                    + rung("file.table_op_ns")
                    + rung("file.store_io_ns_4k"),
            ),
            _ => None,
        };
        if let Some(below) = below {
            let p50_ns = med(|t| t.summary.op_p50_us) * 1e3;
            values.insert("server.session_residual_ns".into(), p50_ns - below);
            values.insert(
                "server.session_residual_share".into(),
                (p50_ns - below) / p50_ns,
            );
        }
        Ok(PER_LAYER
            .iter()
            .map(|(name, unit, ..)| (*name, *unit, values.get(*name).copied().unwrap_or(0.0)))
            .collect())
    }
}

/// `{"median":…, "min":…, "max":…, "cv":…, "trials":[…]}` of one cell.
pub fn cell_json(unit: &str, trials: &[f64]) -> Json {
    let s = sorted(trials);
    Json::obj([
        ("unit", Json::Str(unit.to_string())),
        ("median", Json::Num(median(trials))),
        ("min", Json::Num(s.first().copied().unwrap_or(0.0))),
        ("max", Json::Num(s.last().copied().unwrap_or(0.0))),
        ("cv", Json::Num(cv(trials))),
        (
            "trials",
            Json::Arr(trials.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

/// Machine facts and frozen settings, recorded beside every result file.
pub fn machine_json() -> Json {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj([
        ("nproc", Json::Num(crate::workloads::nproc() as f64)),
        ("cpu_model", Json::Str(sys::cpu_model())),
        ("rustc", Json::Str(rustc)),
        ("cal_ref_per_s", Json::Num(CAL_REF)),
        ("trials", Json::Num(f64::from(TRIALS))),
        ("period_ms", Json::Num(PERIOD_NS as f64 / 1e6)),
        ("cal_slice_ms", Json::Num(CAL_SLICE_NS as f64 / 1e6)),
        ("warmup_periods", Json::Num(f64::from(WARMUP_PERIODS))),
    ])
}

/// The result file `all` and `trace` write and `compare` reads.
pub fn results_json(
    plan: &Plan,
    runs: &[WorkloadRun],
    rungs: &[(String, f64)],
) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for run in runs {
        let cells = run
            .end_to_end()
            .into_iter()
            .map(|(m, trials)| (m.name, cell_json(m.unit, &trials)));
        let mut members = vec![
            ("attempted", Json::Num(run.attempted() as f64)),
            ("failed", Json::Num(run.failed() as f64)),
            ("end_to_end", Json::obj(cells)),
        ];
        if plan.traced {
            let layers = run.per_layer(rungs)?;
            members.push((
                "per_layer",
                Json::obj(layers.into_iter().map(|(k, _, v)| (k, Json::Num(v)))),
            ));
        }
        workloads.push((run.name.clone(), Json::obj(members)));
    }
    Ok(Json::obj([
        ("schema", Json::Str("rl-benchmark/1".into())),
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds)),
        ("traced", Json::Bool(plan.traced)),
        ("machine", machine_json()),
        ("workloads", Json::Obj(workloads)),
    ]))
}
