//! `bench`: the benchmark's command line. See `README.md` beside the
//! manifest for one command per task.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use rl_benchmark::json::Json;
use rl_benchmark::run::{self, Plan, WorkloadRun};
use rl_benchmark::stats::{cv, median, sorted};
use rl_benchmark::trial::{run_trial, TrialSpec};
use rl_benchmark::workloads::WORKLOADS;
use rl_benchmark::{compare, ladder};

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON result line
  bench all     [--seed n] [--seconds s] [--out file]               end-to-end metrics, all seven workloads
  bench run <workload> [--seed n] [--seconds s] [--out file]        end-to-end metrics, one workload
  bench trace   [--seed n] [--seconds s] [--out file] [--trace-dir dir]   per-layer metrics, ladder, span traces
  bench compare <baseline.json> <change.json>                       apply the bounds; exit 1 on a regression";

/// `--key value` / `--key=value` flags and the positional arguments.
fn parse(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let (mut positional, mut flags) = (Vec::new(), HashMap::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            None => positional.push(arg.clone()),
            Some(flag) => {
                let (key, value) = match flag.split_once('=') {
                    Some((k, v)) => (k, v.to_string()),
                    None => (
                        flag,
                        it.next().ok_or(format!("--{flag} needs a value"))?.clone(),
                    ),
                };
                flags.insert(key.to_string(), value);
            }
        }
    }
    Ok((positional, flags))
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
    }
}

fn known(workload: &str) -> Result<String, String> {
    WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(name, _)| name.to_string())
        .ok_or_else(|| format!("unknown workload {workload:?}"))
}

fn print_end_to_end(runs: &[WorkloadRun]) {
    eprintln!(
        "{:<12} {:<14} {:>8} {:>14} {:>14} {:>14} {:>7}",
        "workload", "metric", "unit", "median", "min", "max", "cv"
    );
    for run in runs {
        for (m, trials) in run.end_to_end() {
            let s = sorted(&trials);
            eprintln!(
                "{:<12} {:<14} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>7.4}",
                run.name,
                m.name,
                m.unit,
                median(&trials),
                s[0],
                s[s.len() - 1],
                cv(&trials)
            );
        }
        eprintln!(
            "{:<12} {:<14} {:>8} {:>14.6}   ({} failed of {} attempted)",
            run.name,
            "fail_ratio",
            "ratio",
            run.failed() as f64 / run.attempted().max(1) as f64,
            run.failed(),
            run.attempted()
        );
    }
}

fn print_per_layer(run: &WorkloadRun, layers: &[(&str, &str, f64)]) {
    for (name, unit, value) in layers {
        eprintln!("{:<12} {:<32} {:>8} {:>16.4}", run.name, name, unit, value);
    }
}

type Rungs = Vec<(String, f64)>;

/// Runs the plan (the ladder first, for a traced one) and prints the
/// tables to stderr.
fn execute(plan: &Plan) -> Result<(Vec<WorkloadRun>, Rungs), String> {
    let rungs = if plan.traced {
        run::rungs(plan.seed)?
    } else {
        Vec::new()
    };
    let runs = run::run(plan)?;
    print_end_to_end(&runs);
    if plan.traced {
        for run in &runs {
            print_per_layer(run, &run.per_layer(&rungs)?);
        }
    }
    Ok((runs, rungs))
}

/// The `all` / `run` / `trace` tasks: run, print, optionally save; fails
/// when any op failed.
fn task(plan: &Plan, out: Option<PathBuf>) -> Result<(), String> {
    let (runs, rungs) = execute(plan)?;
    if let Some(out) = out {
        let doc = run::results_json(plan, &runs, &rungs)?;
        std::fs::write(&out, doc.pretty()).map_err(|e| format!("writing {out:?}: {e}"))?;
    }
    match runs.iter().find(|r| r.failed() > 0) {
        Some(r) => Err(format!(
            "{}: {} of {} ops failed",
            r.name,
            r.failed(),
            r.attempted()
        )),
        None => Ok(()),
    }
}

/// The contract form: one workload, and one JSON object as the last line
/// of stdout — the end-to-end metrics untraced, the per-layer ones traced.
fn contract(flags: &HashMap<String, String>) -> Result<(), String> {
    let need = |key: &str| {
        flags
            .get(key)
            .ok_or(format!("--{key} is required\n{USAGE}"))
    };
    let plan = Plan {
        workloads: vec![known(need("workload")?)?],
        seed: need("seed")?
            .parse()
            .map_err(|_| "--seed: not a whole number")?,
        seconds: need("seconds")?
            .parse()
            .map_err(|_| "--seconds: not a number")?,
        traced: need("trace")? == "1",
        trace_dir: None,
    };
    let (runs, rungs) = execute(&plan)?;
    let run = &runs[0];
    let metrics: Vec<(&str, &str, f64)> = if plan.traced {
        run.per_layer(&rungs)?
    } else {
        run.end_to_end()
            .into_iter()
            .map(|(m, trials)| (m.name, m.unit, median(&trials)))
            .collect()
    };
    let metrics = metrics.into_iter().map(|(name, unit, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        )
    });
    let line = Json::obj([
        ("correct", Json::Bool(run.failed() == 0)),
        ("attempted", Json::Num(run.attempted() as f64)),
        ("failed", Json::Num(run.failed() as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    Ok(())
}

fn main_inner() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positional, flags) = parse(&args)?;
    let plan = |workloads: Vec<String>, traced: bool| -> Result<Plan, String> {
        Ok(Plan {
            workloads,
            seed: flag(&flags, "seed", 1)?,
            seconds: flag(&flags, "seconds", 10.0)?,
            traced,
            trace_dir: traced
                .then(|| PathBuf::from(flags.get("trace-dir").map_or("benchmark/out", |s| s))),
        })
    };
    let all = || WORKLOADS.iter().map(|(name, _)| name.to_string()).collect();
    let out = flags.get("out").map(PathBuf::from);
    match positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] if flags.contains_key("workload") => contract(&flags)?,
        ["all"] => task(&plan(all(), false)?, out)?,
        ["run", workload] => task(&plan(vec![known(workload)?], false)?, out)?,
        ["trace"] => task(&plan(all(), true)?, out)?,
        ["compare", base, change] => {
            let read = |path: &str| -> Result<Json, String> {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let (table, regressed) = compare::compare(&read(base)?, &read(change)?)?;
            print!("{table}");
            if regressed {
                return Ok(ExitCode::FAILURE);
            }
        }
        // The two internal forms `run` re-executes itself as.
        ["trial", workload] => {
            let spec = TrialSpec {
                workload: known(workload)?,
                seed: flag(&flags, "seed", 1)?,
                warmup: flag(&flags, "warmup", 5)?,
                measured: flag(&flags, "measured", 28)?,
                traced: flag(&flags, "traced", 0u8)? == 1,
                spawned_at: flags.get("spawned-at").and_then(|v| v.parse().ok()),
                pin_cpu: None,
                trace_out: flags.get("trace-out").map(PathBuf::from),
            };
            println!("{}", run_trial(&spec)?.to_json());
        }
        ["rungs"] => {
            let rungs = ladder::rungs(flag(&flags, "seed", 1)?)?;
            println!(
                "{}",
                Json::obj(rungs.into_iter().map(|(k, v)| (k, Json::Num(v))))
            );
        }
        _ => return Err(USAGE.to_string()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::FAILURE
    })
}
