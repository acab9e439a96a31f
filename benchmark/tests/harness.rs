//! Harness self-tests that need a whole trial: a short traced smoke of
//! every workload, the shape of everything the harness emits, and the
//! refusal to report unpinned `srv-*` numbers. The arithmetic (quantiles,
//! self time, calibration, op streams, verdicts) is tested beside its code.

use std::path::PathBuf;

use rl_benchmark::json::Json;
use rl_benchmark::metrics::{END_TO_END, PER_LAYER};
use rl_benchmark::run::{results_json, Plan, WorkloadRun};
use rl_benchmark::trial::{run_trial, TrialOutput, TrialSpec};
use rl_benchmark::workloads::WORKLOADS;

fn spec(workload: &str, seed: u64, traced: bool) -> TrialSpec {
    TrialSpec {
        workload: workload.to_string(),
        seed,
        warmup: 1,
        measured: 4, // 0.2 s
        traced,
        spawned_at: None,
        pin_cpu: None,
        trace_out: traced.then(|| {
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}-{seed}.json"))
        }),
    }
}

/// Every non-root span must name a recorded root of the same op.
fn check_trace(path: &PathBuf) {
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let columns: Vec<&str> = doc
        .get("columns")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(
        columns,
        [
            "op_id",
            "span_id",
            "parent_id",
            "name",
            "start_ns",
            "dur_ns",
            "self_ns"
        ]
    );
    let names = doc.get("names").unwrap().as_arr().unwrap().len() as f64;
    let spans: Vec<Vec<f64>> = doc
        .get("spans")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.as_f64_vec().unwrap())
        .collect();
    assert!(!spans.is_empty(), "{path:?} holds no span");
    let roots: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s[2] == 0.0)
        .map(|s| (s[1] as u64, s[0] as u64))
        .collect();
    for s in &spans {
        assert!(s[3] < names && s[6] <= s[5], "bad span row {s:?}");
        if s[2] != 0.0 {
            assert_eq!(
                roots.get(&(s[2] as u64)),
                Some(&(s[0] as u64)),
                "orphan span {s:?}"
            );
        }
    }
}

#[test]
fn traced_smoke_of_every_workload_is_correct_and_drops_no_span() {
    for (name, _) in WORKLOADS {
        let s = spec(name, 7, true);
        let out = run_trial(&s).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.summary.failed, 0, "{name}: ops failed");
        assert!(
            out.summary.attempted > 0 && out.summary.ops_per_s > 0.0,
            "{name}: no ops"
        );
        assert_eq!(out.spans_dropped, 0, "{name}: spans dropped");
        assert!(out.setup_s > 0.0 && out.peak_rss_mb > 0.0);
        assert!(out.threads <= rl_benchmark::workloads::nproc());
        if name.starts_with("srv-") {
            assert_eq!(out.cpus_allowed, 1, "{name} must run on one CPU");
            assert_eq!(out.layer("server.protocol_errors"), Some(0.0));
        }
        check_trace(s.trace_out.as_ref().unwrap());
        // What went to the parent comes back the same.
        let back =
            TrialOutput::from_json(&Json::parse(&out.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.layers, out.layers);
        assert_eq!(back.summary.attempted, out.summary.attempted);
    }
}

#[test]
fn srv_workloads_refuse_to_report_without_their_pin() {
    for name in ["srv-duplex", "srv-handoff", "srv-tcp"] {
        let s = TrialSpec {
            pin_cpu: Some(1023), // no such CPU: sched_setaffinity fails
            ..spec(name, 7, false)
        };
        let err = run_trial(&s).expect_err("an unpinned srv trial produced numbers");
        assert!(err.contains("sched_setaffinity"), "{name}: {err}");
    }
}

#[test]
fn same_seed_same_inputs() {
    let hash = |seed| {
        run_trial(&spec("table-mix", seed, false))
            .unwrap()
            .layer("harness.opstream_hash")
    };
    assert_eq!(hash(7), hash(7));
    assert_ne!(hash(7), hash(8));
}

#[test]
fn result_file_carries_every_declared_metric() {
    let run = WorkloadRun {
        name: "srv-duplex".to_string(),
        untraced: vec![run_trial(&spec("srv-duplex", 9, false)).unwrap()],
        traced: vec![run_trial(&spec("srv-duplex", 9, true)).unwrap()],
    };
    let rungs = vec![("server.transport_rtt_ns".to_string(), 1000.0)];
    let plan = Plan {
        workloads: vec![run.name.clone()],
        seed: 9,
        seconds: 0.2,
        traced: true,
        trace_dir: None,
    };
    let doc = Json::parse(&results_json(&plan, &[run], &rungs).unwrap().pretty()).unwrap();
    let w = doc.get("workloads").unwrap().get("srv-duplex").unwrap();
    for m in &END_TO_END {
        let cell = w
            .get("end_to_end")
            .unwrap()
            .get(m.name)
            .unwrap_or_else(|| panic!("no {}", m.name));
        assert!(
            cell.get("median").unwrap().as_f64().unwrap() > 0.0,
            "{} is 0",
            m.name
        );
        assert_eq!(cell.get("unit").unwrap().as_str(), Some(m.unit));
    }
    for (name, ..) in &PER_LAYER {
        assert!(w.get("per_layer").unwrap().get(name).is_some(), "no {name}");
    }
    // The rung reached the ladder.
    let share = w
        .get("per_layer")
        .unwrap()
        .get("server.session_residual_share")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(share > 0.0 && share < 1.0, "residual share {share}");
}

/// `BENCHMARK.json` at the repo root declares exactly what the code emits.
#[test]
fn benchmark_json_matches_the_code() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS.map(|(n, _)| n));
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(names("per_layer"), PER_LAYER.map(|(n, ..)| n));
    for (m, decl) in END_TO_END
        .iter()
        .zip(doc.get("end_to_end").unwrap().as_arr().unwrap())
    {
        assert_eq!(decl.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(decl.get("bound").unwrap().as_f64(), Some(m.bound));
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(decl.get("better").unwrap().as_str(), Some(better));
    }
}
