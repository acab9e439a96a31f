//! `vm-metis`: the paper's headline experiment (Figure 5) as a workload.
//! An op is one whole Metis `wr` job, so this workload logs jobs instead of
//! clock periods: a calibrator slice on the main thread before and after
//! every job stands in for the period's calibrator slice.
//!
//! The job's `nproc` workers share one CPU, like the `srv-*` workloads and
//! for the same reason. Spread over both vCPUs of the reference box the
//! same job runs ~3× slower (≈15 instead of ≈43 jobs/s — the workers then
//! spend most of their time passing shared cache lines back and forth), and
//! how much slower depends on where the hypervisor put the vCPUs: trial
//! cv 7–15 % against 1.7 % on one CPU. No parallel speed-up can be claimed
//! on two vCPUs either way; what this workload holds still is the path
//! length of fault, `mprotect` and `mmap` under preemptive interleaving.

use std::sync::Arc;

use rl_metis::{run_on, MetisConfig, Workload};
use rl_vm::{Mm, Strategy, VmStats};

use crate::calib::{Calibrator, CAL_CHUNK, CAL_SLICE_NS, PERIOD_NS};
use crate::drive::{summarize, PeriodLog, ThreadLog, FAILED_NS};
use crate::span::{name_id, Tracer};
use crate::sys::{now_ns, process_cpu_ns};
use crate::trial::{Ctx, Loaded};
use crate::workloads::nproc;

/// One calibrator slice: `(iterations, ns)`.
fn cal_slice(calibrator: &mut Calibrator) -> (u64, u64) {
    let start = now_ns();
    let mut iters = 0;
    loop {
        calibrator.calib(CAL_CHUNK);
        iters += u64::from(CAL_CHUNK);
        let elapsed = now_ns() - start;
        if elapsed >= CAL_SLICE_NS {
            return (iters, elapsed);
        }
    }
}

pub fn jobs(ctx: &Ctx) -> Result<Loaded, String> {
    let threads = nproc(); // before the pin narrows it to 1
    ctx.pin()?;
    let config = MetisConfig {
        seed: ctx.spec.seed,
        ..MetisConfig::benchmark(Workload::Wr, threads)
    };
    let mut calibrator = Calibrator::default();
    let mut tracer = Tracer::new(0, if ctx.spec.traced { 1 << 12 } else { 0 });
    let run_span = name_id("metis.run");
    let mut jobs: Vec<PeriodLog> = Vec::new();
    let mut warmup_jobs = 0;
    let mut vm = VmStats::default();
    let (mut lock_acqs, mut lock_wait_ns) = (0u64, 0u64);
    let mut distinct = None;

    let sched = ctx.start();
    let warmup_end = sched.t0 + u64::from(sched.warmup) * PERIOD_NS;
    let end = warmup_end + u64::from(sched.measured) * PERIOD_NS;
    let mut before = cal_slice(&mut calibrator);
    loop {
        let started = now_ns();
        if started >= end && jobs.len() > warmup_jobs {
            break; // time is up and at least one job was measured
        }
        // A fresh address space per job, kept so its counters can be read.
        let mm = Arc::new(Mm::new(Strategy::LIST_REFINED));
        let cpu0 = process_cpu_ns();
        tracer.begin_op(jobs.len() as u64);
        let t0 = tracer.start();
        let report = run_on(&config, Arc::clone(&mm)).map_err(|e| format!("vm-metis: {e:?}"))?;
        let t1 = tracer.span(run_span, t0);
        tracer.end_op(t0, t1);
        let cpu_ns = process_cpu_ns() - cpu0;
        let after = cal_slice(&mut calibrator);

        // The corpus is seeded, so every job must find the same words.
        let same_words = *distinct.get_or_insert(report.distinct_words) == report.distinct_words;
        let ok = same_words
            && report.total_count == report.words_processed
            && report.words_processed == config.total_words / threads as u64 * threads as u64;
        let mut log = PeriodLog {
            cal_iters: before.0 + after.0,
            cal_ns: before.1 + after.1,
            ops: 1,
            load_ns: t1 - t0,
            failed: u64::from(!ok),
            cpu_ns,
            ..PeriodLog::default()
        };
        log.samples
            .push(if ok { t1 - t0 } else { u64::from(FAILED_NS) });
        if started < warmup_end || jobs.is_empty() {
            warmup_jobs += 1;
        } else {
            let s = mm.stats();
            vm.mprotects += s.mprotects;
            vm.page_faults += s.page_faults;
            vm.spec_success += s.spec_success;
            vm.spec_retries += s.spec_retries;
            vm.vmacache_hits += s.vmacache_hits;
            vm.vmacache_misses += s.vmacache_misses;
            let l = mm.lock_stats().snapshot();
            lock_acqs += l.acquisitions;
            lock_wait_ns += l.total_wait_ns();
        }
        jobs.push(log);
        before = after;
    }

    let measured = (jobs.len() - warmup_jobs).max(1) as f64;
    let jobs_per_s = summarize(std::slice::from_ref(&jobs), warmup_jobs).ops_per_s;
    Ok(Loaded {
        threads,
        logs: vec![ThreadLog {
            periods: jobs,
            tracer,
        }],
        warmup: warmup_jobs,
        integrity_failures: 0,
        layers: vec![
            ("vm.faults_per_job", vm.page_faults as f64 / measured),
            ("vm.mprotects_per_job", vm.mprotects as f64 / measured),
            ("vm.spec_success_ratio", vm.speculation_success_rate()),
            ("vm.spec_retries_per_job", vm.spec_retries as f64 / measured),
            ("vm.vmacache_hit_ratio", vm.vmacache_hit_rate()),
            (
                "vm.lock_wait_ns_per_acq",
                lock_wait_ns as f64 / lock_acqs.max(1) as f64,
            ),
            ("metis.words_per_s", config.total_words as f64 * jobs_per_s),
        ],
        opstream_hash: ctx.spec.seed & ((1 << 48) - 1),
    })
}
