//! `table-mix`: `rl-file` doing most of the work — no executor, no wire.

use std::sync::Arc;

use range_lock::Range;
use rl_baselines::registry::{self, RegistryConfig};
use rl_file::{LockMode, LockTable, RangeFile, PAGE_SIZE};
use rl_sync::wait::WaitPolicyKind;

use crate::drive::{drive, Sampling};
use crate::opstream::{self, Mix, STREAM_LEN};
use crate::span::name_id;
use crate::trial::{Ctx, Loaded};
use crate::workloads::{nproc, on_pinned_threads};

/// Each thread is a `LockOwner` doing `lock` (50 % shared / 50 % exclusive,
/// 1–4 slots, so neighbouring records of different owners abut and overlap)
/// → one 4 KiB stamped read or write → `unlock`. One range is held at a
/// time, so the `WaitGraph` checks run but never fire.
pub fn mix(ctx: &Ctx) -> Result<Loaded, String> {
    const MIX: Mix = Mix {
        slots: 64,
        max_span: 4,
        paths: 1,
        write_pct: 50,
    };
    const SLOT: u64 = PAGE_SIZE as u64;
    let threads = nproc();
    let spec = registry::by_name("list-rw").ok_or("list-rw is not registered")?;
    let config = RegistryConfig::default();
    let table = Arc::new(LockTable::new(
        spec.build_twophase(WaitPolicyKind::Block, &config),
    ));
    let file = RangeFile::new(spec.build(WaitPolicyKind::Block, &config));
    for slot in 0..u64::from(MIX.slots) {
        if !file.write_stamped(slot * SLOT, PAGE_SIZE, 1) {
            return Err("pre-populating the file tore a stamped write".into());
        }
    }
    let streams: Vec<_> = (0..threads)
        .map(|t| opstream::generate(ctx.spec.seed, t, MIX))
        .collect();
    let (lock_span, io_span, unlock_span) = (
        name_id("file.lock"),
        name_id("file.io"),
        name_id("file.unlock"),
    );
    let sampling = Sampling {
        time_every: 1,
        trace_every: ctx.trace_every(32),
    };

    let sched = ctx.start();
    let logs = on_pinned_threads(|t| {
        let ops = &streams[t];
        let mut owner = table.owner(format!("owner-{t}"));
        drive(&sched, t, sampling, |n, tr| {
            let op = ops[n as usize % STREAM_LEN];
            let start = u64::from(op.slot) * SLOT;
            let range = Range::new(start, start + u64::from(op.span) * SLOT);
            let mode = if op.write {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            let t0 = tr.start();
            if owner.lock(range, mode).is_err() {
                return false; // EDEADLK with one range held: a bug
            }
            let t1 = tr.span(lock_span, t0);
            let ok = if op.write {
                file.write_stamped(start, PAGE_SIZE, op.tag)
            } else {
                file.read_stamped(start, PAGE_SIZE).is_some()
            };
            let t2 = tr.span(io_span, t1);
            owner.unlock(range);
            tr.span(unlock_span, t2);
            ok
        })
    })?;

    let held = table.held_records();
    let deadlocks = table.deadlocks_detected();
    Ok(Loaded {
        threads,
        logs,
        warmup: ctx.spec.warmup as usize,
        integrity_failures: held as u64 + deadlocks,
        layers: vec![
            ("file.held_records_end", held as f64),
            ("file.deadlocks_detected", deadlocks as f64),
        ],
        opstream_hash: opstream::hash(&streams),
    })
}
