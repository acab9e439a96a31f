//! `core-solo` and `core-crowd`: the range lock itself, without and with
//! company.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use range_lock::{DynRwRangeLock, Range, RwListRangeLock};
use rl_baselines::registry::{self, RegistryConfig};
use rl_sync::stats::WaitStats;
use rl_sync::wait::{Block, WaitPolicyKind};

use crate::drive::{drive, Sampling};
use crate::opstream::{self, Mix, Op, STREAM_LEN};
use crate::span::{name_id, Tracer};
use crate::trial::{Ctx, Loaded};
use crate::workloads::{nproc, on_pinned_threads};

const SLOT_BYTES: u64 = 4096;
const WRITER: u32 = 1 << 31;

/// Shadow ownership of each slot, updated inside the critical sections: a
/// reader count and a writer flag the lock must keep consistent.
struct Shadow(Vec<ShadowCell>);

#[repr(align(64))]
struct ShadowCell(AtomicU32);

impl Shadow {
    fn new(slots: usize) -> Self {
        Shadow((0..slots).map(|_| ShadowCell(AtomicU32::new(0))).collect())
    }

    /// Runs `body` as a reader of `slot`; false if a writer was inside.
    #[inline]
    fn read(&self, slot: usize, body: impl FnOnce()) -> bool {
        let cell = &self.0[slot].0;
        let ok = cell.fetch_add(1, Ordering::Relaxed) & WRITER == 0;
        body();
        cell.fetch_sub(1, Ordering::Relaxed);
        ok
    }

    /// Runs `body` as the writer of `slot`; false if anyone was inside, or
    /// came in meanwhile.
    #[inline]
    fn write(&self, slot: usize, body: impl FnOnce()) -> bool {
        let cell = &self.0[slot].0;
        let alone = cell.swap(WRITER, Ordering::Relaxed) == 0;
        body();
        alone && cell.swap(0, Ordering::Relaxed) == WRITER
    }
}

fn slot_range(base: u64, slot: u16) -> Range {
    let start = base + u64::from(slot) * SLOT_BYTES;
    Range::new(start, start + SLOT_BYTES)
}

fn sync_layers(stats: &WaitStats) -> Vec<(&'static str, f64)> {
    let s = stats.snapshot();
    let acq = s.acquisitions.max(1) as f64;
    vec![
        (
            "sync.wait_ratio",
            (s.read_waits + s.write_waits) as f64 / acq,
        ),
        ("sync.wait_ns_per_acq", s.total_wait_ns() as f64 / acq),
        ("sync.parks_per_kop", s.parks as f64 / acq * 1e3),
        ("sync.wakes_per_kop", s.wakes as f64 / acq * 1e3),
        (
            "sync.spurious_per_kop",
            s.spurious_wakeups as f64 / acq * 1e3,
        ),
    ]
}

/// One op of either `core-*` workload: acquire through `read` or `write`,
/// run `body` inside the critical section under the shadow check, drop the
/// guard — with spans around the acquisition and the release.
#[inline(always)]
fn locked_op<G>(
    op: Op,
    tr: &mut Tracer,
    shadow: &Shadow,
    read: impl FnOnce() -> G,
    write: impl FnOnce() -> G,
    body: fn(),
) -> bool {
    const READ_ACQ: u16 = name_id("core.read_acq");
    const WRITE_ACQ: u16 = name_id("core.write_acq");
    const RELEASE: u16 = name_id("core.release");
    let slot = usize::from(op.slot);
    let t0 = tr.start();
    let (guard, ok) = if op.write {
        let guard = write();
        tr.span(WRITE_ACQ, t0);
        (guard, shadow.write(slot, body))
    } else {
        let guard = read();
        tr.span(READ_ACQ, t0);
        (guard, shadow.read(slot, body))
    };
    let t1 = tr.start();
    drop(guard);
    tr.span(RELEASE, t1);
    ok
}

/// `core-solo`'s stream; the `core.static_op_ns` rung replays it.
pub const SOLO_MIX: Mix = Mix {
    slots: 64,
    max_span: 1,
    paths: 1,
    write_pct: 20,
};

/// 80 % read / 20 % write + guard drop over 64 slots of an otherwise empty
/// list, statically dispatched.
pub fn solo(ctx: &Ctx) -> Result<Loaded, String> {
    let stats = Arc::new(WaitStats::new("core-solo"));
    let mut lock = RwListRangeLock::<Block>::with_policy();
    if ctx.spec.traced {
        lock = lock.with_stats(Arc::clone(&stats));
    }
    let shadow = Shadow::new(usize::from(SOLO_MIX.slots));
    let ops = opstream::generate(ctx.spec.seed, 0, SOLO_MIX);
    let sampling = Sampling {
        time_every: 16,
        trace_every: ctx.trace_every(128),
    };

    let sched = ctx.start();
    let log = drive(&sched, 0, sampling, |n, tr| {
        let op = ops[n as usize % STREAM_LEN];
        let range = slot_range(0, op.slot);
        locked_op(
            op,
            tr,
            &shadow,
            || lock.read(range),
            || lock.write(range),
            || {},
        )
    });

    let quiescent = lock.is_quiescent();
    Ok(Loaded {
        threads: 1,
        logs: vec![log],
        warmup: ctx.spec.warmup as usize,
        integrity_failures: u64::from(!quiescent),
        layers: if ctx.spec.traced {
            sync_layers(&stats)
        } else {
            Vec::new()
        },
        opstream_hash: opstream::hash(&[ops]),
    })
}

/// ~100 ns of register work at reference speed: the critical section.
#[inline]
fn critical_section() {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..96 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
}

/// `nproc` threads, 50/50 read/write on 16 hot slots behind 64 long-lived
/// resident read ranges, through the registry's `dyn` lock.
pub fn crowd(ctx: &Ctx) -> Result<Loaded, String> {
    const MIX: Mix = Mix {
        slots: 16,
        max_span: 1,
        paths: 1,
        write_pct: 50,
    };
    const RESIDENTS: u16 = 64;
    let threads = nproc();
    let spec = registry::by_name("list-rw").ok_or("list-rw is not registered")?;
    let stats = Arc::new(WaitStats::new("core-crowd"));
    let config = RegistryConfig::default();
    let lock: Box<dyn DynRwRangeLock> = if ctx.spec.traced {
        spec.build_with_stats(WaitPolicyKind::Block, &config, Arc::clone(&stats), None)
    } else {
        spec.build(WaitPolicyKind::Block, &config)
    };
    // The residents sort before the hot slots, so every hot acquisition
    // walks past all of them.
    let residents: Vec<_> = (0..RESIDENTS)
        .map(|i| lock.read_dyn(slot_range(0, i)))
        .collect();
    let hot_base = u64::from(RESIDENTS) * SLOT_BYTES;
    let shadow = Shadow::new(usize::from(MIX.slots));
    let streams: Vec<_> = (0..threads)
        .map(|t| opstream::generate(ctx.spec.seed, t, MIX))
        .collect();
    let sampling = Sampling {
        time_every: 16,
        trace_every: ctx.trace_every(16),
    };

    let sched = ctx.start();
    let logs = on_pinned_threads(|t| {
        let ops = &streams[t];
        drive(&sched, t, sampling, |n, tr| {
            let op = ops[n as usize % STREAM_LEN];
            let range = slot_range(hot_base, op.slot);
            locked_op(
                op,
                tr,
                &shadow,
                || lock.read_dyn(range),
                || lock.write_dyn(range),
                critical_section,
            )
        })
    })?;
    drop(residents);

    Ok(Loaded {
        threads,
        logs,
        warmup: ctx.spec.warmup as usize,
        integrity_failures: 0,
        layers: if ctx.spec.traced {
            sync_layers(&stats)
        } else {
            Vec::new()
        },
        opstream_hash: opstream::hash(&streams),
    })
}
