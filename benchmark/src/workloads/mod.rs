//! The seven workloads. Each sets itself up, calls [`Ctx::start`], runs its
//! load threads through [`crate::drive::drive`], checks what the program
//! did, and returns the logs. All load is closed-loop: a lock client cannot
//! issue its I/O before its grant, so callers wait for replies by
//! construction.

mod core;
mod metis;
mod srv;
mod table;

pub use self::core::SOLO_MIX;
pub use self::srv::{paths, DUPLEX_MIX, TCP_MIX};

use crate::drive::ThreadLog;
use crate::trial::{Ctx, Loaded};

/// `(name, why it exists)`, in outside-in order of the stack.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "core-solo",
        "1 thread on a static RwListRangeLock<Block>: the paper's 4.5 fast path, node pools and release-side waiter check do all the work; starves every layer above core",
    ),
    (
        "core-crowd",
        "nproc threads on registry list-rw behind dyn, 64 resident ranges, 16 hot slots: CAS-insert races, conflict waits, rl-sync park/wake and the dyn tax; the paper's actual claim",
    ),
    (
        "table-mix",
        "nproc LockOwners doing lock, 4 KiB stamped I/O, unlock on one LockTable and RangeFile: rl-file does most of the work; no executor, no wire",
    ),
    (
        "srv-duplex",
        "1 CPU, 1 client over the in-process duplex doing lock, 256 B I/O, unlock: session task, rl-exec hop, FrameQueue, codec and path lookup dominate; the op the ladder decomposes",
    ),
    (
        "srv-handoff",
        "1 CPU, two raw sessions handing one exclusive range back and forth: every acquisition suspends server-side and is granted by the other session's release",
    ),
    (
        "srv-tcp",
        "1 CPU, 1 client over host loopback TCP (not a link) doing lock, 4 KiB I/O, unlock: sockets, thread-per-socket reader, per-frame allocation and copies",
    ),
    (
        "vm-metis",
        "1 CPU, Metis wr jobs with nproc workers over Mm list-refined: lockless vmacache faults, speculative mprotect, arena mmap; shares only core and sync with the other six",
    ),
];

/// Load threads for the multi-threaded workloads: exactly `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `body(t)` on `nproc` scoped threads, thread `t` confined to a CPU
/// of its own, and collects their logs. Left to the scheduler, both threads
/// of a 2-vCPU box now and then share one vCPU for a whole trial, which
/// halves the calibrator rate and removes the contention the workload
/// exists to measure.
pub fn on_pinned_threads(
    body: impl Fn(usize) -> ThreadLog + Sync,
) -> Result<Vec<ThreadLog>, String> {
    let cpus = crate::sys::cpus_allowed()?;
    let threads = nproc();
    if cpus.len() < threads {
        return Err(format!(
            "{threads} load threads but only CPUs {cpus:?} allowed"
        ));
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (body, cpu) = (&body, cpus[t]);
                s.spawn(move || crate::sys::pin_to_cpu(cpu).map(|()| body(t)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a load thread panicked".to_string())?)
            .collect()
    })
}

/// Runs the workload the trial names.
pub fn run(ctx: &Ctx) -> Result<Loaded, String> {
    match ctx.spec.workload.as_str() {
        "core-solo" => core::solo(ctx),
        "core-crowd" => core::crowd(ctx),
        "table-mix" => table::mix(ctx),
        "srv-duplex" => srv::duplex(ctx),
        "srv-handoff" => srv::handoff(ctx),
        "srv-tcp" => srv::tcp(ctx),
        "vm-metis" => metis::jobs(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}
