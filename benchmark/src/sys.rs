//! The few OS facts the harness needs — clocks, CPU affinity, `/proc`
//! readers — through `extern "C"` against the libc that `std` already
//! links, so the package needs no `libc` crate. Linux only.

use std::fs;

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and both clock ids are constants
    // the kernel defines.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `CLOCK_MONOTONIC` in nanoseconds. System-wide, so a parent's reading is
/// comparable with its child's — which is how `setup_s` spans the exec.
#[inline]
pub fn now_ns() -> u64 {
    clock_ns(CLOCK_MONOTONIC)
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Confines the calling thread (and every thread it spawns afterwards) to
/// `cpu`, then verifies through `Cpus_allowed_list` that the kernel agrees.
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    const WORDS: usize = 16; // 1024 CPUs, the kernel's default cpu_set_t
    if cpu >= WORDS * 64 {
        return Err(format!(
            "cpu {cpu} is beyond the {}-bit affinity mask",
            WORDS * 64
        ));
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is `WORDS * 8` readable bytes, the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let allowed = cpus_allowed()?;
    if allowed != [cpu] {
        return Err(format!("asked for cpu {cpu}, kernel reports {allowed:?}"));
    }
    Ok(())
}

/// [`pin_to_cpu`] on `cpu`, or on the last CPU the thread is allowed when
/// `None` (interrupts and housekeeping favour the first).
pub fn pin_to_one_cpu(cpu: Option<usize>) -> Result<(), String> {
    match cpu {
        Some(cpu) => pin_to_cpu(cpu),
        None => pin_to_cpu(*cpus_allowed()?.last().ok_or("no CPU allowed")?),
    }
}

fn status_field(field: &str) -> Result<String, String> {
    // `thread-self`: affinity is per thread, and a pinned load thread must
    // not read the unpinned main thread's mask.
    let status = fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("reading /proc/thread-self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
        .ok_or_else(|| format!("/proc/thread-self/status has no {field}"))
}

/// The CPUs the calling thread may run on (`Cpus_allowed_list`, expanded).
pub fn cpus_allowed() -> Result<Vec<usize>, String> {
    let list = status_field("Cpus_allowed_list")?;
    let bad = || format!("unparsable Cpus_allowed_list {list:?}");
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: usize = lo.parse().map_err(|_| bad())?;
        let hi: usize = hi.parse().map_err(|_| bad())?;
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let hwm = status_field("VmHWM")?;
    let kb: f64 = hwm
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("unparsable VmHWM {hwm:?}"))?;
    Ok(kb / 1024.0)
}

/// First `model name` of `/proc/cpuinfo`, for the machine facts.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
