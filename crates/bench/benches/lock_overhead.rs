//! Ablation bench: single-thread acquire/release latency of every lock, with
//! and without the fast path (Section 4.5) and the fairness gate
//! (Section 4.3).
//!
//! This is the "no fast path even for a single thread" shortcoming of the
//! kernel range lock called out in Section 3: the uncontended acquire cost is
//! what a single-threaded application pays for using a range lock at all.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use range_lock::{ListLockConfig, ListRangeLock, Range, RwListRangeLock};
use rl_baselines::{RwTreeRangeLock, SegmentRangeLock, TreeRangeLock};
use rl_sync::wait::Block;

fn bench_uncontended(c: &mut Criterion) {
    let range = Range::new(10, 20);
    let mut group = c.benchmark_group("uncontended-acquire-release");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function(BenchmarkId::from_parameter("list-ex/fast-path"), |b| {
        let lock = ListRangeLock::new();
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("list-ex/no-fast-path"), |b| {
        let lock = ListRangeLock::with_config(ListLockConfig {
            fast_path: false,
            ..Default::default()
        });
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("list-ex/fairness-on"), |b| {
        let lock = ListRangeLock::with_config(ListLockConfig {
            fairness: true,
            ..Default::default()
        });
        b.iter(|| drop(lock.write(range)));
    });
    // The wait-policy layer must keep the uncontended fast path a pure
    // atomic sequence: these must stay within noise of their spin-yield
    // (default policy) twins above.
    group.bench_function(BenchmarkId::from_parameter("list-ex/block-policy"), |b| {
        let lock = ListRangeLock::<Block>::with_policy();
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("list-rw/block-policy"), |b| {
        let lock = RwListRangeLock::<Block>::with_policy();
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("list-rw/write"), |b| {
        let lock = RwListRangeLock::new();
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("list-rw/read"), |b| {
        let lock = RwListRangeLock::new();
        b.iter(|| drop(lock.read(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("lustre-ex"), |b| {
        let lock = TreeRangeLock::new();
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("kernel-rw/write"), |b| {
        let lock = RwTreeRangeLock::new();
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("pnova-rw/write"), |b| {
        let lock = SegmentRangeLock::new(256, 256);
        b.iter(|| drop(lock.write(range)));
    });
    group.bench_function(BenchmarkId::from_parameter("pnova-rw/full-range"), |b| {
        let lock = SegmentRangeLock::new(256, 256);
        b.iter(|| drop(lock.write(Range::FULL)));
    });
    group.finish();
}

criterion_group!(benches, bench_uncontended);
criterion_main!(benches);
