//! Criterion bench for the skip-list comparison (Figure 4).
//!
//! Times a fixed batch of mixed operations on a pre-filled set for each of
//! the three variants; the duration-based throughput sweep that mirrors the
//! figure lives in `repro -- fig4`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use range_lock::ListRangeLock;
use rl_baselines::TreeRangeLock;
use rl_skiplist::{OptimisticSkipList, RangeSkipList};

const KEY_RANGE: u64 = 1 << 14;
const PREFILL: u64 = 1 << 13;
const OPS: u64 = 2_000;

fn mixed_ops<S>(
    set: &Arc<S>,
    insert: impl Fn(&S, u64) -> bool,
    remove: impl Fn(&S, u64) -> bool,
    contains: impl Fn(&S, u64) -> bool,
) {
    let mut state = 0x1234_5678_9abc_def1u64;
    for _ in 0..OPS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = state % KEY_RANGE + 1;
        match state % 10 {
            0 => {
                insert(set, key);
            }
            1 => {
                remove(set, key);
            }
            _ => {
                contains(set, key);
            }
        }
    }
}

fn bench_skiplists(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4/skiplist");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function(BenchmarkId::from_parameter("orig"), |b| {
        let set = Arc::new(OptimisticSkipList::new());
        for k in 1..=PREFILL {
            set.insert(k * 2);
        }
        b.iter(|| {
            mixed_ops(
                &set,
                |s, k| s.insert(k),
                |s, k| s.remove(k),
                |s, k| s.contains(k),
            )
        });
    });

    group.bench_function(BenchmarkId::from_parameter("range-list"), |b| {
        let set = Arc::new(RangeSkipList::with_lock(ListRangeLock::new()));
        for k in 1..=PREFILL {
            set.insert(k * 2);
        }
        b.iter(|| {
            mixed_ops(
                &set,
                |s, k| s.insert(k),
                |s, k| s.remove(k),
                |s, k| s.contains(k),
            )
        });
    });

    group.bench_function(BenchmarkId::from_parameter("range-lustre"), |b| {
        let set = Arc::new(RangeSkipList::with_lock(TreeRangeLock::new()));
        for k in 1..=PREFILL {
            set.insert(k * 2);
        }
        b.iter(|| {
            mixed_ops(
                &set,
                |s, k| s.insert(k),
                |s, k| s.remove(k),
                |s, k| s.contains(k),
            )
        });
    });

    group.finish();
}

criterion_group!(benches, bench_skiplists);
criterion_main!(benches);
