//! Collector micro-benchmarks: survivor planning and full collection of a
//! partition under varying garbage ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use odbgc_gc::{collect_partition, plan_survivors};
use odbgc_store::{PartitionId, Store, StoreConfig};
use odbgc_trace::{SlotIdx, TraceBuilder};

/// Builds a store whose partition 0 holds `n_objects` chained objects, a
/// `garbage_ratio` fraction of which have been detached.
fn loaded_store(n_objects: usize, garbage_ratio: f64) -> Store {
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(16, n_objects);
    b.root_add(root);
    let mut ids = Vec::with_capacity(n_objects);
    for i in 0..n_objects {
        let id = b.create_unlinked(64, 1);
        b.slot_write(root, SlotIdx::new(i as u32), Some(id));
        ids.push(id);
    }
    let n_dead = (n_objects as f64 * garbage_ratio) as usize;
    for i in 0..n_dead {
        b.slot_clear(root, SlotIdx::new((i * 2 % n_objects) as u32));
    }
    let mut store = Store::new(StoreConfig::default());
    for ev in b.finish().iter() {
        store.apply(ev).expect("bench trace replays");
    }
    store
}

fn bench_collector(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_survivors");
    for &n in &[100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut store = loaded_store(n, 0.3);
            b.iter(|| black_box(plan_survivors(&mut store, PartitionId::new(0))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("collect_partition");
    for &ratio in &[0.0, 0.3, 0.9] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("garbage_{ratio}")),
            &ratio,
            |b, &ratio| {
                b.iter_batched(
                    || loaded_store(500, ratio),
                    |mut store| black_box(collect_partition(&mut store, PartitionId::new(0))),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_collector);
criterion_main!(benches);
