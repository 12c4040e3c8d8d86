//! Collector micro-benchmarks: survivor planning and full collection of a
//! partition under varying garbage ratios, and of a served partition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::RefCell;
use std::hint::black_box;

use odbgc_core::PolicySpec;
use odbgc_engine::{
    apply_ops, EngineConfig, SessionId, SessionObjects, SessionWorkload, StoreEngine,
    WorkloadParams,
};
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
    // Even slots first, then odd ones: `n_dead` distinct slots for any
    // ratio up to 1 (an even `n_objects`).
    let n_dead = (n_objects as f64 * garbage_ratio) as usize;
    for i in 0..n_dead {
        let slot = 2 * i % n_objects + 2 * i / n_objects;
        b.slot_clear(root, SlotIdx::new(slot as u32));
    }
    let mut store = Store::new(StoreConfig::default());
    for ev in b.finish().iter() {
        store.apply(ev).expect("bench trace replays");
    }
    assert_eq!(store.garbage_bytes(), n_dead as u64 * 64, "detached bytes");
    store
}

/// Operations the served store is built from.
const SERVED_OPS: u64 = 50_000;

/// A store in the shape `serve` leaves it: one session's generated
/// turns applied through `apply_ops` on the default geometry under
/// `saio:10%` with due collections drained between turns, so its
/// partitions hold hundreds of rooted anchors and remembered references
/// each. Returns it with the partition that has the most collection
/// roots.
fn served_store() -> (Store, PartitionId) {
    let policy = "saio:10%".parse::<PolicySpec>().expect("spec parses");
    let mut engine = StoreEngine::new(EngineConfig::default(), policy.build());
    let mut workload = SessionWorkload::new(0, WorkloadParams::default(), SERVED_OPS);
    let mut objects = SessionObjects::new();
    loop {
        let ops = workload.next_turn(8);
        if ops.is_empty() {
            break;
        }
        let mut sess = engine.session_with(SessionId::new(0), None);
        apply_ops(&mut sess, &mut objects, &ops).expect("served turn applies");
        while engine.collect_if_due(None).is_some() {}
    }
    let store = engine.store().clone();
    let p = store
        .partition_snapshots()
        .map(|s| s.id)
        .max_by_key(|&p| (store.partition_roots(p).len(), std::cmp::Reverse(p)))
        .expect("the served store has partitions");
    (store, p)
}

fn bench_collector(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_survivors");
    for &n in &[100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut store = loaded_store(n, 0.3);
            b.iter(|| {
                let mut survivors = Vec::new();
                store.plan_collection(PartitionId::new(0), &mut survivors);
                black_box(survivors)
            })
        });
    }
    group.finish();

    // Each collected store is parked here and dropped by the next setup,
    // so freeing its tables is not timed.
    let spent: RefCell<Option<Store>> = RefCell::new(None);
    let mut group = c.benchmark_group("collect_partition");
    for &ratio in &[0.0, 0.3, 0.9] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("garbage_{ratio}")),
            &ratio,
            |b, &ratio| {
                b.iter_batched(
                    || {
                        spent.take();
                        loaded_store(500, ratio)
                    },
                    |mut store| {
                        black_box(store.collect(PartitionId::new(0), &mut Vec::new()));
                        spent.replace(Some(store));
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    let (served, p) = served_store();
    group.bench_function("served", |b| {
        b.iter_batched(
            || {
                spent.take();
                served.clone()
            },
            |mut store| {
                black_box(store.collect(p, &mut Vec::new()));
                spent.replace(Some(store));
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_collector);
criterion_main!(benches);
