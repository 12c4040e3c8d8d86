//! Store hot-path micro-benchmarks: event application through the buffer
//! pool, end-to-end OO7 trace replay throughput, object placement by
//! database size, and the exact-garbage reconcile at its three sizes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_store::{Event, PartitionId, Store, StoreConfig};
use odbgc_trace::{ObjectId, SlotIdx, TraceBuilder};

fn bench_store(c: &mut Criterion) {
    // Single-event costs on a pre-populated store.
    let mut setup = TraceBuilder::new();
    let root = setup.create_unlinked(16, 64);
    setup.root_add(root);
    let mut ids = Vec::new();
    for i in 0..64u32 {
        let id = setup.create_unlinked(128, 2);
        setup.slot_write(root, SlotIdx::new(i), Some(id));
        ids.push(id);
    }
    let setup_trace = setup.finish();
    let make_store = || {
        let mut s = Store::new(StoreConfig::default());
        for ev in setup_trace.iter() {
            s.apply(ev).expect("setup replays");
        }
        s
    };

    let mut group = c.benchmark_group("event_apply");
    group.bench_function("access_hot", |b| {
        let mut store = make_store();
        b.iter(|| black_box(store.apply(&Event::Access { id: ids[0] })))
    });
    group.bench_function("access_scan", |b| {
        // Rotating accesses defeat the buffer: every touch may miss.
        let mut store = make_store();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(store.apply(&Event::Access { id: ids[i] }))
        })
    });
    group.bench_function("slot_relink", |b| {
        let mut store = make_store();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(store.apply(&Event::SlotWrite {
                src: ids[i],
                slot: SlotIdx::new(0),
                new: Some(ids[(i + 1) % ids.len()]),
            }))
        })
    });
    group.bench_function("create", |b| {
        let mut store = make_store();
        let mut next = 10_000u64;
        b.iter(|| {
            next += 1;
            black_box(store.apply(&Event::Create {
                id: ObjectId::new(next),
                size: 128,
                slots: Box::new([Some(ids[0])]),
            }))
        })
    });
    group.finish();

    // End-to-end replay throughput on the real workload.
    let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    let mut group = c.benchmark_group("oo7_replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.bench_function("small_prime_conn3", |b| {
        b.iter(|| {
            let mut store = Store::new(StoreConfig::default());
            for ev in trace.iter() {
                store.apply(ev).expect("replay");
            }
            black_box(store.live_bytes())
        })
    });
    group.finish();
}

/// One `Create` by how many partitions the database has, every one of
/// them keeping a tail too small for the object — what a filled database
/// looks like to first-fit, and what made a scan of the tails cost one
/// step per partition. The three medians should sit within 2× of each
/// other.
fn bench_alloc_place(c: &mut Criterion) {
    const SIZE: u32 = 128;
    let config = StoreConfig::default();
    let create = |raw: u64, size: u32| Event::Create {
        id: ObjectId::new(raw),
        size,
        slots: Box::new([]),
    };
    let mut group = c.benchmark_group("alloc_place");
    for partitions in [128u64, 1024, 8192] {
        let mut store = Store::new(config.clone());
        let filler = config.partition_bytes() - 40;
        for raw in 0..partitions - 1 {
            store.apply(&create(raw, filler)).expect("filler");
        }
        // The last partition takes every measured create, so the count
        // stays put for as long as the bench cares to run: 800 MB of
        // room, in the simulator's books only.
        store.apply(&create(partitions - 1, SIZE)).expect("opener");
        store.grow_partition(PartitionId::new(partitions as u32 - 1), 100_000);
        assert_eq!(store.partition_count() as u64, partitions);
        let mut next = partitions - 1;
        group.bench_function(format!("partitions_{partitions}"), |b| {
            b.iter(|| {
                next += 1;
                black_box(store.apply(&create(next, SIZE)))
            })
        });
    }
    group.finish();
}

/// `Store::recompute_garbage_exact` on the OO7 Small′ database, by how
/// much of the heap the buffered candidates reach. Re-storing a pointer
/// a slot already holds takes the target's count up and back down to
/// where it was, which is all it takes to make the target a candidate —
/// and everything is still held, so each reconcile leaves the store as it
/// found it.
fn bench_reconcile(c: &mut Criterion) {
    let state = odbgc_oo7::builder::build(Oo7Params::small_prime(3), 1);
    let (module, composite) = (state.module.id, state.module.composites[0].id);
    let trace = state.trace.finish();
    let mut store = Store::new(StoreConfig::default());
    for ev in trace.iter() {
        store.apply(ev).expect("GenDB replays");
    }
    store.recompute_garbage_exact();
    let restores_of = |store: &Store, src: ObjectId| -> Vec<Event> {
        let slots = store.slots_of(src).expect("object exists");
        slots
            .enumerate()
            .filter(|(_, target)| target.is_some())
            .map(|(i, new)| Event::SlotWrite {
                src,
                slot: SlotIdx::new(i as u32),
                new,
            })
            .collect()
    };
    // One part (slot 0 is the document): the gray pass floods its
    // composite's connection graph.
    let one_composite = [restores_of(&store, composite).swap_remove(1)];
    // Root assembly and every library composite: the whole database.
    let whole_heap = restores_of(&store, module);

    let mut group = c.benchmark_group("store_reconcile");
    group.bench_function("no_candidates", |b| {
        b.iter(|| black_box(store.recompute_garbage_exact()))
    });
    for (name, events) in [
        ("one_composite", &one_composite[..]),
        ("whole_heap", &whole_heap[..]),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for ev in events {
                    store.apply(ev).expect("re-storing a held pointer");
                }
                black_box(store.recompute_garbage_exact())
            })
        });
    }
    group.finish();
    assert_eq!(store.garbage_bytes(), 0, "nothing died");
}

criterion_group!(benches, bench_store, bench_alloc_place, bench_reconcile);
criterion_main!(benches);
