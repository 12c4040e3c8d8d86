//! Placing an object costs O(log partitions), asserted on the store's
//! own count of free-index nodes read (`Store::placement_probes`) rather
//! than on a clock.

use odbgc_oo7::{builder, Oo7Params};
use odbgc_store::{Store, StoreConfig};
use odbgc_trace::{Event, ObjectId};

/// Applies `ev`, a create, and holds the search it took to
/// ⌈log2 partitions⌉ + 2 node reads.
fn create_within_bound(store: &mut Store, ev: &Event) {
    let before = store.placement_probes();
    store.apply(ev).expect("create applies");
    let probes = store.placement_probes() - before;
    let partitions = store.partition_count();
    let bound = u64::from(partitions.next_power_of_two().ilog2()) + 2;
    assert!(
        probes <= bound,
        "a create read {probes} index nodes with {partitions} partitions (bound {bound})"
    );
}

#[test]
fn every_partition_keeping_a_small_tail_does_not_lengthen_the_search() {
    // 100-byte objects into 256-byte partitions: two fit, and the 56
    // bytes left over fit nothing that follows. No partition ever reads
    // exactly full, which is what kept the old cursor at 0 and its scan
    // at one step per partition.
    const SIZE: u32 = 100;
    let mut store = Store::new(StoreConfig::tiny());
    for raw in 0..4_400 {
        let ev = Event::Create {
            id: ObjectId::new(raw),
            size: SIZE,
            slots: Box::new([]),
        };
        create_within_bound(&mut store, &ev);
    }
    let snapshots = store.partition_snapshots();
    assert!(snapshots.len() >= 2_000);
    for snap in snapshots {
        let tail = snap.capacity - snap.occupied_bytes;
        assert!((1..SIZE).contains(&tail), "{} keeps {tail} bytes", snap.id);
    }
    store.assert_consistent();
}

#[test]
fn oo7_database_build_searches_logarithmically() {
    // The benchmark's `replay_saio` database: Small, connectivity 9.
    let trace = builder::build(Oo7Params::small(9), 1).trace.finish();
    let mut store = Store::new(StoreConfig::default());
    let mut creates = 0u64;
    for ev in trace.iter() {
        if matches!(ev, Event::Create { .. }) {
            create_within_bound(&mut store, ev);
            creates += 1;
        } else {
            store.apply(ev).expect("GenDB replays");
        }
    }
    let partitions = store.partition_count() as u64;
    assert!(partitions > 100 && creates > 100 * partitions);
    // What one step per partition would have come to.
    assert!(store.placement_probes() * 10 < creates * partitions);
}
