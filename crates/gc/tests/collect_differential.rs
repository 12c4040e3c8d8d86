//! Differential property test: the one-pass collection
//! ([`Store::collect`]) equals the reference path — the sorted, distinct
//! `partition_roots`, breadth-first over `slots_of` without leaving the
//! partition, then the validating `apply_collection` — in survivor order
//! and in `CollectionApplied`.
//!
//! Traces are random and interpreted against the store, so every event
//! is valid: creates with slots filled from live objects (often in other
//! partitions), slot writes and clears, root adds and removes, newborns
//! that keep their birth pin, and collections and reconciles committed
//! between steps. After every step the store's audit (FAR bits included)
//! passes, and collecting each partition of a clone both ways agrees.

use std::collections::HashSet;

use proptest::prelude::*;

use odbgc_store::{CollectionApplied, PartitionId, Store, StoreConfig};
use odbgc_trace::{Event, ObjectId, SlotIdx};

/// The reference collection: roots sorted and distinct, a breadth-first
/// copy over the public slot view, then the validating apply.
fn reference_collect(store: &mut Store, p: PartitionId) -> (Vec<ObjectId>, CollectionApplied) {
    let mut survivors = store.partition_roots(p);
    let mut seen: HashSet<ObjectId> = survivors.iter().copied().collect();
    let mut scan = 0;
    while let Some(&cur) = survivors.get(scan) {
        scan += 1;
        for t in store.slots_of(cur).expect("survivor exists").flatten() {
            if store.partition_of(t) == Ok(p) && seen.insert(t) {
                survivors.push(t);
            }
        }
    }
    let applied = store.apply_collection(p, &survivors);
    (survivors, applied)
}

/// `pool[pick % len]`, or `None` for an empty pool.
fn choose(pool: &[ObjectId], pick: u32) -> Option<ObjectId> {
    (!pool.is_empty()).then(|| pool[pick as usize % pool.len()])
}

/// Turns one generated step into a store action. Returns the event to
/// apply, if the step is one; collections and reconciles are committed
/// here.
fn step(store: &mut Store, (kind, x, y, z): (u8, u32, u32, u32)) -> Option<Event> {
    let live: Vec<ObjectId> = (0..store.object_table_len())
        .map(ObjectId::new)
        .filter(|&o| store.is_live(o))
        .collect();
    match kind {
        0..=2 => {
            let slots = (0..y % 4)
                .map(|i| {
                    let bits = z.rotate_right(i * 8);
                    if bits & 3 == 0 {
                        None
                    } else {
                        choose(&live, bits >> 2)
                    }
                })
                .collect::<Vec<_>>();
            Some(Event::Create {
                id: ObjectId::new(store.object_table_len()),
                size: 8 + x % 89,
                slots: slots.into_boxed_slice(),
            })
        }
        3..=5 => {
            let holders: Vec<ObjectId> = live
                .iter()
                .copied()
                .filter(|&o| store.slots_of(o).expect("live").count() > 0)
                .collect();
            let src = choose(&holders, x)?;
            let count = store.slots_of(src).expect("live").count() as u32;
            let new = if z % 5 == 0 { None } else { choose(&live, z) };
            Some(Event::SlotWrite {
                src,
                slot: SlotIdx::new(y % count),
                new,
            })
        }
        6 => {
            let roots: HashSet<ObjectId> = store.roots().collect();
            let candidates: Vec<ObjectId> = live
                .iter()
                .copied()
                .filter(|o| !roots.contains(o))
                .collect();
            choose(&candidates, x).map(|id| Event::RootAdd { id })
        }
        7 => {
            let roots: Vec<ObjectId> = store.roots().collect();
            choose(&roots, x).map(|id| Event::RootRemove { id })
        }
        8 => {
            let partitions = store.partition_count() as u32;
            if partitions > 0 {
                store.collect(PartitionId::new(x % partitions), &mut Vec::new());
            }
            None
        }
        _ => {
            store.recompute_garbage_exact();
            None
        }
    }
}

fn arb_steps() -> impl Strategy<Value = Vec<(u8, u32, u32, u32)>> {
    proptest::collection::vec((0u8..10, any::<u32>(), any::<u32>(), any::<u32>()), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_collection_matches_the_reference_path(steps in arb_steps()) {
        let mut store = Store::new(StoreConfig::tiny());
        let mut survivors = Vec::new();
        for s in steps {
            if let Some(ev) = step(&mut store, s) {
                store.apply(&ev).expect("steps are interpreted against the store");
            }
            prop_assert_eq!(store.check_consistency(), Ok(()));
            for p in 0..store.partition_count() as u32 {
                let p = PartitionId::new(p);
                let mut fused = store.clone();
                let mut reference = store.clone();
                let applied = fused.collect(p, &mut survivors);
                let (expected, expected_applied) = reference_collect(&mut reference, p);
                prop_assert_eq!(&survivors, &expected, "survivor order in {}", p);
                prop_assert_eq!(applied, expected_applied, "outcome in {}", p);
                prop_assert_eq!(fused.remset_entries(), reference.remset_entries());
                prop_assert_eq!(fused.check_consistency(), Ok(()));
            }
        }
    }
}
