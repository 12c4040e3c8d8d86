//! Property tests: the partitioned collector never destroys reachable
//! data and makes monotone progress on garbage.

use proptest::prelude::*;

use odbgc_store::{PartitionId, Store, StoreConfig};
use odbgc_trace::synthetic::{churn, ChurnConfig};

fn arb_config() -> impl Strategy<Value = ChurnConfig> {
    (1usize..5, 1usize..4, 20usize..300).prop_map(|(anchors, slots, steps)| ChurnConfig {
        anchors,
        slots_per_object: slots,
        steps,
        size_range: (8, 96),
        weights: (4, 3, 3, 1),
    })
}

fn loaded_store(cfg: &ChurnConfig, seed: u64) -> Store {
    let trace = churn(cfg, seed);
    let mut store = Store::new(StoreConfig::tiny());
    for ev in trace.iter() {
        store.apply(ev).expect("valid");
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn survivor_plans_are_well_formed(cfg in arb_config(), seed in any::<u64>()) {
        let mut store = loaded_store(&cfg, seed);
        for p in 0..store.partition_count() as u32 {
            let p = PartitionId::new(p);
            let mut plan = Vec::new();
            store.plan_collection(p, &mut plan);
            // No duplicates.
            let mut sorted = plan.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), plan.len(), "duplicates in plan");
            // Subset of residents.
            let residents: std::collections::HashSet<_> =
                store.residents_of(p).iter().copied().collect();
            for s in &plan {
                prop_assert!(residents.contains(s));
            }
            // Every partition root is planned.
            for root in store.partition_roots(p) {
                prop_assert!(plan.contains(&root), "root {} missing from plan", root);
            }
        }
    }

    #[test]
    fn collection_never_destroys_reachable_objects(cfg in arb_config(), seed in any::<u64>()) {
        let mut store = loaded_store(&cfg, seed);
        let reachable_before = store.compute_reachable();
        for p in 0..store.partition_count() as u32 {
            store.collect(PartitionId::new(p), &mut Vec::new());
        }
        for id in reachable_before.iter() {
            prop_assert!(store.is_present(id), "{} was reachable but destroyed", id);
        }
        store.assert_consistent();
        // Reachability is untouched by collection.
        prop_assert_eq!(store.compute_reachable().len(), store.compute_reachable().len());
    }

    #[test]
    fn repeated_sweeps_reduce_garbage_monotonically(cfg in arb_config(), seed in any::<u64>()) {
        let mut store = loaded_store(&cfg, seed);
        store.recompute_garbage_exact();
        let mut last = store.garbage_bytes();
        // Cross-partition garbage chains need multiple sweeps; garbage
        // never grows, and the loop reaches a fixpoint. (Cross-partition
        // garbage *cycles* legitimately survive partitioned GC forever.)
        for _ in 0..8 {
            for p in 0..store.partition_count() as u32 {
                store.collect(PartitionId::new(p), &mut Vec::new());
            }
            let now = store.garbage_bytes();
            prop_assert!(now <= last, "garbage grew from {} to {}", last, now);
            last = now;
        }
        // Accounting stays consistent throughout.
        prop_assert_eq!(
            store.total_garbage_generated(),
            store.total_garbage_collected() + store.garbage_bytes()
        );
        store.assert_garbage_exact();
    }

    #[test]
    fn compaction_preserves_live_bytes_and_packs_partitions(
        cfg in arb_config(),
        seed in any::<u64>(),
    ) {
        let mut store = loaded_store(&cfg, seed);
        // Reconcile first: churn can strand dead cycles that the cascade
        // still counts as live; the collector is allowed to destroy those
        // (they are unreachable), which would otherwise read as a "loss"
        // of live bytes.
        store.recompute_garbage_exact();
        let live_before = store.live_bytes();
        for p in 0..store.partition_count() as u32 {
            store.collect(PartitionId::new(p), &mut Vec::new());
        }
        prop_assert_eq!(store.live_bytes(), live_before);
        // After collecting every partition, occupancy equals the bytes of
        // surviving objects (garbage either died or is cross-partition-
        // pinned, in which case it still counts as occupied).
        prop_assert_eq!(
            store.occupied_bytes(),
            store.live_bytes() + store.garbage_bytes()
        );
    }

    #[test]
    fn collection_reaches_a_stable_fixpoint(cfg in arb_config(), seed in any::<u64>()) {
        // Cross-partition garbage chains are reclaimed one link per sweep
        // (a zig-zag chain between two partitions needs a sweep per
        // link), so iterate full sweeps until nothing is reclaimed, then
        // check the fixpoint is genuinely stable.
        let mut store = loaded_store(&cfg, seed);
        let mut sweeps = 0;
        loop {
            let mut reclaimed = 0;
            for p in 0..store.partition_count() as u32 {
                reclaimed += store.collect(PartitionId::new(p), &mut Vec::new()).bytes_reclaimed;
            }
            sweeps += 1;
            prop_assert!(sweeps < 1_000, "no fixpoint after {} sweeps", sweeps);
            if reclaimed == 0 {
                break;
            }
        }
        let before = store.total_garbage_collected();
        for p in 0..store.partition_count() as u32 {
            let outcome = store.collect(PartitionId::new(p), &mut Vec::new());
            prop_assert_eq!(outcome.bytes_reclaimed, 0, "fixpoint not stable");
        }
        prop_assert_eq!(store.total_garbage_collected(), before);
        // What survives the fixpoint unreachable can only be garbage in
        // cross-partition cycles — the known blind spot of partitioned
        // collection. Reconciling makes the tracker exact again.
        store.recompute_garbage_exact();
        store.assert_garbage_exact();
        store.assert_consistent();
    }
}
