//! Differential property test: epoch-marked survivor planning produces
//! exactly the plan of the `HashSet`-based breadth-first traversal it
//! replaced — same objects, same order.
//!
//! The oracle reconstructs the previous implementation from the store's
//! public read API: breadth-first from `partition_roots`, a `HashSet` as
//! the visited set, children enqueued in slot order, pointers leaving the
//! partition not traversed.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;

use odbgc_gc::{plan_survivors_into, CollectScratch};
use odbgc_store::{PartitionId, Store, StoreConfig};
use odbgc_trace::synthetic::{churn, ChurnConfig};
use odbgc_trace::ObjectId;

/// The pre-optimization planner, reconstructed as an oracle.
fn oracle_plan(store: &Store, p: PartitionId) -> Vec<ObjectId> {
    let mut survivors = Vec::new();
    let mut visited: HashSet<ObjectId> = HashSet::new();
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    for r in store.partition_roots(p) {
        if visited.insert(r) {
            queue.push_back(r);
            survivors.push(r);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for target in store.slots_of(cur).expect("resident").flatten() {
            if store.partition_of(target) == Ok(p) && visited.insert(target) {
                queue.push_back(target);
                survivors.push(target);
            }
        }
    }
    survivors
}

fn arb_config() -> impl Strategy<Value = ChurnConfig> {
    (1usize..5, 1usize..5, 20usize..300).prop_map(|(anchors, slots, steps)| ChurnConfig {
        anchors,
        slots_per_object: slots,
        steps,
        size_range: (8, 96),
        weights: (4, 3, 3, 1),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn epoch_marked_plan_matches_hashset_oracle(cfg in arb_config(), seed in any::<u64>()) {
        let trace = churn(&cfg, seed);
        let mut store = Store::new(StoreConfig::tiny());
        for ev in trace.iter() {
            store.apply(ev).expect("valid");
        }
        // One shared scratch across all partitions: reuse must not leak
        // state from one plan into the next.
        let mut scratch = CollectScratch::new();
        let mut plan = Vec::new();
        for p in 0..store.partition_count() as u32 {
            let p = PartitionId::new(p);
            let expected = oracle_plan(&store, p);
            plan_survivors_into(&mut store, p, &mut scratch, &mut plan);
            prop_assert_eq!(&plan, &expected, "plan diverges for {:?}", p);
        }
    }
}
