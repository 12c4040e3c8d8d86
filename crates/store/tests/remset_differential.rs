//! Differential property test: the hand-rolled open-addressing remset
//! table behaves identically to the `HashMap`-backed implementation it
//! replaced.
//!
//! The oracle is a literal `HashMap<(src, slot), target>` per partition —
//! the exact data structure the previous implementation used. Random
//! operation sequences (insert / remove, with key collisions and
//! re-insertions on purpose) are applied to both, and every observable
//! query (the remembered targets, `target_of` for the key just touched,
//! `entry_count`, `total_entries`) must agree after each step; at the
//! end, `target_of` agrees on every key the oracle holds.

use std::collections::HashMap;

use proptest::prelude::*;

use odbgc_store::remset::RemSets;
use odbgc_store::PartitionId;
use odbgc_trace::{ObjectId, SlotIdx};

/// The previous implementation, reconstructed as an oracle.
#[derive(Default)]
struct OracleRemSets {
    sets: Vec<HashMap<(u64, u32), ObjectId>>,
}

impl OracleRemSets {
    fn ensure(&mut self, p: PartitionId) -> &mut HashMap<(u64, u32), ObjectId> {
        if self.sets.len() <= p.index() {
            self.sets.resize_with(p.index() + 1, HashMap::new);
        }
        &mut self.sets[p.index()]
    }

    fn insert(
        &mut self,
        src: ObjectId,
        slot: SlotIdx,
        src_partition: PartitionId,
        target: ObjectId,
        target_partition: PartitionId,
    ) {
        if src_partition == target_partition {
            return;
        }
        self.ensure(target_partition)
            .insert((src.raw(), slot.raw()), target);
    }

    fn remove(&mut self, src: ObjectId, slot: SlotIdx, target_partition: PartitionId) {
        if let Some(set) = self.sets.get_mut(target_partition.index()) {
            set.remove(&(src.raw(), slot.raw()));
        }
    }

    fn external_targets(&self, p: PartitionId) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self
            .sets
            .get(p.index())
            .map(|s| s.values().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    fn target_of(&self, src: u64, slot: u32, p: PartitionId) -> Option<ObjectId> {
        self.sets.get(p.index())?.get(&(src, slot)).copied()
    }

    fn entry_count(&self, p: PartitionId) -> usize {
        self.sets.get(p.index()).map_or(0, HashMap::len)
    }

    fn total_entries(&self) -> usize {
        self.sets.iter().map(HashMap::len).sum()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// insert(src, slot, src_p, target, target_p)
    Insert(u64, u32, u32, u64, u32),
    /// remove(src, slot, target_p)
    Remove(u64, u32, u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Small key ranges on purpose: collisions, overwrites, and removes of
    // present keys must actually happen to exercise tombstone reuse.
    prop_oneof![
        (0u64..40, 0u32..6, 0u32..4, 0u64..40, 0u32..4)
            .prop_map(|(s, sl, sp, t, tp)| Op::Insert(s, sl, sp, t, tp)),
        (0u64..40, 0u32..6, 0u32..4).prop_map(|(s, sl, tp)| Op::Remove(s, sl, tp)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn open_addressing_table_matches_hashmap_oracle(ops in proptest::collection::vec(arb_op(), 1..400)) {
        let mut real = RemSets::new();
        let mut oracle = OracleRemSets::default();
        for op in &ops {
            let (src, slot) = match *op {
                Op::Insert(src, slot, ..) | Op::Remove(src, slot, _) => (src, slot),
            };
            match *op {
                Op::Insert(src, slot, sp, target, tp) => {
                    real.insert(
                        ObjectId::new(src),
                        SlotIdx::new(slot),
                        PartitionId::new(sp),
                        ObjectId::new(target),
                        PartitionId::new(tp),
                    );
                    oracle.insert(
                        ObjectId::new(src),
                        SlotIdx::new(slot),
                        PartitionId::new(sp),
                        ObjectId::new(target),
                        PartitionId::new(tp),
                    );
                }
                Op::Remove(src, slot, tp) => {
                    real.remove(ObjectId::new(src), SlotIdx::new(slot), PartitionId::new(tp));
                    oracle.remove(ObjectId::new(src), SlotIdx::new(slot), PartitionId::new(tp));
                }
            }
            // Every observable query agrees after every operation.
            prop_assert_eq!(real.total_entries(), oracle.total_entries());
            for p in 0..4u32 {
                let p = PartitionId::new(p);
                prop_assert_eq!(real.entry_count(p), oracle.entry_count(p));
                let mut targets = Vec::new();
                real.external_targets_into(p, &mut targets);
                targets.sort_unstable();
                prop_assert_eq!(targets, oracle.external_targets(p));
                prop_assert_eq!(
                    real.target_of(ObjectId::new(src), SlotIdx::new(slot), p),
                    oracle.target_of(src, slot, p)
                );
            }
        }
        for (p, set) in oracle.sets.iter().enumerate() {
            for (&(src, slot), &target) in set {
                prop_assert_eq!(
                    real.target_of(ObjectId::new(src), SlotIdx::new(slot), PartitionId::new(p as u32)),
                    Some(target)
                );
            }
        }
    }
}
