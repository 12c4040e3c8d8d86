//! Partition-selection policies.
//!
//! Given per-partition facts, a selector picks which partition the next
//! collection should process. The paper's experiments use UPDATEDPOINTER
//! (from the authors' SIGMOD'94 partition-selection study): collect the
//! partition whose objects lost the most pointers since it was last
//! collected, because pointer overwrites correlate strongly with garbage.
//! Random, RoundRobin and an oracle MostGarbage selector are the
//! baselines of the ablation study.

use odbgc_store::{PartitionId, PartitionSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Enumerable selector configuration, convenient for experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorKind {
    /// The paper's policy: most pointer overwrites since last collection.
    #[default]
    UpdatedPointer,
    /// Uniform random choice.
    Random,
    /// Cycle through partitions in id order.
    RoundRobin,
    /// Oracle: the partition with the most actual garbage.
    MostGarbageOracle,
}

impl SelectorKind {
    /// Instantiates the selector. `seed` is used only by
    /// [`Selector::Random`].
    pub fn build(self, seed: u64) -> Selector {
        match self {
            SelectorKind::UpdatedPointer => Selector::UpdatedPointer,
            SelectorKind::Random => Selector::Random(StdRng::seed_from_u64(seed)),
            SelectorKind::RoundRobin => Selector::RoundRobin { next: 0 },
            SelectorKind::MostGarbageOracle => Selector::MostGarbageOracle,
        }
    }
}

/// A partition-selection policy and its running state, built by
/// [`SelectorKind::build`].
#[derive(Debug)]
pub enum Selector {
    /// UPDATEDPOINTER: the partition with the most pointer overwrites
    /// since its last collection. Ties go to the least-recently-collected
    /// partition, then to the lowest id, which keeps the policy
    /// deterministic.
    UpdatedPointer,
    /// Uniform random selection from a seeded RNG (the baseline the paper
    /// contrasts with when explaining CGS/CB's bias in §4.1.2).
    Random(StdRng),
    /// Cycles through partitions in id order.
    RoundRobin {
        /// The id to choose next, wrapped at the current count.
        next: u32,
    },
    /// Oracle: the partition holding the most actual garbage bytes, ties
    /// to the lowest id. Not realizable (requires exact per-partition
    /// garbage knowledge); an upper-bound baseline in ablation studies.
    MostGarbageOracle,
}

impl Selector {
    /// Chooses the partition the next collection should process from the
    /// per-partition facts in id order ([`odbgc_store::Store::partition_snapshots`]).
    ///
    /// Returns `None` only when there are no partitions at all; with at
    /// least one partition every policy returns a choice (a
    /// policy-directed collection always runs, even if it turns out to
    /// reclaim nothing — the I/O it spends is real and the rate policies
    /// must observe it).
    pub fn select(
        &mut self,
        partitions: impl ExactSizeIterator<Item = PartitionSnapshot>,
    ) -> Option<PartitionId> {
        match self {
            Selector::UpdatedPointer => partitions
                .max_by(|a, b| {
                    a.overwrites
                        .cmp(&b.overwrites)
                        // fewer past collections = staler = preferred on ties
                        .then(b.collections.cmp(&a.collections))
                        .then(b.id.cmp(&a.id))
                })
                .map(|s| s.id),
            Selector::Random(rng) => {
                // Partitions are dense 0..n, so the draw is the id.
                let n = partitions.len() as u32;
                (n > 0).then(|| PartitionId::new(rng.random_range(0..n)))
            }
            Selector::RoundRobin { next } => {
                // Partitions are dense 0..n; wrap the cursor.
                let n = partitions.len() as u32;
                if n == 0 {
                    return None;
                }
                let choice = *next % n;
                *next = (choice + 1) % n;
                Some(PartitionId::new(choice))
            }
            Selector::MostGarbageOracle => partitions
                .max_by(|a, b| a.garbage_bytes.cmp(&b.garbage_bytes).then(b.id.cmp(&a.id)))
                .map(|s| s.id),
        }
    }

    /// Human-readable policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Selector::UpdatedPointer => "updated-pointer",
            Selector::Random(_) => "random",
            Selector::RoundRobin { .. } => "round-robin",
            Selector::MostGarbageOracle => "most-garbage-oracle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_store::{Store, StoreConfig};
    use odbgc_trace::{SlotIdx, TraceBuilder};

    fn snap(id: u32, overwrites: u64, garbage: u64, collections: u64) -> PartitionSnapshot {
        PartitionSnapshot {
            id: PartitionId::new(id),
            overwrites,
            occupied_bytes: 0,
            capacity: 256,
            residents: 0,
            collections,
            garbage_bytes: garbage,
            live_bytes: 0,
        }
    }

    #[test]
    fn updated_pointer_picks_max_overwrites() {
        let mut sel = SelectorKind::UpdatedPointer.build(0);
        let parts = [snap(0, 5, 0, 0), snap(1, 9, 0, 0), snap(2, 3, 0, 0)];
        assert_eq!(sel.select(parts.iter().copied()), Some(PartitionId::new(1)));
    }

    #[test]
    fn updated_pointer_tie_break_prefers_stale_then_low_id() {
        let mut sel = SelectorKind::UpdatedPointer.build(0);
        let parts = [snap(0, 5, 0, 3), snap(1, 5, 0, 1), snap(2, 5, 0, 1)];
        // Partitions 1 and 2 are equally stale; lowest id wins.
        assert_eq!(sel.select(parts.iter().copied()), Some(PartitionId::new(1)));
    }

    #[test]
    fn updated_pointer_with_no_overwrites_still_selects() {
        let mut sel = SelectorKind::UpdatedPointer.build(0);
        let parts = [snap(0, 0, 0, 2), snap(1, 0, 0, 0)];
        assert_eq!(sel.select(parts.iter().copied()), Some(PartitionId::new(1)));
    }

    #[test]
    fn selectors_return_none_without_partitions() {
        for kind in [
            SelectorKind::UpdatedPointer,
            SelectorKind::Random,
            SelectorKind::RoundRobin,
            SelectorKind::MostGarbageOracle,
        ] {
            assert_eq!(kind.build(1).select(std::iter::empty()), None, "{kind:?}");
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut sel = SelectorKind::RoundRobin.build(0);
        let parts = [snap(0, 0, 0, 0), snap(1, 0, 0, 0), snap(2, 0, 0, 0)];
        let picks: Vec<u32> = (0..5)
            .map(|_| sel.select(parts.iter().copied()).unwrap().raw())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn round_robin_handles_shrinking_view() {
        let mut sel = SelectorKind::RoundRobin.build(0);
        let three = [snap(0, 0, 0, 0), snap(1, 0, 0, 0), snap(2, 0, 0, 0)];
        sel.select(three.iter().copied());
        sel.select(three.iter().copied());
        let one = [snap(0, 0, 0, 0)];
        assert_eq!(sel.select(one.iter().copied()), Some(PartitionId::new(0)));
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let parts = [snap(0, 0, 0, 0), snap(1, 0, 0, 0)];
        let a: Vec<u32> = {
            let mut s = SelectorKind::Random.build(42);
            (0..10)
                .map(|_| s.select(parts.iter().copied()).unwrap().raw())
                .collect()
        };
        let b: Vec<u32> = {
            let mut s = SelectorKind::Random.build(42);
            (0..10)
                .map(|_| s.select(parts.iter().copied()).unwrap().raw())
                .collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 2));
    }

    #[test]
    fn most_garbage_oracle_picks_max_garbage() {
        let mut sel = SelectorKind::MostGarbageOracle.build(0);
        let parts = [snap(0, 9, 10, 0), snap(1, 0, 99, 0), snap(2, 1, 50, 0)];
        assert_eq!(sel.select(parts.iter().copied()), Some(PartitionId::new(1)));
    }

    #[test]
    fn most_garbage_oracle_tie_goes_to_lowest_id() {
        // Overwrites and staleness do not break the oracle's ties.
        let mut sel = SelectorKind::MostGarbageOracle.build(0);
        let parts = [
            snap(0, 0, 10, 0),
            snap(1, 0, 50, 4),
            snap(2, 9, 50, 0),
            snap(3, 0, 50, 0),
        ];
        assert_eq!(sel.select(parts.iter().copied()), Some(PartitionId::new(1)));
    }

    #[test]
    fn random_and_round_robin_stay_in_range_as_partitions_grow() {
        let mut random = SelectorKind::Random.build(7);
        let mut rr = SelectorKind::RoundRobin.build(0);
        let mut rr_picks = Vec::new();
        for n in [1u32, 2, 3, 5, 8] {
            let parts: Vec<_> = (0..n).map(|i| snap(i, 0, 0, 0)).collect();
            for _ in 0..3 {
                assert!(random.select(parts.iter().copied()).unwrap().raw() < n);
                let pick = rr.select(parts.iter().copied()).unwrap().raw();
                assert!(pick < n);
                rr_picks.push(pick);
            }
        }
        // The cursor wraps at the count it last saw, then resumes there.
        assert_eq!(rr_picks, vec![0, 0, 0, 0, 1, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6]);
    }

    fn replay(store: &mut Store, trace: &odbgc_trace::Trace) {
        for ev in trace.iter() {
            store.apply(ev).expect("replay");
        }
    }

    #[test]
    fn collect_once_on_empty_store_is_none() {
        let s = Store::new(StoreConfig::tiny());
        let mut sel = SelectorKind::UpdatedPointer.build(0);
        assert!(sel.select(s.partition_snapshots()).is_none());
    }

    #[test]
    fn updated_pointer_collector_targets_garbage_partition() {
        let mut s = Store::new(StoreConfig::tiny());
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(20, 2);
        b.root_add(root);
        let _fill = b.create_unlinked(236, 0); // pad partition 0
        let far = b.create_unlinked(100, 0); // partition 1
        b.slot_write(root, SlotIdx::new(0), Some(far));
        b.slot_clear(root, SlotIdx::new(0)); // far dies; PO(P1) = 1
        replay(&mut s, &b.finish());

        let mut sel = SelectorKind::UpdatedPointer.build(0);
        let p = sel
            .select(s.partition_snapshots())
            .expect("partitions exist");
        let outcome = s.collect(p, &mut Vec::new());
        assert_eq!(outcome.partition.raw(), 1);
        assert_eq!(outcome.bytes_reclaimed, 100);
        s.assert_garbage_exact();
    }

    #[test]
    fn kind_builds_named_selectors() {
        assert_eq!(
            SelectorKind::UpdatedPointer.build(0).name(),
            "updated-pointer"
        );
        assert_eq!(SelectorKind::Random.build(0).name(), "random");
        assert_eq!(SelectorKind::RoundRobin.build(0).name(), "round-robin");
        assert_eq!(
            SelectorKind::MostGarbageOracle.build(0).name(),
            "most-garbage-oracle"
        );
    }
}
