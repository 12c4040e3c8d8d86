//! Differential tests: the first-fit max-tree answers exactly what the
//! linear scan it replaced answered.
//!
//! The oracle for [`FreeIndex`] is a plain `Vec<u32>` of free bytes and
//! `position(|f| f >= size)` — the leftmost partition with room. The
//! oracle for the store is a test-local first-fit over a mirror of each
//! partition's capacity and high-water mark, held against where every
//! created object actually landed.

mod common;

use proptest::prelude::*;

use common::survivors_of;
use odbgc_store::alloc::FreeIndex;
use odbgc_store::{PartitionId, Store, StoreConfig};
use odbgc_trace::synthetic::{churn, ChurnConfig};
use odbgc_trace::Event;

/// The index and the scan it must agree with, driven together.
#[derive(Default)]
struct Pair {
    index: FreeIndex,
    naive: Vec<u32>,
}

impl Pair {
    fn of(free: &[u32]) -> Pair {
        let mut pair = Pair::default();
        for &f in free {
            pair.push(f);
        }
        pair
    }

    fn push(&mut self, free: u32) {
        self.index.push(free);
        self.naive.push(free);
        self.audit();
    }

    fn set(&mut self, i: usize, free: u32) {
        self.index.set(i, free);
        self.naive[i] = free;
        self.audit();
    }

    fn audit(&self) {
        self.index.check_structure().expect("a max-tree");
        assert_eq!(self.index.len(), self.naive.len());
        for (i, &f) in self.naive.iter().enumerate() {
            assert_eq!(self.index.get(i), f, "leaf {i}");
        }
    }

    /// Asks both for the leftmost partition with `size` bytes free.
    fn first_fit(&mut self, size: u32) -> Option<usize> {
        let found = self.index.first_fit(size);
        assert_eq!(
            found,
            self.naive.iter().position(|&f| f >= size),
            "first fit of {size} in {:?}",
            self.naive
        );
        found
    }
}

#[test]
fn exact_fit_is_a_fit() {
    let mut pair = Pair::of(&[10, 40, 39, 40]);
    assert_eq!(pair.first_fit(40), Some(1));
    assert_eq!(pair.first_fit(41), None);
    pair.set(1, 39);
    assert_eq!(pair.first_fit(40), Some(3));
}

#[test]
fn request_larger_than_every_leaf_finds_nothing() {
    let mut pair = Pair::default();
    assert_eq!(pair.first_fit(1), None, "no partitions at all");
    for f in [100, 256, 3] {
        pair.push(f);
    }
    assert_eq!(pair.first_fit(257), None);
    assert_eq!(pair.first_fit(u32::MAX), None);
    assert_eq!(pair.first_fit(256), Some(1));
}

#[test]
fn full_partitions_fit_nothing() {
    let mut pair = Pair::of(&[0, 0, 0]);
    assert_eq!(pair.first_fit(1), None);
    pair.push(0);
    pair.push(5);
    assert_eq!(pair.first_fit(1), Some(4));
    pair.set(4, 0);
    assert_eq!(pair.first_fit(1), None);
    // A collection empties a partition in the middle of full ones.
    pair.set(2, 256);
    assert_eq!(pair.first_fit(1), Some(2));
    assert_eq!(pair.first_fit(256), Some(2));
}

#[test]
fn doubling_boundaries_keep_every_leaf() {
    for boundary in [7usize, 8, 9, 2047, 2048, 2049] {
        // Tails too small for the next object, as a filled database
        // leaves them; the last partition still has room.
        let mut pair = Pair::default();
        for i in 0..boundary as u32 {
            pair.push(1 + (i * 7) % 31);
            for size in [1, 16, 31, 32] {
                pair.first_fit(size);
            }
        }
        assert_eq!(pair.first_fit(32), None);
        pair.push(96);
        assert_eq!(pair.first_fit(32), Some(boundary));
        // The leaves on either side of the old capacity are both live.
        pair.set(boundary - 1, 64);
        assert_eq!(pair.first_fit(32), Some(boundary - 1));
        assert_eq!(pair.first_fit(65), Some(boundary));
        pair.set(0, 200);
        assert_eq!(pair.first_fit(65), Some(0));
    }
}

#[test]
fn oversized_partition_tail_is_reusable() {
    // 256-byte partitions around one of 1024 bytes that a 1000-byte
    // object opened: its leaf is larger than any regular one can be.
    let mut pair = Pair::of(&[20, 12, 1024, 256]);
    pair.set(2, 24);
    assert_eq!(pair.first_fit(24), Some(2));
    assert_eq!(pair.first_fit(25), Some(3));
    pair.set(2, 1024); // the big object died and was collected
    assert_eq!(pair.first_fit(257), Some(2));
    assert_eq!(pair.first_fit(1025), None);
}

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    /// set(pick % len, free)
    Set(u32, u32),
    FirstFit(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Free bytes and sizes from one small range, with 0 common, so exact
    // fits, ties between leaves and requests nothing satisfies all occur.
    let free = prop_oneof![Just(0u32), 0u32..40, 0u32..300];
    prop_oneof![
        free.clone().prop_map(Op::Push),
        (any::<u32>(), free).prop_map(|(i, f)| Op::Set(i, f)),
        (0u32..310).prop_map(Op::FirstFit),
        (0u32..310).prop_map(Op::FirstFit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn max_tree_matches_leftmost_scan(ops in proptest::collection::vec(arb_op(), 1..300)) {
        let mut pair = Pair::default();
        for op in ops {
            match op {
                Op::Push(free) => pair.push(free),
                Op::Set(pick, free) => {
                    if !pair.naive.is_empty() {
                        let i = pick as usize % pair.naive.len();
                        pair.set(i, free);
                    }
                }
                Op::FirstFit(size) => {
                    pair.first_fit(size);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Store level
// ---------------------------------------------------------------------

/// Each partition's `(capacity, high_water)`, placed into by a linear
/// first-fit scan: the allocator of §3.1 written down naively.
struct Mirror {
    config: StoreConfig,
    parts: Vec<(u32, u32)>,
}

impl Mirror {
    fn place(&mut self, size: u32) -> (PartitionId, u32) {
        let fits = |&(capacity, high_water): &(u32, u32)| capacity - high_water >= size;
        let i = self.parts.iter().position(fits).unwrap_or_else(|| {
            let pages = self
                .config
                .pages_per_partition
                .max(size.div_ceil(self.config.page_size));
            self.parts.push((pages * self.config.page_size, 0));
            self.parts.len() - 1
        });
        let offset = self.parts[i].1;
        self.parts[i].1 += size;
        (PartitionId::new(i as u32), offset)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_create_lands_where_a_linear_first_fit_puts_it(
        (anchors, slots, steps) in (1usize..5, 1usize..4, 40usize..400),
        seed in any::<u64>(),
        // (events until the cut, partition pick, collect?, pages to grow by)
        cuts in proptest::collection::vec((1usize..40, any::<u32>(), any::<bool>(), 0u32..3), 1..24),
    ) {
        // Tiny geometry: 256-byte partitions, so sizes up to 600 open
        // oversized partitions whose tails are refilled later.
        let churn_config = ChurnConfig {
            anchors,
            slots_per_object: slots,
            steps,
            size_range: (8, 600),
            weights: (5, 3, 3, 1),
        };
        let trace = churn(&churn_config, seed);
        let mut events = trace.iter();
        let config = StoreConfig::tiny();
        let mut store = Store::new(config.clone());
        let mut mirror = Mirror { config, parts: Vec::new() };
        let apply = |store: &mut Store, mirror: &mut Mirror, ev: &Event| {
            store.apply(ev).expect("synthetic traces are valid");
            if let Event::Create { id, size, .. } = ev {
                let landed = (store.partition_of(*id).unwrap(), store.view().offset_of(*id));
                assert_eq!(landed, mirror.place(*size), "{id} of {size} bytes");
            }
            store.assert_consistent();
        };
        for (gap, pick, collect, grow_pages) in cuts {
            for ev in events.by_ref().take(gap) {
                apply(&mut store, &mut mirror, ev);
            }
            let p = PartitionId::new(pick % store.partition_count() as u32);
            if collect {
                let survivors = survivors_of(&store, p);
                store.apply_collection(p, &survivors);
                mirror.parts[p.index()].1 =
                    survivors.iter().map(|&s| store.size_of(s).unwrap()).sum();
                store.assert_consistent();
            }
            if grow_pages > 0 {
                store.grow_partition(p, grow_pages);
                mirror.parts[p.index()].0 += grow_pages * store.config().page_size;
                store.assert_consistent();
            }
        }
        for ev in events {
            apply(&mut store, &mut mirror, ev);
        }
        prop_assert_eq!(store.partition_count(), mirror.parts.len());
    }
}
