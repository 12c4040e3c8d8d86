//! `Store::recompute_garbage_exact` — trial deletion from buffered cycle
//! candidates — against the full-heap reference.
//!
//! `assert_garbage_exact` compares every object's state with
//! `compute_reachable`, and `assert_consistent` re-derives every
//! reference count from the live holders. Exact states plus the count
//! rule determine the store's state uniquely, so the two together are a
//! differential test against a full mark from the roots.

mod common;

use proptest::prelude::*;

use common::survivors_of;
use odbgc_store::{PartitionId, Store, StoreConfig};
use odbgc_trace::synthetic::{churn, ChurnConfig};
use odbgc_trace::{Event, ObjectId, SlotIdx, TraceBuilder};

const SIZE: u32 = 20;

fn slot(i: u32) -> SlotIdx {
    SlotIdx::new(i)
}

fn replay(store: &mut Store, b: TraceBuilder) {
    for ev in b.finish().iter() {
        store.apply(ev).expect("valid trace");
    }
}

/// Replays the builder's trace and then drains whatever candidates the
/// construction itself buffered, so that what a test does next is all
/// the next reconcile has to go on.
fn replay_and_drain(store: &mut Store, b: TraceBuilder) {
    replay(store, b);
    assert_eq!(
        reconcile_checked(store),
        0,
        "construction leaves no garbage"
    );
}

fn clear(store: &mut Store, src: ObjectId, i: u32) {
    let ev = Event::SlotWrite {
        src,
        slot: slot(i),
        new: None,
    };
    store.apply(&ev).expect("valid clear");
}

/// Reconciles and holds the result against the full-heap reference.
fn reconcile_checked(store: &mut Store) -> u64 {
    let garbage = store.recompute_garbage_exact();
    store.assert_garbage_exact();
    store.assert_consistent();
    garbage
}

/// A rooted anchor with `slots` slots whose slot 0 holds the first of a
/// ring of `n` one-slot objects (`ring[i]` points at `ring[i + 1]`, the
/// last at the first).
fn anchored_ring(b: &mut TraceBuilder, slots: usize, n: usize) -> (ObjectId, Vec<ObjectId>) {
    let anchor = b.create_unlinked(SIZE, slots);
    b.root_add(anchor);
    let ring: Vec<ObjectId> = (0..n).map(|_| b.create_unlinked(SIZE, 1)).collect();
    b.slot_write(anchor, slot(0), Some(ring[0]));
    for i in 0..n {
        b.slot_write(ring[i], slot(0), Some(ring[(i + 1) % n]));
    }
    (anchor, ring)
}

#[test]
fn dead_ring_is_found() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let (anchor, ring) = anchored_ring(&mut b, 1, 3);
    replay_and_drain(&mut s, b);

    clear(&mut s, anchor, 0);
    assert_eq!(s.garbage_bytes(), 0, "the cascade cannot see a ring");
    assert_eq!(reconcile_checked(&mut s), 3 * u64::from(SIZE));
    for r in ring {
        assert!(!s.is_live(r));
        assert_eq!(s.refcount_of(r), Ok(0));
    }
    assert!(s.is_live(anchor));
}

#[test]
fn ring_held_by_a_root_through_a_chain_is_restored() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    // anchor -> ring[0] directly, and anchor -> link -> ring[1].
    let (anchor, ring) = anchored_ring(&mut b, 2, 3);
    let link = b.create(SIZE, vec![Some(ring[1])]);
    b.slot_write(anchor, slot(1), Some(link));
    replay_and_drain(&mut s, b);

    clear(&mut s, anchor, 0); // ring[0] becomes a candidate
    let everyone: Vec<ObjectId> = [anchor, link].into_iter().chain(ring).collect();
    let counts_before: Vec<_> = everyone.iter().map(|&o| s.refcount_of(o)).collect();
    let visited_before = s.reconcile_visited();
    assert_eq!(reconcile_checked(&mut s), 0);
    assert_eq!(
        s.reconcile_visited(),
        visited_before + 3,
        "once round the ring"
    );
    let counts_after: Vec<_> = everyone.iter().map(|&o| s.refcount_of(o)).collect();
    assert_eq!(
        counts_before, counts_after,
        "black objects get every count back"
    );
    assert!(everyone.iter().all(|&o| s.is_live(o)));
}

#[test]
fn self_loop_is_found() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let anchor = b.create_unlinked(SIZE, 1);
    b.root_add(anchor);
    let a = b.create_unlinked(SIZE, 1);
    b.slot_write(anchor, slot(0), Some(a));
    b.slot_write(a, slot(0), Some(a));
    replay_and_drain(&mut s, b);

    clear(&mut s, anchor, 0);
    assert_eq!(s.refcount_of(a), Ok(1));
    assert_eq!(reconcile_checked(&mut s), u64::from(SIZE));
    assert!(!s.is_live(a));
}

#[test]
fn cycles_closed_over_the_birth_pin_are_found() {
    // No count is ever decremented here: the register holding each
    // newborn gives way to a reference from inside the cycle.
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let anchor = b.create_unlinked(SIZE, 1);
    b.root_add(anchor);
    let own = b.create_unlinked(SIZE, 1);
    b.slot_write(own, slot(0), Some(own));
    let x = b.create_unlinked(SIZE, 1);
    let y = b.create(SIZE, vec![Some(x)]);
    b.slot_write(x, slot(0), Some(y));
    replay(&mut s, b);
    assert_eq!(s.garbage_bytes(), 0);

    assert_eq!(reconcile_checked(&mut s), 3 * u64::from(SIZE));
    assert!(s.is_live(anchor));
}

#[test]
fn dead_cycle_gives_back_its_references_to_a_shared_live_child() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let anchor = b.create_unlinked(SIZE, 2);
    b.root_add(anchor);
    let child = b.create_unlinked(SIZE, 1);
    b.slot_write(anchor, slot(0), Some(child));
    // A two-object cycle, each member also pointing at the child.
    let x = b.create(SIZE, vec![None, Some(child)]);
    let y = b.create(SIZE, vec![Some(x), Some(child)]);
    b.slot_write(x, slot(0), Some(y));
    b.slot_write(anchor, slot(1), Some(x));
    replay_and_drain(&mut s, b);

    clear(&mut s, anchor, 1);
    assert_eq!(s.refcount_of(child), Ok(3));
    assert_eq!(reconcile_checked(&mut s), 2 * u64::from(SIZE));
    assert!(s.is_live(child));
    assert_eq!(
        s.refcount_of(child),
        Ok(1),
        "only the anchor's reference counts"
    );
}

/// An anchor holding `a` twice, `a` holding a leaf: the first clear
/// buffers `a`, the second kills it — and the leaf — by cascade.
fn candidate_dead_by_cascade(s: &mut Store) -> (ObjectId, u64) {
    let mut b = TraceBuilder::new();
    let anchor = b.create_unlinked(SIZE, 2);
    b.root_add(anchor);
    let a = b.create_unlinked(SIZE, 1);
    b.slot_write(anchor, slot(0), Some(a));
    b.slot_write(anchor, slot(1), Some(a));
    let leaf = b.create_unlinked(SIZE, 0);
    b.slot_write(a, slot(0), Some(leaf));
    replay_and_drain(s, b);

    clear(s, anchor, 0);
    clear(s, anchor, 1);
    assert!(!s.is_live(a) && s.is_present(a));
    s.assert_consistent();
    (a, s.reconcile_visited())
}

#[test]
fn candidate_that_died_by_cascade_is_dropped_at_the_drain() {
    let mut s = Store::new(StoreConfig::tiny());
    let (_, visited_before) = candidate_dead_by_cascade(&mut s);
    assert_eq!(reconcile_checked(&mut s), 2 * u64::from(SIZE));
    assert_eq!(s.reconcile_visited(), visited_before);
}

#[test]
fn candidate_destroyed_by_a_collection_is_dropped_at_the_drain() {
    let mut s = Store::new(StoreConfig::tiny());
    let (a, visited_before) = candidate_dead_by_cascade(&mut s);
    let p = s.partition_of(a).unwrap();
    let survivors = survivors_of(&s, p);
    s.apply_collection(p, &survivors);
    assert!(!s.is_present(a));
    s.assert_consistent();
    assert_eq!(reconcile_checked(&mut s), 0);
    assert_eq!(s.reconcile_visited(), visited_before);
}

#[test]
fn unrooted_module_takes_the_whole_heap_with_it() {
    // A tree whose leaves point back at the top: removing the root pin
    // leaves the top's count positive, and every object is reachable
    // from that one candidate.
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let top = b.create_unlinked(SIZE, 3);
    b.root_add(top);
    for i in 0..3 {
        let mid = b.create_unlinked(SIZE, 2);
        b.slot_write(top, slot(i), Some(mid));
        for j in 0..2 {
            let leaf = b.create(SIZE, vec![Some(top)]);
            b.slot_write(mid, slot(j), Some(leaf));
        }
    }
    replay_and_drain(&mut s, b);
    let (objects, pointers) = (1 + 3 + 6, 3 + 6 + 6);
    let visited_before = s.reconcile_visited();

    s.apply(&Event::RootRemove { id: top }).unwrap();
    assert_eq!(s.garbage_bytes(), 0);
    assert_eq!(reconcile_checked(&mut s), objects * u64::from(SIZE));
    assert_eq!(s.live_bytes(), 0);
    assert_eq!(s.reconcile_visited(), visited_before + pointers);
}

#[test]
fn second_reconcile_in_a_row_does_nothing() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let (anchor, _) = anchored_ring(&mut b, 1, 4);
    replay_and_drain(&mut s, b);
    clear(&mut s, anchor, 0);

    let first = reconcile_checked(&mut s);
    assert_eq!(first, 4 * u64::from(SIZE));
    let visited = s.reconcile_visited();
    assert_eq!(reconcile_checked(&mut s), first);
    assert_eq!(
        s.reconcile_visited(),
        visited,
        "nothing was buffered in between"
    );
}

/// `churn` with relinks outweighing everything else: most slots end up
/// pointing back into the reachable graph, so cuts detach cycles.
fn cyclic_config() -> impl Strategy<Value = ChurnConfig> {
    (1usize..4, 1usize..4, 50usize..400).prop_map(|(anchors, slots, steps)| ChurnConfig {
        anchors,
        slots_per_object: slots,
        steps,
        size_range: (16, 96),
        weights: (4, 5, 3, 1),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reconcile_is_exact_at_every_cut(
        cfg in cyclic_config(),
        seed in any::<u64>(),
        // (events until the cut, partition pick, reconcile before collecting?)
        cuts in proptest::collection::vec((1usize..60, any::<u32>(), any::<bool>()), 1..16),
    ) {
        let trace = churn(&cfg, seed);
        let mut events = trace.iter();
        let mut store = Store::new(StoreConfig::tiny());
        for (gap, pick, reconcile_first) in cuts {
            for ev in events.by_ref().take(gap) {
                store.apply(ev).expect("synthetic traces are valid");
            }
            if reconcile_first {
                reconcile_checked(&mut store);
            }
            // Without a reconcile first, dead cycles wholly inside the
            // partition are still tracked live when the sweep dooms
            // them, and what they pointed at is buffered by the sweep.
            let p = PartitionId::new(pick % store.partition_count() as u32);
            let survivors = survivors_of(&store, p);
            store.apply_collection(p, &survivors);
            store.assert_consistent();
            reconcile_checked(&mut store);
        }
        for ev in events {
            store.apply(ev).expect("collections never destroy what the trace still names");
        }
        reconcile_checked(&mut store);
    }
}

/// The `pick`-th object the tracker still calls live, if any. Unlike
/// `churn`, this may well be an object no root leads to any more — the
/// store cannot tell, so it must cope.
fn pick_live(store: &Store, created: u64, pick: u32) -> Option<ObjectId> {
    let live: Vec<ObjectId> = (0..created)
        .map(ObjectId::new)
        .filter(|&o| store.is_live(o))
        .collect();
    (!live.is_empty()).then(|| live[pick as usize % live.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Structures built bottom-up under birth pins, cycles closed over a
    /// pin and never linked, writes into objects that are already dead
    /// but not yet known to be: every event sequence `Store::apply`
    /// accepts, not only what a well-behaved application produces.
    #[test]
    fn any_program_the_store_accepts_reconciles_exactly(
        // An opcode and three operands, each reduced modulo whatever it
        // selects from.
        steps in proptest::collection::vec((0u8..16, any::<u32>(), any::<u32>(), any::<u32>()), 20..300),
    ) {
        let mut store = Store::new(StoreConfig::tiny());
        let mut created = 0u64;
        for (op, x, y, z) in steps {
            match op {
                // Create, each slot null or pointing at some live object.
                0..=4 => {
                    let n_slots = x % 4;
                    let slots: Vec<Option<ObjectId>> = (0..n_slots)
                        .map(|i| {
                            (y >> i & 1 == 1)
                                .then(|| pick_live(&store, created, z.rotate_left(8 * i)))
                                .flatten()
                        })
                        .collect();
                    let ev = Event::Create {
                        id: ObjectId::new(created),
                        size: 16 + x % 48,
                        slots: slots.into(),
                    };
                    store.apply(&ev).expect("create");
                    created += 1;
                }
                // Overwrite a slot with a live object or null.
                5..=10 => {
                    let Some(src) = pick_live(&store, created, x) else { continue };
                    let n_slots = store.slots_of(src).unwrap().count() as u32;
                    if n_slots == 0 {
                        continue;
                    }
                    let new = if op == 5 { None } else { pick_live(&store, created, z) };
                    let ev = Event::SlotWrite { src, slot: slot(y % n_slots), new };
                    store.apply(&ev).expect("slot write");
                }
                11 | 12 => {
                    let Some(id) = pick_live(&store, created, x) else { continue };
                    if !store.roots().any(|r| r == id) {
                        store.apply(&Event::RootAdd { id }).expect("root add");
                    }
                }
                13 => {
                    let roots: Vec<ObjectId> = store.roots().collect();
                    if !roots.is_empty() {
                        let id = roots[x as usize % roots.len()];
                        store.apply(&Event::RootRemove { id }).expect("root remove");
                    }
                }
                14 => {
                    reconcile_checked(&mut store);
                }
                _ => {
                    if store.partition_count() > 0 {
                        let p = PartitionId::new(x % store.partition_count() as u32);
                        let survivors = survivors_of(&store, p);
                        store.apply_collection(p, &survivors);
                    }
                }
            }
            store.assert_consistent();
        }
        reconcile_checked(&mut store);
    }
}
