//! `Store::plan_collection`: the survivors of collecting one partition,
//! in Cheney copy order — breadth-first from the partition's collection
//! roots (remembered external references, resident global roots and
//! birth-pinned residents, in id order), following only pointers that
//! stay inside the partition.

use odbgc_store::{ObjectId, PartitionId, Store, StoreConfig};
use odbgc_trace::{Event, SlotIdx, TraceBuilder};

fn replay(store: &mut Store, trace: &odbgc_trace::Trace) {
    for ev in trace.iter() {
        store.apply(ev).expect("replay");
    }
}

/// The plan of `p`, in a fresh buffer.
fn plan(store: &mut Store, p: PartitionId) -> Vec<ObjectId> {
    let mut survivors = Vec::new();
    store.plan_collection(p, &mut survivors);
    survivors
}

#[test]
fn survivors_are_breadth_first_from_roots() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    // root -> a -> c ; root -> b   (all in partition 0: 4 * 20 bytes)
    let root = b.create_unlinked(20, 2);
    b.root_add(root);
    let a = b.create_unlinked(20, 1);
    let bb = b.create_unlinked(20, 0);
    let c = b.create_unlinked(20, 0);
    b.slot_write(root, SlotIdx::new(0), Some(a));
    b.slot_write(root, SlotIdx::new(1), Some(bb));
    b.slot_write(a, SlotIdx::new(0), Some(c));
    replay(&mut s, &b.finish());
    let p = s.partition_of(root).unwrap();
    // Breadth-first: root first, then its children, then grandchildren.
    assert_eq!(plan(&mut s, p), vec![root, a, bb, c]);
}

#[test]
fn unreachable_objects_are_not_planned() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(20, 1);
    b.root_add(root);
    let dead = b.create_unlinked(20, 0);
    b.slot_write(root, SlotIdx::new(0), Some(dead));
    b.slot_clear(root, SlotIdx::new(0));
    replay(&mut s, &b.finish());
    let p = s.partition_of(root).unwrap();
    assert_eq!(plan(&mut s, p), vec![root]);
}

#[test]
fn out_pointers_are_not_traversed() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(20, 1);
    b.root_add(root);
    let _fill = b.create_unlinked(236, 0);
    let far = b.create_unlinked(50, 0); // lands in partition 1
    b.slot_write(root, SlotIdx::new(0), Some(far));
    replay(&mut s, &b.finish());
    let p0 = s.partition_of(root).unwrap();
    let p1 = s.partition_of(far).unwrap();
    assert_ne!(p0, p1);
    // Collecting P0 plans only P0 residents; `far` is not copied.
    let planned = plan(&mut s, p0);
    assert!(planned.contains(&root));
    assert!(!planned.contains(&far));
    // Collecting P1 sees `far` via the remembered set.
    assert_eq!(plan(&mut s, p1), vec![far]);
}

#[test]
fn externally_referenced_garbage_survives() {
    // A garbage object in P0 pointing into P1 keeps its P1 target
    // alive from the collector's point of view (partitioned-GC
    // conservatism).
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(20, 1);
    b.root_add(root);
    let holder = b.create_unlinked(20, 1); // in P0
    let _fill = b.create_unlinked(216, 0);
    let target = b.create_unlinked(50, 0); // in P1
    b.slot_write(root, SlotIdx::new(0), Some(holder));
    b.slot_write(holder, SlotIdx::new(0), Some(target));
    b.slot_clear(root, SlotIdx::new(0)); // holder (and target) die
    replay(&mut s, &b.finish());
    let p1 = s.partition_of(target).unwrap();
    assert!(!s.is_live(target));
    // holder still physically references target, so target survives P1.
    assert_eq!(plan(&mut s, p1), vec![target]);
}

#[test]
fn intra_partition_cycle_reachable_from_root_survives() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(20, 1);
    b.root_add(root);
    let x = b.create_unlinked(20, 1);
    let y = b.create(20, vec![Some(x)]);
    b.slot_write(x, SlotIdx::new(0), Some(y));
    b.slot_write(root, SlotIdx::new(0), Some(x));
    replay(&mut s, &b.finish());
    let p = s.partition_of(root).unwrap();
    let planned = plan(&mut s, p);
    assert_eq!(planned.len(), 3);
    assert!(planned.contains(&x) && planned.contains(&y));
}

#[test]
fn dead_cycle_is_not_planned() {
    let mut s = Store::new(StoreConfig::tiny());
    replay(&mut s, &odbgc_trace::synthetic::detached_cycle(30));
    let anchor = ObjectId::new(0);
    let p = s.partition_of(anchor).unwrap();
    assert_eq!(plan(&mut s, p), vec![anchor]);
}

#[test]
fn empty_partition_plans_nothing() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let a = b.create_unlinked(10, 0);
    b.root_add(a);
    replay(&mut s, &b.finish());
    let p = s.partition_of(a).unwrap();
    // A partition holding only garbage plans nothing.
    let ev = Event::RootRemove { id: a };
    s.apply(&ev).unwrap();
    assert_eq!(plan(&mut s, p), Vec::<ObjectId>::new());
}

#[test]
fn scratch_reuse_across_collections_matches_fresh_buffers() {
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(20, 3);
    b.root_add(root);
    let a = b.create_unlinked(20, 1);
    let c = b.create_unlinked(20, 0);
    b.slot_write(root, SlotIdx::new(0), Some(a));
    b.slot_write(a, SlotIdx::new(0), Some(c));
    replay(&mut s, &b.finish());
    let p = s.partition_of(root).unwrap();

    let mut survivors = Vec::new();
    for _ in 0..3 {
        s.plan_collection(p, &mut survivors);
        assert_eq!(survivors, plan(&mut s, p));
    }
}
