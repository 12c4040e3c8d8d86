//! `Store::plan_collection`: the survivors of collecting one partition,
//! in Cheney copy order — breadth-first from the partition's collection
//! roots (remembered external references, resident global roots and
//! birth-pinned residents, in id order), following only pointers that
//! stay inside the partition. And `Store::collect`, which plans and
//! applies in one pass: what a collection reclaims and how it compacts.

use odbgc_store::{PartitionId, Store, StoreConfig};
use odbgc_trace::{Event, ObjectId, SlotIdx, TraceBuilder};

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

#[test]
fn cross_partition_garbage_chain_needs_two_collections() {
    // holder (P0, garbage) -> target (P1). Collecting P1 first keeps
    // target (remembered ref from holder); collecting P0 destroys
    // holder and drops the remembered entry; re-collecting P1 then
    // frees target. This is the partitioned-GC conservatism the paper
    // inherits from CWZ94.
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(20, 1);
    b.root_add(root);
    let holder = b.create_unlinked(20, 1);
    let _fill = b.create_unlinked(216, 0);
    let target = b.create_unlinked(50, 0); // partition 1
    b.slot_write(root, SlotIdx::new(0), Some(holder));
    b.slot_write(holder, SlotIdx::new(0), Some(target));
    b.slot_clear(root, SlotIdx::new(0));
    replay(&mut s, &b.finish());
    assert_eq!(s.garbage_bytes(), 70);

    let p0 = s.partition_of(root).unwrap();
    let p1 = s.partition_of(target).unwrap();

    let first = s.collect(p1, &mut Vec::new());
    assert_eq!(first.bytes_reclaimed, 0); // target conservatively kept
    let second = s.collect(p0, &mut Vec::new());
    assert_eq!(second.bytes_reclaimed, 20); // holder destroyed
    let third = s.collect(p1, &mut Vec::new());
    assert_eq!(third.bytes_reclaimed, 50); // now target is free
    assert_eq!(s.garbage_bytes(), 0);
    s.assert_garbage_exact();
}

#[test]
fn collection_is_idempotent_when_no_garbage() {
    let mut s = Store::new(StoreConfig::tiny());
    let (t, n) = odbgc_trace::synthetic::wide_tree(2, 2, 10);
    replay(&mut s, &t);
    let p = PartitionId::new(0);
    let live_before = s.live_bytes();
    let o1 = s.collect(p, &mut Vec::new());
    let o2 = s.collect(p, &mut Vec::new());
    assert_eq!(o1.bytes_reclaimed, 0);
    assert_eq!(o2.bytes_reclaimed, 0);
    assert_eq!(o1.objects_survived, n);
    assert_eq!(s.live_bytes(), live_before);
    s.assert_garbage_exact();
}

#[test]
fn compaction_improves_layout_locality() {
    // After interleaving live and dead objects, collection compacts
    // the survivors: occupied bytes equal live bytes again.
    let mut s = Store::new(StoreConfig::tiny());
    let mut b = TraceBuilder::new();
    let root = b.create_unlinked(16, 4);
    b.root_add(root);
    let mut kept = Vec::new();
    for i in 0..4u32 {
        let keep = b.create_unlinked(20, 0);
        let dead = b.create_unlinked(20, 0);
        b.slot_write(root, SlotIdx::new(i), Some(dead));
        b.slot_write(root, SlotIdx::new(i), Some(keep)); // dead dies
        kept.push(keep);
    }
    replay(&mut s, &b.finish());
    assert_eq!(s.garbage_bytes(), 80);
    let p = s.partition_of(root).unwrap();
    let outcome = s.collect(p, &mut Vec::new());
    assert_eq!(outcome.bytes_reclaimed, 80);
    assert_eq!(s.occupied_bytes(), s.live_bytes());
    // Survivors are root followed by its children in slot order.
    assert_eq!(s.residents_of(p)[0], root);
    s.assert_garbage_exact();
}
