//! Survivor planning on a crew of collector workers
//! ([`odbgc_sched::run_chunks`]).
//!
//! # Determinism
//!
//! The parallel planner must reproduce the sequential planner's survivor
//! order *byte for byte* — survivor order is copy order, copy order is
//! compaction layout, and layout feeds every downstream page count. The
//! construction that guarantees this is a level-synchronized BFS:
//!
//! 1. **Trace chunks are read-only.** The crew walks the current BFS
//!    level in 64-parent chunks through
//!    [`Store::for_each_unmarked_child_in`], *reading* visit marks but
//!    never writing them (marks were last written before the level
//!    started, so concurrent chunks observe a frozen snapshot). Each
//!    chunk returns its candidate children in (parent, slot) order.
//! 2. **The reduction is sequential and canonical.** The crew returns
//!    the chunks' candidates in chunk order — which is frontier order —
//!    and the caller `try_mark`s each candidate. That stream equals
//!    exactly the child stream the sequential planner would have
//!    emitted for this level, and `try_mark` keeps the first occurrence
//!    of every duplicate, which is the position the sequential planner
//!    would have marked it at.
//!
//! By induction over levels the two planners mark the same objects in
//! the same order, at any worker count and whichever worker ran which
//! chunk. The planned survivors are then applied by
//! [`Store::apply_collection`], exactly as on the sequential path.

use odbgc_sched::{run_chunks, SchedTotals};
use odbgc_store::{ObjectId, PartitionId, Store};

/// Frontier entries per trace chunk. A level at or below this size is
/// one chunk, which the crew runs inline — so small collections never
/// pay for thread spawns.
const TRACE_CHUNK: usize = 64;

/// Crew equivalent of [`plan_survivors_into`](crate::plan_survivors_into):
/// fills `survivors` (cleared first) with `p`'s surviving objects in
/// Cheney copy order, tracing each BFS level on up to `workers` workers.
/// Counts the collection, its root scan and its trace chunks into
/// `totals`.
///
/// The survivor list is byte-identical to the sequential planner's at
/// any worker count (see the module docs for the argument).
pub fn plan_survivors_parallel(
    store: &mut Store,
    p: PartitionId,
    workers: usize,
    survivors: &mut Vec<ObjectId>,
    totals: &mut SchedTotals,
) {
    survivors.clear();
    let epoch = store.begin_visit_epoch();
    totals.collections += 1;
    // The root scan is a single chunk, so it runs inline.
    let shared: &Store = store;
    let mut found = run_chunks(workers, &[p], 1, totals, |_| shared.partition_roots(p));
    loop {
        // Canonical reduction: chunk order is frontier order, so this is
        // the sequential planner's child stream for the level.
        let level = survivors.len();
        for &t in found.iter().flatten() {
            if store.try_mark(t, epoch) {
                survivors.push(t);
            }
        }
        if survivors.len() == level {
            return;
        }
        let shared: &Store = store;
        found = run_chunks(
            workers,
            &survivors[level..],
            TRACE_CHUNK,
            totals,
            |parents| {
                let mut children = Vec::new();
                for &parent in parents {
                    shared.for_each_unmarked_child_in(parent, p, epoch, |t| children.push(t));
                }
                children
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheney::plan_survivors;
    use odbgc_store::StoreConfig;
    use odbgc_trace::{SlotIdx, TraceBuilder};

    fn replay(store: &mut Store, trace: &odbgc_trace::Trace) {
        for ev in trace.iter() {
            store.apply(ev).expect("replay");
        }
    }

    /// Observable store state for equality comparisons across paths.
    fn observables(s: &Store) -> (u64, u64, u64, u64, u64, usize) {
        (
            s.live_bytes(),
            s.garbage_bytes(),
            s.occupied_bytes(),
            s.io().app_total(),
            s.io().gc_total(),
            s.remset_entries(),
        )
    }

    /// A store with a root-reachable chain, some floating garbage, and a
    /// cross-partition reference.
    fn seeded_store() -> Store {
        let mut s = Store::new(StoreConfig::tiny());
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(16, 3);
        b.root_add(root);
        let mut prev = root;
        for _ in 0..6 {
            let o = b.create_unlinked(24, 1);
            b.slot_write(prev, SlotIdx::new(0), Some(o));
            prev = o;
        }
        for i in 0..4u32 {
            let dead = b.create_unlinked(20, 0);
            b.slot_write(root, SlotIdx::new(1), Some(dead));
            let _ = i;
        }
        b.slot_clear(root, SlotIdx::new(1));
        replay(&mut s, &b.finish());
        s
    }

    #[test]
    fn parallel_plan_matches_sequential_at_every_worker_count() {
        for workers in [1usize, 2, 4, 8] {
            let mut s = seeded_store();
            for pi in 0..s.partition_count() {
                let p = PartitionId::new(pi as u32);
                let expected = plan_survivors(&mut s, p);
                let mut got = Vec::new();
                let mut totals = SchedTotals::default();
                plan_survivors_parallel(&mut s, p, workers, &mut got, &mut totals);
                assert_eq!(expected, got, "workers={workers} partition={pi}");
                assert!(totals.packets >= 1);
            }
        }
    }

    #[test]
    fn packet_collection_matches_fused_apply() {
        let mut a = seeded_store();
        let mut b = seeded_store();
        let p = PartitionId::new(0);
        let fused = crate::collect_partition(&mut a, p);
        let mut survivors = Vec::new();
        let mut totals = SchedTotals::default();
        plan_survivors_parallel(&mut b, p, 4, &mut survivors, &mut totals);
        let planned = b.apply_collection(p, &survivors);
        assert_eq!(fused, planned);
        assert_eq!(observables(&a), observables(&b));
        assert!(
            totals.packets >= 2,
            "a root scan and a trace chunk: {totals:?}"
        );
        b.assert_consistent();
        b.assert_garbage_exact();
    }
}
