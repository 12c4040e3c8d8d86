//! Packet-graph planning: the Cheney planner expressed as scheduler
//! buckets.
//!
//! # Determinism
//!
//! The parallel planner must reproduce the sequential planner's survivor
//! order *byte for byte* — survivor order is copy order, copy order is
//! compaction layout, and layout feeds every downstream page count. The
//! construction that guarantees this is a level-synchronized BFS:
//!
//! 1. **Trace buckets are read-only.** A `TracePacket` walks its chunk
//!    of the current frontier through [`StoreView`], *reading* visit
//!    marks but never writing them (marks were last written before the
//!    bucket opened, so concurrent packets observe a frozen snapshot).
//!    Each packet appends candidate children to its own buffer in
//!    (parent, slot) order.
//! 2. **The reduction is sequential and canonical.** After the bucket
//!    drains, the coordinator concatenates the candidate buffers in
//!    packet-index order — which is frontier order — and `try_mark`s
//!    each candidate. The concatenation equals exactly the child stream
//!    the sequential planner would have emitted for this BFS level, and
//!    `try_mark` keeps the first occurrence of every duplicate, which is
//!    the position the sequential planner would have marked it at.
//!
//! By induction over levels the two planners mark the same objects in
//! the same order, at any worker count and under any steal schedule.
//! The planned survivors are then applied by [`Store::apply_collection`],
//! exactly as on the sequential path.

use odbgc_sched::{Packet, SchedStats, Scheduler};
use odbgc_store::{ObjectId, PartitionId, Store, StoreView};

/// Frontier entries per trace packet. Frontiers at or below this size
/// produce a single packet, which the scheduler runs inline — so small
/// collections never pay for thread spawns.
const TRACE_CHUNK: usize = 64;

/// Shared context of the root-scan and trace buckets.
struct TraceCtx<'a> {
    view: StoreView<'a>,
    p: PartitionId,
    epoch: u32,
}

/// Collects the partition's collection roots (sorted, deduped).
struct RootScanPacket {
    roots: Vec<ObjectId>,
}

impl Packet<TraceCtx<'_>> for RootScanPacket {
    fn run(&mut self, ctx: &TraceCtx<'_>) {
        ctx.view.partition_roots_into(ctx.p, &mut self.roots);
    }
}

/// Traces one chunk of the current BFS frontier, emitting candidate
/// children (unmarked, in-partition) in (parent, slot) order.
struct TracePacket<'f> {
    parents: &'f [ObjectId],
    found: Vec<ObjectId>,
}

impl Packet<TraceCtx<'_>> for TracePacket<'_> {
    fn run(&mut self, ctx: &TraceCtx<'_>) {
        for &parent in self.parents {
            ctx.view
                .for_each_unmarked_child_in(parent, ctx.p, ctx.epoch, |t| self.found.push(t));
        }
    }
}

/// Packet-graph equivalent of
/// [`plan_survivors_into`](crate::plan_survivors_into): fills
/// `survivors` (cleared first) with `p`'s surviving objects in Cheney
/// copy order, running the trace as scheduler buckets. Bucket execution
/// records append to `stats`.
///
/// The survivor list is byte-identical to the sequential planner's at
/// any worker count (see the module docs for the argument).
pub fn plan_survivors_parallel(
    store: &mut Store,
    p: PartitionId,
    sched: &Scheduler,
    survivors: &mut Vec<ObjectId>,
    stats: &mut SchedStats,
) {
    survivors.clear();
    let epoch = store.begin_visit_epoch();

    // Root-scan bucket (one packet; runs inline).
    let mut root_scan = [RootScanPacket { roots: Vec::new() }];
    let bucket = {
        let ctx = TraceCtx {
            view: store.view(),
            p,
            epoch,
        };
        sched.run_bucket("root_scan", &ctx, &mut root_scan)
    };
    stats.push(bucket);
    let [RootScanPacket { roots }] = root_scan;

    // Reduce the roots: mark in canonical (sorted) order.
    let mut frontier: Vec<ObjectId> = Vec::with_capacity(roots.len());
    for &r in &roots {
        if store.try_mark(r, epoch) {
            survivors.push(r);
            frontier.push(r);
        }
    }

    // Level-synchronized trace: one bucket per BFS level.
    let mut next: Vec<ObjectId> = Vec::new();
    while !frontier.is_empty() {
        next.clear();
        {
            let mut packets: Vec<TracePacket<'_>> = frontier
                .chunks(TRACE_CHUNK)
                .map(|parents| TracePacket {
                    parents,
                    found: Vec::new(),
                })
                .collect();
            let bucket = {
                let ctx = TraceCtx {
                    view: store.view(),
                    p,
                    epoch,
                };
                sched.run_bucket("trace", &ctx, &mut packets)
            };
            stats.push(bucket);
            // Canonical reduction: packet-index order is frontier order,
            // so this is the sequential planner's child stream.
            for pkt in &packets {
                for &t in &pkt.found {
                    if store.try_mark(t, epoch) {
                        survivors.push(t);
                        next.push(t);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
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
            let sched = Scheduler::new(workers);
            for pi in 0..s.partition_count() {
                let p = PartitionId::new(pi as u32);
                let expected = plan_survivors(&mut s, p);
                let mut got = Vec::new();
                let mut stats = SchedStats::new(workers);
                plan_survivors_parallel(&mut s, p, &sched, &mut got, &mut stats);
                assert_eq!(expected, got, "workers={workers} partition={pi}");
                assert!(stats.packets() >= 1);
            }
        }
    }

    #[test]
    fn packet_collection_matches_fused_apply() {
        let mut a = seeded_store();
        let mut b = seeded_store();
        let p = PartitionId::new(0);
        let sched = Scheduler::new(4);
        let fused = crate::collect_partition(&mut a, p);
        let mut survivors = Vec::new();
        let mut stats = SchedStats::new(4);
        plan_survivors_parallel(&mut b, p, &sched, &mut survivors, &mut stats);
        let planned = b.apply_collection(p, &survivors);
        assert_eq!(fused, planned);
        assert_eq!(observables(&a), observables(&b));
        assert!(stats.buckets.iter().any(|bk| bk.label == "trace"));
        b.assert_consistent();
        b.assert_garbage_exact();
    }
}
