//! The collector: selection + survivor planning + application.

use odbgc_sched::SchedTotals;
use odbgc_store::{CollectionApplied, ObjectId, PartitionId, Store};

use crate::cheney::{plan_survivors, plan_survivors_into, CollectScratch};
use crate::parallel::plan_survivors_parallel;
use crate::selection::Selector;

/// Collects one specific partition: plans survivors by Cheney traversal
/// from the partition's roots and applies the compaction to the store.
///
/// ```
/// use odbgc_gc::collect_partition;
/// use odbgc_store::{Store, StoreConfig};
/// use odbgc_trace::{SlotIdx, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let root = b.create_unlinked(32, 1);
/// b.root_add(root);
/// let dead = b.create_unlinked(100, 0);
/// b.slot_write(root, SlotIdx::new(0), Some(dead));
/// b.slot_clear(root, SlotIdx::new(0));
///
/// let mut store = Store::new(StoreConfig::tiny());
/// for ev in b.finish().iter() {
///     store.apply(ev).unwrap();
/// }
/// let p = store.partition_of(root).unwrap();
/// let outcome = collect_partition(&mut store, p);
/// assert_eq!(outcome.bytes_reclaimed, 100);
/// assert_eq!(store.garbage_bytes(), 0);
/// ```
pub fn collect_partition(store: &mut Store, p: PartitionId) -> CollectionApplied {
    let survivors = plan_survivors(store, p);
    store.apply_collection(p, &survivors)
}

/// A collector bound to a partition-selection policy.
///
/// Owns the reusable planning buffers ([`CollectScratch`] plus the
/// survivor list), and selection reads the store's per-partition
/// counters through a borrowed iterator, so steady-state collections
/// through [`Collector::collect_once`] allocate nothing on the
/// single-worker path.
///
/// With [`Collector::with_workers`] above 1 the collector plans
/// survivors with [`plan_survivors_parallel`]: each BFS level is traced
/// in chunks on a scoped-thread crew (`odbgc-sched`). Store effects are
/// byte-identical at any worker count; only the volatile crew totals
/// ([`Collector::sched_totals`]) vary.
pub struct Collector {
    selector: Selector,
    scratch: CollectScratch,
    survivors: Vec<ObjectId>,
    workers: usize,
    totals: SchedTotals,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("selector", &self.selector.name())
            .field("workers", &self.workers)
            .finish()
    }
}

impl Collector {
    /// A single-worker collector using the given selection policy.
    pub fn new(selector: Selector) -> Self {
        Self::with_workers(selector, 1)
    }

    /// A collector planning survivors on a crew of up to `workers`
    /// collector workers (clamped to ≥ 1). `workers == 1` is exactly
    /// [`Collector::new`]: the sequential planner, no crew, no spawns.
    pub fn with_workers(selector: Selector, workers: usize) -> Self {
        Collector {
            selector,
            scratch: CollectScratch::new(),
            survivors: Vec::new(),
            workers: workers.max(1),
            totals: SchedTotals::default(),
        }
    }

    /// Performs one policy-directed collection. Returns `None` when the
    /// store has no partitions yet.
    pub fn collect_once(&mut self, store: &mut Store) -> Option<CollectionApplied> {
        let p = self.selector.select(store.partition_snapshots())?;
        if self.workers == 1 {
            plan_survivors_into(store, p, &mut self.scratch, &mut self.survivors);
        } else {
            plan_survivors_parallel(
                store,
                p,
                self.workers,
                &mut self.survivors,
                &mut self.totals,
            );
        }
        Some(store.apply_collection(p, &self.survivors))
    }

    /// Crew totals across every collection planned on more than one
    /// worker; all-zero for a single-worker collector.
    pub fn sched_totals(&self) -> SchedTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectorKind;
    use odbgc_store::StoreConfig;
    use odbgc_trace::{SlotIdx, TraceBuilder};

    fn replay(store: &mut Store, trace: &odbgc_trace::Trace) {
        for ev in trace.iter() {
            store.apply(ev).expect("replay");
        }
    }

    #[test]
    fn collect_once_on_empty_store_is_none() {
        let mut s = Store::new(StoreConfig::tiny());
        let mut c = Collector::new(SelectorKind::UpdatedPointer.build(0));
        assert!(c.collect_once(&mut s).is_none());
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

        let mut c = Collector::new(SelectorKind::UpdatedPointer.build(0));
        let outcome = c.collect_once(&mut s).expect("partitions exist");
        assert_eq!(outcome.partition.raw(), 1);
        assert_eq!(outcome.bytes_reclaimed, 100);
        s.assert_garbage_exact();
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

        let first = collect_partition(&mut s, p1);
        assert_eq!(first.bytes_reclaimed, 0); // target conservatively kept
        let second = collect_partition(&mut s, p0);
        assert_eq!(second.bytes_reclaimed, 20); // holder destroyed
        let third = collect_partition(&mut s, p1);
        assert_eq!(third.bytes_reclaimed, 50); // now target is free
        assert_eq!(s.garbage_bytes(), 0);
        s.assert_garbage_exact();
    }

    #[test]
    fn collection_is_idempotent_when_no_garbage() {
        let mut s = Store::new(StoreConfig::tiny());
        let (t, n) = odbgc_trace::synthetic::wide_tree(2, 2, 10);
        replay(&mut s, &t);
        let p = odbgc_store::PartitionId::new(0);
        let live_before = s.live_bytes();
        let o1 = collect_partition(&mut s, p);
        let o2 = collect_partition(&mut s, p);
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
        let outcome = collect_partition(&mut s, p);
        assert_eq!(outcome.bytes_reclaimed, 80);
        assert_eq!(s.occupied_bytes(), s.live_bytes());
        // Survivors are root followed by its children in slot order.
        assert_eq!(s.residents_of(p)[0], root);
        s.assert_garbage_exact();
    }
}
