//! The store facade: trace replay, I/O charging, garbage tracking, and the
//! collection-application entry point used by the collector.
//!
//! Garbage tracking is reference counting in two parts. The cascade in
//! `decr_ref_tracked` sees every object whose count reaches zero the
//! moment it does. A dead *cycle* keeps its members' counts above zero,
//! so every time a holder from outside goes away and the count stays
//! positive — a decrement, or a birth pin giving way to a reference from
//! a holder that may itself hang off that pin — the object is noted in a
//! candidate buffer, and [`Store::recompute_garbage_exact`] runs
//! Bacon–Rajan trial deletion from the buffered candidates: it costs time
//! proportional to the live subgraph the candidates reach, not to the
//! heap.

use odbgc_trace::{Event, ObjectId, SlotIdx};

use crate::alloc::{self, FreeIndex};
use crate::buffer::{BufferPool, BufferStats};
use crate::config::{OverwriteSemantics, StoreConfig};
use crate::error::StoreError;
use crate::gcapi::{CollectionApplied, PartitionSnapshot};
use crate::ids::{PageKey, PartitionId};
use crate::io::{IoClass, IoLedger};
use crate::object::{CycleState, ObjState, ObjectInfo, PackedSlot};
use crate::partition::Partition;
use crate::remset::RemSets;
use crate::tracker::GarbageLedger;

/// What applying one event did, for callers that want per-event deltas
/// without re-querying counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Pointer overwrites this event contributed to the overwrite clock
    /// (0 or 1).
    pub overwrites: u32,
    /// Bytes that became garbage as a direct consequence of this event.
    pub garbage_created: u64,
}

/// The result of a full reachability scan ([`Store::compute_reachable`]):
/// a dense bitmap over object ids. Replaces the old `HashSet<ObjectId>`
/// return — membership is an array index, iteration is a linear scan.
#[derive(Debug, Clone)]
pub struct ReachSet {
    bits: Vec<bool>,
    len: usize,
}

impl ReachSet {
    /// Is `id` reachable?
    pub fn contains(&self, id: ObjectId) -> bool {
        self.bits.get(id.raw() as usize).copied().unwrap_or(false)
    }

    /// Number of reachable objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The reachable ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| ObjectId::new(i as u64))
    }
}

/// A partitioned object store replaying database events.
///
/// See the crate docs for the model. All mutation goes through
/// [`Store::apply`] (application events) and [`Store::collect`] (the
/// collector; [`Store::apply_collection`] applies a survivor list
/// planned elsewhere).
///
/// ```
/// use odbgc_store::{Store, StoreConfig};
/// use odbgc_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let root = b.create_unlinked(64, 1);
/// b.root_add(root);
/// let child = b.create_unlinked(256, 0);
/// b.slot_write(root, odbgc_trace::SlotIdx::new(0), Some(child));
/// b.slot_clear(root, odbgc_trace::SlotIdx::new(0)); // child dies
///
/// let mut store = Store::new(StoreConfig::tiny());
/// for ev in b.finish().iter() {
///     store.apply(ev).unwrap();
/// }
/// assert_eq!(store.garbage_bytes(), 256);
/// assert_eq!(store.overwrite_clock(), 1); // only the kill overwrote
/// assert!(store.io().app_total() > 0);    // replay charged page I/O
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    config: StoreConfig,
    /// Object table indexed by raw object id (ids are dense in practice).
    objects: Vec<Option<ObjectInfo>>,
    partitions: Vec<Partition>,
    remsets: RemSets,
    buffer: BufferPool,
    io: IoLedger,
    garbage: GarbageLedger,
    /// Total pointer overwrites (the SAGA time base).
    overwrite_clock: u64,
    /// Total bytes ever allocated (the allocation time base of the
    /// programming-language-style baseline policy).
    alloc_clock: u64,
    /// Total live bytes across partitions.
    live_bytes: u64,
    /// Objects currently present (live + garbage), for O(1) census.
    present_objects: u64,
    /// Sum of partition capacities (`DBSize`), maintained so the
    /// simulator can sample it every event without an O(partitions) scan.
    db_size: u64,
    /// Sum of outstanding per-partition overwrite counters (`Σ PO(p)`),
    /// maintained for the same reason.
    outstanding_overwrites: u64,
    /// Last visit epoch handed out by [`Store::begin_visit_epoch`].
    /// Objects whose `mark_epoch` equals the current traversal's epoch
    /// are "visited"; a new traversal is an O(1) counter bump, not an
    /// O(visited) set clear.
    mark_epoch: u32,
    /// Reusable stack for the refcount cascade and trial deletion.
    /// Always left empty between uses.
    cascade_scratch: Vec<ObjectId>,
    /// Cycle candidates: table indexes of objects that lost an external
    /// holder while their count stayed positive, one entry per object in
    /// [`CycleState::Buffered`] (so never more entries than the object
    /// table has). Entries whose object has since died or
    /// been destroyed are dropped when
    /// [`Store::recompute_garbage_exact`] drains the buffer.
    candidates: Vec<u32>,
    /// Edges followed by the gray pass of every reconcile so far.
    reconcile_visited: u64,
    /// Reusable buffer for the doomed-object list of a collection.
    doomed_scratch: Vec<ObjectId>,
    /// Each partition's free bytes, kept in lockstep with `partitions`
    /// under a max-tree: [`alloc::place`] finds the leftmost partition
    /// with room in O(log partitions), and a collection or grow that
    /// frees space updates one leaf-to-root path.
    free_index: FreeIndex,
    /// `log2(page_size)`: [`StoreConfig::validate`] admits only powers
    /// of two, so the per-event page math shifts instead of dividing.
    page_shift: u32,
    /// Every object's pointer slots, packed end to end. An object's
    /// [`ObjectInfo::slot_range`] addresses its span. One store-wide
    /// vector replaces a per-object boxed slice, so creating an object
    /// is an amortized-free `extend` instead of a heap allocation (and
    /// dropping the store frees one buffer instead of one per object).
    /// Slot counts are immutable after creation, so spans never move.
    slot_arena: Vec<PackedSlot>,
}

/// What the cycle detector still knows about an object once the
/// candidate that vouched for it has been drained.
#[inline]
fn root_or_unknown(info: &ObjectInfo) -> CycleState {
    if info.is_root {
        CycleState::Anchored
    } else {
        CycleState::Unknown
    }
}

/// Buffers `id` as a cycle candidate, once. Slot-less objects cannot be
/// on a cycle and are never buffered.
#[inline]
fn nominate(candidates: &mut Vec<u32>, info: &mut ObjectInfo, id: ObjectId) {
    if info.slots_len > 0 && info.cycle != CycleState::Buffered {
        info.cycle = CycleState::Buffered;
        // Lossless: `apply_create` keeps the object table within `u32`.
        candidates.push(id.raw() as u32);
    }
}

impl Store {
    /// An empty store with the given geometry.
    pub fn new(config: StoreConfig) -> Self {
        config.validate();
        let buffer = BufferPool::new(config.buffer_pages);
        let page_shift = config.page_size.trailing_zeros();
        Store {
            config,
            objects: Vec::new(),
            partitions: Vec::new(),
            remsets: RemSets::new(),
            buffer,
            io: IoLedger::new(),
            garbage: GarbageLedger::new(),
            overwrite_clock: 0,
            alloc_clock: 0,
            live_bytes: 0,
            present_objects: 0,
            db_size: 0,
            outstanding_overwrites: 0,
            mark_epoch: 0,
            cascade_scratch: Vec::new(),
            candidates: Vec::new(),
            reconcile_visited: 0,
            doomed_scratch: Vec::new(),
            free_index: FreeIndex::new(),
            page_shift,
            slot_arena: Vec::new(),
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Object-table helpers
    // ------------------------------------------------------------------

    fn info(&self, id: ObjectId) -> Result<&ObjectInfo, StoreError> {
        match self.objects.get(id.raw() as usize) {
            Some(Some(info)) => Ok(info),
            _ => Err(StoreError::UnknownObject(id)),
        }
    }

    fn info_mut(&mut self, id: ObjectId) -> Result<&mut ObjectInfo, StoreError> {
        match self.objects.get_mut(id.raw() as usize) {
            Some(Some(info)) => Ok(info),
            _ => Err(StoreError::UnknownObject(id)),
        }
    }

    /// Checks the object may legally be touched by the application.
    fn check_touchable(&self, id: ObjectId) -> Result<&ObjectInfo, StoreError> {
        let info = self.info(id)?;
        match info.state {
            ObjState::Live => Ok(info),
            ObjState::Garbage => Err(StoreError::TouchedGarbage(id)),
            ObjState::Destroyed => Err(StoreError::UseAfterFree(id)),
        }
    }

    // ------------------------------------------------------------------
    // Visit epochs
    // ------------------------------------------------------------------

    /// Starts a new visit epoch and returns it. An object is "visited" in
    /// the current traversal iff its `mark_epoch` equals the returned
    /// value, so starting a traversal costs O(1) instead of clearing (or
    /// hashing into) a visited set.
    ///
    /// On the (astronomically rare) wraparound at `u32::MAX`, every
    /// object's mark is reset to 0 — the reserved "never marked" value —
    /// and epochs restart at 1, so a stale mark can never alias a fresh
    /// epoch.
    fn begin_visit_epoch(&mut self) -> u32 {
        self.begin_visit_epochs(1)
    }

    /// Starts `n` consecutive visit epochs at once and returns the first.
    /// A traversal that needs several colours takes them all here, before
    /// it writes its first mark: the wraparound reset zeroes every mark,
    /// so it must not happen between two colours of one traversal.
    fn begin_visit_epochs(&mut self, n: u32) -> u32 {
        if self.mark_epoch > u32::MAX - n {
            for info in self.objects.iter_mut().flatten() {
                info.mark_epoch = 0;
            }
            self.mark_epoch = 0;
        }
        let first = self.mark_epoch + 1;
        self.mark_epoch += n;
        first
    }

    // ------------------------------------------------------------------
    // Buffer / I/O helpers
    // ------------------------------------------------------------------

    /// Touches the pages covering `[offset, offset+size)` of `partition`.
    fn touch_extent(
        &mut self,
        partition: PartitionId,
        offset: u32,
        size: u32,
        dirty: bool,
        class: IoClass,
    ) {
        let s = self.page_shift;
        for page in offset >> s..=(offset + size - 1) >> s {
            self.buffer
                .touch(PageKey::new(partition, page), dirty, class, &mut self.io);
        }
    }

    /// Touches all pages of an object.
    fn touch_object(&mut self, id: ObjectId, dirty: bool) {
        let info = self.info(id).expect("caller validated id");
        let (partition, offset, size) = (info.partition, info.offset, info.size);
        self.touch_extent(partition, offset, size, dirty, IoClass::App);
    }

    // ------------------------------------------------------------------
    // Reference counting / garbage cascade
    // ------------------------------------------------------------------

    /// Counts a new incoming reference. The first reference an object ever
    /// receives *replaces* its birth pin (the creating program register is
    /// assumed dead once the object is linked into the database), so the
    /// count is unchanged in that case.
    ///
    /// `holder_anchored` says the new holder is a root or an object that
    /// is not [`CycleState::Unknown`]: `id` then shares its anchor. A pin
    /// taken over by any other holder goes away without a decrement, and
    /// that holder may be reachable only through `id` — a cycle closed
    /// over the pin — so `id` becomes a cycle candidate.
    ///
    /// Returns the target's partition — callers on the slot-write path
    /// need it for remset maintenance and would otherwise pay a second
    /// object-table lookup.
    fn incr_ref(&mut self, id: ObjectId, holder_anchored: bool) -> PartitionId {
        self.incr_ref_checked(id, holder_anchored)
            .expect("refcount target must be validated by the caller")
    }

    /// [`Store::incr_ref`] with the touchability check folded into its
    /// lookup: the slot-write path would otherwise pay two object-table
    /// lookups (validate, then count) for every non-null store.
    fn incr_ref_checked(
        &mut self,
        id: ObjectId,
        holder_anchored: bool,
    ) -> Result<PartitionId, StoreError> {
        let info = match self.objects.get_mut(id.raw() as usize) {
            Some(Some(info)) => info,
            _ => return Err(StoreError::UnknownObject(id)),
        };
        match info.state {
            ObjState::Live => {}
            ObjState::Garbage => return Err(StoreError::TouchedGarbage(id)),
            ObjState::Destroyed => return Err(StoreError::UseAfterFree(id)),
        }
        let p = info.partition;
        if holder_anchored && info.cycle == CycleState::Unknown {
            info.cycle = CycleState::Anchored;
        }
        if info.birth_pin {
            info.birth_pin = false;
            if !holder_anchored {
                nominate(&mut self.candidates, info, id);
            }
            let pins = &mut self.partitions[p.index()].pinned_residents;
            let pos = pins
                .iter()
                .position(|&x| x == id)
                .expect("pinned-resident index out of sync");
            pins.swap_remove(pos);
        } else {
            info.refcount += 1;
        }
        Ok(p)
    }

    /// Decrements `id`'s reference count; if it reaches zero while live,
    /// the object becomes garbage and its own references die (cascade).
    /// A live object whose count stays positive may have lost its last
    /// holder outside a cycle, so it becomes a cycle candidate.
    /// Returns bytes of garbage created by the cascade.
    ///
    /// The cascade runs on the store-owned scratch stack (no allocation)
    /// and does the decrement, the garbage transition, and the child
    /// discovery on a single object-table lookup per visited object.
    fn decr_ref(&mut self, id: ObjectId) -> u64 {
        self.decr_ref_tracked(id).1
    }

    /// [`Store::decr_ref`], additionally returning `id`'s partition read
    /// off the lookup that performs the first decrement — the slot-write
    /// path needs it for remset maintenance and would otherwise pay a
    /// separate object-table lookup.
    fn decr_ref_tracked(&mut self, id: ObjectId) -> (PartitionId, u64) {
        let mut id_partition = None;
        let mut created = 0;
        let mut stack = std::mem::take(&mut self.cascade_scratch);
        debug_assert!(stack.is_empty(), "cascade scratch left dirty");
        stack.push(id);
        while let Some(cur) = stack.pop() {
            let info = self
                .objects
                .get_mut(cur.raw() as usize)
                .and_then(Option::as_mut)
                .expect("refcount target must exist");
            if id_partition.is_none() {
                // First pop is `id` itself.
                id_partition = Some(info.partition);
            }
            debug_assert!(info.refcount > 0, "refcount underflow on {cur}");
            info.refcount -= 1;
            if info.state != ObjState::Live {
                continue;
            }
            if info.refcount > 0 {
                nominate(&mut self.candidates, info, cur);
            } else {
                info.state = ObjState::Garbage;
                let (size, partition) = (u64::from(info.size), info.partition);
                let range = info.slot_range();
                // The dead object's outgoing references no longer count.
                stack.extend(self.slot_arena[range].iter().filter_map(|s| s.get()));
                let part = &mut self.partitions[partition.index()];
                part.live_bytes -= size;
                part.garbage_bytes += size;
                self.live_bytes -= size;
                self.garbage.record_generated(size);
                created += size;
            }
        }
        self.cascade_scratch = stack;
        (id_partition.expect("loop ran at least once"), created)
    }

    /// Marks a live object as garbage, updating ledgers. Does *not* touch
    /// reference counts. Returns the object's size.
    fn transition_to_garbage(&mut self, id: ObjectId) -> u64 {
        let info = self.info_mut(id).expect("object must exist");
        debug_assert_eq!(info.state, ObjState::Live);
        info.state = ObjState::Garbage;
        let (size, partition) = (u64::from(info.size), info.partition);
        self.partitions[partition.index()].live_bytes -= size;
        self.partitions[partition.index()].garbage_bytes += size;
        self.live_bytes -= size;
        self.garbage.record_generated(size);
        size
    }

    // ------------------------------------------------------------------
    // Event application
    // ------------------------------------------------------------------

    /// Applies one application event, charging I/O and updating garbage
    /// accounting.
    pub fn apply(&mut self, ev: &Event) -> Result<ApplyOutcome, StoreError> {
        match ev {
            Event::Create { id, size, slots } => self.apply_create(*id, *size, slots),
            Event::Access { id } => {
                self.check_touchable(*id)?;
                self.touch_object(*id, false);
                Ok(ApplyOutcome::default())
            }
            Event::SlotWrite { src, slot, new } => self.apply_slot_write(*src, *slot, *new),
            Event::RootAdd { id } => {
                let info = self.check_touchable(*id)?;
                if info.is_root {
                    return Err(StoreError::DuplicateRoot(*id));
                }
                let p = info.partition;
                self.info_mut(*id).expect("validated").is_root = true;
                self.partitions[p.index()].root_residents.push(*id);
                self.incr_ref(*id, true);
                Ok(ApplyOutcome::default())
            }
            Event::RootRemove { id } => {
                let info = self.check_touchable(*id)?;
                if !info.is_root {
                    return Err(StoreError::NotARoot(*id));
                }
                let p = info.partition;
                self.info_mut(*id).expect("validated").is_root = false;
                let roots = &mut self.partitions[p.index()].root_residents;
                let pos = roots
                    .iter()
                    .position(|x| x == id)
                    .expect("root-resident index out of sync");
                roots.swap_remove(pos);
                let garbage_created = self.decr_ref(*id);
                Ok(ApplyOutcome {
                    overwrites: 0,
                    garbage_created,
                })
            }
            Event::Phase { .. } => Ok(ApplyOutcome::default()),
        }
    }

    fn apply_create(
        &mut self,
        id: ObjectId,
        size: u32,
        slots: &[Option<ObjectId>],
    ) -> Result<ApplyOutcome, StoreError> {
        if size == 0 {
            return Err(StoreError::ZeroSizeObject(id));
        }
        if matches!(self.objects.get(id.raw() as usize), Some(Some(_))) {
            return Err(StoreError::DuplicateId(id));
        }
        // Validate targets before mutating anything.
        for target in slots.iter().flatten() {
            self.check_touchable(*target)?;
        }

        let partitions_before = self.partitions.len();
        let (partition, offset) = alloc::place(
            &mut self.partitions,
            &mut self.free_index,
            &self.config,
            size,
        )
        .ok_or(StoreError::ObjectTooLarge { object: id, size })?;
        for p in &self.partitions[partitions_before..] {
            self.db_size += u64::from(p.capacity);
        }
        let idx = id.raw() as usize;
        if self.objects.len() <= idx {
            // The candidate buffer stores table indexes as `u32`.
            assert!(idx < u32::MAX as usize, "object table exceeds u32 range");
            self.objects.resize_with(idx + 1, || None);
        }
        let slots_start =
            u32::try_from(self.slot_arena.len()).expect("slot arena exceeds u32 range");
        // Stored local; the pointer stores below mark the far ones.
        self.slot_arena.extend(
            slots
                .iter()
                .map(|s| s.map_or(PackedSlot::NULL, |t| PackedSlot::to(t, false))),
        );
        self.objects[idx] = Some(ObjectInfo::new(
            size,
            partition,
            offset,
            slots_start,
            slots.len() as u32,
        ));
        let part = &mut self.partitions[partition.index()];
        part.live_bytes += u64::from(size);
        part.residents.push(id);
        part.pinned_residents.push(id); // newborns carry the birth pin
        self.live_bytes += u64::from(size);
        self.present_objects += 1;
        self.alloc_clock += u64::from(size);

        // Initial pointer stores: count references, remember
        // cross-partition edges and mark their slots far, but these are
        // not overwrites.
        for (i, target) in slots.iter().enumerate() {
            if let Some(t) = target {
                // The holder is the newborn itself: pinned, not anchored.
                let tp = self.incr_ref(*t, false);
                self.remsets
                    .insert(id, SlotIdx::new(i as u32), partition, *t, tp);
                if tp != partition {
                    self.slot_arena[slots_start as usize + i] = PackedSlot::to(*t, true);
                }
            }
        }

        self.touch_extent(partition, offset, size, true, IoClass::App);
        Ok(ApplyOutcome::default())
    }

    fn apply_slot_write(
        &mut self,
        src: ObjectId,
        slot: SlotIdx,
        new: Option<ObjectId>,
    ) -> Result<ApplyOutcome, StoreError> {
        // One validating lookup of `src` yields everything the write
        // needs: partition and offset for the header touch, the old slot
        // value, and the bounds check.
        let info = self.check_touchable(src)?;
        let slot_count = info.slots_len as usize;
        if slot.index() >= slot_count {
            return Err(StoreError::SlotOutOfBounds {
                object: src,
                slot,
                slot_count,
            });
        }
        let (src_partition, src_offset) = (info.partition, info.offset);
        let src_anchored = info.cycle != CycleState::Unknown;
        let arena_idx = info.slots_start as usize + slot.index();
        let old = self.slot_arena[arena_idx].get();

        // Count the incoming reference first: the validating lookup
        // doubles as the touchability check (one object-table access,
        // not two), and installing the new reference before the old one
        // is released means a self-assignment never sees a transient
        // zero refcount. Nothing has been mutated yet if this errors.
        let (new_partition, packed) = match new {
            Some(n) => {
                let np = self.incr_ref_checked(n, src_anchored)?;
                self.remsets.insert(src, slot, src_partition, n, np);
                (Some(np), PackedSlot::to(n, np != src_partition))
            }
            None => (None, PackedSlot::NULL),
        };

        // The slot write hits the object header page.
        self.touch_extent(src_partition, src_offset, 1, true, IoClass::App);
        self.slot_arena[arena_idx] = packed;

        let mut outcome = ApplyOutcome::default();
        match self.config.overwrite_semantics {
            OverwriteSemantics::NonNullOld => {
                if old.is_some() {
                    outcome.overwrites = 1;
                }
            }
            OverwriteSemantics::AllStores => outcome.overwrites = 1,
        }
        self.overwrite_clock += u64::from(outcome.overwrites);

        if let Some(o) = old {
            let (old_partition, garbage_created) = self.decr_ref_tracked(o);
            // If the new pointer targets a different partition (or is
            // null), the old remembered entry must go; if it targets the
            // same partition the insert above already replaced it.
            if new_partition != Some(old_partition) {
                self.remsets.remove(src, slot, old_partition);
            }
            self.partitions[old_partition.index()].overwrites += 1;
            self.outstanding_overwrites += 1;
            outcome.garbage_created = garbage_created;
        }
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The cumulative page-I/O ledger.
    pub fn io(&self) -> &IoLedger {
        &self.io
    }

    /// Buffer-pool hit/miss statistics.
    pub fn buffer_stats(&self) -> BufferStats {
        self.buffer.stats()
    }

    /// Cumulative pointer overwrites (the SAGA time base).
    pub fn overwrite_clock(&self) -> u64 {
        self.overwrite_clock
    }

    /// Cumulative bytes allocated by `Create` events.
    pub fn alloc_clock(&self) -> u64 {
        self.alloc_clock
    }

    /// Sum of outstanding per-partition overwrite counters (the FGS state
    /// `Σ PO(p)`). O(1): maintained incrementally, not scanned.
    pub fn total_outstanding_overwrites(&self) -> u64 {
        self.outstanding_overwrites
    }

    /// Number of allocated partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// `DBSize(t)`: allocated storage (sum of partition capacities).
    /// O(1): maintained incrementally, not scanned.
    pub fn db_size_bytes(&self) -> u64 {
        self.db_size
    }

    /// Grows partition `p` by `extra_pages` pages of backing storage,
    /// e.g. to model file-system extension outside object allocation.
    /// `DBSize` grows accordingly.
    pub fn grow_partition(&mut self, p: PartitionId, extra_pages: u32) {
        let added = self.partitions[p.index()].grow(extra_pages, self.config.page_size);
        self.db_size += added;
        self.free_index
            .set(p.index(), self.partitions[p.index()].free_bytes());
    }

    /// Bytes occupied by objects (live + garbage).
    pub fn occupied_bytes(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| u64::from(p.high_water))
            .sum()
    }

    /// Bytes of live (reachable) objects.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// `ActGarb(t)` per the incremental tracker.
    pub fn garbage_bytes(&self) -> u64 {
        self.garbage.actual()
    }

    /// `TotGarb(t)`: cumulative garbage generated.
    pub fn total_garbage_generated(&self) -> u64 {
        self.garbage.total_generated()
    }

    /// `TotColl(t)`: cumulative garbage collected.
    pub fn total_garbage_collected(&self) -> u64 {
        self.garbage.total_collected()
    }

    /// Objects currently present (live + garbage).
    pub fn present_objects(&self) -> u64 {
        self.present_objects
    }

    /// Length of the object table: one past the largest id an applied
    /// `Create` has used, so the smallest id no object has ever held.
    /// Destroying objects never shrinks it, and a refused `Create`
    /// leaves it unchanged.
    pub fn object_table_len(&self) -> u64 {
        self.objects.len() as u64
    }

    /// Current root set, in id order: the objects whose root flag is set.
    pub fn roots(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.as_ref().is_some_and(|i| i.is_root))
            .map(|(raw, _)| ObjectId::new(raw as u64))
    }

    /// Is the object present (live or garbage, not destroyed)?
    pub fn is_present(&self, id: ObjectId) -> bool {
        self.info(id).map(|i| i.is_present()).unwrap_or(false)
    }

    /// Is the object live per the tracker?
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.info(id).map(|i| i.is_live()).unwrap_or(false)
    }

    /// The object's slot contents.
    pub fn slots_of(
        &self,
        id: ObjectId,
    ) -> Result<impl Iterator<Item = Option<ObjectId>> + '_, StoreError> {
        Ok(self.slot_arena[self.info(id)?.slot_range()]
            .iter()
            .map(|s| s.get()))
    }

    /// The object's partition.
    pub fn partition_of(&self, id: ObjectId) -> Result<PartitionId, StoreError> {
        Ok(self.info(id)?.partition)
    }

    /// The byte offset of the object within its partition.
    pub fn offset_of(&self, id: ObjectId) -> Result<u32, StoreError> {
        Ok(self.info(id)?.offset)
    }

    /// The object's size in bytes.
    pub fn size_of(&self, id: ObjectId) -> Result<u32, StoreError> {
        Ok(self.info(id)?.size)
    }

    /// The object's reference count (test/diagnostic use).
    pub fn refcount_of(&self, id: ObjectId) -> Result<u32, StoreError> {
        Ok(self.info(id)?.refcount)
    }

    /// Objects resident in `p` (live + garbage) in layout order.
    pub fn residents_of(&self, p: PartitionId) -> &[ObjectId] {
        &self.partitions[p.index()].residents
    }

    /// Collection roots for partition `p`, sorted and distinct: external
    /// (remembered) references into `p`, global roots resident in `p`,
    /// and birth-pinned residents of `p`, which application registers
    /// hold. The reference a collection is checked against;
    /// [`Store::collect`] selects the same roots by marking them.
    pub fn partition_roots(&self, p: PartitionId) -> Vec<ObjectId> {
        let mut roots = Vec::new();
        self.gather_root_entries(p, &mut roots);
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Appends one entry per collection root reference of `p` to `out`:
    /// every remembered entry into `p`, every resident global root and
    /// every birth-pinned resident. A root held from several places
    /// appears once per holder. O(roots-in-p): each component comes from
    /// an index maintained incrementally.
    fn gather_root_entries(&self, p: PartitionId, out: &mut Vec<ObjectId>) {
        self.remsets.external_targets_into(p, out);
        let part = &self.partitions[p.index()];
        out.extend_from_slice(&part.root_residents);
        out.extend_from_slice(&part.pinned_residents);
    }

    /// Per-partition facts for selection policies, in id order, read
    /// from the maintained counters without allocating.
    pub fn partition_snapshots(&self) -> impl ExactSizeIterator<Item = PartitionSnapshot> + '_ {
        self.partitions
            .iter()
            .enumerate()
            .map(|(i, p)| PartitionSnapshot {
                id: PartitionId::new(i as u32),
                overwrites: p.overwrites,
                occupied_bytes: p.high_water,
                capacity: p.capacity,
                residents: p.residents.len(),
                collections: p.collections,
                garbage_bytes: p.garbage_bytes,
                live_bytes: p.live_bytes,
            })
    }

    /// Total remembered-set entries (space-overhead metric).
    pub fn remset_entries(&self) -> usize {
        self.remsets.total_entries()
    }

    // ------------------------------------------------------------------
    // Exact reachability (oracle / validation)
    // ------------------------------------------------------------------

    /// Computes the set of objects reachable from the root set (including
    /// birth-pinned newborns, which are held by application registers).
    ///
    /// `&self` diagnostic/test entry point backed by a dense bitmap (no
    /// hashing), and the full-heap reference
    /// [`Store::assert_garbage_exact`] holds the per-collection
    /// [`Store::recompute_garbage_exact`] against.
    pub fn compute_reachable(&self) -> ReachSet {
        let mut bits = vec![false; self.objects.len()];
        let mut len = 0usize;
        let mut stack: Vec<ObjectId> = Vec::new();
        for part in &self.partitions {
            stack.extend_from_slice(&part.root_residents);
            stack.extend_from_slice(&part.pinned_residents);
        }
        while let Some(cur) = stack.pop() {
            let Some(flag) = bits.get_mut(cur.raw() as usize) else {
                continue;
            };
            if *flag {
                continue;
            }
            *flag = true;
            len += 1;
            if let Ok(info) = self.info(cur) {
                debug_assert!(info.is_present());
                stack.extend(
                    self.slot_arena[info.slot_range()]
                        .iter()
                        .filter_map(|s| s.get()),
                );
            }
        }
        ReachSet { bits, len }
    }

    /// Makes the tracker exact: finds the cyclic structures that died
    /// without any reference count reaching zero, transitions them to
    /// garbage, and returns `ActGarb` afterwards.
    ///
    /// Synchronous Bacon–Rajan trial deletion from the candidate buffer.
    /// Every dead cycle that nothing else dead points into has a buffered
    /// member, because its last holder from outside went away in one of
    /// two ways. A decrement buffers the member it hits. A birth pin taken
    /// over by a holder on the cycle buffers the newborn unless that
    /// holder is [`CycleState::Anchored`] or buffered itself — and then a
    /// root leads to the holder, so the cycle is not dead, or a candidate
    /// does, so it is on the cycle or something dead points into the
    /// cycle after all. (`check_consistency` audits that reading of
    /// `Anchored`.) Everything dead is therefore reachable from a
    /// candidate, so:
    ///
    /// 1. *gray*: from the surviving candidates, subtract every reference
    ///    held inside the live subgraph they reach — what is left on an
    ///    object is its count from outside that subgraph;
    /// 2. *scan*: an object left with a positive count is held from
    ///    outside, so it and everything it reaches turn *black* and get
    ///    their references back; the rest stay *white*;
    /// 3. *collect*: white objects become garbage. The references they
    ///    held were subtracted in pass 1 and never restored, which is
    ///    exactly the "references from live holders" rule for counts.
    ///
    /// The colours are three visit epochs. Cost: O(1) with an empty
    /// buffer, otherwise three passes that each visit an object of the
    /// reached subgraph at most once — the whole heap only if a candidate
    /// reaches it. Runs at collection frequency and in tests;
    /// [`Store::assert_garbage_exact`] checks the result against
    /// [`Store::compute_reachable`].
    pub fn recompute_garbage_exact(&mut self) -> u64 {
        if self.candidates.is_empty() {
            return self.garbage.actual();
        }
        // All three before the first mark is written: a wraparound reset
        // between two of them would erase the first colour.
        let gray = self.begin_visit_epochs(3);
        let (white, black) = (gray + 1, gray + 2);
        let mut drained = std::mem::take(&mut self.candidates);
        let mut stack = std::mem::take(&mut self.cascade_scratch);
        debug_assert!(stack.is_empty(), "cascade scratch left dirty");

        // Drain. Candidates that died by cascade or were destroyed by a
        // sweep since they were buffered drop out, and so do roots: a
        // root is not the member a dead cycle is remembered by, and
        // removing it from the root set buffers it again. The rest are
        // distinct (one entry per object) and start out gray.
        drained.retain(|&raw| {
            let info = self.objects[raw as usize]
                .as_mut()
                .expect("buffered object exists");
            info.cycle = root_or_unknown(info);
            let keep = info.is_live() && !info.is_root;
            if keep {
                info.mark_epoch = gray;
            }
            keep
        });
        let seeds = drained.iter().map(|&raw| ObjectId::new(u64::from(raw)));

        // Pass 1 (gray).
        stack.extend(seeds.clone());
        let mut visited = 0u64;
        while let Some(cur) = stack.pop() {
            let range = self.objects[cur.raw() as usize]
                .as_ref()
                .expect("gray object exists")
                .slot_range();
            for t in self.slot_arena[range].iter().filter_map(|s| s.get()) {
                let info = self.objects[t.raw() as usize]
                    .as_mut()
                    .expect("slot target exists");
                debug_assert!(info.is_live(), "live {cur} references dead {t}");
                info.refcount -= 1;
                visited += 1;
                if info.mark_epoch != gray {
                    info.mark_epoch = gray;
                    // What anchored it may have been a candidate that is
                    // no longer buffered.
                    info.cycle = root_or_unknown(info);
                    stack.push(t);
                }
            }
        }
        self.reconcile_visited += visited;

        // Pass 2 (scan). Every target of a gray object was itself made
        // gray, so below a mark is always one of the three colours.
        stack.extend(seeds.clone());
        while let Some(cur) = stack.pop() {
            let info = self.objects[cur.raw() as usize]
                .as_mut()
                .expect("gray object exists");
            if info.mark_epoch != gray {
                continue;
            }
            let range = info.slot_range();
            if info.refcount == 0 {
                info.mark_epoch = white;
                stack.extend(self.slot_arena[range].iter().filter_map(|s| s.get()));
                continue;
            }
            // Held from outside: blacken everything `cur` reaches, above
            // the scan's own entries on the shared stack.
            info.mark_epoch = black;
            let floor = stack.len();
            stack.push(cur);
            while stack.len() > floor {
                let held = stack.pop().expect("stack is above the floor");
                let range = self.objects[held.raw() as usize]
                    .as_ref()
                    .expect("black object exists")
                    .slot_range();
                for t in self.slot_arena[range].iter().filter_map(|s| s.get()) {
                    let info = self.objects[t.raw() as usize]
                        .as_mut()
                        .expect("slot target exists");
                    info.refcount += 1;
                    if info.mark_epoch != black {
                        debug_assert!(info.mark_epoch == gray || info.mark_epoch == white);
                        info.mark_epoch = black;
                        stack.push(t);
                    }
                }
            }
        }

        // Pass 3 (collect). Every white object is on a white path from a
        // candidate: a parent that turned black would have blackened it.
        stack.extend(seeds);
        while let Some(cur) = stack.pop() {
            let info = self.objects[cur.raw() as usize]
                .as_ref()
                .expect("scanned object exists");
            if info.mark_epoch != white || !info.is_live() {
                continue;
            }
            let range = info.slot_range();
            self.transition_to_garbage(cur);
            stack.extend(self.slot_arena[range].iter().filter_map(|s| s.get()));
        }

        drained.clear();
        self.candidates = drained;
        self.cascade_scratch = stack;
        self.garbage.actual()
    }

    /// Edges followed by the gray pass of every
    /// [`Store::recompute_garbage_exact`] so far: the work the reconcile
    /// did, as a count that repeats exactly.
    pub fn reconcile_visited(&self) -> u64 {
        self.reconcile_visited
    }

    /// Free-index nodes read by every first-fit search so far
    /// ([`FreeIndex::probes`]): the work placement did, as a count that
    /// repeats exactly.
    pub fn placement_probes(&self) -> u64 {
        self.free_index.probes()
    }

    /// Deep structural audit: re-derives every piece of redundant state
    /// from first principles and compares. Returns the first discrepancy
    /// found. Intended for tests and debugging (O(objects + pointers)).
    ///
    /// Checked invariants:
    /// 1. every cross-partition pointer from a present object has exactly
    ///    one remembered-set entry, keyed by its slot and naming its
    ///    target, and every entry matches a real slot; a non-null slot's
    ///    FAR bit is set exactly when its target's partition differs from
    ///    its holder's;
    /// 2. every root is live, and every reference count equals
    ///    live-holder references + root pin + birth pin;
    /// 3. partition live/garbage byte tallies and the residents lists
    ///    match the object table, and object extents do not overlap;
    /// 4. the global live/occupied/garbage ledgers equal the per-partition
    ///    sums;
    /// 5. the derived indexes — per-partition root and pin lists, visit
    ///    epochs, the first-fit free index, the O(1) counters — match
    ///    what they are derived from;
    /// 6. an object is [`CycleState::Buffered`] iff its table index
    ///    appears in the cycle-candidate buffer, exactly once, and every
    ///    live [`CycleState::Anchored`] object that can hold a pointer is
    ///    reachable through live objects from a root or a candidate.
    pub fn check_consistency(&self) -> Result<(), String> {
        // -- remembered sets ------------------------------------------------
        // Structural audit first: if a collection tore a
        // table's internals, the semantic checks below could loop or
        // report nonsense.
        self.remsets.check_structure()?;
        let mut expected_entries = 0usize;
        for (raw, slot) in self.objects.iter().enumerate() {
            let Some(info) = slot else { continue };
            if !info.is_present() {
                continue;
            }
            let src = ObjectId::new(raw as u64);
            for (i, target) in self.slot_arena[info.slot_range()].iter().enumerate() {
                let Some(t) = target.get() else { continue };
                let tinfo = self
                    .info(t)
                    .map_err(|e| format!("{src} slot {i} dangles: {e}"))?;
                if !tinfo.is_present() {
                    return Err(format!("{src} slot {i} references destroyed {t}"));
                }
                if target.far().is_some() != (tinfo.partition != info.partition) {
                    return Err(format!(
                        "{src} slot {i} -> {t}: FAR bit {} with {src} in {} and {t} in {}",
                        u8::from(target.far().is_some()),
                        info.partition,
                        tinfo.partition
                    ));
                }
                if tinfo.partition != info.partition {
                    expected_entries += 1;
                    let remembered =
                        self.remsets
                            .target_of(src, SlotIdx::new(i as u32), tinfo.partition);
                    if remembered != Some(t) {
                        return Err(format!(
                            "missing remembered entry for {src} slot {i} -> {t}"
                        ));
                    }
                }
            }
        }
        if expected_entries != self.remsets.total_entries() {
            return Err(format!(
                "remembered sets hold {} entries, expected {}",
                self.remsets.total_entries(),
                expected_entries
            ));
        }

        // -- reference counts -----------------------------------------------
        let mut counts = vec![0u32; self.objects.len()];
        for slot in self.objects.iter() {
            let Some(info) = slot else { continue };
            if info.is_live() {
                for t in self.slot_arena[info.slot_range()]
                    .iter()
                    .filter_map(|s| s.get())
                {
                    counts[t.raw() as usize] += 1;
                }
            }
        }
        for (raw, slot) in self.objects.iter().enumerate() {
            let Some(info) = slot else { continue };
            if info.is_root && !info.is_live() {
                return Err(format!("root o{raw} is not live"));
            }
            if info.is_present() {
                let expected = counts[raw] + u32::from(info.is_root) + u32::from(info.birth_pin);
                if info.refcount != expected {
                    return Err(format!(
                        "o{raw} refcount {} != expected {expected}",
                        info.refcount
                    ));
                }
            }
        }

        // -- partitions ------------------------------------------------------
        let (mut live_total, mut occupied_total) = (0u64, 0u64);
        for (pi, part) in self.partitions.iter().enumerate() {
            let pid = PartitionId::new(pi as u32);
            let (mut live, mut garbage) = (0u64, 0u64);
            let mut extents: Vec<(u32, u32)> = Vec::with_capacity(part.residents.len());
            for &r in &part.residents {
                let info = self
                    .info(r)
                    .map_err(|e| format!("{pid} resident {r}: {e}"))?;
                if !info.is_present() {
                    return Err(format!("{pid} lists destroyed resident {r}"));
                }
                if info.partition != pid {
                    return Err(format!("{pid} lists {r} homed in {}", info.partition));
                }
                if info.offset + info.size > part.high_water {
                    return Err(format!("{pid} resident {r} extends past high water"));
                }
                extents.push((info.offset, info.size));
                if info.is_live() {
                    live += u64::from(info.size);
                } else {
                    garbage += u64::from(info.size);
                }
            }
            extents.sort_unstable();
            for w in extents.windows(2) {
                if w[0].0 + w[0].1 > w[1].0 {
                    return Err(format!("{pid} has overlapping object extents"));
                }
            }
            if live != part.live_bytes || garbage != part.garbage_bytes {
                return Err(format!(
                    "{pid} tallies live {}/{} garbage {}/{}",
                    part.live_bytes, live, part.garbage_bytes, garbage
                ));
            }
            live_total += live;
            occupied_total += u64::from(part.high_water);
        }
        if live_total != self.live_bytes {
            return Err(format!(
                "global live bytes {} != partition sum {live_total}",
                self.live_bytes
            ));
        }
        if occupied_total != self.occupied_bytes() {
            return Err("occupied-bytes accessor disagrees with partitions".to_owned());
        }
        if self.garbage.actual() != occupied_total - live_total {
            return Err(format!(
                "garbage ledger {} != occupied-live {}",
                self.garbage.actual(),
                occupied_total - live_total
            ));
        }

        // -- per-partition root & pin indexes -------------------------------
        // The indexes a collection gathers its roots from must equal a
        // from-scratch derivation: root_residents[p] is exactly the
        // objects homed in p whose root flag is set, and
        // pinned_residents[p] is exactly the birth-pinned residents.
        let mut expected_roots: Vec<Vec<ObjectId>> = vec![Vec::new(); self.partitions.len()];
        for r in self.roots() {
            let info = self.info(r).expect("a root flag is set on a table entry");
            expected_roots[info.partition.index()].push(r);
        }
        for (pi, part) in self.partitions.iter().enumerate() {
            let pid = PartitionId::new(pi as u32);
            let mut indexed = part.root_residents.clone();
            indexed.sort_unstable();
            // `expected_roots` is already sorted (object-table order).
            if indexed != expected_roots[pi] {
                return Err(format!(
                    "{pid} root index {:?} != derived {:?}",
                    indexed, expected_roots[pi]
                ));
            }
            let mut pinned = part.pinned_residents.clone();
            pinned.sort_unstable();
            let mut expected_pinned: Vec<ObjectId> = part
                .residents
                .iter()
                .copied()
                .filter(|&r| self.info(r).map(|i| i.birth_pin) == Ok(true))
                .collect();
            expected_pinned.sort_unstable();
            if pinned != expected_pinned {
                return Err(format!(
                    "{pid} pinned index {pinned:?} != derived {expected_pinned:?}"
                ));
            }
        }

        // -- visit epochs ----------------------------------------------------
        // No object may carry a mark from the future; marks beyond the
        // store epoch would alias a later traversal and corrupt it.
        for (raw, slot) in self.objects.iter().enumerate() {
            if let Some(info) = slot {
                if info.mark_epoch > self.mark_epoch {
                    return Err(format!(
                        "o{raw} mark epoch {} exceeds store epoch {}",
                        info.mark_epoch, self.mark_epoch
                    ));
                }
            }
        }

        // -- cycle candidates -------------------------------------------------
        // `Buffered` is what keeps the buffer to one entry per object: an
        // entry in any other state could be buffered twice, a `Buffered`
        // object that is not in the buffer can never be nominated again.
        let mut in_buffer = vec![false; self.objects.len()];
        for &raw in &self.candidates {
            match self.objects.get(raw as usize) {
                Some(Some(info)) if info.cycle == CycleState::Buffered => {}
                _ => return Err(format!("candidate o{raw} is not marked buffered")),
            }
            if std::mem::replace(&mut in_buffer[raw as usize], true) {
                return Err(format!("candidate o{raw} is buffered twice"));
            }
        }
        // `Anchored` lets a holder take over a birth pin silently, so it
        // must be true: some root or live candidate leads to the holder.
        // (Slot-less objects never hold anything; their state is unused.)
        let mut anchor_reach = in_buffer.clone();
        let mut stack: Vec<usize> = self.candidates.iter().map(|&raw| raw as usize).collect();
        for r in self.roots() {
            anchor_reach[r.raw() as usize] = true;
            stack.push(r.raw() as usize);
        }
        while let Some(raw) = stack.pop() {
            let Some(info) = self.objects[raw].as_ref().filter(|i| i.is_live()) else {
                continue;
            };
            for t in self.slot_arena[info.slot_range()]
                .iter()
                .filter_map(|s| s.get())
            {
                if !std::mem::replace(&mut anchor_reach[t.raw() as usize], true) {
                    stack.push(t.raw() as usize);
                }
            }
        }
        for (raw, slot) in self.objects.iter().enumerate() {
            let Some(info) = slot else { continue };
            match info.cycle {
                CycleState::Buffered if !in_buffer[raw] => {
                    return Err(format!("o{raw} is marked buffered but not in the buffer"));
                }
                CycleState::Anchored
                    if info.is_live() && info.slots_len > 0 && !anchor_reach[raw] =>
                {
                    return Err(format!(
                        "o{raw} is marked anchored but no root or candidate leads to it"
                    ));
                }
                _ => {}
            }
        }

        // -- first-fit free index --------------------------------------------
        // The descent is exact only over true maxima of true free bytes:
        // every leaf mirrors its partition, every inner node is the
        // maximum of its children, padding leaves fit nothing.
        self.free_index.check_structure()?;
        if self.free_index.len() != self.partitions.len() {
            return Err(format!(
                "free index covers {} partitions, store has {}",
                self.free_index.len(),
                self.partitions.len()
            ));
        }
        for (pi, part) in self.partitions.iter().enumerate() {
            if self.free_index.get(pi) != part.free_bytes() {
                return Err(format!(
                    "P{pi} free index leaf {} != actual {}",
                    self.free_index.get(pi),
                    part.free_bytes()
                ));
            }
        }
        self.check_counters()
    }

    /// Verifies the maintained O(1) counters against fresh O(partitions)
    /// scans. Cheap enough to run after every event in deep-checked
    /// simulations.
    fn check_counters(&self) -> Result<(), String> {
        let scanned_db: u64 = self.partitions.iter().map(|p| u64::from(p.capacity)).sum();
        if scanned_db != self.db_size {
            return Err(format!(
                "db-size counter {} != capacity scan {scanned_db}",
                self.db_size
            ));
        }
        let scanned_po: u64 = self.partitions.iter().map(|p| p.overwrites).sum();
        if scanned_po != self.outstanding_overwrites {
            return Err(format!(
                "outstanding-overwrite counter {} != scan {scanned_po}",
                self.outstanding_overwrites
            ));
        }
        Ok(())
    }

    /// Panicking wrapper around the counter-vs-scan equivalence check.
    pub fn assert_counters_match(&self) {
        if let Err(msg) = self.check_counters() {
            panic!("store counters diverged: {msg}");
        }
    }

    /// Panicking wrapper around [`Store::check_consistency`].
    pub fn assert_consistent(&self) {
        if let Err(msg) = self.check_consistency() {
            panic!("store inconsistent: {msg}");
        }
    }

    /// Test hook: asserts the incremental tracker agrees with full
    /// reachability. Panics on divergence.
    pub fn assert_garbage_exact(&self) {
        let reachable = self.compute_reachable();
        for (i, slot) in self.objects.iter().enumerate() {
            if let Some(info) = slot {
                let id = ObjectId::new(i as u64);
                match info.state {
                    ObjState::Live => assert!(
                        reachable.contains(id),
                        "{id} tracked live but unreachable (undetected cycle?)"
                    ),
                    ObjState::Garbage => assert!(
                        !reachable.contains(id),
                        "{id} tracked garbage but reachable (tracker unsound!)"
                    ),
                    ObjState::Destroyed => assert!(
                        !reachable.contains(id),
                        "{id} destroyed but reachable (collector unsound!)"
                    ),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Collection application
    // ------------------------------------------------------------------

    /// Collects partition `p` (CWZ94, §3.1 of the paper) in one pass
    /// under one visit epoch, leaving the survivors in `survivors`
    /// (cleared first) in Cheney copy order. The pass marks `p`'s
    /// collection roots, copies what they reach without leaving `p`
    /// breadth-first, then destroys every unmarked resident and compacts
    /// the survivors in copy order — the effects and the result of
    /// [`Store::apply_collection`] with that survivor list, without
    /// marking the survivors a second time.
    ///
    /// Copy order starts from the distinct roots in id order; each
    /// survivor's local children follow in slot order. Breadth-first
    /// copying groups parents with their children, which is what gives
    /// copying collection its reclustering benefit. Pointers leaving `p`
    /// are not traversed, and far slots are skipped without reading their
    /// target's table entry. `survivors` keeps its capacity, so a reused
    /// buffer allocates nothing in steady state.
    ///
    /// ```
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
    /// let mut survivors = Vec::new();
    /// let outcome = store.collect(p, &mut survivors);
    /// assert_eq!(survivors, [root]);
    /// assert_eq!(outcome.bytes_reclaimed, 100);
    /// assert_eq!(store.garbage_bytes(), 0);
    /// ```
    pub fn collect(&mut self, p: PartitionId, survivors: &mut Vec<ObjectId>) -> CollectionApplied {
        let epoch = self.trace_survivors(p, survivors);
        self.sweep_and_compact(p, survivors, epoch)
    }

    /// The survivors [`Store::collect`] would keep of `p`, in its copy
    /// order, written to `survivors` (cleared first). Collects nothing:
    /// only visit marks change.
    pub fn plan_collection(&mut self, p: PartitionId, survivors: &mut Vec<ObjectId>) {
        self.trace_survivors(p, survivors);
    }

    /// The traversal of [`Store::collect`]: fills `survivors` and marks
    /// exactly them in a fresh epoch, which it returns.
    fn trace_survivors(&mut self, p: PartitionId, survivors: &mut Vec<ObjectId>) -> u32 {
        let epoch = self.begin_visit_epoch();
        // Mark every root entry as it is read: the mark is the dedup. The
        // doomed buffer is free until the sweep.
        let mut entries = std::mem::take(&mut self.doomed_scratch);
        entries.clear();
        self.gather_root_entries(p, &mut entries);
        let mut distinct = 0usize;
        for &r in &entries {
            let info = self.objects[r.raw() as usize]
                .as_mut()
                .expect("collection root exists");
            distinct += usize::from(info.mark_epoch != epoch);
            info.mark_epoch = epoch;
        }
        self.doomed_scratch = entries;

        // The marked residents are the distinct roots. In layout order a
        // compacted partition is a few ascending runs of ids, which the
        // run-adaptive stable sort merges.
        survivors.clear();
        let objects = &self.objects;
        survivors.extend(
            self.partitions[p.index()]
                .residents
                .iter()
                .copied()
                .filter(|r| {
                    objects[r.raw() as usize]
                        .as_ref()
                        .expect("resident exists")
                        .mark_epoch
                        == epoch
                }),
        );
        assert_eq!(
            survivors.len(),
            distinct,
            "a collection root of {p} is not resident in it"
        );
        survivors.sort();

        // Cheney scan: survivors double as the scan queue, scanned in
        // index order; local children are appended as they are marked.
        let mut scan = 0;
        while let Some(&cur) = survivors.get(scan) {
            scan += 1;
            let range = self.objects[cur.raw() as usize]
                .as_ref()
                .expect("survivor exists")
                .slot_range();
            for slot in &self.slot_arena[range] {
                let Some(t) = slot.local() else { continue };
                let info = self.objects[t.raw() as usize]
                    .as_mut()
                    .expect("slot target exists");
                if info.mark_epoch != epoch {
                    info.mark_epoch = epoch;
                    survivors.push(t);
                }
            }
        }
        epoch
    }

    /// Applies a collection of partition `p` whose survivors were planned
    /// elsewhere: every resident *not* in `survivors` is physically
    /// destroyed, the survivors are compacted in the given order, the
    /// partition's overwrite counter resets, its buffered pages are
    /// invalidated, and the collector is charged page reads for the
    /// previously occupied extent plus writes for the compacted extent.
    /// [`Store::collect`] plans and applies in one pass; this entry
    /// validates a plan it did not make.
    ///
    /// `survivors` must be a duplicate-free subset of `p`'s residents (in
    /// the copy order the collector chose) that includes every collection
    /// root of `p` ([`Store::partition_roots`]); the collector computes it
    /// by tracing from those roots. Every remembered entry into `p` then
    /// names a survivor and every doomed object is pin-free, so the
    /// remembered set and the pin index need no repair. Debug builds
    /// check that contract. Panics on a survivor that is foreign or
    /// repeated — that is a collector bug, not a data condition.
    pub fn apply_collection(
        &mut self,
        p: PartitionId,
        survivors: &[ObjectId],
    ) -> CollectionApplied {
        let epoch = self.mark_survivors(p, survivors);
        debug_assert_eq!(
            self.unmarked_root(p, epoch),
            None,
            "a collection root of {p} is not among the survivors"
        );
        self.sweep_and_compact(p, survivors, epoch)
    }

    /// Validates and marks the survivors in a fresh epoch, which it
    /// returns: residency is one table lookup, duplicate detection is the
    /// epoch mark itself.
    fn mark_survivors(&mut self, p: PartitionId, survivors: &[ObjectId]) -> u32 {
        let epoch = self.begin_visit_epoch();
        for &s in survivors {
            let info = match self.objects.get_mut(s.raw() as usize) {
                Some(Some(info)) if info.partition == p && info.is_present() => info,
                _ => panic!("survivor {s} is not resident in {p}"),
            };
            assert!(
                info.mark_epoch != epoch,
                "duplicate survivors passed to apply_collection"
            );
            info.mark_epoch = epoch;
        }
        epoch
    }

    /// The first collection root of `p` not marked in `epoch`, if any.
    fn unmarked_root(&self, p: PartitionId, epoch: u32) -> Option<ObjectId> {
        self.partition_roots(p).into_iter().find(|r| {
            self.objects[r.raw() as usize]
                .as_ref()
                .expect("root exists")
                .mark_epoch
                != epoch
        })
    }

    /// The body of [`Store::collect`] and [`Store::apply_collection`]
    /// once exactly the survivors are marked in `epoch`.
    fn sweep_and_compact(
        &mut self,
        p: PartitionId,
        survivors: &[ObjectId],
        epoch: u32,
    ) -> CollectionApplied {
        let occupied_pages_before =
            u64::from(self.partitions[p.index()].occupied_pages(self.config.page_size));
        let overwrites_at_collection = self.partitions[p.index()].overwrites;

        // Doomed = residents not marked as survivors, in layout order.
        let mut doomed = std::mem::take(&mut self.doomed_scratch);
        doomed.clear();
        for &r in &self.partitions[p.index()].residents {
            let info = self.objects[r.raw() as usize]
                .as_ref()
                .expect("resident exists");
            if info.mark_epoch != epoch {
                doomed.push(r);
            }
        }

        // Phase 1: anything still tracked live is cyclic garbage the
        // cascade could not see; transition it (with cascade for its
        // outgoing references) before destroying. The cascade never
        // mutates slot contents, so reading the arena per slot is safe.
        for &d in &doomed {
            if self.objects[d.raw() as usize]
                .as_ref()
                .expect("resident exists")
                .is_live()
            {
                self.transition_to_garbage(d);
                let range = self.objects[d.raw() as usize]
                    .as_ref()
                    .expect("resident exists")
                    .slot_range();
                for i in range {
                    if let Some(t) = self.slot_arena[i].get() {
                        self.decr_ref(t);
                    }
                }
            }
        }

        // Phase 2: physical destruction.
        let mut bytes_reclaimed = 0u64;
        for &d in &doomed {
            let info = self.objects[d.raw() as usize]
                .as_ref()
                .expect("resident exists");
            debug_assert!(info.is_garbage(), "destroying a live object");
            let size = u64::from(info.size);
            let slots_start = info.slots_start as usize;
            let range = info.slot_range();
            // Forget the doomed object's outgoing remembered entries.
            // Local targets were never remembered (and may be fellow
            // doomed objects already destroyed this collection), so
            // their table entries are not read; far targets are
            // necessarily still present.
            for i in range {
                if let Some(t) = self.slot_arena[i].far() {
                    let tinfo = self.objects[t.raw() as usize]
                        .as_ref()
                        .expect("slot target exists");
                    debug_assert!(tinfo.is_present(), "doomed object references destroyed {t}");
                    self.remsets
                        .remove(d, SlotIdx::new((i - slots_start) as u32), tinfo.partition);
                }
            }
            let info = self.objects[d.raw() as usize]
                .as_mut()
                .expect("resident exists");
            info.state = ObjState::Destroyed;
            info.refcount = 0;
            self.partitions[p.index()].garbage_bytes -= size;
            self.garbage.record_collected(size);
            bytes_reclaimed += size;
            self.present_objects -= 1;
        }
        let objects_destroyed = doomed.len();
        self.doomed_scratch = doomed;

        // Phase 3: compact survivors in the collector's copy order.
        let part = &mut self.partitions[p.index()];
        part.high_water = 0;
        part.residents.clear();
        part.residents.extend_from_slice(survivors);
        part.overwrites = 0;
        part.collections += 1;
        self.outstanding_overwrites -= overwrites_at_collection;
        for &s in survivors {
            let info = self.objects[s.raw() as usize]
                .as_mut()
                .expect("survivor exists");
            info.offset = part.append(info.size);
        }

        // Phase 4: I/O and buffer effects.
        let occupied_pages_after =
            u64::from(self.partitions[p.index()].occupied_pages(self.config.page_size));
        self.io.charge_reads(IoClass::Gc, occupied_pages_before);
        self.io.charge_writes(IoClass::Gc, occupied_pages_after);
        self.buffer.invalidate_partition(p);

        // Compaction lowered the high-water mark; let allocation see the
        // reclaimed bytes.
        self.free_index
            .set(p.index(), self.partitions[p.index()].free_bytes());

        CollectionApplied {
            partition: p,
            bytes_reclaimed,
            objects_destroyed,
            objects_survived: survivors.len(),
            gc_reads: occupied_pages_before,
            gc_writes: occupied_pages_after,
            overwrites_at_collection,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::TraceBuilder;

    fn tiny() -> Store {
        Store::new(StoreConfig::tiny())
    }

    /// Replays a builder's trace, panicking on any error.
    fn replay(store: &mut Store, trace: &odbgc_trace::Trace) {
        for ev in trace.iter() {
            store.apply(ev).expect("replay");
        }
    }

    #[test]
    fn create_places_and_charges_io() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(100, 1);
        replay(&mut s, &b.finish());
        assert_eq!(s.partition_count(), 1);
        assert_eq!(s.live_bytes(), 100);
        assert_eq!(s.occupied_bytes(), 100);
        // 100 bytes on 64-byte pages = 2 pages read into buffer (dirty).
        assert_eq!(s.io().app_reads, 2);
        assert!(s.is_live(a));
    }

    #[test]
    fn access_unknown_object_errors() {
        let mut s = tiny();
        let e = s
            .apply(&Event::Access {
                id: ObjectId::new(5),
            })
            .unwrap_err();
        assert_eq!(e, StoreError::UnknownObject(ObjectId::new(5)));
    }

    #[test]
    fn duplicate_create_errors() {
        let mut s = tiny();
        let ev = Event::Create {
            id: ObjectId::new(0),
            size: 10,
            slots: Box::new([]),
        };
        s.apply(&ev).unwrap();
        assert_eq!(
            s.apply(&ev).unwrap_err(),
            StoreError::DuplicateId(ObjectId::new(0))
        );
    }

    #[test]
    fn zero_size_create_errors() {
        let mut s = tiny();
        let e = s
            .apply(&Event::Create {
                id: ObjectId::new(0),
                size: 0,
                slots: Box::new([]),
            })
            .unwrap_err();
        assert_eq!(e, StoreError::ZeroSizeObject(ObjectId::new(0)));
    }

    #[test]
    fn create_too_large_for_any_partition_errors_and_changes_nothing() {
        // The paper geometry, as served: sizes within a page of u32::MAX
        // round up to a capacity that wraps to 0.
        let mut s = Store::new(StoreConfig::default());
        let create = |raw, size| Event::Create {
            id: ObjectId::new(raw),
            size,
            slots: Box::new([]),
        };
        s.apply(&create(0, 100)).unwrap();
        for size in [u32::MAX, u32::MAX - 8190] {
            assert_eq!(
                s.apply(&create(1, size)).unwrap_err(),
                StoreError::ObjectTooLarge {
                    object: ObjectId::new(1),
                    size
                }
            );
            s.assert_consistent();
            assert_eq!((s.partition_count(), s.present_objects()), (1, 1));
            assert_eq!(s.db_size_bytes(), 96 * 1024);
        }
        s.apply(&create(1, 100)).unwrap();
        assert_eq!(s.partition_of(ObjectId::new(1)), Ok(PartitionId::new(0)));
        // The largest size whole pages can hold is an ordinary create.
        s.apply(&create(2, u32::MAX - 8191)).unwrap();
        assert_eq!(s.db_size_bytes(), 96 * 1024 + (u64::from(u32::MAX) - 8191));
        s.assert_consistent();
    }

    #[test]
    fn slot_out_of_bounds_errors() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(10, 1);
        replay(&mut s, &b.finish());
        let e = s
            .apply(&Event::SlotWrite {
                src: a,
                slot: SlotIdx::new(1),
                new: None,
            })
            .unwrap_err();
        assert!(matches!(e, StoreError::SlotOutOfBounds { .. }));
    }

    #[test]
    fn overwrite_kills_target_creates_garbage() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 1);
        b.root_add(root);
        let child = b.create_unlinked(50, 0);
        b.slot_write(root, SlotIdx::new(0), Some(child));
        replay(&mut s, &b.finish());
        assert_eq!(s.garbage_bytes(), 0);
        assert_eq!(s.overwrite_clock(), 0); // initial store into null slot

        let out = s
            .apply(&Event::SlotWrite {
                src: root,
                slot: SlotIdx::new(0),
                new: None,
            })
            .unwrap();
        assert_eq!(out.overwrites, 1);
        assert_eq!(out.garbage_created, 50);
        assert_eq!(s.garbage_bytes(), 50);
        assert_eq!(s.overwrite_clock(), 1);
        assert!(!s.is_live(child));
        assert!(s.is_present(child)); // still occupies storage
        s.assert_garbage_exact();
    }

    #[test]
    fn cascade_frees_chain() {
        let mut s = tiny();
        let t = odbgc_trace::synthetic::linear_chain(5, 20, Some(1));
        replay(&mut s, &t);
        // Nodes 2, 3, 4 are detached (the cut cleared node 1's next link).
        assert_eq!(s.garbage_bytes(), 3 * 20);
        s.assert_garbage_exact();
    }

    #[test]
    fn self_assignment_is_safe() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 1);
        b.root_add(root);
        let child = b.create_unlinked(10, 0);
        b.slot_write(root, SlotIdx::new(0), Some(child));
        replay(&mut s, &b.finish());
        // Overwrite the slot with the same pointer: counted as an
        // overwrite, but no garbage.
        let out = s
            .apply(&Event::SlotWrite {
                src: root,
                slot: SlotIdx::new(0),
                new: Some(child),
            })
            .unwrap();
        assert_eq!(out.overwrites, 1);
        assert_eq!(out.garbage_created, 0);
        assert!(s.is_live(child));
        s.assert_garbage_exact();
    }

    #[test]
    fn detached_cycle_is_invisible_to_cascade_but_found_by_recompute() {
        let mut s = tiny();
        replay(&mut s, &odbgc_trace::synthetic::detached_cycle(30));
        // The cascade cannot see the dead 2-cycle.
        assert_eq!(s.garbage_bytes(), 0);
        let exact = s.recompute_garbage_exact();
        assert_eq!(exact, 60);
        s.assert_garbage_exact();
    }

    #[test]
    fn reconcile_across_the_epoch_wraparound_is_exact() {
        // Two epochs left: the three colours cannot all be taken without
        // the wraparound reset, which zeroes every mark. It must happen
        // before the first colour is written, not between two of them.
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let anchor = b.create_unlinked(10, 2);
        b.root_add(anchor);
        let ring = |b: &mut TraceBuilder| {
            let x = b.create_unlinked(30, 1);
            let y = b.create(30, vec![Some(x)]);
            let z = b.create(30, vec![Some(y)]);
            b.slot_write(x, SlotIdx::new(0), Some(z));
            x
        };
        let dead = ring(&mut b);
        let held = ring(&mut b);
        b.slot_write(anchor, SlotIdx::new(0), Some(dead));
        b.slot_write(anchor, SlotIdx::new(1), Some(held));
        b.slot_clear(anchor, SlotIdx::new(0));
        replay(&mut s, &b.finish());
        // Stale marks from an earlier traversal, as a long-lived store
        // would carry them.
        let stale = s.begin_visit_epoch();
        for id in [dead, held] {
            s.objects[id.raw() as usize].as_mut().unwrap().mark_epoch = stale;
        }

        s.mark_epoch = u32::MAX - 1;
        assert_eq!(s.recompute_garbage_exact(), 90);
        assert!(s.mark_epoch <= 3, "the reset ran once, up front");
        s.assert_garbage_exact();
        s.assert_consistent();
        assert!(s.is_live(held) && !s.is_live(dead));
    }

    #[test]
    fn root_remove_frees_subtree() {
        let mut s = tiny();
        let (t, n) = odbgc_trace::synthetic::wide_tree(2, 2, 10);
        replay(&mut s, &t);
        assert_eq!(s.live_bytes(), n as u64 * 10);
        s.apply(&Event::RootRemove {
            id: ObjectId::new(0),
        })
        .unwrap();
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(s.garbage_bytes(), n as u64 * 10);
        s.assert_garbage_exact();
    }

    #[test]
    fn duplicate_root_and_not_a_root_errors() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(10, 0);
        b.root_add(a);
        // A second root keeps `a` reachable after its root pin is removed,
        // so the follow-up RootRemove exercises the NotARoot path rather
        // than TouchedGarbage.
        let holder = b.create(10, vec![Some(a)]);
        b.root_add(holder);
        replay(&mut s, &b.finish());
        assert_eq!(
            s.apply(&Event::RootAdd { id: a }).unwrap_err(),
            StoreError::DuplicateRoot(a)
        );
        s.apply(&Event::RootRemove { id: a }).unwrap();
        assert!(s.is_live(a));
        assert_eq!(
            s.apply(&Event::RootRemove { id: a }).unwrap_err(),
            StoreError::NotARoot(a)
        );
    }

    #[test]
    fn touching_garbage_errors() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 1);
        b.root_add(root);
        let child = b.create_unlinked(10, 0);
        b.slot_write(root, SlotIdx::new(0), Some(child));
        b.slot_clear(root, SlotIdx::new(0));
        replay(&mut s, &b.finish());
        assert_eq!(
            s.apply(&Event::Access { id: child }).unwrap_err(),
            StoreError::TouchedGarbage(child)
        );
    }

    #[test]
    fn overwrites_counted_per_old_target_partition() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 2);
        b.root_add(root);
        // Fill partition 0 so the next object lands in partition 1.
        let filler = b.create_unlinked(240, 0);
        let far = b.create_unlinked(100, 0);
        b.slot_write(root, SlotIdx::new(0), Some(filler));
        b.slot_write(root, SlotIdx::new(1), Some(far));
        replay(&mut s, &b.finish());
        let p_far = s.partition_of(far).unwrap();
        assert_ne!(p_far, s.partition_of(root).unwrap());

        s.apply(&Event::SlotWrite {
            src: root,
            slot: SlotIdx::new(1),
            new: None,
        })
        .unwrap();
        assert_eq!(s.partitions[p_far.index()].overwrites, 1);
        assert_eq!(s.total_outstanding_overwrites(), 1);
    }

    #[test]
    fn remsets_track_cross_partition_roots() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 1);
        b.root_add(root);
        let _filler = b.create_unlinked(240, 0);
        let far = b.create_unlinked(100, 0);
        b.slot_write(root, SlotIdx::new(0), Some(far));
        replay(&mut s, &b.finish());
        let p_far = s.partition_of(far).unwrap();
        assert_eq!(s.partition_roots(p_far), vec![far]);
        // Root object's own partition has the global root.
        let p_root = s.partition_of(root).unwrap();
        assert!(s.partition_roots(p_root).contains(&root));
    }

    /// A store whose partition 1 holds one collection root of each kind —
    /// `o2`, remembered from `o0`'s slot 0; `o3`, birth-pinned; `o4`, a
    /// global root — and that partition.
    fn roots_of_each_kind() -> (Store, PartitionId) {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 1);
        b.root_add(root);
        let _filler = b.create_unlinked(240, 0);
        let far = b.create_unlinked(50, 0);
        b.slot_write(root, SlotIdx::new(0), Some(far));
        let _newborn = b.create_unlinked(50, 0);
        let far_root = b.create_unlinked(50, 0);
        b.root_add(far_root);
        replay(&mut s, &b.finish());
        let p = s.partition_of(far).unwrap();
        assert_eq!(
            s.partition_roots(p),
            (2..5).map(ObjectId::new).collect::<Vec<_>>()
        );
        s.assert_consistent();
        (s, p)
    }

    #[test]
    fn audit_reports_each_collection_root_a_collection_destroyed() {
        // Release builds skip the survivor contract check; the deep audit
        // must still catch a planner that dropped a root.
        for (dropped, expected) in [
            (2, "o0 slot 0 references destroyed o2"),
            (3, "P1 pinned index [o3] != derived []"),
            (4, "root o4 is not live"),
        ] {
            let (mut s, p) = roots_of_each_kind();
            let survivors: Vec<ObjectId> = (2..5)
                .filter(|&raw| raw != dropped)
                .map(ObjectId::new)
                .collect();
            let epoch = s.mark_survivors(p, &survivors);
            assert_eq!(s.unmarked_root(p, epoch), Some(ObjectId::new(dropped)));
            s.sweep_and_compact(p, &survivors, epoch);
            let err = s.check_consistency().unwrap_err();
            assert!(err.contains(expected), "dropping o{dropped}: {err}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a collection root of P1 is not among the survivors")]
    fn collection_that_drops_a_root_panics_in_debug_builds() {
        let (mut s, p) = roots_of_each_kind();
        s.apply_collection(p, &[ObjectId::new(3), ObjectId::new(4)]);
    }

    #[test]
    #[should_panic(expected = "a collection root of P1 is not resident in it")]
    fn collect_refuses_a_root_outside_its_partition() {
        let (mut s, p) = roots_of_each_kind();
        // A stray entry in P1's root index naming o0, homed in P0.
        s.partitions[p.index()]
            .root_residents
            .push(ObjectId::new(0));
        s.collect(p, &mut Vec::new());
    }

    /// Slot `i` of `id` as packed, FAR bit and all.
    fn raw_slot(s: &Store, id: ObjectId, i: usize) -> PackedSlot {
        s.slot_arena[s.info(id).unwrap().slots_start as usize + i]
    }

    /// `a` (a root with two slots) and `fill` in P0; `b`, created
    /// pointing at `a`, and `c`, created pointing at `b`, in P1; then
    /// `a`'s slots are written to point at `b` and `fill`.
    fn far_and_local_slots() -> (Store, [ObjectId; 4]) {
        let mut s = tiny();
        let mut t = TraceBuilder::new();
        let a = t.create_unlinked(10, 2);
        t.root_add(a);
        let fill = t.create_unlinked(240, 0);
        let b = t.create(50, vec![Some(a)]);
        let c = t.create(50, vec![Some(b)]);
        t.slot_write(a, SlotIdx::new(0), Some(b));
        t.slot_write(a, SlotIdx::new(1), Some(fill));
        replay(&mut s, &t.finish());
        let homes: Vec<u32> = [a, fill, b, c]
            .iter()
            .map(|&o| s.partition_of(o).unwrap().raw())
            .collect();
        assert_eq!(homes, [0, 0, 1, 1]);
        s.assert_consistent();
        (s, [a, fill, b, c])
    }

    #[test]
    fn cross_partition_create_and_write_set_the_far_bit() {
        let (s, [a, fill, b, c]) = far_and_local_slots();
        assert_eq!(raw_slot(&s, b, 0).far(), Some(a), "created across");
        assert_eq!(raw_slot(&s, c, 0).local(), Some(b), "created within");
        assert_eq!(raw_slot(&s, a, 0).far(), Some(b), "written across");
        assert_eq!(raw_slot(&s, a, 1).local(), Some(fill), "written within");
    }

    #[test]
    fn intra_partition_write_and_clear_reset_the_far_bit() {
        let (mut s, [a, fill, b, _]) = far_and_local_slots();
        let write = |s: &mut Store, slot, new| {
            s.apply(&Event::SlotWrite {
                src: a,
                slot: SlotIdx::new(slot),
                new,
            })
            .unwrap();
        };
        write(&mut s, 0, Some(fill));
        assert_eq!(raw_slot(&s, a, 0).local(), Some(fill));
        assert_eq!(raw_slot(&s, a, 0).far(), None);
        write(&mut s, 1, Some(b));
        assert_eq!(raw_slot(&s, a, 1).far(), Some(b));
        write(&mut s, 1, None);
        assert_eq!(raw_slot(&s, a, 1), PackedSlot::NULL);
        assert_eq!(raw_slot(&s, a, 1).far(), None);
        assert_eq!(raw_slot(&s, a, 1).local(), None);
        s.assert_consistent();
    }

    #[test]
    fn readers_see_plain_ids_through_far_slots() {
        let (mut s, [a, fill, b, c]) = far_and_local_slots();
        assert_eq!(
            s.slots_of(a).unwrap().collect::<Vec<_>>(),
            [Some(b), Some(fill)]
        );
        let reach = s.compute_reachable();
        assert!([a, fill, b, c].iter().all(|&o| reach.contains(o)));
        // `a` and `b` hold each other across the partition boundary: once
        // `a` is no root and `c` lets go of `b`, only the reconcile sees
        // that they, and `fill`, are dead.
        s.apply(&Event::RootRemove { id: a }).unwrap();
        s.apply(&Event::SlotWrite {
            src: c,
            slot: SlotIdx::new(0),
            new: None,
        })
        .unwrap();
        assert_eq!(s.garbage_bytes(), 0);
        assert_eq!(s.recompute_garbage_exact(), 10 + 240 + 50);
        s.assert_garbage_exact();
        s.assert_consistent();
    }

    #[test]
    fn audit_reports_a_wrong_far_bit() {
        let (mut s, [a, _, b, _]) = far_and_local_slots();
        let i = s.info(a).unwrap().slots_start as usize;
        s.slot_arena[i] = PackedSlot::to(b, false);
        let err = s.check_consistency().unwrap_err();
        assert_eq!(err, "o0 slot 0 -> o2: FAR bit 0 with o0 in P0 and o2 in P1");
    }

    #[test]
    fn reattaching_detached_object_is_an_error() {
        // Once an overwrite detaches an object, the application cannot
        // name it again: re-installing a pointer to garbage must fail.
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 1);
        b.root_add(root);
        let a = b.create_unlinked(50, 0);
        b.slot_write(root, SlotIdx::new(0), Some(a));
        b.slot_clear(root, SlotIdx::new(0)); // a is now garbage
        replay(&mut s, &b.finish());
        assert_eq!(
            s.apply(&Event::SlotWrite {
                src: root,
                slot: SlotIdx::new(0),
                new: Some(a),
            })
            .unwrap_err(),
            StoreError::TouchedGarbage(a)
        );
    }

    #[test]
    fn collection_reclaims_and_charges_gc_io() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 2);
        b.root_add(root);
        let keep = b.create_unlinked(50, 0);
        let dead = b.create_unlinked(60, 0);
        b.slot_write(root, SlotIdx::new(0), Some(keep));
        b.slot_write(root, SlotIdx::new(1), Some(dead));
        b.slot_clear(root, SlotIdx::new(1)); // dead becomes garbage
        replay(&mut s, &b.finish());
        let p = s.partition_of(dead).unwrap();
        assert_eq!(p, s.partition_of(keep).unwrap());
        let occupied_before = s.occupied_bytes();
        assert_eq!(occupied_before, 120);

        // Survivors: root and keep (layout order), dead is doomed.
        let survivors = vec![root, keep];
        let gc_io_before = s.io().gc_total();
        let outcome = s.apply_collection(p, &survivors);

        assert_eq!(outcome.bytes_reclaimed, 60);
        assert_eq!(outcome.objects_destroyed, 1);
        assert_eq!(outcome.objects_survived, 2);
        assert_eq!(outcome.overwrites_at_collection, 1);
        // 120 bytes occupied = 2 pages read; 60 live bytes = 1 page write.
        assert_eq!(outcome.gc_reads, 2);
        assert_eq!(outcome.gc_writes, 1);
        assert_eq!(s.io().gc_total(), gc_io_before + 3);

        assert!(!s.is_present(dead));
        assert_eq!(s.garbage_bytes(), 0);
        assert_eq!(s.total_garbage_collected(), 60);
        assert_eq!(s.occupied_bytes(), 60);
        assert_eq!(s.partitions[p.index()].overwrites, 0);
        s.assert_garbage_exact();

        // Survivors were compacted in the given order.
        assert_eq!(s.residents_of(p), &[root, keep]);
        assert_eq!(s.slots_of(root).unwrap().next(), Some(Some(keep)));
    }

    #[test]
    fn collection_destroys_cyclic_garbage_when_collector_says_so() {
        let mut s = tiny();
        replay(&mut s, &odbgc_trace::synthetic::detached_cycle(30));
        // Tracker hasn't noticed the dead cycle.
        assert_eq!(s.garbage_bytes(), 0);
        let anchor = ObjectId::new(0);
        let p = s.partition_of(anchor).unwrap();
        // A real collector tracing from roots would keep only the anchor.
        let outcome = s.apply_collection(p, &[anchor]);
        assert_eq!(outcome.bytes_reclaimed, 60);
        assert_eq!(s.total_garbage_generated(), 60);
        assert_eq!(s.total_garbage_collected(), 60);
        s.assert_garbage_exact();
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn collection_with_foreign_survivor_panics() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(10, 0);
        b.root_add(a);
        let _big = b.create_unlinked(250, 0); // forces partition 1
        replay(&mut s, &b.finish());
        let p1 = PartitionId::new(1);
        s.apply_collection(p1, &[a]); // `a` lives in partition 0
    }

    #[test]
    fn use_after_free_detected() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 1);
        b.root_add(root);
        let dead = b.create_unlinked(20, 0);
        b.slot_write(root, SlotIdx::new(0), Some(dead));
        b.slot_clear(root, SlotIdx::new(0));
        replay(&mut s, &b.finish());
        let p = s.partition_of(dead).unwrap();
        s.apply_collection(p, &[root]);
        assert_eq!(
            s.apply(&Event::Access { id: dead }).unwrap_err(),
            StoreError::UseAfterFree(dead)
        );
    }

    #[test]
    fn db_size_counts_allocated_partitions() {
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        b.create_unlinked(200, 0);
        b.create_unlinked(200, 0);
        replay(&mut s, &b.finish());
        assert_eq!(s.partition_count(), 2);
        assert_eq!(s.db_size_bytes(), 512);
        s.assert_counters_match();
    }

    #[test]
    fn db_size_tracks_capacity_change_without_partition_count_change() {
        // Regression: the simulator used to cache DBSize and refresh it
        // only when the *partition count* changed, so an in-place capacity
        // change was invisible between collections. The store-maintained
        // counter must observe it immediately.
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        b.create_unlinked(200, 0);
        replay(&mut s, &b.finish());
        assert_eq!(s.partition_count(), 1);
        assert_eq!(s.db_size_bytes(), 256);

        s.grow_partition(PartitionId::new(0), 2);
        assert_eq!(s.partition_count(), 1); // count unchanged…
        assert_eq!(s.db_size_bytes(), 384); // …but DBSize grew
        s.assert_counters_match();
        s.assert_consistent();
    }

    #[test]
    fn maintained_counters_match_scans_through_full_lifecycle() {
        // Counter == fresh-scan equivalence across create, overwrite,
        // cascade, collection, and growth.
        let mut s = tiny();
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(10, 2);
        b.root_add(root);
        let filler = b.create_unlinked(240, 0);
        let far = b.create_unlinked(100, 0);
        b.slot_write(root, SlotIdx::new(0), Some(filler));
        b.slot_write(root, SlotIdx::new(1), Some(far));
        let trace = b.finish();
        for ev in trace.iter() {
            s.apply(ev).expect("replay");
            s.assert_counters_match();
        }

        s.apply(&Event::SlotWrite {
            src: root,
            slot: SlotIdx::new(1),
            new: None,
        })
        .unwrap();
        s.assert_counters_match();
        assert_eq!(s.total_outstanding_overwrites(), 1);

        let p_far = s.partition_of(far).unwrap();
        let outcome = s.apply_collection(p_far, &[]);
        assert_eq!(outcome.overwrites_at_collection, 1);
        s.assert_counters_match();
        assert_eq!(s.total_outstanding_overwrites(), 0);

        s.grow_partition(p_far, 1);
        s.assert_counters_match();
    }
}
