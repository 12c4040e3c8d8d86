//! Per-object storage metadata.

use odbgc_trace::ObjectId;

use crate::ids::PartitionId;

/// A pointer slot packed into 8 bytes. `Option<ObjectId>` is 16 bytes
/// (a raw `u64` id has no niche), which doubles the slot arena's memory
/// traffic for no information: ids are dense indexes into the object
/// table, which the store keeps below 2³², so `u64::MAX` can never be a
/// real id and serves as the null encoding, and bit 63 is free to say
/// the target lives in another partition than the holder (FAR).
///
/// An object never leaves its partition, so the FAR bit set when the
/// pointer is stored stays true for as long as the slot holds it, and a
/// collection can skip a far slot without reading its target's table
/// entry. Null has the FAR bit set too, so one bit test finds the slots
/// whose target is local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedSlot(u64);

impl PackedSlot {
    const FAR: u64 = 1 << 63;
    pub(crate) const NULL: PackedSlot = PackedSlot(u64::MAX);

    /// A slot pointing at `id`, which lives in another partition than
    /// the holder iff `far`.
    #[inline]
    pub(crate) fn to(id: ObjectId, far: bool) -> Self {
        debug_assert!(
            id.raw() < u64::from(u32::MAX),
            "id {id} past the table's u32 range"
        );
        PackedSlot(id.raw() | if far { Self::FAR } else { 0 })
    }

    /// The target, far or local.
    #[inline]
    pub(crate) fn get(self) -> Option<ObjectId> {
        (self != Self::NULL).then_some(ObjectId::new(self.0 & !Self::FAR))
    }

    /// The target if it lives in the holder's partition.
    #[inline]
    pub(crate) fn local(self) -> Option<ObjectId> {
        (self.0 & Self::FAR == 0).then_some(ObjectId::new(self.0))
    }

    /// The target if it lives in another partition than the holder.
    #[inline]
    pub(crate) fn far(self) -> Option<ObjectId> {
        (self.0 & Self::FAR != 0 && self != Self::NULL)
            .then_some(ObjectId::new(self.0 & !Self::FAR))
    }
}

/// Logical liveness state of an object, as maintained by the exact garbage
/// tracker and the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjState {
    /// Reachable (as far as the incremental tracker knows).
    Live,
    /// Unreachable: counted as garbage, still occupying storage.
    Garbage,
    /// Physically reclaimed by a collection; the id is retired.
    Destroyed,
}

/// What the cycle detector knows about an object (see
/// [`Store::recompute_garbage_exact`](crate::Store::recompute_garbage_exact)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleState {
    /// Nothing: the object may hang off a newborn's birth pin alone.
    Unknown,
    /// Held, through live objects, by a root or by a buffered candidate —
    /// so if the object ever ends up on a dead cycle, either it lost a
    /// counted reference on the way (and was buffered for it) or that
    /// candidate leads to it. A holder in this state can take over a
    /// newborn's birth pin without the newborn becoming a candidate.
    Anchored,
    /// The object's table index is in the store's candidate buffer,
    /// exactly once.
    Buffered,
}

/// Storage record of one object.
#[derive(Debug, Clone)]
pub struct ObjectInfo {
    /// Object size in bytes (≥ 1).
    pub size: u32,
    /// Partition the object currently resides in.
    pub partition: PartitionId,
    /// Byte offset of the object within its partition.
    pub offset: u32,
    /// Start of this object's pointer slots in the store's slot arena.
    pub slots_start: u32,
    /// Number of pointer slots.
    pub slots_len: u32,
    /// Incoming references from live holders plus root pins plus the birth
    /// pin. Maintained by the garbage tracker; an object whose count
    /// reaches zero is garbage.
    pub refcount: u32,
    /// Liveness state.
    pub state: ObjState,
    /// Is the object currently in the root set?
    pub is_root: bool,
    /// A newborn object is held by a transient application register (the
    /// variable the program created it into) until its first incoming
    /// reference or root registration arrives. The pin contributes one
    /// reference count and makes the object a collection root of its
    /// partition; it is dropped — replaced by the incoming reference —
    /// the first time the object is referenced.
    pub birth_pin: bool,
    /// The visit epoch this object was last marked in (see
    /// [`Store::begin_visit_epoch`](crate::Store::begin_visit_epoch)).
    /// `0` means "never marked": epochs handed out by the store start
    /// at 1. This replaces per-traversal `HashSet` visited sets — a
    /// traversal marks an object by writing the current epoch here, and
    /// "already visited" is a single integer compare.
    pub mark_epoch: u32,
    /// The cycle detector's note on this object. `Buffered` doubles as
    /// the flag that keeps the candidate buffer to one entry per object.
    /// Occupies what was the struct's padding byte.
    pub cycle: CycleState,
}

impl ObjectInfo {
    /// A fresh live object whose slots occupy
    /// `slots_start..slots_start + slots_len` of the store's slot arena.
    pub fn new(
        size: u32,
        partition: PartitionId,
        offset: u32,
        slots_start: u32,
        slots_len: u32,
    ) -> Self {
        ObjectInfo {
            size,
            partition,
            offset,
            slots_start,
            slots_len,
            refcount: 1, // the birth pin
            state: ObjState::Live,
            is_root: false,
            birth_pin: true,
            mark_epoch: 0,
            cycle: CycleState::Unknown,
        }
    }

    /// This object's slot range in the store's slot arena.
    #[inline]
    pub fn slot_range(&self) -> std::ops::Range<usize> {
        let start = self.slots_start as usize;
        start..start + self.slots_len as usize
    }

    /// Reachable per the tracker.
    pub fn is_live(&self) -> bool {
        self.state == ObjState::Live
    }

    /// Unreachable but still occupying storage.
    pub fn is_garbage(&self) -> bool {
        self.state == ObjState::Garbage
    }

    /// Physically present in storage (live or garbage, not yet reclaimed).
    pub fn is_present(&self) -> bool {
        self.state != ObjState::Destroyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_object_is_live_unrooted_and_birth_pinned() {
        let o = ObjectInfo::new(64, PartitionId::new(0), 0, 0, 2);
        assert!(o.is_live());
        assert!(o.is_present());
        assert!(!o.is_root);
        assert!(o.birth_pin);
        assert_eq!(o.cycle, CycleState::Unknown);
        assert_eq!(o.refcount, 1);
        assert_eq!(o.slot_range(), 0..2);
    }

    #[test]
    fn cycle_state_fits_in_the_padding_byte() {
        // The object table is the store's largest allocation; the
        // detector's note must not grow its entries.
        assert_eq!(std::mem::size_of::<ObjectInfo>(), 32);
        assert_eq!(std::mem::size_of::<Option<ObjectInfo>>(), 32);
    }

    #[test]
    fn packed_slot_keeps_the_far_bit_out_of_the_id() {
        let id = ObjectId::new(u64::from(u32::MAX) - 1);
        let far = PackedSlot::to(id, true);
        assert_eq!(
            (far.get(), far.far(), far.local()),
            (Some(id), Some(id), None)
        );
        let local = PackedSlot::to(id, false);
        assert_eq!(
            (local.get(), local.far(), local.local()),
            (Some(id), None, Some(id))
        );
        let null = PackedSlot::NULL;
        assert_eq!((null.get(), null.far(), null.local()), (None, None, None));
    }

    #[test]
    fn state_predicates() {
        let mut o = ObjectInfo::new(8, PartitionId::new(1), 16, 4, 0);
        o.state = ObjState::Garbage;
        assert!(o.is_garbage() && o.is_present() && !o.is_live());
        o.state = ObjState::Destroyed;
        assert!(!o.is_present() && !o.is_garbage() && !o.is_live());
    }
}
