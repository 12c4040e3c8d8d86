//! The generator's in-memory mirror of the database.
//!
//! The trace generator must know the exact slot contents of every object
//! it manipulates: deletion clears precisely the slots that reference the
//! doomed structure, and reinsertion stores only into free (null) slots.
//! The mirror is that knowledge; it never touches the store.

use odbgc_trace::{ObjectId, SlotIdx, TraceBuilder};
use rand::rngs::StdRng;

use crate::params::Oo7Params;
use crate::schema::Kind;

/// A connection, as seen from either endpoint.
///
/// `from`/`to` are part indices within the composite (slot identities,
/// stable across delete/reinsert cycles); `from_slot`/`to_slot` are the
/// absolute slot indices in the respective part objects holding this
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnMirror {
    /// The connection object's id.
    pub id: ObjectId,
    /// Source part index within the composite.
    pub from: u32,
    /// Out-slot index in the source part holding this connection.
    pub from_slot: u32,
    /// Target part index within the composite.
    pub to: u32,
    /// In-slot index in the target part (mirror-only under the forward
    /// connection style).
    pub to_slot: u32,
}

/// One atomic part.
#[derive(Debug, Clone)]
pub struct PartMirror {
    /// The atomic part's id.
    pub id: ObjectId,
    /// Out-connection slots (length = `num_conn_per_atomic`).
    pub out: Vec<Option<ConnMirror>>,
    /// In-connection slots (length = `in_conn_capacity()`).
    pub in_: Vec<Option<ConnMirror>>,
}

impl PartMirror {
    /// A fresh, unconnected part mirror.
    pub fn new(id: ObjectId, p: &Oo7Params) -> Self {
        PartMirror {
            id,
            out: vec![None; p.num_conn_per_atomic as usize],
            in_: vec![None; p.in_conn_capacity() as usize],
        }
    }

    /// Index of a free out slot, if any.
    pub fn free_out_slot(&self) -> Option<u32> {
        self.out.iter().position(Option::is_none).map(|i| i as u32)
    }

    /// Index of a free in slot, if any.
    pub fn free_in_slot(&self) -> Option<u32> {
        self.in_.iter().position(Option::is_none).map(|i| i as u32)
    }

    /// Number of live out-connections.
    pub fn out_degree(&self) -> usize {
        self.out.iter().flatten().count()
    }
}

/// One composite part.
#[derive(Debug, Clone)]
pub struct CompositeMirror {
    /// The composite part's id.
    pub id: ObjectId,
    /// The current document's id.
    pub doc: ObjectId,
    /// Parts by slot identity; `None` while a slot is deleted-not-yet-
    /// reinserted.
    pub parts: Vec<Option<PartMirror>>,
}

impl CompositeMirror {
    /// Indices of slots currently holding a live part.
    pub fn live_part_indices(&self) -> Vec<u32> {
        self.parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| i as u32))
            .collect()
    }

    /// The live part at slot `idx` (panics if the slot is empty).
    pub fn part(&self, idx: u32) -> &PartMirror {
        self.parts[idx as usize]
            .as_ref()
            .expect("part slot is live")
    }

    /// Mutable access to the live part at slot `idx`.
    pub fn part_mut(&mut self, idx: u32) -> &mut PartMirror {
        self.parts[idx as usize]
            .as_mut()
            .expect("part slot is live")
    }
}

/// One assembly-tree node.
#[derive(Debug, Clone)]
pub struct AssemblyMirror {
    /// The assembly object's id.
    pub id: ObjectId,
    /// Child assembly indices (complex assemblies only).
    pub children: Vec<usize>,
    /// Referenced composite indices (base assemblies only).
    pub composites: Vec<u32>,
    /// Leaf (base) assembly?
    pub is_base: bool,
}

/// The whole-module mirror.
#[derive(Debug, Clone)]
pub struct ModuleMirror {
    /// The module object's id.
    pub id: ObjectId,
    /// The manual object's id.
    pub manual: ObjectId,
    /// Assembly arena; index 0 is the root.
    pub assemblies: Vec<AssemblyMirror>,
    /// All composite parts, by index.
    pub composites: Vec<CompositeMirror>,
}

/// Generator state threaded through the phases: parameters, the trace
/// under construction, the RNG, and the mirror.
#[derive(Debug)]
pub struct GenState {
    /// The database parameters in force.
    pub params: Oo7Params,
    /// The trace being recorded.
    pub trace: TraceBuilder,
    /// The seeded generator RNG.
    pub rng: StdRng,
    /// The whole-database mirror.
    pub module: ModuleMirror,
    /// Connections that could not be placed because no candidate target
    /// had free in-capacity (diagnostic; expected to stay 0 or tiny).
    pub skipped_connections: u64,
}

impl GenState {
    /// Creates an object of `kind` with the given slot contents, emitting
    /// the trace event and returning the fresh id.
    pub fn create(&mut self, kind: Kind, slots: Vec<Option<ObjectId>>) -> ObjectId {
        debug_assert_eq!(slots.len(), kind.slot_count(&self.params));
        self.trace.create(kind.size(&self.params), slots)
    }

    /// Creates an object of `kind` with all-null slots.
    pub fn create_unlinked(&mut self, kind: Kind) -> ObjectId {
        let n = kind.slot_count(&self.params);
        self.trace.create_unlinked(kind.size(&self.params), n)
    }

    /// Emits a pointer store.
    pub fn write(&mut self, src: ObjectId, slot: u32, target: ObjectId) {
        self.trace.slot_write(src, SlotIdx::new(slot), Some(target));
    }

    /// Emits a pointer kill.
    pub fn clear(&mut self, src: ObjectId, slot: u32) {
        self.trace.slot_clear(src, SlotIdx::new(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(p: &Oo7Params) -> PartMirror {
        PartMirror::new(ObjectId::new(7), p)
    }

    #[test]
    fn fresh_part_has_all_slots_free() {
        let p = Oo7Params::tiny(); // conn 2, capacity 4
        let m = part(&p);
        assert_eq!(m.out.len(), 2);
        assert_eq!(m.in_.len(), 4);
        assert_eq!(m.free_out_slot(), Some(0));
        assert_eq!(m.free_in_slot(), Some(0));
        assert!(m.in_.iter().all(Option::is_none));
        assert_eq!(m.out_degree(), 0);
    }

    #[test]
    fn slot_occupancy_tracked() {
        let p = Oo7Params::tiny();
        let mut m = part(&p);
        let c = ConnMirror {
            id: ObjectId::new(9),
            from: 0,
            from_slot: 0,
            to: 1,
            to_slot: 2,
        };
        m.out[0] = Some(c);
        assert_eq!(m.free_out_slot(), Some(1));
        m.out[1] = Some(c);
        assert_eq!(m.free_out_slot(), None);
        assert_eq!(m.out_degree(), 2);
    }

    #[test]
    fn composite_live_indices_skip_deleted() {
        let p = Oo7Params::tiny();
        let mut comp = CompositeMirror {
            id: ObjectId::new(1),
            doc: ObjectId::new(2),
            parts: (0..4)
                .map(|i| Some(PartMirror::new(ObjectId::new(10 + i), &p)))
                .collect(),
        };
        comp.parts[2] = None;
        assert_eq!(comp.live_part_indices(), vec![0, 1, 3]);
        assert_eq!(comp.part(0).id, ObjectId::new(10));
    }
}
