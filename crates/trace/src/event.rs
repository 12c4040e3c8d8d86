//! The database event alphabet.

use crate::ids::{ObjectId, PhaseId, SlotIdx};

/// One logical database event.
///
/// Events describe what the *application* did, never what the storage
/// manager did: there is no "collect" event because collection scheduling
/// is exactly the decision under study. The alphabet matches the event
/// classes of the paper's simulator (object creations, accesses,
/// modifications) plus explicit root-set management and phase markers used
/// for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A new object of `size` bytes with the given initial slot contents.
    ///
    /// Initial slot stores are *not* pointer overwrites: no pointer existed
    /// before, so no garbage can be created.
    Create {
        /// The fresh object's id.
        id: ObjectId,
        /// Object size in bytes.
        size: u32,
        /// Initial slot contents (`None` = null pointer).
        slots: Box<[Option<ObjectId>]>,
    },
    /// A read-only access (navigation) to an existing object.
    Access {
        /// The object read.
        id: ObjectId,
    },
    /// A pointer store: `src.slots[slot] = new`.
    ///
    /// Whether this counts as a *pointer overwrite* (the paper's unit of
    /// collection-rate time) depends on the old slot value, which the store
    /// knows at replay time: overwriting a non-null pointer is the event
    /// that can create garbage.
    SlotWrite {
        /// The object whose slot is written.
        src: ObjectId,
        /// Which slot.
        slot: SlotIdx,
        /// The new pointer (`None` = null).
        new: Option<ObjectId>,
    },
    /// Adds an object to the persistent root set.
    RootAdd {
        /// The object pinned as a root.
        id: ObjectId,
    },
    /// Removes an object from the persistent root set.
    RootRemove {
        /// The object unpinned.
        id: ObjectId,
    },
    /// Marks the start of an application phase (reporting only).
    Phase {
        /// Phase id (name lives in the trace's side table).
        id: PhaseId,
    },
}

impl Event {
    /// The primary object this event concerns, if any.
    pub fn subject(&self) -> Option<ObjectId> {
        match self {
            Event::Create { id, .. }
            | Event::Access { id }
            | Event::RootAdd { id }
            | Event::RootRemove { id } => Some(*id),
            Event::SlotWrite { src, .. } => Some(*src),
            Event::Phase { .. } => None,
        }
    }

    /// Short lowercase tag used by the codec and statistics.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Create { .. } => EventKind::Create,
            Event::Access { .. } => EventKind::Access,
            Event::SlotWrite { .. } => EventKind::SlotWrite,
            Event::RootAdd { .. } => EventKind::RootAdd,
            Event::RootRemove { .. } => EventKind::RootRemove,
            Event::Phase { .. } => EventKind::Phase,
        }
    }
}

/// Discriminant-only view of [`Event`], used for counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Object creation.
    Create,
    /// Read-only access.
    Access,
    /// Pointer store.
    SlotWrite,
    /// Root-set addition.
    RootAdd,
    /// Root-set removal.
    RootRemove,
    /// Phase marker.
    Phase,
}

impl EventKind {
    /// Every kind, in a stable order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Create,
        EventKind::Access,
        EventKind::SlotWrite,
        EventKind::RootAdd,
        EventKind::RootRemove,
        EventKind::Phase,
    ];

    /// Stable tag used by the text codec.
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::Create => "c",
            EventKind::Access => "a",
            EventKind::SlotWrite => "w",
            EventKind::RootAdd => "r+",
            EventKind::RootRemove => "r-",
            EventKind::Phase => "ph",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    #[test]
    fn subjects() {
        assert_eq!(Event::Access { id: oid(7) }.subject(), Some(oid(7)));
        assert_eq!(
            Event::SlotWrite {
                src: oid(3),
                slot: SlotIdx::new(1),
                new: Some(oid(9)),
            }
            .subject(),
            Some(oid(3))
        );
        assert_eq!(
            Event::Phase {
                id: PhaseId::new(0)
            }
            .subject(),
            None
        );
    }

    #[test]
    fn kind_tags_are_unique() {
        use std::collections::HashSet;
        let tags: HashSet<_> = EventKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), EventKind::ALL.len());
    }
}
