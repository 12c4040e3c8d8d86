//! Store errors.

use odbgc_trace::{ObjectId, SlotIdx};

/// A trace event that the store could not apply. Any of these indicates a
/// malformed trace (or a store bug), never a legal application behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The event names an object id that was never created.
    UnknownObject(ObjectId),
    /// The event touches an object that the collector already destroyed.
    /// A correct trace can never do this: destroyed objects were
    /// unreachable, and applications cannot name unreachable objects.
    UseAfterFree(ObjectId),
    /// The event mutates or reads an object that is unreachable (garbage).
    TouchedGarbage(ObjectId),
    /// A creation reused an existing id.
    DuplicateId(ObjectId),
    /// A slot index beyond the object's slot count.
    SlotOutOfBounds {
        /// The object addressed.
        object: ObjectId,
        /// The offending slot index.
        slot: SlotIdx,
        /// How many slots the object actually has.
        slot_count: usize,
    },
    /// A `Create` of size 0 (objects must occupy storage).
    ZeroSizeObject(ObjectId),
    /// A `Create` so large that the whole pages holding it pass the
    /// `u32` a partition's capacity is kept in.
    ObjectTooLarge {
        /// The object that was to be created.
        object: ObjectId,
        /// Its requested size in bytes.
        size: u32,
    },
    /// RootAdd for an object already in the root set.
    DuplicateRoot(ObjectId),
    /// RootRemove for an object not in the root set.
    NotARoot(ObjectId),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownObject(id) => write!(f, "unknown object {id}"),
            StoreError::UseAfterFree(id) => write!(f, "use of destroyed object {id}"),
            StoreError::TouchedGarbage(id) => write!(f, "touched unreachable object {id}"),
            StoreError::DuplicateId(id) => write!(f, "duplicate creation of {id}"),
            StoreError::SlotOutOfBounds {
                object,
                slot,
                slot_count,
            } => write!(
                f,
                "slot {slot} out of bounds for {object} ({slot_count} slots)"
            ),
            StoreError::ZeroSizeObject(id) => write!(f, "object {id} created with size 0"),
            StoreError::ObjectTooLarge { object, size } => write!(
                f,
                "object {object} of {size} bytes is larger than any partition can be"
            ),
            StoreError::DuplicateRoot(id) => write!(f, "object {id} is already a root"),
            StoreError::NotARoot(id) => write!(f, "object {id} is not a root"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let id = ObjectId::new(9);
        assert!(StoreError::UnknownObject(id).to_string().contains("o9"));
        assert!(StoreError::SlotOutOfBounds {
            object: id,
            slot: SlotIdx::new(4),
            slot_count: 2
        }
        .to_string()
        .contains("out of bounds"));
    }
}
