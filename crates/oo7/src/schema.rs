//! Object kinds and slot-layout conventions.
//!
//! Slot layouts (fixed at creation):
//!
//! | Kind            | Slots                                                    |
//! |-----------------|----------------------------------------------------------|
//! | Module          | `[manual, root assembly, design library: all composites]` |
//! | Manual          | none                                                     |
//! | ComplexAssembly | `[child assemblies]`                                     |
//! | BaseAssembly    | `[referenced composite parts]`                           |
//! | CompositePart   | `[document, parts set]`                                  |
//! | Document        | none                                                     |
//! | AtomicPart      | `[out connections…, in connections…]`                    |
//! | Connection      | `[from part, to part]`                                   |
//!
//! The design library on the module is the OO7 schema's guarantee that
//! every composite part is reachable even if no base assembly happens to
//! reference it.

use crate::params::{ConnStyle, Oo7Params};

/// The OO7 object kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// The single top-level module.
    Module,
    /// The module's large manual object.
    Manual,
    /// Interior assembly-tree node.
    ComplexAssembly,
    /// Leaf assembly referencing composite parts.
    BaseAssembly,
    /// A composite part: document + atomic-parts set.
    CompositePart,
    /// A composite's document.
    Document,
    /// An atomic part.
    AtomicPart,
    /// A connection between two atomic parts.
    Connection,
}

impl Kind {
    /// Every kind, in a stable order.
    pub const ALL: [Kind; 8] = [
        Kind::Module,
        Kind::Manual,
        Kind::ComplexAssembly,
        Kind::BaseAssembly,
        Kind::CompositePart,
        Kind::Document,
        Kind::AtomicPart,
        Kind::Connection,
    ];

    /// Object size in bytes under the given parameters.
    pub fn size(self, p: &Oo7Params) -> u32 {
        match self {
            Kind::Module => p.module_size,
            Kind::Manual => p.manual_size,
            Kind::ComplexAssembly | Kind::BaseAssembly => p.assembly_size,
            Kind::CompositePart => p.composite_size,
            Kind::Document => p.document_size,
            Kind::AtomicPart => p.atomic_part_size,
            Kind::Connection => p.connection_size,
        }
    }

    /// Number of pointer slots under the given parameters.
    pub fn slot_count(self, p: &Oo7Params) -> usize {
        match self {
            Kind::Module => 2 + p.num_comp_per_module as usize,
            Kind::Manual | Kind::Document => 0,
            Kind::ComplexAssembly => p.num_assm_per_assm as usize,
            Kind::BaseAssembly => p.num_comp_per_assm as usize,
            Kind::CompositePart => 1 + p.num_atomic_per_comp as usize,
            Kind::AtomicPart => match p.conn_style {
                ConnStyle::Bidirectional => (p.num_conn_per_atomic + p.in_conn_capacity()) as usize,
                ConnStyle::Forward => p.num_conn_per_atomic as usize,
            },
            Kind::Connection => match p.conn_style {
                ConnStyle::Bidirectional => 2,
                ConnStyle::Forward => 1,
            },
        }
    }
}

/// Composite-part slot 0 holds the document.
pub const COMPOSITE_DOC_SLOT: u32 = 0;

/// Composite-part slots `1..=num_atomic_per_comp` hold the parts set.
pub fn composite_part_slot(index: u32) -> u32 {
    1 + index
}

/// Module slot 0 holds the manual.
pub const MODULE_MANUAL_SLOT: u32 = 0;
/// Module slot 1 holds the root assembly.
pub const MODULE_ROOT_ASSM_SLOT: u32 = 1;

/// Module slots `2..` form the design library (one per composite).
pub fn module_library_slot(comp_index: u32) -> u32 {
    2 + comp_index
}

/// Atomic-part slots `0..num_conn_per_atomic` hold out-connections.
pub fn part_out_slot(index: u32) -> u32 {
    index
}

/// Atomic-part slots `num_conn_per_atomic..` hold in-connections.
pub fn part_in_slot(p: &Oo7Params, index: u32) -> u32 {
    p.num_conn_per_atomic + index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_params() {
        let p = Oo7Params::small_prime(3);
        assert_eq!(Kind::Document.size(&p), 2000);
        assert_eq!(Kind::Manual.size(&p), 102_400);
        assert_eq!(Kind::AtomicPart.size(&p), 200);
    }

    #[test]
    fn slot_counts_follow_params() {
        let p = Oo7Params::small_prime(3);
        assert_eq!(Kind::Module.slot_count(&p), 152);
        assert_eq!(Kind::CompositePart.slot_count(&p), 21);
        assert_eq!(Kind::AtomicPart.slot_count(&p), 3 + 6);
        assert_eq!(Kind::Connection.slot_count(&p), 2);
        assert_eq!(Kind::Manual.slot_count(&p), 0);
    }

    #[test]
    fn slot_helpers_are_consistent() {
        let p = Oo7Params::small_prime(3);
        assert_eq!(composite_part_slot(0), 1);
        assert_eq!(
            composite_part_slot(p.num_atomic_per_comp - 1) as usize,
            Kind::CompositePart.slot_count(&p) - 1
        );
        assert_eq!(part_out_slot(2), 2);
        assert_eq!(part_in_slot(&p, 0), 3);
        assert_eq!(
            part_in_slot(&p, p.in_conn_capacity() - 1) as usize,
            Kind::AtomicPart.slot_count(&p) - 1
        );
        assert_eq!(module_library_slot(0), 2);
    }
}
