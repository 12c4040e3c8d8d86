//! Storage-level identifiers: partitions and pages.

use std::fmt;

/// Identifier of a partition. Dense: partitions are numbered in creation
/// order and never disappear (an emptied partition stays allocated and is
/// reused by the allocator).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(u32);

impl PartitionId {
    /// Wraps a raw partition number.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        PartitionId(raw)
    }

    /// The raw partition number.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The partition number as a `usize`, for indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Global page address: a page index within a partition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// The partition the page belongs to.
    pub partition: PartitionId,
    /// Page index within the partition.
    pub page: u32,
}

impl PageKey {
    /// A page address from its parts.
    #[inline]
    pub const fn new(partition: PartitionId, page: u32) -> Self {
        PageKey { partition, page }
    }
}

impl fmt::Debug for PageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/pg{}", self.partition, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_id_formats() {
        assert_eq!(format!("{}", PartitionId::new(3)), "P3");
        assert_eq!(
            format!("{:?}", PageKey::new(PartitionId::new(3), 1)),
            "P3/pg1"
        );
    }
}
