//! Types exchanged between the store and the collector.

use crate::ids::PartitionId;

/// Read-only per-partition facts a partition-selection policy may consult.
///
/// `garbage_bytes` is oracle knowledge (exact, from the incremental
/// tracker) and is exposed only so that oracle baselines and tests can use
/// it; realizable policies must restrict themselves to the other fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// The partition described.
    pub id: PartitionId,
    /// Pointer overwrites into this partition since its last collection.
    pub overwrites: u64,
    /// Bytes in use (live + garbage) — the append high-water mark.
    pub occupied_bytes: u32,
    /// Partition capacity in bytes.
    pub capacity: u32,
    /// Number of resident objects (live + garbage).
    pub residents: usize,
    /// Times this partition has been collected.
    pub collections: u64,
    /// Exact garbage bytes resident here (oracle only).
    pub garbage_bytes: u64,
    /// Exact live bytes resident here (oracle only).
    pub live_bytes: u64,
}

/// Result of applying a collection to one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionApplied {
    /// The collected partition.
    pub partition: PartitionId,
    /// Bytes physically reclaimed (sizes of destroyed objects).
    pub bytes_reclaimed: u64,
    /// Bytes remaining in the partition after compaction.
    pub bytes_after: u64,
    /// Objects destroyed.
    pub objects_destroyed: usize,
    /// Objects that survived (copied/compacted).
    pub objects_survived: usize,
    /// Page reads charged to the collector for this collection.
    pub gc_reads: u64,
    /// Page writes charged to the collector for this collection.
    pub gc_writes: u64,
    /// The partition's pointer-overwrite count at the moment of collection
    /// (before its reset) — the denominator of the FGS/HB estimator's
    /// garbage-per-pointer-overwrite behavior metric.
    pub overwrites_at_collection: u64,
}

impl CollectionApplied {
    /// Collector I/O for this collection.
    pub fn gc_io(&self) -> u64 {
        self.gc_reads + self.gc_writes
    }

    /// Bytes reclaimed per overwrite observed on this partition (the
    /// current-behavior `GPPO` sample), or `None` when no overwrites were
    /// recorded.
    pub fn gppo(&self) -> Option<f64> {
        if self.overwrites_at_collection == 0 {
            None
        } else {
            Some(self.bytes_reclaimed as f64 / self.overwrites_at_collection as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gppo_handles_zero_overwrites() {
        let mut c = CollectionApplied {
            partition: PartitionId::new(0),
            bytes_reclaimed: 600,
            bytes_after: 100,
            objects_destroyed: 3,
            objects_survived: 1,
            gc_reads: 12,
            gc_writes: 2,
            overwrites_at_collection: 0,
        };
        assert_eq!(c.gppo(), None);
        assert_eq!(c.gc_io(), 14);
        c.overwrites_at_collection = 6;
        assert_eq!(c.gppo(), Some(100.0));
    }
}
