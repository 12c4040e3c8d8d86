//! Scheduler execution statistics.
//!
//! Everything in this module describes *how* a collection was executed
//! — worker busy times, steal counts, packet placement — never *what*
//! it computed. The numbers vary run to run and with the worker count,
//! so consumers must keep them out of deterministic output.

/// What one worker did during one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Packets this worker executed.
    pub executed: u64,
    /// Packets this worker stole from a sibling's deque.
    pub steals: u64,
    /// Wall time the worker spent inside the bucket, nanoseconds.
    pub busy_ns: u64,
}

/// Execution record of one drained bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketStats {
    /// The bucket's stage label (e.g. `"trace"`).
    pub label: &'static str,
    /// Packets the bucket held.
    pub packets: u64,
    /// Per-worker loads, indexed by worker. Length is the number of
    /// workers that participated (1 for inline buckets).
    pub workers: Vec<WorkerLoad>,
}

impl BucketStats {
    /// Total steals across workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total busy nanoseconds across workers.
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }
}

/// Execution record of one collection: every bucket it drained, in
/// stage order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Configured worker-pool size (buckets may use fewer).
    pub workers: usize,
    /// Drained buckets in execution order.
    pub buckets: Vec<BucketStats>,
}

impl SchedStats {
    /// An empty record for a pool of `workers`.
    pub fn new(workers: usize) -> Self {
        SchedStats {
            workers,
            buckets: Vec::new(),
        }
    }

    /// Appends one drained bucket.
    pub fn push(&mut self, bucket: BucketStats) {
        self.buckets.push(bucket);
    }

    /// Total packets executed.
    pub fn packets(&self) -> u64 {
        self.buckets.iter().map(|b| b.packets).sum()
    }

    /// Total steals.
    pub fn steals(&self) -> u64 {
        self.buckets.iter().map(BucketStats::steals).sum()
    }

    /// Total busy nanoseconds across buckets and workers.
    pub fn busy_ns(&self) -> u64 {
        self.buckets.iter().map(BucketStats::busy_ns).sum()
    }
}

/// Running totals across collections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Collections absorbed.
    pub collections: u64,
    /// Packets executed.
    pub packets: u64,
    /// Packets stolen.
    pub steals: u64,
    /// Busy nanoseconds across all workers.
    pub busy_ns: u64,
}

impl SchedTotals {
    /// Folds one collection's record into the totals.
    pub fn absorb(&mut self, stats: &SchedStats) {
        self.collections += 1;
        self.packets += stats.packets();
        self.steals += stats.steals();
        self.busy_ns += stats.busy_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(label: &'static str, packets: u64, loads: &[(u64, u64, u64)]) -> BucketStats {
        BucketStats {
            label,
            packets,
            workers: loads
                .iter()
                .map(|&(executed, steals, busy_ns)| WorkerLoad {
                    executed,
                    steals,
                    busy_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn stats_aggregate_across_buckets_and_workers() {
        let mut s = SchedStats::new(2);
        s.push(bucket("root_scan", 1, &[(1, 0, 10)]));
        s.push(bucket("trace", 4, &[(3, 0, 100), (1, 1, 80)]));
        assert_eq!(s.packets(), 5);
        assert_eq!(s.steals(), 1);
        assert_eq!(s.busy_ns(), 190);
    }

    #[test]
    fn totals_absorb_collections() {
        let mut s = SchedStats::new(1);
        s.push(bucket("trace", 2, &[(2, 0, 50)]));
        let mut t = SchedTotals::default();
        t.absorb(&s);
        t.absorb(&s);
        assert_eq!(t.collections, 2);
        assert_eq!(t.packets, 4);
        assert_eq!(t.busy_ns, 100);
        assert_eq!(t.steals, 0);
    }
}
