//! I/O accounting: every page transfer is charged to the application or to
//! the garbage collector. The SAIO policy controls exactly the ratio
//! `gc_total / (gc_total + app_total)`.

/// Who caused a page transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// The application (trace replay through the buffer pool).
    App,
    /// The garbage collector (partition reads and compaction writes).
    Gc,
}

/// Cumulative page-transfer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoLedger {
    /// Page reads performed for the application.
    pub app_reads: u64,
    /// Page writes performed for the application (dirty evictions).
    pub app_writes: u64,
    /// Page reads performed by the collector.
    pub gc_reads: u64,
    /// Page writes performed by the collector.
    pub gc_writes: u64,
}

impl IoLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        IoLedger::default()
    }

    /// Charges `n` page reads to `class`.
    #[inline]
    pub fn charge_reads(&mut self, class: IoClass, n: u64) {
        match class {
            IoClass::App => self.app_reads += n,
            IoClass::Gc => self.gc_reads += n,
        }
    }

    /// Charges `n` page writes to `class`.
    #[inline]
    pub fn charge_writes(&mut self, class: IoClass, n: u64) {
        match class {
            IoClass::App => self.app_writes += n,
            IoClass::Gc => self.gc_writes += n,
        }
    }

    /// Application reads + writes.
    pub fn app_total(&self) -> u64 {
        self.app_reads + self.app_writes
    }

    /// Collector reads + writes.
    pub fn gc_total(&self) -> u64 {
        self.gc_reads + self.gc_writes
    }

    /// All page transfers.
    pub fn total(&self) -> u64 {
        self.app_total() + self.gc_total()
    }

    /// Fraction of all I/O performed by the collector, in `[0, 1]`;
    /// 0 when no I/O has happened.
    pub fn gc_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.gc_total() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_accumulates_per_class() {
        let mut l = IoLedger::new();
        l.charge_reads(IoClass::App, 3);
        l.charge_writes(IoClass::App, 1);
        l.charge_reads(IoClass::Gc, 12);
        l.charge_writes(IoClass::Gc, 8);
        assert_eq!(l.app_total(), 4);
        assert_eq!(l.gc_total(), 20);
        assert_eq!(l.total(), 24);
        assert!((l.gc_fraction() - 20.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_fraction_is_zero() {
        assert_eq!(IoLedger::new().gc_fraction(), 0.0);
    }

    #[test]
    fn snapshot_deltas() {
        // The ledger is `Copy`: a copy is the snapshot an interval's
        // deltas are measured from.
        let mut l = IoLedger::new();
        l.charge_reads(IoClass::App, 5);
        let snap = l;
        l.charge_reads(IoClass::App, 2);
        l.charge_writes(IoClass::Gc, 7);
        assert_eq!(l.app_total() - snap.app_total(), 2);
        assert_eq!(l.gc_total() - snap.gc_total(), 7);
        assert_eq!(l.total() - snap.total(), 9);
    }
}
