//! Collector crew totals.
//!
//! Collections run on the thread that owns the store, one partition at a
//! time, so there is no crew and [`SchedTotals`] always reads zero. The
//! type stays because `odbgc_engine::StoreEngine::sched_totals` returns
//! it (re-exported as `odbgc_gc::SchedTotals`) and the end-to-end
//! benchmark still reads its fields.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Totals of collector-crew work: all zero, since collections run
/// sequentially.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Collections planned on a crew.
    pub collections: u64,
    /// Work chunks run by a crew.
    pub packets: u64,
    /// Chunks run by a crew member other than their owner.
    pub steals: u64,
    /// Crew members' wall time, nanoseconds.
    pub busy_ns: u64,
}
