//! Everything one run — replayed or live — produced.

use crate::series::CollectionRecord;

/// Everything one run produced.
///
/// A "run" is any complete drive of a [`crate::StoreEngine`]: a trace
/// replay, a serve-mode shard's lifetime, or a hand-driven session
/// script. The fields are identical in meaning across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-collection series.
    pub collections: Vec<CollectionRecord>,
    /// Mean garbage percentage sampled at every event applied once the
    /// engine's `preamble_collections` were done, on a non-empty
    /// database; `None` if no event was sampled.
    pub garbage_pct_mean: Option<f64>,
    /// GC share of I/O over the same window, percent:
    /// [`RunResult::windowed_gc_io_pct`] at the engine's
    /// `preamble_collections`.
    pub gc_io_pct: Option<f64>,
    /// Total application page I/O.
    pub app_io_total: u64,
    /// Total collector page I/O.
    pub gc_io_total: u64,
    /// `TotGarb` at end of run (bytes).
    pub total_garbage_generated: u64,
    /// `TotColl` at end of run (bytes).
    pub total_garbage_collected: u64,
    /// Allocated storage at end of run (bytes).
    pub final_db_size: u64,
    /// Live bytes at end of run.
    pub final_live_bytes: u64,
    /// Garbage bytes remaining at end of run.
    pub final_garbage_bytes: u64,
    /// Partitions allocated by end of run.
    pub partition_count: u64,
    /// Total pointer overwrites replayed.
    pub overwrite_clock: u64,
    /// Events replayed (the whole trace on success).
    pub events_replayed: u64,
    /// `(phase name, event index, collections done at phase start)`.
    pub phases: Vec<(String, u64, u64)>,
}

impl RunResult {
    /// Total I/O operations (application + collector).
    pub fn total_io(&self) -> u64 {
        self.app_io_total + self.gc_io_total
    }

    /// GC share of I/O over the whole run (not window-restricted), 0
    /// when the run did no I/O.
    pub fn gc_io_pct_whole_run(&self) -> f64 {
        self.windowed_gc_io_pct(0).unwrap_or(0.0)
    }

    /// Number of collections performed.
    pub fn collection_count(&self) -> u64 {
        self.collections.len() as u64
    }

    /// GC share of I/O after the first `preamble` collections (the whole
    /// run at 0), summed out of the collection series, or `None` when the
    /// run had fewer than `preamble` collections or the window saw no
    /// I/O. Sweeps whose extreme settings produce few collections can
    /// shorten the preamble (the paper's preambles range from 10 to 30
    /// "depending on the simulation parameters").
    pub fn windowed_gc_io_pct(&self, preamble: u64) -> Option<f64> {
        let skipped = self.collections.get(..usize::try_from(preamble).ok()?)?;
        let app = self.app_io_total - skipped.iter().map(|r| r.app_io_since_prev).sum::<u64>();
        let gc = self.gc_io_total - skipped.iter().map(|r| r.gc_io).sum::<u64>();
        let total = app + gc;
        (total > 0).then(|| 100.0 * gc as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run whose one collection followed 100 application I/Os and cost
    /// 50, ending at the given totals.
    fn one_collection_run(app_io_total: u64, gc_io_total: u64) -> RunResult {
        let first = CollectionRecord {
            index: 0,
            clock: 0,
            interval_overwrites: 0,
            app_io_since_prev: 100,
            gc_io: 50,
            bytes_reclaimed: 0,
            partition: 0,
            db_size: 0,
            actual_garbage: 0,
            estimated_garbage: None,
            gc_io_fraction_cum: 50.0 / 150.0,
        };
        RunResult {
            collections: vec![first],
            garbage_pct_mean: None,
            gc_io_pct: None,
            app_io_total,
            gc_io_total,
            total_garbage_generated: 0,
            total_garbage_collected: 0,
            final_db_size: 0,
            final_live_bytes: 0,
            final_garbage_bytes: 0,
            partition_count: 0,
            overwrite_clock: 0,
            events_replayed: 0,
            phases: Vec::new(),
        }
    }

    #[test]
    fn io_window_measures_from_preamble_boundary() {
        // The window starts at the first collection: no I/O in it yet.
        assert_eq!(one_collection_run(100, 50).windowed_gc_io_pct(1), None);
        // Since then: app 300-100=200, gc 100-50=50 → 20%.
        let r = one_collection_run(300, 100);
        assert!((r.windowed_gc_io_pct(1).unwrap() - 20.0).abs() < 1e-12);
        assert!((r.windowed_gc_io_pct(0).unwrap() - 25.0).abs() < 1e-12);
        assert_eq!(r.gc_io_pct_whole_run(), r.windowed_gc_io_pct(0).unwrap());
        assert_eq!(r.windowed_gc_io_pct(2), None, "past the collections");
    }
}
