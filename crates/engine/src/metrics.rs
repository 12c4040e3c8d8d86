//! Event-sampled measurement with preamble exclusion.
//!
//! §4.1: "The means shown are computed as the average sampled at each
//! database event (i.e., object creation, access, or modification).
//! Sampling at each event represents an approximation of a uniform
//! sample, given the assumption of an active workload." Cold-start
//! behavior is excluded by skipping the first `preamble` collections
//! (§3.2).

/// Accumulates event-sampled means over the measured (post-preamble) part
/// of a run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    preamble: u64,
    collections_done: u64,
    /// Σ garbage-fraction samples (post-preamble).
    garbage_fraction_sum: f64,
    samples: u64,
    /// I/O totals at the moment the preamble ended.
    window_start_app_io: u64,
    window_start_gc_io: u64,
    window_started: bool,
}

impl RunMetrics {
    /// A metrics accumulator excluding the first `preamble` collections.
    pub fn new(preamble: u64) -> Self {
        RunMetrics {
            preamble,
            collections_done: 0,
            garbage_fraction_sum: 0.0,
            samples: 0,
            window_start_app_io: 0,
            window_start_gc_io: 0,
            // With no preamble the whole run is measured from the start.
            window_started: preamble == 0,
        }
    }

    /// Called after each database event with the current garbage bytes and
    /// database size.
    pub fn sample_event(&mut self, garbage_bytes: u64, db_size: u64) {
        if !self.in_window() || db_size == 0 {
            return;
        }
        self.garbage_fraction_sum += garbage_bytes as f64 / db_size as f64;
        self.samples += 1;
    }

    /// Called after each collection with the cumulative I/O totals so the
    /// measured window can start at the right boundary.
    pub fn note_collection(&mut self, app_io_total: u64, gc_io_total: u64) {
        self.collections_done += 1;
        if !self.window_started && self.collections_done >= self.preamble {
            self.window_start_app_io = app_io_total;
            self.window_start_gc_io = gc_io_total;
            self.window_started = true;
        }
    }

    /// Are we past the preamble?
    fn in_window(&self) -> bool {
        self.window_started
    }

    /// Mean garbage percentage over all post-preamble event samples, or
    /// `None` if the run never left the preamble.
    pub fn garbage_pct_mean(&self) -> Option<f64> {
        (self.samples > 0).then(|| 100.0 * self.garbage_fraction_sum / self.samples as f64)
    }

    /// GC share of total I/O over the measured window, given the final
    /// cumulative totals, or `None` if the run never left the preamble or
    /// the window saw no I/O.
    pub fn gc_io_pct(&self, app_io_total: u64, gc_io_total: u64) -> Option<f64> {
        if !self.window_started {
            return None;
        }
        let app = app_io_total - self.window_start_app_io;
        let gc = gc_io_total - self.window_start_gc_io;
        let total = app + gc;
        (total > 0).then(|| 100.0 * gc as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_excludes_early_samples() {
        let mut m = RunMetrics::new(2);
        m.sample_event(50, 100); // before any collection: ignored
        m.note_collection(10, 5);
        m.sample_event(50, 100); // one collection done: still preamble
        m.note_collection(20, 10);
        m.sample_event(30, 100); // window open now
        m.sample_event(10, 100);
        assert_eq!(m.samples, 2);
        assert!((m.garbage_pct_mean().unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn io_window_measures_from_preamble_boundary() {
        let mut m = RunMetrics::new(1);
        m.note_collection(100, 50); // window starts here
        assert_eq!(m.gc_io_pct(100, 50), None); // no I/O in window yet
                                                // Since then: app 300-100=200, gc 100-50=50 → 20%.
        assert!((m.gc_io_pct(300, 100).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn never_leaving_preamble_yields_none() {
        let mut m = RunMetrics::new(5);
        m.note_collection(1, 1);
        m.sample_event(1, 2);
        assert_eq!(m.garbage_pct_mean(), None);
        assert_eq!(m.gc_io_pct(10, 10), None);
        assert!(!m.in_window());
    }

    #[test]
    fn zero_preamble_measures_from_the_start() {
        let mut m = RunMetrics::new(0);
        m.sample_event(5, 10);
        assert_eq!(m.samples, 1);
        assert!((m.gc_io_pct(80, 20).unwrap() - 20.0).abs() < 1e-12);
    }
}
