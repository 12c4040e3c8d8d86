//! Fine-grain state / history behavior (§2.4.2).
//!
//! State: the per-partition pointer-overwrite counters `PO(p)` — pointer
//! overwrites correlate strongly with garbage creation, and a partition's
//! counter resets to zero when it is collected (all its potential garbage
//! reclaimed). Behavior: bytes reclaimed per pointer overwrite (`GPPO`),
//! smoothed over recent collections by an exponential mean with history
//! factor `h`:
//!
//! ```text
//! GPPO_h = h · GPPO_h + (1 − h) · GPPO
//! ActGarb = GPPO_h · Σ_p PO(p)
//! ```
//!
//! Varying `h` from 1.0 to 0.0 moves the heuristic from FGS/HB to FGS/CB.
//! The estimator is very cheap: one smoothed scalar plus counters the
//! UPDATEDPOINTER selection policy maintains anyway.

use crate::ewma::Ewma;
use crate::policy::CollectionObservation;

/// `ActGarb ≈ smoothed garbage-per-overwrite × outstanding overwrites`.
#[derive(Debug, Clone)]
pub struct FgsHb {
    gppo: Ewma,
}

impl FgsHb {
    /// The history factor the paper uses in practice (§4.1.2).
    pub const PAPER_H: f64 = 0.8;

    /// Creates the estimator with history factor `h ∈ [0, 1]`.
    pub fn new(h: f64) -> Self {
        FgsHb { gppo: Ewma::new(h) }
    }

    /// Consumes the post-collection observation and returns the estimate
    /// of `ActGarb` in bytes.
    pub fn estimate(&mut self, obs: &CollectionObservation) -> f64 {
        // A collection of a partition with no recorded overwrites carries
        // no behavior signal (GPPO undefined); keep the current history.
        if obs.overwrites_of_collected > 0 {
            let sample = obs.bytes_reclaimed as f64 / obs.overwrites_of_collected as f64;
            self.gppo.update(sample);
        }
        let gppo = self.gppo.value().unwrap_or(0.0);
        gppo * obs.total_outstanding_overwrites as f64
    }

    /// Estimator name for reports.
    pub fn name(&self) -> String {
        format!("fgs-hb(h={:.2})", self.gppo.h())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(reclaimed: u64, po_collected: u64, po_outstanding: u64) -> CollectionObservation {
        CollectionObservation {
            bytes_reclaimed: reclaimed,
            overwrites_of_collected: po_collected,
            total_outstanding_overwrites: po_outstanding,
            ..CollectionObservation::zero()
        }
    }

    #[test]
    fn first_sample_sets_gppo_directly() {
        let mut e = FgsHb::new(0.8);
        // 600 bytes over 6 overwrites → GPPO 100; 50 outstanding → 5000.
        assert_eq!(e.estimate(&obs(600, 6, 50)), 5_000.0);
        assert_eq!(e.gppo.value(), Some(100.0));
    }

    #[test]
    fn history_smooths_behavior() {
        let mut e = FgsHb::new(0.8);
        e.estimate(&obs(600, 6, 50)); // GPPO 100
        e.estimate(&obs(400, 2, 50)); // sample 200 → 0.8·100 + 0.2·200 = 120
        assert!((e.gppo.value().unwrap() - 120.0).abs() < 1e-12);
    }

    #[test]
    fn zero_overwrite_collection_keeps_history() {
        let mut e = FgsHb::new(0.8);
        e.estimate(&obs(600, 6, 50));
        let est = e.estimate(&obs(123, 0, 30));
        assert_eq!(e.gppo.value(), Some(100.0));
        assert_eq!(est, 3_000.0);
    }

    #[test]
    fn no_signal_yet_estimates_zero() {
        let mut e = FgsHb::new(0.8);
        assert_eq!(e.estimate(&obs(0, 0, 1_000)), 0.0);
    }

    #[test]
    fn h_zero_is_current_behavior() {
        let mut e = FgsHb::new(0.0);
        e.estimate(&obs(600, 6, 50));
        e.estimate(&obs(400, 2, 50)); // sample 200 replaces history
        assert_eq!(e.gppo.value(), Some(200.0));
    }

    #[test]
    fn estimate_scales_with_outstanding_overwrites() {
        let mut e = FgsHb::new(0.8);
        e.estimate(&obs(600, 6, 50));
        // After more application overwrites accumulate, the same GPPO
        // predicts proportionally more garbage.
        assert_eq!(e.estimate(&obs(0, 0, 200)), 20_000.0);
    }

    #[test]
    fn name_includes_h() {
        assert_eq!(FgsHb::new(0.5).name(), "fgs-hb(h=0.50)");
    }

    #[test]
    fn boundary_history_factors_accepted() {
        FgsHb::new(0.0);
        FgsHb::new(1.0);
    }

    #[test]
    #[should_panic(expected = "history factor")]
    fn history_factor_above_one_rejected() {
        FgsHb::new(1.5);
    }

    #[test]
    #[should_panic(expected = "history factor")]
    fn negative_history_factor_rejected() {
        FgsHb::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "history factor")]
    fn nan_history_factor_rejected() {
        FgsHb::new(f64::NAN);
    }
}
