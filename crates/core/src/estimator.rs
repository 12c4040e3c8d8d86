//! Garbage estimation (§2.4).
//!
//! SAGA needs `ActGarb(t)` — the garbage currently in the database — but
//! determining it exactly would require scanning the whole database. The
//! paper decomposes estimation into a *state* component (how much potential
//! garbage each partition holds: coarse grain = partition count, fine grain
//! = per-partition pointer-overwrite counts) and a *behavior* component
//! (what recent collections revealed: current = last collection only,
//! history = smoothed over recent collections).

use crate::estimators::fgs_hb::FgsHb;
use crate::policy::CollectionObservation;

/// Enumerable estimator configuration for experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Exact garbage knowledge (impractical; simulator-only, §4.1.2).
    Oracle,
    /// Coarse-grain state / current behavior.
    CgsCb,
    /// Fine-grain state / history behavior with history factor `h`.
    FgsHb {
        /// The exponential-mean history factor in `[0, 1]`.
        h: f64,
    },
}

impl EstimatorKind {
    /// Instantiates the estimator.
    pub fn build(self) -> Estimator {
        match self {
            EstimatorKind::Oracle => Estimator::Oracle,
            EstimatorKind::CgsCb => Estimator::CgsCb,
            EstimatorKind::FgsHb { h } => Estimator::FgsHb(FgsHb::new(h)),
        }
    }

    /// The paper's default FGS/HB configuration (`h = 0.8`, §4.1.2: "we
    /// have used 80% history with success").
    pub fn fgs_hb_default() -> Self {
        EstimatorKind::FgsHb { h: FgsHb::PAPER_H }
    }
}

/// A garbage estimator and its running state, built by
/// [`EstimatorKind::build`] and updated after every collection.
#[derive(Debug)]
pub enum Estimator {
    /// The perfect garbage "estimator", reading the simulator's oracle
    /// field.
    ///
    /// §2.4: "we have implemented in our simulator a perfect garbage
    /// estimator that knows exactly how much garbage exists in the
    /// database." It exists to evaluate the SAGA control algorithm
    /// independent of estimation error (Figure 5's near-perfect line); a
    /// real ODBMS cannot implement it without scanning the whole database.
    Oracle,
    /// Coarse-grain state / current behavior (§2.4.1):
    /// `ActGarb ≈ bytes reclaimed by last collection × partition count`.
    ///
    /// State: the database is just `p` allocated partitions. Behavior:
    /// the last collection reclaimed `C` bytes. Estimate: `ActGarb = C ·
    /// p`, i.e. assume every partition holds as much garbage as the one
    /// just collected.
    ///
    /// The paper shows this heuristic is poor (Figures 5, 6a): the
    /// UPDATEDPOINTER selection policy deliberately picks a partition with
    /// *more* than average garbage, so extrapolating its yield to all
    /// partitions systematically overestimates — and using only the
    /// current collection makes the estimate noisy.
    CgsCb,
    /// Fine-grain state / history behavior (§2.4.2); see [`FgsHb`].
    FgsHb(FgsHb),
}

impl Estimator {
    /// Consumes the post-collection observation and returns the estimate
    /// of `ActGarb` in bytes.
    pub fn estimate(&mut self, obs: &CollectionObservation) -> f64 {
        match self {
            Estimator::Oracle => obs.exact_garbage as f64,
            Estimator::CgsCb => obs.bytes_reclaimed as f64 * obs.partition_count as f64,
            Estimator::FgsHb(e) => e.estimate(obs),
        }
    }

    /// Estimator name for reports.
    pub fn name(&self) -> String {
        match self {
            Estimator::Oracle => "oracle".to_owned(),
            Estimator::CgsCb => "cgs-cb".to_owned(),
            Estimator::FgsHb(e) => e.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_named_estimators() {
        assert_eq!(EstimatorKind::Oracle.build().name(), "oracle");
        assert_eq!(EstimatorKind::CgsCb.build().name(), "cgs-cb");
        assert_eq!(
            EstimatorKind::fgs_hb_default().build().name(),
            "fgs-hb(h=0.80)"
        );
    }

    #[test]
    fn oracle_returns_exact_garbage() {
        let mut o = EstimatorKind::Oracle.build();
        let obs = CollectionObservation {
            exact_garbage: 12_345,
            ..CollectionObservation::zero()
        };
        assert_eq!(o.estimate(&obs), 12_345.0);
    }

    fn cgs_obs(reclaimed: u64, partitions: u64) -> CollectionObservation {
        CollectionObservation {
            bytes_reclaimed: reclaimed,
            partition_count: partitions,
            ..CollectionObservation::zero()
        }
    }

    #[test]
    fn cgs_cb_multiplies_yield_by_partition_count() {
        let mut e = EstimatorKind::CgsCb.build();
        assert_eq!(e.estimate(&cgs_obs(500, 8)), 4_000.0);
    }

    #[test]
    fn cgs_cb_empty_collection_estimates_zero() {
        let mut e = EstimatorKind::CgsCb.build();
        assert_eq!(e.estimate(&cgs_obs(0, 8)), 0.0);
    }

    #[test]
    fn cgs_cb_is_memoryless() {
        // CB = current behavior only: a big yield followed by a tiny one
        // swings the estimate wildly — exactly the noise Figure 6a shows.
        let mut e = EstimatorKind::CgsCb.build();
        assert_eq!(e.estimate(&cgs_obs(10_000, 10)), 100_000.0);
        assert_eq!(e.estimate(&cgs_obs(10, 10)), 100.0);
    }
}
