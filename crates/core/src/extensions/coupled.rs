//! Coupled SAIO × SAGA cost-effectiveness policy (§5).
//!
//! Plain SAIO spends its I/O budget unconditionally — even when the
//! database holds almost no garbage and collections reclaim nothing. The
//! paper suggests coupling: "the SAIO policy could use information
//! provided by the SAGA heuristics to determine the cost-effectiveness of
//! the I/O operations being performed, and adjusting itself accordingly."
//!
//! This policy computes the regular SAIO interval, then consults an
//! FGS/HB-style garbage estimate: when the estimated garbage is below a
//! floor fraction of the database, each further collection is judged
//! cost-ineffective and the interval is stretched by a configurable
//! factor ([`CoupledSaioPolicy::DEFAULT_STRETCH`] unless given), returning
//! the saved I/O to the application. The SAIO part runs with no history,
//! and the estimate uses the paper's `h` ([`FgsHb::PAPER_H`]).

use crate::estimators::fgs_hb::FgsHb;
use crate::policy::{ClampHit, CollectionObservation, RatePolicy, Trigger};
use crate::saio::SaioPolicy;

/// SAIO with a garbage-aware cost-effectiveness brake.
#[derive(Debug)]
pub struct CoupledSaioPolicy {
    saio: SaioPolicy,
    estimator: FgsHb,
    /// Below this estimated-garbage fraction of the database, collections
    /// are considered cost-ineffective.
    garbage_floor: f64,
    /// Interval stretch factor applied while under the floor (finite, > 1).
    stretch: f64,
    /// The garbage estimate the most recent decision used (bytes).
    last_estimate: f64,
}

impl CoupledSaioPolicy {
    /// The stretch factor a spec gets when it names none.
    pub const DEFAULT_STRETCH: f64 = 4.0;

    /// SAIO at `io_frac`, with intervals stretched by `stretch` while the
    /// estimated garbage is below `garbage_floor` of the database.
    pub fn new(io_frac: f64, garbage_floor: f64, stretch: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&garbage_floor),
            "garbage floor must be in [0,1)"
        );
        assert!(
            stretch.is_finite() && stretch > 1.0,
            "stretch must be finite and exceed 1"
        );
        CoupledSaioPolicy {
            saio: SaioPolicy::with_frac(io_frac),
            estimator: FgsHb::new(FgsHb::PAPER_H),
            garbage_floor,
            stretch,
            last_estimate: 0.0,
        }
    }
}

impl RatePolicy for CoupledSaioPolicy {
    fn initial_trigger(&mut self) -> Trigger {
        self.saio.initial_trigger()
    }

    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger {
        let base = self.saio.after_collection(obs);
        self.last_estimate = self.estimator.estimate(obs);
        let floor = obs.db_size as f64 * self.garbage_floor;
        if self.last_estimate < floor {
            let stretched = base
                .app_io
                .map(|n| ((n as f64) * self.stretch).round() as u64);
            Trigger {
                app_io: stretched,
                ..base
            }
        } else {
            base
        }
    }

    fn name(&self) -> String {
        format!(
            "coupled({}, floor={:.1}%, stretch={:.1})",
            self.saio.name(),
            self.garbage_floor * 100.0,
            self.stretch
        )
    }

    fn last_clamp(&self) -> ClampHit {
        self.saio.last_clamp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        app: u64,
        gc: u64,
        reclaimed: u64,
        po: u64,
        outstanding: u64,
        db: u64,
    ) -> CollectionObservation {
        CollectionObservation {
            app_io_since_prev: app,
            gc_io: gc,
            bytes_reclaimed: reclaimed,
            overwrites_of_collected: po,
            total_outstanding_overwrites: outstanding,
            db_size: db,
            ..CollectionObservation::zero()
        }
    }

    #[test]
    fn stretches_when_garbage_is_scarce() {
        let mut p = CoupledSaioPolicy::new(0.10, 0.05, CoupledSaioPolicy::DEFAULT_STRETCH);
        // Estimator learns GPPO = 100 B/overwrite; almost nothing is
        // outstanding → estimated garbage ≈ 100 B of a 1 MB database.
        let t = p.after_collection(&obs(0, 90, 600, 6, 1, 1_000_000));
        // Plain SAIO would say 810; the brake stretches by 4.
        assert_eq!(t.app_io, Some(3_240));
        assert!((p.last_estimate - 100.0).abs() < 1e-9);
    }

    #[test]
    fn no_stretch_when_garbage_is_plentiful() {
        let mut p = CoupledSaioPolicy::new(0.10, 0.05, CoupledSaioPolicy::DEFAULT_STRETCH);
        // 600 bytes / 6 overwrites, with 10 000 outstanding overwrites →
        // estimate 1 MB garbage in a 1 MB database: way over the floor.
        let t = p.after_collection(&obs(0, 90, 600, 6, 10_000, 1_000_000));
        assert_eq!(t.app_io, Some(810));
    }

    #[test]
    fn stretching_spends_less_io_in_closed_loop() {
        // When the workload makes no garbage, the coupled policy performs
        // fewer collections per unit of application work.
        let run = |coupled: bool| -> u64 {
            let mut plain = SaioPolicy::with_frac(0.10);
            let mut brake = CoupledSaioPolicy::new(0.10, 0.05, CoupledSaioPolicy::DEFAULT_STRETCH);
            let mut total_app = 0u64;
            let mut collections = 0u64;
            let mut trig = if coupled {
                brake.initial_trigger()
            } else {
                plain.initial_trigger()
            };
            while total_app < 100_000 {
                let interval = trig.app_io.unwrap();
                total_app += interval;
                collections += 1;
                // Every collection costs 90 I/Os and reclaims nothing.
                let o = obs(interval, 90, 0, 0, 0, 1_000_000);
                trig = if coupled {
                    brake.after_collection(&o)
                } else {
                    plain.after_collection(&o)
                };
            }
            collections
        };
        let with_brake = run(true);
        let without = run(false);
        assert!(
            with_brake < without,
            "coupled {with_brake} !< plain {without}"
        );
    }

    #[test]
    #[should_panic(expected = "stretch")]
    fn stretch_must_exceed_one() {
        CoupledSaioPolicy::new(0.1, 0.05, 1.0);
    }

    #[test]
    fn name_reports_all_parameters() {
        let p = CoupledSaioPolicy::new(0.10, 0.05, CoupledSaioPolicy::DEFAULT_STRETCH);
        assert_eq!(
            p.name(),
            "coupled(saio(10.0%, c_hist=0), floor=5.0%, stretch=4.0)"
        );
    }
}
