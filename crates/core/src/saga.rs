//! SAGA: the Semi-Automatic GArbage percentage policy (§2.3).
//!
//! The user requests that garbage occupy `SAGA_Frac` of the database.
//! Time is measured in pointer overwrites — the events that create
//! garbage; a read-only phase does not advance SAGA time because no
//! garbage can appear. After each collection the policy solves for the
//! interval `Δt` (in overwrites) until the next one:
//!
//! ```text
//! Δt = (CurrColl − GarbDiff(t)) / TotGarb'(t)
//! GarbDiff(t) = ActGarb(t) − TargetGarb(t)
//! TargetGarb(t) = DBSize(t) · SAGA_Frac
//! ```
//!
//! under the assumptions that the next collection reclaims about as much
//! as the current one (`CurrColl`) and that the database does not grow
//! appreciably between collections. `TotGarb'(t)` — the garbage creation
//! rate — is estimated by an exponentially weighted slope with
//! `Weight = 0.7` ([`WeightedSlope::PAPER_WEIGHT`], §2.3). Because `Δt`
//! blows up when the slope approaches zero (or goes negative), it is
//! clamped to `[Δt_min, Δt_max] = [2, 1000]` overwrites; §2.3 notes the
//! clamps are rarely hit in practice.
//!
//! `SAGA_Frac`, the estimator and `Δt_max` are the only settings: the
//! weight and [`SagaPolicy::DT_MIN`] are fixed, and `Δt_max` defaults to
//! [`SagaPolicy::PAPER_DT_MAX`] (small traces tighten it).
//!
//! `ActGarb(t)` is unobservable without a database scan, so it comes from
//! the [`Estimator`] its [`EstimatorKind`] names (§2.4).

use crate::estimator::{Estimator, EstimatorKind};
use crate::policy::{ClampHit, CollectionObservation, RatePolicy, Trigger};
use crate::slope::WeightedSlope;

/// The SAGA rate policy.
///
/// ```
/// use odbgc_core::{CollectionObservation, EstimatorKind, RatePolicy, SagaPolicy};
///
/// // "At most 10% of the database may be garbage."
/// let mut policy = SagaPolicy::new(0.10, None, EstimatorKind::Oracle);
/// // Cold start: collect as soon as garbage can exist (Δt_min = 2).
/// assert_eq!(policy.initial_trigger().overwrites, Some(2));
/// // After observing a collection, the interval adapts to the measured
/// // garbage-creation rate, clamped to [2, 1000] overwrites.
/// let obs = CollectionObservation {
///     bytes_reclaimed: 60_000,
///     total_collected: 60_000,
///     overwrite_clock: 700,
///     db_size: 2_000_000,
///     exact_garbage: 150_000,
///     ..CollectionObservation::zero()
/// };
/// let dt = policy.after_collection(&obs).overwrites.unwrap();
/// assert!((2..=1000).contains(&dt));
/// ```
pub struct SagaPolicy {
    /// Requested garbage share of database size, in `[0, 1)`.
    frac: f64,
    /// Upper clamp on `Δt` in overwrites.
    dt_max: u64,
    slope: WeightedSlope,
    estimator: Estimator,
    /// Whether the last `Δt` computation hit `dt_min` or `dt_max`.
    last_clamp: ClampHit,
}

impl std::fmt::Debug for SagaPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SagaPolicy")
            .field("frac", &self.frac)
            .field("dt_max", &self.dt_max)
            .field("estimator", &self.estimator.name())
            .finish()
    }
}

impl SagaPolicy {
    /// Lower clamp on `Δt` in overwrites (paper: 2).
    pub const DT_MIN: u64 = 2;
    /// Upper clamp on `Δt` in overwrites unless overridden (paper: 1000).
    pub const PAPER_DT_MAX: u64 = 1000;

    /// A policy holding garbage at `frac` of the database, with `Δt`
    /// clamped to `[DT_MIN, dt_max]` (`None`: [`Self::PAPER_DT_MAX`]) and
    /// `ActGarb` taken from the `estimator` it names.
    pub fn new(frac: f64, dt_max: Option<u64>, estimator: EstimatorKind) -> Self {
        assert!((0.0..1.0).contains(&frac), "SAGA_Frac must be in [0, 1)");
        let dt_max = dt_max.unwrap_or(Self::PAPER_DT_MAX);
        assert!(dt_max >= Self::DT_MIN, "dt_max must be >= DT_MIN");
        SagaPolicy {
            frac,
            dt_max,
            slope: WeightedSlope::new(),
            estimator: estimator.build(),
            last_clamp: ClampHit::None,
        }
    }
}

impl RatePolicy for SagaPolicy {
    fn initial_trigger(&mut self) -> Trigger {
        // Cold start: collect as soon as the first garbage can exist.
        // Figure 7b's "initially high rates" come from exactly this.
        Trigger::after_overwrites(Self::DT_MIN)
    }

    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger {
        let act_garb = self.estimator.estimate(obs);
        // TotGarb(t) = TotColl(t) + ActGarb(t): cumulative garbage ever
        // generated, reconstructed from the estimate.
        let tot_garb = obs.total_collected as f64 + act_garb;
        let rate = self.slope.update(obs.overwrite_clock as f64, tot_garb);

        let target = obs.db_size as f64 * self.frac;
        let garb_diff = act_garb - target;
        let numer = obs.bytes_reclaimed as f64 - garb_diff;

        let dt = if numer <= 0.0 {
            // Already over target even after assuming the next collection
            // reclaims CurrColl: collect as soon as possible.
            self.last_clamp = ClampHit::Min;
            Self::DT_MIN
        } else if rate > f64::EPSILON {
            let raw = numer / rate;
            if raw.is_finite() && raw >= 0.0 {
                let rounded = raw.round() as u64;
                self.last_clamp = if rounded < Self::DT_MIN {
                    ClampHit::Min
                } else if rounded > self.dt_max {
                    ClampHit::Max
                } else {
                    ClampHit::None
                };
                rounded.clamp(Self::DT_MIN, self.dt_max)
            } else {
                self.last_clamp = ClampHit::Max;
                self.dt_max
            }
        } else {
            // No measured garbage growth: back off to the maximum.
            self.last_clamp = ClampHit::Max;
            self.dt_max
        };
        Trigger::after_overwrites(dt)
    }

    fn last_clamp(&self) -> ClampHit {
        self.last_clamp
    }

    fn name(&self) -> String {
        format!("saga({:.1}%, {})", self.frac * 100.0, self.estimator.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_saga(frac: f64) -> SagaPolicy {
        SagaPolicy::new(frac, None, EstimatorKind::Oracle)
    }

    /// Closed-loop miniature world: garbage grows at `g` bytes/overwrite,
    /// each collection reclaims up to `reclaim` bytes, database size is
    /// fixed. Returns the garbage level observed at each collection.
    fn run_closed_loop(
        policy: &mut SagaPolicy,
        g: f64,
        reclaim: f64,
        db_size: u64,
        steps: usize,
    ) -> Vec<f64> {
        let mut clock = 0u64;
        let mut garbage = 0.0f64;
        let mut total_collected = 0.0f64;
        let mut trigger = policy.initial_trigger();
        let mut levels = Vec::new();
        for i in 0..steps {
            let dt = trigger.overwrites.expect("SAGA triggers on overwrites");
            clock += dt;
            garbage += g * dt as f64;
            let collected = garbage.min(reclaim);
            garbage -= collected;
            total_collected += collected;
            levels.push(garbage);
            let obs = CollectionObservation {
                collection_index: i as u64,
                bytes_reclaimed: collected.round() as u64,
                total_collected: total_collected.round() as u64,
                overwrite_clock: clock,
                db_size,
                exact_garbage: garbage.round() as u64,
                ..CollectionObservation::zero()
            };
            trigger = policy.after_collection(&obs);
        }
        levels
    }

    #[test]
    fn oracle_closed_loop_converges_to_target() {
        let db = 1_000_000u64;
        let frac = 0.10;
        let mut p = oracle_saga(frac);
        let levels = run_closed_loop(&mut p, 200.0, 50_000.0, db, 60);
        let target = db as f64 * frac;
        // Post-collection garbage settles at the target level.
        let tail = &levels[40..];
        for &l in tail {
            assert!(
                (l - target).abs() / target < 0.05,
                "level {l} far from target {target}"
            );
        }
    }

    #[test]
    fn higher_requested_fraction_means_longer_intervals() {
        let db = 1_000_000u64;
        let mut p5 = oracle_saga(0.05);
        let mut p20 = oracle_saga(0.20);
        run_closed_loop(&mut p5, 200.0, 50_000.0, db, 40);
        run_closed_loop(&mut p20, 200.0, 50_000.0, db, 40);
        // Both converge; at steady state garbage sits at target, so the
        // 20% policy tolerates more garbage. Compare steady-state Δt via
        // one more decision at identical observations.
        let obs = |garb: u64| CollectionObservation {
            bytes_reclaimed: 10_000,
            total_collected: 1_000_000,
            overwrite_clock: 10_000_000,
            db_size: db,
            exact_garbage: garb,
            ..CollectionObservation::zero()
        };
        let t5 = p5.after_collection(&obs(50_000));
        let t20 = p20.after_collection(&obs(50_000));
        // 5%: at target → Δt = CurrColl/rate; 20%: far under target →
        // much longer wait.
        assert!(t20.overwrites.unwrap() > t5.overwrites.unwrap());
    }

    #[test]
    fn over_target_collects_at_dt_min() {
        let mut p = oracle_saga(0.05);
        // Prime the slope with two points.
        p.after_collection(&CollectionObservation {
            overwrite_clock: 100,
            exact_garbage: 10_000,
            db_size: 100_000,
            bytes_reclaimed: 100,
            ..CollectionObservation::zero()
        });
        let t = p.after_collection(&CollectionObservation {
            overwrite_clock: 200,
            exact_garbage: 50_000, // 50% garbage vs 5% target
            db_size: 100_000,
            bytes_reclaimed: 100, // reclaiming almost nothing
            ..CollectionObservation::zero()
        });
        assert_eq!(t, Trigger::after_overwrites(2));
    }

    #[test]
    fn zero_growth_backs_off_to_dt_max() {
        let mut p = oracle_saga(0.10);
        // Two observations with no garbage growth at all.
        for clock in [100, 200] {
            let t = p.after_collection(&CollectionObservation {
                overwrite_clock: clock,
                exact_garbage: 0,
                db_size: 100_000,
                bytes_reclaimed: 0,
                ..CollectionObservation::zero()
            });
            assert_eq!(t, Trigger::after_overwrites(1000));
        }
    }

    #[test]
    fn read_only_phase_does_not_advance_time() {
        let mut p = oracle_saga(0.10);
        let base = CollectionObservation {
            overwrite_clock: 500,
            exact_garbage: 5_000,
            db_size: 100_000,
            bytes_reclaimed: 2_000,
            total_collected: 2_000,
            ..CollectionObservation::zero()
        };
        p.after_collection(&base);
        let rate_before = p.slope.slope();
        // Same clock (no overwrites happened): slope must not change.
        p.after_collection(&CollectionObservation {
            total_collected: 4_000,
            exact_garbage: 3_000,
            ..base
        });
        assert_eq!(p.slope.slope(), rate_before);
    }

    #[test]
    fn dt_respects_clamps() {
        let mut p = SagaPolicy::new(0.10, Some(50), EstimatorKind::Oracle);
        assert_eq!(
            p.initial_trigger(),
            Trigger::after_overwrites(SagaPolicy::DT_MIN)
        );
        // Huge reclaim + tiny rate → raw Δt enormous → clamp to 50.
        p.after_collection(&CollectionObservation {
            overwrite_clock: 100,
            exact_garbage: 100,
            db_size: 1_000_000,
            bytes_reclaimed: 1,
            ..CollectionObservation::zero()
        });
        let t = p.after_collection(&CollectionObservation {
            overwrite_clock: 200,
            exact_garbage: 200,
            db_size: 1_000_000,
            bytes_reclaimed: 1_000_000,
            total_collected: 1_000_000,
            ..CollectionObservation::zero()
        });
        assert_eq!(t, Trigger::after_overwrites(50));
        // At target, reclaiming 1 000 B against a 1 000 B/overwrite slope →
        // raw Δt 1, below DT_MIN → lower clamp.
        let mut q = oracle_saga(0.10);
        q.after_collection(&CollectionObservation {
            overwrite_clock: 100,
            db_size: 1_000_000,
            ..CollectionObservation::zero()
        });
        let t = q.after_collection(&CollectionObservation {
            overwrite_clock: 200,
            exact_garbage: 100_000,
            db_size: 1_000_000,
            bytes_reclaimed: 1_000,
            ..CollectionObservation::zero()
        });
        assert_eq!(t, Trigger::after_overwrites(SagaPolicy::DT_MIN));
        assert_eq!(q.last_clamp(), ClampHit::Min);
    }

    #[test]
    fn clamp_hits_are_recorded_per_decision() {
        let mut p = oracle_saga(0.05);
        assert_eq!(p.last_clamp(), ClampHit::None);
        // Prime the slope, then push far over target: dt_min decision.
        p.after_collection(&CollectionObservation {
            overwrite_clock: 100,
            exact_garbage: 10_000,
            db_size: 100_000,
            bytes_reclaimed: 100,
            ..CollectionObservation::zero()
        });
        p.after_collection(&CollectionObservation {
            overwrite_clock: 200,
            exact_garbage: 50_000,
            db_size: 100_000,
            bytes_reclaimed: 100,
            ..CollectionObservation::zero()
        });
        assert_eq!(p.last_clamp(), ClampHit::Min);
        // No measured growth at all backs off to dt_max.
        let mut q = oracle_saga(0.10);
        for clock in [100, 200] {
            q.after_collection(&CollectionObservation {
                overwrite_clock: clock,
                exact_garbage: 0,
                db_size: 100_000,
                ..CollectionObservation::zero()
            });
        }
        assert_eq!(q.last_clamp(), ClampHit::Max);
    }

    #[test]
    #[should_panic(expected = "SAGA_Frac")]
    fn full_garbage_fraction_rejected() {
        oracle_saga(1.0);
    }

    #[test]
    fn name_reports_fraction_and_estimator() {
        assert_eq!(oracle_saga(0.10).name(), "saga(10.0%, oracle)");
    }
}
