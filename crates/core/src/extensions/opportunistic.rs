//! Opportunistic quiescence collection (§5).
//!
//! The SAGA policy measures time in pointer overwrites, so during a
//! read-only phase (e.g. OO7's Traverse) its trigger never fires even
//! though the collector could work "for free" relative to the user's
//! stated limits. This wrapper arms an *additional* application-I/O bound:
//! if that much application I/O passes without the inner trigger firing,
//! the workload is treated as quiescent (mutation-free) and a collection
//! runs early.

use crate::policy::{ClampHit, CollectionObservation, RatePolicy, Trigger};

/// Wraps any rate policy with an opportunistic quiescence bound.
pub struct OpportunisticPolicy {
    inner: Box<dyn RatePolicy + Send>,
    /// Application I/O operations without an inner-policy firing after
    /// which the workload is considered quiescent and a collection runs
    /// opportunistically.
    idle: u64,
}

impl std::fmt::Debug for OpportunisticPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpportunisticPolicy")
            .field("inner", &self.inner.name())
            .field("idle", &self.idle)
            .finish()
    }
}

impl OpportunisticPolicy {
    /// Wraps `inner` with a bound of `idle` application I/Os (≥ 1).
    pub fn new(inner: Box<dyn RatePolicy + Send>, idle: u64) -> Self {
        assert!(idle >= 1, "idle must be >= 1");
        OpportunisticPolicy { inner, idle }
    }

    fn augment(&self, t: Trigger) -> Trigger {
        Trigger {
            // Keep the tighter of the inner app-I/O bound (if any) and the
            // quiescence bound.
            app_io: Some(t.app_io.map_or(self.idle, |n| n.min(self.idle))),
            ..t
        }
    }
}

impl RatePolicy for OpportunisticPolicy {
    fn initial_trigger(&mut self) -> Trigger {
        let t = self.inner.initial_trigger();
        self.augment(t)
    }

    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger {
        let t = self.inner.after_collection(obs);
        self.augment(t)
    }

    fn name(&self) -> String {
        format!("opportunistic({}, idle={})", self.inner.name(), self.idle)
    }

    fn last_clamp(&self) -> ClampHit {
        self.inner.last_clamp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorKind;
    use crate::fixed::FixedRatePolicy;
    use crate::saga::SagaPolicy;

    #[test]
    fn adds_quiescence_bound_to_overwrite_trigger() {
        let saga = SagaPolicy::new(0.1, None, EstimatorKind::Oracle);
        let mut p = OpportunisticPolicy::new(Box::new(saga), 500);
        let t = p.initial_trigger();
        assert_eq!(t.overwrites, Some(2)); // SAGA dt_min
        assert_eq!(t.app_io, Some(500));
        // During a read-only phase the overwrite bound never fires, but
        // 500 application I/Os do.
        use crate::policy::TriggerElapsed;
        assert!(t.is_due(TriggerElapsed::new(500, 0, 0)));
        assert!(!t.is_due(TriggerElapsed::new(499, 1, 0)));
    }

    #[test]
    fn keeps_tighter_existing_app_io_bound() {
        struct Fake;
        impl RatePolicy for Fake {
            fn initial_trigger(&mut self) -> Trigger {
                Trigger::after_app_io(100)
            }
            fn after_collection(&mut self, _: &CollectionObservation) -> Trigger {
                Trigger::after_app_io(100)
            }
            fn name(&self) -> String {
                "fake".into()
            }
        }
        let mut p = OpportunisticPolicy::new(Box::new(Fake), 500);
        assert_eq!(p.initial_trigger().app_io, Some(100));
        let mut p = OpportunisticPolicy::new(Box::new(Fake), 50);
        assert_eq!(p.initial_trigger().app_io, Some(50));
    }

    #[test]
    fn after_collection_also_augmented() {
        let mut p = OpportunisticPolicy::new(Box::new(FixedRatePolicy::new(200)), 2_000);
        let t = p.after_collection(&CollectionObservation::zero());
        assert_eq!(t.overwrites, Some(200));
        assert_eq!(t.app_io, Some(2_000));
    }

    #[test]
    fn name_nests_inner_policy() {
        let p = OpportunisticPolicy::new(Box::new(FixedRatePolicy::new(7)), 9);
        assert_eq!(p.name(), "opportunistic(fixed(7), idle=9)");
    }
}
