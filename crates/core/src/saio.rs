//! SAIO: the Semi-Automatic I/O percentage policy (§2.2).
//!
//! The user requests that garbage collection consume `SAIO_Frac` of all
//! I/O operations. Counting I/O operations as the time base (it is exactly
//! the controlled quantity), the policy solves, after each collection, for
//! the application-I/O interval `ΔAppIO` to wait before collecting again:
//!
//! ```text
//! SAIO_Frac = GCIO|c−chist..c+1 / (GCIO + AppIO)|c−chist..c+1
//! ```
//!
//! under the assumption `ΔGCIO = CurrGCIO` — the next collection will cost
//! about as much I/O as the current one did. Solving:
//!
//! ```text
//! ΔAppIO = (Σ GCIO_hist + CurrGCIO) · (1 − SAIO_Frac) / SAIO_Frac − Σ AppIO_hist
//! ```
//!
//! With `c_hist = 0` (the paper's default) the history sums vanish and the
//! policy reacts instantly to changes in collection cost; §4.1.1 shows
//! history mainly helps at extreme requested fractions, where the
//! cost-constancy assumption's errors do not cancel.
//!
//! `SAIO_Frac` and `c_hist` are the only settings. The cold-start interval
//! ([`SaioPolicy::INITIAL_INTERVAL`]) and the clamps on the solved interval
//! ([`SaioPolicy::MIN_INTERVAL`], [`SaioPolicy::MAX_INTERVAL`]) are fixed.

use std::collections::VecDeque;

use crate::policy::{ClampHit, CollectionObservation, HistoryLen, RatePolicy, Trigger};

/// The SAIO rate policy.
///
/// ```
/// use odbgc_core::{CollectionObservation, RatePolicy, SaioPolicy, Trigger};
///
/// // "GC may use 10% of all I/O."
/// let mut policy = SaioPolicy::with_frac(0.10);
/// // The last collection cost 90 page transfers…
/// let obs = CollectionObservation {
///     gc_io: 90,
///     app_io_since_prev: 500,
///     ..CollectionObservation::zero()
/// };
/// // …so wait 810 application transfers: 90 / (90 + 810) = 10%.
/// assert_eq!(policy.after_collection(&obs), Trigger::after_app_io(810));
/// ```
#[derive(Debug, Clone)]
pub struct SaioPolicy {
    /// Requested collector share of total I/O, in `(0, 1]`.
    frac: f64,
    /// `c_hist`: how many observed inter-collection intervals to include.
    history: HistoryLen,
    /// Observed (app_io, gc_io) intervals, newest at the back, trimmed to
    /// the history limit.
    intervals: VecDeque<(u64, u64)>,
    /// Running totals over `intervals`, maintained on push/pop so each
    /// decision is O(1) in the history length instead of a re-fold.
    hist_sums: (u64, u64),
    /// Whether the last computed interval hit a configured clamp.
    last_clamp: ClampHit,
}

impl SaioPolicy {
    /// Application I/O operations before the very first collection.
    pub const INITIAL_INTERVAL: u64 = 100;
    /// Lower clamp on the solved interval.
    pub const MIN_INTERVAL: u64 = 1;
    /// Upper clamp on the solved interval: effectively unclamped.
    pub const MAX_INTERVAL: u64 = u64::MAX / 2;

    /// A policy holding GC I/O at `frac` of total I/O, averaged over a
    /// `history` window of past intervals.
    pub fn new(frac: f64, history: HistoryLen) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "SAIO_Frac must be in (0, 1]");
        SaioPolicy {
            frac,
            history,
            intervals: VecDeque::new(),
            hist_sums: (0, 0),
            last_clamp: ClampHit::None,
        }
    }

    /// The paper's setup for a requested fraction: no history.
    pub fn with_frac(frac: f64) -> Self {
        SaioPolicy::new(frac, HistoryLen::default())
    }

    fn history_sums(&self) -> (u64, u64) {
        debug_assert_eq!(
            self.hist_sums,
            self.intervals
                .iter()
                .fold((0, 0), |(a, g), &(app, gc)| (a + app, g + gc)),
            "running history sums out of sync with the interval window"
        );
        self.hist_sums
    }

    fn push_interval(&mut self, app: u64, gc: u64) {
        self.intervals.push_back((app, gc));
        self.hist_sums.0 += app;
        self.hist_sums.1 += gc;
    }

    fn pop_interval(&mut self) {
        if let Some((app, gc)) = self.intervals.pop_front() {
            self.hist_sums.0 -= app;
            self.hist_sums.1 -= gc;
        }
    }
}

impl RatePolicy for SaioPolicy {
    fn initial_trigger(&mut self) -> Trigger {
        Trigger::after_app_io(Self::INITIAL_INTERVAL)
    }

    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger {
        // The interval that just ended enters the history window; with
        // c_hist = 0 nothing is retained and only the cost assumption
        // (ΔGCIO = CurrGCIO) drives the next interval.
        if let Some(limit) = self.history.limit() {
            while self.intervals.len() >= limit.max(1) {
                self.pop_interval();
            }
            if limit > 0 {
                self.push_interval(obs.app_io_since_prev, obs.gc_io);
            }
        } else {
            self.push_interval(obs.app_io_since_prev, obs.gc_io);
        }

        let (app_hist, gc_hist) = self.history_sums();
        let predicted_gc = (gc_hist + obs.gc_io) as f64;
        let raw = predicted_gc * (1.0 - self.frac) / self.frac - app_hist as f64;
        let interval = if raw.is_finite() && raw > 0.0 {
            let rounded = raw.round() as u64;
            self.last_clamp = if rounded < Self::MIN_INTERVAL {
                ClampHit::Min
            } else if rounded > Self::MAX_INTERVAL {
                ClampHit::Max
            } else {
                ClampHit::None
            };
            rounded.clamp(Self::MIN_INTERVAL, Self::MAX_INTERVAL)
        } else {
            // A non-positive solution means the budget is already spent:
            // collecting at the minimum interval is a lower-clamp decision.
            self.last_clamp = ClampHit::Min;
            Self::MIN_INTERVAL
        };
        Trigger::after_app_io(interval)
    }

    fn last_clamp(&self) -> ClampHit {
        self.last_clamp
    }

    fn name(&self) -> String {
        let hist = match self.history {
            HistoryLen::Fixed(n) => n.to_string(),
            HistoryLen::Infinite => "inf".to_owned(),
        };
        format!("saio({:.1}%, c_hist={hist})", self.frac * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(app: u64, gc: u64) -> CollectionObservation {
        CollectionObservation {
            app_io_since_prev: app,
            gc_io: gc,
            ..CollectionObservation::zero()
        }
    }

    #[test]
    fn no_history_interval_matches_closed_form() {
        // frac 10%, collection costs 90 I/Os → wait 810 app I/Os so that
        // 90 / (90 + 810) = 10%.
        let mut p = SaioPolicy::with_frac(0.10);
        let t = p.after_collection(&obs(0, 90));
        assert_eq!(t, Trigger::after_app_io(810));
    }

    #[test]
    fn closed_loop_converges_exactly_with_constant_gc_cost() {
        let frac = 0.05;
        let mut p = SaioPolicy::with_frac(frac);
        let gc_cost = 24;
        let mut interval = match p.initial_trigger().app_io {
            Some(n) => n,
            None => panic!("SAIO triggers on app I/O"),
        };
        let (mut tot_app, mut tot_gc) = (0u64, 0u64);
        for _ in 0..50 {
            tot_app += interval;
            tot_gc += gc_cost;
            let t = p.after_collection(&obs(interval, gc_cost));
            interval = t.app_io.expect("SAIO triggers on app I/O");
        }
        // Discard the cold-start interval's effect: the achieved fraction
        // over the whole run is within a whisker of the request.
        let achieved = tot_gc as f64 / (tot_gc + tot_app) as f64;
        assert!(
            (achieved - frac).abs() < 0.005,
            "achieved {achieved} vs requested {frac}"
        );
    }

    #[test]
    fn adapts_when_collection_cost_changes() {
        let mut p = SaioPolicy::with_frac(0.10);
        let t1 = p.after_collection(&obs(0, 90));
        let t2 = p.after_collection(&obs(t1.app_io.unwrap(), 180));
        // Cost doubled → interval doubles.
        assert_eq!(t2.app_io.unwrap(), 2 * t1.app_io.unwrap());
    }

    #[test]
    fn history_exposes_accumulated_error() {
        // Two on-target intervals, then a one-off cheap collection. The
        // no-history policy just scales proportionally (81); the history
        // policy sees the whole window is now *under* the requested GC
        // share and collects again immediately to make up the shortfall —
        // this is why §4.1.1 says history reduces the drift error at high
        // requested percentages.
        let mut p = SaioPolicy::new(0.10, HistoryLen::Fixed(2));
        p.after_collection(&obs(810, 90));
        p.after_collection(&obs(810, 90));
        let with_hist = p.after_collection(&obs(810, 9)).app_io.unwrap();
        let mut p0 = SaioPolicy::with_frac(0.10);
        p0.after_collection(&obs(810, 90));
        p0.after_collection(&obs(810, 90));
        let without = p0.after_collection(&obs(810, 9)).app_io.unwrap();
        assert_eq!(without, 81);
        assert_eq!(with_hist, 1);
        assert!(with_hist < without);
    }

    #[test]
    fn infinite_history_retains_everything() {
        let mut p = SaioPolicy::new(0.5, HistoryLen::Infinite);
        for _ in 0..100 {
            p.after_collection(&obs(10, 10));
        }
        assert_eq!(p.intervals.len(), 100);
    }

    #[test]
    fn over_budget_history_clamps_to_min() {
        // History says the app already did far more GC I/O than the budget
        // allows; the solved interval is negative → clamp to min.
        let mut p = SaioPolicy::new(0.5, HistoryLen::Fixed(4));
        p.after_collection(&obs(1_000, 1));
        let t = p.after_collection(&obs(1_000, 1));
        assert_eq!(t, Trigger::after_app_io(1));
    }

    #[test]
    fn full_budget_collects_continuously() {
        let mut p = SaioPolicy::with_frac(1.0);
        let t = p.after_collection(&obs(100, 50));
        assert_eq!(t, Trigger::after_app_io(1));
    }

    #[test]
    fn zero_cost_collection_collects_again_immediately() {
        let mut p = SaioPolicy::with_frac(0.10);
        let t = p.after_collection(&obs(500, 0));
        assert_eq!(t, Trigger::after_app_io(1));
    }

    #[test]
    #[should_panic(expected = "SAIO_Frac")]
    fn zero_frac_rejected() {
        SaioPolicy::with_frac(0.0);
    }

    #[test]
    fn clamp_hits_are_recorded_per_decision() {
        let mut p = SaioPolicy::with_frac(0.10);
        assert_eq!(p.last_clamp(), ClampHit::None);
        // 2·10¹⁸ gc I/O → raw 1.8·10¹⁹, above MAX_INTERVAL → upper clamp.
        assert_eq!(
            p.after_collection(&obs(0, 2_000_000_000_000_000_000)),
            Trigger::after_app_io(SaioPolicy::MAX_INTERVAL)
        );
        assert_eq!(p.last_clamp(), ClampHit::Max);
        // 5 gc I/O → raw 45, inside the clamps → no clamp.
        assert_eq!(p.after_collection(&obs(0, 5)), Trigger::after_app_io(45));
        assert_eq!(p.last_clamp(), ClampHit::None);
        // Zero-cost collection → degenerate raw → lower clamp.
        p.after_collection(&obs(500, 0));
        assert_eq!(p.last_clamp(), ClampHit::Min);
        // At 90%, 1 gc I/O → raw 1/9, rounds below MIN_INTERVAL → lower clamp.
        let mut q = SaioPolicy::with_frac(0.90);
        assert_eq!(
            q.after_collection(&obs(0, 1)),
            Trigger::after_app_io(SaioPolicy::MIN_INTERVAL)
        );
        assert_eq!(q.last_clamp(), ClampHit::Min);
    }

    #[test]
    fn name_reports_parameters() {
        assert_eq!(SaioPolicy::with_frac(0.05).name(), "saio(5.0%, c_hist=0)");
        let p = SaioPolicy::new(0.1, HistoryLen::Infinite);
        assert_eq!(p.name(), "saio(10.0%, c_hist=inf)");
    }
}
