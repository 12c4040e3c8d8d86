//! The exponentially weighted slope estimator used by SAGA.
//!
//! §2.3 of the paper: given a previous slope estimate, a previous data
//! point and a current data point,
//!
//! ```text
//! TotGarb'(t) = Weight · TotGarb'(t_prev)
//!             + (1 − Weight) · (TotGarb(t) − TotGarb(t_prev)) / (t − t_prev)
//! ```
//!
//! `Weight` buffers the policy from rapid slope changes; the paper sets it
//! to 0.7 ([`WeightedSlope::PAPER_WEIGHT`]).

/// Exponentially weighted estimate of `dy/dt` from a stream of `(t, y)`
/// points.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedSlope {
    slope: f64,
    prev: Option<(f64, f64)>,
    initialized: bool,
}

impl WeightedSlope {
    /// The paper's smoothing weight, in `[0, 1)`.
    pub const PAPER_WEIGHT: f64 = 0.7;

    /// Creates an estimator with the paper's smoothing weight.
    pub fn new() -> Self {
        WeightedSlope::default()
    }

    /// Feeds a data point; returns the updated slope estimate.
    ///
    /// The first point only establishes the baseline (slope stays 0); a
    /// point with `t == t_prev` (time did not advance — e.g. a collection
    /// during a read-only phase under overwrite time) leaves the estimate
    /// unchanged but refreshes the `y` baseline.
    pub fn update(&mut self, t: f64, y: f64) -> f64 {
        match self.prev {
            None => {
                self.prev = Some((t, y));
            }
            Some((tp, yp)) => {
                if t > tp {
                    let raw = (y - yp) / (t - tp);
                    self.slope = if self.initialized {
                        Self::PAPER_WEIGHT * self.slope + (1.0 - Self::PAPER_WEIGHT) * raw
                    } else {
                        self.initialized = true;
                        raw
                    };
                    self.prev = Some((t, y));
                } else {
                    self.prev = Some((tp, y));
                }
            }
        }
        self.slope
    }

    /// Current slope estimate (0 until two time-distinct points are seen).
    pub fn slope(&self) -> f64 {
        self.slope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_points() {
        let mut s = WeightedSlope::new();
        assert_eq!(s.update(0.0, 0.0), 0.0);
        assert_eq!(s.update(10.0, 50.0), 5.0); // first real slope, unsmoothed
    }

    #[test]
    fn smooths_subsequent_slopes() {
        let mut s = WeightedSlope::new();
        s.update(0.0, 0.0);
        s.update(10.0, 50.0); // slope 5
        let v = s.update(20.0, 50.0); // raw slope 0
        assert!((v - 0.7 * 5.0).abs() < 1e-12);
    }

    #[test]
    fn constant_growth_converges_to_true_slope() {
        let mut s = WeightedSlope::new();
        for i in 0..200 {
            s.update(i as f64, 3.0 * i as f64);
        }
        assert!((s.slope() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stalled_time_keeps_slope_but_refreshes_baseline() {
        let mut s = WeightedSlope::new();
        s.update(0.0, 0.0);
        s.update(10.0, 100.0); // slope 10
                               // Read-only phase: time stuck at 10, y moves down (a collection
                               // reclaimed garbage).
        let v = s.update(10.0, 40.0);
        assert_eq!(v, 10.0);
        // Next advance measures from the refreshed baseline (10, 40).
        let v = s.update(20.0, 60.0); // raw slope 2
        assert!((v - (0.7 * 10.0 + 0.3 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn negative_slopes_are_representable() {
        let mut s = WeightedSlope::new();
        s.update(0.0, 100.0);
        assert_eq!(s.update(10.0, 0.0), -10.0);
        let v = s.update(20.0, -200.0); // raw slope −20
        assert!((v - (0.7 * -10.0 + 0.3 * -20.0)).abs() < 1e-12);
    }
}
