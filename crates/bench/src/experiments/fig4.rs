//! Figure 4: SAIO accuracy as a function of the requested I/O percentage.
//!
//! For each requested GC-I/O percentage, runs the paper's protocol (10
//! seeds) at `c_hist = 0` and `c_hist = ∞` and reports the achieved
//! percentage with min/max error bars. Expected shape: achieved ≈
//! requested along the diagonal, with a slight upward drift and wider
//! bars at the largest fractions for `c_hist = 0` (the non-cancelling
//! misprediction errors of §4.1.1), which history ameliorates.

use odbgc_core::HistoryLen;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::SweepPoint;

use crate::common::{grids, saio_sweep};
use crate::scale::Scale;

/// Both sweeps.
pub struct Fig4Data {
    /// Sweep at `c_hist = 0`.
    pub no_history: Vec<SweepPoint>,
    /// Sweep at `c_hist = ∞`.
    pub infinite_history: Vec<SweepPoint>,
}

/// Runs the sweeps.
pub fn run(scale: Scale) -> Fig4Data {
    let fracs: Vec<f64> = match scale {
        Scale::Test => vec![10.0, 20.0],
        _ => grids::FIG4_FRACS.to_vec(),
    };
    Fig4Data {
        no_history: saio_sweep(scale, 3, &fracs, HistoryLen::Fixed(0)),
        infinite_history: saio_sweep(scale, 3, &fracs, HistoryLen::Infinite),
    }
}

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let d = run(scale);
    let rows: Vec<Vec<String>> = d
        .no_history
        .iter()
        .zip(&d.infinite_history)
        .map(|(h0, hinf)| {
            vec![
                fmt_f(h0.x, 1),
                fmt_f(h0.mean, 2),
                fmt_f(h0.min, 2),
                fmt_f(h0.max, 2),
                fmt_f(hinf.mean, 2),
                fmt_f(hinf.min, 2),
                fmt_f(hinf.max, 2),
            ]
        })
        .collect();
    format!(
        "== Figure 4: SAIO accuracy (achieved GC-I/O % vs requested) ==\n\
         (mean/min/max over seeds; h0 = c_hist 0, hinf = c_hist ∞)\n{}",
        render_table(
            &[
                "req.%",
                "h0.mean",
                "h0.min",
                "h0.max",
                "hinf.mean",
                "hinf.min",
                "hinf.max"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn achieved_tracks_requested() {
        let d = run(Scale::Test);
        for p in &d.no_history {
            if p.mean.is_finite() {
                // Loose band at miniature scale; the full-scale check
                // lives in the integration tests.
                assert!(
                    (p.mean - p.x).abs() < p.x.max(5.0),
                    "requested {} achieved {}",
                    p.x,
                    p.mean
                );
            }
        }
    }

    #[test]
    fn report_renders() {
        assert!(report(Scale::Test).contains("Figure 4"));
    }
}
