//! Figure 5: SAGA accuracy as a function of the requested garbage
//! percentage, per estimator.
//!
//! Expected shape (paper §4.1.2): the oracle tracks the diagonal almost
//! perfectly; FGS/HB is close with a small systematic "bump"; CGS/CB is
//! poor — its estimate extrapolates the yield of the (deliberately
//! garbage-rich) partition UPDATEDPOINTER selects to the whole database,
//! so it *overestimates* garbage, collects too eagerly, and achieves far
//! less garbage than requested, with wide error bars.

use odbgc_core::EstimatorKind;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::SweepPoint;

use crate::common::{grids, saga_sweep};
use crate::scale::Scale;

/// The three sweeps.
pub struct Fig5Data {
    /// Sweep with the exact oracle.
    pub oracle: Vec<SweepPoint>,
    /// Sweep with CGS/CB.
    pub cgs_cb: Vec<SweepPoint>,
    /// Sweep with FGS/HB (h = 0.8).
    pub fgs_hb: Vec<SweepPoint>,
}

/// Runs the sweeps.
pub fn run(scale: Scale) -> Fig5Data {
    let fracs: Vec<f64> = match scale {
        Scale::Test => vec![10.0, 20.0],
        _ => grids::FIG5_FRACS.to_vec(),
    };
    Fig5Data {
        oracle: saga_sweep(scale, 3, &fracs, EstimatorKind::Oracle),
        cgs_cb: saga_sweep(scale, 3, &fracs, EstimatorKind::CgsCb),
        fgs_hb: saga_sweep(scale, 3, &fracs, EstimatorKind::fgs_hb_default()),
    }
}

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let d = run(scale);
    let rows: Vec<Vec<String>> = d
        .oracle
        .iter()
        .zip(d.cgs_cb.iter().zip(&d.fgs_hb))
        .map(|(o, (c, f))| {
            vec![
                fmt_f(o.x, 1),
                fmt_f(o.mean, 2),
                fmt_f(f.mean, 2),
                fmt_f(f.min, 2),
                fmt_f(f.max, 2),
                fmt_f(c.mean, 2),
                fmt_f(c.min, 2),
                fmt_f(c.max, 2),
            ]
        })
        .collect();
    format!(
        "== Figure 5: SAGA accuracy (achieved garbage % vs requested) ==\n\
         (mean garbage % sampled at each event, post-preamble, over seeds)\n{}",
        render_table(
            &["req.%", "oracle", "fgs-hb", "fgs.min", "fgs.max", "cgs-cb", "cgs.min", "cgs.max"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_quality_ordering_holds() {
        let d = run(Scale::Test);
        // At each requested point, the oracle's error is no worse than
        // CGS/CB's (quality ordering; FGS/HB asserted at full scale in
        // the integration tests where the signal is strong).
        for (o, c) in d.oracle.iter().zip(&d.cgs_cb) {
            if o.mean.is_finite() && c.mean.is_finite() {
                let oracle_err = (o.mean - o.x).abs();
                let cgs_err = (c.mean - c.x).abs();
                assert!(
                    oracle_err <= cgs_err + 2.0,
                    "req {}: oracle err {oracle_err} vs cgs err {cgs_err}",
                    o.x
                );
            }
        }
    }

    #[test]
    fn report_renders() {
        assert!(report(Scale::Test).contains("Figure 5"));
    }
}
