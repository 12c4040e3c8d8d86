//! Figure 8: sensitivity of policy accuracy to database connectivity.
//!
//! Repeats the SAIO and SAGA (FGS/HB) accuracy sweeps with
//! `NumConnPerAtomic` set to 6 and 9 — one run per data point, as in the
//! paper — and expects the same requested-tracks-achieved shape as at
//! connectivity 3 (Figures 4 and 5).

use odbgc_core::{EstimatorKind, HistoryLen};
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::SweepPoint;

use crate::common::{grids, saga_sweep_seeded, saio_sweep_seeded};
use crate::scale::Scale;

/// Sweeps per connectivity.
pub struct Fig8Data {
    /// `(connectivity, SAIO sweep, SAGA FGS/HB sweep)`.
    pub per_connectivity: Vec<(u32, Vec<SweepPoint>, Vec<SweepPoint>)>,
}

/// Runs the sweeps. Figure 8 uses a single run per data point (§4.2).
pub fn run(scale: Scale) -> Fig8Data {
    let (conns, saio_fracs, saga_fracs): (Vec<u32>, Vec<f64>, Vec<f64>) = match scale {
        Scale::Test => (vec![2, 3], vec![10.0], vec![10.0]),
        _ => (
            vec![6, 9],
            grids::FIG4_FRACS.to_vec(),
            grids::FIG5_FRACS.to_vec(),
        ),
    };
    let seeds = [scale.series_seed()];
    let per_connectivity = conns
        .into_iter()
        .map(|conn| {
            (
                conn,
                saio_sweep_seeded(scale, conn, &saio_fracs, HistoryLen::Fixed(0), &seeds),
                saga_sweep_seeded(
                    scale,
                    conn,
                    &saga_fracs,
                    EstimatorKind::fgs_hb_default(),
                    &seeds,
                ),
            )
        })
        .collect();
    Fig8Data { per_connectivity }
}

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let d = run(scale);
    let mut out = String::from("== Figure 8: sensitivity to database connectivity ==\n");
    for (conn, saio, saga) in &d.per_connectivity {
        let saio_rows: Vec<Vec<String>> = saio
            .iter()
            .map(|p| vec![fmt_f(p.x, 1), fmt_f(p.mean, 2)])
            .collect();
        let saga_rows: Vec<Vec<String>> = saga
            .iter()
            .map(|p| vec![fmt_f(p.x, 1), fmt_f(p.mean, 2)])
            .collect();
        out.push_str(&format!(
            "-- connectivity {conn}: SAIO --\n{}-- connectivity {conn}: SAGA (FGS/HB) --\n{}",
            render_table(&["req.io%", "achieved"], &saio_rows),
            render_table(&["req.garb%", "achieved"], &saga_rows),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_cover_both_connectivities() {
        let d = run(Scale::Test);
        assert_eq!(d.per_connectivity.len(), 2);
        for (conn, saio, saga) in &d.per_connectivity {
            assert!(*conn >= 2);
            assert!(!saio.is_empty());
            assert!(!saga.is_empty());
        }
    }

    #[test]
    fn report_renders() {
        assert!(report(Scale::Test).contains("connectivity"));
    }
}
