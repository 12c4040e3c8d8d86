//! Shared experiment plumbing.
//!
//! Figures that sweep a requested setting build one [`ExperimentPlan`]
//! for the whole sweep — every requested fraction becomes a plan cell —
//! so traces are generated once per seed and the (cell × seed) grid runs
//! on the shared worker pool.

use odbgc_core::{EstimatorKind, HistoryLen, PolicySpec};
use odbgc_engine::RunResult;
use odbgc_sim::{sweep_point, ExperimentPlan, SweepPoint};

use crate::scale::Scale;

/// Achieved GC-I/O percentage with an adaptive preamble: the configured
/// preamble when enough collections happened, otherwise half the
/// collections (the paper adapts its preamble between 10 and 30 by the
/// same spirit — exclude cold start, keep the window as long as possible).
pub fn adaptive_gc_io_pct(r: &RunResult, preferred_preamble: u64) -> Option<f64> {
    let n = r.collection_count();
    if n == 0 {
        return None;
    }
    let preamble = preferred_preamble.min(n / 2);
    r.windowed_gc_io_pct(preamble)
}

/// A plan over the scale's workload with one cell per (pct, spec) pair.
pub fn sweep_plan(
    scale: Scale,
    connectivity: u32,
    seeds: &[u64],
    cells: impl IntoIterator<Item = (f64, PolicySpec)>,
) -> ExperimentPlan {
    ExperimentPlan::new(scale.params(connectivity), seeds, scale.engine_config()).cells(cells)
}

/// Sweeps SAIO over requested I/O percentages; returns one aggregated
/// point per requested percentage.
pub fn saio_sweep(
    scale: Scale,
    connectivity: u32,
    fracs_pct: &[f64],
    history: HistoryLen,
) -> Vec<SweepPoint> {
    saio_sweep_seeded(scale, connectivity, fracs_pct, history, &scale.seeds())
}

/// [`saio_sweep`] with an explicit seed list (Figure 8 uses a single run
/// per data point).
pub fn saio_sweep_seeded(
    scale: Scale,
    connectivity: u32,
    fracs_pct: &[f64],
    history: HistoryLen,
    seeds: &[u64],
) -> Vec<SweepPoint> {
    let plan = sweep_plan(
        scale,
        connectivity,
        seeds,
        fracs_pct
            .iter()
            .map(|&pct| (pct, PolicySpec::saio_hist(pct / 100.0, history))),
    );
    plan.run()
        .cells
        .iter()
        .map(|cell| {
            let achieved: Vec<f64> = cell
                .outcome
                .successes()
                .filter_map(|r| adaptive_gc_io_pct(r, scale.preamble()))
                .collect();
            sweep_point(cell.x, &achieved)
        })
        .collect()
}

/// Sweeps SAGA over requested garbage percentages for one estimator.
pub fn saga_sweep(
    scale: Scale,
    connectivity: u32,
    fracs_pct: &[f64],
    estimator: EstimatorKind,
) -> Vec<SweepPoint> {
    saga_sweep_seeded(scale, connectivity, fracs_pct, estimator, &scale.seeds())
}

/// [`saga_sweep`] with an explicit seed list.
pub fn saga_sweep_seeded(
    scale: Scale,
    connectivity: u32,
    fracs_pct: &[f64],
    estimator: EstimatorKind,
    seeds: &[u64],
) -> Vec<SweepPoint> {
    let plan = sweep_plan(
        scale,
        connectivity,
        seeds,
        fracs_pct
            .iter()
            .map(|&pct| (pct, scale.saga_spec(pct / 100.0, estimator))),
    );
    plan.run()
        .cells
        .iter()
        .map(|cell| sweep_point(cell.x, &cell.outcome.garbage_pcts()))
        .collect()
}

/// The requested-percentage grids used across figures.
pub mod grids {
    /// Fixed rates for Figure 1 (pointer overwrites per collection).
    pub const FIG1_RATES: [u64; 6] = [25, 50, 100, 200, 400, 800];
    /// Requested GC-I/O percentages for Figure 4.
    pub const FIG4_FRACS: [f64; 8] = [2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0];
    /// Requested garbage percentages for Figure 5.
    pub const FIG5_FRACS: [f64; 7] = [2.0, 5.0, 8.0, 10.0, 12.0, 15.0, 20.0];
    /// History factors for Figure 7a.
    pub const FIG7A_H: [f64; 3] = [0.5, 0.8, 0.95];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saio_sweep_produces_point_per_fraction() {
        let pts = saio_sweep(Scale::Test, 2, &[10.0, 20.0], HistoryLen::Fixed(0));
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].x, 10.0);
        assert!(pts[0].mean.is_finite());
    }

    #[test]
    fn saga_sweep_produces_point_per_fraction() {
        let pts = saga_sweep(Scale::Test, 2, &[10.0], EstimatorKind::Oracle);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].mean.is_finite());
    }

    #[test]
    fn adaptive_preamble_recovers_short_runs() {
        let scale = Scale::Test;
        let plan = sweep_plan(scale, 2, &scale.seeds(), [(0.0, PolicySpec::fixed(30))]);
        for r in plan.run().cells[0].outcome.runs.iter().flatten() {
            if r.collection_count() >= 2 {
                assert!(adaptive_gc_io_pct(r, 10).is_some());
            }
        }
    }
}
