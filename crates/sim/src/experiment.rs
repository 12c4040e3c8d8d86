//! Multi-seed experiment aggregation.
//!
//! The paper's accuracy figures plot, for each requested setting, the mean
//! over 10 runs differing only in the random seed, with error bars at the
//! min and max of the per-run means (§4.1). This module reproduces that
//! protocol's aggregation side: an [`ExperimentOutcome`] keeps one result
//! per seed — a successful [`RunResult`] or the [`JobError`] that replaced
//! it — and the scalar extractors aggregate over the successes only, so a
//! failed seed shrinks the run count instead of poisoning the statistics
//! (reports already render the empty case as "-").
//!
//! Experiment *execution* lives in [`crate::runner`]: build an
//! [`crate::ExperimentPlan`] of [`odbgc_core::PolicySpec`] cells and call
//! `run()`.

use odbgc_core::RatePolicy;
use odbgc_trace::Trace;

use crate::config::SimConfig;
use crate::runner::JobError;
use crate::simulator::{RunResult, SimError, Simulator};

/// One aggregated sweep point: requested setting `x`, achieved
/// min/mean/max across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The requested setting (the x-axis value).
    pub x: f64,
    /// Mean achieved value across runs.
    pub mean: f64,
    /// Minimum achieved value (lower error bar).
    pub min: f64,
    /// Maximum achieved value (upper error bar).
    pub max: f64,
    /// Number of runs aggregated.
    pub runs: usize,
}

/// Aggregates per-run scalar values into a sweep point.
///
/// Total on its input: an empty slice (every run left the scalar
/// undefined — no collections fired in the measured window, or every
/// seed's job failed) yields `runs: 0` with NaN statistics, which reports
/// render as "-".
pub fn sweep_point(x: f64, values: &[f64]) -> SweepPoint {
    if values.is_empty() {
        return SweepPoint {
            x,
            mean: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            runs: 0,
        };
    }
    let sum: f64 = values.iter().sum();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    SweepPoint {
        x,
        mean: sum / values.len() as f64,
        min,
        max,
        runs: values.len(),
    }
}

/// The runs of one experiment configuration across seeds.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// One result per seed, in seed order; a failed job keeps its
    /// structured error in place of the result.
    pub runs: Vec<Result<RunResult, JobError>>,
}

impl ExperimentOutcome {
    /// The successful runs, in seed order.
    pub fn successes(&self) -> impl Iterator<Item = &RunResult> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The failed jobs, in seed order.
    pub fn failures(&self) -> impl Iterator<Item = &JobError> {
        self.runs.iter().filter_map(|r| r.as_ref().err())
    }

    /// Extracts one scalar per successful run, skipping failed jobs and
    /// runs where the scalar is undefined.
    pub fn scalar(&self, f: impl Fn(&RunResult) -> Option<f64>) -> Vec<f64> {
        self.successes().filter_map(f).collect()
    }

    /// Achieved GC-I/O percentages (measured window).
    pub fn gc_io_pcts(&self) -> Vec<f64> {
        self.scalar(|r| r.gc_io_pct)
    }

    /// Achieved mean garbage percentages (measured window).
    pub fn garbage_pcts(&self) -> Vec<f64> {
        self.scalar(|r| r.garbage_pct_mean)
    }
}

/// Runs a single seed on a pre-generated trace (for time-series figures).
///
/// Returns the simulator's error instead of panicking, so callers decide
/// whether a malformed trace is fatal.
pub fn run_single(
    trace: &Trace,
    config: &SimConfig,
    policy: &mut dyn RatePolicy,
) -> Result<RunResult, SimError> {
    Simulator::new(config.clone()).replay(trace, policy, crate::simulator::ReplayOptions::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ExperimentPlan, JobErrorKind};
    use odbgc_core::{PolicySpec, SaioPolicy};
    use odbgc_oo7::{Oo7App, Oo7Params};

    #[test]
    fn sweep_point_statistics() {
        let p = sweep_point(5.0, &[4.0, 6.0, 5.0]);
        assert_eq!(p.mean, 5.0);
        assert_eq!(p.min, 4.0);
        assert_eq!(p.max, 6.0);
        assert_eq!(p.runs, 3);
    }

    #[test]
    fn empty_sweep_point_is_nan_with_zero_runs() {
        let p = sweep_point(1.0, &[]);
        assert_eq!(p.x, 1.0);
        assert_eq!(p.runs, 0);
        assert!(p.mean.is_nan() && p.min.is_nan() && p.max.is_nan());
    }

    #[test]
    fn multi_seed_plan_produces_one_run_per_seed() {
        let outcome = ExperimentPlan::new(Oo7Params::tiny(), &[1, 2, 3], SimConfig::tiny())
            .cell(10.0, PolicySpec::saio(0.10))
            .run();
        let cell = &outcome.cells[0].outcome;
        assert_eq!(cell.runs.len(), 3);
        // Different seeds → different traces → (almost surely) different
        // I/O totals; at minimum the runs all completed with collections.
        for r in cell.successes() {
            assert!(r.collection_count() > 0);
        }
        assert_eq!(cell.successes().count(), 3);
    }

    #[test]
    fn experiment_is_reproducible() {
        let run = || {
            ExperimentPlan::new(Oo7Params::tiny(), &[5, 6], SimConfig::tiny())
                .cell(5.0, PolicySpec::saio(0.05))
                .run()
        };
        let a = run();
        let b = run();
        for (x, y) in a.cells[0]
            .outcome
            .successes()
            .zip(b.cells[0].outcome.successes())
        {
            assert_eq!(x.gc_io_total, y.gc_io_total);
            assert_eq!(x.garbage_pct_mean, y.garbage_pct_mean);
        }
    }

    #[test]
    fn scalars_skip_failed_runs() {
        let sim_fail = || JobError {
            cell_index: 0,
            spec: PolicySpec::saio(0.10),
            seed: 2,
            kind: JobErrorKind::Panicked("boom".into()),
        };
        let (trace, _) = Oo7App::standard(Oo7Params::tiny(), 1).generate();
        let mut policy = SaioPolicy::with_frac(0.10);
        let good = run_single(&trace, &SimConfig::tiny(), &mut policy).expect("replays");
        let outcome = ExperimentOutcome {
            runs: vec![Ok(good), Err(sim_fail())],
        };
        assert_eq!(outcome.successes().count(), 1);
        assert_eq!(outcome.failures().count(), 1);
        let pcts = outcome.gc_io_pcts();
        assert_eq!(pcts.len(), 1, "failed run must not contribute a value");
        let p = sweep_point(10.0, &pcts);
        assert_eq!(p.runs, 1);
    }

    #[test]
    fn run_single_surfaces_sim_errors() {
        let mut b = odbgc_trace::TraceBuilder::new();
        b.access(odbgc_trace::ObjectId::new(42));
        let trace = b.finish();
        let mut policy = SaioPolicy::with_frac(0.10);
        let e = run_single(&trace, &SimConfig::tiny(), &mut policy).unwrap_err();
        assert_eq!(e.event_index, 0);
    }
}
