//! Figure 6: time-varying behavior of garbage estimation.
//!
//! One run per heuristic at a requested garbage percentage of 10%,
//! printing the target, actual, and estimated garbage percentage at each
//! collection. Expected shape: CGS/CB (6a) swings wildly and
//! overestimates; FGS/HB (6b) tracks the actual garbage closely even
//! across the Reorg1 → Traverse → Reorg2 transition.

use odbgc_core::EstimatorKind;
use odbgc_engine::{EngineConfig, RunResult};
use odbgc_oo7::Oo7App;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::run_single;

use crate::scale::Scale;

/// Requested garbage percentage for the time-varying figures.
pub const REQUESTED_PCT: f64 = 10.0;

/// Runs one heuristic's time series.
pub fn run_series(scale: Scale, estimator: EstimatorKind) -> RunResult {
    let params = scale.params(3);
    let (trace, _) = Oo7App::standard(params, scale.series_seed()).generate();
    let config = EngineConfig {
        shadow_estimator: Some(estimator),
        ..scale.engine_config()
    };
    let mut policy = scale.saga_spec(REQUESTED_PCT / 100.0, estimator).build();
    run_single(&trace, &config, policy.as_mut()).expect("OO7 trace replays cleanly")
}

fn series_table(result: &RunResult) -> String {
    let rows: Vec<Vec<String>> = result
        .collections
        .iter()
        .map(|r| {
            vec![
                r.index.to_string(),
                fmt_f(REQUESTED_PCT, 1),
                fmt_f(r.actual_garbage_pct(), 2),
                fmt_f(r.estimated_garbage_pct().unwrap_or(f64::NAN), 2),
            ]
        })
        .collect();
    render_table(&["coll", "target.%", "actual.%", "estimated.%"], &rows)
}

/// Renders both panels.
pub fn report(scale: Scale) -> String {
    let cgs = run_series(scale, EstimatorKind::CgsCb);
    let fgs = run_series(scale, EstimatorKind::fgs_hb_default());
    format!(
        "== Figure 6a: CGS/CB time-varying garbage estimation (req {REQUESTED_PCT}%) ==\n{}\n\
         == Figure 6b: FGS/HB time-varying garbage estimation (req {REQUESTED_PCT}%) ==\n{}",
        series_table(&cgs),
        series_table(&fgs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_abs_estimation_error(r: &RunResult, skip: usize) -> f64 {
        let errs: Vec<f64> = r
            .collections
            .iter()
            .skip(skip)
            .filter_map(|c| {
                c.estimated_garbage_pct()
                    .map(|e| (e - c.actual_garbage_pct()).abs())
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    }

    #[test]
    fn fgs_hb_estimates_better_than_cgs_cb() {
        let cgs = run_series(Scale::Test, EstimatorKind::CgsCb);
        let fgs = run_series(Scale::Test, EstimatorKind::fgs_hb_default());
        assert!(cgs.collection_count() > 2);
        assert!(fgs.collection_count() > 2);
        let cgs_err = mean_abs_estimation_error(&cgs, 2);
        let fgs_err = mean_abs_estimation_error(&fgs, 2);
        assert!(
            fgs_err <= cgs_err,
            "FGS/HB error {fgs_err} must not exceed CGS/CB error {cgs_err}"
        );
    }

    #[test]
    fn report_has_both_panels() {
        let r = report(Scale::Test);
        assert!(r.contains("Figure 6a"));
        assert!(r.contains("Figure 6b"));
    }
}
