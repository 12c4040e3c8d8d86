//! Figure 7: the FGS/HB history-parameter study (7a) and the detailed
//! time-varying view of one configuration (7b).
//!
//! 7a: estimated vs actual garbage percentage over collections for
//! `h ∈ {0.5, 0.8, 0.95}` at a requested 10%. Expected: `h = 0.95` adapts
//! sluggishly with large swings; `h = 0.5` reacts fast but develops an
//! oscillation; `h = 0.8` is the practical middle ground the paper uses.
//!
//! 7b: collection rate (the realized interval in overwrites), collection
//! yield (bytes reclaimed) and garbage percentage over collections at
//! `h = 0.8`. Expected: high cold-start rates, a settling interval, and a
//! yield drop when Reorg2's less-clustered garbage arrives.

use odbgc_core::EstimatorKind;
use odbgc_engine::{EngineConfig, RunResult};
use odbgc_oo7::Oo7App;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::run_single;

use crate::common::grids;
use crate::scale::Scale;

/// Requested garbage percentage for the study.
pub const REQUESTED_PCT: f64 = 10.0;

/// Runs the SAGA/FGS-HB series for one history factor.
pub fn run_with_h(scale: Scale, h: f64) -> RunResult {
    let params = scale.params(3);
    let (trace, _) = Oo7App::standard(params, scale.series_seed()).generate();
    let kind = EstimatorKind::FgsHb { h };
    let config = EngineConfig {
        shadow_estimator: Some(kind),
        ..scale.engine_config()
    };
    let mut policy = scale.saga_spec(REQUESTED_PCT / 100.0, kind).build();
    run_single(&trace, &config, policy.as_mut()).expect("OO7 trace replays cleanly")
}

/// Renders Figure 7a.
pub fn report_7a(scale: Scale) -> String {
    let mut out = String::from("== Figure 7a: FGS/HB history-parameter study (req 10%) ==\n");
    for &h in &grids::FIG7A_H {
        let r = run_with_h(scale, h);
        let rows: Vec<Vec<String>> = r
            .collections
            .iter()
            .map(|c| {
                vec![
                    c.index.to_string(),
                    fmt_f(c.actual_garbage_pct(), 2),
                    fmt_f(c.estimated_garbage_pct().unwrap_or(f64::NAN), 2),
                ]
            })
            .collect();
        out.push_str(&format!(
            "-- h = {h} --\n{}",
            render_table(&["coll", "actual.%", "estimated.%"], &rows)
        ));
    }
    out
}

/// Renders Figure 7b.
pub fn report_7b(scale: Scale) -> String {
    let r = run_with_h(scale, 0.8);
    let rows: Vec<Vec<String>> = r
        .collections
        .iter()
        .map(|c| {
            vec![
                c.index.to_string(),
                c.interval_overwrites.to_string(),
                fmt_f(c.bytes_reclaimed as f64 / 1024.0, 2),
                fmt_f(c.actual_garbage_pct(), 2),
            ]
        })
        .collect();
    format!(
        "== Figure 7b: collection rate, yield, and garbage over time (h=0.8, req 10%) ==\n{}",
        render_table(&["coll", "interval.ow", "yield.KiB", "garbage.%"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_factors_produce_runs() {
        for &h in &grids::FIG7A_H {
            let r = run_with_h(Scale::Test, h);
            assert!(r.collection_count() > 0, "h={h} produced no collections");
        }
    }

    #[test]
    fn history_factor_changes_behavior_and_estimates_stay_finite() {
        // The estimate itself is GPPO_h × outstanding overwrites, so its
        // step size is workload-dominated (not a smoothness proxy); what
        // must hold is that h actually influences the control loop and
        // every recorded estimate is a sane number. (GPPO smoothness
        // itself is unit-tested in odbgc-core's Ewma.)
        let series = |h: f64| {
            run_with_h(Scale::Test, h)
                .collections
                .iter()
                .filter_map(|c| c.estimated_garbage_pct())
                .collect::<Vec<f64>>()
        };
        let a = series(0.0);
        let b = series(0.95);
        assert!(!a.is_empty() && !b.is_empty());
        for v in a.iter().chain(&b) {
            assert!(v.is_finite() && *v >= 0.0, "estimate {v} out of range");
        }
        assert_ne!(a, b, "history factor must affect the run");
    }

    #[test]
    fn reports_render() {
        assert!(report_7a(Scale::Test).contains("h = 0.8"));
        assert!(report_7b(Scale::Test).contains("interval.ow"));
    }
}
