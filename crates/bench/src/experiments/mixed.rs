//! Mixed-workload experiment (§1): two applications, one database, one
//! self-adaptive policy.
//!
//! §1 argues against profiling a single application to pick a rate: the
//! profile "would reflect just that single application, which may be in
//! conflict with other applications manipulating the same database." Here
//! two independently seeded OO7 applications are interleaved into one
//! store, so the event stream mixes both apps' phases arbitrarily —
//! GenDB-like allocation from one overlapping reorganization churn from
//! the other. A single SAIO (and SAGA) instance still hits the
//! user-requested level, because the policies adapt to the *observed*
//! aggregate behavior rather than any per-application profile.

use odbgc_core::{EstimatorKind, SaioPolicy};
use odbgc_engine::RunResult;
use odbgc_oo7::Oo7App;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::Simulator;
use odbgc_trace::merge::interleave;
use odbgc_trace::Trace;

use crate::scale::Scale;

/// Builds the two-application interleaved workload.
pub fn mixed_trace(scale: Scale) -> Trace {
    let params = scale.params(3);
    let (a, _) = Oo7App::standard(params, scale.series_seed()).generate();
    let (b, _) = Oo7App::standard(params, scale.series_seed() + 100).generate();
    interleave(&[a, b], 42)
}

fn simulate(scale: Scale, trace: &Trace, policy: &mut dyn odbgc_core::RatePolicy) -> RunResult {
    Simulator::new(scale.engine_config())
        .replay(trace, policy, odbgc_sim::ReplayOptions::new())
        .expect("mixed trace replays cleanly")
}

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let trace = mixed_trace(scale);
    let mut saio = SaioPolicy::with_frac(0.10);
    let saio_run = simulate(scale, &trace, &mut saio);
    let mut saga = scale
        .saga_spec(0.10, EstimatorKind::fgs_hb_default())
        .build();
    let saga_run = simulate(scale, &trace, saga.as_mut());

    let rows = vec![
        vec![
            "saio 10%".into(),
            saio_run.collection_count().to_string(),
            fmt_f(saio_run.gc_io_pct.unwrap_or(f64::NAN), 2),
            fmt_f(saio_run.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        ],
        vec![
            "saga 10% (fgs-hb)".into(),
            saga_run.collection_count().to_string(),
            fmt_f(saga_run.gc_io_pct.unwrap_or(f64::NAN), 2),
            fmt_f(saga_run.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        ],
    ];
    format!(
        "== §1: two interleaved applications, one adaptive policy ==\n\
         ({} events from two independently seeded OO7 apps)\n{}",
        trace.len(),
        render_table(
            &["policy", "colls", "gc.io% (req 10)", "garbage% (req 10)"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_trace_replays_and_saio_holds_target() {
        let trace = mixed_trace(Scale::Test);
        let mut policy = SaioPolicy::with_frac(0.10);
        let r = simulate(Scale::Test, &trace, &mut policy);
        assert!(r.collection_count() > 0);
        // Loose band at miniature scale; the integration test asserts a
        // tight band at full scale.
        if let Some(p) = r.gc_io_pct {
            assert!((p - 10.0).abs() < 8.0, "achieved {p}%");
        }
    }

    #[test]
    fn both_apps_phases_are_present() {
        let trace = mixed_trace(Scale::Test);
        let names = trace.phase_names();
        assert!(names.iter().any(|n| n == "app0:Reorg1"));
        assert!(names.iter().any(|n| n == "app1:Reorg2"));
    }

    #[test]
    fn report_renders() {
        assert!(report(Scale::Test).contains("interleaved"));
    }
}
