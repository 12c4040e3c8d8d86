//! §5 future-work demonstrations.
//!
//! * **Opportunistic quiescence collection**: under plain SAGA, the
//!   read-only Traverse phase freezes the overwrite clock, so garbage left
//!   over from Reorg1 sits uncollected; the opportunistic wrapper keeps
//!   collecting on an application-I/O bound and enters Reorg2 with less
//!   garbage.
//! * **Coupled SAIO × SAGA**: plain SAIO keeps spending its I/O budget
//!   even when there is nothing to reclaim; the coupled policy stretches
//!   its interval when the FGS/HB estimate says collections are
//!   cost-ineffective, reducing GC I/O at little garbage cost.

use odbgc_core::{CoupledSaioPolicy, EstimatorKind, PolicySpec, RatePolicy, SaioPolicy};
use odbgc_engine::RunResult;
use odbgc_oo7::Oo7App;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::run_single;

use crate::scale::Scale;

fn run_policy(scale: Scale, policy: &mut dyn RatePolicy) -> RunResult {
    let (trace, _) = Oo7App::standard(scale.params(3), scale.series_seed()).generate();
    run_single(&trace, &scale.engine_config(), policy).expect("OO7 trace replays cleanly")
}

/// Collections performed during the Traverse phase of a run.
pub fn traverse_collections(r: &RunResult) -> u64 {
    let traverse_start = r
        .phases
        .iter()
        .find(|(n, _, _)| n == "Traverse")
        .map(|(_, _, c)| *c);
    let reorg2_start = r
        .phases
        .iter()
        .find(|(n, _, _)| n == "Reorg2")
        .map(|(_, _, c)| *c);
    match (traverse_start, reorg2_start) {
        (Some(a), Some(b)) => b - a,
        _ => 0,
    }
}

/// Renders the opportunistic demonstration.
pub fn opportunistic_report(scale: Scale) -> String {
    let idle = match scale {
        Scale::Test => 50,
        _ => 200,
    };
    let saga = scale.saga_spec(0.10, EstimatorKind::Oracle);
    let plain_run = run_policy(scale, saga.build().as_mut());
    let opp = PolicySpec::Quiescent {
        idle,
        inner: Box::new(saga),
    };
    let opp_run = run_policy(scale, opp.build().as_mut());

    let rows = vec![
        vec![
            "plain SAGA (oracle, 10%)".into(),
            traverse_collections(&plain_run).to_string(),
            plain_run.collection_count().to_string(),
            fmt_f(plain_run.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        ],
        vec![
            format!("opportunistic (idle={idle} I/Os)"),
            traverse_collections(&opp_run).to_string(),
            opp_run.collection_count().to_string(),
            fmt_f(opp_run.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        ],
    ];
    format!(
        "-- §5 extension: opportunistic quiescence collection --\n{}",
        render_table(
            &["policy", "colls in Traverse", "colls total", "garbage.%"],
            &rows
        )
    )
}

/// Renders the coupled-policy demonstration.
pub fn coupled_report(scale: Scale) -> String {
    let mut plain = SaioPolicy::with_frac(0.10);
    let plain_run = run_policy(scale, &mut plain);
    let mut coupled = CoupledSaioPolicy::new(0.10, 0.05, CoupledSaioPolicy::DEFAULT_STRETCH);
    let coupled_run = run_policy(scale, &mut coupled);

    let rows = vec![
        vec![
            "plain SAIO (10%)".into(),
            plain_run.gc_io_total.to_string(),
            fmt_f(plain_run.gc_io_pct_whole_run(), 2),
            fmt_f(plain_run.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        ],
        vec![
            "coupled (floor 5%)".into(),
            coupled_run.gc_io_total.to_string(),
            fmt_f(coupled_run.gc_io_pct_whole_run(), 2),
            fmt_f(coupled_run.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        ],
    ];
    format!(
        "-- §5 extension: coupled SAIO × SAGA cost-effectiveness --\n{}",
        render_table(&["policy", "gc.io", "gc.io%", "garbage.%"], &rows)
    )
}

/// Renders both demonstrations.
pub fn report(scale: Scale) -> String {
    format!(
        "== §5 extensions ==\n{}\n{}",
        opportunistic_report(scale),
        coupled_report(scale)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opportunistic_collects_during_traverse() {
        let saga = Scale::Test.saga_spec(0.10, EstimatorKind::Oracle);
        let plain_run = run_policy(Scale::Test, saga.build().as_mut());
        let opp = PolicySpec::Quiescent {
            idle: 20,
            inner: Box::new(saga),
        };
        let opp_run = run_policy(Scale::Test, opp.build().as_mut());
        assert!(
            traverse_collections(&opp_run) >= traverse_collections(&plain_run),
            "opportunistic must not collect less during Traverse"
        );
        assert!(opp_run.collection_count() >= plain_run.collection_count());
    }

    #[test]
    fn coupled_spends_no_more_gc_io_than_plain() {
        let mut plain = SaioPolicy::with_frac(0.10);
        let plain_run = run_policy(Scale::Test, &mut plain);
        let mut coupled = CoupledSaioPolicy::new(0.10, 0.05, CoupledSaioPolicy::DEFAULT_STRETCH);
        let coupled_run = run_policy(Scale::Test, &mut coupled);
        assert!(coupled_run.gc_io_total <= plain_run.gc_io_total);
    }

    #[test]
    fn report_renders() {
        let r = report(Scale::Test);
        assert!(r.contains("opportunistic"));
        assert!(r.contains("coupled"));
    }
}
