//! Validation of the garbage estimators against exact garbage on the full
//! workload (the substance of Figures 6 and 7a).

use odbgc_core::{EstimatorKind, SagaPolicy};
use odbgc_engine::{EngineConfig, RunResult};
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::Simulator;

/// Runs SAGA at 10% with the given estimator, shadow-recording estimates.
fn run_with(kind: EstimatorKind) -> RunResult {
    let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    let config = EngineConfig {
        shadow_estimator: Some(kind),
        ..EngineConfig::default()
    };
    let mut policy = SagaPolicy::new(0.10, None, kind);
    Simulator::new(config)
        .replay(&trace, &mut policy, odbgc_sim::ReplayOptions::new())
        .expect("trace replays")
}

/// Mean |estimate − actual| in percentage points, skipping the cold start.
fn mean_abs_error_pct(r: &RunResult, skip: usize) -> f64 {
    let errs: Vec<f64> = r
        .collections
        .iter()
        .skip(skip)
        .filter_map(|c| {
            c.estimated_garbage_pct()
                .map(|e| (e - c.actual_garbage_pct()).abs())
        })
        .collect();
    assert!(!errs.is_empty());
    errs.iter().sum::<f64>() / errs.len() as f64
}

#[test]
fn oracle_shadow_estimates_are_exact() {
    let r = run_with(EstimatorKind::Oracle);
    for c in &r.collections {
        assert_eq!(
            c.estimated_garbage,
            Some(c.actual_garbage as f64),
            "oracle must be exact at collection {}",
            c.index
        );
    }
}

#[test]
fn figure6_fgs_hb_tracks_cgs_cb_does_not() {
    let cgs = run_with(EstimatorKind::CgsCb);
    let fgs = run_with(EstimatorKind::fgs_hb_default());
    let cgs_err = mean_abs_error_pct(&cgs, 10);
    let fgs_err = mean_abs_error_pct(&fgs, 10);
    assert!(
        fgs_err < cgs_err / 2.0,
        "FGS/HB error {fgs_err} should be well below CGS/CB error {cgs_err}"
    );
    // FGS/HB tracks within a few percentage points.
    assert!(fgs_err < 4.0, "FGS/HB mean error {fgs_err} too large");
}

#[test]
fn figure6a_cgs_cb_overestimates_systematically() {
    // §4.1.2: CGS/CB extrapolates the garbage-rich partition that
    // UPDATEDPOINTER selects to every partition, so its estimate is
    // biased upward.
    let r = run_with(EstimatorKind::CgsCb);
    let (mut over, mut total) = (0u32, 0u32);
    for c in r.collections.iter().skip(10) {
        if let Some(est) = c.estimated_garbage_pct() {
            total += 1;
            if est > c.actual_garbage_pct() {
                over += 1;
            }
        }
    }
    assert!(total > 10);
    assert!(
        over * 10 >= total * 7,
        "CGS/CB should overestimate most of the time ({over}/{total})"
    );
}

#[test]
fn figure7a_history_damps_estimate_noise() {
    // Compare the collection-to-collection variability of the smoothed
    // GPPO-driven estimate under different history factors against the
    // *same* realized garbage curve by normalizing each estimate to the
    // actual value: var(est − actual) shrinks as h grows from 0 to 0.8.
    let err_var = |h: f64| {
        let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
        let kind = EstimatorKind::FgsHb { h };
        let config = EngineConfig {
            shadow_estimator: Some(kind),
            ..EngineConfig::default()
        };
        // Fixed-rate policy: identical collection schedule for every h,
        // so the estimator comparison is apples to apples.
        let mut policy = odbgc_core::FixedRatePolicy::new(200);
        let r = Simulator::new(config)
            .replay(&trace, &mut policy, odbgc_sim::ReplayOptions::new())
            .expect("replays");
        let errs: Vec<f64> = r
            .collections
            .iter()
            .skip(10)
            .filter_map(|c| {
                c.estimated_garbage_pct()
                    .map(|e| e - c.actual_garbage_pct())
            })
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / errs.len() as f64
    };
    let noisy = err_var(0.0);
    let smooth = err_var(0.8);
    assert!(
        smooth < noisy,
        "h=0.8 variance {smooth} should be below h=0 variance {noisy}"
    );
}

#[test]
fn estimates_are_never_negative() {
    for kind in [
        EstimatorKind::Oracle,
        EstimatorKind::CgsCb,
        EstimatorKind::fgs_hb_default(),
    ] {
        let r = run_with(kind);
        for c in &r.collections {
            let est = c.estimated_garbage.expect("shadow configured");
            assert!(est >= 0.0, "{kind:?} produced negative estimate {est}");
        }
    }
}
