//! Acceptance tests for the telemetry layer (ISSUE 4).
//!
//! These pin the contract the CLI and CI rely on: telemetry is a pure
//! observer (identical `RunResult`), the decision log is complete, every
//! export leads with the versioned schema header, and plan telemetry is
//! deterministic across worker counts once wall-clock fields are
//! stripped.

use odbgc_sim::core_policies::{
    EstimatorKind, PolicySpec, RatePolicy, SagaConfig, SagaPolicy, SaioPolicy,
};
use odbgc_sim::oo7::{Oo7App, Oo7Params};
use odbgc_sim::trace::Trace;
use odbgc_sim::{ExperimentPlan, PlanTelemetry, ReplayOptions, RunTelemetry, SimConfig, Simulator};

/// The first lines of every exported document of the given kind.
fn header(kind: &str) -> String {
    format!("{{\n  \"schema\": \"odbgc-telemetry\",\n  \"version\": 1,\n  \"kind\": \"{kind}\",\n")
}

fn tiny_trace(seed: u64) -> Trace {
    Oo7App::standard(Oo7Params::tiny(), seed).generate().0
}

#[test]
fn telemetry_is_a_pure_observer_of_the_run() {
    let trace = tiny_trace(11);
    let sim = Simulator::new(SimConfig::tiny());
    let plain = {
        let mut p = SaioPolicy::with_frac(0.08);
        sim.replay(&trace, &mut p, ReplayOptions::new())
            .expect("run")
    };
    let (instrumented, telemetry) = {
        let mut p = SaioPolicy::with_frac(0.08);
        let mut sink = RunTelemetry::new(p.name());
        let r = sim
            .replay(&trace, &mut p, ReplayOptions::new().telemetry(&mut sink))
            .expect("run");
        (r, sink)
    };
    assert_eq!(plain, instrumented, "telemetry must not perturb the run");
    assert_eq!(
        telemetry.decisions.len() as u64,
        plain.collection_count(),
        "one decision record per collection"
    );
}

#[test]
fn run_export_leads_with_the_header_and_counts_every_decision() {
    let trace = tiny_trace(12);
    let sim = Simulator::new(SimConfig::tiny());
    let mut policy = SagaPolicy::new(SagaConfig::new(0.10), EstimatorKind::CgsCb.build());
    let mut telemetry = RunTelemetry::new(policy.name());
    sim.replay(
        &trace,
        &mut policy,
        ReplayOptions::new().telemetry(&mut telemetry),
    )
    .expect("run");
    let text = telemetry.to_json().to_string_pretty();
    assert!(text.starts_with(&header("run")), "{text}");
    // The exported decision count agrees with the in-memory log, and
    // every decision is written as one record.
    let n = telemetry.decisions.len();
    assert!(n > 0);
    assert!(text.contains(&format!("\n  \"decision_count\": {n},\n")));
    assert_eq!(text.matches("\n      \"index\": ").count(), n);
}

#[test]
fn decision_records_expose_estimator_error_against_exact_garbage() {
    let trace = tiny_trace(13);
    let mut cfg = SimConfig::tiny();
    cfg.shadow_estimator = Some(EstimatorKind::Oracle);
    let sim = Simulator::new(cfg);
    let mut policy = SaioPolicy::with_frac(0.10);
    let mut telemetry = RunTelemetry::new(policy.name());
    sim.replay(
        &trace,
        &mut policy,
        ReplayOptions::new().telemetry(&mut telemetry),
    )
    .expect("run");
    assert!(!telemetry.decisions.is_empty());
    for d in &telemetry.decisions {
        // The shadow oracle is exact, so the signed error is zero.
        assert_eq!(d.estimate_error(), Some(0.0));
    }
}

fn tiny_plan() -> ExperimentPlan {
    ExperimentPlan::new(Oo7Params::tiny(), &[1, 2, 3], SimConfig::tiny()).cells([
        (5.0, PolicySpec::saio(0.05)),
        (10.0, PolicySpec::saio(0.10)),
        (
            10.0,
            PolicySpec::saga_dt_max(0.10, EstimatorKind::Oracle, 20),
        ),
    ])
}

#[test]
fn plan_telemetry_is_identical_across_worker_counts_modulo_wall_time() {
    let plan = tiny_plan();
    let serial = plan.run_with_jobs(Some(1));
    let parallel = plan.run_with_jobs(Some(8));
    let a = PlanTelemetry::from_outcome(&plan, &serial)
        .to_json()
        .strip_volatile()
        .to_string_pretty();
    let b = PlanTelemetry::from_outcome(&plan, &parallel)
        .to_json()
        .strip_volatile()
        .to_string_pretty();
    assert_eq!(a, b, "jobs=1 and jobs=8 must agree after stripping timing");
}

#[test]
fn plan_export_carries_the_header_and_every_job() {
    let plan = tiny_plan();
    let outcome = plan.run();
    let text = PlanTelemetry::from_outcome(&plan, &outcome)
        .to_json()
        .to_string_pretty();
    assert!(text.starts_with(&header("plan")), "{text}");
    assert!(text.contains("\n  \"failure_count\": 0,\n"));
    // One record per cell, one run per seed in each.
    assert_eq!(text.matches("\n      \"spec\": ").count(), plan.cells.len());
    assert_eq!(
        text.matches("\n          \"seed\": ").count(),
        plan.cells.len() * plan.seeds.len()
    );
}

#[test]
fn stripping_volatile_keys_removes_all_wall_clock_fields() {
    let plan = tiny_plan();
    let outcome = plan.run();
    let stripped = PlanTelemetry::from_outcome(&plan, &outcome)
        .to_json()
        .strip_volatile()
        .to_string_pretty();
    assert!(!stripped.contains("\"timing\""));
    assert!(!stripped.contains("\"wall_"));
}
