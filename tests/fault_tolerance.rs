//! Fault tolerance: one bad job must not kill the whole plan.
//!
//! These are the acceptance tests for the plan runner's failure
//! taxonomy: a poisoned (cell, seed) job yields one structured
//! [`JobError`] while every other job completes normally, panics are
//! captured instead of aborting the process, and the reduction is
//! byte-identical across worker counts — including the failure list.

use odbgc_sim::core_policies::PolicySpec;
use odbgc_sim::oo7::Oo7Params;
use odbgc_sim::{
    ExperimentPlan, FaultKind, FaultSpec, JobError, JobErrorKind, PlanOutcome, SimConfig,
};

const SEEDS: [u64; 3] = [1, 2, 3];

/// A 3-cell × 3-seed plan with one poisoned (cell 1, seed 2) job.
fn poisoned_plan() -> ExperimentPlan {
    ExperimentPlan::new(Oo7Params::small_prime(2), &SEEDS, SimConfig::default())
        .cell(5.0, PolicySpec::saio(0.05))
        .cell(10.0, PolicySpec::saio(0.10))
        .cell(20.0, PolicySpec::saio(0.20))
        .inject_fault(FaultSpec {
            cell_index: 1,
            seed: 2,
            kind: FaultKind::PoisonTrace,
        })
}

/// A comparable (cell, seed, result) triple; the result keeps only the
/// run's (collections, gc_io_total) fingerprint.
type JobRow = (usize, u64, Result<(u64, u64), JobError>);

/// Flattens an outcome into comparable (cell, seed, result) triples.
fn flatten(outcome: &PlanOutcome) -> Vec<JobRow> {
    outcome
        .cells
        .iter()
        .enumerate()
        .flat_map(|(ci, cell)| {
            cell.outcome
                .runs
                .iter()
                .zip(&SEEDS)
                .map(move |(run, &seed)| {
                    (
                        ci,
                        seed,
                        run.as_ref()
                            .map(|r| (r.collection_count(), r.gc_io_total))
                            .map_err(Clone::clone),
                    )
                })
        })
        .collect()
}

#[test]
fn one_poisoned_job_yields_eight_results_and_one_structured_error() {
    let out = poisoned_plan().run_with_jobs(Some(4));

    // Eight of nine jobs succeed; the plan as a whole returns.
    let ok: usize = out
        .cells
        .iter()
        .map(|c| c.outcome.successes().count())
        .sum();
    assert_eq!(ok, 8, "every non-poisoned job must complete");
    assert!(!out.is_complete());

    // Exactly one failure, naming the exact cell, spec, and seed.
    assert_eq!(out.failures.len(), 1);
    let f = &out.failures[0];
    assert_eq!(f.cell_index, 1);
    assert_eq!(f.spec, PolicySpec::saio(0.10));
    assert_eq!(f.seed, 2);
    assert!(
        matches!(f.kind, JobErrorKind::Sim(_)),
        "poisoned trace must surface as a simulator error, got {:?}",
        f.kind
    );
    let line = f.to_string();
    assert!(line.contains("cell 1"), "display names the cell: {line}");
    assert!(line.contains("seed 2"), "display names the seed: {line}");

    // The failed seed is also visible in the cell's own run list.
    assert!(out.cells[1].outcome.runs[1].is_err());
    // Failed jobs record no wall time.
    assert_eq!(out.cells[1].wall_times.len(), 2);
}

#[test]
fn outcome_is_identical_across_worker_counts_including_failures() {
    let serial = poisoned_plan().run_with_jobs(Some(1));
    let parallel = poisoned_plan().run_with_jobs(Some(8));
    assert_eq!(flatten(&serial), flatten(&parallel));
    assert_eq!(serial.failures, parallel.failures);
}

#[test]
fn mid_plan_panic_is_reported_not_fatal() {
    let out = ExperimentPlan::new(Oo7Params::small_prime(2), &SEEDS, SimConfig::default())
        .cell(5.0, PolicySpec::saio(0.05))
        .cell(10.0, PolicySpec::saio(0.10))
        .inject_fault(FaultSpec {
            cell_index: 0,
            seed: 3,
            kind: FaultKind::Panic,
        })
        .run_with_jobs(Some(2));
    assert_eq!(out.failures.len(), 1);
    match &out.failures[0].kind {
        JobErrorKind::Panicked(msg) => {
            assert!(msg.contains("injected fault"), "panic payload kept: {msg}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let ok: usize = out
        .cells
        .iter()
        .map(|c| c.outcome.successes().count())
        .sum();
    assert_eq!(ok, 5);
}
