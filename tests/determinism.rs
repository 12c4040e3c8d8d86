//! Reproducibility: the entire pipeline — generation, replay, policy
//! decisions, selection — is a pure function of (parameters, seed).

use odbgc_sim::core_policies::{EstimatorKind, PolicySpec, SagaConfig, SagaPolicy, SaioPolicy};
use odbgc_sim::oo7::{Oo7App, Oo7Params};
use odbgc_sim::{ExperimentPlan, SimConfig, Simulator};

#[test]
fn trace_generation_is_a_pure_function_of_seed() {
    let a = Oo7App::standard(Oo7Params::small_prime(3), 7).generate().0;
    let b = Oo7App::standard(Oo7Params::small_prime(3), 7).generate().0;
    assert_eq!(a, b);
    let c = Oo7App::standard(Oo7Params::small_prime(3), 8).generate().0;
    assert_ne!(a, c);
}

#[test]
fn full_trace_survives_codec_round_trip() {
    let trace = Oo7App::standard(Oo7Params::small_prime(3), 1).generate().0;
    let bytes = odbgc_tracefile::encode(&trace);
    let back = odbgc_tracefile::decode(&bytes).expect("decode");
    assert_eq!(trace, back);
    // And the decoded trace simulates identically.
    let run = |t| {
        let mut p = SaioPolicy::with_frac(0.10);
        Simulator::new(SimConfig::default())
            .replay(t, &mut p, odbgc_sim::ReplayOptions::new())
            .expect("replays")
    };
    let ra = run(&trace);
    let rb = run(&back);
    assert_eq!(ra.collections, rb.collections);
}

#[test]
fn simulation_results_are_identical_across_repeated_runs() {
    let trace = Oo7App::standard(Oo7Params::small_prime(3), 2).generate().0;
    let run = || {
        let mut p = SagaPolicy::new(
            SagaConfig::new(0.10),
            EstimatorKind::fgs_hb_default().build(),
        );
        Simulator::new(SimConfig::default())
            .replay(&trace, &mut p, odbgc_sim::ReplayOptions::new())
            .expect("replays")
    };
    let a = run();
    let b = run();
    assert_eq!(a.collections, b.collections);
    assert_eq!(a.gc_io_total, b.gc_io_total);
    assert_eq!(a.app_io_total, b.app_io_total);
    assert_eq!(a.garbage_pct_mean, b.garbage_pct_mean);
    assert_eq!(a.final_db_size, b.final_db_size);
}

#[test]
fn parallel_experiment_matches_sequential_runs() {
    // The plan runner distributes (cell × seed) jobs over a worker pool;
    // results must match running each seed alone.
    let params = Oo7Params::small_prime(3);
    let config = SimConfig::default();
    let outcome = ExperimentPlan::new(params, &[1, 2, 3], config.clone())
        .cell(5.0, PolicySpec::saio(0.05))
        .run();
    let parallel = &outcome.cells[0].outcome;
    for (i, seed) in [1u64, 2, 3].iter().enumerate() {
        let trace = Oo7App::standard(params, *seed).generate().0;
        let mut p = SaioPolicy::with_frac(0.05);
        let solo = Simulator::new(config.clone())
            .replay(&trace, &mut p, odbgc_sim::ReplayOptions::new())
            .expect("replays");
        let run = parallel.runs[i].as_ref().expect("job succeeded");
        assert_eq!(run.collections, solo.collections);
        assert_eq!(run.gc_io_total, solo.gc_io_total);
    }
}

#[test]
fn different_seeds_vary_but_agree_qualitatively() {
    // The paper's error bars are "hard to distinguish" because seed
    // variation is small: achieved SAIO percentages across seeds must
    // stay within a narrow band.
    let outcome = ExperimentPlan::new(
        Oo7Params::small_prime(3),
        &[1, 2, 3, 4, 5],
        SimConfig::default(),
    )
    .cell(10.0, PolicySpec::saio(0.10))
    .run();
    let achieved = outcome.cells[0].outcome.gc_io_pcts();
    assert_eq!(achieved.len(), 5);
    let min = achieved.iter().copied().fold(f64::INFINITY, f64::min);
    let max = achieved.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(max - min < 1.0, "seed spread too wide: {min}..{max}");
}
