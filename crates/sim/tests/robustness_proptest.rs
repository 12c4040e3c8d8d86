//! Property tests: the simulator is total over valid workloads and
//! arbitrary policy/selector combinations — no panic, no accounting drift.

use proptest::prelude::*;

use odbgc_core::{EstimatorKind, FixedRatePolicy, RatePolicy, SagaPolicy, SaioPolicy};
use odbgc_engine::EngineConfig;
use odbgc_gc::SelectorKind;
use odbgc_sim::Simulator;
use odbgc_store::StoreConfig;
use odbgc_trace::synthetic::{churn, ChurnConfig};

fn arb_policy() -> impl Strategy<Value = usize> {
    0usize..4
}

fn build_policy(which: usize, frac: f64, rate: u64) -> Box<dyn RatePolicy> {
    match which {
        0 => Box::new(FixedRatePolicy::new(rate)),
        1 => Box::new(SaioPolicy::with_frac(frac)),
        2 => Box::new(SagaPolicy::new(
            frac.min(0.5),
            Some(64),
            EstimatorKind::Oracle,
        )),
        _ => Box::new(SagaPolicy::new(
            frac.min(0.5),
            Some(64),
            EstimatorKind::fgs_hb_default(),
        )),
    }
}

fn arb_selector() -> impl Strategy<Value = SelectorKind> {
    prop_oneof![
        Just(SelectorKind::UpdatedPointer),
        Just(SelectorKind::Random),
        Just(SelectorKind::RoundRobin),
        Just(SelectorKind::MostGarbageOracle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_policy_on_any_churn_workload_keeps_accounting(
        seed in any::<u64>(),
        steps in 50usize..400,
        which in arb_policy(),
        selector in arb_selector(),
        frac in 0.02f64..0.6,
        rate in 2u64..60,
    ) {
        let cfg = ChurnConfig { steps, ..ChurnConfig::default() };
        let trace = churn(&cfg, seed);
        let engine_config = EngineConfig {
            store: StoreConfig::tiny(),
            selector,
            selector_seed: seed,
            preamble_collections: 2,
            // Deep audit after every collection: remsets, refcounts,
            // extents, ledgers.
            deep_checks: true,
            exact_oracle_recompute: true,
            shadow_estimator: Some(EstimatorKind::fgs_hb_default()),
            gc_workers: None,
        };
        let mut policy = build_policy(which, frac, rate);
        let r = Simulator::new(engine_config)
            .replay(&trace, policy.as_mut(), odbgc_sim::ReplayOptions::new())
            .expect("synthetic workloads always replay");
        // Conservation holds for every combination.
        prop_assert_eq!(
            r.total_garbage_generated,
            r.total_garbage_collected + r.final_garbage_bytes
        );
        prop_assert!(r.final_db_size >= r.final_live_bytes);
        prop_assert_eq!(r.events_replayed, trace.len() as u64);
        // Series totals agree with ledgers.
        let gc_io: u64 = r.collections.iter().map(|c| c.gc_io).sum();
        prop_assert_eq!(gc_io, r.gc_io_total);
    }

    #[test]
    fn simulation_of_merged_workloads_is_total(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        interleave_seed in any::<u64>(),
    ) {
        let cfg = ChurnConfig { steps: 150, ..ChurnConfig::default() };
        let a = churn(&cfg, seed_a);
        let b = churn(&cfg, seed_b);
        let merged = odbgc_trace::merge::interleave(&[a, b], interleave_seed);
        let mut policy = SaioPolicy::with_frac(0.1);
        let r = Simulator::new(EngineConfig {
            store: StoreConfig::tiny(),
            preamble_collections: 2,
            deep_checks: true,
            ..EngineConfig::default()
        })
        .replay(&merged, &mut policy, odbgc_sim::ReplayOptions::new())
        .expect("merged synthetic workloads replay");
        prop_assert_eq!(r.events_replayed, merged.len() as u64);
    }
}
