//! Property tests for the [`PolicySpec`] grammar: `Display` and parsing
//! are exact inverses over the whole spec space.

use proptest::prelude::*;

use odbgc_core::{EstimatorKind, HistoryLen, PolicySpec};

fn arb_history() -> impl Strategy<Value = HistoryLen> {
    prop_oneof![
        (0usize..64).prop_map(HistoryLen::Fixed),
        Just(HistoryLen::Infinite),
    ]
}

fn arb_estimator() -> impl Strategy<Value = EstimatorKind> {
    prop_oneof![
        Just(EstimatorKind::Oracle),
        Just(EstimatorKind::CgsCb),
        (0.0f64..=1.0).prop_map(|h| EstimatorKind::FgsHb { h }),
    ]
}

/// Specs a sweep could reasonably contain, with fraction/parameter
/// values drawn from the policies' whole domains.
fn arb_leaf_spec() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        (1u64..100_000).prop_map(PolicySpec::fixed),
        (1u64..10_000_000).prop_map(PolicySpec::alloc),
        (0.001f64..1.0, arb_history()).prop_map(|(frac, h)| PolicySpec::saio_hist(frac, h)),
        (
            0.0f64..0.999,
            arb_estimator(),
            proptest::option::of(2u64..2_000)
        )
            .prop_map(|(frac, est, dt_max)| match dt_max {
                Some(m) => PolicySpec::saga_dt_max(frac, est, m),
                None => PolicySpec::saga(frac, est),
            }),
        (0.001f64..1.0, 0.0f64..0.999, 1.001f64..32.0).prop_map(
            |(io_frac, garbage_floor, stretch)| PolicySpec::Coupled {
                io_frac,
                garbage_floor,
                stretch,
            }
        ),
    ]
}

fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        arb_leaf_spec().boxed(),
        (1u64..100_000, arb_leaf_spec())
            .prop_map(|(idle, inner)| PolicySpec::Quiescent {
                idle,
                inner: Box::new(inner),
            })
            .boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_then_parse_is_identity(spec in arb_spec()) {
        let printed = spec.to_string();
        let reparsed: PolicySpec = match printed.parse() {
            Ok(s) => s,
            Err(e) => return Err(format!("{printed:?} failed to parse: {e}")),
        };
        prop_assert_eq!(&spec, &reparsed, "through {}", printed);
        // And printing is stable: the canonical form is a fixpoint.
        prop_assert_eq!(printed, reparsed.to_string());
    }

    #[test]
    fn parsed_specs_build_without_panicking(spec in arb_spec()) {
        // Everything FromStr admits must construct a working policy.
        let reparsed: PolicySpec = spec.to_string().parse().unwrap();
        let mut policy = reparsed.build();
        let trigger = policy.initial_trigger();
        prop_assert!(
            trigger.overwrites.is_some()
                || trigger.app_io.is_some()
                || trigger.alloc_bytes.is_some(),
            "initial trigger must bound something"
        );
    }
}
