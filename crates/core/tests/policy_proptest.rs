//! Property tests: policy outputs are always well-formed and the control
//! laws converge in closed loop.

use proptest::prelude::*;

use odbgc_core::{
    CollectionObservation, EstimatorKind, Ewma, HistoryLen, RatePolicy, SagaPolicy, SaioPolicy,
    WeightedSlope,
};

fn arb_obs() -> impl Strategy<Value = CollectionObservation> {
    (
        0u64..1000,
        0u64..10_000,
        0u64..100_000,
        0u64..1_000_000,
        (0u64..5_000, 0u64..100_000),
        (1u64..500, 1_000u64..10_000_000),
        (0u64..100_000_000, 0u64..100_000_000, 0u64..10_000_000),
    )
        .prop_map(
            |(
                collection_index,
                gc_io,
                app_io_since_prev,
                bytes_reclaimed,
                (overwrites_of_collected, total_outstanding_overwrites),
                (partition_count, db_size),
                (total_collected, overwrite_clock, exact_garbage),
            )| CollectionObservation {
                collection_index,
                gc_io,
                app_io_since_prev,
                bytes_reclaimed,
                overwrites_of_collected,
                total_outstanding_overwrites,
                partition_count,
                db_size,
                total_collected,
                overwrite_clock,
                alloc_clock: overwrite_clock * 64,
                exact_garbage,
            },
        )
}

proptest! {
    #[test]
    fn saio_triggers_are_always_valid(
        frac in 0.01f64..1.0,
        observations in proptest::collection::vec(arb_obs(), 1..50),
    ) {
        let mut p = SaioPolicy::with_frac(frac);
        let t = p.initial_trigger();
        prop_assert!(t.app_io.unwrap_or(1) >= 1);
        for obs in &observations {
            let t = p.after_collection(obs);
            let n = t.app_io.expect("SAIO triggers on app I/O");
            prop_assert!(n >= 1);
        }
    }

    #[test]
    fn saio_achieves_requested_fraction_for_every_history_length(
        frac in 0.02f64..0.9,
        gc_io in 1u64..10_000,
    ) {
        // On a constant cost stream every history length realizes the
        // requested fraction *on average*. (A finite window is only
        // marginally stable: a cold-start perturbation circulates in the
        // window and the interval oscillates, but the window-sum control
        // law keeps the running fraction on target — so the assertion is
        // about the achieved fraction, not the final interval.)
        for history in [HistoryLen::Fixed(0), HistoryLen::Fixed(4), HistoryLen::Infinite] {
            let mut p = SaioPolicy::new(frac, history);
            let mut interval = p.initial_trigger().app_io.unwrap();
            let (mut app_total, mut gc_total) = (0u64, 0u64);
            for _ in 0..80 {
                app_total += interval;
                gc_total += gc_io;
                let obs = CollectionObservation {
                    gc_io,
                    app_io_since_prev: interval,
                    ..CollectionObservation::zero()
                };
                interval = p.after_collection(&obs).app_io.unwrap();
            }
            let achieved = gc_total as f64 / (gc_total + app_total) as f64;
            // Tolerance: integer rounding of small intervals plus the
            // cold-start interval's dilution.
            let steady = (gc_io as f64 * (1.0 - frac) / frac).max(1.0);
            let tol = 0.02 + 1.0 / steady + 0.05 * frac;
            prop_assert!(
                (achieved - frac).abs() < tol,
                "{:?}: achieved {} vs requested {}", history, achieved, frac
            );
        }
    }

    #[test]
    fn saio_triggers_respect_configured_clamps(
        frac in 0.01f64..1.0,
        gc_scale in prop_oneof![Just(1u64), Just(100_000_000_000_000u64)],
        observations in proptest::collection::vec(arb_obs(), 1..50),
    ) {
        // Closed-loop invariant: no matter what the workload feeds back,
        // every emitted trigger stays inside [MIN_INTERVAL, MAX_INTERVAL],
        // and the policy's clamp diagnostic agrees with where the interval
        // landed. Scaling gc_io by 10¹⁴ reaches the upper clamp at small
        // fractions.
        let (min, max) = (SaioPolicy::MIN_INTERVAL, SaioPolicy::MAX_INTERVAL);
        let mut p = SaioPolicy::with_frac(frac);
        for obs in &observations {
            let obs = CollectionObservation { gc_io: obs.gc_io * gc_scale, ..*obs };
            let t = p.after_collection(&obs);
            let n = t.app_io.expect("SAIO triggers on app I/O");
            prop_assert!(n >= min && n <= max, "interval {} outside [{}, {}]", n, min, max);
            match p.last_clamp() {
                odbgc_core::ClampHit::Min => prop_assert_eq!(n, min),
                odbgc_core::ClampHit::Max => prop_assert_eq!(n, max),
                odbgc_core::ClampHit::None => {}
            }
        }
    }

    #[test]
    fn saio_achieved_share_is_monotone_in_requested_fraction(
        base in 0.02f64..0.4,
        step in 0.05f64..0.4,
        gc_io in 1u64..5_000,
    ) {
        // On a fixed synthetic workload (constant collection cost), a
        // strictly larger requested GC-I/O fraction never yields a
        // smaller achieved GC-I/O share.
        let achieved = |frac: f64| -> f64 {
            let mut p = SaioPolicy::with_frac(frac);
            let mut interval = p.initial_trigger().app_io.unwrap();
            let (mut app_total, mut gc_total) = (0u64, 0u64);
            for _ in 0..60 {
                app_total += interval;
                gc_total += gc_io;
                let obs = CollectionObservation {
                    gc_io,
                    app_io_since_prev: interval,
                    ..CollectionObservation::zero()
                };
                interval = p.after_collection(&obs).app_io.unwrap();
            }
            gc_total as f64 / (gc_total + app_total) as f64
        };
        let lo = achieved(base);
        let hi = achieved((base + step).min(0.95));
        // Integer rounding of intervals can cost at most a hair; the
        // ordering itself must hold.
        prop_assert!(
            hi >= lo - 1e-9,
            "share at {} = {} < share at {} = {}", base + step, hi, base, lo
        );
    }

    #[test]
    fn saga_triggers_respect_clamps(
        frac in 0.0f64..0.9,
        dt_max in proptest::option::of(SagaPolicy::DT_MIN..2_000),
        observations in proptest::collection::vec(arb_obs(), 1..50),
    ) {
        let mut p = SagaPolicy::new(frac, dt_max, EstimatorKind::Oracle);
        let max = dt_max.unwrap_or(SagaPolicy::PAPER_DT_MAX);
        for obs in &observations {
            let t = p.after_collection(obs);
            let dt = t.overwrites.expect("SAGA triggers on overwrites");
            prop_assert!(dt >= SagaPolicy::DT_MIN && dt <= max, "dt {} out of clamps", dt);
        }
    }

    #[test]
    fn saga_closed_loop_settles_at_target(
        frac in 0.02f64..0.25,
        growth in 10f64..500.0,
        reclaim in 10_000f64..100_000.0,
    ) {
        let db_size = 2_000_000u64;
        let mut p = SagaPolicy::new(frac, None, EstimatorKind::Oracle);
        let mut clock = 0u64;
        let mut garbage = 0.0f64;
        let mut collected_total = 0.0f64;
        let mut trigger = p.initial_trigger();
        let mut post_levels = Vec::new();
        for i in 0..120 {
            let dt = trigger.overwrites.unwrap();
            clock += dt;
            garbage += growth * dt as f64;
            let collected = garbage.min(reclaim);
            garbage -= collected;
            collected_total += collected;
            post_levels.push(garbage);
            let obs = CollectionObservation {
                collection_index: i,
                bytes_reclaimed: collected.round() as u64,
                total_collected: collected_total.round() as u64,
                overwrite_clock: clock,
                db_size,
                exact_garbage: garbage.round() as u64,
                ..CollectionObservation::zero()
            };
            trigger = p.after_collection(&obs);
        }
        // A target is sustainable only if garbage can out-accumulate one
        // collection's reclaim within the Δt_max clamp; otherwise every
        // cycle drains everything and the level pins near zero — the
        // saturation visible at the high end of Figure 5.
        let target = db_size as f64 * frac;
        let accumulable = growth * SagaPolicy::PAPER_DT_MAX as f64;
        if accumulable > 1.2 * reclaim && accumulable > 0.05 * target {
            let tail = &post_levels[100..];
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!(
                mean <= target + reclaim + 1.0,
                "mean {} exceeds target {} + reclaim {}", mean, target, reclaim
            );
            // And the controller makes progress toward the target: the
            // tail level is at least what pure accumulation-minus-drain
            // dynamics permit.
            let per_cycle_net = accumulable - reclaim;
            let attainable = (per_cycle_net * 100.0).min(target);
            prop_assert!(
                mean >= 0.5 * attainable - reclaim,
                "mean {} too far below attainable {}", mean, attainable
            );
        } else {
            // Unreachable regime: the level stays bounded by one cycle's
            // accumulation.
            let tail_max = post_levels[100..].iter().copied().fold(0.0, f64::max);
            prop_assert!(
                tail_max <= target.max(accumulable) + reclaim + 1.0,
                "unreachable regime produced level {}", tail_max
            );
        }
    }

    #[test]
    fn estimators_are_finite_and_nonnegative(
        observations in proptest::collection::vec(arb_obs(), 1..60),
    ) {
        for kind in [EstimatorKind::Oracle, EstimatorKind::CgsCb, EstimatorKind::fgs_hb_default()] {
            let mut e = kind.build();
            for obs in &observations {
                let v = e.estimate(obs);
                prop_assert!(v.is_finite() && v >= 0.0, "{} produced {}", e.name(), v);
            }
        }
    }

    #[test]
    fn ewma_stays_within_input_envelope(
        h in 0.0f64..=1.0,
        samples in proptest::collection::vec(0.0f64..1e9, 1..100),
    ) {
        let mut e = Ewma::new(h);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &s in &samples {
            let v = e.update(s);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{} outside [{}, {}]", v, lo, hi);
        }
    }

    #[test]
    fn slope_is_bounded_by_observed_raw_slopes(
        points in proptest::collection::vec((1u64..1000, 0.0f64..1e6), 2..50),
    ) {
        let mut s = WeightedSlope::new();
        let mut t = 0.0f64;
        let mut raws: Vec<f64> = Vec::new();
        let mut prev: Option<(f64, f64)> = None;
        for &(dt, y) in &points {
            t += dt as f64;
            if let Some((tp, yp)) = prev {
                raws.push((y - yp) / (t - tp));
            }
            prev = Some((t, y));
            let v = s.update(t, y);
            if !raws.is_empty() {
                let lo = raws.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = raws.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6,
                    "slope {} escaped raw envelope [{}, {}]", v, lo, hi);
            }
        }
    }
}
