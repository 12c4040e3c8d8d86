//! Micro-benchmarks backing the paper's claim that "our collection rate
//! policies add only little time and space overhead" (§1): the cost of
//! one policy decision and one estimator update, in nanoseconds.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odbgc_core::{
    CollectionObservation, EstimatorKind, FixedRatePolicy, HistoryLen, RatePolicy, SagaPolicy,
    SaioPolicy,
};

fn obs(i: u64) -> CollectionObservation {
    CollectionObservation {
        collection_index: i,
        gc_io: 24 + (i % 7),
        app_io_since_prev: 200 + (i % 31),
        bytes_reclaimed: 60_000 + (i % 1000),
        overwrites_of_collected: 180 + (i % 13),
        total_outstanding_overwrites: 2_000 + (i % 100),
        partition_count: 30,
        db_size: 3_000_000,
        total_collected: 1_000_000 + i * 60_000,
        overwrite_clock: 10_000 + i * 200,
        alloc_clock: 500_000 + i * 12_800,
        exact_garbage: 250_000 + (i % 10_000),
    }
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_decision");

    group.bench_function("fixed", |b| {
        let mut p = FixedRatePolicy::new(200);
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(p.after_collection(&obs(i)))
        })
    });

    group.bench_function("saio_no_history", |b| {
        let mut p = SaioPolicy::with_frac(0.10);
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(p.after_collection(&obs(i)))
        })
    });

    group.bench_function("saio_history_64", |b| {
        let mut p = SaioPolicy::new(0.10, HistoryLen::Fixed(64));
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(p.after_collection(&obs(i)))
        })
    });

    group.bench_function("saga_oracle", |b| {
        let mut p = SagaPolicy::new(0.10, None, EstimatorKind::Oracle);
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(p.after_collection(&obs(i)))
        })
    });

    group.bench_function("saga_fgs_hb", |b| {
        let mut p = SagaPolicy::new(0.10, None, EstimatorKind::fgs_hb_default());
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(p.after_collection(&obs(i)))
        })
    });

    group.finish();

    let mut group = c.benchmark_group("estimator_update");
    for (name, kind) in [
        ("oracle", EstimatorKind::Oracle),
        ("cgs_cb", EstimatorKind::CgsCb),
        ("fgs_hb", EstimatorKind::fgs_hb_default()),
    ] {
        group.bench_function(name, |b| {
            let mut e = kind.build();
            let mut i = 0;
            b.iter(|| {
                i += 1;
                black_box(e.estimate(&obs(i)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
