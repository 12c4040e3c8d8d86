//! Guards the telemetry layer's zero-cost-when-off contract: replaying a
//! trace with telemetry disabled must not regress
//! when the instrumented telemetry path exists, and the
//! instrumented path's overhead is measured alongside it for comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odbgc_core::{RatePolicy, SaioPolicy};
use odbgc_engine::EngineConfig;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::{ReplayOptions, RunTelemetry, Simulator};
use odbgc_trace::Trace;

fn bench_trace() -> Trace {
    Oo7App::standard(Oo7Params::tiny(), 1).generate().0
}

fn bench_replay(c: &mut Criterion) {
    let trace = bench_trace();
    let sim = Simulator::new(EngineConfig::tiny());

    c.bench_function("replay_hot_path/telemetry_off", |b| {
        b.iter(|| {
            let mut policy = SaioPolicy::with_frac(0.10);
            black_box(
                sim.replay(black_box(&trace), &mut policy, ReplayOptions::new())
                    .expect("run"),
            )
        })
    });

    c.bench_function("replay_hot_path/telemetry_on", |b| {
        b.iter(|| {
            let mut policy = SaioPolicy::with_frac(0.10);
            let mut telemetry = RunTelemetry::new(policy.name());
            let result = sim
                .replay(
                    black_box(&trace),
                    &mut policy,
                    ReplayOptions::new().telemetry(&mut telemetry),
                )
                .expect("run");
            black_box((result, telemetry))
        })
    });
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
