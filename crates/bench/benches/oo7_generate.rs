//! OO7 trace generation: the whole four-phase application, from
//! parameters to a finished `Trace`, at the two sizes the end-to-end
//! replays and the connectivity sweeps use most. Connection placement
//! is what grows with parts per composite, so Medium (200 parts per
//! composite) is where a return to a per-connection scan shows first.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odbgc_oo7::{Oo7App, Oo7Params};

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("oo7_generate");
    group.sample_size(10);
    for (name, params) in [
        ("small_conn9", Oo7Params::small(9)),
        ("medium_conn3", Oo7Params::medium(3)),
    ] {
        let app = Oo7App::standard(params, 1);
        group.bench_function(name, |b| b.iter(|| black_box(app.generate())));
    }
    group.finish();
}

criterion_group!(benches, bench_generate);
criterion_main!(benches);
