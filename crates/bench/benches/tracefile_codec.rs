//! Tracefile codec micro-benchmarks: binary encode/decode throughput,
//! the text rendering `odbgc trace cat` prints, and block-at-a-time
//! reading straight off the binary encoding.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_trace::codec;

fn bench_tracefile(c: &mut Criterion) {
    let (trace, _) = Oo7App::standard(Oo7Params::small(3), 1).generate();
    let binary = odbgc_tracefile::encode(&trace);
    let events = trace.len() as u64;

    let mut group = c.benchmark_group("tracefile_encode");
    group.throughput(Throughput::Elements(events));
    group.sample_size(20);
    group.bench_function("binary", |b| {
        b.iter(|| black_box(odbgc_tracefile::encode(&trace)))
    });
    group.bench_function("text", |b| b.iter(|| black_box(codec::encode(&trace))));
    group.finish();

    let mut group = c.benchmark_group("tracefile_decode");
    group.throughput(Throughput::Elements(events));
    group.sample_size(20);
    group.bench_function("binary", |b| {
        b.iter(|| black_box(odbgc_tracefile::decode(&binary).expect("decode")))
    });
    group.finish();

    // Borrowed batches: drain `&[Event]` blocks without a Trace,
    // per-event allocation, or per-event Result, off an in-memory image
    // (`open_batches` runs the same reader over a file's bytes).
    let mut group = c.benchmark_group("trace_decode_batched");
    group.throughput(Throughput::Elements(events));
    group.sample_size(20);
    group.bench_function("slice", |b| {
        b.iter(|| {
            let blocks = odbgc_tracefile::SliceBlocks::new(binary.as_slice()).expect("header");
            let mut reader = odbgc_tracefile::BatchReader::new(blocks).expect("phase table");
            let mut n = 0u64;
            while let Some(batch) = reader.next_batch().expect("batch") {
                n += black_box(batch).len() as u64;
            }
            n
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tracefile);
criterion_main!(benches);
