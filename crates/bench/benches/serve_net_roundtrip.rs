//! Measures the network serve path: full client-driver roundtrips over
//! loopback (frame encode → socket → shard executor queue → apply →
//! ack), against the in-process serve mode — the same shards driven on
//! the calling thread — as the no-socket baseline. The gap between the
//! two is the wire and thread-handoff tax per operation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odbgc_core::FixedRatePolicy;
use odbgc_net::{run_client, ClientConfig, NetConfig, NetServer, Request};
use odbgc_sim::engine::{serve, ServeConfig, WorkloadParams};
use odbgc_sim::SimConfig;

const OPS: u64 = 1_000;
const BATCH: u64 = 8;

fn tiny_engine() -> SimConfig {
    SimConfig {
        store: odbgc_sim::store::StoreConfig::tiny(),
        ..SimConfig::default()
    }
}

fn bench_serve_net(c: &mut Criterion) {
    c.bench_function("serve_net_roundtrip/loopback_1k_ops", |b| {
        b.iter(|| {
            let server = NetServer::bind(
                "127.0.0.1:0",
                NetConfig {
                    engine: tiny_engine(),
                    shards: 1,
                    ..NetConfig::default()
                },
                |_| Box::new(FixedRatePolicy::new(20)),
            )
            .expect("bind");
            let addr = server.local_addr().expect("addr").to_string();
            let handle = std::thread::spawn(move || server.run());
            let report = run_client(&ClientConfig {
                addr,
                session: 0,
                ops: OPS,
                batch: BATCH,
                window: 4,
                workload: WorkloadParams::default(),
                shutdown_after: true,
            })
            .expect("client");
            let outcome = handle.join().expect("server");
            black_box((report, outcome))
        })
    });

    c.bench_function("serve_net_roundtrip/in_process_1k_ops", |b| {
        b.iter(|| {
            black_box(
                serve(
                    ServeConfig {
                        engine: tiny_engine(),
                        sessions: 1,
                        shards: 1,
                        ops_per_session: OPS,
                        batch: BATCH,
                        scheduler_seed: 42,
                        workload: WorkloadParams::default(),
                        gc_fault: None,
                    },
                    |_| Box::new(FixedRatePolicy::new(20)),
                )
                .expect("serve"),
            )
        })
    });

    c.bench_function("serve_net_roundtrip/frame_encode_decode_turn_reused", |b| {
        // The pure protocol cost of one 8-op turn, no socket: encode_into
        // + frame_into into persistent scratch, then decode — the
        // steady-state per-frame cost with no allocation.
        let mut workload =
            odbgc_sim::engine::SessionWorkload::new(0, WorkloadParams::default(), OPS);
        let turn = workload.next_turn(BATCH);
        let req = Request::Ops { ops: turn };
        let mut body = Vec::new();
        let mut wire = Vec::new();
        b.iter(|| {
            black_box(&req).encode_into(&mut body);
            wire.clear();
            odbgc_net::frame_into(&mut wire, &body);
            black_box(Request::decode(&body).expect("decode"))
        })
    });
}

criterion_group!(benches, bench_serve_net);
criterion_main!(benches);
