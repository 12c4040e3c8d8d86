//! Measures how the event-loop server scales with connection count at a
//! fixed total operation budget: the same 512 ops pushed through 1, 16,
//! and 64 connections on a one-shard server, so one loop thread serves
//! them all and applies every turn. A thread-per-connection server pays
//! a thread spawn/teardown per connection; the event loop should hold
//! the per-op cost roughly flat as the budget spreads across more (and
//! therefore mostly idle) connections.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odbgc_core::FixedRatePolicy;
use odbgc_net::{run_clients, ClientConfig, NetConfig, NetServer};
use odbgc_sim::engine::WorkloadParams;
use odbgc_sim::SimConfig;

const TOTAL_OPS: u64 = 512;
const BATCH: u64 = 8;

fn tiny_engine() -> SimConfig {
    SimConfig {
        store: odbgc_sim::store::StoreConfig::tiny(),
        ..SimConfig::default()
    }
}

fn run_at(connections: u32) -> (odbgc_net::MultiClientReport, odbgc_net::NetOutcome) {
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
    let report = run_clients(
        &ClientConfig {
            addr,
            session: 0,
            ops: TOTAL_OPS / connections as u64,
            batch: BATCH,
            window: 4,
            workload: WorkloadParams::default(),
            shutdown_after: true,
        },
        connections,
    )
    .expect("clients");
    let outcome = handle.join().expect("server");
    (report, outcome)
}

fn bench_scaling(c: &mut Criterion) {
    for connections in [1u32, 16, 64] {
        c.bench_function(&format!("serve_net_scaling/conns_{connections}"), |b| {
            b.iter(|| black_box(run_at(connections)))
        });
    }
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
