//! Where an OO7 replay's `Store::apply` time goes: by store variant
//! (knocking out one component at a time) and by event kind.
//!
//! ```sh
//! cargo run --release -p odbgc-bench --bin profile_replay -- --params medium
//! ```

use std::time::Instant;

use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_store::{Store, StoreConfig};
use odbgc_trace::Event;

const USAGE: &str = "usage: profile_replay [--params small-prime|small|medium]";

/// The database shapes the repository measures on: the paper's Small′
/// conn-3, and the `small` / `medium` of `benchmark/src/workloads/mod.rs`
/// (`replay_saio` and `replay_nogc`).
fn params_named(name: &str) -> Option<Oo7Params> {
    match name {
        "small-prime" => Some(Oo7Params::small_prime(3)),
        "small" => Some(Oo7Params::small(9)),
        "medium" => Some(Oo7Params::medium(3)),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.as_slice() {
        [] => "small-prime",
        [flag, name] if flag == "--params" => name,
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(params) = params_named(name) else {
        eprintln!("unknown --params {name:?}\n{USAGE}");
        std::process::exit(2);
    };
    let (trace, _) = Oo7App::standard(params, 1).generate();
    println!("params: {name}   events: {}", trace.len());
    let events = trace.len() as f64;

    // Elimination variants: measure cost shares by knocking out one
    // component at a time. Best of five, after the first variant's runs
    // have warmed the allocator.
    let variants: Vec<(&str, StoreConfig)> = vec![
        ("default", StoreConfig::default()),
        (
            "huge_buffer",
            StoreConfig {
                buffer_pages: 65536,
                ..StoreConfig::default()
            },
        ),
        (
            "page_4k",
            StoreConfig {
                page_size: 4096,
                ..StoreConfig::default()
            },
        ),
    ];
    println!(
        "{:<12} {:>10} {:>9} {:>10}",
        "variant", "best ms", "ns/event", "partitions"
    );
    for (name, cfg) in &variants {
        let mut best = u128::MAX;
        let mut partitions = 0;
        for _ in 0..5 {
            let mut store = Store::new(cfg.clone());
            let t = Instant::now();
            for ev in trace.iter() {
                store.apply(ev).expect("replay");
            }
            best = best.min(t.elapsed().as_nanos());
            partitions = store.partition_count();
        }
        let per_event = best as f64 / events;
        println!(
            "{name:<12} {:>10.3} {per_event:>9.1} {partitions:>10}",
            best as f64 / 1e6
        );
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..5 {
        for ev in trace.iter() {
            acc += matches!(ev, Event::SlotWrite { .. }) as u64;
        }
    }
    println!(
        "iter_only    {:>10.3}   ({acc} slot writes seen)",
        t.elapsed().as_nanos() as f64 / 5.0 / 1e6
    );

    // Per-kind attribution. Every event is timed on its own, and the
    // timer pair's cost is in every average: nothing is subtracted.
    const PAIRS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    println!(
        "timer pair: {} ns, included in each avg below",
        t.elapsed().as_nanos() / u128::from(PAIRS)
    );
    let mut store = Store::new(StoreConfig::default());
    let mut buckets: std::collections::HashMap<&str, (u64, u128)> = Default::default();
    for ev in trace.iter() {
        let t = Instant::now();
        store.apply(ev).expect("replay");
        let ns = t.elapsed().as_nanos();
        let e = buckets.entry(kind(ev)).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    let total: u128 = buckets.values().map(|(_, ns)| ns).sum();
    let mut rows: Vec<_> = buckets.into_iter().collect();
    rows.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
    for (k, (n, ns)) in rows {
        println!(
            "{k:<16} n={n:<8} total={:>9.2}ms ({:>4.1}%) avg={}ns",
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total as f64,
            ns / n as u128
        );
    }
}

fn kind(ev: &Event) -> &'static str {
    match ev {
        Event::Create { slots, .. } if !slots.is_empty() => "Create+slots",
        Event::Create { .. } => "Create",
        Event::SlotWrite { new: Some(_), .. } => "SlotWrite set",
        Event::SlotWrite { new: None, .. } => "SlotWrite clear",
        Event::Access { .. } => "Access",
        Event::RootAdd { .. } => "RootAdd",
        Event::RootRemove { .. } => "RootRemove",
        _ => "Other",
    }
}
