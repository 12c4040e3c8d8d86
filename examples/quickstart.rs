//! Quickstart: build an OO7 database trace, run it under the SAIO policy,
//! and print what happened.
//!
//! ```sh
//! cargo run --release -p odbgc-sim --example quickstart
//! ```

use odbgc_core::SaioPolicy;
use odbgc_engine::EngineConfig;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::Simulator;

fn main() {
    // 1. Generate the workload: the paper's Small' OO7 database at
    //    connectivity 3, exercised by the four-phase test application
    //    (GenDB → Reorg1 → Traverse → Reorg2).
    let params = Oo7Params::small_prime(3);
    let app = Oo7App::standard(params, /* seed */ 1);
    let (trace, characteristics) = app.generate();
    println!(
        "database: {} objects, {:.1} MB live, avg object {:.0} B, avg {:.1} pointers/object",
        characteristics.total_objects(),
        characteristics.total_bytes() as f64 / 1_048_576.0,
        characteristics.avg_object_size(),
        characteristics.avg_connectivity(),
    );
    println!("trace: {} events", trace.len());

    // 2. Pick a rate policy. SAIO holds garbage-collection I/O at a
    //    requested share of all I/O — here 10%.
    let mut policy = SaioPolicy::with_frac(0.10);

    // 3. Simulate: 8 KiB pages, 12-page partitions and buffer, the
    //    UPDATEDPOINTER partition-selection policy — the paper's setup.
    let result = Simulator::new(EngineConfig::default())
        .replay(&trace, &mut policy, odbgc_sim::ReplayOptions::new())
        .expect("trace replays cleanly");

    // 4. Inspect the outcome.
    println!("collections: {}", result.collection_count());
    println!(
        "I/O: {} application + {} collector pages",
        result.app_io_total, result.gc_io_total
    );
    println!(
        "achieved GC-I/O share: {:.2}% (requested 10%)",
        result.gc_io_pct.unwrap_or(f64::NAN)
    );
    println!(
        "garbage: {:.1} KiB generated, {:.1} KiB collected, {:.1} KiB left",
        result.total_garbage_generated as f64 / 1024.0,
        result.total_garbage_collected as f64 / 1024.0,
        result.final_garbage_bytes as f64 / 1024.0,
    );
}
