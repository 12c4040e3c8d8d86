//! Scenario: a DBA with an I/O budget.
//!
//! "Reclamation may use at most X% of my I/O" is the contract the SAIO
//! policy implements. This example sweeps the requested share and shows
//! the achieved share plus the space consequence (how much garbage is
//! left), making the paper's time/space trade-off concrete: buying less
//! collector I/O costs storage, and vice versa.
//!
//! ```sh
//! cargo run --release -p odbgc-sim --example io_budget
//! ```

use odbgc_core::SaioPolicy;
use odbgc_engine::EngineConfig;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::Simulator;

fn main() {
    let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    let sim = Simulator::new(EngineConfig::default());

    println!("requested%  achieved%  collections  garbage-left(KiB)  db-size(MB)");
    for requested in [2.0, 5.0, 10.0, 20.0, 35.0, 50.0] {
        let mut policy = SaioPolicy::with_frac(requested / 100.0);
        let r = sim
            .replay(&trace, &mut policy, odbgc_sim::ReplayOptions::new())
            .expect("trace replays");
        println!(
            "{:>9.1}  {:>9.2}  {:>11}  {:>17.1}  {:>11.2}",
            requested,
            r.gc_io_pct.unwrap_or(f64::NAN),
            r.collection_count(),
            r.final_garbage_bytes as f64 / 1024.0,
            r.final_db_size as f64 / 1_048_576.0,
        );
    }
    println!();
    println!("Reading the table: a bigger I/O budget buys more collections,");
    println!("which leaves less garbage and a smaller database — the");
    println!("time/space trade-off of collection rate (Figure 1 of the paper).");
}
