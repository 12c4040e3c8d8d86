//! Scenario: watching a self-adaptive policy ride out phase changes.
//!
//! The OO7 application switches behavior abruptly: clustered reorganizing
//! (Reorg1), a read-only traversal, then declustered reorganizing
//! (Reorg2). A fixed collection rate tuned for one phase is wrong for the
//! others; SAGA re-plans after every collection. This example prints the
//! per-collection series — interval, yield, garbage level — annotated
//! with phase boundaries, the raw material of the paper's Figure 7b.
//!
//! ```sh
//! cargo run --release -p odbgc-sim --example phase_adaptive
//! ```

use odbgc_core::{EstimatorKind, SagaPolicy};
use odbgc_engine::EngineConfig;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::Simulator;

fn main() {
    let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    let config = EngineConfig {
        shadow_estimator: Some(EstimatorKind::fgs_hb_default()),
        ..EngineConfig::default()
    };
    // 10% garbage, the paper's Δt clamp of [2, 1000] overwrites (`None`).
    let mut policy = SagaPolicy::new(0.10, None, EstimatorKind::fgs_hb_default());
    let r = Simulator::new(config)
        .replay(&trace, &mut policy, odbgc_sim::ReplayOptions::new())
        .expect("trace replays");

    println!("SAGA (FGS/HB, requested 10% garbage) over the OO7 phases\n");
    println!("coll  interval(ow)  yield(KiB)  garbage%  est.garbage%");
    let mut phase_iter = r.phases.iter().peekable();
    for c in &r.collections {
        while let Some((name, _, at_coll)) = phase_iter.peek() {
            if *at_coll <= c.index {
                println!("---- phase: {name} ----");
                phase_iter.next();
            } else {
                break;
            }
        }
        println!(
            "{:>4}  {:>12}  {:>10.1}  {:>8.2}  {:>12.2}",
            c.index,
            c.interval_overwrites,
            c.bytes_reclaimed as f64 / 1024.0,
            c.actual_garbage_pct(),
            c.estimated_garbage_pct().unwrap_or(f64::NAN),
        );
    }
    println!();
    println!("Things to notice: the cold start collects furiously (tiny");
    println!("intervals) until the estimator learns the garbage rate; no");
    println!("collections happen during the read-only Traverse (no pointer");
    println!("overwrites = no garbage = SAGA time stands still); and after");
    println!("the Reorg2 transition the yield drops while leftover Reorg1");
    println!("partitions drain, exactly as §4.1.2 of the paper describes.");
}
