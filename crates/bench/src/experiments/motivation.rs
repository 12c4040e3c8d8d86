//! §2 motivation: pointer overwrites — not allocation — track garbage.
//!
//! Programming-language collectors often trigger on allocation volume,
//! and Yong–Naughton–Yu carried that heuristic over ("collection is
//! triggered … after a fixed amount of storage is allocated"). §2 argues
//! the correlation breaks in object databases: GenDB and the reinsertion
//! halves of the reorganizations allocate heavily while creating little
//! or no garbage, so an allocation trigger collects exactly when there is
//! nothing to collect.
//!
//! This experiment runs an overwrite-triggered and an allocation-triggered
//! fixed policy calibrated to the *same number of collections*, and
//! compares where the collections land (how many during the garbage-free
//! GenDB phase), how many reclaim nothing at all, and the garbage level
//! each achieves for its I/O.

use odbgc_core::{AllocationRatePolicy, FixedRatePolicy};
use odbgc_engine::RunResult;
use odbgc_oo7::Oo7App;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::run_single;

use crate::scale::Scale;

/// Collections performed before the Reorg1 phase marker (i.e. during
/// GenDB, when the database contains no garbage at all).
pub fn collections_during_gendb(r: &RunResult) -> u64 {
    r.phases
        .iter()
        .find(|(n, _, _)| n == "Reorg1")
        .map(|(_, _, c)| *c)
        .unwrap_or(0)
}

/// Runs both policies, calibrating the allocation trigger to match the
/// overwrite policy's collection count.
pub fn run(scale: Scale) -> (RunResult, RunResult) {
    let (trace, _) = Oo7App::standard(scale.params(3), scale.series_seed()).generate();
    let config = scale.engine_config();
    let rate = match scale {
        Scale::Test => 25,
        _ => 200,
    };
    let mut overwrite_policy = FixedRatePolicy::new(rate);
    let by_overwrites =
        run_single(&trace, &config, &mut overwrite_policy).expect("OO7 trace replays cleanly");

    // Calibrate: total allocation / target collection count.
    let total_alloc: u64 = {
        let stats = trace.stats();
        stats.bytes_allocated
    };
    let bytes_per_coll = (total_alloc / by_overwrites.collection_count().max(1)).max(1);
    let mut allocation_policy = AllocationRatePolicy::new(bytes_per_coll);
    let by_allocation =
        run_single(&trace, &config, &mut allocation_policy).expect("OO7 trace replays cleanly");
    (by_overwrites, by_allocation)
}

/// Collections that reclaimed nothing at all (pure I/O waste).
pub fn zero_yield_collections(r: &RunResult) -> u64 {
    r.collections
        .iter()
        .filter(|c| c.bytes_reclaimed == 0)
        .count() as u64
}

fn row(name: &str, r: &RunResult) -> Vec<String> {
    vec![
        name.to_string(),
        r.collection_count().to_string(),
        collections_during_gendb(r).to_string(),
        zero_yield_collections(r).to_string(),
        fmt_f(r.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        r.gc_io_total.to_string(),
    ]
}

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let (by_ow, by_alloc) = run(scale);
    let rows = vec![
        row("overwrite-triggered", &by_ow),
        row("allocation-triggered", &by_alloc),
    ];
    format!(
        "== §2 motivation: overwrite vs allocation triggering ==\n\
         (calibrated to similar total collections; GenDB contains zero\n\
         garbage, so collections there — and any zero-yield collection —\n\
         are pure I/O waste)\n{}",
        render_table(
            &[
                "trigger",
                "colls",
                "colls in GenDB",
                "zero-yield colls",
                "mean garbage %",
                "gc.io"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_trigger_wastes_collections_on_gendb() {
        let (by_ow, by_alloc) = run(Scale::Test);
        // The overwrite trigger cannot fire during GenDB (no overwrites);
        // the allocation trigger fires repeatedly there.
        assert_eq!(collections_during_gendb(&by_ow), 0);
        assert!(
            collections_during_gendb(&by_alloc) > 0,
            "allocation trigger should collect during GenDB"
        );
    }

    #[test]
    fn allocation_trigger_wastes_more_collections_overall() {
        let (by_ow, by_alloc) = run(Scale::Test);
        assert!(
            zero_yield_collections(&by_alloc) > zero_yield_collections(&by_ow),
            "allocation-triggered zero-yield {} should exceed overwrite-triggered {}",
            zero_yield_collections(&by_alloc),
            zero_yield_collections(&by_ow)
        );
    }

    #[test]
    fn report_renders() {
        assert!(report(Scale::Test).contains("allocation-triggered"));
    }
}
