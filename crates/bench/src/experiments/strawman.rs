//! §2.1: why "clever" fixed-rate heuristics fail.
//!
//! The heuristic infers garbage-per-overwrite from average connectivity
//! and object size (`133 B / 4 ≈ 33 B` per overwrite for the paper's
//! numbers) and schedules a collection per partition's-worth of predicted
//! garbage. The paper reports the application actually creates garbage
//! about five times faster (≈ 1 KB per 6 overwrites), because single
//! overwrites can detach whole clusters and large objects (documents).
//! This experiment measures both quantities and shows the garbage level
//! the mispredicted rate leads to.

use odbgc_core::{connectivity_heuristic_rate, FixedRatePolicy};
use odbgc_engine::RunResult;
use odbgc_oo7::Oo7App;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::run_single;

use crate::scale::Scale;

/// Measured vs predicted garbage rates plus the consequences.
pub struct StrawmanData {
    /// The §2.1 prediction: avg object size / avg connectivity.
    pub predicted_garbage_per_overwrite: f64,
    /// The measured garbage-creation rate.
    pub actual_garbage_per_overwrite: f64,
    /// The rate (overwrites/collection) the heuristic picked.
    pub heuristic_rate: u64,
    /// The run at the heuristic's rate.
    pub heuristic_run: RunResult,
    /// The run at the rate a correct garbage model implies.
    pub corrected_run: RunResult,
}

/// Runs the comparison.
pub fn run(scale: Scale) -> StrawmanData {
    let db = scale.db();
    let app = Oo7App::standard(db.params(3).unwrap(), scale.series_seed());
    let (trace, chars) = app.generate();
    let config = db.engine_config();

    let partition_bytes = u64::from(config.store.partition_bytes());
    let heuristic_rate = connectivity_heuristic_rate(
        chars.avg_connectivity(),
        chars.avg_object_size(),
        partition_bytes,
    );
    let predicted = chars.avg_object_size() / chars.avg_connectivity();

    let mut heuristic_policy = FixedRatePolicy::new(heuristic_rate);
    let heuristic_run =
        run_single(&trace, &config, &mut heuristic_policy).expect("OO7 trace replays cleanly");

    // Ground truth garbage creation per overwrite.
    let actual = if heuristic_run.overwrite_clock == 0 {
        0.0
    } else {
        heuristic_run.total_garbage_generated as f64 / heuristic_run.overwrite_clock as f64
    };

    // The rate the heuristic *should* have chosen given the true garbage
    // rate (one partition's worth of actual garbage per collection).
    let corrected_rate = (partition_bytes as f64 / actual.max(1.0)).round() as u64;
    let mut corrected_policy = FixedRatePolicy::new(corrected_rate.max(1));
    let corrected_run =
        run_single(&trace, &config, &mut corrected_policy).expect("OO7 trace replays cleanly");

    StrawmanData {
        predicted_garbage_per_overwrite: predicted,
        actual_garbage_per_overwrite: actual,
        heuristic_rate,
        heuristic_run,
        corrected_run,
    }
}

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let d = run(scale);
    let misprediction =
        d.actual_garbage_per_overwrite / d.predicted_garbage_per_overwrite.max(1e-9);
    let rows = vec![
        vec![
            "predicted garbage/overwrite (B)".into(),
            fmt_f(d.predicted_garbage_per_overwrite, 1),
        ],
        vec![
            "actual garbage/overwrite (B)".into(),
            fmt_f(d.actual_garbage_per_overwrite, 1),
        ],
        vec!["misprediction factor".into(), fmt_f(misprediction, 2)],
        vec![
            "heuristic rate (ow/coll)".into(),
            d.heuristic_rate.to_string(),
        ],
        vec![
            "collections at heuristic rate".into(),
            d.heuristic_run.collection_count().to_string(),
        ],
        vec![
            "garbage left at heuristic rate (KiB)".into(),
            fmt_f(d.heuristic_run.final_garbage_bytes as f64 / 1024.0, 1),
        ],
        vec![
            "collections at corrected rate".into(),
            d.corrected_run.collection_count().to_string(),
        ],
        vec![
            "garbage left at corrected rate (KiB)".into(),
            fmt_f(d.corrected_run.final_garbage_bytes as f64 / 1024.0, 1),
        ],
    ];
    format!(
        "== §2.1 strawman: the connectivity heuristic fails ==\n{}",
        render_table(&["quantity", "value"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_underestimates_garbage_rate() {
        let d = run(Scale::Test);
        // The documented failure: actual garbage per overwrite exceeds the
        // connectivity-based prediction (whole clusters + documents die).
        assert!(
            d.actual_garbage_per_overwrite > d.predicted_garbage_per_overwrite,
            "actual {} must exceed predicted {}",
            d.actual_garbage_per_overwrite,
            d.predicted_garbage_per_overwrite
        );
        // Consequently the heuristic collects no more often than the
        // corrected rate would.
        assert!(d.heuristic_run.collection_count() <= d.corrected_run.collection_count());
    }

    #[test]
    fn report_renders() {
        assert!(report(Scale::Test).contains("misprediction factor"));
    }
}
