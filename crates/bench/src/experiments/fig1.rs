//! Figure 1: the cost of the collection-rate choice.
//!
//! Sweeps a fixed collection rate (pointer overwrites per collection) and
//! reports (a) total I/O operations and (b) total garbage collected.
//! Expected shape: more frequent collection (small rate) costs many more
//! I/O operations; infrequent collection (large rate) collects little of
//! the garbage — the time/space trade-off motivating the whole paper.

use odbgc_core::PolicySpec;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::sweep_point;

use crate::common::{grids, sweep_plan};
use crate::scale::Scale;

/// The aggregated data behind both panels.
pub struct Fig1Data {
    /// `(rate, total-I/O point, garbage-collected point)`.
    pub rows: Vec<(u64, odbgc_sim::SweepPoint, odbgc_sim::SweepPoint)>,
}

/// Runs the sweep.
pub fn run(scale: Scale) -> Fig1Data {
    let rates: Vec<u64> = match scale {
        Scale::Test => vec![10, 40, 160],
        _ => grids::FIG1_RATES.to_vec(),
    };
    let plan = sweep_plan(
        scale,
        3,
        &scale.seeds(),
        rates
            .iter()
            .map(|&rate| (rate as f64, PolicySpec::fixed(rate))),
    );
    let rows = plan
        .run()
        .cells
        .iter()
        .zip(rates)
        .map(|(cell, rate)| {
            // Aggregate the successful seeds; a failed seed shrinks the
            // run count instead of aborting the figure.
            let total_io: Vec<f64> = cell
                .outcome
                .successes()
                .map(|r| r.total_io() as f64)
                .collect();
            let collected: Vec<f64> = cell
                .outcome
                .successes()
                .map(|r| r.total_garbage_collected as f64 / 1024.0)
                .collect();
            (
                rate,
                sweep_point(rate as f64, &total_io),
                sweep_point(rate as f64, &collected),
            )
        })
        .collect();
    Fig1Data { rows }
}

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let data = run(scale);
    let rows: Vec<Vec<String>> = data
        .rows
        .iter()
        .map(|(rate, io, coll)| {
            vec![
                rate.to_string(),
                fmt_f(io.mean, 0),
                fmt_f(io.min, 0),
                fmt_f(io.max, 0),
                fmt_f(coll.mean, 1),
                fmt_f(coll.min, 1),
                fmt_f(coll.max, 1),
            ]
        })
        .collect();
    format!(
        "== Figure 1: fixed collection rate vs I/O (a) and garbage collected (b) ==\n\
         (rate in pointer overwrites per collection; I/O in page operations;\n\
         garbage collected in KiB; mean/min/max over {} runs)\n{}",
        data.rows.first().map(|(_, p, _)| p.runs).unwrap_or(0),
        render_table(
            &["rate", "io.mean", "io.min", "io.max", "gc.KiB", "gc.min", "gc.max"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_falls_and_garbage_collected_falls_with_rate() {
        let data = run(Scale::Test);
        assert!(data.rows.len() >= 3);
        let first = &data.rows.first().unwrap();
        let last = &data.rows.last().unwrap();
        // Collecting often costs more I/O…
        assert!(first.1.mean > last.1.mean, "I/O must fall with rate");
        // …and collecting rarely reclaims less garbage in total.
        assert!(
            first.2.mean >= last.2.mean,
            "garbage collected must not rise with rate"
        );
    }

    #[test]
    fn report_renders() {
        let r = report(Scale::Test);
        assert!(r.contains("Figure 1"));
        assert!(r.lines().count() > 5);
    }
}
