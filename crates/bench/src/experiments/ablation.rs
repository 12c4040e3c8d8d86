//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Partition selection** — UPDATEDPOINTER vs Random vs RoundRobin vs
//!    the MostGarbage oracle, under a fixed rate: how much garbage does
//!    each find per collection? (Also explains CGS/CB's bias, §4.1.2:
//!    UPDATEDPOINTER deliberately picks richer-than-average partitions.)
//! 2. **Overwrite semantics** — the paper's non-null-old overwrite clock
//!    vs counting every store.
//! 3. **Buffer size** — §3.1 sets buffer = partition size; smaller and
//!    larger buffers shift application I/O.

use odbgc_core::{EstimatorKind, FixedRatePolicy, PolicySpec};
use odbgc_engine::EngineConfig;
use odbgc_gc::SelectorKind;
use odbgc_oo7::Oo7App;
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::run_single;
use odbgc_store::OverwriteSemantics;

use crate::scale::Scale;

fn fixed_rate_for(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 25,
        _ => 200,
    }
}

/// Partition-selection comparison under a fixed collection rate.
pub fn selection_report(scale: Scale) -> String {
    let db = scale.db();
    let (trace, _) = Oo7App::standard(db.params(3).unwrap(), scale.series_seed()).generate();
    let rate = fixed_rate_for(scale);
    let rows: Vec<Vec<String>> = [
        SelectorKind::UpdatedPointer,
        SelectorKind::Random,
        SelectorKind::RoundRobin,
        SelectorKind::MostGarbageOracle,
    ]
    .into_iter()
    .map(|kind| {
        let config = EngineConfig {
            selector: kind,
            selector_seed: 42,
            ..db.engine_config()
        };
        let mut policy = FixedRatePolicy::new(rate);
        let r = run_single(&trace, &config, &mut policy).expect("OO7 trace replays cleanly");
        let per_coll = if r.collection_count() == 0 {
            0.0
        } else {
            r.total_garbage_collected as f64 / 1024.0 / r.collection_count() as f64
        };
        vec![
            format!("{kind:?}"),
            r.collection_count().to_string(),
            fmt_f(r.total_garbage_collected as f64 / 1024.0, 1),
            fmt_f(per_coll, 2),
            fmt_f(r.final_garbage_bytes as f64 / 1024.0, 1),
        ]
    })
    .collect();
    format!(
        "-- Ablation: partition selection (fixed rate {rate} ow/coll) --\n{}",
        render_table(
            &[
                "selector",
                "colls",
                "collected.KiB",
                "yield/coll.KiB",
                "left.KiB"
            ],
            &rows
        )
    )
}

/// Overwrite-semantics comparison under SAGA (oracle estimator).
pub fn semantics_report(scale: Scale) -> String {
    let db = scale.db();
    let (trace, _) = Oo7App::standard(db.params(3).unwrap(), scale.series_seed()).generate();
    let saga = db.fill_dt_max(PolicySpec::saga(0.10, EstimatorKind::Oracle));
    let rows: Vec<Vec<String>> = [
        ("non-null-old (paper)", OverwriteSemantics::NonNullOld),
        ("all stores", OverwriteSemantics::AllStores),
    ]
    .into_iter()
    .map(|(name, semantics)| {
        let mut config = db.engine_config();
        config.store.overwrite_semantics = semantics;
        let mut policy = saga.build();
        let r = run_single(&trace, &config, policy.as_mut()).expect("OO7 trace replays cleanly");
        vec![
            name.to_string(),
            r.overwrite_clock.to_string(),
            r.collection_count().to_string(),
            fmt_f(r.garbage_pct_mean.unwrap_or(f64::NAN), 2),
        ]
    })
    .collect();
    format!(
        "-- Ablation: overwrite semantics (SAGA oracle, req 10%) --\n{}",
        render_table(&["semantics", "clock", "colls", "garbage.%"], &rows)
    )
}

/// Buffer-size sensitivity under SAIO.
pub fn buffer_report(scale: Scale) -> String {
    let db = scale.db();
    let (trace, _) = Oo7App::standard(db.params(3).unwrap(), scale.series_seed()).generate();
    let base_pages = db.engine_config().store.buffer_pages;
    let rows: Vec<Vec<String>> = [base_pages / 2, base_pages, base_pages * 4]
        .into_iter()
        .filter(|&p| p >= 1)
        .map(|pages| {
            let mut config = db.engine_config();
            config.store.buffer_pages = pages;
            let mut policy = odbgc_core::SaioPolicy::with_frac(0.10);
            let r = run_single(&trace, &config, &mut policy).expect("OO7 trace replays cleanly");
            vec![
                pages.to_string(),
                r.app_io_total.to_string(),
                r.gc_io_total.to_string(),
                fmt_f(r.gc_io_pct.unwrap_or(f64::NAN), 2),
            ]
        })
        .collect();
    format!(
        "-- Ablation: buffer size (SAIO, req 10%) --\n{}",
        render_table(&["buf.pages", "app.io", "gc.io", "gc.io%"], &rows)
    )
}

/// Connection-schema comparison: how much garbage one overwrite detaches.
pub fn schema_report(scale: Scale) -> String {
    use odbgc_oo7::ConnStyle;
    let rows: Vec<Vec<String>> = [
        ("bidirectional (default)", ConnStyle::Bidirectional),
        ("forward-only", ConnStyle::Forward),
    ]
    .into_iter()
    .map(|(name, style)| {
        let mut params = scale.db().params(3).unwrap();
        params.conn_style = style;
        let (trace, chars) = Oo7App::standard(params, scale.series_seed()).generate();
        let mut policy = FixedRatePolicy::new(fixed_rate_for(scale));
        let r = run_single(&trace, &scale.db().engine_config(), &mut policy)
            .expect("OO7 trace replays cleanly");
        let gpo = if r.overwrite_clock == 0 {
            0.0
        } else {
            r.total_garbage_generated as f64 / r.overwrite_clock as f64
        };
        vec![
            name.to_string(),
            r.overwrite_clock.to_string(),
            fmt_f(r.total_garbage_generated as f64 / 1024.0, 1),
            fmt_f(gpo, 1),
            fmt_f(chars.avg_connectivity(), 2),
        ]
    })
    .collect();
    format!(
        "-- Ablation: connection schema (garbage detached per overwrite) --\n{}",
        render_table(
            &[
                "schema",
                "overwrites",
                "garbage.KiB",
                "garbage/ow.B",
                "avg.ptrs"
            ],
            &rows
        )
    )
}

/// Partition-size sensitivity under SAGA: the collection yield scales
/// with the partition, which moves the steady-state interval.
pub fn partition_report(scale: Scale) -> String {
    let db = scale.db();
    let (trace, _) = Oo7App::standard(db.params(3).unwrap(), scale.series_seed()).generate();
    let base = db.engine_config().store.pages_per_partition;
    let saga = db.fill_dt_max(PolicySpec::saga(0.10, EstimatorKind::Oracle));
    let rows: Vec<Vec<String>> = [base / 2, base, base * 2]
        .into_iter()
        .filter(|&p| p >= 1)
        .map(|pages| {
            let mut config = db.engine_config();
            config.store.pages_per_partition = pages;
            let mut policy = saga.build();
            let r =
                run_single(&trace, &config, policy.as_mut()).expect("OO7 trace replays cleanly");
            let yield_per_coll = if r.collection_count() == 0 {
                0.0
            } else {
                r.total_garbage_collected as f64 / 1024.0 / r.collection_count() as f64
            };
            vec![
                pages.to_string(),
                r.collection_count().to_string(),
                fmt_f(yield_per_coll, 1),
                fmt_f(r.garbage_pct_mean.unwrap_or(f64::NAN), 2),
            ]
        })
        .collect();
    format!(
        "-- Ablation: partition size (SAGA oracle, req 10%) --\n{}",
        render_table(
            &["part.pages", "colls", "yield/coll.KiB", "garbage.%"],
            &rows
        )
    )
}

/// SAIO history-length sweep at the extreme requested fraction, where
/// §4.1.1 says history ameliorates the non-cancelling drift errors.
pub fn saio_history_report(scale: Scale) -> String {
    use odbgc_core::{HistoryLen, SaioPolicy};
    let db = scale.db();
    let config = db.engine_config();
    let (trace, _) = Oo7App::standard(db.params(3).unwrap(), scale.series_seed()).generate();
    let requested = 50.0;
    let rows: Vec<Vec<String>> = [
        ("0", HistoryLen::Fixed(0)),
        ("1", HistoryLen::Fixed(1)),
        ("4", HistoryLen::Fixed(4)),
        ("16", HistoryLen::Fixed(16)),
        ("inf", HistoryLen::Infinite),
    ]
    .into_iter()
    .map(|(name, hist)| {
        let mut policy = SaioPolicy::new(requested / 100.0, hist);
        let r = run_single(&trace, &config, &mut policy).expect("OO7 trace replays cleanly");
        let achieved = crate::common::adaptive_gc_io_pct(&r, config.preamble_collections);
        vec![
            name.to_string(),
            fmt_f(achieved.unwrap_or(f64::NAN), 3),
            fmt_f(achieved.map(|a| a - requested).unwrap_or(f64::NAN), 3),
        ]
    })
    .collect();
    format!(
        "-- Ablation: SAIO history length at the extreme (req {requested}%) --\n{}",
        render_table(&["c_hist", "achieved.%", "drift.pt"], &rows)
    )
}

/// Renders all ablations.
pub fn report(scale: Scale) -> String {
    format!(
        "== Ablation studies ==\n{}\n{}\n{}\n{}\n{}\n{}",
        selection_report(scale),
        semantics_report(scale),
        buffer_report(scale),
        schema_report(scale),
        partition_report(scale),
        saio_history_report(scale)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_report_covers_all_policies() {
        let r = selection_report(Scale::Test);
        for name in [
            "UpdatedPointer",
            "Random",
            "RoundRobin",
            "MostGarbageOracle",
        ] {
            assert!(r.contains(name), "missing {name}");
        }
    }

    #[test]
    fn all_stores_clock_is_at_least_non_null_clock() {
        let r = semantics_report(Scale::Test);
        let clocks: Vec<u64> = r
            .lines()
            .filter(|l| l.contains("non-null-old") || l.contains("all stores"))
            .map(|l| l.split_whitespace().rev().nth(2).unwrap().parse().unwrap())
            .collect();
        assert_eq!(clocks.len(), 2);
        assert!(clocks[1] > clocks[0], "all-stores clock must be larger");
    }

    #[test]
    fn forward_schema_detaches_more_per_overwrite() {
        let r = schema_report(Scale::Test);
        let gpos: Vec<f64> = r
            .lines()
            .filter(|l| l.contains("bidirectional") || l.contains("forward-only"))
            .map(|l| l.split_whitespace().rev().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(gpos.len(), 2);
        assert!(
            gpos[1] > gpos[0],
            "forward garbage/overwrite {} must exceed bidirectional {}",
            gpos[1],
            gpos[0]
        );
    }

    #[test]
    fn partition_report_covers_three_sizes() {
        let r = partition_report(Scale::Test);
        assert!(r.lines().count() >= 5);
        assert!(r.contains("part.pages"));
    }

    #[test]
    fn saio_history_report_covers_all_lengths() {
        let r = saio_history_report(Scale::Test);
        for h in ["0", "1", "4", "16", "inf"] {
            assert!(
                r.lines().any(|l| l.trim_start().starts_with(h)),
                "missing c_hist {h}"
            );
        }
    }

    #[test]
    fn larger_buffer_reduces_app_io() {
        let r = buffer_report(Scale::Test);
        let app_ios: Vec<u64> = r
            .lines()
            .skip(3) // header + rule
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(app_ios.len() >= 2);
        assert!(
            app_ios.first().unwrap() >= app_ios.last().unwrap(),
            "app I/O should not grow with buffer size: {app_ios:?}"
        );
    }
}
