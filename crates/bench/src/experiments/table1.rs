//! Table 1 + Figure 3: OO7 database parameters and measured structure.
//!
//! Prints the Small′ parameter column of Table 1 and, for each
//! connectivity the paper measures (3, 6, 9), the generated database's
//! census: object counts, bytes, average object size (paper: ≈ 133 B) and
//! average connectivity (paper: ≈ 4 pointers per object), plus the
//! database size range (paper: ≈ 3.7–7.9 MB of allocated storage over
//! the application's lifetime).

use odbgc_core::FixedRatePolicy;
use odbgc_oo7::params::NUM_MODULES;
use odbgc_oo7::{Kind, Oo7App};
use odbgc_sim::report::{fmt_f, render_table};
use odbgc_sim::Simulator;

use crate::scale::Scale;

/// Renders the report.
pub fn report(scale: Scale) -> String {
    let p = scale.db().params(3).unwrap();
    let param_rows = vec![
        vec!["NumAtomicPerComp".into(), p.num_atomic_per_comp.to_string()],
        vec!["NumConnPerAtomic".into(), "3/6/9".into()],
        vec!["DocumentSize (bytes)".into(), p.document_size.to_string()],
        vec![
            "ManualSize (kbytes)".into(),
            (p.manual_size / 1024).to_string(),
        ],
        vec!["NumCompPerModule".into(), p.num_comp_per_module.to_string()],
        vec!["NumAssmPerAssm".into(), p.num_assm_per_assm.to_string()],
        vec!["NumAssmLevels".into(), p.num_assm_levels.to_string()],
        vec!["NumCompPerAssm".into(), p.num_comp_per_assm.to_string()],
        vec!["NumModules".into(), NUM_MODULES.to_string()],
    ];

    let connectivities: Vec<u32> = match scale {
        Scale::Test => vec![2, 3],
        _ => vec![3, 6, 9],
    };
    let mut census_rows = Vec::new();
    for conn in connectivities {
        let params = scale.db().params(conn).unwrap();
        let app = Oo7App::standard(params, scale.series_seed());
        let (trace, chars) = app.generate();
        // Allocated-storage footprint over the run (DBSize at the end),
        // measured with a collector running at a moderate fixed rate.
        let mut policy = FixedRatePolicy::new(200);
        let result = Simulator::new(scale.db().engine_config())
            .replay(&trace, &mut policy, odbgc_sim::ReplayOptions::new())
            .expect("trace replays");
        census_rows.push(vec![
            conn.to_string(),
            chars.total_objects().to_string(),
            chars.counts[&Kind::AtomicPart].to_string(),
            chars.counts[&Kind::Connection].to_string(),
            fmt_f(chars.avg_object_size(), 1),
            fmt_f(chars.avg_connectivity(), 2),
            fmt_f(chars.total_bytes() as f64 / 1_048_576.0, 2),
            fmt_f(result.final_db_size as f64 / 1_048_576.0, 2),
        ]);
    }
    format!(
        "== Table 1: OO7 Small' parameters ==\n{}\n\
         == Figure 3 / §3.3: measured database structure ==\n\
         (initial live census; DBSize = allocated partitions at end of run)\n{}",
        render_table(&["parameter", "Small'"], &param_rows),
        render_table(
            &[
                "conn",
                "objects",
                "parts",
                "conns",
                "avg.size",
                "avg.ptrs",
                "live.MB",
                "dbsize.MB"
            ],
            &census_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_paper_parameters() {
        let r = report(Scale::Test);
        assert!(r.contains("NumAtomicPerComp"));
        assert!(r.contains("NumModules"));
        assert!(r.contains("avg.size"));
    }
}
