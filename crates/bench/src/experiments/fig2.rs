//! Figure 2: the phases of the OO7 test application.
//!
//! The original is a diagram; the reproducible artifact is a per-phase
//! event census of the generated trace, which demonstrates the documented
//! behavior: GenDB only creates, the reorganizations mix deletion
//! (overwrites) with reinsertion (creations), and Traverse is read-only.

use odbgc_oo7::Oo7App;
use odbgc_sim::report::render_table;
use odbgc_trace::EventKind;

use crate::scale::Scale;

/// Renders the per-phase census.
pub fn report(scale: Scale) -> String {
    let (trace, _) = Oo7App::standard(scale.params(3), scale.series_seed()).generate();
    let stats = trace.stats();
    let rows: Vec<Vec<String>> = stats
        .by_phase
        .iter()
        .map(|(name, counts)| {
            let get = |k: EventKind| counts.get(&k).copied().unwrap_or(0).to_string();
            vec![
                name.clone(),
                get(EventKind::Create),
                get(EventKind::SlotWrite),
                get(EventKind::Access),
            ]
        })
        .collect();
    format!(
        "== Figure 2: application phases (event census) ==\n{}",
        render_table(&["phase", "creations", "slot writes", "accesses"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_shows_expected_phase_behavior() {
        let r = report(Scale::Test);
        assert!(r.contains("GenDB"));
        assert!(r.contains("Reorg1"));
        assert!(r.contains("Traverse"));
        assert!(r.contains("Reorg2"));
        // Traverse row has zero creations and slot writes.
        let traverse_line = r
            .lines()
            .find(|l| l.contains("Traverse"))
            .expect("traverse row");
        let cells: Vec<&str> = traverse_line.split_whitespace().collect();
        assert_eq!(cells[1], "0");
        assert_eq!(cells[2], "0");
        assert_ne!(cells[3], "0");
    }
}
