//! Property tests for the synthetic workloads and the text rendering.

use proptest::prelude::*;

use odbgc_trace::codec::encode;
use odbgc_trace::synthetic::{churn, ChurnConfig};

proptest! {
    #[test]
    fn churn_is_deterministic(seed in any::<u64>()) {
        let cfg = ChurnConfig::default();
        prop_assert_eq!(churn(&cfg, seed), churn(&cfg, seed));
    }

    #[test]
    fn encoded_form_is_line_per_event_plus_header(seed in any::<u64>()) {
        let cfg = ChurnConfig { steps: 50, ..ChurnConfig::default() };
        let trace = churn(&cfg, seed);
        let text = encode(&trace);
        // Header + (optional phases line) + one line per event.
        let expected = 1 + trace.len() + usize::from(!trace.phase_names().is_empty());
        prop_assert_eq!(text.lines().count(), expected);
    }
}
