//! Experiment scale control.

use odbgc_core::{EstimatorKind, PolicySpec, SagaPolicy};
use odbgc_engine::EngineConfig;
use odbgc_oo7::Oo7Params;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's protocol: Small′ database, 10 seeds, 10-collection
    /// preamble.
    #[default]
    Full,
    /// Small′ database, 3 seeds — same shapes, faster.
    Quick,
    /// Miniature database, 1 seed — for smoke tests only.
    Test,
}

impl Scale {
    /// Reads `ODBGC_SCALE` through [`Scale::parse`].
    pub fn from_env() -> Result<Scale, String> {
        let value = std::env::var_os("ODBGC_SCALE");
        Scale::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// The scale a value of `ODBGC_SCALE` names: `full`, `quick` or
    /// `test`, and Full when the variable is unset (`None`). Any other
    /// value is refused, so a mistyped scale never silently runs the
    /// full protocol.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("full") => Ok(Scale::Full),
            Some("quick") => Ok(Scale::Quick),
            Some("test") => Ok(Scale::Test),
            Some(other) => Err(format!(
                "ODBGC_SCALE={other:?} is not a scale; use full, quick or test"
            )),
        }
    }

    /// The seeds to run (the paper uses 10 runs per data point).
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Full => (1..=10).collect(),
            Scale::Quick => vec![1, 2, 3],
            Scale::Test => vec![1],
        }
    }

    /// The seed used for single-run time-series figures.
    pub fn series_seed(self) -> u64 {
        1
    }

    /// Database parameters at a given connectivity.
    pub fn params(self, connectivity: u32) -> Oo7Params {
        match self {
            Scale::Full | Scale::Quick => Oo7Params::small_prime(connectivity),
            Scale::Test => {
                let mut p = Oo7Params::tiny();
                // Tiny composites have 6 parts; clamp connectivity below.
                p.num_conn_per_atomic = connectivity.min(p.num_atomic_per_comp - 2);
                p
            }
        }
    }

    /// Simulation configuration (paper store geometry; shorter preamble at
    /// test scale where runs have few collections).
    pub fn engine_config(self) -> EngineConfig {
        match self {
            Scale::Full | Scale::Quick => EngineConfig::default(),
            Scale::Test => EngineConfig::tiny(),
        }
    }

    /// Preamble used for post-hoc windowed statistics.
    pub fn preamble(self) -> u64 {
        self.engine_config().preamble_collections
    }

    /// SAGA at a requested garbage fraction. Full/Quick use the paper's
    /// clamps (Δt ∈ [2, 1000] overwrites); the miniature test database
    /// produces only a few hundred overwrites in total, so its Δt_max
    /// shrinks to [`SagaPolicy::TINY_DT_MAX`].
    pub fn saga_spec(self, frac: f64, estimator: EstimatorKind) -> PolicySpec {
        let dt_max = (self == Scale::Test).then_some(SagaPolicy::TINY_DT_MAX);
        PolicySpec::Saga {
            frac,
            estimator,
            dt_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_protocol() {
        assert_eq!(Scale::Full.seeds().len(), 10);
        assert_eq!(Scale::Full.preamble(), 10);
        assert_eq!(Scale::Full.params(3).num_comp_per_module, 150);
    }

    #[test]
    fn test_scale_is_miniature() {
        assert_eq!(Scale::Test.seeds(), vec![1]);
        let p = Scale::Test.params(9);
        assert!(p.num_conn_per_atomic < p.num_atomic_per_comp);
        p.validate();
    }

    #[test]
    fn odbgc_scale_takes_three_values_and_refuses_the_rest() {
        assert_eq!(Scale::parse(None), Ok(Scale::Full));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("test")), Ok(Scale::Test));
        for typo in ["Quick", "tset", "", "full "] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(
                err.contains("ODBGC_SCALE") && err.contains("full, quick or test"),
                "{typo:?}: {err}"
            );
        }
    }

    #[test]
    fn connectivity_flows_through() {
        assert_eq!(Scale::Full.params(6).num_conn_per_atomic, 6);
        assert_eq!(Scale::Quick.params(9).num_conn_per_atomic, 9);
    }
}
