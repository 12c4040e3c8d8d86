//! Experiment scale control.

use odbgc_sim::DbScale;

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

    /// The database the scale's figures run on: Small′ at Full and
    /// Quick, the tiny one at Test, each with its store geometry,
    /// preamble and SAGA Δt_max.
    pub fn db(self) -> DbScale {
        match self {
            Scale::Full | Scale::Quick => DbScale::SmallPrime,
            Scale::Test => DbScale::Tiny,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_protocol() {
        assert_eq!(Scale::Full.seeds().len(), 10);
        assert_eq!(Scale::Full.db(), DbScale::SmallPrime);
        assert_eq!(Scale::Quick.db(), DbScale::SmallPrime);
    }

    #[test]
    fn test_scale_is_miniature() {
        assert_eq!(Scale::Test.seeds(), vec![1]);
        assert_eq!(Scale::Test.db(), DbScale::Tiny);
        // A connectivity the tiny database cannot build is refused, not
        // clamped to one it can.
        assert_eq!(
            Scale::Test.db().params(9).unwrap_err(),
            "--conn 9: tiny connectivity must be in 1..=5"
        );
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
}
