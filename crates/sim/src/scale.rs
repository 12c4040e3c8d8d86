//! The one table from a `--params` name to an OO7 database and the
//! settings that travel with it: store geometry, preamble, SAGA Δt_max.

use odbgc_core::{PolicySpec, SagaPolicy};
use odbgc_engine::EngineConfig;
use odbgc_oo7::Oo7Params;

/// An OO7 database size. The paper's settings (12-page partitions, a
/// preamble of 10, Δt ≤ 1000 overwrites) belong to Small′; tiny has its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbScale {
    /// [`Oo7Params::tiny`]: 4 composites of 6 parts.
    Tiny,
    /// [`Oo7Params::small_prime`]: the paper's Small′.
    SmallPrime,
    /// [`Oo7Params::small`]: the original OO7 Small.
    Small,
    /// [`Oo7Params::medium`]: Medium's composites on Small's assemblies.
    Medium,
}

impl DbScale {
    /// Every scale, smallest first.
    pub const ALL: [DbScale; 4] = [Self::Tiny, Self::SmallPrime, Self::Small, Self::Medium];

    /// The name `--params` takes.
    pub fn name(self) -> &'static str {
        match self {
            DbScale::Tiny => "tiny",
            DbScale::SmallPrime => "small-prime",
            DbScale::Small => "small",
            DbScale::Medium => "medium",
        }
    }

    /// Every name, smallest first: `tiny|small-prime|small|medium`.
    pub fn names() -> String {
        Self::ALL.map(Self::name).join("|")
    }

    /// The scale `name` names; anything else is refused with the list.
    pub fn parse(name: &str) -> Result<DbScale, String> {
        let known = Self::ALL.into_iter().find(|scale| scale.name() == name);
        known.ok_or_else(|| format!("unknown params {name:?} ({})", Self::names()))
    }

    /// The database at atomic-part connectivity `conn`, refused (never
    /// clamped) outside `1..parts-per-composite`: `1..=5` at tiny,
    /// `1..=19` at Small′ and Small, `1..=199` at Medium.
    pub fn params(self, conn: u32) -> Result<Oo7Params, String> {
        let mut p = match self {
            DbScale::Tiny => Oo7Params::tiny(),
            DbScale::SmallPrime => Oo7Params::small_prime(conn),
            DbScale::Small => Oo7Params::small(conn),
            DbScale::Medium => Oo7Params::medium(conn),
        };
        p.num_conn_per_atomic = conn;
        let max = p.num_atomic_per_comp - 1;
        if !(1..=max).contains(&conn) {
            let name = self.name();
            return Err(format!(
                "--conn {conn}: {name} connectivity must be in 1..={max}"
            ));
        }
        Ok(p)
    }

    /// The tiny store and a preamble of 2 at tiny, whose database fits in
    /// one paper page; the paper's configuration elsewhere.
    pub fn engine_config(self) -> EngineConfig {
        match self {
            DbScale::Tiny => EngineConfig::tiny(),
            _ => EngineConfig::default(),
        }
    }

    /// `spec` with an unset SAGA Δt_max, bare or under `quiescent`, set to
    /// the scale's: [`SagaPolicy::TINY_DT_MAX`] at tiny, whose runs see a
    /// few hundred overwrites, the paper's elsewhere. `:dtmax=` wins.
    pub fn fill_dt_max(self, mut spec: PolicySpec) -> PolicySpec {
        fn fill(spec: &mut PolicySpec, default: Option<u64>) {
            match spec {
                PolicySpec::Saga { dt_max, .. } => *dt_max = dt_max.or(default),
                PolicySpec::Quiescent { inner, .. } => fill(inner, default),
                _ => {}
            }
        }
        let default = (self == DbScale::Tiny).then_some(SagaPolicy::TINY_DT_MAX);
        fill(&mut spec, default);
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_round_trips() {
        for scale in DbScale::ALL {
            assert_eq!(DbScale::parse(scale.name()), Ok(scale));
        }
        assert_eq!(DbScale::names(), "tiny|small-prime|small|medium");
        for typo in ["huge", "Small", "", "small_prime"] {
            assert_eq!(
                DbScale::parse(typo).unwrap_err(),
                format!("unknown params {typo:?} (tiny|small-prime|small|medium)")
            );
        }
    }

    #[test]
    fn connectivity_flows_through() {
        assert_eq!(DbScale::SmallPrime.params(6), Ok(Oo7Params::small_prime(6)));
        assert_eq!(DbScale::Small.params(19), Ok(Oo7Params::small(19)));
        assert_eq!(DbScale::Medium.params(3), Ok(Oo7Params::medium(3)));
        let tiny = DbScale::Tiny.params(5).unwrap();
        assert_eq!(tiny.num_conn_per_atomic, 5);
        tiny.validate();
    }

    #[test]
    fn out_of_range_connectivity_is_refused_not_clamped() {
        for (scale, conn, max) in [
            (DbScale::Tiny, 0, 5),
            (DbScale::Tiny, 6, 5),
            (DbScale::Tiny, 9, 5),
            (DbScale::SmallPrime, 0, 19),
            (DbScale::SmallPrime, 20, 19),
            (DbScale::Small, 0, 19),
            (DbScale::Small, 20, 19),
            (DbScale::Medium, 0, 199),
            (DbScale::Medium, 200, 199),
        ] {
            assert_eq!(
                scale.params(conn).unwrap_err(),
                format!(
                    "--conn {conn}: {} connectivity must be in 1..={max}",
                    scale.name()
                )
            );
        }
    }

    #[test]
    fn engine_config_is_the_tiny_one_only_at_tiny() {
        let tiny = DbScale::Tiny.engine_config();
        assert_eq!(tiny.store, EngineConfig::tiny().store);
        assert_eq!(tiny.preamble_collections, 2);
        for scale in [DbScale::SmallPrime, DbScale::Small, DbScale::Medium] {
            let config = scale.engine_config();
            assert_eq!(config.store, EngineConfig::default().store);
            assert_eq!(config.preamble_collections, 10);
        }
    }

    #[test]
    fn unset_dt_max_takes_the_scale_default_and_explicit_wins() {
        let spec = |text: &str| text.parse::<PolicySpec>().unwrap();
        let tiny = SagaPolicy::TINY_DT_MAX;
        for (scale, given, filled) in [
            (
                DbScale::Tiny,
                "saga:10%:fgs-hb",
                format!("saga:10%:fgs-hb:dtmax={tiny}"),
            ),
            (
                DbScale::Tiny,
                "quiescent:idle=50:saga:10%",
                format!("quiescent:idle=50:saga:10%:dtmax={tiny}"),
            ),
            (
                DbScale::Tiny,
                "saga:10%:dtmax=1000",
                "saga:10%:dtmax=1000".into(),
            ),
            (DbScale::Tiny, "saio:10%", "saio:10%".into()),
            (DbScale::SmallPrime, "saga:10%", "saga:10%".into()),
            (
                DbScale::Medium,
                "quiescent:idle=50:saga:10%",
                "quiescent:idle=50:saga:10%".into(),
            ),
        ] {
            assert_eq!(
                scale.fill_dt_max(spec(given)),
                spec(&filled),
                "{scale:?} {given}"
            );
        }
    }
}
