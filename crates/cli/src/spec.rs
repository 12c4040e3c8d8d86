//! Textual specs for policies, selectors, and database parameters.
//!
//! Policy specs are parsed by `odbgc-core`'s [`PolicySpec`] grammar; this
//! module adapts errors to [`CliError`] and keeps the selector, store
//! and connection-style specs, which are CLI-only concerns; database
//! scales are `odbgc_sim`'s [`DbScale`].

use odbgc_core::{EstimatorKind, PolicySpec};
use odbgc_gc::SelectorKind;
use odbgc_oo7::{ConnStyle, Oo7Params};
use odbgc_sim::DbScale;
use odbgc_store::StoreConfig;

use crate::CliError;

/// Parses a policy spec string into its data form.
pub fn parse_policy(spec: &str) -> Result<PolicySpec, CliError> {
    spec.parse::<PolicySpec>().map_err(|e| CliError(e.0))
}

/// Parses an estimator token: `oracle`, `cgs-cb`, `fgs-hb`, `fgs-hb@0.5`.
pub fn parse_estimator(tok: &str) -> Result<EstimatorKind, CliError> {
    odbgc_core::spec::parse_estimator(tok).map_err(|e| CliError(e.0))
}

/// Parses a partition-selector name.
pub fn parse_selector(tok: &str) -> Result<SelectorKind, CliError> {
    match tok {
        "updated-pointer" => Ok(SelectorKind::UpdatedPointer),
        "random" => Ok(SelectorKind::Random),
        "round-robin" => Ok(SelectorKind::RoundRobin),
        "most-garbage" => Ok(SelectorKind::MostGarbageOracle),
        other => Err(CliError(format!("unknown selector {other:?}"))),
    }
}

/// The store geometry a `--store paper|tiny` flag names, `default`
/// when the flag is absent.
pub fn store_config(flag: Option<&str>, default: &str) -> Result<StoreConfig, CliError> {
    match flag.unwrap_or(default) {
        "paper" => Ok(StoreConfig::default()),
        "tiny" => Ok(StoreConfig::tiny()),
        other => Err(CliError(format!(
            "unknown store geometry {other:?} (paper | tiny)"
        ))),
    }
}

/// The database scale a `--params` flag names, Small′ when it is absent.
pub fn db_scale(flag: Option<&str>) -> Result<DbScale, CliError> {
    flag.map_or(Ok(DbScale::SmallPrime), DbScale::parse)
        .map_err(CliError)
}

/// Builds OO7 parameters from a `--params` scale and the `--conn` and
/// `--style` values; [`DbScale::params`] refuses a connectivity the scale
/// cannot build.
pub fn build_params(db: DbScale, conn: u32, style: Option<&str>) -> Result<Oo7Params, CliError> {
    let mut p = db.params(conn).map_err(CliError)?;
    p.conn_style = match style.unwrap_or("bidir") {
        "bidir" | "bidirectional" => ConnStyle::Bidirectional,
        "forward" => ConnStyle::Forward,
        other => return Err(CliError(format!("unknown style {other:?}"))),
    };
    p.validate();
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_specs_build_and_name_themselves() {
        assert_eq!(
            parse_policy("saio:10%").unwrap().build().name(),
            "saio(10.0%, c_hist=0)"
        );
        assert_eq!(
            parse_policy("saio:10%:hist=inf").unwrap().build().name(),
            "saio(10.0%, c_hist=inf)"
        );
        assert_eq!(
            parse_policy("saio:10%:hist=4").unwrap().build().name(),
            "saio(10.0%, c_hist=4)"
        );
        assert_eq!(
            parse_policy("saga:5%").unwrap().build().name(),
            "saga(5.0%, oracle)"
        );
        assert_eq!(
            parse_policy("saga:5%:fgs-hb@0.5").unwrap().build().name(),
            "saga(5.0%, fgs-hb(h=0.50))"
        );
        assert_eq!(
            parse_policy("saga:5%:cgs-cb").unwrap().build().name(),
            "saga(5.0%, cgs-cb)"
        );
        assert_eq!(
            parse_policy("fixed:200").unwrap().build().name(),
            "fixed(200)"
        );
        assert_eq!(
            parse_policy("alloc:98304").unwrap().build().name(),
            "alloc-fixed(98304B)"
        );
    }

    #[test]
    fn extension_policies_build() {
        parse_policy("coupled:10%:floor=5%").unwrap().build();
        parse_policy("quiescent:idle=2000:saga:5%").unwrap().build();
    }

    #[test]
    fn parsed_specs_round_trip_to_canonical_strings() {
        let spec = parse_policy("saio:0.1").unwrap();
        assert_eq!(spec.to_string(), "saio:10%");
        assert_eq!(parse_policy(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn bad_policy_specs_error() {
        assert!(parse_policy("saio").is_err());
        assert!(parse_policy("saga:5%:psychic").is_err());
        assert!(parse_policy("warp:9").is_err());
        assert!(parse_policy("fixed:x").is_err());
        assert!(parse_policy("saio:10%:window=4").is_err());
        assert!(parse_policy("saga:5%:fgs-hb@1.5").is_err());
    }

    #[test]
    fn selectors_parse() {
        assert_eq!(
            parse_selector("updated-pointer").unwrap(),
            SelectorKind::UpdatedPointer
        );
        assert_eq!(parse_selector("random").unwrap(), SelectorKind::Random);
        assert!(parse_selector("psychic").is_err());
    }

    #[test]
    fn store_geometries_parse_with_a_per_command_default() {
        assert_eq!(store_config(None, "tiny").unwrap(), StoreConfig::tiny());
        assert_eq!(store_config(None, "paper").unwrap(), StoreConfig::default());
        assert_eq!(
            store_config(Some("paper"), "tiny").unwrap(),
            StoreConfig::default()
        );
        let err = store_config(Some("huge"), "paper").unwrap_err();
        assert_eq!(err.0, "unknown store geometry \"huge\" (paper | tiny)");
    }

    #[test]
    fn params_build() {
        let p = build_params(db_scale(None).unwrap(), 3, None).unwrap();
        assert_eq!(p, Oo7Params::small_prime(3));
        assert_eq!(p.conn_style, ConnStyle::Bidirectional);
        let p = build_params(DbScale::Tiny, 5, Some("forward")).unwrap();
        assert_eq!(p.conn_style, ConnStyle::Forward);
        assert_eq!(p.num_conn_per_atomic, 5);
        assert_eq!(db_scale(Some("medium")).unwrap(), DbScale::Medium);
        assert_eq!(
            db_scale(Some("huge")).unwrap_err().0,
            "unknown params \"huge\" (tiny|small-prime|small|medium)"
        );
        assert_eq!(
            build_params(DbScale::Tiny, 9, None).unwrap_err().0,
            "--conn 9: tiny connectivity must be in 1..=5"
        );
        let err = build_params(DbScale::SmallPrime, 3, Some("sideways")).unwrap_err();
        assert_eq!(err.0, "unknown style \"sideways\"");
    }
}
