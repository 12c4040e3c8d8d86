//! Textual specs for policies, selectors, and database parameters.
//!
//! Policy specs are parsed by `odbgc-core`'s [`PolicySpec`] grammar; this
//! module adapts errors to [`CliError`] and keeps the selector and
//! database-parameter specs, which are CLI-only concerns.

use odbgc_core::{EstimatorKind, PolicySpec, RatePolicy};
use odbgc_gc::SelectorKind;
use odbgc_oo7::{ConnStyle, Oo7Params};
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

/// Builds a rate policy from a spec string (see crate docs for the
/// grammar).
pub fn build_policy(spec: &str) -> Result<Box<dyn RatePolicy + Send>, CliError> {
    Ok(parse_policy(spec)?.build())
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

/// Builds OO7 parameters from `--params`, `--conn`, `--style` values.
/// Every preset refuses a connectivity outside `1..parts-per-composite`:
/// `1..=5` for `tiny`, `1..=19` for `small-prime` and `small`.
pub fn build_params(
    params: Option<&str>,
    conn: u32,
    style: Option<&str>,
) -> Result<Oo7Params, CliError> {
    let name = params.unwrap_or("small-prime");
    let mut p = match name {
        "small-prime" => Oo7Params::small_prime(conn),
        "small" => Oo7Params::small(conn),
        "tiny" => Oo7Params {
            num_conn_per_atomic: conn,
            ..Oo7Params::tiny()
        },
        other => {
            return Err(CliError(format!(
                "unknown params {other:?} (small-prime | small | tiny)"
            )))
        }
    };
    let parts = p.num_atomic_per_comp;
    if !(1..parts).contains(&p.num_conn_per_atomic) {
        return Err(CliError(format!(
            "--conn {conn}: {name} connectivity must be in 1..={}",
            parts - 1
        )));
    }
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
            build_policy("saio:10%").unwrap().name(),
            "saio(10.0%, c_hist=0)"
        );
        assert_eq!(
            build_policy("saio:10%:hist=inf").unwrap().name(),
            "saio(10.0%, c_hist=inf)"
        );
        assert_eq!(
            build_policy("saio:10%:hist=4").unwrap().name(),
            "saio(10.0%, c_hist=4)"
        );
        assert_eq!(
            build_policy("saga:5%").unwrap().name(),
            "saga(5.0%, oracle)"
        );
        assert_eq!(
            build_policy("saga:5%:fgs-hb@0.5").unwrap().name(),
            "saga(5.0%, fgs-hb(h=0.50))"
        );
        assert_eq!(
            build_policy("saga:5%:cgs-cb").unwrap().name(),
            "saga(5.0%, cgs-cb)"
        );
        assert_eq!(build_policy("fixed:200").unwrap().name(), "fixed(200)");
        assert_eq!(
            build_policy("alloc:98304").unwrap().name(),
            "alloc-fixed(98304B)"
        );
    }

    #[test]
    fn extension_policies_build() {
        assert!(build_policy("coupled:10%:floor=5%").is_ok());
        assert!(build_policy("quiescent:idle=2000:saga:5%").is_ok());
    }

    #[test]
    fn parsed_specs_round_trip_to_canonical_strings() {
        let spec = parse_policy("saio:0.1").unwrap();
        assert_eq!(spec.to_string(), "saio:10%");
        assert_eq!(parse_policy(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn bad_policy_specs_error() {
        assert!(build_policy("saio").is_err());
        assert!(build_policy("saga:5%:psychic").is_err());
        assert!(build_policy("warp:9").is_err());
        assert!(build_policy("fixed:x").is_err());
        assert!(build_policy("saio:10%:window=4").is_err());
        assert!(build_policy("saga:5%:fgs-hb@1.5").is_err());
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
        let p = build_params(None, 3, None).unwrap();
        assert_eq!(p.num_comp_per_module, 150);
        assert_eq!(p.conn_style, ConnStyle::Bidirectional);
        let p = build_params(Some("tiny"), 5, Some("forward")).unwrap();
        assert_eq!(p.conn_style, ConnStyle::Forward);
        assert_eq!(p.num_conn_per_atomic, 5);
        // Tiny refuses what it cannot build rather than clamping it.
        for conn in [0, 6, 9] {
            let err = build_params(Some("tiny"), conn, None)
                .unwrap_err()
                .to_string();
            assert_eq!(
                err,
                format!("--conn {conn}: tiny connectivity must be in 1..=5")
            );
        }
        assert!(build_params(Some("huge"), 3, None).is_err());
        assert!(build_params(None, 3, Some("sideways")).is_err());
        for (name, conn) in [
            (None, 0),
            (None, 20),
            (Some("small"), 0),
            (Some("small"), 20),
        ] {
            let err = build_params(name, conn, None).unwrap_err().to_string();
            assert!(err.contains("must be in 1..=19"), "{name:?} {conn}: {err}");
        }
        assert_eq!(
            build_params(Some("small"), 19, None)
                .unwrap()
                .num_conn_per_atomic,
            19
        );
    }
}
