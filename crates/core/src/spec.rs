//! Declarative policy specifications.
//!
//! A [`PolicySpec`] is the data form of a rate policy: a plain value that
//! can be parsed from a CLI spec string, printed back canonically, cloned
//! into every cell of an experiment grid, compared, and finally
//! instantiated with [`PolicySpec::build`]. Experiment drivers pass specs
//! around instead of `Box<dyn RatePolicy>` factory closures, so a plan is
//! inspectable and serialisable rather than opaque.
//!
//! # Grammar
//!
//! ```text
//! fixed:<rate>                      overwrites between collections
//! alloc:<bytes>                     allocated bytes between collections
//! saio:<pct>[:hist=<n|inf>]         GC share of I/O, optional c_hist
//! saga:<pct>[:<estimator>][:dtmax=<n>]
//!                                   garbage share of DB; estimator is
//!                                   oracle | cgs-cb | fgs-hb[@h]
//! coupled:<pct>:floor=<pct>[:stretch=<x>]
//!                                   SAIO stretched when garbage < floor
//! quiescent:idle=<n>:<inner spec>   collect after n idle app I/Os
//! ```
//!
//! Percentages accept `10%`, `10`, or `0.1` (values ≥ 1 are read as
//! percent, values < 1 as the fraction itself). [`Display`] prints the
//! canonical form, and `spec.to_string().parse()` always returns the same
//! spec (round-trip property, tested in `tests/spec_proptest.rs`).
//!
//! [`Display`]: std::fmt::Display

use std::fmt;
use std::str::FromStr;

use crate::estimator::EstimatorKind;
use crate::extensions::coupled::CoupledSaioPolicy;
use crate::extensions::opportunistic::OpportunisticPolicy;
use crate::fixed::{AllocationRatePolicy, FixedRatePolicy};
use crate::policy::{HistoryLen, RatePolicy};
use crate::saga::SagaPolicy;
use crate::saio::SaioPolicy;

/// A malformed or out-of-range policy spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// A rate policy as data: everything needed to construct the policy, and
/// nothing else.
///
/// Specs are the unit of an experiment grid — each cell of an
/// `ExperimentPlan` holds one — and double as report labels via
/// [`Display`](fmt::Display).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Collect every `rate` pointer overwrites (§2.1 baseline).
    Fixed {
        /// Overwrites between collections (≥ 1).
        rate: u64,
    },
    /// Collect every `bytes` allocated bytes (§2.1 baseline).
    Allocation {
        /// Allocated bytes between collections (≥ 1).
        bytes: u64,
    },
    /// SAIO: hold GC I/O at `frac` of total I/O (§2.2).
    Saio {
        /// Requested collector share of total I/O, in `(0, 1]`.
        frac: f64,
        /// The `c_hist` averaging window.
        history: HistoryLen,
    },
    /// SAGA: hold garbage at `frac` of database size (§2.3).
    Saga {
        /// Requested garbage share of database size, in `[0, 1)`.
        frac: f64,
        /// How `ActGarb` is estimated (§2.4).
        estimator: EstimatorKind,
        /// Override of the `Δt` upper clamp; `None` keeps the paper's
        /// [`SagaPolicy::PAPER_DT_MAX`] overwrites. Small traces use a
        /// tighter clamp.
        dt_max: Option<u64>,
    },
    /// Coupled SAIO × SAGA cost-effectiveness policy (§5).
    Coupled {
        /// Requested collector share of total I/O, in `(0, 1]`.
        io_frac: f64,
        /// Below this estimated-garbage fraction, collections are judged
        /// cost-ineffective; in `[0, 1)`.
        garbage_floor: f64,
        /// Interval stretch factor applied under the floor (finite, > 1;
        /// [`CoupledSaioPolicy::DEFAULT_STRETCH`] unless the spec names one).
        stretch: f64,
    },
    /// Opportunistic quiescence wrapper around another policy (§5).
    Quiescent {
        /// Application I/Os without an inner firing after which a
        /// collection runs opportunistically (≥ 1).
        idle: u64,
        /// The wrapped policy.
        inner: Box<PolicySpec>,
    },
}

impl PolicySpec {
    /// A fixed overwrite-rate policy.
    pub fn fixed(rate: u64) -> Self {
        PolicySpec::Fixed { rate }
    }

    /// A fixed allocation-rate policy.
    pub fn alloc(bytes: u64) -> Self {
        PolicySpec::Allocation { bytes }
    }

    /// SAIO with the paper's default (no history).
    pub fn saio(frac: f64) -> Self {
        PolicySpec::Saio {
            frac,
            history: HistoryLen::default(),
        }
    }

    /// SAIO with an explicit `c_hist` window.
    pub fn saio_hist(frac: f64, history: HistoryLen) -> Self {
        PolicySpec::Saio { frac, history }
    }

    /// SAGA with the given estimator and the paper's clamps.
    pub fn saga(frac: f64, estimator: EstimatorKind) -> Self {
        PolicySpec::Saga {
            frac,
            estimator,
            dt_max: None,
        }
    }

    /// SAGA with a tightened `Δt_max` clamp (for small traces).
    pub fn saga_dt_max(frac: f64, estimator: EstimatorKind, dt_max: u64) -> Self {
        PolicySpec::Saga {
            frac,
            estimator,
            dt_max: Some(dt_max),
        }
    }

    /// Instantiates the policy this spec describes.
    ///
    /// Specs constructed through [`FromStr`] are already validated; specs
    /// built in code with out-of-range values panic here, exactly like
    /// constructing the underlying policy directly.
    pub fn build(&self) -> Box<dyn RatePolicy + Send> {
        match self {
            PolicySpec::Fixed { rate } => Box::new(FixedRatePolicy::new(*rate)),
            PolicySpec::Allocation { bytes } => Box::new(AllocationRatePolicy::new(*bytes)),
            PolicySpec::Saio { frac, history } => Box::new(SaioPolicy::new(*frac, *history)),
            PolicySpec::Saga {
                frac,
                estimator,
                dt_max,
            } => Box::new(SagaPolicy::new(*frac, *dt_max, *estimator)),
            PolicySpec::Coupled {
                io_frac,
                garbage_floor,
                stretch,
            } => Box::new(CoupledSaioPolicy::new(*io_frac, *garbage_floor, *stretch)),
            PolicySpec::Quiescent { idle, inner } => {
                Box::new(OpportunisticPolicy::new(inner.build(), *idle))
            }
        }
    }
}

/// Renders a fraction the way specs write it: integral percents as
/// `10%`, everything else as the bare fraction (both forms re-parse to
/// the identical `f64`).
fn fmt_fraction(frac: f64) -> String {
    let pct = (frac * 100.0).round();
    if pct >= 1.0 && pct / 100.0 == frac {
        format!("{pct}%")
    } else {
        format!("{frac}")
    }
}

/// A percentage token: `10%`, `10`, or `0.1` — values ≥ 1 (or with a `%`
/// suffix) are percent, values < 1 are the fraction itself.
pub fn parse_fraction(tok: &str) -> Result<f64, SpecError> {
    let raw = tok.strip_suffix('%').unwrap_or(tok);
    let v: f64 = match raw.parse() {
        Ok(v) => v,
        Err(_) => return err(format!("bad percentage {tok:?}")),
    };
    let frac = if tok.ends_with('%') || v >= 1.0 {
        v / 100.0
    } else {
        v
    };
    if !(0.0..1.0).contains(&frac) && frac != 1.0 {
        return err(format!("percentage {tok:?} out of range"));
    }
    Ok(frac)
}

/// Parses an estimator token: `oracle`, `cgs-cb`, `fgs-hb`, `fgs-hb@0.5`.
pub fn parse_estimator(tok: &str) -> Result<EstimatorKind, SpecError> {
    if tok == "oracle" {
        return Ok(EstimatorKind::Oracle);
    }
    if tok == "cgs-cb" {
        return Ok(EstimatorKind::CgsCb);
    }
    if let Some(rest) = tok.strip_prefix("fgs-hb") {
        let h = match rest.strip_prefix('@') {
            None if rest.is_empty() => crate::estimators::fgs_hb::FgsHb::PAPER_H,
            Some(h) => match h.parse() {
                Ok(h) => h,
                Err(_) => return err(format!("bad history factor in {tok:?}")),
            },
            _ => return err(format!("bad estimator {tok:?}")),
        };
        if !(0.0..=1.0).contains(&h) {
            return err(format!("history factor {h} out of [0,1]"));
        }
        return Ok(EstimatorKind::FgsHb { h });
    }
    err(format!(
        "unknown estimator {tok:?} (oracle | cgs-cb | fgs-hb[@h])"
    ))
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Fixed { rate } => write!(f, "fixed:{rate}"),
            PolicySpec::Allocation { bytes } => write!(f, "alloc:{bytes}"),
            PolicySpec::Saio { frac, history } => {
                write!(f, "saio:{}", fmt_fraction(*frac))?;
                match history {
                    HistoryLen::Fixed(0) => Ok(()),
                    HistoryLen::Fixed(n) => write!(f, ":hist={n}"),
                    HistoryLen::Infinite => write!(f, ":hist=inf"),
                }
            }
            PolicySpec::Saga {
                frac,
                estimator,
                dt_max,
            } => {
                write!(f, "saga:{}", fmt_fraction(*frac))?;
                match estimator {
                    EstimatorKind::Oracle => {}
                    EstimatorKind::CgsCb => write!(f, ":cgs-cb")?,
                    EstimatorKind::FgsHb { h } => write!(f, ":fgs-hb@{h}")?,
                }
                if let Some(m) = dt_max {
                    write!(f, ":dtmax={m}")?;
                }
                Ok(())
            }
            PolicySpec::Coupled {
                io_frac,
                garbage_floor,
                stretch,
            } => {
                write!(
                    f,
                    "coupled:{}:floor={}",
                    fmt_fraction(*io_frac),
                    fmt_fraction(*garbage_floor)
                )?;
                if *stretch != CoupledSaioPolicy::DEFAULT_STRETCH {
                    write!(f, ":stretch={stretch}")?;
                }
                Ok(())
            }
            PolicySpec::Quiescent { idle, inner } => {
                write!(f, "quiescent:idle={idle}:{inner}")
            }
        }
    }
}

impl FromStr for PolicySpec {
    type Err = SpecError;

    fn from_str(spec: &str) -> Result<Self, SpecError> {
        let (head, rest) = match spec.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (spec, None),
        };
        match head {
            "fixed" => {
                let rate: u64 = match rest.and_then(|t| t.parse().ok()) {
                    Some(r) => r,
                    None => return err("fixed needs a rate: fixed:200"),
                };
                if rate == 0 {
                    return err("fixed rate must be >= 1");
                }
                Ok(PolicySpec::Fixed { rate })
            }
            "alloc" => {
                let bytes: u64 = match rest.and_then(|t| t.parse().ok()) {
                    Some(b) => b,
                    None => return err("alloc needs bytes: alloc:98304"),
                };
                if bytes == 0 {
                    return err("alloc bytes must be >= 1");
                }
                Ok(PolicySpec::Allocation { bytes })
            }
            "saio" => {
                let mut parts = match rest {
                    Some(r) => r.split(':'),
                    None => return err("saio needs a percentage: saio:10%"),
                };
                let frac = parse_fraction(parts.next().unwrap_or_default())?;
                if frac <= 0.0 {
                    return err("SAIO fraction must be > 0");
                }
                let mut history = HistoryLen::default();
                if let Some(opt) = parts.next() {
                    let hist = match opt.strip_prefix("hist=") {
                        Some(h) => h,
                        None => return err(format!("bad saio option {opt:?}")),
                    };
                    history = if hist == "inf" {
                        HistoryLen::Infinite
                    } else {
                        match hist.parse() {
                            Ok(n) => HistoryLen::Fixed(n),
                            Err(_) => return err(format!("bad history length {hist:?}")),
                        }
                    };
                }
                if let Some(extra) = parts.next() {
                    return err(format!("unexpected saio option {extra:?}"));
                }
                Ok(PolicySpec::Saio { frac, history })
            }
            "saga" => {
                let mut parts = match rest {
                    Some(r) => r.split(':').peekable(),
                    None => return err("saga needs a percentage: saga:5%"),
                };
                let frac = parse_fraction(parts.next().unwrap_or_default())?;
                if frac >= 1.0 {
                    return err("SAGA fraction must be < 1");
                }
                let estimator = match parts.peek() {
                    Some(tok) if !tok.starts_with("dtmax=") => {
                        let tok = parts.next().unwrap();
                        parse_estimator(tok)?
                    }
                    _ => EstimatorKind::Oracle,
                };
                let mut dt_max = None;
                if let Some(opt) = parts.next() {
                    let m = match opt.strip_prefix("dtmax=").and_then(|m| m.parse().ok()) {
                        Some(m) => m,
                        None => return err(format!("bad saga option {opt:?}")),
                    };
                    if m < SagaPolicy::DT_MIN {
                        return err(format!("dtmax must be >= {}", SagaPolicy::DT_MIN));
                    }
                    dt_max = Some(m);
                }
                if let Some(extra) = parts.next() {
                    return err(format!("unexpected saga option {extra:?}"));
                }
                Ok(PolicySpec::Saga {
                    frac,
                    estimator,
                    dt_max,
                })
            }
            "coupled" => {
                let mut parts = match rest {
                    Some(r) => r.split(':'),
                    None => return err("coupled needs percentages: coupled:10%:floor=5%"),
                };
                let io_frac = parse_fraction(parts.next().unwrap_or_default())?;
                if io_frac <= 0.0 {
                    return err("coupled I/O fraction must be > 0");
                }
                let floor_tok = match parts.next().and_then(|t| t.strip_prefix("floor=")) {
                    Some(t) => t,
                    None => return err("coupled needs floor=<pct>: coupled:10%:floor=5%"),
                };
                let garbage_floor = parse_fraction(floor_tok)?;
                if garbage_floor >= 1.0 {
                    return err("coupled floor must be < 1");
                }
                let mut stretch = CoupledSaioPolicy::DEFAULT_STRETCH;
                if let Some(opt) = parts.next() {
                    let tok = match opt.strip_prefix("stretch=") {
                        Some(t) => t,
                        None => return err(format!("bad coupled option {opt:?}")),
                    };
                    stretch = match tok.parse::<f64>() {
                        Ok(s) if s.is_finite() && s > 1.0 => s,
                        _ => return err(format!("stretch {tok:?} must be a finite number > 1")),
                    };
                }
                if let Some(extra) = parts.next() {
                    return err(format!("unexpected coupled option {extra:?}"));
                }
                Ok(PolicySpec::Coupled {
                    io_frac,
                    garbage_floor,
                    stretch,
                })
            }
            "quiescent" => {
                let rest = match rest {
                    Some(r) => r,
                    None => return err("quiescent needs idle=<n>:<inner spec>"),
                };
                let (idle_tok, inner_spec) = match rest.split_once(':') {
                    Some(pair) => pair,
                    None => return err("quiescent needs an inner spec after idle=<n>"),
                };
                let idle: u64 = match idle_tok.strip_prefix("idle=").and_then(|n| n.parse().ok()) {
                    Some(n) => n,
                    None => return err(format!("bad quiescent option {idle_tok:?}")),
                };
                if idle == 0 {
                    return err("idle must be >= 1");
                }
                let inner = inner_spec.parse::<PolicySpec>()?;
                Ok(PolicySpec::Quiescent {
                    idle,
                    inner: Box::new(inner),
                })
            }
            other => err(format!(
                "unknown policy {other:?} (saio | saga | fixed | alloc | coupled | quiescent)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_forms() {
        assert_eq!(parse_fraction("10%").unwrap(), 0.10);
        assert_eq!(parse_fraction("10").unwrap(), 0.10);
        assert_eq!(parse_fraction("0.1").unwrap(), 0.10);
        assert!(parse_fraction("x").is_err());
        assert!(parse_fraction("150%").is_err());
    }

    #[test]
    fn specs_build_the_named_policies() {
        // Policy names appear in reports and telemetry: one spec per
        // variant pins them byte for byte.
        for (spec, name) in [
            ("saio:10%", "saio(10.0%, c_hist=0)"),
            ("saio:10%:hist=0", "saio(10.0%, c_hist=0)"),
            ("saio:10%:hist=inf", "saio(10.0%, c_hist=inf)"),
            ("saga:5%", "saga(5.0%, oracle)"),
            ("saga:5%:fgs-hb@0.5", "saga(5.0%, fgs-hb(h=0.50))"),
            ("saga:5%:cgs-cb:dtmax=20", "saga(5.0%, cgs-cb)"),
            ("fixed:200", "fixed(200)"),
            ("alloc:98304", "alloc-fixed(98304B)"),
            (
                "coupled:10%:floor=5%",
                "coupled(saio(10.0%, c_hist=0), floor=5.0%, stretch=4.0)",
            ),
            (
                "coupled:10%:floor=5%:stretch=8",
                "coupled(saio(10.0%, c_hist=0), floor=5.0%, stretch=8.0)",
            ),
            (
                "quiescent:idle=500:coupled:10%:floor=5%",
                "opportunistic(coupled(saio(10.0%, c_hist=0), floor=5.0%, stretch=4.0), idle=500)",
            ),
        ] {
            let parsed: PolicySpec = spec.parse().unwrap();
            assert_eq!(parsed.build().name(), name, "{spec}");
        }
    }

    #[test]
    fn hostile_numeric_tokens_parse_to_err_or_a_buildable_spec() {
        // Every numeric field, alone and nested inside `quiescent:`.
        let templates = [
            "saio:{}",
            "saio:10%:hist={}",
            "saga:{}",
            "saga:5%:fgs-hb@{}",
            "saga:5%:dtmax={}",
            "fixed:{}",
            "alloc:{}",
            "coupled:{}:floor=5%",
            "coupled:10%:floor={}",
            "coupled:10%:floor=5%:stretch={}",
            "quiescent:idle={}:saga:5%",
            "quiescent:idle=500:saga:{}:fgs-hb",
            "quiescent:idle=500:coupled:10%:floor=5%:stretch={}",
        ];
        let tokens = ["nan", "NaN", "inf", "-inf", "infinity", "1e999", "-0", ""];
        for template in templates {
            for tok in tokens {
                let text = template.replace("{}", tok);
                let Ok(spec) = text.parse::<PolicySpec>() else {
                    continue;
                };
                let mut policy = spec.build();
                let trigger = policy.initial_trigger();
                assert!(
                    trigger.overwrites.is_some() || trigger.app_io.is_some(),
                    "{text:?}: initial trigger bounds nothing"
                );
                let printed = spec.to_string();
                let reparsed: PolicySpec = printed.parse().unwrap();
                assert_eq!(reparsed, spec, "{text:?} round-trips through {printed:?}");
                assert_eq!(reparsed.to_string(), printed, "{text:?}");
            }
        }
    }

    #[test]
    fn display_is_canonical() {
        assert_eq!(PolicySpec::saio(0.10).to_string(), "saio:10%");
        assert_eq!(
            PolicySpec::saio_hist(0.10, HistoryLen::Fixed(4)).to_string(),
            "saio:10%:hist=4"
        );
        assert_eq!(
            PolicySpec::saga(0.05, EstimatorKind::Oracle).to_string(),
            "saga:5%"
        );
        assert_eq!(
            PolicySpec::saga_dt_max(0.05, EstimatorKind::CgsCb, 20).to_string(),
            "saga:5%:cgs-cb:dtmax=20"
        );
        assert_eq!(PolicySpec::fixed(200).to_string(), "fixed:200");
        assert_eq!(PolicySpec::alloc(98304).to_string(), "alloc:98304");
        assert_eq!(
            PolicySpec::Coupled {
                io_frac: 0.10,
                garbage_floor: 0.05,
                stretch: CoupledSaioPolicy::DEFAULT_STRETCH,
            }
            .to_string(),
            "coupled:10%:floor=5%"
        );
        assert_eq!(
            PolicySpec::Quiescent {
                idle: 2000,
                inner: Box::new(PolicySpec::saga(0.05, EstimatorKind::Oracle)),
            }
            .to_string(),
            "quiescent:idle=2000:saga:5%"
        );
    }

    #[test]
    fn display_round_trips() {
        for spec in [
            "saio:10%",
            "saio:0.123",
            "saio:10%:hist=4",
            "saio:100%",
            "saga:5%",
            "saga:5%:cgs-cb",
            "saga:5%:fgs-hb@0.5",
            "saga:5%:fgs-hb@0.8:dtmax=20",
            "fixed:200",
            "alloc:98304",
            "coupled:10%:floor=5%",
            "coupled:10%:floor=5%:stretch=8",
            "quiescent:idle=2000:saga:5%",
            "quiescent:idle=500:coupled:10%:floor=5%",
        ] {
            let parsed: PolicySpec = spec.parse().unwrap();
            let printed = parsed.to_string();
            let reparsed: PolicySpec = printed.parse().unwrap();
            assert_eq!(parsed, reparsed, "round-trip through {printed:?}");
        }
    }

    #[test]
    fn non_canonical_forms_normalise() {
        let a: PolicySpec = "saio:10".parse().unwrap();
        let b: PolicySpec = "saio:0.1".parse().unwrap();
        let c: PolicySpec = "saio:10%".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(c.to_string(), "saio:10%");
        // c_hist = 0 has one spelling: the default, printed as nothing.
        let e: PolicySpec = "saio:10%:hist=0".parse().unwrap();
        assert_eq!(e, c);
        assert_eq!(e.to_string(), "saio:10%");
        let d: PolicySpec = "saga:5%:fgs-hb".parse().unwrap();
        assert_eq!(d, PolicySpec::saga(0.05, EstimatorKind::FgsHb { h: 0.8 }));
    }

    #[test]
    fn bad_specs_error() {
        for bad in [
            "saio",
            "saga:5%:psychic",
            "warp:9",
            "fixed:x",
            "fixed:0",
            "saio:10%:window=4",
            "saga:5%:fgs-hb@1.5",
            "saio:0%",
            "saga:100%",
            "coupled:10%",
            "coupled:10%:floor=5%:stretch=0.5",
            "coupled:10%:floor=5%:stretch=1",
            "coupled:10%:floor=5%:stretch=nan",
            "coupled:10%:floor=5%:stretch=NaN",
            "coupled:10%:floor=5%:stretch=inf",
            "coupled:10%:floor=5%:stretch=infinity",
            "coupled:10%:floor=5%:stretch=1e999",
            "coupled:10%:floor=5%:stretch=-inf",
            "quiescent:idle=500:coupled:10%:floor=5%:stretch=nan",
            "saga:5%:dtmax=1",
            "quiescent:idle=0:fixed:200",
            "quiescent:idle=5",
            "saio:10%:hist=4:extra",
        ] {
            assert!(bad.parse::<PolicySpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn quiescent_builds_wrapped_policy() {
        let spec: PolicySpec = "quiescent:idle=1500:saga:5%".parse().unwrap();
        let name = spec.build().name();
        assert!(name.contains("saga"), "wrapper keeps inner name: {name}");
    }
}
