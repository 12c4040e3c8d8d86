//! Run- and plan-level telemetry documents with a versioned JSON export.
//!
//! The simulator's [`RunResult`](odbgc_engine::RunResult) carries the
//! *answers* (achieved fractions, totals, series); telemetry carries the
//! *explanations*:
//!
//! * a **policy decision log** — one [`DecisionRecord`] per trigger
//!   decision, capturing the
//!   [`CollectionObservation`](odbgc_core::CollectionObservation) the
//!   policy saw, the [`Trigger`](odbgc_core::Trigger) it chose, whether a
//!   configured clamp was hit ([`ClampHit`]), and the shadow estimator's
//!   `ActGarb` error against the oracle's `exact_garbage`;
//! * **per-phase accounting** — application I/O, GC I/O, overwrites,
//!   collections, and the event-sampled garbage-percentage mean split by
//!   OO7 phase ([`PhaseTelemetry`]);
//! * **plan-level telemetry** — per-job wall times, trace-cache counts,
//!   the failure list, and worker-pool utilization.
//!
//! The first two are kept by the engine's own [`DecisionLog`], whichever
//! way the run went: a replay lent one through
//! [`crate::ReplayOptions::log`], or a served shard, which hands its log
//! back in its [`ShardOutcome`](odbgc_engine::ShardOutcome). This module
//! only renders: [`run_document`] turns a policy name and a log into a
//! `kind: "run"` document, and [`plan_document`] turns an executed plan
//! into a `kind: "plan"` one. The engine stays JSON-free.
//!
//! Telemetry is strictly off the decision path: a plain
//! [`crate::Simulator::replay`] records nothing, and lending it a log
//! produces a byte-identical `RunResult` plus the log on the side.
//!
use std::time::Duration;

use odbgc_core::ClampHit;
use odbgc_engine::{DecisionLog, DecisionRecord, PhaseTelemetry};

use crate::runner::{ExperimentPlan, PlanOutcome};

/// Schema identifier every telemetry document leads with.
pub const SCHEMA_NAME: &str = "odbgc-telemetry";
/// Current schema version. Bump on any breaking layout change.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// JSON value type (no external dependencies)
// ---------------------------------------------------------------------

/// A JSON value. Numbers are kept as the literal text their constructor
/// formatted, so the writer emits integers beyond `f64`'s exact range
/// (`u64::MAX`) digit for digit.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its canonical literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An unsigned-integer number.
    pub fn u64(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A float number. Non-finite values export as `null` (JSON has no
    /// NaN/Infinity); finite values use Rust's shortest round-trip form.
    pub fn f64(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x}"))
        } else {
            Json::Null
        }
    }

    /// An optional unsigned integer (`None` → `null`).
    pub fn opt_u64(n: Option<u64>) -> Json {
        n.map_or(Json::Null, Json::u64)
    }

    /// An optional float (`None` → `null`).
    pub fn opt_f64(x: Option<f64>) -> Json {
        x.map_or(Json::Null, Json::f64)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A copy with every nondeterministic field removed: object entries
    /// whose key is `timing`, starts with `wall_`, or starts with `net_`
    /// (network serve-mode per-client counters — byte and stall totals
    /// depend on connection timing) are dropped, recursively. Two
    /// documents describing the same deterministic outcome compare equal
    /// after stripping, regardless of worker count, machine speed, or
    /// transport.
    pub fn strip_volatile(&self) -> Json {
        match self {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| {
                        k != "timing" && !k.starts_with("wall_") && !k.starts_with("net_")
                    })
                    .map(|(k, v)| (k.clone(), v.strip_volatile()))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(Json::strip_volatile).collect()),
            other => other.clone(),
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Run telemetry
// ---------------------------------------------------------------------

/// The JSON form of one [`DecisionRecord`] (layout unchanged since the
/// record lived in this module; it now comes from `odbgc-engine`, which
/// stays JSON-free).
fn decision_to_json(rec: &DecisionRecord) -> Json {
    let o = &rec.observation;
    Json::Obj(vec![
        ("index".into(), Json::u64(o.collection_index)),
        ("clamp".into(), Json::str(rec.clamp.as_str())),
        (
            "trigger".into(),
            Json::Obj(vec![
                ("app_io".into(), Json::opt_u64(rec.trigger.app_io)),
                ("overwrites".into(), Json::opt_u64(rec.trigger.overwrites)),
                ("alloc_bytes".into(), Json::opt_u64(rec.trigger.alloc_bytes)),
            ]),
        ),
        (
            "estimated_garbage".into(),
            Json::opt_f64(rec.estimated_garbage),
        ),
        ("estimate_error".into(), Json::opt_f64(rec.estimate_error())),
        (
            "observation".into(),
            Json::Obj(vec![
                ("gc_io".into(), Json::u64(o.gc_io)),
                ("app_io_since_prev".into(), Json::u64(o.app_io_since_prev)),
                ("bytes_reclaimed".into(), Json::u64(o.bytes_reclaimed)),
                (
                    "overwrites_of_collected".into(),
                    Json::u64(o.overwrites_of_collected),
                ),
                (
                    "total_outstanding_overwrites".into(),
                    Json::u64(o.total_outstanding_overwrites),
                ),
                ("partition_count".into(), Json::u64(o.partition_count)),
                ("db_size".into(), Json::u64(o.db_size)),
                ("total_collected".into(), Json::u64(o.total_collected)),
                ("overwrite_clock".into(), Json::u64(o.overwrite_clock)),
                ("alloc_clock".into(), Json::u64(o.alloc_clock)),
                ("exact_garbage".into(), Json::u64(o.exact_garbage)),
            ]),
        ),
    ])
}

/// The JSON form of one [`PhaseTelemetry`].
fn phase_to_json(phase: &PhaseTelemetry) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(&phase.name)),
        ("events".into(), Json::u64(phase.events)),
        ("collections".into(), Json::u64(phase.collections)),
        ("app_io".into(), Json::u64(phase.app_io)),
        ("gc_io".into(), Json::u64(phase.gc_io)),
        ("overwrites".into(), Json::u64(phase.overwrites)),
        (
            "garbage_pct_mean".into(),
            Json::opt_f64(phase.garbage_pct_mean),
        ),
    ])
}

/// The versioned run document (`kind: "run"`) of a run under the policy
/// named `policy` that reported to `log`.
pub fn run_document(policy: &str, log: &DecisionLog) -> Json {
    let clamp_count = |clamp: ClampHit| {
        let hits = log.decisions.iter().filter(|d| d.clamp == clamp).count();
        Json::u64(hits as u64)
    };
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA_NAME)),
        ("version".into(), Json::u64(SCHEMA_VERSION)),
        ("kind".into(), Json::str("run")),
        ("policy".into(), Json::str(policy)),
        (
            "decision_count".into(),
            Json::u64(log.decisions.len() as u64),
        ),
        (
            "clamp_hits".into(),
            Json::Obj(vec![
                ("min".into(), clamp_count(ClampHit::Min)),
                ("max".into(), clamp_count(ClampHit::Max)),
            ]),
        ),
        (
            "phases".into(),
            Json::Arr(log.phases.iter().map(phase_to_json).collect()),
        ),
        (
            "decisions".into(),
            Json::Arr(log.decisions.iter().map(decision_to_json).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------
// Plan telemetry
// ---------------------------------------------------------------------

/// The versioned plan document (`kind: "plan"`) of one executed plan:
/// what [`crate::runner`] did, job by job, plus the trace-cache counts
/// and pool utilization.
///
/// Everything except the `timing` object and `wall_*` keys is
/// deterministic for a given plan, regardless of worker count.
pub fn plan_document(plan: &ExperimentPlan, outcome: &PlanOutcome) -> Json {
    let cells: Vec<Json> = outcome
        .cells
        .iter()
        .map(|cell| {
            let per_seed: Vec<Json> = cell
                .outcome
                .runs
                .iter()
                .zip(&plan.seeds)
                .map(|(run, &seed)| match run {
                    Ok(r) => Json::Obj(vec![
                        ("seed".into(), Json::u64(seed)),
                        ("collections".into(), Json::u64(r.collection_count())),
                        ("gc_io_pct".into(), Json::opt_f64(r.gc_io_pct)),
                        ("garbage_pct_mean".into(), Json::opt_f64(r.garbage_pct_mean)),
                        ("app_io_total".into(), Json::u64(r.app_io_total)),
                        ("gc_io_total".into(), Json::u64(r.gc_io_total)),
                    ]),
                    Err(e) => Json::Obj(vec![
                        ("seed".into(), Json::u64(seed)),
                        ("error".into(), Json::str(e.kind.to_string())),
                    ]),
                })
                .collect();
            Json::Obj(vec![
                ("x".into(), Json::f64(cell.x)),
                ("spec".into(), Json::str(cell.spec.to_string())),
                ("runs".into(), Json::Arr(per_seed)),
                (
                    "wall_ms".into(),
                    Json::Arr(
                        cell.wall_times
                            .iter()
                            .map(|w| Json::u64(w.as_millis() as u64))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    let failures: Vec<Json> = outcome
        .failures
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("cell_index".into(), Json::u64(f.cell_index as u64)),
                ("spec".into(), Json::str(f.spec.to_string())),
                ("seed".into(), Json::u64(f.seed)),
                ("error".into(), Json::str(f.kind.to_string())),
            ])
        })
        .collect();

    let cache = Json::Obj(vec![
        ("hits".into(), Json::u64(outcome.cache.hits)),
        ("misses".into(), Json::u64(outcome.cache.misses)),
    ]);

    let cpu = outcome.cpu_time();
    let utilization = if outcome.elapsed > Duration::ZERO && outcome.jobs > 0 {
        cpu.as_secs_f64() / (outcome.elapsed.as_secs_f64() * outcome.jobs as f64)
    } else {
        0.0
    };
    let timing = Json::Obj(vec![
        ("jobs".into(), Json::u64(outcome.jobs as u64)),
        (
            "elapsed_ms".into(),
            Json::u64(outcome.elapsed.as_millis() as u64),
        ),
        ("cpu_ms".into(), Json::u64(cpu.as_millis() as u64)),
        ("utilization".into(), Json::f64(utilization)),
    ]);

    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA_NAME)),
        ("version".into(), Json::u64(SCHEMA_VERSION)),
        ("kind".into(), Json::str("plan")),
        ("seeds".into(), Json::u64(plan.seeds.len() as u64)),
        (
            "jobs_total".into(),
            Json::u64((plan.cells.len() * plan.seeds.len()) as u64),
        ),
        (
            "failure_count".into(),
            Json::u64(outcome.failures.len() as u64),
        ),
        ("cells".into(), Json::Arr(cells)),
        ("failures".into(), Json::Arr(failures)),
        ("cache".into(), cache),
        // Version-1 documents keep the key the retired on-disk trace
        // cache once filled; traces now come only from `cache`.
        ("corpus".into(), Json::Null),
        ("timing".into(), timing),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_string_pretty_writes_the_expected_text() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA_NAME)),
            ("version".into(), Json::u64(SCHEMA_VERSION)),
            ("kind".into(), Json::str("run")),
            ("pi".into(), Json::f64(3.25)),
            ("big".into(), Json::u64(u64::MAX)),
            ("nan".into(), Json::f64(f64::NAN)),
            ("inf".into(), Json::f64(f64::NEG_INFINITY)),
            ("none".into(), Json::opt_u64(None)),
            ("ok".into(), Json::Bool(true)),
            (
                "arr".into(),
                Json::Arr(vec![Json::u64(1), Json::str("two\n\"quoted\"")]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let expected = r#"{
  "schema": "odbgc-telemetry",
  "version": 1,
  "kind": "run",
  "pi": 3.25,
  "big": 18446744073709551615,
  "nan": null,
  "inf": null,
  "none": null,
  "ok": true,
  "arr": [
    1,
    "two\n\"quoted\""
  ],
  "empty_arr": [],
  "empty_obj": {}
}
"#;
        assert_eq!(doc.to_string_pretty(), expected);
    }

    #[test]
    fn u64_max_survives_round_trip() {
        // f64 cannot represent u64::MAX; the literal-text representation
        // must write it digit for digit.
        assert_eq!(
            Json::u64(u64::MAX).to_string_pretty(),
            "18446744073709551615\n"
        );
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        assert_eq!(Json::f64(f64::NAN), Json::Null);
        assert_eq!(Json::f64(f64::INFINITY), Json::Null);
        assert_eq!(Json::f64(1.5), Json::Num("1.5".into()));
    }

    #[test]
    fn writer_escapes_quotes_controls_and_unicode() {
        let raw = "q\"b\\s\nn\rr\tt\u{1}c\u{1f}üé€";
        let doc = Json::Obj(vec![(raw.into(), Json::str(raw))]);
        let escaped = r#""q\"b\\s\nn\rr\tt\u0001c\u001füé€""#;
        assert_eq!(
            doc.to_string_pretty(),
            format!("{{\n  {escaped}: {escaped}\n}}\n")
        );
    }

    #[test]
    fn strip_volatile_removes_timing_and_wall_keys_recursively() {
        let doc = Json::Obj(vec![
            ("keep".into(), Json::u64(1)),
            ("timing".into(), Json::Obj(vec![])),
            (
                "cells".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("x".into(), Json::u64(2)),
                    ("wall_ms".into(), Json::Arr(vec![Json::u64(9)])),
                    ("net_clients".into(), Json::Arr(vec![Json::u64(5)])),
                ])]),
            ),
            (
                "corpus".into(),
                Json::Obj(vec![("wall_load_ms".into(), Json::u64(3))]),
            ),
        ]);
        let stripped = doc.strip_volatile();
        assert_eq!(
            stripped,
            Json::Obj(vec![
                ("keep".into(), Json::u64(1)),
                (
                    "cells".into(),
                    Json::Arr(vec![Json::Obj(vec![("x".into(), Json::u64(2))])]),
                ),
                ("corpus".into(), Json::Obj(vec![])),
            ])
        );
    }

    #[test]
    fn run_document_of_a_log_without_phases() {
        use odbgc_core::{CollectionObservation, Trigger};
        let mut log = DecisionLog::default();
        log.decisions.push(DecisionRecord {
            observation: CollectionObservation::zero(),
            trigger: Trigger::after_overwrites(5),
            clamp: ClampHit::None,
            estimated_garbage: None,
        });
        let text = run_document("live", &log).to_string_pretty();
        let head = r#"{
  "schema": "odbgc-telemetry",
  "version": 1,
  "kind": "run",
  "policy": "live",
  "decision_count": 1,
  "clamp_hits": {
    "min": 0,
    "max": 0
  },
  "phases": [],
  "decisions": [
    {
      "index": 0,
      "clamp": "none",
"#;
        assert!(text.starts_with(head), "{text}");
    }
}
