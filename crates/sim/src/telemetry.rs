//! Run- and plan-level telemetry with a versioned JSON export.
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
//!   the failure list, and worker-pool utilization ([`PlanTelemetry`]).
//!
//! Telemetry is strictly off the hot path: a plain
//! [`crate::Simulator::replay`] records nothing, and attaching a sink via
//! [`crate::ReplayOptions::telemetry`] produces a byte-identical
//! `RunResult` plus the telemetry on the side.
//!
//! # Export format
//!
//! Everything exports as JSON through the dependency-free [`Json`] value
//! type. Telemetry is export-only: odbgc writes these documents and
//! never reads them back; they are for external tools (`jq`, Python).
//! Every document leads with a schema header, versioned like the binary
//! tracefile format:
//!
//! ```json
//! { "schema": "odbgc-telemetry", "version": 1, "kind": "run", ... }
//! ```
//!
//! Readers must reject documents whose `schema` is unknown or whose
//! `version` is newer than theirs. Nondeterministic values (wall times,
//! worker counts, machine load) live exclusively under keys named
//! `timing` or prefixed `wall_` / `net_`, so [`Json::strip_volatile`]
//! yields a byte-identical document for any worker count — the property
//! `odbgc sweep --telemetry` tests rely on.

use std::time::Duration;

use odbgc_core::ClampHit;
use odbgc_engine::{CounterSnapshot, DecisionRecord, EngineObserver};

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
        ("index".into(), Json::u64(rec.index)),
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

/// Accounting for one workload phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTelemetry {
    /// Phase name from the trace's phase table (`<start>` for events
    /// preceding the first phase marker).
    pub name: String,
    /// Events replayed during the phase (including its marker).
    pub events: u64,
    /// Collections performed during the phase.
    pub collections: u64,
    /// Application page I/O charged during the phase.
    pub app_io: u64,
    /// Collector page I/O charged during the phase.
    pub gc_io: u64,
    /// Pointer overwrites during the phase.
    pub overwrites: u64,
    /// Event-sampled mean garbage percentage over the phase (every event
    /// with a nonzero database size samples once; no preamble exclusion,
    /// unlike the whole-run measured-window mean).
    pub garbage_pct_mean: Option<f64>,
}

impl PhaseTelemetry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("events".into(), Json::u64(self.events)),
            ("collections".into(), Json::u64(self.collections)),
            ("app_io".into(), Json::u64(self.app_io)),
            ("gc_io".into(), Json::u64(self.gc_io)),
            ("overwrites".into(), Json::u64(self.overwrites)),
            (
                "garbage_pct_mean".into(),
                Json::opt_f64(self.garbage_pct_mean),
            ),
        ])
    }
}

/// In-progress accounting for the current phase.
#[derive(Debug, Clone)]
struct PhaseAccumulator {
    name: String,
    events: u64,
    collections: u64,
    app_io_start: u64,
    gc_io_start: u64,
    overwrites_start: u64,
    garbage_pct_sum: f64,
    garbage_pct_samples: u64,
}

impl PhaseAccumulator {
    fn open(name: String, app_io: u64, gc_io: u64, overwrites: u64) -> Self {
        PhaseAccumulator {
            name,
            events: 0,
            collections: 0,
            app_io_start: app_io,
            gc_io_start: gc_io,
            overwrites_start: overwrites,
            garbage_pct_sum: 0.0,
            garbage_pct_samples: 0,
        }
    }

    fn close(self, app_io: u64, gc_io: u64, overwrites: u64) -> PhaseTelemetry {
        PhaseTelemetry {
            name: self.name,
            events: self.events,
            collections: self.collections,
            app_io: app_io - self.app_io_start,
            gc_io: gc_io - self.gc_io_start,
            overwrites: overwrites - self.overwrites_start,
            garbage_pct_mean: (self.garbage_pct_samples > 0)
                .then(|| self.garbage_pct_sum / self.garbage_pct_samples as f64),
        }
    }
}

/// Everything one telemetry-enabled run recorded.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The policy's self-description.
    pub policy: String,
    /// One record per trigger decision, in decision order. The length
    /// equals the run's collection count: no-op re-arms (a due trigger
    /// before any partition exists) are not decisions.
    pub decisions: Vec<DecisionRecord>,
    /// Closed phases, in trace order.
    pub phases: Vec<PhaseTelemetry>,
    current: Option<PhaseAccumulator>,
}

impl RunTelemetry {
    /// An empty telemetry sink for a run under the named policy. Events
    /// preceding the first phase marker accrue to an implicit `<start>`
    /// phase (dropped if it stays empty).
    pub fn new(policy: String) -> Self {
        RunTelemetry {
            policy,
            decisions: Vec::new(),
            phases: Vec::new(),
            current: Some(PhaseAccumulator::open("<start>".to_owned(), 0, 0, 0)),
        }
    }

    /// A telemetry document for a run whose decisions were logged
    /// elsewhere — e.g. a serve-mode shard's `DecisionLog`, whose records
    /// come from live I/O counters. Such runs have no trace phases.
    pub fn from_decisions(policy: String, decisions: Vec<DecisionRecord>) -> Self {
        RunTelemetry {
            policy,
            decisions,
            phases: Vec::new(),
            current: None,
        }
    }

    /// Closes the current phase and opens `name`.
    pub(crate) fn enter_phase(&mut self, name: &str, snap: CounterSnapshot) {
        if let Some(acc) = self.current.take() {
            // The implicit start phase vanishes if nothing happened in it.
            if !(acc.name == "<start>" && acc.events == 0) {
                self.phases.push(acc.close(
                    snap.app_io_total,
                    snap.gc_io_total,
                    snap.overwrite_clock,
                ));
            }
        }
        self.current = Some(PhaseAccumulator::open(
            name.to_owned(),
            snap.app_io_total,
            snap.gc_io_total,
            snap.overwrite_clock,
        ));
    }

    /// Accounts one replayed event to the current phase.
    fn account_event(&mut self, snap: CounterSnapshot) {
        let acc = self.current.as_mut().expect("telemetry not finished");
        acc.events += 1;
        if snap.db_size > 0 {
            acc.garbage_pct_sum += 100.0 * snap.garbage_bytes as f64 / snap.db_size as f64;
            acc.garbage_pct_samples += 1;
        }
    }

    /// Records one policy decision (one per collection).
    fn account_decision(&mut self, record: DecisionRecord) {
        if let Some(acc) = self.current.as_mut() {
            acc.collections += 1;
        }
        self.decisions.push(record);
    }

    /// Closes the final phase.
    pub(crate) fn finish(&mut self, snap: CounterSnapshot) {
        if let Some(acc) = self.current.take() {
            if !(acc.name == "<start>" && acc.events == 0) {
                self.phases.push(acc.close(
                    snap.app_io_total,
                    snap.gc_io_total,
                    snap.overwrite_clock,
                ));
            }
        }
    }

    /// How many decisions hit the given clamp.
    pub fn clamp_count(&self, clamp: ClampHit) -> usize {
        self.decisions.iter().filter(|d| d.clamp == clamp).count()
    }

    /// The versioned JSON document (`kind: "run"`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA_NAME)),
            ("version".into(), Json::u64(SCHEMA_VERSION)),
            ("kind".into(), Json::str("run")),
            ("policy".into(), Json::str(&self.policy)),
            (
                "decision_count".into(),
                Json::u64(self.decisions.len() as u64),
            ),
            (
                "clamp_hits".into(),
                Json::Obj(vec![
                    (
                        "min".into(),
                        Json::u64(self.clamp_count(ClampHit::Min) as u64),
                    ),
                    (
                        "max".into(),
                        Json::u64(self.clamp_count(ClampHit::Max) as u64),
                    ),
                ]),
            ),
            (
                "phases".into(),
                Json::Arr(self.phases.iter().map(PhaseTelemetry::to_json).collect()),
            ),
            (
                "decisions".into(),
                Json::Arr(self.decisions.iter().map(decision_to_json).collect()),
            ),
        ])
    }
}

/// The telemetry sink observes the engine directly: per-event counter
/// snapshots accrue to the current phase, decisions are recorded
/// verbatim. This is how [`crate::Simulator::replay`] attaches telemetry
/// — the engine never learns what a telemetry document is.
impl EngineObserver for RunTelemetry {
    fn note_event(&mut self, snap: CounterSnapshot) {
        self.account_event(snap);
    }

    fn note_decision(&mut self, record: &DecisionRecord) {
        self.account_decision(record.clone());
    }
}

// ---------------------------------------------------------------------
// Plan telemetry
// ---------------------------------------------------------------------

/// Plan-level execution telemetry: what [`crate::runner`] did, job by
/// job, plus the trace-cache counts and pool utilization.
#[derive(Debug, Clone)]
pub struct PlanTelemetry {
    document: Json,
}

impl PlanTelemetry {
    /// Builds the telemetry document for one executed plan.
    ///
    /// Everything except the `timing` object and `wall_*` keys is
    /// deterministic for a given plan, regardless of worker count.
    pub fn from_outcome(plan: &ExperimentPlan, outcome: &PlanOutcome) -> Self {
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

        let document = Json::Obj(vec![
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
        ]);
        PlanTelemetry { document }
    }

    /// The versioned JSON document (`kind: "plan"`).
    pub fn to_json(&self) -> &Json {
        &self.document
    }
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
    fn phase_accumulator_reports_deltas_not_totals() {
        let mut t = RunTelemetry::new("test".into());
        let snap = |app, gc, ow, garbage, db| CounterSnapshot {
            app_io_total: app,
            gc_io_total: gc,
            overwrite_clock: ow,
            garbage_bytes: garbage,
            db_size: db,
        };
        t.note_event(snap(5, 0, 0, 0, 100)); // pre-marker event → <start>
        t.enter_phase("A", snap(5, 0, 0, 0, 100));
        t.note_event(snap(10, 2, 1, 50, 100));
        t.note_event(snap(20, 2, 3, 25, 100));
        t.enter_phase("B", snap(20, 2, 3, 25, 100));
        t.note_event(snap(30, 8, 4, 0, 0)); // zero db size: no sample
        t.finish(snap(30, 8, 4, 0, 0));

        assert_eq!(t.phases.len(), 3);
        assert_eq!(t.phases[0].name, "<start>");
        assert_eq!(t.phases[0].events, 1);
        let a = &t.phases[1];
        assert_eq!((a.name.as_str(), a.events, a.collections), ("A", 2, 0));
        assert_eq!((a.app_io, a.gc_io, a.overwrites), (15, 2, 3));
        assert_eq!(a.garbage_pct_mean, Some((50.0 + 25.0) / 2.0));
        let b = &t.phases[2];
        assert_eq!((b.app_io, b.gc_io, b.overwrites), (10, 6, 1));
        assert_eq!(b.garbage_pct_mean, None);
    }

    #[test]
    fn empty_start_phase_is_dropped() {
        let mut t = RunTelemetry::new("test".into());
        let snap = CounterSnapshot {
            app_io_total: 0,
            gc_io_total: 0,
            overwrite_clock: 0,
            garbage_bytes: 0,
            db_size: 0,
        };
        t.enter_phase("First", snap);
        t.note_event(snap);
        t.finish(snap);
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.phases[0].name, "First");
    }

    #[test]
    fn from_decisions_builds_a_run_document() {
        use odbgc_core::{CollectionObservation, Trigger};
        let rec = DecisionRecord {
            index: 0,
            observation: CollectionObservation::zero(),
            trigger: Trigger::after_overwrites(5),
            clamp: ClampHit::None,
            estimated_garbage: None,
        };
        let t = RunTelemetry::from_decisions("live".into(), vec![rec]);
        let text = t.to_json().to_string_pretty();
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
