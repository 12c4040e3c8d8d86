//! Tests that need more than one module: the smoke run of every
//! workload, the result documents through `compare`, a real `Busy`
//! reaching the accounting check, and the two files this package must
//! stay in step with — the root manifest's release profile and
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::checks::{self, NetTally};
use crate::compare::{self, Verdict};
use crate::drive::{self, ClientLog, EngineConfig, SessionShape};
use crate::json::Json;
use crate::metrics::{Bound, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::workloads::{self, Report, RunOpts, Sizes};

/// A scratch directory under `out/`, removed when dropped; one per test,
/// because tests run side by side.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = workloads::default_out_dir().join(format!("test-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Leaving a scratch directory behind is not worth a panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn smoke(workload: Workload, traced: bool, out: &Scratch) -> Report {
    let opts = RunOpts {
        workload,
        seed: 7,
        seconds: 0.0,
        traced,
        sizes: Sizes::smoke(),
        probe_in_child: false,
        out_dir: out.0.clone(),
    };
    workloads::run(&opts).unwrap_or_else(|e| panic!("{} (traced: {traced}): {e}", workload.name()))
}

#[test]
fn smoke_every_workload_timed() {
    let out = Scratch::new("timed");
    let registered: Vec<&str> = END_TO_END
        .iter()
        .filter(|m| m.every_workload)
        .map(|m| m.name)
        .collect();
    for workload in Workload::ALL {
        let report = smoke(workload, false, &out);
        assert!(report.attempted > 0 && report.failed == 0, "{report:?}");
        for name in &registered {
            let m = report
                .metric(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(m.value > 0.0, "{} {name} = {}", workload.name(), m.value);
        }
        let net = matches!(workload, Workload::NetLockstep | Workload::NetPipelined);
        assert_eq!(report.metric("turn_p50_us").is_some(), net);
        assert_eq!(
            report.metric("policy_err_pp").is_some(),
            workload != Workload::ReplayNogc
        );
        // The driver's line: exactly the four keys, exactly the
        // registered metrics, each with a value and a unit.
        let line = Json::parse(&report.result_line(&registered).render()).expect("result line");
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").expect("metrics").members();
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            registered
        );
        for (_, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some());
            assert!(m.get("unit").and_then(Json::as_str).is_some());
        }
    }
}

#[test]
fn smoke_every_workload_traced() {
    let out = Scratch::new("traced");
    for workload in Workload::ALL {
        let report = smoke(workload, true, &out);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|&(name, ..)| name).collect();
        assert_eq!(names, want, "every layer metric, in table order");
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        let rows: i64 = report.budget.iter().map(|(_, ns)| ns).sum();
        assert_eq!(
            rows, report.budget_wall_ns as i64,
            "budget rows sum to the wall"
        );
        assert!(report.budget_wall_ns > 0);
        assert!(out
            .0
            .join(format!("trace-{}.json", workload.name()))
            .exists());
    }
}

#[test]
fn traced_and_timed_runs_agree_on_the_exact_counts() {
    let out = Scratch::new("exact");
    for workload in [Workload::ReplaySaga, Workload::NetPipelined] {
        let timed = smoke(workload, false, &out);
        let traced = smoke(workload, true, &out);
        assert!(!timed.exact.is_empty());
        assert_eq!(timed.exact, traced.exact, "{}", workload.name());
        let count = |name: &str| {
            let value = timed.exact.iter().find(|(k, _)| k == name).expect(name);
            value.1.as_f64().expect("a number")
        };
        let layer = traced.metric("gc.collections").expect("layer metric");
        assert_eq!(layer.value, count("collections"));
    }
}

fn document(reports: &[Report]) -> Json {
    Json::obj([(
        "workloads",
        Json::obj(reports.iter().map(|r| (r.workload.name(), r.to_json()))),
    )])
}

#[test]
fn result_documents_round_trip_through_compare() {
    let out = Scratch::new("compare");
    let reports = [
        smoke(Workload::ReplaySaio, false, &out),
        smoke(Workload::NetLockstep, false, &out),
    ];
    let a = Json::parse(&document(&reports).render_pretty()).expect("written document parses");
    assert_eq!(a, document(&reports), "nothing is lost in writing");

    let same = compare::compare(&a, &a).expect("compare");
    assert!(!same.regressed() && same.changed_counts.is_empty());
    // (A smoke set-up takes microseconds and jitters by more than its
    // bound, which `compare` rightly calls unresolved.)
    assert!(same
        .rows
        .iter()
        .all(|r| r.verdict == Verdict::Ok || r.metric == "setup_s"));
    // One row per (workload, metric) pair that the workload reports.
    let pairs: usize = reports.iter().map(|r| r.metrics.len()).sum();
    assert_eq!(same.rows.len(), pairs);
    assert!(same.render().ends_with("behaviour: identical\n"));

    // Halve a throughput and move a count: both must show.
    let mut worse = reports.clone();
    let ops = worse[0]
        .metrics
        .iter_mut()
        .find(|m| m.name == "ops_per_s")
        .expect("ops_per_s");
    (ops.value, ops.q1, ops.q3) = (ops.value / 2.0, ops.q1 / 2.0, ops.q3 / 2.0);
    worse[1].exact[0].1 = Json::Num(1.0);
    let b = document(&worse);
    let diff = compare::compare(&a, &b).expect("compare");
    assert!(diff.regressed());
    let regressed: Vec<_> = diff
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .map(|r| (r.workload.as_str(), r.metric))
        .collect();
    assert_eq!(regressed, [("replay_saio", "ops_per_s")]);
    assert_eq!(
        diff.changed_counts,
        [("net_lockstep".to_owned(), "events".to_owned())]
    );
    assert!(diff.render().ends_with("behaviour: changed\n"));

    // A workload B lacks is an error, not a pass.
    assert!(compare::compare(&a, &document(&reports[..1])).is_err());
}

#[test]
fn a_real_busy_fails_the_accounting() {
    let shape = SessionShape {
        engine: EngineConfig::tiny(),
        policy: "saio:10%",
        sessions: 1,
        shards: 1,
        ops_per_session: 64,
        batch: 8,
        seed: 3,
    };
    // One round: a refused turn's objects do not exist, so the turns
    // after it would be malformed.
    let turns = &drive::session_turns(&shape, 0)[..2];
    let ops_sent: u64 = turns.iter().map(|t| drive::ops_of(t).len() as u64).sum();
    let server = drive::start_server(&shape, 1).expect("server");
    // Granted a window of one, then driven two turns deep.
    let mut conns = [server.connect(0, 1).expect("connect")];
    let mut log = ClientLog::default();
    drive::drive_pipelined(&mut conns, &[turns], 2, None, &mut log).expect("drive");
    let [conn] = conns;
    drive::bye(conn).expect("bye");
    let outcome = server.shutdown().expect("drain");

    assert!(log.busy > 0, "the second turn of the round is refused");
    let tally = NetTally {
        ops_sent,
        ops_acked: log.ops_acked,
        ops_on_shards: outcome
            .shards
            .iter()
            .map(|s| s.result.events_replayed)
            .sum(),
        busy_seen: log.busy,
        busy_counted: outcome.clients.iter().map(|c| c.busy_rejections).sum(),
        ..NetTally::default()
    };
    assert_eq!(tally.busy_seen, tally.busy_counted);
    assert!(tally.failed_ops() > 0);
    let err = checks::net_accounting(&tally).expect_err("Busy must fail the run");
    assert!(err.contains("Busy"), "{err}");
}

/// The `key = value` lines of one table of a manifest.
fn toml_table(manifest: &Path, table: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != format!("[{table}]"))
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect()
}

#[test]
fn release_profile_matches_root() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = toml_table(&here.join("Cargo.toml"), "profile.release");
    let root = toml_table(&here.join("../Cargo.toml"), "profile.release");
    assert!(!root.is_empty(), "the root manifest sets a release profile");
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml must repeat the root [profile.release], or the \
         benchmark measures a differently optimised program"
    );
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key}: want a list, got {other:?}"),
    };
    let text_of = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);

    assert_eq!(list("paths"), [Json::str("benchmark")]);
    assert_eq!(doc.get("run_seconds"), Some(&Json::Num(RUN_SECONDS as f64)));

    let workloads: Vec<_> = list("workloads")
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let want: Vec<_> = Workload::ALL
        .iter()
        .map(|w| (Some(w.name().to_owned()), Some(w.why().to_owned())))
        .collect();
    assert_eq!(workloads, want);
    assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));

    let end_to_end: Vec<_> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    let want: Vec<_> = END_TO_END
        .iter()
        .filter(|m| m.every_workload)
        .map(|m| {
            let Bound::Share(share) = m.bound else {
                panic!("{} is registered, so its bound is a share", m.name);
            };
            assert!(share <= 0.25);
            (
                Some(m.name.to_owned()),
                Some(m.unit.to_owned()),
                Some(m.better.as_str().to_owned()),
                Some(share),
            )
        })
        .collect();
    assert_eq!(end_to_end, want);

    let per_layer: Vec<_> = list("per_layer")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let want: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            (
                Some(name.to_owned()),
                Some(unit.to_owned()),
                Some(better.as_str().to_owned()),
            )
        })
        .collect();
    assert_eq!(per_layer, want);
}
