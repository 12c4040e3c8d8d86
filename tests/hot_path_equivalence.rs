//! Frozen-behavior differential test for the hot-path rewrite.
//!
//! PR 5 rebuilt the store/GC hot paths around epoch-marked visiting,
//! indexed roots/remsets, and an O(1) buffer pool. The optimization
//! contract is *bit-identical observable behavior*: the same traces
//! replayed under the same policies must produce byte-for-byte the same
//! `RunResult`s and (volatile-stripped) telemetry as the pre-optimization
//! code.
//!
//! The oracle here is a golden transcript generated by the unoptimized
//! code (`tests/golden/hot_path_replay.txt`, blessed before the rewrite
//! landed). Re-bless intentionally with:
//!
//! ```text
//! ODBGC_BLESS=1 cargo test -p odbgc-sim --test hot_path_equivalence
//! ```
//!
//! Coverage: 3 policy specs × 3 seeds, replayed three ways — direct
//! `Simulator::replay` with telemetry, and through the plan runner at
//! jobs=1 and jobs=8 (which must also agree with each other).

use std::fmt::Write as _;
use std::path::PathBuf;

use odbgc_core::{EstimatorKind, PolicySpec};
use odbgc_engine::{DecisionLog, EngineConfig};
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::{plan_document, run_document, ExperimentPlan, ReplayOptions, Simulator};

const SEEDS: [u64; 3] = [11, 22, 33];

fn specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::fixed(25),
        PolicySpec::saio(0.10),
        PolicySpec::saga(0.08, EstimatorKind::Oracle),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/hot_path_replay.txt")
}

/// Renders the full observable transcript: every `RunResult` (Debug is
/// exact for floats: shortest round-trip), every stripped run document,
/// and the stripped plan document of a 3×3 plan at jobs=1.
fn transcript() -> String {
    let mut out = String::new();

    // Direct runs with telemetry.
    for spec in specs() {
        for seed in SEEDS {
            let (trace, _) = Oo7App::standard(Oo7Params::tiny(), seed).generate();
            let sim = Simulator::new(EngineConfig::tiny());
            let mut policy = spec.build();
            let mut log = DecisionLog::default();
            let result = sim
                .replay(&trace, policy.as_mut(), ReplayOptions::new().log(&mut log))
                .expect("replay succeeds");
            writeln!(out, "== run spec={spec} seed={seed} ==").unwrap();
            writeln!(out, "{result:#?}").unwrap();
            writeln!(out, "-- telemetry --").unwrap();
            writeln!(
                out,
                "{}",
                run_document(&policy.name(), &log)
                    .strip_volatile()
                    .to_string_pretty()
            )
            .unwrap();
        }
    }

    // The same grid through the plan runner, serial and parallel: both
    // must agree with each other, and the serial stripped telemetry goes
    // into the transcript.
    let plan = ExperimentPlan::new(Oo7Params::tiny(), &SEEDS, EngineConfig::tiny())
        .cells(specs().into_iter().enumerate().map(|(i, s)| (i as f64, s)));
    let serial = plan.run_with_jobs(Some(1));
    let parallel = plan.run_with_jobs(Some(8));
    let serial_json = plan_document(&plan, &serial)
        .strip_volatile()
        .to_string_pretty();
    let parallel_json = plan_document(&plan, &parallel)
        .strip_volatile()
        .to_string_pretty();
    assert_eq!(
        serial_json, parallel_json,
        "jobs=1 and jobs=8 stripped telemetry diverged"
    );
    for (ci, cell) in serial.cells.iter().enumerate() {
        for (run, par) in cell
            .outcome
            .runs
            .iter()
            .zip(&parallel.cells[ci].outcome.runs)
        {
            assert_eq!(
                run.as_ref().ok(),
                par.as_ref().ok(),
                "jobs=1 vs jobs=8 RunResult diverged in cell {ci}"
            );
        }
    }
    writeln!(out, "== plan telemetry (stripped, jobs-invariant) ==").unwrap();
    writeln!(out, "{serial_json}").unwrap();
    out
}

/// The direct-run section of the transcript, produced through the
/// on-disk path instead: each trace is encoded to a tracefile on disk,
/// opened via `open_batches`, and replayed in decoded-block chunks. Byte-identical output to the in-memory replay
/// is the batching contract.
fn direct_transcript_batched() -> String {
    let dir = std::env::temp_dir().join(format!("odbgc-hot-path-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut out = String::new();
    for spec in specs() {
        for seed in SEEDS {
            let (trace, _) = Oo7App::standard(Oo7Params::tiny(), seed).generate();
            let path = dir.join(format!("{seed}.otb"));
            std::fs::write(&path, odbgc_tracefile::encode(&trace)).unwrap();
            drop(trace);
            let reader = odbgc_tracefile::open_batches(&path).expect("open tracefile");
            let sim = Simulator::new(EngineConfig::tiny());
            let mut policy = spec.build();
            let mut log = DecisionLog::default();
            let result = sim
                .replay_batched(reader, policy.as_mut(), ReplayOptions::new().log(&mut log))
                .expect("batched replay succeeds");
            writeln!(out, "== run spec={spec} seed={seed} ==").unwrap();
            writeln!(out, "{result:#?}").unwrap();
            writeln!(out, "-- telemetry --").unwrap();
            writeln!(
                out,
                "{}",
                run_document(&policy.name(), &log)
                    .strip_volatile()
                    .to_string_pretty()
            )
            .unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn batched_file_replay_matches_golden_transcript() {
    let path = golden_path();
    let Ok(golden) = std::fs::read_to_string(&path) else {
        // The bless run (or a fresh checkout without the golden file)
        // is covered by `replay_matches_pre_optimization_golden`.
        return;
    };
    let head = golden
        .split("== plan telemetry")
        .next()
        .expect("golden has a direct-run section");
    let text = direct_transcript_batched();
    if text != head {
        for (i, (a, b)) in head.lines().zip(text.lines()).enumerate() {
            assert_eq!(a, b, "first divergence at golden line {}", i + 1);
        }
        panic!(
            "batched transcript length changed: golden section {} bytes, current {} bytes",
            head.len(),
            text.len()
        );
    }
}

#[test]
fn replay_matches_pre_optimization_golden() {
    let text = transcript();
    let path = golden_path();
    if std::env::var("ODBGC_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), text.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden transcript {} ({e}); generate it on known-good \
             code with ODBGC_BLESS=1",
            path.display()
        )
    });
    if text != golden {
        // Pinpoint the first divergent line rather than dumping megabytes.
        for (i, (a, b)) in golden.lines().zip(text.lines()).enumerate() {
            assert_eq!(a, b, "first divergence at golden line {}", i + 1);
        }
        panic!(
            "transcript length changed: golden {} bytes, current {} bytes",
            golden.len(),
            text.len()
        );
    }
}
