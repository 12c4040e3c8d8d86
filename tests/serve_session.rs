//! Frozen transcript of served runs.
//!
//! `tests/golden/hot_path_replay.txt` pins OO7-tiny replays, whose
//! partitions carry a few dozen collection roots. A served partition
//! carries hundreds: every rooted anchor of a session is a global root,
//! and every anchor slot pointing at a child in another partition is a
//! remembered reference. This transcript pins that shape — every shard's
//! `RunResult` and decision log for `serve` under the default engine
//! geometry, two policies and two seeds — so a change to how roots are
//! gathered, ordered or copied shows as a byte difference.
//!
//! Re-bless intentionally, on known-good code, with:
//!
//! ```text
//! ODBGC_BLESS=1 cargo test -p odbgc-sim --test serve_session
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use odbgc_core::PolicySpec;
use odbgc_engine::{serve, EngineConfig, ServeConfig, WorkloadParams};

const SEEDS: [u64; 2] = [1, 7];
/// Each policy with the operations per session that take every shard
/// past [`MIN_COLLECTIONS`]: SAGA at 5 % garbage collects about a fifth
/// as often as SAIO at 10 % I/O on this workload.
const POLICIES: [(&str, u64); 2] = [("saio:10%", 60_000), ("saga:5%:fgs-hb", 250_000)];
/// Collections every shard must reach, so the transcript covers
/// partitions with hundreds of roots and not only a young store.
const MIN_COLLECTIONS: u64 = 100;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/serve_session.txt")
}

/// One line per collection record and per decision, so a divergence
/// names the collection where it starts.
fn transcript() -> String {
    let mut out = String::new();
    for (policy, ops_per_session) in POLICIES {
        let spec: PolicySpec = policy.parse().expect("policy spec parses");
        for seed in SEEDS {
            let config = ServeConfig {
                engine: EngineConfig::default(),
                sessions: 2,
                shards: 2,
                ops_per_session,
                batch: 8,
                scheduler_seed: seed,
                workload: WorkloadParams { seed },
                gc_fault: None,
            };
            let outcome = serve(config, |_| spec.build()).expect("serve run");
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            writeln!(out, "== serve policy={spec} seed={seed} ==").unwrap();
            writeln!(out, "per_session_ops: {:?}", outcome.per_session_ops).unwrap();
            for (i, shard) in outcome.shards.into_iter().enumerate() {
                let mut result = shard.result;
                assert!(
                    result.collection_count() >= MIN_COLLECTIONS,
                    "{spec} seed {seed} shard {i}: {} collections",
                    result.collection_count()
                );
                let collections = std::mem::take(&mut result.collections);
                writeln!(out, "-- shard {i} policy={} --", shard.policy).unwrap();
                writeln!(out, "{result:?}").unwrap();
                for record in &collections {
                    writeln!(out, "{record:?}").unwrap();
                }
                writeln!(out, "-- shard {i} decisions --").unwrap();
                for d in &shard.log.decisions {
                    // Rendered by hand so each line keeps its `index`
                    // column, which is the observation's collection index.
                    writeln!(
                        out,
                        "DecisionRecord {{ index: {}, observation: {:?}, trigger: {:?}, \
                         clamp: {:?}, estimated_garbage: {:?} }}",
                        d.observation.collection_index,
                        d.observation,
                        d.trigger,
                        d.clamp,
                        d.estimated_garbage
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn served_runs_match_golden_transcript() {
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
