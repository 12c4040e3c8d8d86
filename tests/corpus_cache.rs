//! Acceptance tests for the persistent trace corpus and replay straight
//! off a tracefile (ISSUE 3):
//!
//! * a 3×3 sweep run twice against the same corpus directory is
//!   byte-identical, and the second run reports ≥ 9 corpus hits with 0
//!   generations;
//! * binary tracefiles are ≤ 40% the size of the equivalent text
//!   encoding on a conn-3 OO7 trace;
//! * replay of that trace off its file, block by block, completes
//!   without constructing a full in-memory `Trace`.

use odbgc_core::PolicySpec;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::{ExperimentPlan, PlanOutcome, SimConfig, Simulator};
use odbgc_trace::codec;
use odbgc_tracefile::{BatchReader, SliceBlocks};

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("odbgc-acceptance-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn three_by_three(corpus: &std::path::Path) -> ExperimentPlan {
    ExperimentPlan::new(Oo7Params::tiny(), &[1, 2, 3], SimConfig::tiny())
        .cells([
            (5.0, PolicySpec::saio(0.05)),
            (10.0, PolicySpec::saio(0.10)),
            (20.0, PolicySpec::saio(0.20)),
        ])
        .with_corpus(corpus)
}

/// Serializes the parts of an outcome that must be reproducible (the
/// measurements, not the wall times).
fn fingerprint(out: &PlanOutcome) -> String {
    let mut s = String::new();
    for cell in &out.cells {
        s.push_str(&format!("{} {}\n", cell.x, cell.spec));
        for run in &cell.outcome.runs {
            match run {
                Ok(r) => s.push_str(&format!("{r:?}\n")),
                Err(e) => s.push_str(&format!("ERR {e}\n")),
            }
        }
    }
    s
}

#[test]
fn warm_corpus_sweep_is_byte_identical_with_nine_hits_and_zero_generations() {
    let tmp = TempDir::new("3x3");
    let cold = three_by_three(&tmp.0).run_with_jobs(Some(2));
    assert!(cold.is_complete());
    let cold_stats = cold.corpus.expect("corpus attached");
    assert_eq!(cold_stats.hits, 0, "cold corpus cannot hit");
    assert_eq!(cold_stats.generated, 3, "one generation per seed");

    // The corpus files themselves must be stable: snapshot them.
    let mut files: Vec<_> = std::fs::read_dir(&tmp.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "otb"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "one tracefile per seed");
    let snapshots: Vec<Vec<u8>> = files.iter().map(|p| std::fs::read(p).unwrap()).collect();

    let warm = three_by_three(&tmp.0).run_with_jobs(Some(4));
    assert!(warm.is_complete());
    let warm_stats = warm.corpus.expect("corpus attached");
    assert!(
        warm_stats.hits >= 9,
        "all 9 jobs must be served from the corpus, got {warm_stats}"
    );
    assert_eq!(warm_stats.generated, 0, "nothing regenerated: {warm_stats}");

    // Byte-identical results…
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
    // …and byte-identical corpus files (the second run rewrote nothing).
    for (path, snapshot) in files.iter().zip(&snapshots) {
        assert_eq!(&std::fs::read(path).unwrap(), snapshot, "{path:?} changed");
    }
}

#[test]
fn warm_sweep_hit_stats_are_exact() {
    // Regression guard for the resolved-path cache in `TraceCache`: with
    // the corpus key and file path resolved once per (workload, seed)
    // slot, a warm sweep's corpus accounting must be *exactly* one disk
    // load per seed plus memory-tier re-serves — 9 hits, 0 misses, 0
    // generations for a 3×3 grid — same as before the caching change.
    let tmp = TempDir::new("exact-stats");
    let cold = three_by_three(&tmp.0).run_with_jobs(Some(2));
    let cold_stats = cold.corpus.expect("corpus attached");
    assert_eq!(
        (cold_stats.hits, cold_stats.misses, cold_stats.generated),
        (0, 3, 3),
        "cold: one miss + one generation per seed, no hits"
    );

    let warm = three_by_three(&tmp.0).run_with_jobs(Some(1));
    let warm_stats = warm.corpus.expect("corpus attached");
    assert_eq!(
        (warm_stats.hits, warm_stats.misses, warm_stats.generated),
        (9, 0, 0),
        "warm: every job corpus-served, nothing re-resolved into a miss"
    );
}

#[test]
fn batched_corpus_replay_matches_in_memory() {
    // The on-disk path end to end: a corpus-installed tracefile opened
    // through `open_batches` replays to the same RunResult as the
    // in-memory trace it was written from.
    let (trace, _) = Oo7App::standard(Oo7Params::tiny(), 5).generate();
    let tmp = TempDir::new("batched");
    std::fs::create_dir_all(&tmp.0).unwrap();
    let path = tmp.0.join("t.otb");
    let file = std::fs::File::create(&path).unwrap();
    odbgc_tracefile::write_trace(std::io::BufWriter::new(file), &trace)
        .unwrap()
        .into_inner()
        .unwrap();

    let mut policy = PolicySpec::saio(0.10).build();
    let in_memory = Simulator::new(SimConfig::tiny())
        .replay(&trace, policy.as_mut(), odbgc_sim::ReplayOptions::new())
        .unwrap();

    let reader = odbgc_tracefile::open_batches(&path).unwrap();
    let mut policy = PolicySpec::saio(0.10).build();
    let batched = Simulator::new(SimConfig::tiny())
        .replay_batched(reader, policy.as_mut(), odbgc_sim::ReplayOptions::new())
        .unwrap();

    assert_eq!(in_memory, batched, "batched replay must not change results");
}

#[test]
fn binary_is_at_most_forty_percent_of_text_on_conn3() {
    // The paper's conn-3 workload (Small database keeps test time sane;
    // the encoding ratio is about the format, not the database scale).
    let (trace, _) = Oo7App::standard(Oo7Params::small(3), 1).generate();
    let text = codec::encode(&trace).len();
    let binary = odbgc_tracefile::encode(&trace).len();
    assert!(
        binary * 100 <= text * 40,
        "binary {binary} B vs text {text} B = {:.1}% (want ≤ 40%)",
        binary as f64 / text as f64 * 100.0
    );
}

#[test]
fn streaming_replay_needs_no_in_memory_trace() {
    let (trace, _) = Oo7App::standard(Oo7Params::tiny(), 3).generate();
    let tmp = TempDir::new("stream");
    std::fs::create_dir_all(&tmp.0).unwrap();
    let path = tmp.0.join("t.otb");
    let file = std::fs::File::create(&path).unwrap();
    odbgc_tracefile::write_trace(std::io::BufWriter::new(file), &trace)
        .unwrap()
        .into_inner()
        .unwrap();

    // In-memory replay of the materialized trace…
    let mut policy = PolicySpec::saio(0.10).build();
    let in_memory = Simulator::new(SimConfig::tiny())
        .replay(&trace, policy.as_mut(), odbgc_sim::ReplayOptions::new())
        .unwrap();

    // …versus replay straight off the file: the `Trace` value is gone
    // by now, only the reader's current decoded block is on the heap.
    drop(trace);
    let reader = odbgc_tracefile::open_batches(&path).unwrap();
    let mut policy = PolicySpec::saio(0.10).build();
    let streamed = Simulator::new(SimConfig::tiny())
        .replay_batched(reader, policy.as_mut(), odbgc_sim::ReplayOptions::new())
        .unwrap();

    assert_eq!(in_memory, streamed, "streaming must not change results");
}

#[test]
fn streaming_replay_surfaces_source_errors_with_position() {
    // Long enough to span several ~32 KiB blocks, so the cut below
    // leaves whole blocks in front of the damaged one.
    let trace = odbgc_trace::synthetic::linear_chain(30_000, 64, None);
    let mut bytes = odbgc_tracefile::encode(&trace);
    let cut = bytes.len() * 2 / 3;
    bytes.truncate(cut);

    // The events of the blocks that precede the cut are all applied
    // before the damaged block is reached.
    let open = || BatchReader::new(SliceBlocks::new(bytes.as_slice()).unwrap()).unwrap();
    let mut intact = 0;
    let mut probe = open();
    while let Ok(Some(batch)) = probe.next_batch() {
        intact += batch.len();
    }
    assert!(
        0 < intact && intact < trace.len(),
        "the cut falls mid-trace"
    );

    let mut policy = PolicySpec::saio(0.10).build();
    let err = Simulator::new(SimConfig::tiny())
        .replay_batched(open(), policy.as_mut(), odbgc_sim::ReplayOptions::new())
        .unwrap_err();
    match err {
        odbgc_sim::ReplayError::Source { event_index, cause } => {
            assert_eq!(event_index, intact, "position = events consumed");
            assert!(matches!(
                cause,
                odbgc_tracefile::DecodeError::Truncated { .. }
            ));
        }
        other => panic!("wanted a source error, got {other}"),
    }
}
