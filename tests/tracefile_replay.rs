//! Replay straight off a tracefile:
//!
//! * a tracefile opened through `open_batches` replays to the same
//!   `RunResult` as the in-memory trace it was written from;
//! * binary tracefiles are ≤ 40% the size of the text rendering on a
//!   conn-3 OO7 trace;
//! * replay off the file, block by block, completes without a full
//!   in-memory `Trace`, and a damaged block surfaces as a source error
//!   at the exact event position.

use odbgc_core::PolicySpec;
use odbgc_engine::EngineConfig;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::Simulator;
use odbgc_trace::codec;
use odbgc_tracefile::BatchReader;

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

#[test]
fn batched_corpus_replay_matches_in_memory() {
    // The on-disk path end to end: a tracefile written by `encode`
    // and opened through `open_batches` replays to the
    // same RunResult as the in-memory trace it was written from.
    let (trace, _) = Oo7App::standard(Oo7Params::tiny(), 5).generate();
    let tmp = TempDir::new("batched");
    std::fs::create_dir_all(&tmp.0).unwrap();
    let path = tmp.0.join("t.otb");
    std::fs::write(&path, odbgc_tracefile::encode(&trace)).unwrap();

    let mut policy = PolicySpec::saio(0.10).build();
    let in_memory = Simulator::new(EngineConfig::tiny())
        .replay(&trace, policy.as_mut(), odbgc_sim::ReplayOptions::new())
        .unwrap();

    let reader = odbgc_tracefile::open_batches(&path).unwrap();
    let mut policy = PolicySpec::saio(0.10).build();
    let batched = Simulator::new(EngineConfig::tiny())
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
    std::fs::write(&path, odbgc_tracefile::encode(&trace)).unwrap();

    // In-memory replay of the materialized trace…
    let mut policy = PolicySpec::saio(0.10).build();
    let in_memory = Simulator::new(EngineConfig::tiny())
        .replay(&trace, policy.as_mut(), odbgc_sim::ReplayOptions::new())
        .unwrap();

    // …versus replay straight off the file: the `Trace` value is gone
    // by now, only the reader's current decoded block is on the heap.
    drop(trace);
    let reader = odbgc_tracefile::open_batches(&path).unwrap();
    let mut policy = PolicySpec::saio(0.10).build();
    let streamed = Simulator::new(EngineConfig::tiny())
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
    let open = || BatchReader::new(bytes.as_slice()).unwrap();
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
    let err = Simulator::new(EngineConfig::tiny())
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
