//! The simulation loop: a thin trace driver over [`StoreEngine`].
//!
//! The loop's core — store, collector, policy, trigger state, live
//! counters — lives in [`odbgc_engine::StoreEngine`], and the simulator
//! is one client of it: it feeds batches of trace events through the
//! engine exactly as a live mutator session would, adding only what is
//! trace-specific (event indexing for errors, phase-name resolution, and
//! the telemetry sink's phase accounting).

use std::convert::Infallible;

use odbgc_core::RatePolicy;
use odbgc_engine::{EngineObserver, StoreEngine};
use odbgc_store::StoreError;
use odbgc_trace::{Event, Trace};

use crate::config::SimConfig;
use crate::telemetry::RunTelemetry;

pub use odbgc_engine::RunResult;

/// A simulation failure: the trace could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Index of the offending event.
    pub event_index: usize,
    /// The store's complaint.
    pub cause: StoreError,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: {}", self.event_index, self.cause)
    }
}

impl std::error::Error for SimError {}

/// A replay failure: either the simulation itself failed ([`SimError`])
/// or the event *source* did — e.g. a corrupt tracefile block discovered
/// mid-replay.
#[derive(Debug)]
pub enum ReplayError<E> {
    /// The store rejected an event.
    Sim(SimError),
    /// The event source yielded an error at the given position.
    Source {
        /// Index of the event that failed to materialize.
        event_index: usize,
        /// The source's error.
        cause: E,
    },
}

impl ReplayError<Infallible> {
    /// An infallible source never fails, so the only possible failure is
    /// the simulation's own.
    fn into_sim(self) -> SimError {
        match self {
            ReplayError::Sim(e) => e,
            ReplayError::Source { cause, .. } => match cause {},
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for ReplayError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Sim(e) => write!(f, "{e}"),
            ReplayError::Source { event_index, cause } => {
                write!(f, "event source failed at event {event_index}: {cause}")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ReplayError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Sim(e) => Some(e),
            ReplayError::Source { cause, .. } => Some(cause),
        }
    }
}

/// Anything a replay can consume: a phase-name table plus a sequence of
/// decoded event batches, borrowed one batch at a time.
///
/// The source lends whole decoded batches (backed by a reusable arena in
/// the tracefile reader), so the replay loop pays its dispatch and
/// error-handling costs once per block rather than once per event.
/// Implemented for [`odbgc_tracefile::BatchReader`] (one batch per
/// on-disk block) and [`TraceBatches`] (an in-memory trace as a single
/// batch); batch boundaries never change the result.
pub trait BatchSource {
    /// The source's error type ([`Infallible`] for in-memory traces).
    type Error;

    /// The phase-name table, indexed by [`odbgc_trace::PhaseId`].
    /// Sources must supply it up front (tracefiles carry it in their
    /// header) so [`Event::Phase`] markers can be named in the result.
    fn phase_names(&self) -> Vec<String>;

    /// Lends the next decoded batch, or `Ok(None)` after the last. The
    /// borrow ends before the next call, letting implementations reuse
    /// one arena across batches.
    fn next_batch(&mut self) -> Result<Option<&[Event]>, Self::Error>;
}

impl<B: AsRef<[u8]>> BatchSource for odbgc_tracefile::BatchReader<B> {
    type Error = odbgc_tracefile::DecodeError;

    fn phase_names(&self) -> Vec<String> {
        odbgc_tracefile::BatchReader::phase_names(self).to_vec()
    }

    fn next_batch(&mut self) -> Result<Option<&[Event]>, Self::Error> {
        odbgc_tracefile::BatchReader::next_batch(self)
    }
}

/// An in-memory [`Trace`] as a [`BatchSource`]: one batch covering the
/// whole trace, borrowed and infallible.
pub struct TraceBatches<'a> {
    trace: &'a Trace,
    done: bool,
}

impl<'a> TraceBatches<'a> {
    /// Wraps `trace` as a single-batch source.
    pub fn new(trace: &'a Trace) -> Self {
        TraceBatches { trace, done: false }
    }
}

impl BatchSource for TraceBatches<'_> {
    type Error = Infallible;

    fn phase_names(&self) -> Vec<String> {
        self.trace.phase_names().to_vec()
    }

    fn next_batch(&mut self) -> Result<Option<&[Event]>, Infallible> {
        if self.done {
            Ok(None)
        } else {
            self.done = true;
            Ok(Some(self.trace.events()))
        }
    }
}

/// Options of one replay. The plain default replays silently; attach a
/// [`RunTelemetry`] sink to additionally record the per-decision policy
/// log and per-phase accounting.
///
/// Telemetry is strictly an observer: the returned [`RunResult`] is
/// byte-identical with or without it.
#[derive(Default)]
pub struct ReplayOptions<'t> {
    telemetry: Option<&'t mut RunTelemetry>,
}

impl<'t> ReplayOptions<'t> {
    /// The default options: no telemetry.
    pub fn new() -> ReplayOptions<'static> {
        ReplayOptions { telemetry: None }
    }

    /// Records decision and phase telemetry into `sink`.
    pub fn telemetry(self, sink: &'t mut RunTelemetry) -> ReplayOptions<'t> {
        ReplayOptions {
            telemetry: Some(sink),
        }
    }
}

/// The trace-driven simulator.
///
/// ```
/// use odbgc_sim::core_policies::SaioPolicy;
/// use odbgc_sim::oo7::{Oo7App, Oo7Params};
/// use odbgc_sim::simulator::ReplayOptions;
/// use odbgc_sim::{SimConfig, Simulator};
///
/// let (trace, _) = Oo7App::standard(Oo7Params::tiny(), 1).generate();
/// let mut policy = SaioPolicy::with_frac(0.10);
/// let result = Simulator::new(SimConfig::tiny())
///     .replay(&trace, &mut policy, ReplayOptions::new())
///     .expect("trace replays cleanly");
/// assert!(result.collection_count() > 0);
/// assert_eq!(
///     result.total_garbage_generated,
///     result.total_garbage_collected + result.final_garbage_bytes
/// );
/// ```
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// A simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// Replays an in-memory trace under `policy`, collecting per the
    /// configuration: [`Simulator::replay_batched`] over the whole trace
    /// as one batch. The source cannot fail, so the only possible
    /// failure is the simulation's own.
    pub fn replay(
        &self,
        trace: &Trace,
        policy: &mut dyn RatePolicy,
        options: ReplayOptions<'_>,
    ) -> Result<RunResult, SimError> {
        self.replay_batched(TraceBatches::new(trace), policy, options)
            .map_err(ReplayError::into_sim)
    }

    /// Replays a [`BatchSource`] under `policy`, collecting per the
    /// configuration. This is the one replay loop.
    ///
    /// Per-event triggers, metrics sampling, and observer calls all fire
    /// in event order, so the [`RunResult`] does not depend on where the
    /// source cuts its batches; the loop hands whole phase-free spans to
    /// [`StoreEngine::apply_batch`], amortizing per-event dispatch, and
    /// handles [`Event::Phase`] markers individually between spans. A
    /// source error aborts the replay with [`ReplayError::Source`]
    /// carrying the number of events consumed before it.
    pub fn replay_batched<B: BatchSource>(
        &self,
        mut source: B,
        policy: &mut dyn RatePolicy,
        options: ReplayOptions<'_>,
    ) -> Result<RunResult, ReplayError<B::Error>> {
        let phase_names = source.phase_names();
        let mut telemetry = options.telemetry;
        let mut engine = StoreEngine::new(self.config.clone(), policy);
        let mut phases: Vec<(String, u64, u64)> = Vec::new();
        // Global index of the first event of the current batch, so
        // per-event error and phase indices are positions in the trace.
        let mut base: usize = 0;

        loop {
            let batch = match source.next_batch() {
                Ok(Some(batch)) => batch,
                Ok(None) => break,
                Err(cause) => {
                    return Err(ReplayError::Source {
                        event_index: base,
                        cause,
                    })
                }
            };
            let mut i = 0;
            while i < batch.len() {
                // The phase-free span starting at `i` goes through the
                // engine's batch path in one call.
                let span_end = batch[i..]
                    .iter()
                    .position(|ev| matches!(ev, Event::Phase { .. }))
                    .map_or(batch.len(), |p| i + p);
                if i < span_end {
                    engine
                        .apply_batch(
                            &batch[i..span_end],
                            telemetry
                                .as_deref_mut()
                                .map(|t| t as &mut dyn EngineObserver),
                        )
                        .map_err(|(off, cause)| {
                            ReplayError::Sim(SimError {
                                event_index: base + i + off,
                                cause,
                            })
                        })?;
                    i = span_end;
                }
                if let Some(ev @ Event::Phase { id }) = batch.get(i) {
                    let name = phase_names
                        .get(id.index())
                        .map(String::as_str)
                        .unwrap_or("<unknown>")
                        .to_owned();
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.enter_phase(&name, engine.counters());
                    }
                    phases.push((name, (base + i) as u64, engine.collection_count()));
                    engine
                        .apply_event(
                            ev,
                            telemetry
                                .as_deref_mut()
                                .map(|t| t as &mut dyn EngineObserver),
                        )
                        .map_err(|cause| {
                            ReplayError::Sim(SimError {
                                event_index: base + i,
                                cause,
                            })
                        })?;
                    i += 1;
                }
            }
            base += batch.len();
        }

        if let Some(t) = telemetry {
            t.finish(engine.counters());
        }
        Ok(engine.into_result(phases))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_core::{CollectionObservation, Trigger};
    use odbgc_core::{EstimatorKind, Oracle};
    use odbgc_core::{FixedRatePolicy, SagaConfig, SagaPolicy, SaioPolicy};
    use odbgc_oo7::{Oo7App, Oo7Params};

    fn tiny_trace(seed: u64) -> Trace {
        Oo7App::standard(Oo7Params::tiny(), seed).generate().0
    }

    fn replay(sim: &Simulator, trace: &Trace, policy: &mut dyn RatePolicy) -> RunResult {
        sim.replay(trace, policy, ReplayOptions::new())
            .expect("run")
    }

    #[test]
    fn fixed_rate_collects_on_schedule() {
        let trace = tiny_trace(1);
        let sim = Simulator::new(SimConfig::tiny());
        let mut policy = FixedRatePolicy::new(20);
        let r = replay(&sim, &trace, &mut policy);
        assert!(r.collection_count() > 0, "reorgs must trigger collections");
        // Every realized interval reaches the trigger threshold.
        for rec in &r.collections {
            assert!(rec.interval_overwrites >= 20);
        }
        assert!(r.total_garbage_collected > 0);
    }

    #[test]
    fn saio_policy_runs_and_spends_gc_io() {
        let trace = tiny_trace(2);
        let sim = Simulator::new(SimConfig::tiny());
        let mut policy = SaioPolicy::with_frac(0.10);
        let r = replay(&sim, &trace, &mut policy);
        assert!(r.collection_count() > 2);
        assert!(r.gc_io_total > 0);
        assert!(r.gc_io_pct.is_some());
    }

    #[test]
    fn saga_oracle_policy_runs() {
        let trace = tiny_trace(3);
        let mut cfg = SimConfig::tiny();
        cfg.shadow_estimator = Some(EstimatorKind::Oracle);
        let sim = Simulator::new(cfg);
        let mut policy = SagaPolicy::new(SagaConfig::new(0.10), Box::new(Oracle));
        let r = replay(&sim, &trace, &mut policy);
        assert!(r.collection_count() > 0);
        // Shadow oracle estimates equal the recorded actual garbage.
        for rec in &r.collections {
            assert_eq!(rec.estimated_garbage, Some(rec.actual_garbage as f64));
        }
    }

    #[test]
    fn phases_are_recorded_in_order() {
        let trace = tiny_trace(4);
        let sim = Simulator::new(SimConfig::tiny());
        let mut policy = FixedRatePolicy::new(50);
        let r = replay(&sim, &trace, &mut policy);
        let names: Vec<&str> = r.phases.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["GenDB", "Reorg1", "Traverse", "Reorg2"]);
        // Phase event indices are increasing.
        assert!(r.phases.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn never_collecting_policy_accumulates_all_garbage() {
        let trace = tiny_trace(5);
        let sim = Simulator::new(SimConfig::tiny());
        let mut policy = FixedRatePolicy::new(u64::MAX / 4);
        let r = replay(&sim, &trace, &mut policy);
        assert_eq!(r.collection_count(), 0);
        assert_eq!(r.gc_io_total, 0);
        assert_eq!(r.final_garbage_bytes, r.total_garbage_generated);
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = tiny_trace(6);
        let sim = Simulator::new(SimConfig::tiny());
        let run = || {
            let mut policy = SaioPolicy::with_frac(0.05);
            replay(&sim, &trace, &mut policy)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.collections, b.collections);
        assert_eq!(a.gc_io_total, b.gc_io_total);
        assert_eq!(a.garbage_pct_mean, b.garbage_pct_mean);
    }

    #[test]
    fn malformed_trace_reports_event_index() {
        let mut b = odbgc_trace::TraceBuilder::new();
        b.access(odbgc_trace::ObjectId::new(99));
        let trace = b.finish();
        let sim = Simulator::new(SimConfig::tiny());
        let mut policy = FixedRatePolicy::new(10);
        let e = sim
            .replay(&trace, &mut policy, ReplayOptions::new())
            .unwrap_err();
        assert_eq!(e.event_index, 0);
        assert!(e.to_string().contains("event 0"));
    }

    /// Test-only source: a trace's events re-cut into the given batches
    /// (an empty range lends an empty batch), optionally failing once
    /// they are exhausted.
    struct Rechunked<'a> {
        trace: &'a Trace,
        batches: std::vec::IntoIter<std::ops::Range<usize>>,
        then_fail: bool,
    }

    impl<'a> Rechunked<'a> {
        fn new(trace: &'a Trace, batches: Vec<std::ops::Range<usize>>) -> Self {
            Rechunked {
                trace,
                batches: batches.into_iter(),
                then_fail: false,
            }
        }
    }

    impl BatchSource for Rechunked<'_> {
        type Error = &'static str;

        fn phase_names(&self) -> Vec<String> {
            self.trace.phase_names().to_vec()
        }

        fn next_batch(&mut self) -> Result<Option<&[Event]>, Self::Error> {
            match self.batches.next() {
                Some(range) => Ok(Some(&self.trace.events()[range])),
                None if self.then_fail => Err("source gave out"),
                None => Ok(None),
            }
        }
    }

    /// The cuttings every invariance test runs: batches of 1 (one event
    /// per batch — per-event streaming), of 7, the whole trace, and a
    /// cut immediately before and after a mid-trace `Phase` marker with
    /// an empty batch in between.
    fn cuttings(trace: &Trace) -> Vec<Vec<std::ops::Range<usize>>> {
        let len = trace.len();
        let every = |k: usize| (0..len).step_by(k).map(|s| s..(s + k).min(len)).collect();
        let marker = trace
            .iter()
            .rposition(|ev| matches!(ev, Event::Phase { .. }))
            .filter(|&p| 0 < p && p + 1 < len)
            .expect("a phase marker in mid-trace");
        vec![
            every(1),
            every(7),
            every(len),
            vec![
                0..marker,
                marker..marker,
                marker..marker + 1,
                marker + 1..len,
            ],
        ]
    }

    #[test]
    fn batched_replay_matches_streaming_replay() {
        let trace = tiny_trace(13);
        let sim = Simulator::new(SimConfig::tiny());
        let single = {
            let mut p = SaioPolicy::with_frac(0.10);
            replay(&sim, &trace, &mut p)
        };
        for batches in cuttings(&trace) {
            let first = batches[0].clone();
            let mut p = SaioPolicy::with_frac(0.10);
            let rechunked = sim
                .replay_batched(
                    Rechunked::new(&trace, batches),
                    &mut p,
                    ReplayOptions::new(),
                )
                .expect("run");
            assert_eq!(single, rechunked, "first batch {first:?}");
        }
        // And through the real block reader: encode, then replay the
        // decoded blocks (many batches, arena reused between them).
        let bytes = odbgc_tracefile::encode(&trace);
        let block_batched = {
            let mut p = SaioPolicy::with_frac(0.10);
            let reader = odbgc_tracefile::BatchReader::new(
                odbgc_tracefile::SliceBlocks::new(bytes.as_slice()).expect("header"),
            )
            .expect("phase table");
            sim.replay_batched(reader, &mut p, ReplayOptions::new())
                .expect("run")
        };
        assert_eq!(single, block_batched);
    }

    #[test]
    fn batched_replay_telemetry_matches_streaming() {
        let trace = tiny_trace(14);
        let sim = Simulator::new(SimConfig::tiny());
        let run = |batches: Vec<std::ops::Range<usize>>| {
            let mut p = SaioPolicy::with_frac(0.10);
            let mut sink = RunTelemetry::new(p.name());
            let r = sim
                .replay_batched(
                    Rechunked::new(&trace, batches),
                    &mut p,
                    ReplayOptions::new().telemetry(&mut sink),
                )
                .expect("run");
            let phases: Vec<_> = sink
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.events, p.app_io, p.gc_io, p.collections))
                .collect();
            (r, sink.decisions, phases)
        };
        let mut cuttings = cuttings(&trace).into_iter();
        let per_event = run(cuttings.next().expect("the batches-of-1 cutting"));
        assert!(!per_event.1.is_empty() && per_event.2.len() > 1);
        for batches in cuttings {
            let first = batches[0].clone();
            assert_eq!(per_event, run(batches), "first batch {first:?}");
        }
    }

    #[test]
    fn source_error_reports_the_events_consumed_before_it() {
        let trace = tiny_trace(11);
        let n = trace.len() / 2;
        let mut source = Rechunked::new(&trace, vec![0..7, 7..n]);
        source.then_fail = true;
        let mut p = SaioPolicy::with_frac(0.10);
        let err = Simulator::new(SimConfig::tiny())
            .replay_batched(source, &mut p, ReplayOptions::new())
            .unwrap_err();
        match err {
            ReplayError::Source { event_index, cause } => {
                assert_eq!(event_index, n);
                assert_eq!(cause, "source gave out");
            }
            ReplayError::Sim(e) => panic!("wanted a source error, got {e}"),
        }
    }

    #[test]
    fn batched_replay_reports_sim_error_with_global_index() {
        let mut b = odbgc_trace::TraceBuilder::new();
        b.phase("P0");
        let root = b.create_unlinked(40, 1);
        b.access(odbgc_trace::ObjectId::new(4242)); // event 2: bogus
        b.root_add(root);
        let trace = b.finish();
        let sim = Simulator::new(SimConfig::tiny());
        let mut p = FixedRatePolicy::new(1_000_000);
        let err = sim
            .replay(&trace, &mut p, ReplayOptions::new())
            .unwrap_err();
        assert_eq!(err.event_index, 2);
        // The index is a position in the trace, not in the batch.
        let cut = Rechunked::new(&trace, vec![0..2, 2..trace.len()]);
        match sim.replay_batched(cut, &mut p, ReplayOptions::new()) {
            Err(ReplayError::Sim(e)) => assert_eq!(e.event_index, 2),
            other => panic!("wanted a sim error, got {other:?}"),
        }
    }

    /// A policy whose hand-built zero trigger is due before any activity
    /// at all — the only way a trigger can be due while the store still
    /// has no partitions. Counts its cold-start re-arms.
    struct EagerPolicy {
        initial_calls: u64,
    }

    impl RatePolicy for EagerPolicy {
        fn initial_trigger(&mut self) -> Trigger {
            self.initial_calls += 1;
            Trigger {
                overwrites: Some(0),
                app_io: None,
                alloc_bytes: None,
            }
        }

        fn after_collection(&mut self, _: &CollectionObservation) -> Trigger {
            Trigger::after_overwrites(1)
        }

        fn name(&self) -> String {
            "eager-test".into()
        }
    }

    #[test]
    fn due_trigger_with_no_partitions_re_arms_instead_of_spinning() {
        // Regression: a trace that front-loads phase markers leaves the
        // trigger due while no partition exists. The old code never
        // re-armed on that path, so the same due trigger re-fired — and
        // with `exact_oracle_recompute` (the default) ran the exact
        // recompute — on every subsequent event. The fix re-arms
        // via `initial_trigger()` and resets the interval baselines, so
        // the policy sees exactly one cold-start call per no-op firing.
        let mut b = odbgc_trace::TraceBuilder::new();
        for i in 0..5 {
            b.phase(&format!("Marker{i}"));
        }
        let root = b.create_unlinked(40, 1);
        b.root_add(root);
        let victim = b.create_unlinked(40, 0);
        b.slot_write(root, odbgc_trace::SlotIdx::new(0), Some(victim));
        b.slot_clear(root, odbgc_trace::SlotIdx::new(0));
        let trace = b.finish();

        let mut policy = EagerPolicy { initial_calls: 0 };
        let r = replay(&Simulator::new(SimConfig::tiny()), &trace, &mut policy);
        assert_eq!(
            policy.initial_calls,
            1 + 5,
            "one cold start + one re-arm per front-loaded phase marker"
        );
        assert_eq!(r.events_replayed, trace.len() as u64);
        assert!(r.collection_count() > 0, "real workload still collects");
    }

    #[test]
    fn windowed_gc_io_pct_matches_metrics_window() {
        let trace = tiny_trace(8);
        let cfg = SimConfig::tiny(); // preamble 2
        let sim = Simulator::new(cfg);
        let mut policy = SaioPolicy::with_frac(0.10);
        let r = replay(&sim, &trace, &mut policy);
        assert!(r.collection_count() > 2);
        let post_hoc = r.windowed_gc_io_pct(2).expect("window exists");
        let live = r.gc_io_pct.expect("window exists");
        assert!(
            (post_hoc - live).abs() < 1e-9,
            "post-hoc {post_hoc} vs live {live}"
        );
        // Too-long preamble yields None.
        assert_eq!(r.windowed_gc_io_pct(r.collection_count()), None);
    }

    #[test]
    fn telemetry_run_matches_plain_run_and_counts_decisions() {
        let trace = tiny_trace(9);
        let sim = Simulator::new(SimConfig::tiny());
        let plain = {
            let mut p = SaioPolicy::with_frac(0.10);
            replay(&sim, &trace, &mut p)
        };
        let (instrumented, telemetry) = {
            let mut p = SaioPolicy::with_frac(0.10);
            let mut sink = RunTelemetry::new(p.name());
            let r = sim
                .replay(&trace, &mut p, ReplayOptions::new().telemetry(&mut sink))
                .expect("run");
            (r, sink)
        };
        // The telemetry sink must be a pure observer: identical results.
        assert_eq!(plain, instrumented);
        assert_eq!(telemetry.decisions.len() as u64, plain.collection_count());
        // Phase accounting mirrors the trace's phase markers.
        let names: Vec<&str> = telemetry.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["GenDB", "Reorg1", "Traverse", "Reorg2"]);
        // Phase deltas sum to the whole-run totals.
        let app: u64 = telemetry.phases.iter().map(|p| p.app_io).sum();
        let gc: u64 = telemetry.phases.iter().map(|p| p.gc_io).sum();
        let events: u64 = telemetry.phases.iter().map(|p| p.events).sum();
        assert_eq!(app, plain.app_io_total);
        assert_eq!(gc, plain.gc_io_total);
        assert_eq!(events, plain.events_replayed);
        let collections: u64 = telemetry.phases.iter().map(|p| p.collections).sum();
        assert_eq!(collections, plain.collection_count());
    }

    #[test]
    fn higher_fixed_rate_means_fewer_collections_and_less_gc_io() {
        let trace = tiny_trace(7);
        let sim = Simulator::new(SimConfig::tiny());
        let run = |rate| {
            let mut p = FixedRatePolicy::new(rate);
            replay(&sim, &trace, &mut p)
        };
        let fast = run(10);
        let slow = run(200);
        assert!(fast.collection_count() > slow.collection_count());
        assert!(fast.gc_io_total > slow.gc_io_total);
        // Slower collection leaves more garbage behind on average.
        assert!(fast.total_garbage_collected >= slow.total_garbage_collected);
    }
}
