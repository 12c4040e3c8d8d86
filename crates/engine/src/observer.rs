//! Observation of a running engine: counter snapshots, decision records
//! and the one run log both go to.
//!
//! The engine never formats or stores telemetry documents itself. A
//! driver lends it a [`DecisionLog`]: [`StoreEngine::apply_event`]
//! accounts each applied operation to the log's open phase, if it has
//! one, and [`StoreEngine::collect_if_due`] appends one
//! [`DecisionRecord`] per collection and counts it to that phase. Serve
//! mode keeps one log per shard with no phase open and hands it back in
//! the shard's [`ShardOutcome`]; a replay lent a log opens the implicit
//! `<start>` phase on it and moves through the trace's phases. Both
//! produce the *same* records, so a decision logged from live counters
//! is directly comparable to one logged from a replay. The simulator
//! renders a log as JSON.
//!
//! [`StoreEngine::apply_event`]: crate::StoreEngine::apply_event
//! [`StoreEngine::collect_if_due`]: crate::StoreEngine::collect_if_due
//! [`ShardOutcome`]: crate::ShardOutcome

use odbgc_core::{ClampHit, CollectionObservation, Trigger};

/// The name of the phase [`DecisionLog::open_start_phase`] opens, which
/// accounts the events before a replay's first phase marker.
const START_PHASE: &str = "<start>";

/// The engine's cumulative counters at one point of a run (all totals
/// since the engine was created).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Total application page I/O.
    pub app_io_total: u64,
    /// Total collector page I/O.
    pub gc_io_total: u64,
    /// Cumulative pointer overwrites.
    pub overwrite_clock: u64,
    /// Exact garbage bytes currently in the store.
    pub garbage_bytes: u64,
    /// Allocated storage in bytes.
    pub db_size: u64,
}

/// One policy trigger decision: what the policy saw and what it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The observation handed to `after_collection`; its
    /// `collection_index` is the decision's index.
    pub observation: CollectionObservation,
    /// The trigger the policy returned.
    pub trigger: Trigger,
    /// Whether a configured clamp bounded the decision.
    pub clamp: ClampHit,
    /// The shadow estimator's `ActGarb` for this observation, if a
    /// shadow estimator was configured.
    pub estimated_garbage: Option<f64>,
}

impl DecisionRecord {
    /// Signed estimator error: `estimated − exact_garbage` bytes.
    pub fn estimate_error(&self) -> Option<f64> {
        self.estimated_garbage
            .map(|e| e - self.observation.exact_garbage as f64)
    }
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

/// In-progress accounting for the open phase.
#[derive(Debug, Clone)]
struct PhaseAccumulator {
    name: String,
    events: u64,
    collections: u64,
    start: CounterSnapshot,
    garbage_pct_sum: f64,
    garbage_pct_samples: u64,
}

impl PhaseAccumulator {
    fn open(name: String, start: CounterSnapshot) -> Self {
        PhaseAccumulator {
            name,
            events: 0,
            collections: 0,
            start,
            garbage_pct_sum: 0.0,
            garbage_pct_samples: 0,
        }
    }

    fn close(self, end: CounterSnapshot) -> PhaseTelemetry {
        PhaseTelemetry {
            name: self.name,
            events: self.events,
            collections: self.collections,
            app_io: end.app_io_total - self.start.app_io_total,
            gc_io: end.gc_io_total - self.start.gc_io_total,
            overwrites: end.overwrite_clock - self.start.overwrite_clock,
            garbage_pct_mean: (self.garbage_pct_samples > 0)
                .then(|| self.garbage_pct_sum / self.garbage_pct_samples as f64),
        }
    }
}

/// What the engine reports a run to: every policy decision, and the
/// per-phase accounting of the phases it was told about.
///
/// A `DecisionLog::default()` has no open phase, so it ignores events
/// and keeps decisions only; that is what each serve-mode shard keeps.
/// A replay opens the `<start>` phase on the log it is lent
/// ([`DecisionLog::open_start_phase`]) and from then on the log accounts
/// events and collections to the phase [`DecisionLog::enter_phase`] last
/// opened.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    /// Decisions in the order they were made, one per collection: no-op
    /// re-arms (a due trigger before any partition exists) are not
    /// decisions.
    pub decisions: Vec<DecisionRecord>,
    /// Closed phases, in the order they were entered.
    pub phases: Vec<PhaseTelemetry>,
    current: Option<PhaseAccumulator>,
}

impl DecisionLog {
    /// Opens the implicit `<start>` phase at zero counters, the start of
    /// a run: events before the first [`DecisionLog::enter_phase`] accrue
    /// to it, and it is dropped if it sees none.
    pub fn open_start_phase(&mut self) {
        let zero = CounterSnapshot::default();
        self.current = Some(PhaseAccumulator::open(START_PHASE.to_owned(), zero));
    }

    /// Closes the open phase, if any, and opens `name` at the counters
    /// `snap`.
    pub fn enter_phase(&mut self, name: &str, snap: CounterSnapshot) {
        self.finish(snap);
        self.current = Some(PhaseAccumulator::open(name.to_owned(), snap));
    }

    /// Closes the open phase, if any, at the counters `snap`. The
    /// implicit start phase vanishes if nothing happened in it.
    pub fn finish(&mut self, snap: CounterSnapshot) {
        if let Some(acc) = self.current.take() {
            if !(acc.name == START_PHASE && acc.events == 0) {
                self.phases.push(acc.close(snap));
            }
        }
    }

    /// Accounts one applied operation to the open phase, if any.
    pub(crate) fn note_event(&mut self, snap: CounterSnapshot) {
        if let Some(acc) = self.current.as_mut() {
            acc.events += 1;
            if snap.db_size > 0 {
                acc.garbage_pct_sum += 100.0 * snap.garbage_bytes as f64 / snap.db_size as f64;
                acc.garbage_pct_samples += 1;
            }
        }
    }

    /// Records one policy decision and counts it to the open phase.
    pub(crate) fn note_decision(&mut self, record: DecisionRecord) {
        if let Some(acc) = self.current.as_mut() {
            acc.collections += 1;
        }
        self.decisions.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(app: u64, gc: u64, ow: u64, garbage: u64, db: u64) -> CounterSnapshot {
        CounterSnapshot {
            app_io_total: app,
            gc_io_total: gc,
            overwrite_clock: ow,
            garbage_bytes: garbage,
            db_size: db,
        }
    }

    fn decision(trigger: Trigger) -> DecisionRecord {
        DecisionRecord {
            observation: CollectionObservation::zero(),
            trigger,
            clamp: ClampHit::None,
            estimated_garbage: None,
        }
    }

    #[test]
    fn estimate_error_is_signed() {
        let rec = DecisionRecord {
            observation: CollectionObservation {
                exact_garbage: 1_000,
                ..CollectionObservation::zero()
            },
            trigger: Trigger::after_app_io(10),
            clamp: ClampHit::None,
            estimated_garbage: Some(750.0),
        };
        assert_eq!(rec.estimate_error(), Some(-250.0));
        let no_shadow = DecisionRecord {
            estimated_garbage: None,
            ..rec
        };
        assert_eq!(no_shadow.estimate_error(), None);
    }

    #[test]
    fn decision_log_collects_records() {
        let mut log = DecisionLog::default();
        log.note_event(snap(0, 0, 0, 0, 0));
        assert!(log.decisions.is_empty());
        log.note_decision(decision(Trigger::after_overwrites(5)));
        assert_eq!(log.decisions.len(), 1);
        assert_eq!(log.decisions[0].trigger, Trigger::after_overwrites(5));
        log.finish(snap(0, 0, 0, 0, 0));
        assert!(log.phases.is_empty(), "no phase was ever open");
    }

    #[test]
    fn phase_accumulator_reports_deltas_not_totals() {
        let mut t = DecisionLog::default();
        t.open_start_phase();
        t.note_event(snap(5, 0, 0, 0, 100)); // pre-marker event → <start>
        t.enter_phase("A", snap(5, 0, 0, 0, 100));
        t.note_event(snap(10, 2, 1, 50, 100));
        t.note_decision(decision(Trigger::after_overwrites(5)));
        t.note_event(snap(20, 2, 3, 25, 100));
        t.enter_phase("B", snap(20, 2, 3, 25, 100));
        t.note_event(snap(30, 8, 4, 0, 0)); // zero db size: no sample
        t.finish(snap(30, 8, 4, 0, 0));

        assert_eq!(t.phases.len(), 3);
        assert_eq!(t.phases[0].name, "<start>");
        assert_eq!(t.phases[0].events, 1);
        let a = &t.phases[1];
        assert_eq!((a.name.as_str(), a.events, a.collections), ("A", 2, 1));
        assert_eq!((a.app_io, a.gc_io, a.overwrites), (15, 2, 3));
        assert_eq!(a.garbage_pct_mean, Some((50.0 + 25.0) / 2.0));
        let b = &t.phases[2];
        assert_eq!((b.app_io, b.gc_io, b.overwrites), (10, 6, 1));
        assert_eq!(b.garbage_pct_mean, None);
    }

    #[test]
    fn empty_start_phase_is_dropped() {
        let mut t = DecisionLog::default();
        t.open_start_phase();
        let snap = snap(0, 0, 0, 0, 0);
        t.enter_phase("First", snap);
        t.note_event(snap);
        t.finish(snap);
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.phases[0].name, "First");
    }
}
