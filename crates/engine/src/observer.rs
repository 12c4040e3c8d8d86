//! Observation of a running engine: counter snapshots and decision
//! records.
//!
//! The engine never formats or stores telemetry itself; it hands
//! observations to an [`EngineObserver`]. The simulator's telemetry sink
//! implements the trait to build its JSON documents, and serve mode uses
//! the plain [`DecisionLog`] collector — both see the *same* records, so
//! a decision logged from live counters is directly comparable to one
//! logged from a replay.

use odbgc_core::{ClampHit, CollectionObservation, Trigger};

/// Running totals sampled from the engine's live counters after each
/// operation (all cumulative since the engine was created).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Decision index (equals the collection index it followed).
    pub index: u64,
    /// The observation handed to `after_collection`.
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

/// A sink for engine observations.
///
/// Both methods default to no-ops so observers can implement only what
/// they care about. Observers are strictly off the decision path: the
/// engine behaves identically whether or not one is attached.
pub trait EngineObserver {
    /// Called after every applied operation with the engine's cumulative
    /// counters.
    fn note_event(&mut self, snap: CounterSnapshot) {
        let _ = snap;
    }

    /// Called after every policy decision (one per collection).
    fn note_decision(&mut self, record: &DecisionRecord) {
        let _ = record;
    }
}

/// The simplest observer: collects every [`DecisionRecord`].
///
/// Serve mode attaches one per shard, which is how `odbgc serve-bench`
/// reports decisions made against live I/O counters.
#[derive(Debug, Default)]
pub struct DecisionLog {
    /// Decisions in the order they were made.
    pub decisions: Vec<DecisionRecord>,
}

impl EngineObserver for DecisionLog {
    fn note_decision(&mut self, record: &DecisionRecord) {
        self.decisions.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_error_is_signed() {
        let rec = DecisionRecord {
            index: 0,
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
        log.note_event(CounterSnapshot {
            app_io_total: 0,
            gc_io_total: 0,
            overwrite_clock: 0,
            garbage_bytes: 0,
            db_size: 0,
        });
        assert!(log.decisions.is_empty());
        log.note_decision(&DecisionRecord {
            index: 0,
            observation: CollectionObservation::zero(),
            trigger: Trigger::after_overwrites(5),
            clamp: ClampHit::None,
            estimated_garbage: None,
        });
        assert_eq!(log.decisions.len(), 1);
        assert_eq!(log.decisions[0].trigger, Trigger::after_overwrites(5));
    }
}
