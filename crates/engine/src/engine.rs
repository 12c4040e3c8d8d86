//! The engine core: store + collector + policy + live counters.

use odbgc_core::CollectionObservation;
use odbgc_core::{GarbageEstimator, RatePolicy, Trigger, TriggerElapsed};
use odbgc_gc::Collector;
use odbgc_store::{ApplyOutcome, CollectionApplied, Store, StoreError};
use odbgc_trace::Event;

use crate::config::EngineConfig;
use crate::metrics::RunMetrics;
use crate::observer::{CounterSnapshot, DecisionRecord, EngineObserver};
use crate::result::RunResult;
use crate::series::CollectionRecord;
use crate::session::{Session, SessionId};

/// When the engine runs due collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectMode {
    /// Check the trigger and collect inside every applied operation —
    /// the simulator's semantics, and the natural mode for a
    /// single-threaded client.
    #[default]
    Inline,
    /// Operations never collect; the driver calls
    /// [`StoreEngine::collect_if_due`] at points of its choosing (serve
    /// mode: the shard's owner, between two turns).
    Deferred,
}

/// The live mutator/collector engine.
///
/// Owns the store, the collector, the rate policy, and the trigger state
/// the simulator's replay loop used to keep in local variables. Every
/// driver — trace replay, [`Session`] clients, serve mode — goes through
/// [`StoreEngine::apply_event`], the one place the per-operation
/// sequence (apply → sample → deep-check → observe → trigger check)
/// runs.
///
/// The engine is generic over how it holds the policy: owned engines
/// (serve mode) use the default `Box<dyn RatePolicy + Send>` — which
/// makes the whole engine `Send`, so a shard can move to the thread that
/// owns it — while the simulator lends a `&mut dyn RatePolicy` without
/// giving up ownership or allocating.
pub struct StoreEngine<P: RatePolicy = Box<dyn RatePolicy + Send>> {
    config: EngineConfig,
    store: Store,
    collector: Collector,
    policy: P,
    shadow: Option<Box<dyn GarbageEstimator + Send>>,
    metrics: RunMetrics,
    records: Vec<CollectionRecord>,
    trigger: Trigger,
    // Interval baselines (at the last collection).
    app_io_base: u64,
    clock_base: u64,
    alloc_base: u64,
    events_applied: u64,
    mode: CollectMode,
}

impl<P: RatePolicy> std::fmt::Debug for StoreEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreEngine")
            .field("policy", &self.policy.name())
            .field("events_applied", &self.events_applied)
            .field("collections", &self.records.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl<P: RatePolicy> StoreEngine<P> {
    /// A fresh engine. Arms the policy's cold-start trigger immediately,
    /// exactly as the replay loop did before its first event.
    pub fn new(config: EngineConfig, mut policy: P) -> Self {
        let store = Store::new(config.store.clone());
        let collector = Collector::with_workers(
            config.selector.build(config.selector_seed),
            config.gc_workers.unwrap_or(1),
        );
        let metrics = RunMetrics::new(config.preamble_collections);
        let shadow: Option<Box<dyn GarbageEstimator + Send>> =
            config.shadow_estimator.map(|k| k.build());
        let trigger = policy.initial_trigger();
        StoreEngine {
            config,
            store,
            collector,
            policy,
            shadow,
            metrics,
            records: Vec::new(),
            trigger,
            app_io_base: 0,
            clock_base: 0,
            alloc_base: 0,
            events_applied: 0,
            mode: CollectMode::Inline,
        }
    }

    /// Sets when due collections run. See [`CollectMode`].
    pub fn set_collect_mode(&mut self, mode: CollectMode) {
        self.mode = mode;
    }

    /// Applies one event through the full per-operation sequence: store
    /// apply, metrics sample, optional deep check, observer note, and —
    /// in [`CollectMode::Inline`] — the trigger check and collection.
    /// Returns the store's per-event deltas.
    ///
    /// This is the only place that sequence runs: the simulator reaches
    /// it per trace event through [`StoreEngine::apply_batch`], sessions
    /// per operation through [`Session::apply_event`].
    pub fn apply_event(
        &mut self,
        ev: &Event,
        mut observer: Option<&mut (dyn EngineObserver + '_)>,
    ) -> Result<ApplyOutcome, StoreError> {
        let outcome = self.store.apply(ev)?;
        self.events_applied += 1;

        // `db_size_bytes` is a maintained O(1) counter, so the mean
        // samples the true size every event — including capacity
        // changes that leave the partition count unchanged.
        self.metrics
            .sample_event(self.store.garbage_bytes(), self.store.db_size_bytes());
        if self.config.deep_checks {
            self.store.assert_counters_match();
        }
        if let Some(o) = observer.as_deref_mut() {
            o.note_event(self.counters());
        }

        if self.mode == CollectMode::Inline {
            self.collect_if_due(observer);
        }
        Ok(outcome)
    }

    /// Applies a decoded block of events, each through
    /// [`StoreEngine::apply_event`].
    ///
    /// On failure, the error carries the offset *within `events`* of
    /// the event the store rejected; earlier events remain applied.
    pub fn apply_batch(
        &mut self,
        events: &[Event],
        mut observer: Option<&mut (dyn EngineObserver + '_)>,
    ) -> Result<(), (usize, StoreError)> {
        for (i, ev) in events.iter().enumerate() {
            self.apply_event(ev, observer.as_deref_mut())
                .map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// The interval elapsed since the last collection, on every time
    /// base a trigger can arm.
    fn elapsed(&self) -> TriggerElapsed {
        TriggerElapsed::new(
            self.store.io().app_total() - self.app_io_base,
            self.store.overwrite_clock() - self.clock_base,
            self.store.alloc_clock() - self.alloc_base,
        )
    }

    /// Is the armed trigger satisfied by the live counters?
    pub fn collection_due(&self) -> bool {
        self.trigger.is_due(self.elapsed())
    }

    /// Checks the trigger against the live counters and, if due, runs one
    /// collection: oracle reconciliation, partition selection and
    /// compaction, policy observation, and re-arming. Returns `None` when
    /// the trigger is not due or nothing could be collected (in which
    /// case a fresh cold-start trigger is armed).
    pub fn collect_if_due(
        &mut self,
        observer: Option<&mut (dyn EngineObserver + '_)>,
    ) -> Option<CollectionApplied> {
        if !self.trigger.is_due(self.elapsed()) {
            return None;
        }
        let app_io_since_prev = self.store.io().app_total() - self.app_io_base;
        // The exact-oracle reconciliation costs what its buffered
        // candidates reach, so it runs only when a collection can
        // actually happen — never once per event while a due trigger
        // waits for the first partition to exist.
        let outcome = if self.store.partition_count() == 0 {
            None
        } else {
            if self.config.exact_oracle_recompute {
                self.store.recompute_garbage_exact();
            }
            self.collector.collect_once(&mut self.store)
        };
        let Some(outcome) = outcome else {
            // Nothing to collect yet (e.g. the trace front-loads
            // phase markers). Re-arm a fresh trigger and reset the
            // interval baselines so the stale trigger does not
            // stay due on every subsequent event.
            self.trigger = self.policy.initial_trigger();
            self.reset_baselines();
            return None;
        };
        let obs = CollectionObservation {
            collection_index: self.records.len() as u64,
            gc_io: outcome.gc_io(),
            app_io_since_prev,
            bytes_reclaimed: outcome.bytes_reclaimed,
            overwrites_of_collected: outcome.overwrites_at_collection,
            total_outstanding_overwrites: self.store.total_outstanding_overwrites(),
            partition_count: self.store.partition_count() as u64,
            db_size: self.store.db_size_bytes(),
            total_collected: self.store.total_garbage_collected(),
            overwrite_clock: self.store.overwrite_clock(),
            alloc_clock: self.store.alloc_clock(),
            exact_garbage: self.store.garbage_bytes(),
        };
        let estimated = self.shadow.as_mut().map(|e| e.estimate(&obs));

        self.records.push(CollectionRecord {
            index: obs.collection_index,
            clock: obs.overwrite_clock,
            interval_overwrites: self.store.overwrite_clock() - self.clock_base,
            app_io_since_prev,
            gc_io: obs.gc_io,
            bytes_reclaimed: obs.bytes_reclaimed,
            partition: outcome.partition.raw(),
            db_size: obs.db_size,
            actual_garbage: obs.exact_garbage,
            estimated_garbage: estimated,
            gc_io_fraction_cum: self.store.io().gc_fraction(),
        });
        self.metrics
            .note_collection(self.store.io().app_total(), self.store.io().gc_total());

        if self.config.deep_checks {
            self.store.assert_consistent();
            self.store.assert_garbage_exact();
        }
        self.trigger = self.policy.after_collection(&obs);
        if let Some(o) = observer {
            o.note_decision(&DecisionRecord {
                index: obs.collection_index,
                observation: obs,
                trigger: self.trigger,
                clamp: self.policy.last_clamp(),
                estimated_garbage: estimated,
            });
        }
        self.reset_baselines();
        Some(outcome)
    }

    fn reset_baselines(&mut self) {
        self.app_io_base = self.store.io().app_total();
        self.clock_base = self.store.overwrite_clock();
        self.alloc_base = self.store.alloc_clock();
    }

    /// The cumulative counters observers sample after each event.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            app_io_total: self.store.io().app_total(),
            gc_io_total: self.store.io().gc_total(),
            overwrite_clock: self.store.overwrite_clock(),
            garbage_bytes: self.store.garbage_bytes(),
            db_size: self.store.db_size_bytes(),
        }
    }

    /// A session handle whose operations report to `observer`.
    pub fn session_with<'e>(
        &'e mut self,
        id: SessionId,
        observer: Option<&'e mut dyn EngineObserver>,
    ) -> Session<'e, P> {
        Session::new(id, self, observer)
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Operations applied so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Scheduler totals across this engine's collections planned on
    /// more than one worker (volatile: busy times vary run to run);
    /// all-zero under the default `gc_workers: None`.
    pub fn sched_totals(&self) -> odbgc_gc::SchedTotals {
        self.collector.sched_totals()
    }

    /// Collections performed so far.
    pub fn collection_count(&self) -> u64 {
        self.records.len() as u64
    }

    /// The policy's self-description.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Finishes the run: consumes the engine and summarizes everything
    /// it did. `phases` is driver-supplied bookkeeping (trace replays
    /// record phase markers; live drivers usually pass an empty vec).
    pub fn into_result(self, phases: Vec<(String, u64, u64)>) -> RunResult {
        RunResult {
            garbage_pct_mean: self.metrics.garbage_pct_mean(),
            gc_io_pct: self
                .metrics
                .gc_io_pct(self.store.io().app_total(), self.store.io().gc_total()),
            collections: self.records,
            app_io_total: self.store.io().app_total(),
            gc_io_total: self.store.io().gc_total(),
            total_garbage_generated: self.store.total_garbage_generated(),
            total_garbage_collected: self.store.total_garbage_collected(),
            final_db_size: self.store.db_size_bytes(),
            final_live_bytes: self.store.live_bytes(),
            final_garbage_bytes: self.store.garbage_bytes(),
            partition_count: self.store.partition_count() as u64,
            overwrite_clock: self.store.overwrite_clock(),
            events_replayed: self.events_applied,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{apply_ops, ObjRef, SessionObjects, SessionOp};
    use odbgc_core::FixedRatePolicy;
    use odbgc_trace::ObjectId;

    #[test]
    fn deferred_mode_never_collects_inline() {
        let mut engine = StoreEngine::new(EngineConfig::tiny(), Box::new(FixedRatePolicy::new(1)));
        engine.set_collect_mode(CollectMode::Deferred);
        let slot0 = |target| SessionOp::Overwrite {
            obj: ObjRef(0),
            slot: 0,
            target,
        };
        let ops = [
            SessionOp::Create { size: 40, slots: 1 },
            SessionOp::AddRoot { obj: ObjRef(0) },
            SessionOp::Create { size: 40, slots: 0 },
            slot0(Some(ObjRef(1))),
            // The first counted overwrite: a rate-1 trigger is due.
            slot0(None),
        ];
        let applied = apply_ops(
            &mut engine.session_with(SessionId::new(0), None),
            &mut SessionObjects::new(),
            &ops,
        )
        .expect("turn applies");
        assert_eq!(applied.garbage_created, 40);
        assert_eq!(engine.store().overwrite_clock(), 1);
        assert_eq!(
            engine.collection_count(),
            0,
            "deferred mode must not collect"
        );
        assert!(engine.collection_due(), "rate-1 trigger is due");
        let collected = engine.collect_if_due(None).expect("collects");
        assert!(collected.bytes_reclaimed > 0);
        assert_eq!(engine.collection_count(), 1);
    }

    /// What the benchmark's traced pass reads: two workers give the
    /// single-worker results, and only they count packets.
    #[test]
    fn two_gc_workers_change_sched_totals_and_nothing_else() {
        let (trace, _) = odbgc_oo7::Oo7App::standard(odbgc_oo7::Oo7Params::tiny(), 5).generate();
        let run = |gc_workers| {
            let config = EngineConfig {
                gc_workers,
                ..EngineConfig::tiny()
            };
            let mut engine = StoreEngine::new(config, Box::new(FixedRatePolicy::new(25)));
            for ev in trace.iter() {
                engine.apply_event(ev, None).expect("apply");
            }
            (engine.sched_totals(), engine.into_result(Vec::new()))
        };
        let (one, sequential) = run(None);
        let (two, parallel) = run(Some(2));
        assert!(sequential.collection_count() > 0, "rate-25 policy collects");
        assert_eq!(sequential, parallel);
        assert_eq!(one, odbgc_gc::SchedTotals::default());
        assert_eq!(two.collections, parallel.collection_count());
        assert!(two.packets > 0, "{two:?}");
    }

    #[test]
    fn apply_batch_error_names_the_failing_index() {
        let mut engine = StoreEngine::new(
            EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(1_000_000)),
        );
        let events = [
            Event::Create {
                id: ObjectId::new(1),
                size: 16,
                slots: Box::new([]),
            },
            Event::Access {
                id: ObjectId::new(999),
            },
        ];
        let (idx, _) = engine.apply_batch(&events, None).unwrap_err();
        assert_eq!(idx, 1, "first event applied, second failed");
        assert_eq!(engine.events_applied(), 1, "prefix before the error sticks");
    }

    #[test]
    fn fresh_ids_skip_past_replayed_ids() {
        let mut engine = StoreEngine::new(
            EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(1_000_000)),
        );
        let ev = Event::Create {
            id: ObjectId::new(7),
            size: 40,
            slots: Box::new([]),
        };
        engine.apply_event(&ev, None).expect("apply");
        let create = SessionOp::Create { size: 40, slots: 0 };
        apply_ops(
            &mut engine.session_with(SessionId::new(0), None),
            &mut SessionObjects::new(),
            &[create, create],
        )
        .expect("served creates");
        let present: Vec<u64> = (0..12)
            .filter(|&raw| engine.store().is_present(ObjectId::new(raw)))
            .collect();
        assert_eq!(present, [7, 8, 9], "served ids follow the replayed one");
        assert_eq!(engine.store().object_table_len(), 10);
    }
}
