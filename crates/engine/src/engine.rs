//! The engine core: store + collector + policy + live counters.

use odbgc_core::CollectionObservation;
use odbgc_core::{Estimator, RatePolicy, Trigger, TriggerElapsed};
use odbgc_gc::Collector;
use odbgc_store::{ApplyOutcome, CollectionApplied, Store, StoreError};
use odbgc_trace::Event;

use crate::config::EngineConfig;
use crate::observer::{CounterSnapshot, DecisionLog, DecisionRecord};
use crate::result::RunResult;
use crate::series::CollectionRecord;
use crate::session::{Session, SessionId};

/// When the engine runs due collections: only where its driver calls
/// [`StoreEngine::collect_if_due`]. [`StoreEngine::apply_event`] never
/// collects, so this one mode is the only one; it remains a type, with
/// [`StoreEngine::set_collect_mode`], because the benchmark names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectMode {
    /// Operations never collect; the driver calls
    /// [`StoreEngine::collect_if_due`] at points of its choosing (the
    /// simulator after every event, serve mode between two turns).
    #[default]
    Deferred,
}

/// The live mutator/collector engine.
///
/// Owns the store, the collector, the rate policy, and the trigger state
/// the simulator's replay loop used to keep in local variables. Every
/// driver — trace replay, [`Session`] clients, serve mode — goes through
/// [`StoreEngine::apply_event`], the one place the per-operation
/// sequence (apply → sample → deep-check → log) runs, and collects
/// through [`StoreEngine::collect_if_due`] wherever it checks the
/// trigger: the simulator after every event, a shard between turns.
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
    shadow: Option<Estimator>,
    /// Σ garbage/db_size over the events sampled in the measured window.
    garbage_fraction_sum: f64,
    /// Events sampled into `garbage_fraction_sum`.
    garbage_samples: u64,
    records: Vec<CollectionRecord>,
    trigger: Trigger,
    // Interval baselines (at the last collection).
    app_io_base: u64,
    clock_base: u64,
    alloc_base: u64,
    events_applied: u64,
}

impl<P: RatePolicy> std::fmt::Debug for StoreEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreEngine")
            .field("policy", &self.policy.name())
            .field("events_applied", &self.events_applied)
            .field("collections", &self.records.len())
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
        let shadow = config.shadow_estimator.map(|k| k.build());
        let trigger = policy.initial_trigger();
        StoreEngine {
            config,
            store,
            collector,
            policy,
            shadow,
            garbage_fraction_sum: 0.0,
            garbage_samples: 0,
            records: Vec::new(),
            trigger,
            app_io_base: 0,
            clock_base: 0,
            alloc_base: 0,
            events_applied: 0,
        }
    }

    /// Does nothing: [`CollectMode::Deferred`] is the only mode.
    pub fn set_collect_mode(&mut self, mode: CollectMode) {
        let _ = mode;
    }

    /// Applies one event through the full per-operation sequence: store
    /// apply, garbage sample, optional deep check, and accounting to the
    /// open phase of `log`, if it has one. It never collects; the driver
    /// follows it with [`StoreEngine::collect_if_due`] where it wants
    /// collections to fall. Returns the store's per-event deltas.
    ///
    /// This is the only place that sequence runs: the simulator reaches
    /// it per trace event directly, sessions per operation through
    /// [`Session::apply_event`].
    pub fn apply_event(
        &mut self,
        ev: &Event,
        log: Option<&mut DecisionLog>,
    ) -> Result<ApplyOutcome, StoreError> {
        let outcome = self.store.apply(ev)?;
        self.events_applied += 1;

        // §4.1's means are "sampled at each database event" once the
        // preamble's collections are done (§3.2). `db_size_bytes` is a
        // maintained O(1) counter, so the mean samples the true size
        // every event — including capacity changes that leave the
        // partition count unchanged.
        let db_size = self.store.db_size_bytes();
        if self.records.len() as u64 >= self.config.preamble_collections && db_size > 0 {
            self.garbage_fraction_sum += self.store.garbage_bytes() as f64 / db_size as f64;
            self.garbage_samples += 1;
        }
        if self.config.deep_checks {
            self.store.assert_counters_match();
        }
        if let Some(log) = log {
            log.note_event(self.counters());
        }
        Ok(outcome)
    }

    /// Applies a decoded block of events, each through
    /// [`StoreEngine::apply_event`], collecting nothing. A convenience
    /// for callers holding a slice; it amortizes nothing.
    ///
    /// On failure, the error carries the offset *within `events`* of
    /// the event the store rejected; earlier events remain applied.
    pub fn apply_batch(
        &mut self,
        events: &[Event],
        mut log: Option<&mut DecisionLog>,
    ) -> Result<(), (usize, StoreError)> {
        for (i, ev) in events.iter().enumerate() {
            self.apply_event(ev, log.as_deref_mut())
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
    /// case a fresh cold-start trigger is armed). A collection appends
    /// its [`DecisionRecord`] to `log` and counts to its open phase.
    pub fn collect_if_due(&mut self, log: Option<&mut DecisionLog>) -> Option<CollectionApplied> {
        if !self.collection_due() {
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

        if self.config.deep_checks {
            self.store.assert_consistent();
            self.store.assert_garbage_exact();
        }
        self.trigger = self.policy.after_collection(&obs);
        if let Some(log) = log {
            log.note_decision(DecisionRecord {
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

    /// The cumulative counters a [`DecisionLog`] accounts phases by.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            app_io_total: self.store.io().app_total(),
            gc_io_total: self.store.io().gc_total(),
            overwrite_clock: self.store.overwrite_clock(),
            garbage_bytes: self.store.garbage_bytes(),
            db_size: self.store.db_size_bytes(),
        }
    }

    /// A session handle whose operations report to `log`.
    pub fn session_with<'e>(
        &'e mut self,
        id: SessionId,
        log: Option<&'e mut DecisionLog>,
    ) -> Session<'e, P> {
        Session::new(id, self, log)
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Operations applied so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Crew totals across this engine's collections planned on more
    /// than one worker (volatile: steals and busy times vary run to run);
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
        let mut result = RunResult {
            garbage_pct_mean: (self.garbage_samples > 0)
                .then(|| 100.0 * self.garbage_fraction_sum / self.garbage_samples as f64),
            gc_io_pct: None,
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
        };
        result.gc_io_pct = result.windowed_gc_io_pct(self.config.preamble_collections);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{
        apply_ops, ObjRef, SessionObjects, SessionOp, SessionWorkload, WorkloadParams,
    };
    use odbgc_core::FixedRatePolicy;
    use odbgc_trace::ObjectId;

    #[test]
    fn deferred_mode_never_collects_inline() {
        let mut engine = StoreEngine::new(EngineConfig::tiny(), Box::new(FixedRatePolicy::new(1)));
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
        assert_eq!(engine.collection_count(), 0, "a turn never collects");
        assert!(engine.collection_due(), "rate-1 trigger is due");
        // The driver's collection reads the live counters the turn left.
        let collected = engine.collect_if_due(None).expect("collects");
        assert_eq!(collected.bytes_reclaimed, 40);
        assert_eq!(engine.store().total_garbage_collected(), 40);
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
                engine.collect_if_due(None);
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

    /// The call shape of the benchmark's `apply_turns_direct`: one
    /// default log lent to every turn's session and to the drain after
    /// it. Sessions account to no phase, so only the drain records.
    #[test]
    fn a_log_lent_to_turns_and_drains_holds_one_record_per_collection() {
        let run = |log: Option<&mut DecisionLog>| {
            let mut engine =
                StoreEngine::new(EngineConfig::tiny(), Box::new(FixedRatePolicy::new(4)));
            let mut log = log;
            let mut objects = SessionObjects::new();
            let mut workload = SessionWorkload::new(0, WorkloadParams::default(), 2_000);
            loop {
                let ops = workload.next_turn(8);
                if ops.is_empty() {
                    break;
                }
                let mut session = engine.session_with(SessionId::new(0), log.as_deref_mut());
                apply_ops(&mut session, &mut objects, &ops).expect("turn applies");
                while engine.collect_if_due(log.as_deref_mut()).is_some() {}
            }
            engine.into_result(Vec::new())
        };
        let mut log = DecisionLog::default();
        let logged = run(Some(&mut log));
        assert!(logged.collection_count() > 0, "rate-4 policy collects");
        assert_eq!(log.decisions.len() as u64, logged.collection_count());
        assert!(log
            .decisions
            .iter()
            .zip(0..)
            .all(|(d, i)| d.observation.collection_index == i));
        assert!(log.phases.is_empty(), "no phase was opened");
        assert_eq!(logged, run(None), "the log is off the decision path");
    }

    /// Replays OO7-tiny under a rate-25 policy, collecting only while
    /// fewer than `max_collections` are done. Returns the result, the
    /// mean garbage percentage read after each event that found the
    /// preamble's collections done and the database non-empty, and the
    /// count of events before the preamble ended.
    fn replay_tiny(config: EngineConfig, max_collections: u64) -> (RunResult, Option<f64>, u64) {
        let (trace, _) = odbgc_oo7::Oo7App::standard(odbgc_oo7::Oo7Params::tiny(), 5).generate();
        let preamble = config.preamble_collections;
        let mut engine = StoreEngine::new(config, Box::new(FixedRatePolicy::new(25)));
        let (mut sum, mut samples, mut early) = (0.0, 0u64, 0u64);
        for ev in trace.iter() {
            engine.apply_event(ev, None).expect("apply");
            let db_size = engine.store().db_size_bytes();
            if engine.collection_count() < preamble {
                early += 1;
            } else if db_size > 0 {
                sum += engine.store().garbage_bytes() as f64 / db_size as f64;
                samples += 1;
            }
            if engine.collection_count() < max_collections {
                engine.collect_if_due(None);
            }
        }
        let mean = (samples > 0).then(|| 100.0 * sum / samples as f64);
        (engine.into_result(Vec::new()), mean, early)
    }

    #[test]
    fn preamble_excludes_early_samples() {
        let (r, mean, early) = replay_tiny(EngineConfig::tiny(), u64::MAX);
        assert!(r.collection_count() > 2, "past the preamble of 2");
        assert!(early > 0, "events before the second collection");
        assert!(mean.is_some());
        assert_eq!(r.garbage_pct_mean, mean);
        let from_start = EngineConfig {
            preamble_collections: 0,
            ..EngineConfig::tiny()
        };
        assert_ne!(
            r.garbage_pct_mean,
            replay_tiny(from_start, u64::MAX).0.garbage_pct_mean,
            "the preamble's events are not in the mean"
        );
    }

    #[test]
    fn never_leaving_preamble_yields_none() {
        let config = EngineConfig {
            preamble_collections: 5,
            ..EngineConfig::tiny()
        };
        let (r, mean, _) = replay_tiny(config, 4);
        assert_eq!(r.collection_count(), 4);
        assert_eq!(mean, None);
        assert_eq!(r.garbage_pct_mean, None);
        assert_eq!(r.gc_io_pct, None);
    }

    #[test]
    fn zero_preamble_measures_from_the_start() {
        let config = EngineConfig {
            preamble_collections: 0,
            ..EngineConfig::tiny()
        };
        let (r, mean, early) = replay_tiny(config, u64::MAX);
        assert_eq!(early, 0);
        assert!(mean.is_some());
        assert_eq!(r.garbage_pct_mean, mean);
        assert_eq!(r.gc_io_pct, Some(r.gc_io_pct_whole_run()));
    }

    /// A run of exactly `preamble_collections` collections has a window
    /// with application I/O and no collection in it: both shares read it.
    #[test]
    fn a_run_of_exactly_the_preamble_measures_an_empty_gc_window() {
        let (r, mean, _) = replay_tiny(EngineConfig::tiny(), 2);
        assert_eq!(r.collection_count(), 2);
        let before: u64 = r.collections.iter().map(|c| c.app_io_since_prev).sum();
        assert!(r.app_io_total > before, "the window saw application I/O");
        assert_eq!(r.gc_io_pct, Some(0.0));
        assert_eq!(r.windowed_gc_io_pct(r.collection_count()), r.gc_io_pct);
        assert_eq!(r.garbage_pct_mean, mean);
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
