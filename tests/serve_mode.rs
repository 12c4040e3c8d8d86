//! Acceptance tests for the in-process serve mode (ISSUE 6).
//!
//! Two guarantees pin the mutator/collector split:
//!
//! 1. **Fidelity** — the serve path (sessions, collections deferred to
//!    the end of each turn) is not a second implementation of replay
//!    semantics. A single-session serve-mode
//!    run over a trace must produce a `RunResult` *byte-identical*
//!    (`Debug` is exact for floats) to `Simulator::replay` of the same
//!    trace under the same policy.
//! 2. **Safety under concurrency** — N sessions interleaved by the
//!    seeded scheduler, with `deep_checks` auditing the store and the
//!    exact-garbage oracle after every collection, complete every
//!    operation; and the whole run is a pure function of its seeds.

use odbgc_core::{EstimatorKind, PolicySpec};
use odbgc_engine::{
    apply_ops, serve, EngineConfig, RunResult, ServeConfig, ServeOutcome, SessionId,
    SessionObjects, SessionWorkload, Shard, StoreEngine, WorkloadParams,
};
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::{ReplayOptions, Simulator};
use odbgc_trace::{Event, ObjectId, Trace};

const SEEDS: [u64; 3] = [11, 22, 33];

fn specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::fixed(25),
        PolicySpec::saio(0.10),
        PolicySpec::saga(0.08, EstimatorKind::Oracle),
    ]
}

/// Replays a trace through the serve path: one shard, one session, one
/// event per turn, every due collection drained before the next event —
/// so collections fall between the same pair of events as in the
/// simulator's loop (fresh triggers are clamped to ≥ 1 elapsed unit, so the drain
/// never fires a second real collection).
fn replay_on_shard(config: EngineConfig, trace: &Trace, spec: &PolicySpec) -> RunResult {
    let mut shard = Shard::new(0, &config, spec.build());
    let mut phases: Vec<(String, u64, u64)> = Vec::new();
    for (i, ev) in trace.iter().enumerate() {
        if let Event::Phase { id } = ev {
            let name = trace.phase_name(*id).unwrap_or("<unknown>").to_owned();
            phases.push((name, i as u64, shard.collection_count()));
        }
        shard
            .turn(SessionId::new(0), |sess| sess.apply_event(ev))
            .unwrap_or_else(|e| panic!("event {i}: {e}"))
            .unwrap_or_else(|e| panic!("event {i}: {e}"));
        shard.collect_due();
    }
    assert!(shard.failure().is_none(), "{:?}", shard.failure());
    shard.into_outcome(phases).result
}

/// Golden equivalence: the same grid the frozen hot-path transcript
/// covers, replayed through the session API with collections drained at
/// turn boundaries, must match `Simulator::replay`, which collects after
/// the event that made the trigger due, bit for bit.
#[test]
fn single_session_serve_replay_matches_simulator() {
    for spec in specs() {
        for seed in SEEDS {
            let (trace, _) = Oo7App::standard(Oo7Params::tiny(), seed).generate();

            let mut policy = spec.build();
            let replayed = Simulator::new(EngineConfig::tiny())
                .replay(&trace, policy.as_mut(), ReplayOptions::new())
                .expect("replay");

            let served = replay_on_shard(EngineConfig::tiny(), &trace, &spec);

            assert_eq!(
                format!("{replayed:#?}"),
                format!("{served:#?}"),
                "serve-mode replay diverged from Simulator::replay \
                 for spec={spec} seed={seed}"
            );
        }
    }
}

fn audited_config(sessions: u32, shards: u32, scheduler_seed: u64) -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            deep_checks: true,
            ..EngineConfig::tiny()
        },
        sessions,
        shards,
        ops_per_session: 600,
        batch: 8,
        scheduler_seed,
        workload: WorkloadParams::default(),
        gc_fault: None,
    }
}

fn run_audited(sessions: u32, shards: u32, scheduler_seed: u64) -> ServeOutcome {
    serve(audited_config(sessions, shards, scheduler_seed), |_| {
        PolicySpec::fixed(20).build()
    })
    .expect("serve run")
}

/// Four sessions on two shards, with the store's deep structural audit
/// and the exact-garbage check running after every collection.
#[test]
fn concurrent_sessions_stay_consistent_under_deep_checks() {
    let outcome = run_audited(4, 2, 7);
    assert_eq!(outcome.per_session_ops, vec![600, 600, 600, 600]);
    let collections: u64 = outcome
        .shards
        .iter()
        .map(|s| s.result.collection_count())
        .sum();
    assert!(collections > 0, "the audit must actually exercise GC");
    for (i, shard) in outcome.shards.iter().enumerate() {
        assert_eq!(
            shard.log.decisions.len() as u64,
            shard.result.collection_count(),
            "shard {i}: one decision record per collection"
        );
    }
}

/// The serve run is a pure function of its seeds: schedule, per-session
/// op counts, and every shard result reproduce exactly.
#[test]
fn serve_runs_are_deterministic_under_a_fixed_seed() {
    let a = run_audited(4, 2, 9);
    let b = run_audited(4, 2, 9);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.per_session_ops, b.per_session_ops);
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(sa.result, sb.result);
        assert_eq!(
            format!("{:?}", sa.log.decisions),
            format!("{:?}", sb.log.decisions)
        );
    }

    // ... and a different scheduler seed produces a different
    // interleaving (the schedule is genuinely seed-driven, not fixed).
    let c = run_audited(4, 2, 10);
    assert_ne!(a.schedule, c.schedule);
}

/// A served store on the paper geometry, audited after every collection.
/// Two sessions alternate turns until their anchors and children spread
/// over several partitions, so most collected partitions are entered
/// by remembered references — the roots whose survival a collection no
/// longer re-checks in release builds.
#[test]
fn long_served_run_on_the_paper_geometry_stays_consistent_under_deep_checks() {
    let config = EngineConfig {
        deep_checks: true,
        ..EngineConfig::default()
    };
    let mut engine: StoreEngine = StoreEngine::new(config, PolicySpec::saio(0.10).build());
    let mut workloads: Vec<SessionWorkload> = (0..2)
        .map(|s| SessionWorkload::new(s, WorkloadParams::default(), 30_000))
        .collect();
    let mut objects = [SessionObjects::new(), SessionObjects::new()];
    let (mut collections, mut remembered_into_collected) = (0, 0);
    for s in (0..2).cycle() {
        let ops = workloads[s].next_turn(8);
        if ops.is_empty() {
            break;
        }
        let mut sess = engine.session_with(SessionId::new(s as u32), None);
        apply_ops(&mut sess, &mut objects[s], &ops).expect("served turn");
        while let Some(applied) = engine.collect_if_due(None) {
            collections += 1;
            // The engine audited the store already; count the collected
            // partitions whose roots include a non-global one.
            let store = engine.store();
            let global: Vec<ObjectId> = store.roots().collect();
            if store
                .partition_roots(applied.partition)
                .iter()
                .any(|r| global.binary_search(r).is_err())
            {
                remembered_into_collected += 1;
            }
        }
    }
    assert!(
        remembered_into_collected * 2 > collections,
        "{remembered_into_collected} of {collections} collections had remembered roots"
    );
}
