//! The exact-garbage reconcile does work in proportion to what changed
//! since the last one, asserted on the store's own count of pointers
//! followed (`Store::reconcile_visited`) rather than on a clock.

use odbgc_sim::core_policies::{RatePolicy, SaioPolicy};
use odbgc_sim::engine::{
    apply_ops, EngineConfig, SessionId, SessionObjects, SessionWorkload, StoreEngine,
    WorkloadParams,
};
use odbgc_sim::oo7::{Oo7App, Oo7Params};

fn saio_engine() -> StoreEngine {
    let policy: Box<dyn RatePolicy + Send> = Box::new(SaioPolicy::with_frac(0.10));
    StoreEngine::new(EngineConfig::default(), policy)
}

#[test]
fn oo7_reconcile_follows_a_fraction_of_the_heap() {
    // Small′ (41 collections, half of them while the database is still
    // being built) and the benchmark's `replay_saio` trace (252).
    for params in [Oo7Params::small_prime(3), Oo7Params::small(9)] {
        let trace = Oo7App::standard(params, 1).generate().0;
        let mut engine = saio_engine();
        // What a mark from the roots at every collection would have
        // visited, in objects (it follows a pointer into each).
        let mut full_marks = 0u64;
        for ev in trace.iter() {
            let collections = engine.collection_count();
            engine.apply_event(ev, None).expect("trace replays");
            if engine.collection_count() > collections {
                full_marks += engine.store().present_objects();
            }
        }
        assert!(engine.collection_count() > 40, "the run collects");
        let visited = engine.store().reconcile_visited();
        assert!(
            visited * 10 <= full_marks,
            "reconciles followed {visited} pointers; {} full marks are {full_marks} objects",
            engine.collection_count()
        );
    }
}

#[test]
fn session_workload_never_needs_trial_deletion() {
    // Anchors stay rooted and their children have no slots, so every
    // death is a count reaching zero.
    let mut engine = saio_engine();
    let mut workload = SessionWorkload::new(0, WorkloadParams::default(), 20_000);
    let mut objects = SessionObjects::new();
    loop {
        let ops = workload.next_turn(8);
        if ops.is_empty() {
            break;
        }
        apply_ops(
            &mut engine.session_with(SessionId::new(0), None),
            &mut objects,
            &ops,
        )
        .expect("generated turns apply");
    }
    assert!(engine.collection_count() > 0, "the run collects");
    assert_eq!(engine.store().reconcile_visited(), 0);
}
