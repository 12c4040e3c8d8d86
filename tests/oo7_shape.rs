//! Structural checks of the generated OO7 database and workload against
//! §3.3–3.4 of the paper (Table 1, Figure 3), including the physical
//! clustering contrast between the two reorganizations.

use odbgc_oo7::{Kind, Oo7App, Oo7Params, Phase};
use odbgc_store::{Store, StoreConfig};
use odbgc_trace::{Event, Trace};

fn replay(trace: &Trace) -> Store {
    let mut store = Store::new(StoreConfig::default());
    for ev in trace.iter() {
        store.apply(ev).expect("replays cleanly");
    }
    store
}

#[test]
fn small_prime_census_matches_table_1() {
    let (_, chars) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    assert_eq!(chars.counts[&Kind::Module], 1);
    assert_eq!(chars.counts[&Kind::Manual], 1);
    assert_eq!(chars.counts[&Kind::ComplexAssembly], 121);
    assert_eq!(chars.counts[&Kind::BaseAssembly], 243);
    assert_eq!(chars.counts[&Kind::CompositePart], 150);
    assert_eq!(chars.counts[&Kind::Document], 150);
    assert_eq!(chars.counts[&Kind::AtomicPart], 3_000);
    assert_eq!(chars.counts[&Kind::Connection], 9_000);
    assert_eq!(chars.bytes[&Kind::Document], 150 * 2_000);
    assert_eq!(chars.bytes[&Kind::Manual], 100 * 1_024);
}

#[test]
fn database_size_is_in_the_papers_range() {
    // Paper §3.3: "the test database ranges from approximately 3.7 to 7.9
    // megabytes in size" across connectivities, counting allocated
    // storage over the application's life.
    let mut sizes = Vec::new();
    for conn in [3, 6, 9] {
        let (trace, _) = Oo7App::standard(Oo7Params::small_prime(conn), 1).generate();
        let store = replay(&trace);
        sizes.push(store.db_size_bytes() as f64 / 1_048_576.0);
    }
    assert!(
        sizes[0] > 2.0 && sizes[0] < 5.0,
        "conn 3 db size {} MB",
        sizes[0]
    );
    assert!(
        sizes[2] > sizes[0] + 1.0,
        "db must grow with connectivity: {sizes:?}"
    );
    assert!(sizes[2] < 10.0, "conn 9 db size {} MB", sizes[2]);
}

#[test]
fn overwrites_happen_only_in_reorganizations() {
    let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    let mut store = Store::new(StoreConfig::default());
    let mut clock_at_phase = Vec::new();
    for ev in trace.iter() {
        if let Event::Phase { id } = ev {
            clock_at_phase.push((
                trace.phase_name(*id).unwrap().to_owned(),
                store.overwrite_clock(),
            ));
        }
        store.apply(ev).expect("replays");
    }
    clock_at_phase.push(("<end>".into(), store.overwrite_clock()));
    let find = |name: &str| {
        clock_at_phase
            .iter()
            .position(|(n, _)| n == name)
            .expect("phase present")
    };
    let gendb = find("GenDB");
    let reorg1 = find("Reorg1");
    let traverse = find("Traverse");
    let reorg2 = find("Reorg2");
    // No overwrites during GenDB…
    assert_eq!(clock_at_phase[gendb].1, 0);
    assert_eq!(clock_at_phase[reorg1].1, 0);
    // …plenty during Reorg1…
    let after_reorg1 = clock_at_phase[traverse].1;
    assert!(after_reorg1 > 1_000);
    // …none during Traverse…
    assert_eq!(clock_at_phase[reorg2].1, after_reorg1);
    // …and plenty again during Reorg2, of similar magnitude (§3.4: the
    // reorganizations perform approximately the same amount of work).
    let reorg2_ow = clock_at_phase[reorg2 + 1].1 - clock_at_phase[reorg2].1;
    let reorg1_ow = after_reorg1;
    let ratio = reorg2_ow as f64 / reorg1_ow as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "reorg work should be comparable, ratio {ratio}"
    );
}

#[test]
fn reorg2_declusters_physical_layout() {
    // Measure traversal locality after a clustered reorganization vs a
    // declustered one: the same read-only traversal misses the buffer
    // more often when composite parts are physically scattered.
    let traverse_io = |phases: Vec<Phase>| {
        let app = Oo7App::with_phases(Oo7Params::small_prime(3), 1, phases);
        let (trace, _) = app.generate();
        let mut store = Store::new(StoreConfig::default());
        let mut at_traverse = None;
        for ev in trace.iter() {
            if let Event::Phase { id } = ev {
                if trace.phase_name(*id) == Some("Traverse") {
                    at_traverse = Some(store.io().app_total());
                }
            }
            store.apply(ev).expect("replays");
        }
        store.io().app_total() - at_traverse.expect("traverse phase present")
    };
    let clustered = traverse_io(vec![Phase::GenDb, Phase::Reorg1, Phase::Traverse]);
    let declustered = traverse_io(vec![Phase::GenDb, Phase::Reorg2, Phase::Traverse]);
    assert!(
        declustered > clustered,
        "declustered traversal ({declustered} I/Os) must cost more than clustered ({clustered})"
    );
}

#[test]
fn garbage_per_overwrite_exceeds_naive_prediction() {
    // §2.1's measured fact behind the strawman's failure.
    let (trace, chars) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    let store = replay(&trace);
    let actual = store.total_garbage_generated() as f64 / store.overwrite_clock() as f64;
    let naive = chars.avg_object_size() / chars.avg_connectivity();
    assert!(
        actual > 1.3 * naive,
        "actual garbage/overwrite {actual:.1} should exceed naive {naive:.1}"
    );
}

#[test]
fn tracker_stays_exact_across_the_whole_workload() {
    let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 5).generate();
    let store = replay(&trace);
    store.assert_garbage_exact();
    // Uncollected runs retain every byte of generated garbage.
    assert_eq!(store.garbage_bytes(), store.total_garbage_generated());
}
