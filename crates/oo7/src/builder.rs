//! The GenDB phase: building the initial OO7 database.

use odbgc_trace::TraceBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{
    AssemblyMirror, CompositeMirror, ConnMirror, GenState, ModuleMirror, PartMirror,
};
use crate::params::Oo7Params;
use crate::schema::{
    composite_part_slot, module_library_slot, part_in_slot, part_out_slot, Kind,
    COMPOSITE_DOC_SLOT, MODULE_MANUAL_SLOT, MODULE_ROOT_ASSM_SLOT,
};

/// Builds the initial database, emitting its GenDB trace, and returns the
/// generator state for the subsequent phases.
pub fn build(params: Oo7Params, seed: u64) -> GenState {
    params.validate();
    let mut trace = TraceBuilder::with_capacity(1 << 16);
    trace.phase("GenDB");
    let rng = StdRng::seed_from_u64(seed);

    // Module (rooted) and manual.
    let module_id = {
        let n = Kind::Module.slot_count(&params);
        trace.create_unlinked(Kind::Module.size(&params), n)
    };
    trace.root_add(module_id);
    let manual_id = {
        let n = Kind::Manual.slot_count(&params);
        trace.create_unlinked(Kind::Manual.size(&params), n)
    };
    trace.slot_write(
        module_id,
        odbgc_trace::SlotIdx::new(MODULE_MANUAL_SLOT),
        Some(manual_id),
    );

    let mut state = GenState {
        params,
        trace,
        rng,
        module: ModuleMirror {
            id: module_id,
            manual: manual_id,
            assemblies: Vec::new(),
            composites: Vec::new(),
        },
        skipped_connections: 0,
    };

    build_assembly_tree(&mut state);
    for ci in 0..params.num_comp_per_module {
        build_composite(&mut state, ci);
    }
    link_base_assemblies(&mut state);
    state
}

/// Builds the assembly hierarchy top-down: `num_assm_levels − 1` levels of
/// complex assemblies, then one level of base assemblies.
fn build_assembly_tree(state: &mut GenState) {
    let levels = state.params.num_assm_levels;
    let fanout = state.params.num_assm_per_assm;

    let root_id = state.create_unlinked(if levels == 1 {
        Kind::BaseAssembly
    } else {
        Kind::ComplexAssembly
    });
    state.write(state.module.id, MODULE_ROOT_ASSM_SLOT, root_id);
    state.module.assemblies.push(AssemblyMirror {
        id: root_id,
        children: Vec::new(),
        composites: Vec::new(),
        is_base: levels == 1,
    });

    let mut frontier = vec![0usize];
    for level in 2..=levels {
        let is_base = level == levels;
        let kind = if is_base {
            Kind::BaseAssembly
        } else {
            Kind::ComplexAssembly
        };
        let mut next = Vec::with_capacity(frontier.len() * fanout as usize);
        for &parent in &frontier {
            for slot in 0..fanout {
                let id = state.create_unlinked(kind);
                let parent_id = state.module.assemblies[parent].id;
                state.write(parent_id, slot, id);
                state.module.assemblies.push(AssemblyMirror {
                    id,
                    children: Vec::new(),
                    composites: Vec::new(),
                    is_base,
                });
                let idx = state.module.assemblies.len() - 1;
                state.module.assemblies[parent].children.push(idx);
                next.push(idx);
            }
        }
        frontier = next;
    }
}

/// Builds one composite part: the composite object, its document, its
/// atomic parts, and the connection graph among them.
fn build_composite(state: &mut GenState, ci: u32) {
    let comp_id = state.create_unlinked(Kind::CompositePart);
    state.write(state.module.id, module_library_slot(ci), comp_id);

    let doc_id = state.create_unlinked(Kind::Document);
    state.write(comp_id, COMPOSITE_DOC_SLOT, doc_id);

    let n_parts = state.params.num_atomic_per_comp;
    let mut parts = Vec::with_capacity(n_parts as usize);
    for pi in 0..n_parts {
        let part_id = state.create_unlinked(Kind::AtomicPart);
        state.write(comp_id, composite_part_slot(pi), part_id);
        parts.push(Some(PartMirror::new(part_id, &state.params)));
    }
    state
        .module
        .composites
        .push(CompositeMirror::new(comp_id, doc_id, parts));

    for pi in 0..n_parts {
        for _ in 0..state.params.num_conn_per_atomic {
            add_connection(state, ci, pi);
        }
    }
}

/// Adds one connection from part `pi` of composite `ci` to a random other
/// live part of the same composite with free in-capacity. Increments
/// `skipped_connections` when no placement is possible.
pub fn add_connection(state: &mut GenState, ci: u32, pi: u32) {
    let comp = &state.module.composites[ci as usize];
    let Some(from_slot) = comp.part(pi).free_out_slot() else {
        state.skipped_connections += 1;
        return;
    };
    let Some(qi) = comp.connection_target(pi, &mut state.rng) else {
        state.skipped_connections += 1;
        return;
    };
    let to_slot = comp.part(qi).free_in_slot().expect("candidate has space");
    let from_id = comp.part(pi).id;
    let to_id = comp.part(qi).id;

    let conn_id = match state.params.conn_style {
        crate::params::ConnStyle::Bidirectional => {
            let id = state.create(Kind::Connection, vec![Some(from_id), Some(to_id)]);
            state.write(from_id, part_out_slot(from_slot), id);
            state.write(to_id, part_in_slot(&state.params, to_slot), id);
            id
        }
        crate::params::ConnStyle::Forward => {
            // The connection only points forward; the target part holds no
            // reference to it (to_slot indexes the mirror only).
            let id = state.create(Kind::Connection, vec![Some(to_id)]);
            state.write(from_id, part_out_slot(from_slot), id);
            id
        }
    };

    let mirror = ConnMirror {
        id: conn_id,
        from: pi,
        from_slot,
        to: qi,
        to_slot,
    };
    state.module.composites[ci as usize].connect(mirror);
}

/// Points each base assembly at `num_comp_per_assm` random composites.
fn link_base_assemblies(state: &mut GenState) {
    let n_comps = state.params.num_comp_per_module;
    let base_indices: Vec<usize> = state
        .module
        .assemblies
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.is_base.then_some(i))
        .collect();
    for ai in base_indices {
        for slot in 0..state.params.num_comp_per_assm {
            let ci = state.rng.random_range(0..n_comps);
            let assm_id = state.module.assemblies[ai].id;
            let comp_id = state.module.composites[ci as usize].id;
            state.write(assm_id, slot, comp_id);
            state.module.assemblies[ai].composites.push(ci);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_store::{Store, StoreConfig};

    fn replayed(params: Oo7Params, seed: u64) -> (GenState, Store) {
        let state = build(params, seed);
        // Clone the events out without finishing the builder.
        let mut store = Store::new(StoreConfig::tiny());
        // Rebuild a trace view: TraceBuilder has no peek, so go through a
        // fresh build for replay determinism.
        let trace = build(params, seed).trace.finish();
        for ev in trace.iter() {
            store.apply(ev).expect("GenDB trace must replay cleanly");
        }
        (state, store)
    }

    #[test]
    fn tiny_database_replays_cleanly_with_exact_tracking() {
        let (_state, store) = replayed(Oo7Params::tiny(), 1);
        store.assert_garbage_exact();
        assert_eq!(store.garbage_bytes(), 0, "GenDB creates no garbage");
        assert_eq!(store.overwrite_clock(), 0, "GenDB overwrites nothing");
    }

    #[test]
    fn object_census_matches_params() {
        let p = Oo7Params::tiny();
        let (state, store) = replayed(p, 2);
        let m = &state.module;
        assert_eq!(m.composites.len(), p.num_comp_per_module as usize);
        // Assembly count: levels 2, fanout 2 → 1 root + 2 base = 3.
        assert_eq!(m.assemblies.len(), 3);
        assert_eq!(
            m.assemblies.iter().filter(|a| a.is_base).count() as u64,
            p.num_base_assemblies()
        );
        let expected_objects = 1 // module
            + 1 // manual
            + 3 // assemblies
            + p.num_comp_per_module as u64 * 2 // composite + doc
            + p.num_atomic_parts()
            + p.num_connections()
            - state.skipped_connections;
        assert_eq!(store.present_objects(), expected_objects);
        assert_eq!(store.live_bytes(), store.occupied_bytes());
    }

    #[test]
    fn every_part_has_full_out_degree() {
        let p = Oo7Params::tiny();
        let state = build(p, 3);
        assert_eq!(state.skipped_connections, 0);
        for comp in &state.module.composites {
            for pm in comp.parts().iter().flatten() {
                assert_eq!(pm.out_degree(), p.num_conn_per_atomic as usize);
            }
        }
    }

    #[test]
    fn connections_stay_within_composite_and_avoid_self() {
        let state = build(Oo7Params::tiny(), 4);
        for comp in &state.module.composites {
            for (pi, pm) in comp.parts().iter().enumerate() {
                for c in pm.as_ref().unwrap().out.iter().flatten() {
                    assert_eq!(c.from as usize, pi);
                    assert_ne!(c.to, c.from, "self-connection");
                    // Both endpoint mirrors agree.
                    let to = comp.part(c.to);
                    assert_eq!(to.in_[c.to_slot as usize], Some(*c));
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let p = Oo7Params::tiny();
        let a = build(p, 42).trace.finish();
        let b = build(p, 42).trace.finish();
        let c = build(p, 43).trace.finish();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn small_prime_builds_at_scale() {
        let p = Oo7Params::small_prime(3);
        let state = build(p, 7);
        assert_eq!(state.skipped_connections, 0);
        assert_eq!(state.module.composites.len(), 150);
        assert_eq!(state.module.assemblies.len(), 121 + 243);
        let trace = state.trace.finish();
        let stats = trace.stats();
        // 1 module + 1 manual + 364 assemblies + 150 comps + 150 docs
        // + 3000 parts + 9000 connections.
        assert_eq!(stats.objects_created, 12_666);
    }
}
