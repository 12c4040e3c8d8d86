//! The Traverse phase: a read-only depth-first traversal.
//!
//! Visits the module, manual, the assembly hierarchy, and — for each
//! composite — the document and the atomic-part graph, following
//! out-connections depth-first from each yet-unvisited part. Emits one
//! `Access` event per object visited. No pointers change, so no garbage
//! can be created and SAGA's overwrite clock stands still (§4.1.2:
//! "'time' does not progress between the end of Reorg1 and the beginning
//! of Reorg2").

use crate::model::GenState;

/// Runs the Traverse phase, returning the number of objects visited.
pub fn traverse(state: &mut GenState) -> u64 {
    state.trace.phase("Traverse");
    let n_comps = state.module.composites.len();
    let mut visited_comps = vec![false; n_comps];
    let mut count = 0u64;

    let module_id = state.module.id;
    let manual_id = state.module.manual;
    state.trace.access(module_id);
    state.trace.access(manual_id);
    count += 2;

    // Depth-first over the assembly tree (arena index 0 is the root).
    let mut stack = vec![0usize];
    let mut comp_order: Vec<u32> = Vec::with_capacity(n_comps);
    while let Some(ai) = stack.pop() {
        let assembly = &state.module.assemblies[ai];
        state.trace.access(assembly.id);
        count += 1;
        // Children pushed in reverse so traversal visits them in order.
        stack.extend(assembly.children.iter().rev());
        for &ci in &assembly.composites {
            if !std::mem::replace(&mut visited_comps[ci as usize], true) {
                comp_order.push(ci);
            }
        }
    }
    // Composites in the order the assembly walk discovered them, then any
    // the base assemblies missed (reachable via the design library).
    for ci in 0..n_comps as u32 {
        if !std::mem::replace(&mut visited_comps[ci as usize], true) {
            comp_order.push(ci);
        }
    }
    for ci in comp_order {
        count += traverse_composite(state, ci);
    }
    count
}

/// Visits one composite: its object, document, and part graph (DFS via
/// out-connections; parts not reachable through connections are started
/// from the parts set).
fn traverse_composite(state: &mut GenState, ci: u32) -> u64 {
    let GenState { trace, module, .. } = state;
    let comp = &module.composites[ci as usize];
    trace.access(comp.id);
    trace.access(comp.doc);
    let mut count = 2u64;

    let parts = comp.parts();
    let mut visited = vec![false; parts.len()];
    let mut stack = Vec::new();
    for start in 0..parts.len() {
        if parts[start].is_none() || visited[start] {
            continue;
        }
        stack.push(start as u32);
        while let Some(pi) = stack.pop() {
            if std::mem::replace(&mut visited[pi as usize], true) {
                continue;
            }
            let pm = comp.part(pi);
            trace.access(pm.id);
            count += 1;
            for c in pm.out.iter().rev().flatten() {
                trace.access(c.id);
                count += 1;
                if !visited[c.to as usize] {
                    stack.push(c.to);
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use crate::params::Oo7Params;
    use odbgc_store::{Store, StoreConfig};
    use odbgc_trace::{Event, EventKind};

    #[test]
    fn traverse_is_read_only() {
        let mut state = build(Oo7Params::tiny(), 1);
        traverse(&mut state);
        let trace = state.trace.finish();
        let mut store = Store::new(StoreConfig::tiny());
        for ev in trace.iter() {
            store.apply(ev).expect("traverse must replay cleanly");
        }
        assert_eq!(store.overwrite_clock(), 0);
        assert_eq!(store.garbage_bytes(), 0);
        store.assert_garbage_exact();
    }

    #[test]
    fn traverse_visits_every_live_object_exactly_once() {
        let p = Oo7Params::tiny();
        let mut state = build(p, 2);
        let visited = traverse(&mut state);
        let trace = state.trace.finish();
        let stats = trace.stats();
        // Connections may be fewer if any were skipped (none at tiny
        // scale), so the access count equals total objects created.
        assert_eq!(visited, stats.objects_created);
        // No duplicate accesses.
        let mut seen = std::collections::HashSet::new();
        for ev in trace.iter() {
            if let Event::Access { id } = ev {
                assert!(seen.insert(*id), "object {id} accessed twice");
            }
        }
        assert_eq!(stats.count(EventKind::Access), stats.objects_created);
    }

    #[test]
    fn traverse_after_reorg_skips_dead_objects() {
        let mut state = build(Oo7Params::tiny(), 3);
        crate::reorg::reorg_clustered(&mut state);
        let visited = traverse(&mut state);
        let trace = state.trace.finish();
        let mut store = Store::new(StoreConfig::tiny());
        for ev in trace.iter() {
            store.apply(ev).expect("trace must replay cleanly");
        }
        // Visiting a garbage object would have errored during replay.
        store.assert_garbage_exact();
        assert!(visited > 0);
    }

    #[test]
    fn traverse_is_deterministic() {
        let count = |seed| {
            let mut s = build(Oo7Params::tiny(), seed);
            traverse(&mut s);
            s.trace.finish()
        };
        assert_eq!(count(9), count(9));
    }
}
