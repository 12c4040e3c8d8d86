//! Helpers shared by the store's integration tests.

use odbgc_store::{PartitionId, Store};
use odbgc_trace::ObjectId;

/// What a correct collector keeps of partition `p`: the residents
/// reachable from the partition's roots without leaving it.
pub fn survivors_of(store: &Store, p: PartitionId) -> Vec<ObjectId> {
    let mut survivors = Vec::new();
    let mut stack = store.partition_roots(p);
    while let Some(cur) = stack.pop() {
        if survivors.contains(&cur) {
            continue;
        }
        survivors.push(cur);
        for t in store.slots_of(cur).expect("survivor exists").flatten() {
            if store.partition_of(t) == Ok(p) {
                stack.push(t);
            }
        }
    }
    survivors
}
