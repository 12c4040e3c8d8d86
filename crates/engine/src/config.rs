//! Engine configuration.
//!
//! One configuration type serves every driver of the engine — the
//! trace-replay simulator, direct session clients, and the serve mode —
//! so a result produced live is comparable to one produced by replay.

use odbgc_core::EstimatorKind;
use odbgc_gc::SelectorKind;
use odbgc_store::StoreConfig;

/// Configuration of one engine instance (equivalently: one simulation
/// run, which is just an engine driven by a trace).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Store geometry and semantics (paper defaults: 8 KiB pages, 12-page
    /// partitions and buffer).
    pub store: StoreConfig,
    /// Partition-selection policy (paper: UPDATEDPOINTER).
    pub selector: SelectorKind,
    /// Seed for stochastic selectors (only Random uses it).
    pub selector_seed: u64,
    /// Collections excluded from measured means (paper: 10 for the
    /// time-varying figures). The measured window opens when this many
    /// are done: the garbage mean samples every event from then on, and
    /// the GC-I/O share counts the I/O after that collection
    /// ([`crate::RunResult::windowed_gc_io_pct`]).
    pub preamble_collections: u64,
    /// Make the garbage tracker exact before every collection
    /// (`Store::recompute_garbage_exact`: trial deletion from the cycle
    /// candidates buffered since the last one). The OO7 workload never
    /// kills cycles, so nothing is found there, but it guarantees the
    /// oracle estimator is exact on any workload. The cost is
    /// proportional to the live objects the candidates reach, nothing
    /// when none are buffered.
    pub exact_oracle_recompute: bool,
    /// Run the store's deep structural audit (`assert_consistent`) and
    /// garbage-exactness check after every collection. Expensive; for
    /// tests.
    pub deep_checks: bool,
    /// Shadow estimator whose per-collection estimates are recorded into
    /// the series (for the estimation figures). Runs on the same
    /// observation stream the policy sees, so for a SAGA policy configured
    /// with the same estimator kind the recorded values equal the ones the
    /// policy used.
    pub shadow_estimator: Option<EstimatorKind>,
    /// Read by nothing: a collection runs on the thread that owns the
    /// engine, whatever this says. Kept only until the benchmark's
    /// traced pass stops setting it (ROADMAP item 1(c)).
    pub gc_workers: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            store: StoreConfig::default(),
            selector: SelectorKind::UpdatedPointer,
            selector_seed: 0,
            preamble_collections: 10,
            exact_oracle_recompute: true,
            deep_checks: false,
            shadow_estimator: None,
            gc_workers: None,
        }
    }
}

impl EngineConfig {
    /// Small geometry for unit tests.
    pub fn tiny() -> Self {
        EngineConfig {
            store: StoreConfig::tiny(),
            preamble_collections: 2,
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.preamble_collections, 10);
        assert_eq!(c.selector, SelectorKind::UpdatedPointer);
        assert_eq!(c.store.pages_per_partition, 12);
        assert!(c.exact_oracle_recompute);
        assert!(c.shadow_estimator.is_none());
        assert!(c.gc_workers.is_none());
    }
}
