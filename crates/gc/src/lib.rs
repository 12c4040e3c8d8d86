//! Partition selection for the partitioned copying garbage collector.
//!
//! The complete collection algorithm of the paper (§3.1, after CWZ94)
//! is a copying collector in the style of Cheney that collects *one
//! partition* at a time. A collection is two calls: a [`Selector`]
//! chooses the partition from [`odbgc_store::Store::partition_snapshots`],
//! and [`odbgc_store::Store::collect`] traces it from its remembered
//! cross-partition references and resident global roots, copies the
//! live objects breadth-first and compacts them, and physically reclaims
//! everything unreached — including cyclic garbage local to the
//! partition, which the store's incremental reference-count tracker
//! cannot see on its own. Pointers leaving the partition are not
//! traversed.
//!
//! Which partition to collect is decided by a [`Selector`], built from
//! its [`SelectorKind`] and dispatched by `match` over the paper's closed
//! set. The paper's experiments use UPDATEDPOINTER (the partition with
//! the most pointer overwrites since its last collection); Random,
//! RoundRobin, and an oracle MostGarbage selector are provided as
//! baselines and for ablation studies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod selection;

pub use odbgc_sched::SchedTotals;
pub use selection::{Selector, SelectorKind};
