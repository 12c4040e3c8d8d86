//! Partitioned object store with page-level I/O accounting.
//!
//! This crate is the storage substrate of the SIGMOD'96 collection-rate
//! reproduction: a database of logical objects placed in fixed-size
//! *partitions* (12 × 8 KiB pages by default, §3.1 of the paper), accessed
//! through an LRU *buffer pool* the same size as one partition, with every
//! page transfer charged to either the application or the garbage collector.
//!
//! The store replays [`odbgc_trace::Event`]s. It additionally maintains:
//!
//! * **remembered sets** — per-partition records of incoming cross-partition
//!   references, which provide the root set for partitioned collection;
//! * **pointer-overwrite counters** — per-partition counts of overwritten
//!   pointers whose old target lived in that partition (the fine-grain
//!   state of the FGS/HB estimator and the input to the UPDATEDPOINTER
//!   partition-selection policy), plus the global overwrite clock that the
//!   SAGA policy uses as its time base;
//! * **exact garbage accounting** — an incremental reference-count cascade
//!   (exact whenever dying structures are acyclic at death, which the OO7
//!   workload guarantees) plus a buffer of cycle candidates — objects that
//!   lost a holder while their count stayed positive — from which
//!   [`Store::recompute_garbage_exact`] finds dead cycles by trial
//!   deletion, in time proportional to the live objects the candidates
//!   reach. The oracle estimator runs it before every collection; a
//!   full-reachability mark ([`Store::compute_reachable`]) remains as the
//!   reference that validation tests hold it against.
//!
//! Allocation never triggers collection: when no partition has room, a new
//! partition is appended (§3.1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod buffer;
pub mod config;
pub mod error;
pub mod gcapi;
pub mod ids;
pub mod io;
pub mod object;
pub mod partition;
pub mod remset;
#[allow(clippy::module_inception)]
pub mod store;
pub mod tracker;

pub use config::{AllocPolicy, OverwriteSemantics, StoreConfig};
pub use error::StoreError;
pub use gcapi::{CollectionApplied, PartitionSnapshot};
pub use ids::{PageKey, PartitionId};
pub use io::{IoClass, IoLedger, IoSnapshot};
pub use store::{ApplyOutcome, ReachSet, Store, StoreView};

pub use odbgc_trace::{Event, ObjectId, SlotIdx};
