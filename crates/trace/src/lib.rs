//! Database event-trace model for trace-driven ODBMS simulation.
//!
//! A *trace* is an ordered sequence of logical database events — object
//! creations, accesses, slot (pointer) writes, and root-set changes —
//! recorded or generated independently of any storage-management decisions.
//! The simulator replays a trace against a concrete store while the garbage
//! collector interleaves collections according to a rate policy, following
//! the methodology of Cook/Wolf/Zorn's persistent-storage simulator (CWZ93)
//! used in the SIGMOD'96 collection-rate paper.
//!
//! The crate deliberately knows nothing about pages, partitions, or I/O:
//! those are properties of the store that replays the trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod event;
pub mod ids;
pub mod merge;
pub mod stats;
pub mod synthetic;
#[allow(clippy::module_inception)]
pub mod trace;

pub use event::{Event, EventKind};
pub use ids::{ObjectId, PhaseId, SlotIdx};
pub use stats::TraceStats;
pub use trace::{Trace, TraceBuilder};
