//! Partitioned copying garbage collector.
//!
//! The complete collection algorithm of the paper (§3.1, after CWZ94):
//! a copying collector in the style of Cheney that collects *one partition*
//! at a time. Collection roots are the remembered cross-partition
//! references into the partition plus any global roots resident there.
//! Live objects are copied breadth-first and compacted; pointers leaving
//! the partition are not traversed. Everything unreached is physically
//! reclaimed — including cyclic garbage local to the partition, which the
//! store's incremental reference-count tracker cannot see on its own.
//!
//! Which partition to collect is decided by a [`Selector`], built from
//! its [`SelectorKind`] and dispatched by `match` over the paper's closed
//! set. The paper's experiments use UPDATEDPOINTER (the partition with
//! the most pointer overwrites since its last collection); Random,
//! RoundRobin, and an oracle MostGarbage selector are provided as
//! baselines and for ablation studies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod parallel;
pub mod selection;

pub use collector::Collector;
pub use odbgc_sched::SchedTotals;
pub use parallel::plan_survivors_parallel;
pub use selection::{Selector, SelectorKind};
