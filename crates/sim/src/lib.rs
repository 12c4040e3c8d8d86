//! Trace-driven simulator for collection-rate experiments.
//!
//! Ties the substrates together exactly as the paper's simulation
//! environment does (§3.2): a trace of database events is replayed through
//! the partitioned store; after every event the simulator samples the
//! garbage percentage (the paper's approximation of a uniform sample under
//! an active workload); the rate policy's trigger is checked against the
//! elapsed application I/O and pointer overwrites; and when it fires, the
//! collector runs, the policy observes the outcome, and a fresh trigger is
//! armed.
//!
//! Results deliberately separate a *preamble* — the cold-start collections
//! (paper: 10–30, usually near 10) — from the measured remainder, and
//! experiments aggregate means over multiple seeds, reporting min/mean/max
//! (the paper's error bars).
//!
//! This crate re-exports nothing it does not define: the run
//! configuration and results ([`odbgc_engine::EngineConfig`],
//! [`odbgc_engine::RunResult`]), the policies (`odbgc_core`), the store,
//! the collector, the workload and the trace model are imported from
//! their own crates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod report;
pub mod runner;
pub mod scale;
pub mod simulator;
pub mod telemetry;

pub use experiment::{run_single, sweep_point, ExperimentOutcome, SweepPoint};
pub use runner::{
    default_jobs, CacheStats, CellOutcome, ExperimentPlan, FaultKind, FaultSpec, JobError,
    JobErrorKind, PlanCell, PlanOutcome, TraceCache,
};
pub use scale::DbScale;
pub use simulator::{BatchSource, ReplayError, ReplayOptions, SimError, Simulator, TraceBatches};
pub use telemetry::{plan_document, run_document, Json};

// Compiles and runs README.md's Rust blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
