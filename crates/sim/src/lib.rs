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

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod experiment;
pub mod report;
pub mod runner;
pub mod simulator;
pub mod telemetry;

pub use config::SimConfig;
pub use experiment::{run_single, sweep_point, ExperimentOutcome, SweepPoint};
pub use runner::{
    default_jobs, CacheStats, CellOutcome, ExperimentPlan, FaultKind, FaultSpec, JobError,
    JobErrorKind, PlanCell, PlanOutcome, TraceCache,
};
pub use simulator::{
    BatchSource, ReplayError, ReplayOptions, RunResult, SimError, Simulator, TraceBatches,
};
pub use telemetry::{DecisionRecord, Json, PhaseTelemetry, PlanTelemetry, RunTelemetry};

pub use odbgc_engine as engine;
pub use odbgc_engine::{CollectionRecord, RunMetrics};

pub use odbgc_core as core_policies;
pub use odbgc_gc as gc;
pub use odbgc_oo7 as oo7;
pub use odbgc_store as store;
pub use odbgc_trace as trace;
