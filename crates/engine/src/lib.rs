//! The mutator/collector engine: a live store behind a session API.
//!
//! A [`StoreEngine`] owns the store, the collector, the rate policy and
//! the live I/O counters, and applies every event through one call,
//! [`StoreEngine::apply_event`]. Trace replay (`Simulator::replay` in
//! `odbgc-sim`) is one client among many:
//!
//! * the simulator feeds trace events, phase markers included, through
//!   `apply_event` one at a time, and after each one that leaves the
//!   trigger due runs [`StoreEngine::collect_if_due`] — `apply_event`
//!   itself never collects;
//! * live clients submit [`SessionOp`]s, which [`apply_ops`] maps to the
//!   events they stand for and applies through a [`Session`]; GC
//!   triggering is driven by the same [`odbgc_core::RatePolicy`]
//!   observations — sourced from the engine's live counters rather than
//!   a replayed trace;
//! * the [`serve`](mod@serve) module runs N concurrent sessions against a store
//!   sharded by partition group, each shard draining its due collections
//!   between turns, under a seeded deterministic scheduler.
//!
//! The engine does not know about telemetry documents; it reports
//! decisions through the [`EngineObserver`] trait, which the simulator's
//! telemetry sink and the serve mode's [`DecisionLog`] both implement.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod observer;
pub mod result;
pub mod series;
pub mod serve;
pub mod session;

pub use config::EngineConfig;
pub use engine::{CollectMode, StoreEngine};
pub use metrics::RunMetrics;
pub use observer::{CounterSnapshot, DecisionLog, DecisionRecord, EngineObserver};
pub use result::RunResult;
pub use series::CollectionRecord;
pub use serve::{
    apply_ops, serve, GcFault, ObjRef, ServeConfig, ServeError, ServeErrorKind, ServeOutcome,
    SessionObjects, SessionOp, SessionWorkload, Shard, ShardOutcome, TurnApplied, TurnError,
    TurnErrorKind, WorkloadParams,
};
pub use session::{OpError, Session, SessionId};
