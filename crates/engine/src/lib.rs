//! The mutator/collector engine: a live store behind a session API.
//!
//! Historically the only way to drive the store + collector + rate-policy
//! combination was [`Simulator::replay`] in `odbgc-sim`: a closed loop
//! that consumed a recorded trace. This crate extracts that loop's core
//! into a [`StoreEngine`] that owns the store, the collector, the policy,
//! and the live I/O counters, and applies every event through one call,
//! [`StoreEngine::apply_event`], so replay becomes one client among many:
//!
//! * the simulator feeds trace events through
//!   [`StoreEngine::apply_batch`], a loop over `apply_event`;
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
//!
//! [`Simulator::replay`]: https://docs.rs/odbgc-sim

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
