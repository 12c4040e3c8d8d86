//! The mutator/collector engine: a live store behind a session API.
//!
//! A [`StoreEngine`] owns the store, the partition selector, the rate
//! policy and the live I/O counters, and applies every event through one call,
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
//!   between turns, under a seeded deterministic scheduler, on the
//!   [`crew`] rule of who owns what, which `odbgc-net` follows too.
//!
//! A run's two measured means share one window, the part after the
//! first [`EngineConfig::preamble_collections`] collections (§3.2): the
//! engine samples the garbage share at every event in it, and
//! [`RunResult`] reads the GC-I/O share of the same window from its
//! collection series.
//!
//! The engine does not know about telemetry documents; it reports to
//! one concrete [`DecisionLog`]. Each serve-mode shard keeps one for its
//! decisions and hands it back in its [`ShardOutcome`]; a replay lent
//! one also opens the trace's phases on it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod crew;
pub mod engine;
pub mod observer;
pub mod result;
pub mod series;
pub mod serve;
pub mod session;

pub use config::EngineConfig;
pub use crew::{owner_of, run_crew, shard_of, slot_of};
pub use engine::{CollectMode, StoreEngine};
pub use observer::{CounterSnapshot, DecisionLog, DecisionRecord, PhaseTelemetry};
pub use result::RunResult;
pub use series::CollectionRecord;
pub use serve::{
    apply_ops, serve, GcFault, ObjRef, ServeConfig, ServeError, ServeErrorKind, ServeOutcome,
    SessionObjects, SessionOp, SessionWorkload, Shard, ShardOutcome, TurnApplied, TurnError,
    TurnErrorKind, WorkloadParams,
};
pub use session::{OpError, Session, SessionId};
