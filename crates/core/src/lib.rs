//! Semi-automatic, self-adaptive collection-rate policies.
//!
//! This crate is the primary contribution of *Cook, Klauser, Zorn & Wolf,
//! "Semi-automatic, Self-adaptive Control of Garbage Collection Rates in
//! Object Databases" (SIGMOD 1996)*: deciding **how often** a partitioned
//! object-database garbage collector should run.
//!
//! Collecting too often wastes I/O on reclamation; collecting too rarely
//! lets garbage accumulate. There is no global optimum — it is a
//! time/space trade-off — so the policies here are *semi-automatic*: the
//! user states a goal, and the policy adapts the collection rate to the
//! observed application behavior to meet it.
//!
//! * [`SaioPolicy`] — "Semi-Automatic I/O": hold garbage-collection I/O at
//!   a requested fraction of total I/O operations.
//! * [`SagaPolicy`] — "Semi-Automatic GArbage": hold database garbage at a
//!   requested fraction of database size. SAGA cannot observe garbage
//!   directly, so it consults the [`Estimator`] its [`EstimatorKind`]
//!   names, one `match` over the paper's closed set (§2.4): the exact
//!   [`Estimator::Oracle`] (simulator-only), [`Estimator::CgsCb`]
//!   (coarse-grain state / current behavior), or [`Estimator::FgsHb`]
//!   (fine-grain state / history behavior, state in [`FgsHb`]).
//! * [`FixedRatePolicy`] and [`connectivity_heuristic_rate`] — the
//!   non-adaptive baselines §2.1 shows to be inadequate.
//! * [`OpportunisticPolicy`] and [`CoupledSaioPolicy`] — the paper's §5
//!   future-work directions, implemented as composable wrappers.
//!
//! A policy's settings are exactly the fields of its [`PolicySpec`]
//! variant, and each constructor takes those and nothing else. What the
//! paper fixes is a constant beside the code that reads it:
//! [`SaioPolicy::INITIAL_INTERVAL`], [`SaioPolicy::MIN_INTERVAL`] and
//! [`SaioPolicy::MAX_INTERVAL`]; SAGA's slope weight
//! [`WeightedSlope::PAPER_WEIGHT`], its lower clamp [`SagaPolicy::DT_MIN`]
//! and its default upper clamp [`SagaPolicy::PAPER_DT_MAX`]; the coupled
//! policy's [`CoupledSaioPolicy::DEFAULT_STRETCH`] and its estimator's
//! [`FgsHb::PAPER_H`].
//!
//! The crate is pure control logic: it depends on nothing but the
//! [`CollectionObservation`] fed to it after every collection, and returns
//! a [`Trigger`] saying when the next collection should run. This keeps
//! the policies testable in closed-loop unit tests without a store.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod estimator;
pub mod estimators;
pub mod ewma;
pub mod extensions;
pub mod fixed;
pub mod policy;
pub mod saga;
pub mod saio;
pub mod slope;
pub mod spec;

pub use estimator::{Estimator, EstimatorKind};
pub use estimators::fgs_hb::FgsHb;
pub use ewma::Ewma;
pub use extensions::coupled::CoupledSaioPolicy;
pub use extensions::opportunistic::OpportunisticPolicy;
pub use fixed::{connectivity_heuristic_rate, AllocationRatePolicy, FixedRatePolicy};
pub use policy::{
    ClampHit, CollectionObservation, HistoryLen, RatePolicy, Trigger, TriggerElapsed,
};
pub use saga::SagaPolicy;
pub use saio::SaioPolicy;
pub use slope::WeightedSlope;
pub use spec::{PolicySpec, SpecError};
