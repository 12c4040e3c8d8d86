//! Work-packet GC scheduler.
//!
//! Collection work is expressed as typed *packets* — self-contained
//! units that read a shared context and write only into themselves —
//! grouped into *buckets* that execute in stage order: a bucket opens
//! only when its predecessor has drained (the mmtk-core scheduler
//! discipline). Within a bucket, packets run on a pool of collector
//! workers with work-stealing deques; across buckets, the caller merges
//! per-packet results in packet-index order.
//!
//! Determinism is the hard constraint, and the division of labor that
//! guarantees it is baked into the [`Packet`] trait: its context is
//! read-only, so packets that run *concurrently* may race only on who
//! executes first, never on data. Each packet owns its output, so the
//! set of per-packet results is a pure function of the inputs, whatever
//! the worker count or steal schedule. Mutation is the caller's job,
//! between buckets, on its own thread.
//!
//! The caller then performs the *deterministic reduction*: iterate the
//! bucket's packets in index order and fold their outputs. Because
//! packet outputs are schedule-independent and the fold order is
//! canonical, the reduction — survivor sets, I/O counters, garbage
//! tallies — is byte-identical at any worker count.
//!
//! What *does* vary run to run (worker busy times, steal counts, packet
//! placement) is surfaced separately as [`BucketStats`] /
//! [`SchedStats`], which callers must treat as volatile telemetry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod packet;
pub mod pool;
pub mod stats;

pub use packet::Packet;
pub use pool::Scheduler;
pub use stats::{BucketStats, SchedStats, SchedTotals, WorkerLoad};
