//! Network serve front-end for the odbgc engine.
//!
//! A socket layer that multiplexes client connections onto engine
//! shards ([`odbgc_engine::Shard`]) from a fixed set of event loops,
//! each the one owner of its shards:
//!
//! * [`proto`] — the framed wire protocol: `[len][body][crc32]` frames
//!   (OTBF's length-prefix + CRC conventions), varint-encoded session
//!   ops addressed by per-session creation index, and admin ops
//!   (stats, graceful shutdown). Framing and parsing both have
//!   buffer-reusing entry points ([`proto::write_frame_with`],
//!   [`proto::read_frame_into`]) so steady-state traffic allocates
//!   nothing per frame.
//! * [`poll`] — a hand-rolled `poll(2)` binding (the crate's one
//!   foreign call and one `unsafe` block, no external crates) plus the
//!   self-wake descriptor each event loop registers in its own poll
//!   set.
//! * [`conn`] — per-connection state: [`FrameAssembler`] partial-frame
//!   reassembly, the buffered write side, and the session binding.
//! * [`server`] — [`NetServer`]: readiness-driven event loops, one per
//!   shard by default ([`NetConfig::net_threads`] caps the count), each
//!   polling thousands of non-blocking connections. The loop that owns a
//!   shard applies its turns inline and drains its due collections
//!   between turns; a connection moves to that loop when its `Hello`
//!   names a session. Credit-based per-client windows with explicit
//!   `Busy` backpressure, idle-connection reaping, and graceful drain
//!   that loses zero acknowledged operations all carry over from the
//!   blocking server unchanged.
//! * [`client`] — [`Conn`] (strict request/response primitive, reusing
//!   its read/write buffers across requests), [`run_client`] (seeded
//!   load driver running the same `SessionWorkload` the in-process
//!   serve mode schedules, so loopback and in-process runs are
//!   telemetry-identical for the same seeds), and [`run_clients`]
//!   (N sessions multiplexed round-robin from one process).
//!
//! Everything engine-level (what a turn *does*) lives in
//! `odbgc-engine`; this crate only moves turns across a socket and
//! accounts for them.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod conn;
pub mod poll;
pub mod proto;
pub mod server;

pub use client::{
    run_client, run_clients, ClientConfig, ClientError, ClientReport, Conn, MultiClientReport,
};
pub use conn::FrameAssembler;
pub use proto::{
    frame_into, read_frame_into, write_frame_with, ClientCounters, ErrorCode, ProtoError, Request,
    Response, ShardStats, StatsSnapshot,
};
pub use server::{BindError, LoopStats, NetConfig, NetOutcome, NetServer};
