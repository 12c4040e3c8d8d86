//! The wire protocol: framed, CRC-checked, varint-encoded requests and
//! responses.
//!
//! A frame is `[u32 LE body length][body][u32 LE CRC32(body)]` — the
//! same length-prefix + CRC32 conventions OTBF uses for trace blocks, so
//! corruption is detected at the frame boundary before any field is
//! parsed. The body is one tag byte followed by LEB128 varint fields
//! (strings are varint-length-prefixed UTF-8).
//!
//! The protocol is strictly request/response: every request elicits
//! exactly one response, in order. Flow control is credit-based — see
//! [`Request::Hello`] and [`Request::Ack`] — which keeps the window
//! accounting deterministic: a [`Response::Busy`] depends only on the
//! sequence of frames the client sent, never on timing.

use odbgc_engine::{ObjRef, SessionOp};
use odbgc_tracefile::crc32::crc32;
use odbgc_tracefile::varint::{get_u64, put_u64};

/// Hard cap on a frame body, bytes. A turn of a few thousand ops is a
/// few tens of KiB; anything near the cap is a corrupt length prefix.
pub const MAX_FRAME: u32 = 1 << 20;

/// Largest object a [`SessionOp::Create`] may ask for over the wire,
/// bytes: 16 times the OO7 Medium manual, far below the sizes at which a
/// partition's `u32` capacity runs out.
pub const MAX_CREATE_SIZE: u32 = 1 << 24;

/// Most closed-connection records a [`Response::StatsOk`] carries (the
/// most recent ones). A [`ClientCounters`] encodes in at most 66 bytes —
/// a five-byte session varint, six ten-byte `u64` varints and the
/// clean-close byte — so a full complement takes about half of
/// [`MAX_FRAME`] and leaves the other half to the shard table, however
/// many connections the server has seen close.
pub const STATS_MAX_CLIENTS: usize = 1 << 13;

/// Most pointer slots a [`SessionOp::Create`] may ask for over the wire.
/// The server allocates the slots before the store sees the op, so the
/// bound is checked while decoding, before anything is allocated. The
/// creates of one `Ops` body may together ask for no more slots than
/// the body has bytes, so a frame costs the store's slot arena at most
/// 8 bytes per wire byte.
pub const MAX_CREATE_SLOTS: u32 = 1 << 16;

/// Frame overhead outside the body: 4-byte length + 4-byte CRC.
pub const FRAME_OVERHEAD: u64 = 8;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A frame- or field-level protocol failure.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (includes read timeouts, which the
    /// server maps to idle ticks).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// The body CRC did not match.
    Crc {
        /// CRC computed over the received body.
        got: u32,
        /// CRC carried by the frame.
        want: u32,
    },
    /// The body ended before a field was complete.
    Truncated,
    /// An unknown request/response/op tag.
    BadTag(u8),
    /// A field held an out-of-range or malformed value.
    BadValue(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket: {e}"),
            ProtoError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::Crc { got, want } => {
                write!(f, "frame CRC mismatch: got {got:08x}, want {want:08x}")
            }
            ProtoError::Truncated => write!(f, "truncated frame body"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            ProtoError::BadValue(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Appends one complete frame — length prefix, body, CRC32 trailer — to
/// `out`. This is the single serialization point every write path funnels
/// through, so a frame always hits the socket as one contiguous buffer;
/// [`FrameAssembler`](crate::conn::FrameAssembler) is the one reader.
pub fn frame_into(out: &mut Vec<u8>, body: &[u8]) {
    debug_assert!(body.len() as u64 <= MAX_FRAME as u64);
    out.reserve(body.len() + FRAME_OVERHEAD as usize);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

// ---------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------

fn get(buf: &[u8], pos: &mut usize) -> Result<u64, ProtoError> {
    get_u64(buf, pos).ok_or(ProtoError::Truncated)
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, ProtoError> {
    u32::try_from(get(buf, pos)?).map_err(|_| ProtoError::BadValue("u32 overflow"))
}

fn get_bool(buf: &[u8], pos: &mut usize) -> Result<bool, ProtoError> {
    match get(buf, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ProtoError::BadValue("bool must be 0 or 1")),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, ProtoError> {
    let len = get(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(ProtoError::Truncated)?;
    if end > buf.len() {
        return Err(ProtoError::Truncated);
    }
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| ProtoError::BadValue("string is not UTF-8"))?
        .to_owned();
    *pos = end;
    Ok(s)
}

fn done(buf: &[u8], pos: usize) -> Result<(), ProtoError> {
    if pos == buf.len() {
        Ok(())
    } else {
        Err(ProtoError::BadValue("trailing bytes after message"))
    }
}

// ---------------------------------------------------------------------
// Session ops on the wire
// ---------------------------------------------------------------------

const OP_CREATE: u8 = 0;
const OP_ACCESS: u8 = 1;
const OP_OVERWRITE: u8 = 2;
const OP_ADD_ROOT: u8 = 3;
const OP_REMOVE_ROOT: u8 = 4;

fn put_op(out: &mut Vec<u8>, op: &SessionOp) {
    match *op {
        SessionOp::Create { size, slots } => {
            out.push(OP_CREATE);
            put_u64(out, size as u64);
            put_u64(out, slots as u64);
        }
        SessionOp::Access { obj } => {
            out.push(OP_ACCESS);
            put_u64(out, obj.0);
        }
        SessionOp::Overwrite { obj, slot, target } => {
            out.push(OP_OVERWRITE);
            put_u64(out, obj.0);
            put_u64(out, slot as u64);
            match target {
                Some(t) => {
                    put_u64(out, 1);
                    put_u64(out, t.0);
                }
                None => put_u64(out, 0),
            }
        }
        SessionOp::AddRoot { obj } => {
            out.push(OP_ADD_ROOT);
            put_u64(out, obj.0);
        }
        SessionOp::RemoveRoot { obj } => {
            out.push(OP_REMOVE_ROOT);
            put_u64(out, obj.0);
        }
    }
}

fn get_op(buf: &[u8], pos: &mut usize) -> Result<SessionOp, ProtoError> {
    let tag = *buf.get(*pos).ok_or(ProtoError::Truncated)?;
    *pos += 1;
    Ok(match tag {
        OP_CREATE => {
            let (size, slots) = (get_u32(buf, pos)?, get_u32(buf, pos)?);
            if size > MAX_CREATE_SIZE {
                return Err(ProtoError::BadValue("create size exceeds MAX_CREATE_SIZE"));
            }
            if slots > MAX_CREATE_SLOTS {
                return Err(ProtoError::BadValue(
                    "create slot count exceeds MAX_CREATE_SLOTS",
                ));
            }
            SessionOp::Create { size, slots }
        }
        OP_ACCESS => SessionOp::Access {
            obj: ObjRef(get(buf, pos)?),
        },
        OP_OVERWRITE => {
            let obj = ObjRef(get(buf, pos)?);
            let slot = get_u32(buf, pos)?;
            let target = if get_bool(buf, pos)? {
                Some(ObjRef(get(buf, pos)?))
            } else {
                None
            };
            SessionOp::Overwrite { obj, slot, target }
        }
        OP_ADD_ROOT => SessionOp::AddRoot {
            obj: ObjRef(get(buf, pos)?),
        },
        OP_REMOVE_ROOT => SessionOp::RemoveRoot {
            obj: ObjRef(get(buf, pos)?),
        },
        other => return Err(ProtoError::BadTag(other)),
    })
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

const REQ_HELLO: u8 = 0x01;
const REQ_OPS: u8 = 0x02;
const REQ_ACK: u8 = 0x03;
const REQ_STATS: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x06;
const REQ_BYE: u8 = 0x07;

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens the conversation: binds this connection to `session` (which
    /// fixes its shard, `session % shards`) and declares the client's
    /// in-flight window — the number of applied-but-unacknowledged turns
    /// the client may have outstanding before the server answers
    /// [`Response::Busy`].
    Hello {
        /// The session this connection drives.
        session: u32,
        /// Requested in-flight window (the server may clamp it).
        window: u32,
    },
    /// One turn of session operations, applied atomically in order
    /// against the session's shard. Consumes one window credit.
    Ops {
        /// The turn, in application order.
        ops: Vec<SessionOp>,
    },
    /// Returns `n` window credits (acknowledges `n` applied turns).
    Ack {
        /// Credits to return.
        n: u64,
    },
    /// Admin: snapshot per-shard and per-client counters.
    Stats,
    /// Admin: begin a graceful drain — the server stops accepting
    /// connections and new turns, finishes in-flight work, flushes
    /// telemetry, and exits its serve loop.
    Shutdown,
    /// Closes this connection cleanly.
    Bye,
}

impl Request {
    /// Encodes the request as a frame body into a caller-owned buffer
    /// (cleared first), so a connection's send path reuses one body
    /// buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Request::Hello { session, window } => {
                out.push(REQ_HELLO);
                put_u64(out, *session as u64);
                put_u64(out, *window as u64);
            }
            Request::Ops { ops } => {
                out.push(REQ_OPS);
                put_u64(out, ops.len() as u64);
                for op in ops {
                    put_op(out, op);
                }
            }
            Request::Ack { n } => {
                out.push(REQ_ACK);
                put_u64(out, *n);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Bye => out.push(REQ_BYE),
        }
    }

    /// Decodes a frame body as a request.
    pub fn decode(buf: &[u8]) -> Result<Request, ProtoError> {
        let mut pos = 0usize;
        let tag = *buf.get(pos).ok_or(ProtoError::Truncated)?;
        pos += 1;
        let req = match tag {
            REQ_HELLO => Request::Hello {
                session: get_u32(buf, &mut pos)?,
                window: get_u32(buf, &mut pos)?,
            },
            REQ_OPS => {
                let count = get(buf, &mut pos)?;
                // Each encoded op is ≥ 2 bytes; reject counts the body
                // cannot possibly hold before allocating.
                if count > buf.len() as u64 {
                    return Err(ProtoError::BadValue("op count exceeds body"));
                }
                let mut ops = Vec::with_capacity(count as usize);
                let mut slots = 0u64;
                for _ in 0..count {
                    let op = get_op(buf, &mut pos)?;
                    if let SessionOp::Create { slots: n, .. } = op {
                        slots += u64::from(n);
                    }
                    ops.push(op);
                }
                // Every declared slot costs the store 8 bytes before the
                // turn is applied; a body may declare one per byte.
                if slots > buf.len() as u64 {
                    return Err(ProtoError::BadValue(
                        "create slots exceed the body length (see MAX_CREATE_SLOTS)",
                    ));
                }
                Request::Ops { ops }
            }
            REQ_ACK => Request::Ack {
                n: get(buf, &mut pos)?,
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_BYE => Request::Bye,
            other => return Err(ProtoError::BadTag(other)),
        };
        done(buf, pos)?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

const RESP_HELLO_OK: u8 = 0x81;
const RESP_OPS_OK: u8 = 0x82;
const RESP_BUSY: u8 = 0x83;
const RESP_ACK_OK: u8 = 0x84;
const RESP_STATS_OK: u8 = 0x85;
const RESP_SHUTDOWN_OK: u8 = 0x87;
const RESP_BYE_OK: u8 = 0x88;
const RESP_ERROR: u8 = 0xFF;

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request violated the protocol (bad sequence, malformed turn).
    Protocol,
    /// The store rejected an operation in the turn.
    Op,
    /// The session's shard has failed (a panic in a turn or a
    /// collection); the connection can no longer apply turns.
    ShardFailed,
    /// The server is draining; no new turns are accepted.
    Draining,
}

impl ErrorCode {
    fn to_wire(self) -> u64 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Op => 2,
            ErrorCode::ShardFailed => 3,
            ErrorCode::Draining => 4,
        }
    }

    fn from_wire(v: u64) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Op,
            3 => ErrorCode::ShardFailed,
            4 => ErrorCode::Draining,
            _ => return Err(ProtoError::BadValue("unknown error code")),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Op => "op",
            ErrorCode::ShardFailed => "shard-failed",
            ErrorCode::Draining => "draining",
        })
    }
}

/// One shard's counters in a [`Response::StatsOk`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard index.
    pub shard: u32,
    /// Collections the shard has completed.
    pub collections: u64,
    /// The shard's failure notice, if a panic in a collection or a turn
    /// latched it failed.
    pub failed: Option<String>,
}

/// Per-client counters, kept by the server for every connection and
/// reported in stats snapshots and the serve outcome. All of it is
/// wall-clock- or connection-order-dependent, so telemetry publishes it
/// only under volatile `net_` keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// The session the connection drove (u32::MAX if it never said Hello).
    pub session: u32,
    /// Turns applied.
    pub turns: u64,
    /// Operations applied.
    pub ops: u64,
    /// Frame bytes received from the client (including framing).
    pub bytes_in: u64,
    /// Frame bytes sent to the client (including framing).
    pub bytes_out: u64,
    /// Turns refused because the in-flight window was full.
    pub busy_rejections: u64,
    /// Nanoseconds the client's turns sat queued while their shard was
    /// collecting.
    pub gc_stall_ns: u64,
    /// Whether the connection closed cleanly (Bye or drain) rather than
    /// by idle reaping or socket error.
    pub clean_close: bool,
}

fn put_counters(out: &mut Vec<u8>, c: &ClientCounters) {
    put_u64(out, c.session as u64);
    put_u64(out, c.turns);
    put_u64(out, c.ops);
    put_u64(out, c.bytes_in);
    put_u64(out, c.bytes_out);
    put_u64(out, c.busy_rejections);
    put_u64(out, c.gc_stall_ns);
    put_u64(out, c.clean_close as u64);
}

fn get_counters(buf: &[u8], pos: &mut usize) -> Result<ClientCounters, ProtoError> {
    Ok(ClientCounters {
        session: get_u32(buf, pos)?,
        turns: get(buf, pos)?,
        ops: get(buf, pos)?,
        bytes_in: get(buf, pos)?,
        bytes_out: get(buf, pos)?,
        busy_rejections: get(buf, pos)?,
        gc_stall_ns: get(buf, pos)?,
        clean_close: get_bool(buf, pos)?,
    })
}

/// A stats snapshot: every shard, plus the counters of the connections
/// that *closed* most recently, at most [`STATS_MAX_CLIENTS`] of them
/// (open connections report into the snapshot only once they finish).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-shard counters.
    pub shards: Vec<ShardStats>,
    /// Per-connection counters, in close order.
    pub clients: Vec<ClientCounters>,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Hello accepted.
    HelloOk {
        /// The bound session.
        session: u32,
        /// The shard the session maps to.
        shard: u32,
        /// The granted in-flight window (may be smaller than requested).
        window: u32,
    },
    /// The turn was applied.
    OpsOk {
        /// Operations applied.
        applied: u64,
        /// Objects created.
        created: u64,
        /// Bytes turned to garbage by the turn's overwrites/unroots.
        garbage_created: u64,
        /// Applied-but-unacknowledged turns, including this one.
        in_flight: u64,
        /// Nanoseconds this turn sat queued while its shard was
        /// collecting; 0 when no collection ran while it waited.
        gc_stall_ns: u64,
    },
    /// The turn was *not* applied: the in-flight window is full. Send
    /// [`Request::Ack`] to return credits, then retry.
    Busy {
        /// Applied-but-unacknowledged turns.
        in_flight: u64,
        /// The granted window.
        window: u64,
    },
    /// Credits returned.
    AckOk {
        /// Applied-but-unacknowledged turns after the ack.
        in_flight: u64,
    },
    /// Stats snapshot.
    StatsOk(StatsSnapshot),
    /// Drain begun.
    ShutdownOk,
    /// Goodbye.
    ByeOk,
    /// The request failed.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail (server-side `Display` of the cause).
        message: String,
    },
}

impl Response {
    /// Encodes the response as a frame body into a caller-owned buffer
    /// (cleared first). The event-loop server encodes every response
    /// through one per-loop scratch buffer and frames it straight into
    /// the connection's write buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Response::HelloOk {
                session,
                shard,
                window,
            } => {
                out.push(RESP_HELLO_OK);
                put_u64(out, *session as u64);
                put_u64(out, *shard as u64);
                put_u64(out, *window as u64);
            }
            Response::OpsOk {
                applied,
                created,
                garbage_created,
                in_flight,
                gc_stall_ns,
            } => {
                out.push(RESP_OPS_OK);
                put_u64(out, *applied);
                put_u64(out, *created);
                put_u64(out, *garbage_created);
                put_u64(out, *in_flight);
                put_u64(out, *gc_stall_ns);
            }
            Response::Busy { in_flight, window } => {
                out.push(RESP_BUSY);
                put_u64(out, *in_flight);
                put_u64(out, *window);
            }
            Response::AckOk { in_flight } => {
                out.push(RESP_ACK_OK);
                put_u64(out, *in_flight);
            }
            Response::StatsOk(snap) => {
                out.push(RESP_STATS_OK);
                put_u64(out, snap.shards.len() as u64);
                for s in &snap.shards {
                    put_u64(out, s.shard as u64);
                    put_u64(out, s.collections);
                    match &s.failed {
                        Some(msg) => {
                            put_u64(out, 1);
                            put_str(out, msg);
                        }
                        None => put_u64(out, 0),
                    }
                }
                put_u64(out, snap.clients.len() as u64);
                for c in &snap.clients {
                    put_counters(out, c);
                }
            }
            Response::ShutdownOk => out.push(RESP_SHUTDOWN_OK),
            Response::ByeOk => out.push(RESP_BYE_OK),
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                put_u64(out, code.to_wire());
                put_str(out, message);
            }
        }
    }

    /// Decodes a frame body as a response.
    pub fn decode(buf: &[u8]) -> Result<Response, ProtoError> {
        let mut pos = 0usize;
        let tag = *buf.get(pos).ok_or(ProtoError::Truncated)?;
        pos += 1;
        let resp = match tag {
            RESP_HELLO_OK => Response::HelloOk {
                session: get_u32(buf, &mut pos)?,
                shard: get_u32(buf, &mut pos)?,
                window: get_u32(buf, &mut pos)?,
            },
            RESP_OPS_OK => Response::OpsOk {
                applied: get(buf, &mut pos)?,
                created: get(buf, &mut pos)?,
                garbage_created: get(buf, &mut pos)?,
                in_flight: get(buf, &mut pos)?,
                gc_stall_ns: get(buf, &mut pos)?,
            },
            RESP_BUSY => Response::Busy {
                in_flight: get(buf, &mut pos)?,
                window: get(buf, &mut pos)?,
            },
            RESP_ACK_OK => Response::AckOk {
                in_flight: get(buf, &mut pos)?,
            },
            RESP_STATS_OK => {
                let shard_count = get(buf, &mut pos)?;
                if shard_count > buf.len() as u64 {
                    return Err(ProtoError::BadValue("shard count exceeds body"));
                }
                let mut shards = Vec::with_capacity(shard_count as usize);
                for _ in 0..shard_count {
                    let shard = get_u32(buf, &mut pos)?;
                    let collections = get(buf, &mut pos)?;
                    let failed = if get_bool(buf, &mut pos)? {
                        Some(get_str(buf, &mut pos)?)
                    } else {
                        None
                    };
                    shards.push(ShardStats {
                        shard,
                        collections,
                        failed,
                    });
                }
                let client_count = get(buf, &mut pos)?;
                if client_count > buf.len() as u64 {
                    return Err(ProtoError::BadValue("client count exceeds body"));
                }
                let mut clients = Vec::with_capacity(client_count as usize);
                for _ in 0..client_count {
                    clients.push(get_counters(buf, &mut pos)?);
                }
                Response::StatsOk(StatsSnapshot { shards, clients })
            }
            RESP_SHUTDOWN_OK => Response::ShutdownOk,
            RESP_BYE_OK => Response::ByeOk,
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_wire(get(buf, &mut pos)?)?,
                message: get_str(buf, &mut pos)?,
            },
            other => return Err(ProtoError::BadTag(other)),
        };
        done(buf, pos)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::FrameAssembler;

    fn round_trip_req(req: Request) {
        let mut body = Vec::new();
        req.encode_into(&mut body);
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn round_trip_resp(resp: Response) {
        let mut body = Vec::new();
        resp.encode_into(&mut body);
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Hello {
            session: 3,
            window: 8,
        });
        round_trip_req(Request::Ops {
            ops: vec![
                SessionOp::Create { size: 64, slots: 4 },
                SessionOp::AddRoot { obj: ObjRef(0) },
                SessionOp::Overwrite {
                    obj: ObjRef(0),
                    slot: 2,
                    target: Some(ObjRef(7)),
                },
                SessionOp::Overwrite {
                    obj: ObjRef(0),
                    slot: 1,
                    target: None,
                },
                SessionOp::Access { obj: ObjRef(9) },
                SessionOp::RemoveRoot { obj: ObjRef(0) },
            ],
        });
        round_trip_req(Request::Ack { n: 2 });
        round_trip_req(Request::Stats);
        round_trip_req(Request::Shutdown);
        round_trip_req(Request::Bye);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::HelloOk {
            session: 1,
            shard: 1,
            window: 4,
        });
        round_trip_resp(Response::OpsOk {
            applied: 8,
            created: 3,
            garbage_created: 96,
            in_flight: 1,
            gc_stall_ns: 12_345,
        });
        round_trip_resp(Response::Busy {
            in_flight: 1,
            window: 1,
        });
        round_trip_resp(Response::AckOk { in_flight: 0 });
        round_trip_resp(Response::StatsOk(StatsSnapshot {
            shards: vec![
                ShardStats {
                    shard: 0,
                    collections: 12,
                    failed: None,
                },
                ShardStats {
                    shard: 1,
                    collections: 4,
                    failed: Some("collection panicked: injected".into()),
                },
            ],
            clients: vec![ClientCounters {
                session: 0,
                turns: 40,
                ops: 300,
                bytes_in: 4_000,
                bytes_out: 2_000,
                busy_rejections: 2,
                gc_stall_ns: 100,
                clean_close: true,
            }],
        }));
        round_trip_resp(Response::ShutdownOk);
        round_trip_resp(Response::ByeOk);
        round_trip_resp(Response::Error {
            code: ErrorCode::Draining,
            message: "server is draining".into(),
        });
    }

    #[test]
    fn a_full_stats_snapshot_fits_a_frame() {
        // Every varint at full width: the largest reply `stats_snapshot`
        // can build, beside a shard table far wider than any deployment's.
        let snap = StatsSnapshot {
            shards: (0..256)
                .map(|i| ShardStats {
                    shard: u32::MAX - i,
                    collections: u64::MAX,
                    failed: Some("x".repeat(1024)),
                })
                .collect(),
            clients: vec![
                ClientCounters {
                    session: u32::MAX,
                    turns: u64::MAX,
                    ops: u64::MAX,
                    bytes_in: u64::MAX,
                    bytes_out: u64::MAX,
                    busy_rejections: u64::MAX,
                    gc_stall_ns: u64::MAX,
                    clean_close: true,
                };
                STATS_MAX_CLIENTS
            ],
        };
        let mut body = Vec::new();
        Response::StatsOk(snap.clone()).encode_into(&mut body);
        assert!(
            body.len() <= MAX_FRAME as usize,
            "{} bytes exceed MAX_FRAME",
            body.len()
        );
        let mut wire = Vec::new();
        frame_into(&mut wire, &body);
        let mut frames = FrameAssembler::new();
        frames.extend(&wire);
        let got = frames.next_frame().expect("frame accepted").expect("whole");
        assert_eq!(Response::decode(got).unwrap(), Response::StatsOk(snap));
    }

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let mut body = Vec::new();
        Request::Ops {
            ops: vec![SessionOp::Access { obj: ObjRef(1) }],
        }
        .encode_into(&mut body);
        let mut wire = Vec::new();
        frame_into(&mut wire, &body);
        assert_eq!(wire.len() as u64, body.len() as u64 + FRAME_OVERHEAD);
        let read = |wire: &[u8]| {
            let mut frames = FrameAssembler::new();
            frames.extend(wire);
            frames.next_frame().map(|body| body.map(<[u8]>::to_vec))
        };
        assert_eq!(read(&wire).unwrap(), Some(body));

        // Flip one body bit: the CRC must catch it.
        let mut corrupt = wire.clone();
        corrupt[5] ^= 0x40;
        match read(&corrupt) {
            Err(ProtoError::Crc { .. }) => {}
            other => panic!("corruption must fail CRC, got {other:?}"),
        }

        // An absurd length prefix is rejected before the body arrives.
        let mut huge = wire;
        huge[..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        match read(&huge) {
            Err(ProtoError::TooLarge(_)) => {}
            other => panic!("oversized frame must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn create_beyond_the_protocol_bounds_is_rejected() {
        let decode = |ops: &[SessionOp]| {
            let mut body = Vec::new();
            Request::Ops { ops: ops.to_vec() }.encode_into(&mut body);
            Request::decode(&body)
        };
        let create = |size, slots| SessionOp::Create { size, slots };
        // A create at both bounds passes in a body with a byte per slot.
        let mut padded = vec![SessionOp::Access { obj: ObjRef(0) }; MAX_CREATE_SLOTS as usize / 2];
        padded.push(create(MAX_CREATE_SIZE, MAX_CREATE_SLOTS));
        assert!(decode(&padded).is_ok());
        for ops in [
            vec![create(MAX_CREATE_SIZE + 1, 0)],
            vec![create(u32::MAX, 0)],
            vec![create(64, MAX_CREATE_SLOTS + 1)],
            vec![create(64, u32::MAX)],
            // Each create within bounds; together about 100 slots, or
            // 800 bytes of slot arena, per byte of the 5 KiB body.
            vec![create(1, MAX_CREATE_SLOTS); 1024],
        ] {
            match decode(&ops) {
                Err(ProtoError::BadValue(_)) => {}
                other => panic!(
                    "{} op(s) ending in {:?} must be rejected, got {other:?}",
                    ops.len(),
                    ops[ops.len() - 1]
                ),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Vec::new();
        Request::Bye.encode_into(&mut body);
        body.push(0);
        match Request::decode(&body) {
            Err(ProtoError::BadValue(_)) => {}
            other => panic!("trailing bytes must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            Request::decode(&[0x60]),
            Err(ProtoError::BadTag(0x60))
        ));
        assert!(matches!(
            Response::decode(&[0x60]),
            Err(ProtoError::BadTag(0x60))
        ));
        // The retired admin `Collect` pair is unknown like any other.
        assert!(matches!(
            Request::decode(&[0x05]),
            Err(ProtoError::BadTag(0x05))
        ));
        assert!(matches!(
            Response::decode(&[0x86, 0x02]),
            Err(ProtoError::BadTag(0x86))
        ));
    }
}
