//! The client side: a strict request/response connection wrapper and
//! seeded load drivers.
//!
//! [`Conn`] is the protocol primitive — send one [`Request`], read one
//! [`Response`] — used directly by tests that need to exercise the
//! window machinery (send turns without acknowledging them to force
//! `Busy`). It reuses its encode and frame buffers across requests, so
//! steady-state traffic allocates nothing per frame. [`run_client`] is
//! the well-behaved driver on top: it runs a [`SessionWorkload`] — the
//! *same* generator the in-process serve mode schedules — over the
//! wire, acknowledging every applied turn, so a loopback run and an
//! in-process run with the same seeds produce identical per-shard
//! operation streams. [`run_clients`] multiplexes N such sessions
//! round-robin from one process (one `Ops` in flight per connection,
//! overlapping server-side work across connections), which is how one
//! driver process exercises an event-loop server at high connection
//! counts.

use std::net::TcpStream;
use std::time::Duration;

use odbgc_engine::{SessionOp, SessionWorkload, WorkloadParams};

use crate::proto::{read_frame_into, write_frame_with, ErrorCode, ProtoError, Request, Response};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or framing failure.
    Proto(ProtoError),
    /// The server answered with a typed error.
    Server {
        /// Failure class.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// The server answered with the wrong response kind for the request.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => write!(f, "server [{code}]: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// One connection to a serve front-end, strict request/response.
///
/// The request-body and wire-frame buffers live on the connection and
/// are reused for every request and response, so a long-running client
/// does not allocate per frame.
pub struct Conn {
    stream: TcpStream,
    /// Request/response body scratch (encode target, then decode source).
    body: Vec<u8>,
    /// Framed-bytes scratch for single-write sends.
    wire: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` (e.g. `"127.0.0.1:7491"`).
    pub fn connect(addr: &str) -> Result<Conn, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            body: Vec::new(),
            wire: Vec::new(),
        })
    }

    /// Sets how long a response read may block before erroring out.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request without waiting for its response (the pipelined
    /// half of [`Conn::request`], used by [`run_clients`] to overlap
    /// turns across connections).
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        req.encode_into(&mut self.body);
        write_frame_with(&mut self.stream, &self.body, &mut self.wire)?;
        Ok(())
    }

    /// Reads the next response, handing back `Error` responses as data.
    pub fn read_response_raw(&mut self) -> Result<Response, ClientError> {
        read_frame_into(&mut self.stream, &mut self.body)?;
        Ok(Response::decode(&self.body)?)
    }

    /// Reads the next response, lifting any [`Response::Error`] into
    /// [`ClientError::Server`].
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        match self.read_response_raw()? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Sends one request and reads its response. Any [`Response::Error`]
    /// is lifted into [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.read_response()
    }

    /// Like [`Conn::request`], but hands back `Error` responses as data
    /// (for tests asserting on specific refusals).
    pub fn request_raw(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.read_response_raw()
    }
}

/// Configuration of one [`run_client`] load run.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address.
    pub addr: String,
    /// The session this client drives (fixes its shard server-side).
    pub session: u32,
    /// Total operations to submit.
    pub ops: u64,
    /// Operations per turn (clamped to ≥ 2 like the in-process serve
    /// path, so composite actions stay atomic).
    pub batch: u64,
    /// In-flight window to request in Hello.
    pub window: u32,
    /// Workload parameters (must match the server-side comparison run
    /// for telemetry equivalence).
    pub workload: WorkloadParams,
    /// After finishing the workload, request a graceful server drain.
    pub shutdown_after: bool,
}

/// What a [`run_client`] run did, measured client-side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Turns acknowledged by the server.
    pub turns: u64,
    /// Operations acknowledged.
    pub ops_applied: u64,
    /// Objects created.
    pub created: u64,
    /// Garbage bytes this client's overwrites/unroots produced.
    pub garbage_created: u64,
    /// `Busy` rejections encountered (0 for this well-behaved driver
    /// unless the server shrank the window below the pipeline depth).
    pub busy: u64,
    /// Total nanoseconds the server reported this client's turns spent
    /// stalled behind collections.
    pub gc_stall_ns: u64,
    /// The window the server actually granted.
    pub granted_window: u32,
}

/// Runs a seeded workload over the wire: Hello, then one `Ops` request
/// per generated turn — acknowledging each applied turn — then `Bye`
/// (or, with `shutdown_after`, a graceful `Shutdown` request instead).
/// This is [`run_clients`] with one connection.
///
/// The op stream is `SessionWorkload::new(session, workload, ops)`
/// driven at `batch`, which is exactly what the in-process serve mode
/// schedules for the same session — the fidelity tests lean on this.
pub fn run_client(config: &ClientConfig) -> Result<ClientReport, ClientError> {
    let mut multi = run_clients(config, 1)?;
    Ok(multi
        .reports
        .pop()
        .expect("run_clients reports once per connection"))
}

/// What a [`run_clients`] run did, per connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiClientReport {
    /// Per-connection reports, in connection order (connection `i` drove
    /// session `config.session + i`).
    pub reports: Vec<ClientReport>,
}

impl MultiClientReport {
    /// Sums the per-connection reports into one aggregate.
    /// `granted_window` is the smallest window any connection was
    /// granted (0 when there were no connections).
    pub fn totals(&self) -> ClientReport {
        let mut total = ClientReport::default();
        for r in &self.reports {
            total.turns += r.turns;
            total.ops_applied += r.ops_applied;
            total.created += r.created;
            total.garbage_created += r.garbage_created;
            total.busy += r.busy;
            total.gc_stall_ns += r.gc_stall_ns;
        }
        total.granted_window = self
            .reports
            .iter()
            .map(|r| r.granted_window)
            .min()
            .unwrap_or(0);
        total
    }
}

/// One [`run_clients`] connection's in-flight state.
struct Multiplexed {
    conn: Conn,
    workload: SessionWorkload,
    report: ClientReport,
    turn: Vec<SessionOp>,
    /// The workload is exhausted; only the farewell remains.
    finished: bool,
}

/// Runs `connections` sessions from one process, round-robin: every
/// connection sends its next `Ops` turn, then responses are collected
/// and acknowledged in the same order, so up to `connections` turns
/// overlap server-side while each connection individually stays strict
/// request/response. Connection `i` drives session `config.session + i`
/// for `config.ops` operations.
///
/// With `config.shutdown_after`, every other connection says `Bye`
/// first, then the last one requests the graceful drain.
pub fn run_clients(
    config: &ClientConfig,
    connections: u32,
) -> Result<MultiClientReport, ClientError> {
    let n = connections.max(1);
    let batch = config.batch.max(2);
    let mut slots = Vec::with_capacity(n as usize);
    for i in 0..n {
        let session = config.session.wrapping_add(i);
        let mut conn = Conn::connect(&config.addr)?;
        let granted = match conn.request(&Request::Hello {
            session,
            window: config.window.max(1),
        })? {
            Response::HelloOk { window, .. } => window,
            _ => return Err(ClientError::Unexpected("want HelloOk")),
        };
        slots.push(Multiplexed {
            conn,
            workload: SessionWorkload::new(session, config.workload, config.ops),
            report: ClientReport {
                granted_window: granted,
                ..ClientReport::default()
            },
            turn: Vec::new(),
            finished: false,
        });
    }

    loop {
        // Send phase: one turn per still-active connection.
        let mut sent_any = false;
        for slot in slots.iter_mut().filter(|s| !s.finished) {
            slot.turn = slot.workload.next_turn(batch);
            if slot.turn.is_empty() {
                slot.finished = true;
                continue;
            }
            slot.conn.send(&Request::Ops {
                ops: slot.turn.clone(),
            })?;
            sent_any = true;
        }
        if !sent_any {
            break;
        }
        // Collect phase: read each response, acknowledge, retry on Busy.
        for slot in slots.iter_mut().filter(|s| !s.finished) {
            loop {
                match slot.conn.read_response()? {
                    Response::OpsOk {
                        applied,
                        created,
                        garbage_created,
                        gc_stall_ns,
                        ..
                    } => {
                        slot.report.turns += 1;
                        slot.report.ops_applied += applied;
                        slot.report.created += created;
                        slot.report.garbage_created += garbage_created;
                        slot.report.gc_stall_ns += gc_stall_ns;
                        match slot.conn.request(&Request::Ack { n: 1 })? {
                            Response::AckOk { .. } => {}
                            _ => return Err(ClientError::Unexpected("want AckOk")),
                        }
                        break;
                    }
                    Response::Busy { in_flight, .. } => {
                        // Return every credit and replay the same turn
                        // (it was not applied).
                        slot.report.busy += 1;
                        match slot.conn.request(&Request::Ack { n: in_flight })? {
                            Response::AckOk { .. } => {}
                            _ => return Err(ClientError::Unexpected("want AckOk")),
                        }
                        slot.conn.send(&Request::Ops {
                            ops: slot.turn.clone(),
                        })?;
                    }
                    _ => return Err(ClientError::Unexpected("want OpsOk or Busy")),
                }
            }
        }
    }

    // Farewell: Bye everywhere, except the last connection requests the
    // drain when asked to (a drain drops the still-open peers, so it
    // must go last).
    let last = slots.len() - 1;
    for (i, slot) in slots.iter_mut().enumerate() {
        if config.shutdown_after && i == last {
            match slot.conn.request(&Request::Shutdown)? {
                Response::ShutdownOk => {}
                _ => return Err(ClientError::Unexpected("want ShutdownOk")),
            }
        } else {
            match slot.conn.request(&Request::Bye)? {
                Response::ByeOk => {}
                _ => return Err(ClientError::Unexpected("want ByeOk")),
            }
        }
    }
    Ok(MultiClientReport {
        reports: slots.into_iter().map(|s| s.report).collect(),
    })
}
