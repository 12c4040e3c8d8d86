//! The client side: a strict request/response connection wrapper and
//! seeded load drivers.
//!
//! [`Conn`] is the protocol primitive — send one [`Request`], read one
//! [`Response`] — used directly by tests that need to exercise the
//! window machinery (send turns without acknowledging them to force
//! `Busy`). It reads responses through the same [`FrameAssembler`] the
//! server reads requests through, and reuses its encode, frame and read
//! buffers across requests, so steady-state traffic allocates nothing
//! per frame. [`run_client`] is the well-behaved driver on top: it runs
//! a [`SessionWorkload`] — the *same* generator the in-process serve
//! mode schedules — over the wire, acknowledging every applied turn, so
//! a loopback run and an in-process run with the same seeds produce
//! identical per-shard operation streams. [`run_clients`] multiplexes N such sessions
//! round-robin from one process (one `Ops` in flight per connection,
//! overlapping server-side work across connections), which is how one
//! driver process exercises an event-loop server at high connection
//! counts.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use odbgc_engine::{SessionOp, SessionWorkload, WorkloadParams};

use crate::conn::FrameAssembler;
use crate::poll::{poll, PollFd, BUSY_POLL_WINDOW, POLLIN, POLLOUT};
use crate::proto::{frame_into, ErrorCode, ProtoError, Request, Response};

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
/// The request-body, wire-frame and read buffers live on the connection
/// and are reused for every request and response, so a long-running
/// client does not allocate per frame. Received bytes stay in the
/// assembler until they make a whole frame, so a read that times out
/// mid-frame leaves the stream in step: the next read picks up where it
/// stopped.
///
/// The socket is non-blocking. A response read that finds nothing
/// retries, yielding the core in between, for a short fixed busy-poll
/// window — a loopback reply usually arrives inside it, so the caller
/// is never put to sleep and woken — and only then waits in `poll(2)`.
/// It spins only while spinning pays: when the last response that had
/// to be waited for took longer than the window, the next read waits in
/// `poll(2)` at once, so a client sharing its cores with busier threads
/// does not take their time. A send the socket buffer cannot take at
/// once waits in `poll(2)` for room, so it blocks as a blocking write
/// would.
pub struct Conn {
    stream: TcpStream,
    /// How long a response read waits in `poll` after the busy-poll
    /// window; `None` waits indefinitely.
    timeout: Option<Duration>,
    /// Whether the next response read busy-polls: whether the last
    /// response that had to be waited for arrived inside the window.
    spin: bool,
    /// Request-body scratch (the encode target).
    body: Vec<u8>,
    /// Framed-bytes scratch: a request goes out in one write.
    wire: Vec<u8>,
    /// Received bytes, reassembled into response frames.
    assembler: FrameAssembler,
    /// Socket read scratch.
    read_buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` (e.g. `"127.0.0.1:7491"`).
    pub fn connect(addr: &str) -> Result<Conn, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            timeout: None,
            spin: true,
            body: Vec::new(),
            wire: Vec::new(),
            assembler: FrameAssembler::new(),
            read_buf: vec![0u8; 64 * 1024],
        })
    }

    /// Sets how long a response read may wait, after its busy-poll
    /// window, for the next bytes of a response before it fails with
    /// [`ErrorKind::TimedOut`]; `None` (the default) waits indefinitely.
    /// A zero timeout is refused with [`ErrorKind::InvalidInput`], as
    /// [`TcpStream::set_read_timeout`] refuses it.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        if timeout == Some(Duration::ZERO) {
            let zero = std::io::Error::new(ErrorKind::InvalidInput, "a zero timeout never waits");
            return Err(zero.into());
        }
        self.timeout = timeout;
        Ok(())
    }

    /// Waits in `poll` until the socket reports one of `events` (or an
    /// error or hangup, which the next read or write then returns), for
    /// at most `timeout`. Returns false when the timeout passed first.
    fn wait_for(&self, events: i16, timeout: Option<Duration>) -> std::io::Result<bool> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut fds = [PollFd::new(self.stream.as_raw_fd(), events)];
        loop {
            let timeout_ms = match deadline {
                None => -1,
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(false);
                    }
                    // Rounded up, so the deadline has passed when the
                    // poll times out.
                    left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
                }
            };
            // `poll` reports an interrupted wait as 0 ready, so a 0 is
            // a timeout only once the deadline has passed.
            if poll(&mut fds, timeout_ms)? > 0 {
                return Ok(true);
            }
        }
    }

    /// Sends one request without waiting for its response (the pipelined
    /// half of [`Conn::request`], used by [`run_clients`] to overlap
    /// turns across connections).
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        req.encode_into(&mut self.body);
        self.wire.clear();
        frame_into(&mut self.wire, &self.body);
        self.write_wire()
    }

    /// Writes the framed bytes whole, waiting in `poll` whenever the
    /// socket buffer is full.
    fn write_wire(&mut self) -> Result<(), ClientError> {
        let mut sent = 0;
        while sent < self.wire.len() {
            match self.stream.write(&self.wire[sent..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.wait_for(POLLOUT, None)?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reads the next response, handing back `Error` responses as data.
    /// Reads what the socket has until a whole frame is buffered,
    /// busy-polling before each wait (see [`Conn`]); a timeout or error
    /// keeps the bytes read so far.
    pub fn read_response_raw(&mut self) -> Result<Response, ClientError> {
        // When the socket first ran dry in this call.
        let mut dry_since: Option<Instant> = None;
        loop {
            if let Some(body) = self.assembler.next_frame()? {
                if let Some(since) = dry_since {
                    // Spin before the next wait only if this one would
                    // have ended inside the window.
                    self.spin = since.elapsed() < BUSY_POLL_WINDOW;
                }
                return Ok(Response::decode(body)?);
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    let eof = std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "the server closed the connection",
                    );
                    return Err(eof.into());
                }
                Ok(n) => self.assembler.extend(&self.read_buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let since = *dry_since.get_or_insert_with(Instant::now);
                    if self.spin && since.elapsed() < BUSY_POLL_WINDOW {
                        std::thread::yield_now();
                    } else if !self.wait_for(POLLIN, self.timeout)? {
                        let late = std::io::Error::new(
                            ErrorKind::TimedOut,
                            "no response within the read timeout",
                        );
                        return Err(late.into());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
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
    /// Operations per turn; at least 2, so composite actions stay
    /// atomic ([`run_clients`] refuses less).
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
///
/// No connections, a batch below two and a zero window are refused
/// before any connection is made, as are sessions past `u32::MAX`, each
/// with an [`ErrorKind::InvalidInput`] error naming the value.
pub fn run_clients(
    config: &ClientConfig,
    connections: u32,
) -> Result<MultiClientReport, ClientError> {
    let invalid = |message: String| -> Result<MultiClientReport, ClientError> {
        Err(std::io::Error::new(ErrorKind::InvalidInput, message).into())
    };
    if connections == 0 {
        return invalid("connections must be at least 1, got 0".into());
    }
    if config.batch < 2 {
        return invalid(format!("batch must be at least 2, got {}", config.batch));
    }
    if config.window == 0 {
        return invalid("window must be at least 1, got 0".into());
    }
    let n = connections;
    if config.session.checked_add(n - 1).is_none() {
        return invalid(format!(
            "session {} with {n} connections names sessions past {}",
            config.session,
            u32::MAX
        ));
    }
    let mut slots = Vec::with_capacity(n as usize);
    for i in 0..n {
        let session = config.session + i;
        let mut conn = Conn::connect(&config.addr)?;
        let granted = match conn.request(&Request::Hello {
            session,
            window: config.window,
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
            slot.turn = slot.workload.next_turn(config.batch);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A config for a server that is never there: port 1 on loopback is
    /// never an odbgc server, so a connection attempt would fail with
    /// `ConnectionRefused` instead of the refusal the tests want.
    fn unreachable() -> ClientConfig {
        ClientConfig {
            addr: "127.0.0.1:1".into(),
            session: 0,
            ops: 10,
            batch: 8,
            window: 4,
            workload: WorkloadParams::default(),
            shutdown_after: false,
        }
    }

    fn assert_refused(config: &ClientConfig, connections: u32, message: &str) {
        match run_clients(config, connections) {
            Err(ClientError::Proto(ProtoError::Io(e))) => {
                assert_eq!(e.kind(), ErrorKind::InvalidInput, "{e}");
                assert_eq!(e.to_string(), message);
            }
            other => panic!("want an InvalidInput refusal, got {other:?}"),
        }
    }

    #[test]
    fn sessions_past_u32_max_are_refused_before_connecting() {
        let config = ClientConfig {
            session: u32::MAX,
            ..unreachable()
        };
        assert_refused(
            &config,
            2,
            "session 4294967295 with 2 connections names sessions past 4294967295",
        );
    }

    #[test]
    fn zero_connections_are_refused_before_connecting() {
        assert_refused(&unreachable(), 0, "connections must be at least 1, got 0");
    }

    #[test]
    fn a_batch_below_two_is_refused_before_connecting() {
        let config = ClientConfig {
            batch: 1,
            ..unreachable()
        };
        assert_refused(&config, 1, "batch must be at least 2, got 1");
    }

    #[test]
    fn a_zero_window_is_refused_before_connecting() {
        let config = ClientConfig {
            window: 0,
            ..unreachable()
        };
        assert_refused(&config, 1, "window must be at least 1, got 0");
    }

    #[test]
    fn a_read_timeout_mid_frame_keeps_the_stream_in_step() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();

        let sent = Response::OpsOk {
            applied: 8,
            created: 3,
            garbage_created: 96,
            in_flight: 1,
            gc_stall_ns: 12_345,
        };
        let mut body = Vec::new();
        sent.encode_into(&mut body);
        let mut wire = Vec::new();
        frame_into(&mut wire, &body);
        // Past the length prefix, short of the CRC trailer.
        let half = wire.len() / 2;
        assert!(half > 4 && half < wire.len() - 4);

        peer.write_all(&wire[..half]).unwrap();
        conn.set_timeout(Some(Duration::from_millis(50))).unwrap();
        match conn.read_response() {
            Err(ClientError::Proto(ProtoError::Io(e)))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("want a read timeout, got {other:?}"),
        }

        peer.write_all(&wire[half..]).unwrap();
        conn.set_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(conn.read_response().unwrap(), sent);
    }

    #[test]
    fn a_send_that_fills_the_socket_buffer_waits_for_a_late_reader() {
        const LATE: Duration = Duration::from_millis(200);
        // Far past what loopback's send buffer and a receive buffer that
        // has not been read from hold together, so the write finds the
        // socket full long before the peer starts reading.
        const BYTES: usize = 64 << 20;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();

        // The write half of `send`, with a frame's worth of bytes far
        // larger than a frame (encoding that much would take longer in
        // a debug build than the reader's delay).
        conn.wire = vec![7; BYTES];
        let reader = std::thread::spawn(move || {
            std::thread::sleep(LATE);
            std::io::copy(&mut peer, &mut std::io::sink()).unwrap()
        });
        let start = Instant::now();
        conn.write_wire()
            .expect("a full socket buffer waits, it does not fail");
        assert!(
            start.elapsed() >= LATE / 2,
            "the write never waited: the socket took {BYTES} bytes unread"
        );
        drop(conn);
        assert_eq!(reader.join().unwrap(), BYTES as u64);
    }
}
