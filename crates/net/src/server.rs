//! The serve front-end: readiness-driven event loops multiplexing client
//! connections onto engine [`Shard`]s, where the loop that polls a
//! shard's connections is also that shard's one owner (DESIGN.md §5e).
//!
//! Threading is fixed at bind time and independent of connection count:
//! `L = min(net_threads, shards)` net loops (`net_threads == 0`, the
//! default, means one per shard) are the owners of a [`run_crew`] crew
//! over the shards — loop 0 on the thread that calls [`NetServer::run`],
//! loop `i` on thread `odbgc-net-loop-i` — and no other threads. Which
//! loop owns which shard, and which shard a session runs on, is the
//! engine's one rule ([`owner_of`], [`shard_of`]).
//!
//! * **A loop applies an `Ops` turn inline** ([`Shard::turn`] →
//!   [`apply_ops`]), puts the reply on the wire, and only then drains
//!   the shard's due collections ([`Shard::collect_due`]): a reply never
//!   waits for the collection its own turn triggered, and the shard's
//!   next turn waits for it. Each turn reports the collection time its
//!   loop spent since the connection's previous reply as `gc_stall_ns`.
//! * **Loop 0 alone polls the listener.** A connection stays on loop 0
//!   until its `Hello` names a session; then the whole connection
//!   (stream, buffered bytes, the queued `HelloOk`) moves through the
//!   owning loop's inbox and wake descriptor to that loop.
//! * **`Stats` is answered by whichever loop holds the asking
//!   connection**, from the collection count and failure notice every
//!   owner publishes after each collection drain.
//! * **A loop busy-polls before it parks**, for one short fixed window,
//!   and only when the server has fewer loops than the host has cores.
//!
//! Lifecycle guarantees (the `serve_net` acceptance tests):
//!
//! * **Backpressure is explicit and deterministic.** A connection's
//!   frames are decoded and applied strictly in order, so whether a turn
//!   gets `Busy` depends only on the frame sequence the client sent.
//!   Decoding pauses while a connection's unflushed output exceeds
//!   `conn::OUT_HIGH_WATER`, so a peer that never reads cannot grow
//!   server memory without bound.
//! * **Failure is typed.** A panic in a turn or a collection latches the
//!   [`Shard`] failed: its later turns get `ShardFailed`, and the loop
//!   keeps serving its other connections.
//! * **Idle connections are reaped**, from poll timeouts computed from
//!   the earliest idle deadline, with no periodic tick.
//! * **Drain is graceful, and terminates.** `Shutdown` wakes every loop;
//!   every acknowledged operation is in the shard results when
//!   [`NetServer::run`] returns, and a peer that never reads its last
//!   replies delays it by at most `idle_timeout`.
//!
//! Per-loop counters are reported in [`NetOutcome::loops`] and published
//! by the CLI under the volatile `net_loops` telemetry key.

use std::io::{ErrorKind, Read};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use odbgc_core::RatePolicy;
use odbgc_engine::{
    apply_ops, owner_of, run_crew, shard_of, slot_of, EngineConfig, SessionId, SessionOp, Shard,
    ShardOutcome, TurnErrorKind,
};

use crate::conn::Connection;
use crate::poll::{
    poll, Fd, PollFd, WakePipe, BUSY_POLL_WINDOW, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT,
};
use crate::proto::{
    frame_into, ClientCounters, ErrorCode, Request, Response, ShardStats, StatsSnapshot,
    FRAME_OVERHEAD, STATS_MAX_CLIENTS,
};

/// Configuration of a network serve instance.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// Number of engine shards, at least 1; session `s` runs on shard
    /// [`shard_of`]`(s, shards)`.
    pub shards: u32,
    /// Hard cap on the per-connection in-flight window a Hello may
    /// request, at least 1.
    pub window_max: u32,
    /// Close a connection after this long without a byte moving in
    /// either direction.
    pub idle_timeout: Duration,
    /// Net loops, capped at `shards`. `0` means one loop per shard. Loop
    /// count is fixed at bind and independent of connection count.
    pub net_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            engine: EngineConfig::default(),
            shards: 2,
            window_max: 64,
            idle_timeout: Duration::from_secs(30),
            net_threads: 0,
        }
    }
}

/// One net loop's lifetime counters, reported in [`NetOutcome::loops`].
/// All timing- and scheduling-dependent, hence published only under the
/// volatile `net_loops` telemetry key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Poll returns with at least one ready descriptor.
    pub wakeups: u64,
    /// Poll returns with nothing ready (an idle-deadline timer tick —
    /// zero on an idle server, which is the point of the event loop).
    pub timeouts: u64,
    /// Connections this loop accepted (loop 0 only).
    pub accepted: u64,
    /// Complete request frames decoded.
    pub frames_in: u64,
    /// Response frames queued.
    pub frames_out: u64,
    /// Read bursts that ended with a partial frame left buffered.
    pub partial_reads: u64,
    /// Flushes that could not drain the whole write buffer.
    pub partial_writes: u64,
    /// Most `Ops` turns one wakeup applied back to back.
    pub max_queue_depth: u64,
    /// Wakeups caught by a zero-timeout poll inside the busy-poll window:
    /// each is a sleep and a wakeup the loop did not pay for.
    pub busy_poll_hits: u64,
    /// Blocking polls entered, each after an empty busy-poll window (or
    /// at once, when the loop has no spare core to spin on).
    pub parks: u64,
}

/// What a network serve run did, returned by [`NetServer::run`] after a
/// graceful drain.
#[derive(Debug)]
pub struct NetOutcome {
    /// Per-shard summaries — the same [`ShardOutcome`] the in-process
    /// serve mode produces, so telemetry built from either is
    /// comparable key for key.
    pub shards: Vec<ShardOutcome>,
    /// Per-connection counters, in close order.
    pub clients: Vec<ClientCounters>,
    /// Per-net-loop counters, indexed by loop.
    pub loops: Vec<LoopStats>,
}

/// One shard's progress as `Stats` reports it. Written only by the
/// shard's owning loop, after each collection drain, so a loop serving
/// `Stats` never waits on another loop.
#[derive(Default)]
struct ShardProgress {
    collections: AtomicU64,
    /// The shard's failure notice, as [`ShardOutcome::failed`] will
    /// carry it.
    failed: OnceLock<String>,
}

struct Shared {
    window_max: u32,
    idle_timeout: Duration,
    /// How long a loop busy-polls before it parks: [`busy_poll_window`]
    /// of the loop count and the core count seen at bind.
    busy_poll: Duration,
    draining: AtomicBool,
    clients: Mutex<Vec<ClientCounters>>,
    /// Indexed by shard.
    progress: Vec<ShardProgress>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One net loop's cross-thread mailbox: connections handed over after
/// `Hello`, and the wake descriptor that makes them poll-visible.
struct LoopShared {
    wake: WakePipe,
    inbox: Mutex<Vec<Connection>>,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A bound, not-yet-serving network front-end: the listener, the shards
/// and each loop's mailbox exist; no thread runs until [`NetServer::run`].
pub struct NetServer {
    listener: TcpListener,
    shared: Shared,
    loops: Vec<LoopShared>,
    /// Indexed by shard.
    shards: Vec<Shard>,
}

impl NetServer {
    /// Binds the listener and builds every shard and each loop's
    /// mailbox. `make_policy` is called once per shard with the shard
    /// index. `addr` is anything `TcpListener::bind` accepts;
    /// `"127.0.0.1:0"` picks a free port (read it back with
    /// [`NetServer::local_addr`]). No shards or a zero `window_max` is
    /// refused before anything is bound, with an
    /// [`ErrorKind::InvalidInput`] error naming the field.
    pub fn bind(
        addr: &str,
        config: NetConfig,
        mut make_policy: impl FnMut(u32) -> Box<dyn RatePolicy + Send>,
    ) -> Result<NetServer, BindError> {
        let invalid = |message: &str| {
            Err(BindError::Io(std::io::Error::new(
                ErrorKind::InvalidInput,
                message,
            )))
        };
        if config.shards == 0 {
            return invalid("shards must be at least 1, got 0");
        }
        if config.window_max == 0 {
            return invalid("window_max must be at least 1, got 0");
        }
        let shard_count = config.shards as usize;
        let loop_count = match config.net_threads {
            0 => shard_count,
            n => n.min(shard_count),
        };
        let loops = (0..loop_count)
            .map(|_| {
                Ok(LoopShared {
                    wake: WakePipe::new().map_err(BindError::Io)?,
                    inbox: Mutex::new(Vec::new()),
                })
            })
            .collect::<Result<_, BindError>>()?;
        let listener = TcpListener::bind(addr).map_err(BindError::Io)?;
        listener.set_nonblocking(true).map_err(BindError::Io)?;
        // Read once: `available_parallelism` reads cgroup files, far too
        // slow to ask on every wait.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Shared {
            window_max: config.window_max,
            idle_timeout: config.idle_timeout,
            busy_poll: busy_poll_window(loop_count, cores),
            draining: AtomicBool::new(false),
            clients: Mutex::new(Vec::new()),
            progress: (0..shard_count).map(|_| ShardProgress::default()).collect(),
        };
        let shards = (0..shard_count)
            .map(|i| Shard::new(i, &config.engine, make_policy(i as u32)))
            .collect();
        Ok(NetServer {
            listener,
            shared,
            loops,
            shards,
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client requests a graceful drain: runs loop 0 on
    /// the calling thread and loops 1.. on their own, takes the shards
    /// back once all have drained, and returns the outcome.
    pub fn run(self) -> NetOutcome {
        let NetServer {
            listener,
            shared,
            loops,
            shards,
        } = self;
        // Loop 0 takes the listener by value: it closes when loop 0
        // starts draining.
        let listener = Mutex::new(Some(listener));
        // A shard catches turn and collection panics; a panic of a
        // loop's own is a bug in this file, and reaches the caller.
        let (loop_stats, shards) =
            run_crew(shards, loops.len(), "odbgc-net-loop-", |loop_id, shards| {
                let listener = (loop_id == 0).then(|| lock(&listener).take()).flatten();
                NetLoop::new(loop_id, &shared, &loops, shards).run(listener)
            });

        let mut clients = std::mem::take(&mut *lock(&shared.clients));
        // Handed over after `Hello` to a loop that had already drained:
        // closed unclean, never having applied a turn.
        for l in &loops {
            clients.extend(lock(&l.inbox).drain(..).map(|conn| conn.counters));
        }
        NetOutcome {
            shards: shards
                .into_iter()
                .map(|shard| shard.into_outcome(Vec::new()))
                .collect(),
            clients,
            loops: loop_stats,
        }
    }
}

/// Why [`NetServer::bind`] failed.
#[derive(Debug)]
pub enum BindError {
    /// The listener or a loop's wake descriptor could not be created,
    /// or the configuration was refused ([`ErrorKind::InvalidInput`]).
    Io(std::io::Error),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::Io(e) => write!(f, "bind: {e}"),
        }
    }
}

impl std::error::Error for BindError {}

// ---------------------------------------------------------------------
// Net loop
// ---------------------------------------------------------------------

fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> Fd {
    t.as_raw_fd()
}

/// Pause before retrying a `poll` that returned an error.
const POLL_ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// The busy-poll window of `loops` loops on `cores` cores: a loop spins
/// only when every loop can have a core of its own and one is still left
/// over (for the clients, or the thread that wakes it). Spinning on a
/// shared core steals it from the very thread that would make the loop's
/// descriptors ready.
fn busy_poll_window(loops: usize, cores: usize) -> Duration {
    if loops < cores {
        BUSY_POLL_WINDOW
    } else {
        Duration::ZERO
    }
}

/// How long the listener stays out of the poll set after an `accept`
/// failure such as `EMFILE`: the pending connection stays in the
/// backlog, so polling it again at once would spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(100);

/// What to do with a connection after an event was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Keep,
    /// Close now: record counters, free the slot.
    Close,
    /// Bound to a shard another loop owns: move it to that loop.
    HandOff(usize),
}

enum FdKind {
    Wake,
    Listener,
    Conn(usize),
}

struct NetLoop<'a> {
    loop_id: usize,
    shared: &'a Shared,
    loops: &'a [LoopShared],
    /// The shards [`run_crew`] dealt this loop: shard `s` at
    /// [`slot_of`]`(s, loops.len())`.
    shards: &'a mut [Shard],
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    stats: LoopStats,
    /// Response-body scratch, reused across every response this loop
    /// encodes.
    scratch: Vec<u8>,
    /// Socket read scratch.
    read_buf: Vec<u8>,
    /// Collection time this loop has spent, in ns.
    gc_ns: u64,
    /// `Ops` turns applied since the loop last woke.
    burst: u64,
    /// The listener is left out of the poll set until then.
    accept_retry: Option<Instant>,
}

impl<'a> NetLoop<'a> {
    fn new(
        loop_id: usize,
        shared: &'a Shared,
        loops: &'a [LoopShared],
        shards: &'a mut [Shard],
    ) -> NetLoop<'a> {
        NetLoop {
            loop_id,
            shared,
            loops,
            shards,
            conns: Vec::new(),
            free: Vec::new(),
            stats: LoopStats::default(),
            scratch: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
            gc_ns: 0,
            burst: 0,
            accept_retry: None,
        }
    }

    fn run(mut self, mut listener: Option<TcpListener>) -> LoopStats {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut kinds: Vec<FdKind> = Vec::new();
        loop {
            self.burst = 0;
            self.adopt_inbox();
            let draining = self.shared.draining.load(Ordering::SeqCst);
            if draining {
                listener = None; // stop accepting; refuse new connects
                self.drain_pass();
            }
            // In both states: a drain waits for replies to flush, and a
            // peer that never reads them must not hold it open forever.
            self.reap_idle();
            if draining && self.is_quiescent() {
                break;
            }

            fds.clear();
            kinds.clear();
            fds.push(PollFd::new(self.loops[self.loop_id].wake.fd(), POLLIN));
            kinds.push(FdKind::Wake);
            if self.accept_retry.is_some_and(|at| at <= Instant::now()) {
                self.accept_retry = None;
            }
            if let (Some(l), None) = (&listener, self.accept_retry) {
                fds.push(PollFd::new(raw_fd(l), POLLIN));
                kinds.push(FdKind::Listener);
            }
            for (idx, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                let mut events = 0i16;
                if conn.accepting() {
                    events |= POLLIN;
                }
                if conn.out_pending() > 0 {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(raw_fd(&conn.stream), events));
                    kinds.push(FdKind::Conn(idx));
                }
            }

            let timeout_ms = self.poll_timeout_ms();
            let ready = match self.wait(&mut fds, timeout_ms) {
                Ok(n) => n,
                Err(_) => {
                    // A failing poll would spin; back off and retry
                    // (never observed).
                    std::thread::sleep(POLL_ERROR_BACKOFF);
                    continue;
                }
            };
            if ready == 0 {
                if timeout_ms >= 0 {
                    self.stats.timeouts += 1;
                }
                continue;
            }
            self.stats.wakeups += 1;

            for i in 0..fds.len() {
                if fds[i].revents == 0 {
                    continue;
                }
                match kinds[i] {
                    FdKind::Wake => self.loops[self.loop_id].wake.drain(),
                    FdKind::Listener => self.accept_burst(&listener),
                    FdKind::Conn(idx) => self.conn_event(idx, fds[i].revents),
                }
            }
        }
        self.stats
    }

    /// Polls `fds`: first busy-polls for the window — zero-timeout polls,
    /// yielding the core between empty returns — then parks in a
    /// blocking poll with `timeout_ms`. A lockstep client's next frame
    /// follows its reply by about a loopback round trip, well inside the
    /// window, so its turns cost the loop no sleep and no wakeup.
    fn wait(&mut self, fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        if !self.shared.busy_poll.is_zero() {
            let until = Instant::now() + self.shared.busy_poll;
            loop {
                let ready = poll(fds, 0)?;
                if ready > 0 {
                    self.stats.busy_poll_hits += 1;
                    return Ok(ready);
                }
                if Instant::now() >= until {
                    break;
                }
                std::thread::yield_now();
            }
        }
        self.stats.parks += 1;
        poll(fds, timeout_ms)
    }

    /// Next poll timeout: the soonest of the connections' idle deadlines
    /// and the accept retry, or block indefinitely when nothing is due —
    /// every other transition arrives as descriptor readiness.
    fn poll_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let idle = self
            .conns
            .iter()
            .flatten()
            .map(|conn| conn.last_activity + self.shared.idle_timeout);
        match self.accept_retry.into_iter().chain(idle).min() {
            // +1ms so the deadline has passed when the timeout fires.
            Some(at) => {
                let t = at.saturating_duration_since(now);
                (t.as_millis() + 1).min(i32::MAX as u128) as i32
            }
            None => -1,
        }
    }

    fn adopt_inbox(&mut self) {
        let handed = std::mem::take(&mut *lock(&self.loops[self.loop_id].inbox));
        for conn in handed {
            self.adopt(conn);
        }
    }

    /// Takes a connection into a slot: a fresh one from the listener, or
    /// one handed over after `Hello`, whose pipelined frames are already
    /// buffered (poll will not report them again) and whose `HelloOk` is
    /// still queued.
    fn adopt(&mut self, mut conn: Connection) {
        conn.gc_mark = self.gc_ns;
        let mut verdict = self.process_frames(&mut conn);
        if verdict == Verdict::Keep && conn.out_pending() > 0 {
            verdict = self.flush(&mut conn);
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        self.conns[idx] = Some(conn);
        self.retire(idx, verdict);
    }

    fn accept_burst(&mut self, listener: &Option<TcpListener>) {
        let Some(listener) = listener else { return };
        loop {
            match listener.accept().map_err(|e| e.kind()) {
                Ok((stream, _addr)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.stats.accepted += 1;
                    self.adopt(Connection::new(stream, Instant::now()));
                }
                Err(ErrorKind::WouldBlock) => break,
                Err(ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {}
                // Out of descriptors or buffers: the connection stays in
                // the backlog and the listener stays ready, so take it
                // out of the poll set for a while instead of spinning.
                Err(_) => {
                    self.accept_retry = Some(Instant::now() + ACCEPT_ERROR_BACKOFF);
                    break;
                }
            }
        }
    }

    /// True when this loop has nothing left to do under an active drain.
    fn is_quiescent(&self) -> bool {
        self.conns.iter().all(Option::is_none) && lock(&self.loops[self.loop_id].inbox).is_empty()
    }

    /// Drain: close every connection. Each applied turn's reply is
    /// already queued, so closing here loses nothing. A connection whose
    /// replies cannot be flushed stays until it flushes or
    /// [`NetLoop::reap_idle`] gives up on it.
    fn drain_pass(&mut self) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if !conn.close_after_flush {
                conn.counters.clean_close = true;
                conn.close_after_flush = true;
            }
            if conn.out_pending() == 0 {
                self.retire(idx, Verdict::Close);
            }
            // else: POLLOUT flushes the tail, then the close completes.
        }
    }

    fn reap_idle(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if now.saturating_duration_since(conn.last_activity) >= self.shared.idle_timeout {
                // Reaped: unclean close — even of a connection a `Bye`
                // or the drain had already marked clean while its last
                // replies were still unflushed. Counters still recorded.
                conn.counters.clean_close = false;
                self.retire(idx, Verdict::Close);
            }
        }
    }

    fn retire(&mut self, idx: usize, verdict: Verdict) {
        if verdict == Verdict::Keep {
            return;
        }
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        self.free.push(idx);
        if let Verdict::HandOff(owner) = verdict {
            lock(&self.loops[owner].inbox).push(conn);
            self.loops[owner].wake.wake();
        } else {
            lock(&self.shared.clients).push(conn.counters);
        }
    }

    fn conn_event(&mut self, idx: usize, revents: i16) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let mut verdict = Verdict::Keep;
        if revents & POLLNVAL != 0 {
            verdict = Verdict::Close;
        }
        if verdict == Verdict::Keep
            && conn.accepting()
            && revents & (POLLIN | POLLHUP | POLLERR) != 0
        {
            verdict = self.read_burst(&mut conn);
        }
        if verdict == Verdict::Keep && conn.out_pending() > 0 {
            let paused = !conn.accepting();
            verdict = self.flush(&mut conn);
            if verdict == Verdict::Keep && paused && conn.accepting() {
                // The peer read enough of its backed-up replies: take
                // up the frames left buffered when decoding stopped
                // (what is still in the kernel arrives as `POLLIN`).
                verdict = self.process_frames(&mut conn);
            }
        }
        self.conns[idx] = Some(conn);
        self.retire(idx, verdict);
    }

    /// Reads until the kernel runs dry, the connection stops accepting
    /// frames (closing / replies backed up), a frame closes it or hands
    /// it over, or the stream ends.
    fn read_burst(&mut self, conn: &mut Connection) -> Verdict {
        loop {
            if !conn.accepting() {
                break;
            }
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => return Verdict::Close, // EOF
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.assembler.extend(&self.read_buf[..n]);
                    let verdict = self.process_frames(conn);
                    if verdict != Verdict::Keep {
                        return verdict;
                    }
                    if n < self.read_buf.len() {
                        // Short read: the kernel buffer is (almost
                        // certainly) dry; poll is level-triggered, so
                        // guessing wrong only costs one extra wakeup.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        if conn.assembler.pending() > 0 {
            self.stats.partial_reads += 1;
        }
        Verdict::Keep
    }

    /// Decodes and handles every complete buffered frame, stopping when
    /// the connection starts closing, has more than `OUT_HIGH_WATER` of
    /// replies unflushed, fails, or is handed to another loop.
    fn process_frames(&mut self, conn: &mut Connection) -> Verdict {
        loop {
            if !conn.accepting() {
                return Verdict::Keep;
            }
            let body = match conn.assembler.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => return Verdict::Keep,
                // Corrupt framing: the stream is out of sync; close
                // without a response, as the blocking reader did.
                Err(_) => return Verdict::Close,
            };
            conn.counters.bytes_in += body.len() as u64 + FRAME_OVERHEAD;
            self.stats.frames_in += 1;
            let verdict = match Request::decode(body) {
                Ok(req) => self.handle_request(conn, req),
                Err(e) => {
                    self.refuse(conn, ErrorCode::Protocol, e.to_string());
                    conn.close_after_flush = true;
                    Verdict::Keep
                }
            };
            if verdict != Verdict::Keep {
                return verdict;
            }
        }
    }

    fn handle_request(&mut self, conn: &mut Connection, req: Request) -> Verdict {
        match req {
            Request::Hello { session, window } => {
                // A bound connection stays bound: its object table and
                // credits belong to the shard the first Hello chose.
                if let Some(bound) = conn.session {
                    let message = format!("Hello on a connection bound to session {bound}");
                    self.refuse(conn, ErrorCode::Protocol, message);
                    return Verdict::Keep;
                }
                if self.shared.draining.load(Ordering::SeqCst) {
                    let message = "server is draining; no new sessions".into();
                    self.refuse(conn, ErrorCode::Draining, message);
                    return Verdict::Keep;
                }
                let window = window.clamp(1, self.shared.window_max);
                conn.session = Some(session);
                conn.shard = shard_of(session, self.shared.progress.len()) as u32;
                conn.window = window as u64;
                conn.counters.session = session;
                self.queue_response(
                    conn,
                    &Response::HelloOk {
                        session,
                        shard: conn.shard,
                        window,
                    },
                );
                let owner = owner_of(conn.shard as usize, self.loops.len());
                if owner != self.loop_id {
                    return Verdict::HandOff(owner);
                }
            }
            Request::Ops { ops } => {
                let Some(session) = conn.session else {
                    self.refuse(conn, ErrorCode::Protocol, "Ops before Hello".into());
                    return Verdict::Keep;
                };
                if self.shared.draining.load(Ordering::SeqCst) {
                    let message = "server is draining; no new turns".into();
                    self.refuse(conn, ErrorCode::Draining, message);
                    return Verdict::Keep;
                }
                if conn.in_flight >= conn.window {
                    conn.counters.busy_rejections += 1;
                    self.queue_response(
                        conn,
                        &Response::Busy {
                            in_flight: conn.in_flight,
                            window: conn.window,
                        },
                    );
                    return Verdict::Keep;
                }
                return self.turn(conn, session, &ops);
            }
            Request::Ack { n } => {
                conn.in_flight = conn.in_flight.saturating_sub(n);
                self.queue_response(
                    conn,
                    &Response::AckOk {
                        in_flight: conn.in_flight,
                    },
                );
            }
            Request::Stats => {
                let resp = self.stats_snapshot();
                self.queue_response(conn, &resp);
            }
            Request::Shutdown => {
                self.shared.draining.store(true, Ordering::SeqCst);
                conn.counters.clean_close = true;
                self.queue_response(conn, &Response::ShutdownOk);
                conn.close_after_flush = true;
                for other in self.loops {
                    other.wake.wake();
                }
            }
            Request::Bye => {
                conn.counters.clean_close = true;
                self.queue_response(conn, &Response::ByeOk);
                conn.close_after_flush = true;
            }
        }
        Verdict::Keep
    }

    /// Applies one turn on the connection's shard, puts the reply on the
    /// wire, and only then drains the shard's due collections.
    fn turn(&mut self, conn: &mut Connection, session: u32, ops: &[SessionOp]) -> Verdict {
        let shard_index = conn.shard as usize;
        let local = slot_of(shard_index, self.loops.len());
        let shard = &mut self.shards[local];
        // `Shard::turn` catches a panic in the engine, latching the
        // shard failed instead of taking this loop down.
        let outcome = shard.turn(SessionId::new(session), |sess| {
            apply_ops(sess, &mut conn.objects, ops)
        });
        let resp = match outcome {
            Ok(Ok(applied)) => {
                let gc_stall_ns = self.gc_ns - conn.gc_mark;
                conn.in_flight += 1;
                conn.counters.turns += 1;
                conn.counters.ops += applied.applied;
                conn.counters.gc_stall_ns += gc_stall_ns;
                Response::OpsOk {
                    applied: applied.applied,
                    created: applied.created,
                    garbage_created: applied.garbage_created,
                    in_flight: conn.in_flight,
                    gc_stall_ns,
                }
            }
            // A failing turn was partially applied (ops before the error
            // landed); the drain below still runs.
            Ok(Err(e)) => Response::Error {
                code: match e.kind {
                    TurnErrorKind::Op(_) => ErrorCode::Op,
                    TurnErrorKind::UnknownRef { .. } => ErrorCode::Protocol,
                },
                message: e.to_string(),
            },
            Err(e) => Response::Error {
                code: ErrorCode::ShardFailed,
                message: e.to_string(),
            },
        };
        self.queue_response(conn, &resp);
        conn.gc_mark = self.gc_ns;
        self.burst += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.burst);
        let verdict = self.flush(conn);

        let shard = &mut self.shards[local];
        let progress = &self.shared.progress[shard_index];
        let start = Instant::now();
        if shard.collect_due() {
            self.gc_ns += start.elapsed().as_nanos() as u64;
            progress
                .collections
                .store(shard.collection_count(), Ordering::SeqCst);
        }
        if let Some(failure) = shard.failure() {
            progress.failed.get_or_init(|| failure.kind.to_string());
        }
        verdict
    }

    fn stats_snapshot(&self) -> Response {
        let shards = self
            .shared
            .progress
            .iter()
            .enumerate()
            .map(|(i, progress)| ShardStats {
                shard: i as u32,
                collections: progress.collections.load(Ordering::SeqCst),
                failed: progress.failed.get().cloned(),
            })
            .collect();
        // Bounded, so the reply fits a frame however many connections
        // have come and gone; the drain report keeps every record.
        let closed = lock(&self.shared.clients);
        let recent = closed.len().saturating_sub(STATS_MAX_CLIENTS);
        let clients = closed[recent..].to_vec();
        Response::StatsOk(StatsSnapshot { shards, clients })
    }

    /// Answers a request the connection's state does not allow; nothing
    /// else about the connection changes.
    fn refuse(&mut self, conn: &mut Connection, code: ErrorCode, message: String) {
        self.queue_response(conn, &Response::Error { code, message });
    }

    fn queue_response(&mut self, conn: &mut Connection, resp: &Response) {
        resp.encode_into(&mut self.scratch);
        conn.counters.bytes_out += self.scratch.len() as u64 + FRAME_OVERHEAD;
        self.stats.frames_out += 1;
        frame_into(&mut conn.out, &self.scratch);
    }

    fn flush(&mut self, conn: &mut Connection) -> Verdict {
        let pending = conn.out_pending();
        let flushed = conn.flush_out();
        if conn.out_pending() < pending {
            // A peer that is reading its backed-up replies is not idle.
            conn.last_activity = Instant::now();
        }
        match flushed {
            Ok(true) if conn.close_after_flush => Verdict::Close,
            Ok(true) => Verdict::Keep,
            Ok(false) => {
                self.stats.partial_writes += 1;
                Verdict::Keep
            }
            Err(_) => Verdict::Close,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_core::FixedRatePolicy;

    fn assert_refused(config: NetConfig, message: &str) {
        match NetServer::bind("127.0.0.1:0", config, |_| {
            Box::new(FixedRatePolicy::new(20))
        }) {
            Err(BindError::Io(e)) => {
                assert_eq!(e.kind(), ErrorKind::InvalidInput, "{e}");
                assert_eq!(e.to_string(), message);
            }
            Ok(_) => panic!("want an InvalidInput refusal, got a server"),
        }
    }

    #[test]
    fn zero_shards_are_refused_before_binding() {
        let config = NetConfig {
            shards: 0,
            ..NetConfig::default()
        };
        assert_refused(config, "shards must be at least 1, got 0");
    }

    #[test]
    fn a_loop_busy_polls_only_with_a_spare_core() {
        assert_eq!(busy_poll_window(1, 2), BUSY_POLL_WINDOW);
        assert_eq!(busy_poll_window(3, 8), BUSY_POLL_WINDOW);
        assert_eq!(busy_poll_window(2, 2), Duration::ZERO);
        assert_eq!(busy_poll_window(4, 2), Duration::ZERO);
        assert_eq!(busy_poll_window(1, 1), Duration::ZERO);
    }

    #[test]
    fn a_zero_window_max_is_refused_before_binding() {
        let config = NetConfig {
            window_max: 0,
            ..NetConfig::default()
        };
        assert_refused(config, "window_max must be at least 1, got 0");
    }
}
