//! The serve front-end: a readiness-driven event loop multiplexing
//! client connections onto engine [`Shard`]s over a fixed thread pool.
//!
//! Threading is fixed at bind time and independent of connection count —
//! `shards + net_threads` threads, no others:
//!
//! * **Net loop threads** (`NetConfig::net_threads`, default
//!   `min(4, cores)`) each run a `poll(2)` loop over their share of the
//!   non-blocking connections. Loop 0 also polls the listener, so
//!   accepting is readiness-driven too — an idle server sleeps in
//!   `poll` indefinitely instead of tick-polling `accept`. Accepted
//!   connections are dealt round-robin across the loops.
//! * **Shard executor threads** (one per shard, spawned at bind) each
//!   own their [`Shard`] outright: dequeue a turn, apply it
//!   ([`Shard::turn`] → [`apply_ops`]), post the completion to the
//!   owning loop (a queue plus a self-wake descriptor registered in its
//!   poll set), *then* drain the shard's due collections
//!   ([`Shard::collect_due`]) before dequeuing the next turn. A turn
//!   queued behind a collection waits in that shard's queue, never on a
//!   loop thread, and the wait is reported as its `gc_stall_ns`. The
//!   executor publishes its shard's collection count and failure notice
//!   into atomics that `Stats` reads, and hands the [`Shard`] back
//!   through its `JoinHandle` at drain.
//!
//! The lifecycle guarantees of the blocking server carry over exactly —
//! the `serve_net` acceptance tests run unmodified:
//!
//! * **Backpressure is explicit and deterministic.** A connection's
//!   frames are decoded strictly in order, and decoding *pauses* while
//!   a turn is queued on a shard executor, so the credit-window
//!   arithmetic sees the same frame sequence the client sent — whether
//!   a turn gets `Busy` depends only on that sequence, never on loop
//!   scheduling. Decoding also pauses while a connection's unflushed
//!   output exceeds a fixed bound (`conn::OUT_HIGH_WATER`), so a peer
//!   that pipelines requests and never reads cannot grow server memory
//!   without bound.
//! * **Idle connections are reaped.** Poll timeouts are computed from
//!   the earliest idle deadline; a connection on which no byte has moved
//!   in either direction for `idle_timeout` is closed (unclean), without
//!   any periodic tick when nobody is due.
//! * **Drain is graceful, and terminates.** `Shutdown` wakes every loop;
//!   queued turns still complete (each was accepted before the drain),
//!   responses are flushed, and every acknowledged operation is in the
//!   shard results when [`NetServer::run`] returns. The reaper keeps
//!   running during the drain, so a peer that never reads its last
//!   replies delays `run` by at most `idle_timeout`.
//!
//! Per-loop counters (wakeups, frames, partial reads/writes, executor
//! queue depth) are reported in [`NetOutcome::loops`] and published by
//! the CLI under the volatile `net_loops` telemetry key.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use odbgc_core::RatePolicy;
use odbgc_engine::{
    apply_ops, EngineConfig, GcFault, SessionId, SessionObjects, SessionOp, Shard, ShardOutcome,
    TurnApplied, TurnError,
};

use crate::conn::{ConnPhase, Connection};
use crate::poll::{poll, Fd, PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::proto::{
    frame_into, ClientCounters, ErrorCode, Request, Response, ShardStats, StatsSnapshot,
    FRAME_OVERHEAD, STATS_MAX_CLIENTS,
};

/// Configuration of a network serve instance.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// Number of engine shards; session `s` maps to shard `s % shards`.
    pub shards: u32,
    /// Hard cap on the per-connection in-flight window a Hello may
    /// request.
    pub window_max: u32,
    /// Close a connection after this long without a byte moving in
    /// either direction.
    pub idle_timeout: Duration,
    /// Net loop threads. `0` means `min(4, available cores)`. Thread
    /// count is fixed at bind and independent of connection count.
    pub net_threads: usize,
    /// Optional kill-one-collection fault injection (robustness tests).
    pub gc_fault: Option<GcFault>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            engine: EngineConfig::default(),
            shards: 2,
            window_max: 64,
            idle_timeout: Duration::from_secs(30),
            net_threads: 0,
            gc_fault: None,
        }
    }
}

/// One net loop thread's lifetime counters, reported in
/// [`NetOutcome::loops`]. All timing- and scheduling-dependent, hence
/// published only under the volatile `net_loops` telemetry key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Poll returns with at least one ready descriptor.
    pub wakeups: u64,
    /// Poll returns with nothing ready (an idle-deadline timer tick —
    /// zero on an idle server, which is the point of the event loop).
    pub timeouts: u64,
    /// Connections this loop adopted.
    pub accepted: u64,
    /// Complete request frames decoded.
    pub frames_in: u64,
    /// Response frames queued.
    pub frames_out: u64,
    /// Read bursts that ended with a partial frame left buffered.
    pub partial_reads: u64,
    /// Flushes that could not drain the whole write buffer.
    pub partial_writes: u64,
    /// Shard-executor completions applied.
    pub completions: u64,
    /// Deepest shard-executor queue observed when enqueuing a job.
    pub max_queue_depth: u64,
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
/// shard's executor, after each collection drain, so a loop thread
/// serving `Stats` never waits on a shard.
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
    draining: AtomicBool,
    clients: Mutex<Vec<ClientCounters>>,
    /// Indexed by shard.
    progress: Vec<ShardProgress>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Loop ↔ executor plumbing
// ---------------------------------------------------------------------

/// One net loop's cross-thread mailboxes: freshly accepted streams from
/// the acceptor, completions from shard executors, and the wake
/// descriptor that makes either poll-visible.
struct LoopShared {
    wake: WakePipe,
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
}

/// A shard executor's job queue. The order jobs leave it is the order
/// the shard applies turns in.
#[derive(Default)]
struct ShardExec {
    state: Mutex<ExecState>,
    cv: Condvar,
}

#[derive(Default)]
struct ExecState {
    jobs: VecDeque<Job>,
    stop: bool,
}

/// One decoded `Ops` turn; `objects` travels with it and returns in the
/// completion.
struct Job {
    loop_id: usize,
    conn: usize,
    session: u32,
    ops: Vec<SessionOp>,
    objects: SessionObjects,
    enqueued: Instant,
}

struct Completion {
    conn: usize,
    objects: SessionObjects,
    /// What the turn applied and its GC stall in ns, or why it failed.
    outcome: Result<(TurnApplied, u64), TurnFail>,
}

enum TurnFail {
    /// The turn itself failed (store rejection or unknown ref).
    Turn(TurnError),
    /// The shard can no longer serve (a panic in a collection or an
    /// earlier turn latched it failed).
    Shard(String),
}

impl ShardExec {
    /// Queues a job and returns the queue's depth with it in.
    fn enqueue(&self, job: Job) -> usize {
        let depth = {
            let mut st = lock(&self.state);
            st.jobs.push_back(job);
            st.jobs.len()
        };
        self.cv.notify_one();
        depth
    }

    /// Blocks for the next job; `None` once the queue is stopped and dry.
    fn next_job(&self) -> Option<Job> {
        let mut st = lock(&self.state);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.stop {
                return None;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

fn complete(loops: &[LoopShared], loop_id: usize, completion: Completion) {
    lock(&loops[loop_id].completions).push(completion);
    loops[loop_id].wake.wake();
}

/// The shard executor threads and their queues. Dropping it stops and
/// joins whichever are still running, so neither a failed `bind` nor a
/// server that is never `run` leaves a thread behind.
struct Executors {
    queues: Arc<Vec<ShardExec>>,
    /// Indexed by shard; each thread returns the [`Shard`] it owned.
    handles: Vec<JoinHandle<Shard>>,
}

impl Executors {
    /// Tells every executor to return once its queue runs dry.
    fn stop(&self) {
        for queue in self.queues.iter() {
            lock(&queue.state).stop = true;
            queue.cv.notify_all();
        }
    }
}

impl Drop for Executors {
    fn drop(&mut self) {
        self.stop();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A bound, not-yet-serving network front-end. Its shard executors are
/// already running (and idle) from [`NetServer::bind`] on.
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    loops: Arc<Vec<LoopShared>>,
    executors: Executors,
}

impl NetServer {
    /// Resolves the loop-thread count, binds the listener, and builds
    /// each shard together with the executor thread that owns it.
    /// `make_policy` is called once per shard with the shard index.
    /// `addr` is anything `TcpListener::bind` accepts; `"127.0.0.1:0"`
    /// picks a free port (read it back with [`NetServer::local_addr`]).
    pub fn bind(
        addr: &str,
        config: NetConfig,
        mut make_policy: impl FnMut(u32) -> Box<dyn RatePolicy + Send>,
    ) -> Result<NetServer, BindError> {
        let shard_count = config.shards.max(1) as usize;
        let net_threads = if config.net_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        } else {
            config.net_threads
        };
        let loops: Vec<LoopShared> = (0..net_threads)
            .map(|_| {
                Ok(LoopShared {
                    wake: WakePipe::new().map_err(BindError::Io)?,
                    inbox: Mutex::new(Vec::new()),
                    completions: Mutex::new(Vec::new()),
                })
            })
            .collect::<Result<_, BindError>>()?;
        let loops = Arc::new(loops);
        let listener = TcpListener::bind(addr).map_err(BindError::Io)?;
        listener.set_nonblocking(true).map_err(BindError::Io)?;
        let shared = Arc::new(Shared {
            window_max: config.window_max.max(1),
            idle_timeout: config.idle_timeout,
            draining: AtomicBool::new(false),
            clients: Mutex::new(Vec::new()),
            progress: (0..shard_count).map(|_| ShardProgress::default()).collect(),
        });

        let mut executors = Executors {
            queues: Arc::new((0..shard_count).map(|_| ShardExec::default()).collect()),
            handles: Vec::with_capacity(shard_count),
        };
        for i in 0..shard_count {
            let shard = Shard::new(i, &config.engine, make_policy(i as u32), config.gc_fault);
            let queues = Arc::clone(&executors.queues);
            let loops = Arc::clone(&loops);
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("odbgc-net-shard-{i}"))
                .spawn(move || shard_executor(shard, &queues[i], &loops, &shared.progress[i]))
                .map_err(BindError::Spawn)?;
            executors.handles.push(handle);
        }
        Ok(NetServer {
            listener,
            shared,
            loops,
            executors,
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client requests a graceful drain, then joins the
    /// loop threads, stops the executors, takes each shard back from
    /// its executor, and returns the outcome.
    pub fn run(self) -> NetOutcome {
        let NetServer {
            listener,
            shared,
            loops,
            mut executors,
        } = self;

        let mut listener = Some(listener);
        let mut loop_handles = Vec::with_capacity(loops.len());
        for loop_id in 0..loops.len() {
            let listener = if loop_id == 0 { listener.take() } else { None };
            let shared = Arc::clone(&shared);
            let loops = Arc::clone(&loops);
            let execs = Arc::clone(&executors.queues);
            let handle = std::thread::Builder::new()
                .name(format!("odbgc-net-loop-{loop_id}"))
                .spawn(move || {
                    NetLoop {
                        loop_id,
                        shared: &shared,
                        loops: &loops,
                        execs: &execs,
                        conns: Vec::new(),
                        free: Vec::new(),
                        stats: LoopStats::default(),
                        scratch: Vec::new(),
                        read_buf: vec![0u8; 64 * 1024],
                        rr: 0,
                    }
                    .run(listener)
                })
                .expect("spawn net loop");
            loop_handles.push(handle);
        }

        let loop_stats: Vec<LoopStats> = loop_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();

        // Every loop has exited, so no job can still be enqueued: each
        // executor finishes what is queued (every queued turn was
        // accepted before the drain) and returns its shard.
        executors.stop();
        let shards = executors
            .handles
            .drain(..)
            .map(|h| {
                // The executor catches turn and collection panics in
                // the shard; a panic of its own is a bug in this file.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    .into_outcome(Vec::new())
            })
            .collect();
        let clients = std::mem::take(&mut *lock(&shared.clients));
        NetOutcome {
            shards,
            clients,
            loops: loop_stats,
        }
    }
}

/// Why [`NetServer::bind`] failed.
#[derive(Debug)]
pub enum BindError {
    /// The listener or a loop's wake descriptor could not be created.
    Io(std::io::Error),
    /// A shard's executor thread could not be spawned.
    Spawn(std::io::Error),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::Io(e) => write!(f, "bind: {e}"),
            BindError::Spawn(e) => write!(f, "spawn shard executor: {e}"),
        }
    }
}

impl std::error::Error for BindError {}

// ---------------------------------------------------------------------
// Shard executor
// ---------------------------------------------------------------------

/// Owns `shard` until the queue is stopped and dry, then returns it.
///
/// Per job: apply the turn, post its completion, and only then drain the
/// shard's due collections — so the client's reply does not wait for a
/// collection its own turn triggered, and the next turn on this shard
/// cannot start until that collection has finished.
fn shard_executor(
    mut shard: Shard,
    queue: &ShardExec,
    loops: &[LoopShared],
    progress: &ShardProgress,
) -> Shard {
    // When the drain after the previous job ran, if it collected.
    let mut last_gc: Option<(Instant, Instant)> = None;
    while let Some(job) = queue.next_job() {
        let Job {
            loop_id,
            conn,
            session,
            ops,
            mut objects,
            enqueued,
        } = job;
        // How long this turn sat queued while the shard was collecting.
        let gc_stall_ns = last_gc.take().map_or(0, |(start, end)| {
            end.saturating_duration_since(enqueued.max(start))
                .as_nanos() as u64
        });
        // `Shard::turn` catches a panic in the engine, so it kills
        // neither this thread (which would hang every queued
        // connection) nor the objects map travelling with the job.
        let outcome = match shard.turn(SessionId::new(session), |sess| {
            apply_ops(sess, &mut objects, &ops)
        }) {
            Ok(Ok(applied)) => Ok((applied, gc_stall_ns)),
            // A failing turn was partially applied (ops before the
            // error landed); the drain below still runs.
            Ok(Err(e)) => Err(TurnFail::Turn(e)),
            Err(e) => Err(TurnFail::Shard(e.to_string())),
        };
        complete(
            loops,
            loop_id,
            Completion {
                conn,
                objects,
                outcome,
            },
        );
        let start = Instant::now();
        if shard.collect_due() {
            last_gc = Some((start, Instant::now()));
            progress
                .collections
                .store(shard.collection_count(), Ordering::SeqCst);
        }
        if let Some(failure) = shard.failure() {
            progress.failed.get_or_init(|| failure.kind.to_string());
        }
    }
    shard
}

// ---------------------------------------------------------------------
// Net loop
// ---------------------------------------------------------------------

fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> Fd {
    t.as_raw_fd()
}

/// Pause before retrying a `poll` that returned an error.
const POLL_ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// What to do with a connection after an event was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Keep,
    /// Close now: record counters, free the slot.
    Close,
    /// The socket failed while a shard job is in flight; keep the slot
    /// (the completion owns state to return) but stop polling the fd.
    Dead,
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
    execs: &'a [ShardExec],
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    stats: LoopStats,
    /// Response-body scratch, reused across every response this loop
    /// encodes.
    scratch: Vec<u8>,
    /// Socket read scratch.
    read_buf: Vec<u8>,
    /// Round-robin cursor for dealing accepted connections (loop 0).
    rr: usize,
}

impl NetLoop<'_> {
    fn run(mut self, mut listener: Option<TcpListener>) -> LoopStats {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut kinds: Vec<FdKind> = Vec::new();
        loop {
            self.adopt_inbox();
            for completion in std::mem::take(&mut *lock(&self.loops[self.loop_id].completions)) {
                self.apply_completion(completion);
            }
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
            if let Some(l) = &listener {
                fds.push(PollFd::new(raw_fd(l), POLLIN));
                kinds.push(FdKind::Listener);
            }
            for (idx, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                if conn.dead {
                    continue;
                }
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
            let ready = match poll(&mut fds, timeout_ms) {
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

    /// Next poll timeout: the soonest idle deadline among reapable
    /// connections, or block indefinitely when nothing is due — every
    /// other transition arrives as descriptor readiness.
    fn poll_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        for conn in self.conns.iter().flatten() {
            if conn.dead || conn.phase == ConnPhase::AwaitShard {
                continue;
            }
            let deadline = conn.last_activity + self.shared.idle_timeout;
            let remaining = deadline.saturating_duration_since(now);
            timeout = Some(match timeout {
                Some(t) => t.min(remaining),
                None => remaining,
            });
        }
        match timeout {
            // +1ms so the deadline has passed when the timeout fires.
            Some(t) => (t.as_millis() + 1).min(i32::MAX as u128) as i32,
            None => -1,
        }
    }

    fn adopt_inbox(&mut self) {
        let streams = std::mem::take(&mut *lock(&self.loops[self.loop_id].inbox));
        let draining = self.shared.draining.load(Ordering::SeqCst);
        for stream in streams {
            if draining {
                // Dropped: the client sees a closed socket, the
                // documented refusal during drain.
                continue;
            }
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let conn = Connection::new(stream, Instant::now());
        self.stats.accepted += 1;
        match self.free.pop() {
            Some(idx) => self.conns[idx] = Some(conn),
            None => self.conns.push(Some(conn)),
        }
    }

    fn accept_burst(&mut self, listener: &Option<TcpListener>) {
        let Some(listener) = listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let target = self.rr % self.loops.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.loop_id {
                        self.adopt(stream);
                    } else {
                        lock(&self.loops[target].inbox).push(stream);
                        self.loops[target].wake.wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE, aborted handshake):
                // drop the burst; the listener stays registered and poll
                // re-reports readiness.
                Err(_) => break,
            }
        }
    }

    /// True when this loop has nothing left to do under an active drain.
    fn is_quiescent(&self) -> bool {
        self.conns.iter().all(Option::is_none)
            && lock(&self.loops[self.loop_id].inbox).is_empty()
            && lock(&self.loops[self.loop_id].completions).is_empty()
    }

    /// Drain: close every connection with no shard job in flight. Each
    /// applied turn was acknowledged synchronously, so closing here
    /// loses nothing. A connection whose replies cannot be flushed stays
    /// until it flushes or [`NetLoop::reap_idle`] gives up on it.
    fn drain_pass(&mut self) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.dead || conn.phase == ConnPhase::AwaitShard {
                continue;
            }
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
            if conn.dead || conn.phase == ConnPhase::AwaitShard {
                continue;
            }
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
        match verdict {
            Verdict::Keep => {}
            Verdict::Dead => {
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.dead = true;
                }
            }
            Verdict::Close => {
                if let Some(conn) = self.conns[idx].take() {
                    lock(&self.shared.clients).push(conn.counters);
                    self.free.push(idx);
                }
            }
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
            verdict = self.read_burst(idx, &mut conn);
        }
        if verdict == Verdict::Keep && conn.out_pending() > 0 {
            let paused = !conn.accepting();
            verdict = self.flush(&mut conn);
            if verdict == Verdict::Keep && paused && conn.accepting() {
                // The peer read enough of its backed-up replies: take
                // up the frames left buffered when decoding stopped
                // (what is still in the kernel arrives as `POLLIN`).
                verdict = self.process_frames(idx, &mut conn);
            }
        }
        self.conns[idx] = Some(conn);
        self.retire(idx, verdict);
    }

    /// Reads until the kernel runs dry, the connection stops accepting
    /// frames (turn in flight / closing / replies backed up), or the
    /// stream ends.
    fn read_burst(&mut self, idx: usize, conn: &mut Connection) -> Verdict {
        loop {
            if !conn.accepting() {
                break;
            }
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => return Verdict::Close, // EOF
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    // Borrow dance: move the chunk through a split
                    // borrow of the scratch so the assembler can ingest
                    // while `self` stays usable afterwards.
                    let chunk_len = n;
                    conn.assembler.extend(&self.read_buf[..chunk_len]);
                    let verdict = self.process_frames(idx, conn);
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
    /// the connection enters `AwaitShard` (strict request/response:
    /// later frames wait for the turn's completion), starts closing, or
    /// has more than `OUT_HIGH_WATER` of replies unflushed.
    fn process_frames(&mut self, idx: usize, conn: &mut Connection) -> Verdict {
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
            match Request::decode(body) {
                Ok(req) => self.handle_request(idx, conn, req),
                Err(e) => {
                    self.refuse(conn, ErrorCode::Protocol, e.to_string());
                    conn.close_after_flush = true;
                }
            }
        }
    }

    fn handle_request(&mut self, idx: usize, conn: &mut Connection, req: Request) {
        match req {
            Request::Hello { session, window } => {
                // A bound connection stays bound: its object table and
                // credits belong to the shard the first Hello chose.
                if let Some(bound) = conn.session {
                    let message = format!("Hello on a connection bound to session {bound}");
                    return self.refuse(conn, ErrorCode::Protocol, message);
                }
                if self.shared.draining.load(Ordering::SeqCst) {
                    let message = "server is draining; no new sessions".into();
                    return self.refuse(conn, ErrorCode::Draining, message);
                }
                let window = window.clamp(1, self.shared.window_max);
                conn.session = Some(session);
                conn.shard = session % self.execs.len() as u32;
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
            }
            Request::Ops { ops } => {
                let Some(session) = conn.session else {
                    return self.refuse(conn, ErrorCode::Protocol, "Ops before Hello".into());
                };
                if self.shared.draining.load(Ordering::SeqCst) {
                    let message = "server is draining; no new turns".into();
                    return self.refuse(conn, ErrorCode::Draining, message);
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
                    return;
                }
                let objects = conn.objects.take().unwrap_or_default();
                conn.phase = ConnPhase::AwaitShard;
                let depth = self.execs[conn.shard as usize].enqueue(Job {
                    loop_id: self.loop_id,
                    conn: idx,
                    session,
                    ops,
                    objects,
                    enqueued: Instant::now(),
                });
                self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth as u64);
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
                for other in self.loops.iter() {
                    other.wake.wake();
                }
            }
            Request::Bye => {
                conn.counters.clean_close = true;
                self.queue_response(conn, &Response::ByeOk);
                conn.close_after_flush = true;
            }
        }
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
            Ok(true) => {
                if conn.close_after_flush {
                    Verdict::Close
                } else {
                    Verdict::Keep
                }
            }
            Ok(false) => {
                self.stats.partial_writes += 1;
                Verdict::Keep
            }
            Err(_) => {
                if conn.phase == ConnPhase::AwaitShard {
                    Verdict::Dead
                } else {
                    Verdict::Close
                }
            }
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        self.stats.completions += 1;
        let Completion {
            conn: idx,
            objects,
            outcome,
        } = completion;
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        conn.objects = Some(objects);
        conn.phase = ConnPhase::Ready;
        conn.last_activity = Instant::now();
        let resp = match outcome {
            Ok((applied, gc_stall_ns)) => {
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
            Err(TurnFail::Turn(e)) => Response::Error {
                code: match e.kind {
                    odbgc_engine::TurnErrorKind::Op(_) => ErrorCode::Op,
                    odbgc_engine::TurnErrorKind::UnknownRef { .. } => ErrorCode::Protocol,
                },
                message: e.to_string(),
            },
            Err(TurnFail::Shard(message)) => Response::Error {
                code: ErrorCode::ShardFailed,
                message,
            },
        };
        self.resume(idx, conn, resp);
    }

    /// Flushes a completion's response and resumes decoding any frames
    /// the client pipelined while the turn was in flight.
    fn resume(&mut self, idx: usize, mut conn: Connection, resp: Response) {
        if conn.dead {
            // The socket died mid-turn; the turn still counted (it was
            // applied), but there is nobody to respond to.
            lock(&self.shared.clients).push(conn.counters);
            self.free.push(idx);
            return;
        }
        self.queue_response(&mut conn, &resp);
        let mut verdict = self.process_frames(idx, &mut conn);
        if verdict == Verdict::Keep && conn.out_pending() > 0 {
            verdict = self.flush(&mut conn);
        }
        self.conns[idx] = Some(conn);
        self.retire(idx, verdict);
    }
}
