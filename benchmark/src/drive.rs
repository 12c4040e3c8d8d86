//! Every call into the program under test.
//!
//! This file is the API surface the benchmark pins: `Oo7App::generate`,
//! `odbgc_tracefile::{encode, open_batches}`, `Simulator::replay_batched`,
//! `StoreEngine::{new, set_collect_mode, apply_event, apply_batch,
//! collection_due, collect_if_due, into_result, sched_totals}`,
//! `Store::{apply, buffer_stats}`, `odbgc_engine::{serve, apply_ops,
//! SessionWorkload, SessionOp}`, `NetServer::{bind, local_addr, run}`,
//! `Conn::{connect, send, read_response, request}`, `Request`/`Response`
//! and their codec, `PolicySpec` and `EstimatorKind`. A change to one of
//! them is a change to what the benchmark measures; nothing else in the
//! benchmark names the program's items, except the plain data types
//! re-exported here.
//!
//! The functions are the loops the workloads are made of. Those that a
//! traced run decomposes take the span recorder and open a span around
//! each call into a layer; the timed, untraced path never does.

use std::path::Path;
use std::time::{Duration, Instant};

use odbgc_core::{EstimatorKind, PolicySpec, RatePolicy};
use odbgc_engine::{
    apply_ops, serve, CollectMode, DecisionLog, ServeConfig, SessionId, SessionObjects,
    SessionWorkload, StoreEngine, WorkloadParams,
};
use odbgc_net::{frame_into, Conn, NetConfig, NetServer, Response};
use odbgc_oo7::Oo7App;
use odbgc_sim::{ReplayOptions, Simulator};
use odbgc_store::Store;
use odbgc_tracefile::open_batches;

pub use odbgc_core::ClampHit;
pub use odbgc_engine::{DecisionRecord, EngineConfig, RunResult, ServeOutcome, SessionOp};
pub use odbgc_net::{NetOutcome, Request};
pub use odbgc_oo7::Oo7Params;
use odbgc_trace::{Event, Trace};

use crate::spans::Tracer;

pub type Res<T> = Result<T, String>;

/// A policy whose trigger no workload reaches: collection off.
pub const NEVER: &str = "fixed:1000000000";

fn policy(spec: &str) -> Box<dyn RatePolicy + Send> {
    spec.parse::<PolicySpec>()
        .expect("the benchmark's policy specs are constants")
        .build()
}

// ---------------------------------------------------------------------
// Trace generation and the trace file
// ---------------------------------------------------------------------

/// `Oo7App::generate`: the standard four-phase application.
pub fn generate(params: Oo7Params, seed: u64) -> Trace {
    Oo7App::standard(params, seed).generate().0
}

/// `odbgc_tracefile::encode`.
pub fn encode(trace: &Trace) -> Vec<u8> {
    odbgc_tracefile::encode(trace)
}

/// Decode only: `open_batches`, then `next_batch` to the end. Returns the
/// events decoded.
pub fn decode_pass(path: &Path) -> Res<u64> {
    let mut batches = open_batches(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut events = 0u64;
    while let Some(batch) = batches.next_batch().map_err(|e| format!("decode: {e}"))? {
        events += std::hint::black_box(batch).len() as u64;
    }
    Ok(events)
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// The untraced replay every `replay_*` rep times: `open_batches` →
/// `Simulator::replay_batched`.
pub fn replay(path: &Path, config: &EngineConfig, spec: &str) -> Res<RunResult> {
    let batches = open_batches(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Simulator::new(config.clone())
        .replay_batched(batches, &mut policy(spec), ReplayOptions::new())
        .map_err(|e| format!("replay: {e}"))
}

/// Applies the trace file batch by batch, as the replay does, and
/// returns the time spent in `apply` — the clock stops while the next
/// batch decodes. The events are applied straight after they are
/// decoded, so they are as warm in the cache as the replay finds them.
fn apply_pass(path: &Path, mut apply: impl FnMut(&[Event]) -> Res<()>) -> Res<Duration> {
    let mut batches = open_batches(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut applying = Duration::ZERO;
    while let Some(batch) = batches.next_batch().map_err(|e| format!("decode: {e}"))? {
        let start = Instant::now();
        apply(batch)?;
        applying += start.elapsed();
    }
    Ok(applying)
}

/// `Store::apply` alone over the file's batches.
pub fn store_apply_pass(path: &Path, config: &EngineConfig) -> Res<Duration> {
    let mut store = Store::new(config.store.clone());
    apply_pass(path, |batch| {
        for ev in batch {
            store.apply(ev).map_err(|e| format!("store apply: {e}"))?;
        }
        Ok(())
    })
}

/// `StoreEngine::apply_batch` over the file's batches under a policy
/// that never fires: store apply plus the engine's per-event dispatch,
/// sampling and trigger check.
pub fn engine_apply_pass(path: &Path, config: &EngineConfig) -> Res<Duration> {
    let mut engine = StoreEngine::new(config.clone(), policy(NEVER));
    apply_pass(path, |batch| {
        engine
            .apply_batch(batch, None)
            .map_err(|(i, e)| format!("apply_batch: event {i} of a batch: {e}"))
    })
}

/// What a hand-driven engine did, beyond its `RunResult`.
pub struct EngineRun {
    pub result: RunResult,
    pub decisions: Vec<DecisionRecord>,
    pub sched_packets: u64,
    pub sched_steals: u64,
    pub sched_busy_ns: u64,
    pub buffer_hit_rate: f64,
}

fn finish_engine(
    engine: StoreEngine,
    log: DecisionLog,
    phases: Vec<(String, u64, u64)>,
) -> EngineRun {
    let sched = engine.sched_totals();
    let buffer_hit_rate = engine.store().buffer_stats().app_hit_rate();
    EngineRun {
        result: engine.into_result(phases),
        decisions: log.decisions,
        sched_packets: sched.packets,
        sched_steals: sched.steals,
        sched_busy_ns: sched.busy_ns,
        buffer_hit_rate,
    }
}

/// The traced replay loop: the engine in `CollectMode::Deferred`, one
/// `apply_event` per event, and a `gc.collect` span around
/// `collect_if_due` whenever `collection_due()`. Events and collections
/// fall in the same order as in the inline replay, which the caller
/// asserts by comparing the `RunResult` with [`replay`]'s.
///
/// Spans: `engine.apply_loop` (self time = engine dispatch + store
/// apply) ⊃ `tracefile.decode`, `gc.collect`.
pub fn deferred_replay(
    path: &Path,
    config: &EngineConfig,
    spec: &str,
    tracer: &mut Tracer,
) -> Res<EngineRun> {
    let root = tracer.enter("engine.apply_loop");
    let mut batches = open_batches(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let phase_names = batches.phase_names().to_vec();
    let mut engine = StoreEngine::new(config.clone(), policy(spec));
    engine.set_collect_mode(CollectMode::Deferred);
    let mut log = DecisionLog::default();
    let mut phases = Vec::new();
    let mut index = 0u64;
    loop {
        let span = tracer.enter("tracefile.decode");
        let batch = batches.next_batch();
        tracer.exit(span);
        let Some(batch) = batch.map_err(|e| format!("decode: {e}"))? else {
            break;
        };
        for ev in batch {
            if let Event::Phase { id } = ev {
                let name = phase_names
                    .get(id.index())
                    .map_or("<unknown>", String::as_str);
                phases.push((name.to_owned(), index, engine.collection_count()));
            }
            engine
                .apply_event(ev, None)
                .map_err(|e| format!("event {index}: {e}"))?;
            index += 1;
            if engine.collection_due() {
                let span = tracer.enter("gc.collect");
                engine.collect_if_due(Some(&mut log));
                tracer.exit(span);
            }
        }
    }
    let run = finish_engine(engine, log, phases);
    tracer.exit(root);
    Ok(run)
}

/// `RatePolicy::after_collection` over recorded observations on a fresh
/// policy: the time the policy's own arithmetic takes per decision.
pub fn decide_pass(spec: &str, decisions: &[DecisionRecord]) -> Duration {
    let mut policy = policy(spec);
    std::hint::black_box(policy.initial_trigger());
    let start = Instant::now();
    for d in decisions {
        std::hint::black_box(policy.after_collection(&d.observation));
    }
    start.elapsed()
}

/// Mean absolute error, in percent of the exact garbage, of the paper's
/// FGS/HB estimator (the one `replay_saga` runs) over recorded
/// observations. Pure arithmetic on exact-repeat inputs.
pub fn estimator_err_pct(decisions: &[DecisionRecord]) -> f64 {
    let mut estimator = EstimatorKind::fgs_hb_default().build();
    let (mut err, mut exact) = (0.0, 0.0);
    for d in decisions {
        let estimate = estimator.estimate(&d.observation);
        err += (estimate - d.observation.exact_garbage as f64).abs();
        exact += d.observation.exact_garbage as f64;
    }
    if exact == 0.0 {
        0.0
    } else {
        100.0 * err / exact
    }
}

// ---------------------------------------------------------------------
// Session workloads: in-process serve and the direct reference
// ---------------------------------------------------------------------

/// The shipped session workload with the benchmark's seed.
pub fn workload_params(seed: u64) -> WorkloadParams {
    WorkloadParams {
        seed,
        ..WorkloadParams::default()
    }
}

/// Shape of a session workload: who submits how much, to how many
/// shards, under which policy.
#[derive(Debug, Clone)]
pub struct SessionShape {
    pub engine: EngineConfig,
    pub policy: &'static str,
    pub sessions: u32,
    pub shards: u32,
    pub ops_per_session: u64,
    pub batch: u64,
    pub seed: u64,
}

/// `SessionWorkload::next_turn` to exhaustion: every turn session
/// `session` submits, as the `Ops` requests a client sends.
pub fn session_turns(shape: &SessionShape, session: u32) -> Vec<Request> {
    let mut workload =
        SessionWorkload::new(session, workload_params(shape.seed), shape.ops_per_session);
    let mut turns = Vec::new();
    loop {
        let ops = workload.next_turn(shape.batch);
        if ops.is_empty() {
            return turns;
        }
        turns.push(Request::Ops { ops });
    }
}

/// The operations of an `Ops` request.
pub fn ops_of(turn: &Request) -> &[SessionOp] {
    match turn {
        Request::Ops { ops } => ops,
        _ => &[],
    }
}

/// `odbgc_engine::serve` on the shape, with the seed also feeding the
/// scheduler.
pub fn serve_inproc(shape: &SessionShape) -> Res<ServeOutcome> {
    let config = ServeConfig {
        engine: shape.engine.clone(),
        sessions: shape.sessions,
        shards: shape.shards,
        ops_per_session: shape.ops_per_session,
        batch: shape.batch,
        scheduler_seed: shape.seed,
        workload: workload_params(shape.seed),
        gc_fault: None,
    };
    serve(config, |_| policy(shape.policy)).map_err(|e| format!("serve: {e}"))
}

/// What [`apply_turns_direct`] did.
pub struct DirectRun {
    /// One per shard.
    pub shards: Vec<EngineRun>,
    pub turns: u64,
    pub ops: u64,
    /// Time inside `apply_ops` alone.
    pub apply_ns: u64,
}

/// The single-threaded reference for every session workload: the given
/// turns applied, in `order`, straight onto one bare `StoreEngine` per
/// shard — `CollectMode::Deferred`, due collections drained at the end
/// of each turn, which is where serve mode's GC worker runs them. No
/// mutex, no worker thread, no socket: what remains of a served rep's
/// wall time beyond this is synchronisation and transport.
///
/// `order` names the session of each successive turn; session `s` lives
/// on shard `s % shards`. With a tracer, each turn gets an
/// `engine.apply_ops` span and each drain a `gc.collect` span under
/// `engine.direct`.
pub fn apply_turns_direct(
    shape: &SessionShape,
    order: impl IntoIterator<Item = u32>,
    turns: &[Vec<Request>],
    mut tracer: Option<&mut Tracer>,
) -> Res<DirectRun> {
    let root = tracer.as_deref_mut().map(|t| t.enter("engine.direct"));
    let shard_count = shape.shards.min(shape.sessions).max(1) as usize;
    let mut shards: Vec<(StoreEngine, DecisionLog)> = (0..shard_count)
        .map(|_| {
            let mut engine = StoreEngine::new(shape.engine.clone(), policy(shape.policy));
            engine.set_collect_mode(CollectMode::Deferred);
            (engine, DecisionLog::default())
        })
        .collect();
    let mut objects: Vec<SessionObjects> = turns.iter().map(|_| SessionObjects::new()).collect();
    let mut next = vec![0usize; turns.len()];
    let mut run = DirectRun {
        shards: Vec::new(),
        turns: 0,
        ops: 0,
        apply_ns: 0,
    };
    for session in order {
        let s = session as usize;
        let turn = turns
            .get(s)
            .and_then(|t| t.get(next[s]))
            .ok_or_else(|| format!("schedule names a turn session {s} does not have"))?;
        next[s] += 1;
        let (engine, log) = &mut shards[s % shard_count];
        let start = Instant::now();
        let applied = apply_ops(
            &mut engine.session_with(SessionId::new(session), Some(log)),
            &mut objects[s],
            ops_of(turn),
        )
        .map_err(|e| format!("session {s}: {e}"))?;
        let end = Instant::now();
        run.apply_ns += (end - start).as_nanos() as u64;
        run.turns += 1;
        run.ops += applied.applied;
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.record("engine.apply_ops", start, end, Some(root));
        }
        if engine.collection_due() {
            let span = tracer.as_deref_mut().map(|t| t.enter("gc.collect"));
            while engine.collect_if_due(Some(log)).is_some() {}
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.exit(span);
            }
        }
    }
    run.shards = shards
        .into_iter()
        .map(|(engine, log)| finish_engine(engine, log, Vec::new()))
        .collect();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.exit(root);
    }
    Ok(run)
}

// ---------------------------------------------------------------------
// Loopback serve
// ---------------------------------------------------------------------

/// An in-process `NetServer` serving on its own thread.
pub struct Server {
    addr: String,
    thread: std::thread::JoinHandle<NetOutcome>,
}

/// `NetServer::bind` on a free loopback port, `local_addr`, and `run` on
/// a new thread.
pub fn start_server(shape: &SessionShape, net_threads: usize) -> Res<Server> {
    let config = NetConfig {
        engine: shape.engine.clone(),
        shards: shape.shards,
        net_threads,
        ..NetConfig::default()
    };
    let spec = shape.policy;
    let server = NetServer::bind("127.0.0.1:0", config, |_| policy(spec))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let thread = std::thread::Builder::new()
        .name("bench-net-server".into())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn server thread: {e}"))?;
    Ok(Server { addr, thread })
}

impl Server {
    /// `Conn::connect` + `Hello`: a connection bound to `session` with
    /// the given in-flight window.
    pub fn connect(&self, session: u32, window: u32) -> Res<Conn> {
        let mut conn = Conn::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        match conn.request(&Request::Hello { session, window }) {
            Ok(Response::HelloOk {
                window: granted, ..
            }) if granted == window => Ok(conn),
            other => Err(format!(
                "Hello: want HelloOk with window {window}, got {other:?}"
            )),
        }
    }

    /// Asks for the graceful drain from an admin connection and waits
    /// for `run` to return.
    pub fn shutdown(self) -> Res<NetOutcome> {
        let mut admin = Conn::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        match admin.request(&Request::Shutdown) {
            Ok(Response::ShutdownOk) => {}
            other => return Err(format!("Shutdown: got {other:?}")),
        }
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())
    }
}

/// Says `Bye` on a data connection.
pub fn bye(mut conn: Conn) -> Res<()> {
    match conn.request(&Request::Bye) {
        Ok(Response::ByeOk) => Ok(()),
        other => Err(format!("Bye: got {other:?}")),
    }
}

/// Client-side record of a driven connection set: three clock readings
/// per round (before the `Ops`, after the last `OpsOk`, after the
/// `AckOk`) and the sums of what the server reported.
#[derive(Default)]
pub struct ClientLog {
    pub rounds: Vec<(Instant, Instant, Instant)>,
    pub turns: u64,
    pub ops_acked: u64,
    pub busy: u64,
    pub gc_stall_ns: u64,
}

impl ClientLog {
    /// Takes one response to an `Ops` request into the sums. `Busy` is
    /// counted and otherwise tolerated here; the run's checks fail on it.
    fn note(&mut self, resp: Result<Response, odbgc_net::ClientError>) -> Res<()> {
        match resp {
            Ok(Response::OpsOk {
                applied,
                gc_stall_ns,
                ..
            }) => {
                self.turns += 1;
                self.ops_acked += applied;
                self.gc_stall_ns += gc_stall_ns;
                Ok(())
            }
            Ok(Response::Busy { .. }) => {
                self.busy += 1;
                Ok(())
            }
            other => Err(format!("Ops: want OpsOk, got {other:?}")),
        }
    }
}

fn ack(conn: &mut Conn) -> Res<()> {
    match conn.read_response() {
        Ok(Response::AckOk { .. }) => Ok(()),
        other => Err(format!("Ack: want AckOk, got {other:?}")),
    }
}

/// Lockstep: `Ops` → `OpsOk` → `Ack` → `AckOk`, one turn in flight.
/// Stops early at `deadline` (the warm-up uses that).
pub fn drive_lockstep(
    conn: &mut Conn,
    turns: &[Request],
    deadline: Option<Instant>,
    log: &mut ClientLog,
) -> Res<()> {
    for turn in turns {
        let t0 = Instant::now();
        if deadline.is_some_and(|d| t0 >= d) {
            break;
        }
        log.note(conn.request(turn))?;
        let t1 = Instant::now();
        conn.send(&Request::Ack { n: 1 })
            .map_err(|e| format!("Ack: {e}"))?;
        ack(conn)?;
        log.rounds.push((t0, t1, Instant::now()));
    }
    Ok(())
}

/// Pipelined: every connection's window is filled (`send` × `window`),
/// then every response is read, then one `Ack{n: window}` per
/// connection — a round. All connections are driven from this thread.
pub fn drive_pipelined(
    conns: &mut [Conn],
    turns: &[&[Request]],
    window: usize,
    deadline: Option<Instant>,
    log: &mut ClientLog,
) -> Res<()> {
    let longest = turns.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut sent = vec![0usize; conns.len()];
    for base in (0..longest).step_by(window) {
        let t0 = Instant::now();
        if deadline.is_some_and(|d| t0 >= d) {
            break;
        }
        for ((conn, turns), sent) in conns.iter_mut().zip(turns).zip(&mut sent) {
            let round = &turns[base.min(turns.len())..(base + window).min(turns.len())];
            for turn in round {
                conn.send(turn).map_err(|e| format!("Ops: {e}"))?;
            }
            *sent = round.len();
        }
        for (conn, &sent) in conns.iter_mut().zip(&sent) {
            for _ in 0..sent {
                log.note(conn.read_response())?;
            }
        }
        let t1 = Instant::now();
        for (conn, &sent) in conns.iter_mut().zip(&sent) {
            if sent > 0 {
                conn.send(&Request::Ack { n: sent as u64 })
                    .map_err(|e| format!("Ack: {e}"))?;
            }
        }
        for (conn, &sent) in conns.iter_mut().zip(&sent) {
            if sent > 0 {
                ack(conn)?;
            }
        }
        log.rounds.push((t0, t1, Instant::now()));
    }
    Ok(())
}

/// The frame codec alone, over the same turns: `encode_into` +
/// `frame_into` + `decode` of each `Ops` request and of an `OpsOk`
/// response, as client and server each do once per turn.
pub fn codec_pass(turns: &[Request]) -> Res<Duration> {
    let (mut body, mut wire) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for turn in turns {
        turn.encode_into(&mut body);
        wire.clear();
        frame_into(&mut wire, &body);
        let decoded = Request::decode(&body).map_err(|e| format!("decode request: {e}"))?;
        let reply = Response::OpsOk {
            applied: ops_of(&decoded).len() as u64,
            created: 0,
            garbage_created: 0,
            in_flight: 1,
            gc_stall_ns: 0,
        };
        reply.encode_into(&mut body);
        wire.clear();
        frame_into(&mut wire, &body);
        std::hint::black_box(Response::decode(&body).map_err(|e| format!("decode reply: {e}"))?);
        std::hint::black_box(&wire);
    }
    Ok(start.elapsed())
}
