//! `net_lockstep` and `net_pipelined`: an in-process `NetServer` on a
//! loopback port, driven by connections on this thread.

use std::time::{Duration, Instant};

use super::layers::{self, Layers};
use super::sessions::{generate_turns, results_of, Turns, SESSION_POLICY, SESSION_REQUESTED};
use super::{
    check_results, exact_counts, reference_reps, secs, set_up, timed_report, timed_reps, Report,
    RunOpts,
};
use crate::checks::{self, NetTally};
use crate::drive::{self, ClientLog, NetOutcome, Res, RunResult, SessionShape, NEVER};
use crate::metrics::{self, Workload};
use crate::spans::Tracer;
use crate::stats;

struct NetPlan {
    shape: SessionShape,
    /// In-flight window each connection asks for and keeps full.
    window: u32,
}

fn net_plan(opts: &RunOpts) -> NetPlan {
    let lockstep = opts.workload == Workload::NetLockstep;
    let conns = if lockstep { 1 } else { 2 };
    NetPlan {
        shape: SessionShape {
            engine: opts.sizes.engine.clone(),
            policy: SESSION_POLICY,
            sessions: conns,
            shards: conns,
            ops_per_session: if lockstep {
                opts.sizes.lockstep_ops
            } else {
                opts.sizes.pipelined_ops
            },
            batch: if lockstep { 8 } else { 128 },
            seed: opts.seed,
        },
        window: if lockstep { 1 } else { 4 },
    }
}

/// One loopback rep: a fresh server, the connections, the driven turns.
struct NetRep {
    /// First `Ops` sent to last `AckOk` read.
    started: Instant,
    ended: Instant,
    log: ClientLog,
    outcome: NetOutcome,
}

impl NetRep {
    fn wall(&self) -> f64 {
        secs(self.ended - self.started)
    }

    fn shard_results(&self) -> Vec<RunResult> {
        self.outcome
            .shards
            .iter()
            .map(|s| s.result.clone())
            .collect()
    }

    fn tally(&self, ops_sent: u64) -> NetTally {
        let clients = &self.outcome.clients;
        NetTally {
            ops_sent,
            ops_acked: self.log.ops_acked,
            ops_on_shards: self
                .outcome
                .shards
                .iter()
                .map(|s| s.result.events_replayed)
                .sum(),
            busy_seen: self.log.busy,
            busy_counted: clients.iter().map(|c| c.busy_rejections).sum(),
            unclean_closes: clients.iter().filter(|c| !c.clean_close).count() as u64,
            failed_shards: self
                .outcome
                .shards
                .iter()
                .filter(|s| s.failed.is_some())
                .count() as u64,
        }
    }

    /// Client-observed `Ops` → `OpsOk` time of each round (a turn in
    /// lockstep, a full window on every connection when pipelined), ns.
    fn round_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.log
            .rounds
            .iter()
            .map(|(sent, answered, _)| (*answered - *sent).as_nanos() as u64)
    }

    /// `Ack` → `AckOk` time of each round, ns: a frame that does no
    /// shard work.
    fn ack_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.log
            .rounds
            .iter()
            .map(|(_, answered, acked)| (*acked - *answered).as_nanos() as u64)
    }
}

/// Starts a server (one net thread, the plan's shards), connects, drives
/// the turns — up to `deadline`, if any — and drains the server.
fn net_rep(plan: &NetPlan, turns: &Turns, deadline: Option<Instant>) -> Res<NetRep> {
    let server = drive::start_server(&plan.shape, 1)?;
    let mut conns = (0..plan.shape.sessions)
        .map(|session| server.connect(session, plan.window))
        .collect::<Res<Vec<_>>>()?;
    let mut log = ClientLog::default();
    let started = Instant::now();
    if plan.window == 1 {
        drive::drive_lockstep(&mut conns[0], &turns.by_session[0], deadline, &mut log)?;
    } else {
        let slices: Vec<&[drive::Request]> = turns.by_session.iter().map(Vec::as_slice).collect();
        drive::drive_pipelined(
            &mut conns,
            &slices,
            plan.window as usize,
            deadline,
            &mut log,
        )?;
    }
    let ended = Instant::now();
    for conn in conns {
        drive::bye(conn)?;
    }
    Ok(NetRep {
        started,
        ended,
        log,
        outcome: server.shutdown()?,
    })
}

/// One rep from freshly generated turns: the RSS probe's.
pub(super) fn once(opts: &RunOpts) -> Res<()> {
    let plan = net_plan(opts);
    checked_net_rep(&plan, &generate_turns(&plan.shape)).map(drop)
}

/// A complete rep, with the accounting checks.
fn checked_net_rep(plan: &NetPlan, turns: &Turns) -> Res<NetRep> {
    let rep = net_rep(plan, turns, None)?;
    checks::net_accounting(&rep.tally(turns.ops))?;
    Ok(rep)
}

/// Drives throwaway servers for `net_warm`, right before the timed
/// reps. On this host a cross-thread round trip costs about a quarter
/// for the first second of sustained ping-pong of what it costs
/// afterwards, so an unwarmed first rep would be measured in another
/// regime than the rest. Returns first-second over last-second
/// throughput of the warm-up (about 1 on a host without the quirk).
fn net_warm_up(plan: &NetPlan, turns: &Turns, warm: Duration) -> Res<f64> {
    let begin = Instant::now();
    let deadline = begin + warm;
    let mut answered: Vec<Instant> = Vec::new();
    while Instant::now() < deadline {
        let rep = net_rep(plan, turns, Some(deadline))?;
        answered.extend(rep.log.rounds.iter().map(|r| r.1));
    }
    let Some(&last) = answered.last() else {
        return Ok(0.0);
    };
    let second = Duration::from_secs(1).min(warm / 2);
    let first_second = answered.iter().filter(|&&t| t < begin + second).count();
    let last_second = answered.iter().filter(|&&t| t + second > last).count();
    Ok(first_second as f64 / last_second.max(1) as f64)
}

/// Set-up is everything before the first turn can be sent: generate the
/// turns, bind and start a server, connect and say Hello (and take that
/// server down again).
pub(super) fn set_up_once(opts: &RunOpts) -> Res<Turns> {
    let plan = net_plan(opts);
    let turns = generate_turns(&plan.shape);
    let server = drive::start_server(&plan.shape, 1)?;
    for session in 0..plan.shape.sessions {
        drive::bye(server.connect(session, plan.window)?)?;
    }
    server.shutdown()?;
    Ok(turns)
}

pub(super) fn timed(opts: &RunOpts) -> Res<Report> {
    let sizes = &opts.sizes;
    let plan = net_plan(opts);
    let (turns, setup) = set_up(opts, || set_up_once(opts))?;
    // The throwaway servers are the warm-up: no discarded rep after them.
    net_warm_up(&plan, &turns, sizes.net_warm)?;

    let reps = timed_reps(sizes, opts.seconds, 0, || {
        let rep = checked_net_rep(&plan, &turns)?;
        Ok((rep.wall(), rep))
    })?;
    let (walls, reps): (Vec<f64>, Vec<NetRep>) = reps.into_iter().unzip();
    let results: Vec<Vec<RunResult>> = reps.iter().map(NetRep::shard_results).collect();
    let direct =
        drive::apply_turns_direct(&plan.shape, turns.session_order(), &turns.by_session, None)?;
    checks::same_results(
        "the served shards against the turns applied directly",
        &results_of(&direct.shards),
        &results[0],
    )?;
    let requested = Some(SESSION_REQUESTED);
    let failed = reps.iter().map(|r| r.tally(turns.ops).failed_ops()).sum();
    let mut report = timed_report(opts, requested, &setup, &walls, &results, turns.ops, failed)?;

    // Latency pools the timed reps' samples.
    let pooled = layers::us_sorted(reps.iter().flat_map(NetRep::round_ns));
    let mut p50 = metrics::end_to_end("turn_p50_us", stats::percentile(&pooled, 0.50));
    p50.n = pooled.len();
    report.metrics.insert(2, p50);
    // A pipelined rep has a few hundred rounds: its tail is a layer
    // metric of the traced run, not an end-to-end one.
    if opts.workload == Workload::NetLockstep && stats::supported(pooled.len(), 0.99) {
        let mut p99 = metrics::end_to_end("turn_p99_us", stats::percentile(&pooled, 0.99));
        p99.n = pooled.len();
        report.metrics.insert(3, p99);
    }
    Ok(report)
}

pub(super) fn traced(opts: &RunOpts) -> Res<Report> {
    let sizes = &opts.sizes;
    let plan = net_plan(opts);
    let lockstep = opts.workload == Workload::NetLockstep;
    let mut layer = Layers::new();
    let mut report = Report::new(opts);

    let start = Instant::now();
    let turns = generate_turns(&plan.shape);
    layer.set(
        "engine.workload_gen_ns_per_op",
        start.elapsed().as_nanos() as f64 / turns.ops as f64,
    );
    layer.set(
        "net.warm_ratio",
        net_warm_up(&plan, &turns, sizes.net_warm)?,
    );

    let (whole, reference_rep) = reference_reps(sizes, 0, || {
        let rep = checked_net_rep(&plan, &turns)?;
        Ok((rep.wall(), rep))
    })?;
    let reference = reference_rep.shard_results();

    let floor_plan = NetPlan {
        shape: SessionShape {
            policy: NEVER,
            ..plan.shape.clone()
        },
        window: plan.window,
    };
    let floor = checked_net_rep(&floor_plan, &turns)?.wall();
    layer.set("engine.gc_wall_share_pct", 100.0 * (1.0 - floor / whole));

    // The traced rep. The client reads the clock around every frame in
    // every rep (that is where the latency samples come from), so the
    // spans are those readings, recorded after the rep has ended. They
    // are pass 3; passes 0 to 2 are the collector's, below.
    let mut tracer = Tracer::new();
    let rep = checked_net_rep(&plan, &turns)?;
    tracer.set_rep(3);
    let drive_span = tracer.record("net.drive", rep.started, rep.ended, None);
    for &(sent, answered, acked) in &rep.log.rounds {
        tracer.record("net.ops_rtt", sent, answered, Some(drive_span));
        tracer.record("net.ack_rtt", answered, acked, Some(drive_span));
    }

    let mut apply_ns = 0;
    let shipped = layers::gc_passes(
        &mut tracer,
        &mut layer,
        &plan.shape.engine,
        plan.shape.policy,
        &reference,
        |config, tracer| {
            let shape = SessionShape {
                engine: config.clone(),
                ..plan.shape.clone()
            };
            let run = drive::apply_turns_direct(
                &shape,
                turns.session_order(),
                &turns.by_session,
                Some(tracer),
            )?;
            apply_ns = run.apply_ns;
            Ok(run.shards)
        },
    )?;
    layers::count_layers(&mut layer, Some(SESSION_REQUESTED), &shipped)?;
    check_results(sizes, Some(SESSION_REQUESTED), &reference)?;
    layer.set(
        "engine.apply_ops_ns_per_op",
        apply_ns as f64 / turns.ops as f64,
    );
    layer.set("engine.gc_stall_ms", layers::ms(rep.log.gc_stall_ns));

    let rounds = layers::us_sorted(rep.round_ns());
    let acks = layers::us_sorted(rep.ack_ns());
    let round_p50 = stats::percentile(&rounds, 0.50);
    let ack_p50 = stats::percentile(&acks, 0.50);
    let turns_per_round = turns.count as f64 / rounds.len() as f64;
    layer.set("net.turn_p50_us", round_p50);
    layer.set("net.ack_rtt_p50_us", ack_p50);
    layer.set(
        "net.handoff_us_per_turn",
        (round_p50 - ack_p50) / turns_per_round - apply_ns as f64 / 1e3 / turns.count as f64,
    );
    if lockstep {
        if stats::supported(rounds.len(), 0.99) {
            layer.set("net.turn_p99_us", stats::percentile(&rounds, 0.99));
        }
        if stats::supported(rounds.len(), 0.999) {
            layer.set("net.turn_p999_us", stats::percentile(&rounds, 0.999));
        }
    } else {
        layer.set("net.round_p99_us", stats::percentile(&rounds, 0.99));
    }
    let all_turns: Vec<drive::Request> = turns.by_session.iter().flatten().cloned().collect();
    layer.set(
        "net.codec_ns_per_turn",
        drive::codec_pass(&all_turns)?.as_nanos() as f64 / turns.count as f64,
    );
    let clients = &rep.outcome.clients;
    let loops = &rep.outcome.loops;
    layer.set(
        "net.bytes_per_op",
        clients
            .iter()
            .map(|c| c.bytes_in + c.bytes_out)
            .sum::<u64>() as f64
            / turns.ops as f64,
    );
    layer.set(
        "net.wakeups_per_turn",
        loops.iter().map(|l| l.wakeups).sum::<u64>() as f64 / turns.count as f64,
    );
    layer.set(
        "net.partial_io",
        loops
            .iter()
            .map(|l| l.partial_reads + l.partial_writes)
            .sum::<u64>() as f64,
    );
    layer.set(
        "net.max_queue_depth",
        loops.iter().map(|l| l.max_queue_depth).max().unwrap_or(0) as f64,
    );
    layer.set(
        "net.busy_rejections",
        clients.iter().map(|c| c.busy_rejections).sum::<u64>() as f64,
    );

    report.attempted = turns.ops;
    report.exact = exact_counts(&reference);
    layers::finish_traced(opts, report, layer, &tracer, 3, Vec::new(), whole)
}
