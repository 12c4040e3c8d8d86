//! Session workloads: what `serve_inproc` and `net_*` share — the
//! generated turns, the policy — and `serve_inproc` itself.

use std::time::Instant;

use super::layers::{self, Layers};
use super::{
    check_results, exact_counts, reference_reps, secs, set_up, timed_report, timed_reps, Report,
    RunOpts,
};
use crate::checks::{self, Requested};
use crate::drive::{self, EngineRun, Res, RunResult, SessionShape, NEVER};
use crate::spans::Tracer;

pub(super) const SESSION_POLICY: &str = "saio:10%";
pub(super) const SESSION_REQUESTED: Requested = Requested::GcIoPct(10.0);

/// A session workload's generated inputs: every turn of every session.
pub(super) struct Turns {
    pub(super) by_session: Vec<Vec<drive::Request>>,
    pub(super) ops: u64,
    pub(super) count: u64,
}

pub(super) fn generate_turns(shape: &SessionShape) -> Turns {
    let by_session: Vec<Vec<drive::Request>> = (0..shape.sessions)
        .map(|s| drive::session_turns(shape, s))
        .collect();
    let all = || by_session.iter().flatten();
    Turns {
        ops: all().map(|t| drive::ops_of(t).len() as u64).sum(),
        count: all().count() as u64,
        by_session,
    }
}

impl Turns {
    /// Session after session: an order that keeps each shard's own
    /// order, which is all that a shard's result depends on.
    pub(super) fn session_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_session
            .iter()
            .enumerate()
            .flat_map(|(s, turns)| std::iter::repeat_n(s as u32, turns.len()))
    }
}

pub(super) fn results_of(runs: &[EngineRun]) -> Vec<RunResult> {
    runs.iter().map(|r| r.result.clone()).collect()
}

// ---------------------------------------------------------------------
// serve_inproc
// ---------------------------------------------------------------------

fn serve_shape(opts: &RunOpts) -> SessionShape {
    SessionShape {
        engine: opts.sizes.engine.clone(),
        policy: SESSION_POLICY,
        sessions: 2,
        shards: 2,
        ops_per_session: opts.sizes.serve_ops,
        batch: 8,
        seed: opts.seed,
    }
}

/// One `serve` rep: its wall seconds, what it produced, and the checks
/// that need only the outcome.
fn serve_rep(shape: &SessionShape) -> Res<(f64, drive::ServeOutcome)> {
    let start = Instant::now();
    let outcome = drive::serve_inproc(shape)?;
    let wall = secs(start.elapsed());
    if let Some(failure) = outcome.failures.first() {
        return Err(format!("serve: {failure}"));
    }
    if outcome
        .per_session_ops
        .iter()
        .any(|&n| n != shape.ops_per_session)
    {
        return Err(format!(
            "serve applied {:?} ops per session, {} were submitted",
            outcome.per_session_ops, shape.ops_per_session
        ));
    }
    Ok((wall, outcome))
}

/// `serve` generates its sessions' operations itself, from the seeds;
/// set-up generates the same streams, for the direct reference.
pub(super) fn serve_set_up(opts: &RunOpts) -> Turns {
    generate_turns(&serve_shape(opts))
}

/// One `serve` rep: the RSS probe's.
pub(super) fn serve_once(opts: &RunOpts) -> Res<()> {
    serve_rep(&serve_shape(opts)).map(drop)
}

fn shard_results(outcome: &drive::ServeOutcome) -> Vec<RunResult> {
    outcome.shards.iter().map(|s| s.result.clone()).collect()
}

pub(super) fn serve_timed(opts: &RunOpts) -> Res<Report> {
    let sizes = &opts.sizes;
    let shape = serve_shape(opts);
    let (turns, setup) = set_up(opts, || Ok(serve_set_up(opts)))?;

    let reps = timed_reps(sizes, opts.seconds, sizes.warmup_reps, || serve_rep(&shape))?;
    let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
    let results: Vec<Vec<RunResult>> = reps.iter().map(|(_, o)| shard_results(o)).collect();
    let schedule = reps[0].1.schedule.iter().copied();
    let direct = drive::apply_turns_direct(&shape, schedule, &turns.by_session, None)?;
    checks::same_results(
        "serve against the turns applied directly",
        &results_of(&direct.shards),
        &results[0],
    )?;
    let requested = Some(SESSION_REQUESTED);
    timed_report(opts, requested, &setup, &walls, &results, turns.ops, 0)
}

pub(super) fn serve_traced(opts: &RunOpts) -> Res<Report> {
    let sizes = &opts.sizes;
    let shape = serve_shape(opts);
    let mut layer = Layers::new();
    let mut report = Report::new(opts);

    let start = Instant::now();
    let turns = generate_turns(&shape);
    layer.set(
        "engine.workload_gen_ns_per_op",
        start.elapsed().as_nanos() as f64 / turns.ops as f64,
    );

    let (whole, outcome) = reference_reps(sizes, sizes.warmup_reps, || serve_rep(&shape))?;
    let reference = shard_results(&outcome);
    let schedule = &outcome.schedule;

    let floor = serve_rep(&SessionShape {
        policy: NEVER,
        ..shape.clone()
    })?
    .0;
    layer.set("engine.gc_wall_share_pct", 100.0 * (1.0 - floor / whole));

    // The traced rep: `serve` is one call, so one span; what is inside
    // it comes from the direct passes below.
    let mut tracer = Tracer::new();
    tracer.set_rep(3);
    let span = tracer.enter("engine.serve");
    serve_rep(&shape)?;
    let serve_ns = tracer.exit(span);

    let mut apply_ns = 0;
    let shipped = layers::gc_passes(
        &mut tracer,
        &mut layer,
        &shape.engine,
        shape.policy,
        &reference,
        |config, tracer| {
            let shape = SessionShape {
                engine: config.clone(),
                ..shape.clone()
            };
            let run = drive::apply_turns_direct(
                &shape,
                schedule.iter().copied(),
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
    let direct_ns = tracer.root_time(0);
    layer.set(
        "engine.sync_ns_per_turn",
        (whole * 1e9 - direct_ns as f64) / turns.count as f64,
    );

    report.attempted = turns.ops;
    report.exact = exact_counts(&reference);
    let beyond_direct = (
        "engine.serve - engine.direct".to_owned(),
        serve_ns as i64 - direct_ns as i64,
    );
    layers::finish_traced(opts, report, layer, &tracer, 0, vec![beyond_direct], whole)
}
