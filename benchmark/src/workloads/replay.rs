//! `replay_nogc`, `replay_saio`, `replay_saga`: an OO7 trace written once
//! to an OTBF file, then `open_batches` → `Simulator::replay_batched`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use super::layers::{self, Layers};
use super::{
    check_results, exact_counts, reference_reps, secs, set_up, timed_report, timed_reps, Report,
    RunOpts, Sizes,
};
use crate::checks::Requested;
use crate::drive::{self, Oo7Params, Res, RunResult, NEVER};
use crate::metrics::Workload;
use crate::spans::Tracer;

struct ReplayPlan {
    params: Oo7Params,
    policy: &'static str,
    requested: Option<Requested>,
}

fn replay_plan(workload: Workload, sizes: &Sizes) -> ReplayPlan {
    match workload {
        Workload::ReplayNogc => ReplayPlan {
            params: sizes.medium,
            policy: NEVER,
            requested: None,
        },
        Workload::ReplaySaio => ReplayPlan {
            params: sizes.small,
            policy: "saio:10%",
            requested: Some(Requested::GcIoPct(10.0)),
        },
        Workload::ReplaySaga => ReplayPlan {
            params: sizes.small,
            policy: sizes.saga,
            requested: Some(Requested::GarbagePct(5.0)),
        },
        other => unreachable!("{} is not a replay workload", other.name()),
    }
}

fn trace_path(opts: &RunOpts) -> PathBuf {
    opts.out_dir
        .join(format!("{}-seed{}.otb", opts.workload.name(), opts.seed))
}

/// Removes the trace file once the run that wrote it has no more use
/// for it: a file per workload and seed (20 MB for `replay_nogc`) would
/// otherwise pile up under `out/`.
fn remove_trace(path: &Path) -> Res<()> {
    std::fs::remove_file(path).map_err(|e| format!("cannot remove {}: {e}", path.display()))
}

/// What writing a replay workload's trace file took and produced.
struct Prepared {
    events: u64,
    file_bytes: u64,
    generate: Duration,
    encode: Duration,
}

/// Generates a replay workload's trace and writes it as an OTBF file.
fn prepare(plan: &ReplayPlan, seed: u64, path: &Path) -> Res<Prepared> {
    let start = Instant::now();
    let trace = drive::generate(plan.params, seed);
    let generate = start.elapsed();
    let start = Instant::now();
    let bytes = drive::encode(&trace);
    let encode = start.elapsed();
    std::fs::write(path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Prepared {
        events: trace.len() as u64,
        file_bytes: bytes.len() as u64,
        generate,
        encode,
    })
}

/// The set-up of a replay workload: its trace, generated and written.
pub(super) fn set_up_once(opts: &RunOpts) -> Res<()> {
    let plan = replay_plan(opts.workload, &opts.sizes);
    prepare(&plan, opts.seed, &trace_path(opts)).map(drop)
}

/// One replay of the file a `run` has written: the RSS probe's rep.
pub(super) fn once(opts: &RunOpts) -> Res<()> {
    let plan = replay_plan(opts.workload, &opts.sizes);
    drive::replay(&trace_path(opts), &opts.sizes.engine, plan.policy).map(drop)
}

pub(super) fn timed(opts: &RunOpts) -> Res<Report> {
    let sizes = &opts.sizes;
    let plan = replay_plan(opts.workload, sizes);
    let path = trace_path(opts);
    let ((), setup) = set_up(opts, || set_up_once(opts))?;

    let reps = timed_reps(sizes, opts.seconds, sizes.warmup_reps, || {
        let start = Instant::now();
        let result = drive::replay(&path, &sizes.engine, plan.policy)?;
        Ok((secs(start.elapsed()), vec![result]))
    })?;
    let (walls, results): (Vec<f64>, Vec<Vec<RunResult>>) = reps.into_iter().unzip();
    let events = results[0][0].events_replayed;
    // The report's RSS probe replays the file; nothing after it does.
    let report = timed_report(opts, plan.requested, &setup, &walls, &results, events, 0)?;
    remove_trace(&path)?;
    Ok(report)
}

pub(super) fn traced(opts: &RunOpts) -> Res<Report> {
    let sizes = &opts.sizes;
    let config = &sizes.engine;
    let plan = replay_plan(opts.workload, sizes);
    let path = trace_path(opts);
    let mut layer = Layers::new();
    let mut report = Report::new(opts);

    let prepared = prepare(&plan, opts.seed, &path)?;
    let events = prepared.events as f64;
    layer.set(
        "oo7.generate_ms",
        layers::ms(prepared.generate.as_nanos() as u64),
    );
    layer.set(
        "tracefile.encode_ns_per_event",
        prepared.encode.as_nanos() as f64 / events,
    );
    layer.set(
        "tracefile.bytes_per_event",
        prepared.file_bytes as f64 / events,
    );

    // The whole, untraced: the reference for results and for overhead.
    let (whole, reference) = reference_reps(sizes, sizes.warmup_reps, || {
        let start = Instant::now();
        let result = drive::replay(&path, config, plan.policy)?;
        Ok((secs(start.elapsed()), [result]))
    })?;
    layer.set("sim.replay_ns_per_event", whole * 1e9 / events);

    // The parts, each timed on its own. They come after the untraced
    // reps, which have grown the heap to its working size, and each is
    // the quicker of two alternated passes.
    let start = Instant::now();
    let decoded = drive::decode_pass(&path)?;
    let decode = start.elapsed();
    if decoded as f64 != events {
        return Err(format!("decoded {decoded} events of {events}"));
    }
    let mut store_apply = Duration::MAX;
    let mut engine_apply = Duration::MAX;
    for _ in 0..2 {
        store_apply = store_apply.min(drive::store_apply_pass(&path, config)?);
        engine_apply = engine_apply.min(drive::engine_apply_pass(&path, config)?);
    }
    layer.set(
        "tracefile.decode_ns_per_event",
        decode.as_nanos() as f64 / events,
    );
    layer.set(
        "store.apply_ns_per_event",
        store_apply.as_nanos() as f64 / events,
    );
    layer.set(
        "engine.dispatch_ns_per_event",
        (engine_apply.as_nanos() as f64 - store_apply.as_nanos() as f64) / events,
    );

    // The same trace with collection off: the no-GC lower bound.
    let floor = match plan.requested {
        None => whole,
        Some(_) => {
            let start = Instant::now();
            drive::replay(&path, config, NEVER)?;
            let floor = secs(start.elapsed());
            layer.set("engine.gc_wall_share_pct", 100.0 * (1.0 - floor / whole));
            floor
        }
    };
    report.notes.push(format!(
        "parts over whole with collection off: (decode {:.3} s + apply_batch {:.3} s) / replay {:.3} s = {:.3}",
        secs(decode),
        secs(engine_apply),
        floor,
        (secs(decode) + secs(engine_apply)) / floor,
    ));

    let mut tracer = Tracer::new();
    let shipped = layers::gc_passes(
        &mut tracer,
        &mut layer,
        config,
        plan.policy,
        &reference,
        |config, tracer| {
            Ok(vec![drive::deferred_replay(
                &path,
                config,
                plan.policy,
                tracer,
            )?])
        },
    )?;
    layers::count_layers(&mut layer, plan.requested, &shipped)?;
    check_results(sizes, plan.requested, &reference)?;

    remove_trace(&path)?;
    report.attempted = reference[0].events_replayed;
    report.exact = exact_counts(&reference);
    layers::finish_traced(opts, report, layer, &tracer, 0, Vec::new(), whole)
}
