//! What every traced run shares: the per-layer metric set, the
//! collector's passes, and the budget.

use std::collections::BTreeMap;
use std::time::Duration;

use super::{Report, RunOpts};
use crate::checks::{self, Requested};
use crate::drive::{self, ClampHit, EngineConfig, EngineRun, Res, RunResult};
use crate::metrics::{Metric, PER_LAYER};
use crate::spans::Tracer;
use crate::stats;

/// The per-layer metric set of a traced run: every name present, 0
/// until measured.
pub(super) struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub(super) fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, ..)| (name, 0.0)).collect())
    }

    pub(super) fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric::single(name, unit, self.0[name]))
            .collect()
    }
}

pub(super) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub(super) fn us_sorted(ns: impl IntoIterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = ns.into_iter().map(|n| n as f64 / 1e3).collect();
    stats::sort(&mut v);
    v
}

/// The counts a set of hand-driven engines (one per shard) ended with.
pub(super) fn count_layers(
    layer: &mut Layers,
    requested: Option<Requested>,
    runs: &[EngineRun],
) -> Res<()> {
    let sum = |f: fn(&RunResult) -> u64| runs.iter().map(|r| f(&r.result)).sum::<u64>() as f64;
    let gc_io = sum(|r| r.gc_io_total);
    let reclaimed = sum(|r| r.collections.iter().map(|c| c.bytes_reclaimed).sum());
    let decisions = || runs.iter().flat_map(|r| &r.decisions);
    let shards = runs.len().max(1) as f64;
    layer.set("gc.collections", sum(|r| r.collection_count()));
    layer.set("store.app_io_pages", sum(|r| r.app_io_total));
    layer.set("store.gc_io_pages", gc_io);
    layer.set(
        "store.db_size_mb",
        sum(|r| r.final_db_size) / (1024.0 * 1024.0),
    );
    if gc_io > 0.0 {
        layer.set("gc.reclaimed_bytes_per_gc_io", reclaimed / gc_io);
    }
    layer.set(
        "core.clamp_hits",
        decisions().filter(|d| d.clamp != ClampHit::None).count() as f64,
    );
    layer.set(
        "core.estimator_err_pct",
        runs.iter()
            .map(|r| drive::estimator_err_pct(&r.decisions))
            .sum::<f64>()
            / shards,
    );
    layer.set(
        "store.buffer_hit_rate",
        100.0 * runs.iter().map(|r| r.buffer_hit_rate).sum::<f64>() / shards,
    );
    if let Some(requested) = requested {
        let mut worst = 0.0f64;
        for r in runs {
            worst = worst.max(checks::policy_err_pp(requested, &r.result)?);
        }
        layer.set("core.policy_err_pp", worst);
    }
    Ok(())
}

/// The collector's layers, the same way for every workload. `pass`
/// drives the workload's inputs straight onto bare engines (one per
/// shard) under the given configuration, opening a `gc.collect` span
/// around each collection. Three passes, each asserted to produce the
/// `reference` results:
///
/// * pass 0, the shipped configuration — its spans are the budget;
/// * pass 1, `exact_oracle_recompute: false` — the collector alone, so
///   pass 0 minus this is the oracle reconcile;
/// * pass 2, pass 1 with two GC workers — the parallel collector.
pub(super) fn gc_passes(
    tracer: &mut Tracer,
    layer: &mut Layers,
    base: &EngineConfig,
    policy: &str,
    reference: &[RunResult],
    mut pass: impl FnMut(&EngineConfig, &mut Tracer) -> Res<Vec<EngineRun>>,
) -> Res<Vec<EngineRun>> {
    let collector_only = EngineConfig {
        exact_oracle_recompute: false,
        ..base.clone()
    };
    let two_workers = EngineConfig {
        gc_workers: Some(2),
        ..collector_only.clone()
    };
    let mut runs = Vec::new();
    for (rep, config) in [base, &collector_only, &two_workers]
        .into_iter()
        .enumerate()
    {
        tracer.set_rep(rep as u32);
        let run = pass(config, tracer)?;
        let results: Vec<RunResult> = run.iter().map(|r| r.result.clone()).collect();
        checks::same_results(
            &format!("traced pass {rep} against the timed path"),
            reference,
            &results,
        )?;
        runs.push(run);
    }
    let collect_ns = |rep| tracer.durations("gc.collect", rep).iter().sum::<u64>();
    let pauses = us_sorted(tracer.durations("gc.collect", 1));
    layer.set("gc.collect_ms", ms(collect_ns(1)));
    if !pauses.is_empty() {
        layer.set("gc.pause_p50_us", stats::percentile(&pauses, 0.50));
        layer.set("gc.pause_p95_us", stats::percentile(&pauses, 0.95));
        layer.set("gc.pause_max_us", pauses[pauses.len() - 1]);
    }
    layer.set(
        "store.oracle_recompute_ms",
        ms(collect_ns(0)) - ms(collect_ns(1)),
    );
    layer.set("gc.collect_ms_w2", ms(collect_ns(2)));
    let w2 = &runs[2];
    layer.set(
        "sched.packets",
        w2.iter().map(|r| r.sched_packets).sum::<u64>() as f64,
    );
    layer.set(
        "sched.steals",
        w2.iter().map(|r| r.sched_steals).sum::<u64>() as f64,
    );
    layer.set(
        "sched.worker_busy_ms",
        ms(w2.iter().map(|r| r.sched_busy_ns).sum()),
    );
    let shipped = runs.swap_remove(0);
    let decisions: usize = shipped.iter().map(|r| r.decisions.len()).sum();
    if decisions > 0 {
        let decide: Duration = shipped
            .iter()
            .map(|r| drive::decide_pass(policy, &r.decisions))
            .sum();
        layer.set(
            "core.decide_ns",
            decide.as_nanos() as f64 / decisions as f64,
        );
    }
    Ok(shipped)
}

/// Closes a traced run: the budget (the self times of pass
/// `budget_rep`, plus any rows the caller derived — the wall is their
/// sum), the tracing overhead against the untraced median, the span
/// dump.
pub(super) fn finish_traced(
    opts: &RunOpts,
    mut report: Report,
    mut layer: Layers,
    tracer: &Tracer,
    budget_rep: u32,
    derived_rows: Vec<(String, i64)>,
    untraced_wall_s: f64,
) -> Res<Report> {
    let spans_ns = tracer.root_time(budget_rep) as i64;
    report.budget = tracer
        .self_times(budget_rep)
        .into_iter()
        .map(|(name, ns)| (name.to_owned(), ns as i64))
        .collect();
    // Children nest inside their parents, so the self times partition
    // the pass's root spans; anything else is a span recorded wrongly.
    let rows: i64 = report.budget.iter().map(|(_, ns)| ns).sum();
    if rows != spans_ns {
        return Err(format!(
            "budget rows sum to {rows} ns, the pass's root spans to {spans_ns} ns"
        ));
    }
    let derived: i64 = derived_rows.iter().map(|(_, ns)| ns).sum();
    report.budget.extend(derived_rows);
    report.budget_wall_ns = (spans_ns + derived) as u64;

    let overhead = 100.0 * (report.budget_wall_ns as f64 / 1e9 / untraced_wall_s - 1.0);
    layer.set("trace_overhead_pct", overhead);
    if overhead.abs() > 10.0 {
        report.notes.push(format!(
            "UNRELIABLE: the traced pass took {overhead:+.1} % of the untraced median; \
             read this workload's layer numbers with that in mind"
        ));
    }
    report.metrics = layer.into_metrics();
    tracer.write_json(
        &opts
            .out_dir
            .join(format!("trace-{}.json", opts.workload.name())),
    )?;
    Ok(report)
}
