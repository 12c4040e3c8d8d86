//! Data-driven experiment execution.
//!
//! The paper's figures are grids: a list of requested settings (the
//! x-axis) × a list of seeds, every cell simulated identically and then
//! aggregated (§4.1). This module makes that grid a value — an
//! [`ExperimentPlan`] of [`PolicySpec`] cells — and executes it on a
//! fixed-size worker pool:
//!
//! * **Flattening.** The plan is flattened to (cell × seed) jobs pulled
//!   from a shared work queue by `N` threads (`N` from an explicit
//!   override, the `ODBGC_JOBS` environment variable, or
//!   [`std::thread::available_parallelism`], in that order).
//! * **Trace memoisation.** Every cell of a column replays the same OO7
//!   trace, so traces are built exactly once per (params, seed) in a
//!   shared [`TraceCache`] and handed out as `Arc`s. [`CacheStats`]
//!   counts hits and misses so tests can assert the exactly-once
//!   property.
//! * **Deterministic reduction.** Results land in pre-assigned slots and
//!   are reduced in (cell, seed) order, so the outcome is identical for
//!   any thread count — `--jobs 1` and `--jobs 8` agree byte for byte,
//!   including the failure list.
//! * **Fault tolerance.** Plan execution is *total* over job failures: a
//!   [`SimError`] or a panic inside one (cell, seed) job becomes a
//!   structured [`JobError`] in that job's slot instead of unwinding the
//!   pool, so every other cell's results survive, and every job runs
//!   whatever failed before it.
//! * **Timing.** Each job's wall time is recorded alongside its result
//!   and surfaced per cell and per plan for reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use odbgc_core::PolicySpec;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_trace::Trace;

use crate::config::SimConfig;
use crate::experiment::ExperimentOutcome;
use crate::simulator::{RunResult, SimError, Simulator};

/// One cell of an experiment grid: a requested setting and the policy
/// that should achieve it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCell {
    /// The requested setting (the x-axis value, e.g. a percentage).
    pub x: f64,
    /// The policy to run in this cell.
    pub spec: PolicySpec,
}

/// How an injected fault sabotages its job (the failure-path test rig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Replace the job's trace with one that cannot replay, producing a
    /// deterministic [`JobErrorKind::Sim`] failure.
    PoisonTrace,
    /// Panic inside the job, producing a [`JobErrorKind::Panicked`]
    /// failure with a deterministic payload.
    Panic,
}

/// A deliberate fault wired into one (cell, seed) job.
///
/// This is the injection side of the failure machinery: production plans
/// carry no faults, and tests (or `odbgc sweep --poison`) use it to
/// exercise degrade-and-report behavior on real execution paths — the
/// poisoned trace really is replayed by the [`Simulator`], and the panic
/// really unwinds through the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Index into [`ExperimentPlan::cells`] of the job to sabotage.
    pub cell_index: usize,
    /// Seed of the job to sabotage.
    pub seed: u64,
    /// The failure mode to inject.
    pub kind: FaultKind,
}

/// Why one (cell, seed) job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The simulator rejected the trace.
    Sim(SimError),
    /// The job panicked; the payload is stringified.
    Panicked(String),
}

impl std::fmt::Display for JobErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobErrorKind::Sim(e) => write!(f, "{e}"),
            JobErrorKind::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// One failed (cell, seed) job, identifying exactly which grid point was
/// lost and why.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Index into [`ExperimentPlan::cells`] of the failed job.
    pub cell_index: usize,
    /// The failed cell's policy spec (its report label).
    pub spec: PolicySpec,
    /// The failed job's seed.
    pub seed: u64,
    /// What went wrong.
    pub kind: JobErrorKind,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} ({}) seed {}: {}",
            self.cell_index, self.spec, self.seed, self.kind
        )
    }
}

impl std::error::Error for JobError {}

/// A complete experiment as data: workload parameters, seeds, simulator
/// configuration, and the grid cells to run.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// OO7 database/workload parameters (shared by every cell).
    pub params: Oo7Params,
    /// Seeds, one trace per seed (shared by every cell).
    pub seeds: Vec<u64>,
    /// Simulator configuration (shared by every cell).
    pub config: SimConfig,
    /// The grid cells, in report order.
    pub cells: Vec<PlanCell>,
    /// Deliberate faults for testing the failure machinery (empty in
    /// production plans).
    pub faults: Vec<FaultSpec>,
}

impl ExperimentPlan {
    /// A plan with no cells yet.
    pub fn new(params: Oo7Params, seeds: &[u64], config: SimConfig) -> Self {
        ExperimentPlan {
            params,
            seeds: seeds.to_vec(),
            config,
            cells: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Adds one grid cell.
    pub fn cell(mut self, x: f64, spec: PolicySpec) -> Self {
        self.cells.push(PlanCell { x, spec });
        self
    }

    /// Adds one cell per (x, spec) pair.
    pub fn cells(mut self, cells: impl IntoIterator<Item = (f64, PolicySpec)>) -> Self {
        self.cells
            .extend(cells.into_iter().map(|(x, spec)| PlanCell { x, spec }));
        self
    }

    /// Wires a deliberate fault into one (cell, seed) job.
    pub fn inject_fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Executes the plan; worker count from [`default_jobs`].
    pub fn run(&self) -> PlanOutcome {
        self.run_with_jobs(None)
    }

    /// Executes the plan on `jobs` workers (`None` → [`default_jobs`]).
    pub fn run_with_jobs(&self, jobs: Option<usize>) -> PlanOutcome {
        run_plan(self, jobs)
    }
}

/// Trace-cache hit/miss counts for one plan execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from an already-built trace.
    pub hits: u64,
    /// Lookups that had to build the trace (exactly one per seed).
    pub misses: u64,
}

/// Builds each (params, seed) trace exactly once per process and shares
/// it between all jobs that replay it.
pub struct TraceCache {
    params: Oo7Params,
    slots: Vec<(u64, OnceLock<Arc<Trace>>)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// An empty cache for the given workload over the given seeds.
    pub fn new(params: Oo7Params, seeds: &[u64]) -> Self {
        TraceCache {
            params,
            slots: seeds.iter().map(|&seed| (seed, OnceLock::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The trace for `seed`, building it on first use.
    ///
    /// Concurrent callers for the same seed block on the single builder
    /// (via [`OnceLock`]), so the build happens exactly once; the miss
    /// counter is bumped only inside the build, making `misses` the
    /// exact number of traces generated in this process.
    pub fn get(&self, seed: u64) -> Arc<Trace> {
        let (_, slot) = self
            .slots
            .iter()
            .find(|(s, _)| *s == seed)
            .unwrap_or_else(|| panic!("seed {seed} not in plan"));
        let mut built = false;
        let trace = slot.get_or_init(|| {
            built = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            Arc::new(Oo7App::standard(self.params, seed).generate().0)
        });
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(trace)
    }

    /// Hit/miss counts so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The results of one plan cell across all seeds.
#[derive(Debug)]
pub struct CellOutcome {
    /// The requested setting, copied from the cell.
    pub x: f64,
    /// The policy spec, copied from the cell.
    pub spec: PolicySpec,
    /// One result per seed, in seed order; failed jobs keep their
    /// [`JobError`] in place so the seed alignment survives.
    pub outcome: ExperimentOutcome,
    /// Wall time of each *successful* job, in seed order (failed jobs
    /// record no duration).
    pub wall_times: Vec<Duration>,
}

impl CellOutcome {
    /// Total wall time spent on this cell's successful jobs (sum over
    /// seeds; under parallel execution this exceeds elapsed time).
    pub fn cpu_time(&self) -> Duration {
        self.wall_times.iter().sum()
    }
}

/// The results of a whole plan.
#[derive(Debug)]
pub struct PlanOutcome {
    /// One outcome per plan cell, in plan order.
    pub cells: Vec<CellOutcome>,
    /// Every failed job, in deterministic (cell, seed) order. Empty when
    /// the whole grid ran clean.
    pub failures: Vec<JobError>,
    /// Trace-cache statistics for the execution.
    pub cache: CacheStats,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Elapsed wall time for the whole plan.
    pub elapsed: Duration,
}

impl PlanOutcome {
    /// Total per-job wall time across all cells (the work the pool did).
    pub fn cpu_time(&self) -> Duration {
        self.cells.iter().map(CellOutcome::cpu_time).sum()
    }

    /// Did every job produce a result?
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The worker count used when none is given explicitly: the `ODBGC_JOBS`
/// environment variable if set and positive, otherwise
/// [`std::thread::available_parallelism`]. An `ODBGC_JOBS` value that is
/// not a positive integer is ignored with a one-line stderr warning
/// rather than silently.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("ODBGC_JOBS") {
        match parse_jobs_env(&v) {
            Ok(n) => return n,
            Err(warning) => eprintln!("{warning}"),
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses an `ODBGC_JOBS` value: a positive integer after trimming, or
/// the warning line to print before falling back.
fn parse_jobs_env(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "odbgc: ignoring invalid ODBGC_JOBS={value:?} (want a positive integer); \
             using all available cores"
        )),
    }
}

/// The malformed trace used by [`FaultKind::PoisonTrace`]: its first
/// event touches an object that was never created, so the store rejects
/// it at event 0.
fn poison_trace() -> Trace {
    let mut b = odbgc_trace::TraceBuilder::new();
    b.access(odbgc_trace::ObjectId::new(u32::MAX as u64));
    b.finish()
}

/// Renders a panic payload for [`JobErrorKind::Panicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

fn run_plan(plan: &ExperimentPlan, jobs: Option<usize>) -> PlanOutcome {
    let started = Instant::now();
    let n_seeds = plan.seeds.len();
    let n_jobs_total = plan.cells.len() * n_seeds;
    let workers = jobs
        .unwrap_or_else(default_jobs)
        .max(1)
        .min(n_jobs_total.max(1));

    let cache = TraceCache::new(plan.params, &plan.seeds);
    // One pre-assigned slot per job: job i = cell (i / seeds) × seed
    // (i % seeds). Workers only ever write their own slot, and the
    // reduction below reads the slots in order — so the outcome does not
    // depend on scheduling.
    let slots: Vec<OnceLock<Result<(RunResult, Duration), JobError>>> =
        (0..n_jobs_total).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);

    // One job, total over its own failures: a trace that will not replay
    // surfaces as `Sim`, a panic anywhere inside the policy, store,
    // collector, or simulator is caught and surfaces as `Panicked`.
    let run_job = |i: usize| -> Result<(RunResult, Duration), JobError> {
        let cell_index = i / n_seeds;
        let cell = &plan.cells[cell_index];
        let seed = plan.seeds[i % n_seeds];
        let fault = plan
            .faults
            .iter()
            .find(|f| f.cell_index == cell_index && f.seed == seed);
        let job_started = Instant::now();
        let sim_result = catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, Some(f) if f.kind == FaultKind::Panic) {
                panic!("injected fault: cell {cell_index} seed {seed}");
            }
            let trace = match fault {
                Some(f) if f.kind == FaultKind::PoisonTrace => Arc::new(poison_trace()),
                _ => cache.get(seed),
            };
            let mut policy = cell.spec.build();
            Simulator::new(plan.config.clone()).replay(
                &trace,
                policy.as_mut(),
                crate::simulator::ReplayOptions::new(),
            )
        }));
        let kind = match sim_result {
            Ok(Ok(result)) => return Ok((result, job_started.elapsed())),
            Ok(Err(e)) => JobErrorKind::Sim(e),
            Err(payload) => JobErrorKind::Panicked(panic_message(payload)),
        };
        Err(JobError {
            cell_index,
            spec: cell.spec.clone(),
            seed,
            kind,
        })
    };

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_jobs_total {
                    break;
                }
                assert!(slots[i].set(run_job(i)).is_ok(), "job slot written twice");
            });
        }
    });

    let mut slots = slots;
    let mut failures: Vec<JobError> = Vec::new();
    let cells = plan
        .cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let mut runs = Vec::with_capacity(n_seeds);
            let mut wall_times = Vec::new();
            for s in 0..n_seeds {
                // Workers claim every index below the total, so every
                // slot is filled by the time the scope ends.
                match slots[c * n_seeds + s].take().expect("every job ran") {
                    Ok((result, wall)) => {
                        runs.push(Ok(result));
                        wall_times.push(wall);
                    }
                    Err(e) => {
                        failures.push(e.clone());
                        runs.push(Err(e));
                    }
                }
            }
            CellOutcome {
                x: cell.x,
                spec: cell.spec.clone(),
                outcome: ExperimentOutcome { runs },
                wall_times,
            }
        })
        .collect();

    PlanOutcome {
        cells,
        failures,
        cache: cache.stats(),
        jobs: workers,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_core::EstimatorKind;

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::new(Oo7Params::tiny(), &[1, 2, 3], SimConfig::tiny()).cells([
            (10.0, PolicySpec::saio(0.10)),
            (
                5.0,
                PolicySpec::saga_dt_max(0.05, EstimatorKind::Oracle, 20),
            ),
        ])
    }

    #[test]
    fn plan_runs_every_cell_for_every_seed() {
        let out = tiny_plan().run_with_jobs(Some(2));
        assert_eq!(out.cells.len(), 2);
        assert!(out.is_complete());
        for cell in &out.cells {
            assert_eq!(cell.outcome.runs.len(), 3);
            assert!(cell.outcome.runs.iter().all(Result::is_ok));
            assert_eq!(cell.wall_times.len(), 3);
            assert!(cell.wall_times.iter().all(|w| *w > Duration::ZERO));
        }
        assert!(out.elapsed > Duration::ZERO);
        assert!(out.cpu_time() > Duration::ZERO);
    }

    #[test]
    fn traces_are_built_exactly_once_per_seed() {
        let plan = tiny_plan();
        let out = plan.run_with_jobs(Some(4));
        // 2 cells × 3 seeds = 6 lookups; 3 builds, 3 hits.
        assert_eq!(out.cache.misses, plan.seeds.len() as u64);
        assert_eq!(
            out.cache.hits,
            (plan.cells.len() as u64 - 1) * plan.seeds.len() as u64
        );
    }

    #[test]
    fn full_saio_sweep_builds_each_trace_exactly_once() {
        // The paper's sweep protocol: 9 requested fractions × 10 seeds.
        // All 90 jobs share 10 traces; the cache must build each exactly
        // once and serve the remaining 80 lookups as hits — and the
        // parallel outcome must be identical to the serial one.
        let fracs = [0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50];
        let seeds: Vec<u64> = (1..=10).collect();
        let plan = ExperimentPlan::new(Oo7Params::tiny(), &seeds, SimConfig::tiny()).cells(
            fracs
                .iter()
                .map(|&frac| (frac * 100.0, PolicySpec::saio(frac))),
        );
        let parallel = plan.run_with_jobs(Some(8));
        assert_eq!(parallel.cache.misses, 10, "one build per seed");
        assert_eq!(parallel.cache.hits, 80, "all other lookups cached");

        let serial = plan.run_with_jobs(Some(1));
        assert_eq!(serial.cache.misses, 10);
        for (p, s) in parallel.cells.iter().zip(&serial.cells) {
            assert_eq!(p.x, s.x);
            assert_eq!(p.spec, s.spec);
            assert_eq!(p.outcome.runs, s.outcome.runs);
        }
    }

    #[test]
    fn cached_traces_are_byte_identical_to_fresh_generation() {
        let cache = TraceCache::new(Oo7Params::tiny(), &[7]);
        let first = cache.get(7);
        let second = cache.get(7);
        let fresh = Oo7App::standard(Oo7Params::tiny(), 7).generate().0;
        assert_eq!(
            odbgc_trace::codec::encode(&first),
            odbgc_trace::codec::encode(&fresh)
        );
        assert_eq!(
            odbgc_trace::codec::encode(&first),
            odbgc_trace::codec::encode(&second)
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn worker_count_is_clamped_to_job_count() {
        let out = tiny_plan().run_with_jobs(Some(64));
        assert!(out.jobs <= 6, "6 jobs cannot use {} workers", out.jobs);
    }

    #[test]
    #[should_panic(expected = "not in plan")]
    fn cache_rejects_unplanned_seeds() {
        TraceCache::new(Oo7Params::tiny(), &[1]).get(2);
    }

    #[test]
    fn poisoned_trace_becomes_a_structured_sim_error() {
        let out = tiny_plan()
            .inject_fault(FaultSpec {
                cell_index: 1,
                seed: 2,
                kind: FaultKind::PoisonTrace,
            })
            .run_with_jobs(Some(4));
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.cell_index, 1);
        assert_eq!(f.seed, 2);
        assert!(matches!(&f.kind, JobErrorKind::Sim(e) if e.event_index == 0));
        // Every other job still produced a result.
        let ok: usize = out
            .cells
            .iter()
            .map(|c| c.outcome.successes().count())
            .sum();
        assert_eq!(ok, 5);
        // The failed seed keeps its slot in the cell's run list.
        assert!(out.cells[1].outcome.runs[1].is_err());
        assert_eq!(out.cells[1].wall_times.len(), 2);
    }

    #[test]
    fn panicking_job_is_reported_not_fatal() {
        let out = tiny_plan()
            .inject_fault(FaultSpec {
                cell_index: 0,
                seed: 3,
                kind: FaultKind::Panic,
            })
            .run_with_jobs(Some(2));
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!((f.cell_index, f.seed), (0, 3));
        assert!(
            matches!(&f.kind, JobErrorKind::Panicked(msg) if msg.contains("injected fault")),
            "unexpected kind: {:?}",
            f.kind
        );
        assert!(f.to_string().contains("panicked"));
    }

    #[test]
    fn continue_policy_runs_everything_despite_failures() {
        let out = tiny_plan()
            .inject_fault(FaultSpec {
                cell_index: 0,
                seed: 1,
                kind: FaultKind::PoisonTrace,
            })
            .run_with_jobs(Some(1));
        assert_eq!(out.failures.len(), 1);
        let ok: usize = out
            .cells
            .iter()
            .map(|c| c.outcome.successes().count())
            .sum();
        assert_eq!(ok, 5, "all non-poisoned jobs must still run");
    }

    #[test]
    fn job_error_display_names_cell_spec_and_seed() {
        let e = JobError {
            cell_index: 1,
            spec: PolicySpec::saio(0.10),
            seed: 7,
            kind: JobErrorKind::Sim(SimError {
                event_index: 0,
                cause: odbgc_store::StoreError::UnknownObject(odbgc_trace::ObjectId::new(9)),
            }),
        };
        let s = e.to_string();
        assert!(s.contains("cell 1"), "{s}");
        assert!(s.contains("saio:10%"), "{s}");
        assert!(s.contains("seed 7"), "{s}");
        assert!(s.contains("event 0"), "{s}");
    }

    #[test]
    fn jobs_env_values_parse_like_gc_workers_values() {
        // Positive integers only; anything else is the warning line.
        assert_eq!(parse_jobs_env("4"), Ok(4));
        assert_eq!(parse_jobs_env(" 2 "), Ok(2));
        for bad in ["0", "-1", "abc", ""] {
            assert_eq!(
                parse_jobs_env(bad).unwrap_err(),
                format!(
                    "odbgc: ignoring invalid ODBGC_JOBS={bad:?} \
                     (want a positive integer); using all available cores"
                )
            );
        }
    }

    #[test]
    fn positive_integers_parse() {
        assert_eq!(parse_jobs_env("1"), Ok(1));
        assert_eq!(parse_jobs_env(" 8 "), Ok(8));
    }

    #[test]
    fn garbage_yields_the_canonical_warning() {
        for bad in ["", "0", "-2", "many", "3.5"] {
            assert_eq!(
                parse_jobs_env(bad).unwrap_err(),
                format!(
                    "odbgc: ignoring invalid ODBGC_JOBS={bad:?} \
                     (want a positive integer); using all available cores"
                )
            );
        }
    }

    #[test]
    fn default_jobs_warns_and_falls_back_on_bad_env() {
        // This is the only test in this binary that mutates ODBGC_JOBS;
        // restore whatever was set (CI pins it) before returning.
        let saved = std::env::var("ODBGC_JOBS").ok();
        std::env::set_var("ODBGC_JOBS", "not-a-number");
        let fallback = default_jobs();
        assert!(fallback >= 1, "must fall back to available parallelism");
        std::env::set_var("ODBGC_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        match saved {
            Some(v) => std::env::set_var("ODBGC_JOBS", v),
            None => std::env::remove_var("ODBGC_JOBS"),
        }
    }
}
