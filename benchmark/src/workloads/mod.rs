//! The six workloads: their sizes, the timed (untraced) run of each, and
//! the traced run that decomposes it into layers.
//!
//! Method, common to all. Closed loop: the next unit of work is
//! submitted when the previous one completes, from this one process,
//! with at most two load connections (the host has two cores). Operation
//! counts are fixed, so simulated counts repeat exactly at a seed. A run
//! is set-up (untimed, reported as `setup_s`) → one discarded warm-up
//! rep → timed reps on a fresh store each until `--seconds` have
//! elapsed; every time or throughput metric is the median over reps, and
//! latency percentiles pool the reps' samples. `peak_rss_mb` is taken
//! in a child process that does one rep and nothing else, and set-up is
//! repeated in child processes that do nothing else.

mod layers;
mod net;
mod replay;
mod sessions;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::checks::{self, Requested};
use crate::drive::{EngineConfig, Oo7Params, Res, RunResult};
use crate::json::Json;
use crate::metrics::{self, Metric, Workload};
use crate::stats;

// ---------------------------------------------------------------------
// Sizes
// ---------------------------------------------------------------------

/// Everything that scales a workload. The full sizes are frozen: they
/// never change once results have been recorded against them.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// The engine configuration of every store: the shipped default at
    /// full size (paper geometry: 8 KiB pages, 12-page partitions and
    /// buffer, exact oracle recompute, one GC worker).
    pub engine: EngineConfig,
    /// `replay_nogc`'s database.
    pub medium: Oo7Params,
    /// `replay_saio`'s and `replay_saga`'s database.
    pub small: Oo7Params,
    /// `replay_saga`'s policy. (A toy trace has fewer overwrites than
    /// SAGA's shipped upper clamp on the interval, so the smoke sizes
    /// tighten the clamp to see more than one collection.)
    pub saga: &'static str,
    /// `serve_inproc`: operations per session (2 sessions).
    pub serve_ops: u64,
    /// `net_lockstep`: operations per rep (1 connection, 8-op turns).
    pub lockstep_ops: u64,
    /// `net_pipelined`: operations per connection per rep (2
    /// connections, 128-op turns).
    pub pipelined_ops: u64,
    /// How long a throwaway server is driven right before the timed
    /// loopback reps.
    pub net_warm: Duration,
    /// Times set-up is done at least, each in a process of its own;
    /// `setup_s` is their median.
    pub setup_reps: usize,
    /// Discarded reps before the timed ones.
    pub warmup_reps: usize,
    /// Timed reps are never fewer than this, whatever `--seconds` says.
    pub min_reps: usize,
    /// Hold the policies to `tests/policy_accuracy.rs`'s tolerances
    /// (they are stated for full-size databases).
    pub check_policy_tolerance: bool,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            engine: EngineConfig::default(),
            medium: Oo7Params {
                num_atomic_per_comp: 200,
                num_comp_per_module: 500,
                num_assm_levels: 7,
                document_size: 20_000,
                manual_size: 1 << 20,
                ..Oo7Params::small_prime(3)
            },
            small: Oo7Params::small(9),
            saga: "saga:5%:fgs-hb",
            serve_ops: 300_000,
            lockstep_ops: 100_000,
            pipelined_ops: 300_000,
            net_warm: Duration::from_secs(3),
            setup_reps: 3,
            warmup_reps: 1,
            min_reps: 3,
            check_policy_tolerance: true,
        }
    }

    /// Sizes for `--smoke` and the package's tests: everything tiny, one
    /// rep, the whole set in a few seconds even unoptimised.
    pub fn smoke() -> Sizes {
        Sizes {
            engine: EngineConfig::tiny(),
            medium: Oo7Params::tiny(),
            small: Oo7Params::tiny(),
            saga: "saga:5%:fgs-hb:dtmax=8",
            serve_ops: 2_000,
            lockstep_ops: 2_000,
            pipelined_ops: 2_000,
            net_warm: Duration::ZERO,
            setup_reps: 1,
            warmup_reps: 0,
            min_reps: 1,
            check_policy_tolerance: false,
        }
    }
}

/// What `run` is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed reps last in total.
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
    /// Take `peak_rss_mb` and all but the first `setup_s` sample in
    /// child processes (the `probe` command of this executable). Off in
    /// tests, which have no benchmark executable to re-run: they read
    /// their own peak and set up once.
    pub probe_in_child: bool,
    /// Where the trace file and span dumps go.
    pub out_dir: PathBuf,
}

/// The directory the benchmark writes to: `out/` next to its manifest,
/// inside the checkout it was built in.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Counts that repeat bit-for-bit at a fixed seed: two commits with
    /// equal counts simulated the same behaviour.
    pub exact: Vec<(String, Json)>,
    pub attempted: u64,
    pub failed: u64,
    /// Traced run: `(layer, self time ns)` rows and the wall they sum to.
    pub budget: Vec<(String, i64)>,
    pub budget_wall_ns: u64,
    /// Remarks printed with the numbers (an unreliable trace, a parts to
    /// whole ratio).
    pub notes: Vec<String>,
}

impl Report {
    fn new(opts: &RunOpts) -> Report {
        Report {
            workload: opts.workload,
            seed: opts.seed,
            traced: opts.traced,
            metrics: Vec::new(),
            exact: Vec::new(),
            attempted: 0,
            failed: 0,
            budget: Vec::new(),
            budget_wall_ns: 0,
            notes: Vec::new(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line the acceptance driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding the
    /// metrics named in `names` and nothing else.
    pub fn result_line(&self, names: &[&str]) -> Json {
        let metrics = names.iter().map(|&name| {
            let m = self
                .metric(name)
                .unwrap_or_else(|| panic!("{} did not measure {name}", self.workload.name()));
            let body = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&*m.unit))]);
            (name, body)
        });
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full record `all` and `trace` keep per workload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (&*m.name, m.to_json()))),
            ),
            ("exact", Json::Obj(self.exact.clone())),
            (
                "budget",
                Json::obj(
                    self.budget
                        .iter()
                        .map(|(layer, ns)| (&**layer, Json::Num(*ns as f64))),
                ),
            ),
            ("budget_wall_ns", Json::Num(self.budget_wall_ns as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(&**n)).collect()),
            ),
        ])
    }
}

/// Runs one workload, timed or traced.
pub fn run(opts: &RunOpts) -> Res<Report> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    match (opts.workload, opts.traced) {
        (Workload::ServeInproc, false) => sessions::serve_timed(opts),
        (Workload::ServeInproc, true) => sessions::serve_traced(opts),
        (Workload::NetLockstep | Workload::NetPipelined, false) => net::timed(opts),
        (Workload::NetLockstep | Workload::NetPipelined, true) => net::traced(opts),
        (_, false) => replay::timed(opts),
        (_, true) => replay::traced(opts),
    }
}

/// What the `probe` command measures in its fresh process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The workload's set-up, done once: its seconds.
    SetUp,
    /// One rep from the inputs a `run` has prepared: the process's peak
    /// RSS in MiB.
    PeakRss,
}

impl Probe {
    fn flag(self) -> &'static str {
        match self {
            Probe::SetUp => "setup",
            Probe::PeakRss => "rss",
        }
    }

    pub fn parse(flag: &str) -> Option<Probe> {
        [Probe::SetUp, Probe::PeakRss]
            .into_iter()
            .find(|p| p.flag() == flag)
    }
}

/// The `probe` command: this process has done nothing else, so what it
/// measures does not depend on what a run's earlier steps left in the
/// allocator.
pub fn probe(opts: &RunOpts, what: Probe) -> Res<f64> {
    match what {
        Probe::SetUp => {
            let start = Instant::now();
            match opts.workload {
                Workload::ServeInproc => drop(sessions::serve_set_up(opts)),
                Workload::NetLockstep | Workload::NetPipelined => drop(net::set_up_once(opts)?),
                _ => drop(replay::set_up_once(opts)?),
            }
            Ok(secs(start.elapsed()))
        }
        Probe::PeakRss => {
            match opts.workload {
                Workload::ServeInproc => sessions::serve_once(opts)?,
                Workload::NetLockstep | Workload::NetPipelined => net::once(opts)?,
                _ => replay::once(opts)?,
            }
            own_peak_rss_mb()
        }
    }
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn own_peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs the `probe` command of this executable in a process of its own
/// and returns the number it prints.
fn probe_in_child(opts: &RunOpts, what: Probe) -> Res<f64> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("probe")
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--measure", what.flag()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {} probe: {e}", what.flag()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    match text.trim().parse::<f64>() {
        Ok(value) if output.status.success() => Ok(value),
        _ => Err(format!(
            "the {} probe failed ({}): {text:?}",
            what.flag(),
            output.status
        )),
    }
}

/// `peak_rss_mb`: the peak RSS of a process that does one rep of the
/// workload from prepared inputs and nothing else. This process is no
/// use for that: it has set up, and how much memory its many reps leave
/// behind is the allocator's luck, not the program's need.
fn peak_rss_mb(opts: &RunOpts) -> Res<f64> {
    if opts.probe_in_child {
        probe_in_child(opts, Probe::PeakRss)
    } else {
        own_peak_rss_mb()
    }
}

/// Set-up, done here first and then again in fresh processes. Returns
/// the product and each repetition's seconds, whose median is `setup_s`.
/// Every repetition is the first thing its process does, as a user's is:
/// repeated in one process, a set-up that mostly allocates took 9 ms or
/// 16 ms from the second repetition on, by whether the allocator had
/// kept the freed pages — one or the other for a whole run, 20 ms cold.
/// A set-up that takes milliseconds is repeated more often (while a
/// second has not gone by, up to 50 times), because that short a time
/// jitters more.
fn set_up<T>(opts: &RunOpts, make: impl FnOnce() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let start = Instant::now();
    let product = make()?;
    let mut times = vec![secs(start.elapsed())];
    while opts.probe_in_child
        && (times.len() < opts.sizes.setup_reps
            || (times.len() < 50 && times.iter().sum::<f64>() < 1.0))
    {
        times.push(probe_in_child(opts, Probe::SetUp)?);
    }
    Ok((product, times))
}

/// Warm-up reps, then timed reps until `seconds` have gone by (and at
/// least `min_reps`). `rep` returns the seconds it counts as its own
/// and whatever it produced; only timed reps' products are returned.
fn timed_reps<T>(
    sizes: &Sizes,
    seconds: f64,
    warmup_reps: usize,
    mut rep: impl FnMut() -> Res<(f64, T)>,
) -> Res<Vec<(f64, T)>> {
    for _ in 0..warmup_reps {
        rep()?;
    }
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < sizes.min_reps.max(1) || secs(start.elapsed()) < seconds {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// The untraced reps a traced run measures itself against: the fewest
/// `timed_reps` allows. Returns their median wall seconds and the first
/// rep's product.
fn reference_reps<T>(
    sizes: &Sizes,
    warmup_reps: usize,
    rep: impl FnMut() -> Res<(f64, T)>,
) -> Res<(f64, T)> {
    let (walls, mut products): (Vec<f64>, Vec<T>) = timed_reps(sizes, 0.0, warmup_reps, rep)?
        .into_iter()
        .unzip();
    Ok((stats::median(&walls), products.swap_remove(0)))
}

/// Every rep must have produced what the first did.
fn reps_agree(results: &[Vec<RunResult>]) -> Res<()> {
    for (i, r) in results.iter().enumerate().skip(1) {
        checks::same_results(&format!("rep {i} against rep 0"), &results[0], r)?;
    }
    Ok(())
}

/// The checks on a finished store (or one per shard), and the policy
/// error: the largest over the shards.
fn check_results(
    sizes: &Sizes,
    requested: Option<Requested>,
    results: &[RunResult],
) -> Res<Option<f64>> {
    let mut worst = None;
    for r in results {
        checks::garbage_identity(r)?;
        if let Some(requested) = requested {
            let err = checks::policy_err_pp(requested, r)?;
            if sizes.check_policy_tolerance {
                checks::policy_within_tolerance(requested, err)?;
            }
            worst = Some(err.max(worst.unwrap_or(0.0)));
        }
    }
    Ok(worst)
}

/// The exact-repeat counts of a run, summed over its shards, and a
/// fingerprint of everything the results hold.
fn exact_counts(results: &[RunResult]) -> Vec<(String, Json)> {
    let sum = |f: fn(&RunResult) -> u64| Json::Num(results.iter().map(f).sum::<u64>() as f64);
    // FNV-1a over the results' debug rendering: any field that differs
    // changes it.
    let fingerprint = format!("{results:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    vec![
        ("events".into(), sum(|r| r.events_replayed)),
        ("collections".into(), sum(|r| r.collection_count())),
        ("app_io_pages".into(), sum(|r| r.app_io_total)),
        ("gc_io_pages".into(), sum(|r| r.gc_io_total)),
        ("db_size_bytes".into(), sum(|r| r.final_db_size)),
        (
            "garbage_generated_bytes".into(),
            sum(|r| r.total_garbage_generated),
        ),
        (
            "garbage_collected_bytes".into(),
            sum(|r| r.total_garbage_collected),
        ),
        ("overwrites".into(), sum(|r| r.overwrite_clock)),
        (
            "fingerprint".into(),
            Json::Str(format!("{fingerprint:016x}")),
        ),
    ]
}

/// Closes a timed run: the checks on the reps' results and the
/// end-to-end metrics every workload reports, in table order. `walls`
/// are the reps' seconds, `results` their stores' results (one per
/// shard), `ops` the operations one rep submits, `failed` those refused
/// or lost over all reps.
fn timed_report(
    opts: &RunOpts,
    requested: Option<Requested>,
    setup: &[f64],
    walls: &[f64],
    results: &[Vec<RunResult>],
    ops: u64,
    failed: u64,
) -> Res<Report> {
    reps_agree(results)?;
    let policy_err = check_results(&opts.sizes, requested, &results[0])?;
    let ops_per_s: Vec<f64> = walls.iter().map(|w| ops as f64 / w).collect();
    let attempted = ops * walls.len() as u64;

    let mut report = Report::new(opts);
    report.attempted = attempted;
    report.failed = failed;
    report.exact = exact_counts(&results[0]);
    let m = &mut report.metrics;
    m.push(metrics::end_to_end_median("setup_s", setup));
    m.push(metrics::end_to_end_median("ops_per_s", &ops_per_s));
    if let Some(err) = policy_err {
        m.push(metrics::end_to_end("policy_err_pp", err));
    }
    m.push(metrics::end_to_end("peak_rss_mb", peak_rss_mb(opts)?));
    m.push(metrics::end_to_end(
        "failed_ops_pct",
        100.0 * failed as f64 / attempted.max(1) as f64,
    ));
    Ok(report)
}
