//! Vendored stand-in for the `criterion` crate.
//!
//! This workspace builds in offline environments where crates.io is not
//! reachable, so the subset of the criterion API the benches use is
//! implemented here: [`Criterion`], benchmark groups, [`Bencher::iter`]
//! and [`Bencher::iter_batched`], plus the [`criterion_group!`] /
//! [`criterion_main!`] entry points.
//!
//! Measurement is intentionally simple — a calibrated wall-clock loop
//! split into batches, reporting the lower/median/upper per-iteration
//! batch means to stdout (the same three-number shape real criterion
//! prints, so `reports/bench_summary.txt` and the `xtask bench-compare`
//! tooling parse both). There is no statistical analysis or HTML report;
//! the benches stay runnable and comparable across commits on the same
//! machine.
//!
//! Passing `--test` (as `cargo bench -- --test` does for smoke-testing
//! bench code) switches to a minimal measurement budget so every bench
//! executes at least once without burning CI time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-export of the standard compiler-fence helper, for parity with the
/// real crate's `criterion::black_box`.
pub use std::hint::black_box;

/// How much a measured routine's setup output costs to hold in memory.
/// Only a hint upstream; ignored here beyond API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is small; large batches are fine.
    SmallInput,
    /// Setup output is large; keep batches small.
    LargeInput,
    /// One setup call per routine call.
    PerIteration,
}

/// Units for a group's reported throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per routine call.
    Elements(u64),
    /// Bytes processed per routine call.
    Bytes(u64),
}

/// A benchmark identifier built from a parameter value.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered from the parameter alone, e.g. `group/128`.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }

    /// An id with a function name and a parameter, e.g. `group/scan/128`.
    pub fn new<S: Into<String>, P: std::fmt::Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// One timed batch: total wall time over `iters` routine calls.
#[derive(Debug, Clone, Copy)]
struct Sample {
    elapsed: Duration,
    iters: u64,
}

impl Sample {
    fn per_iter_ns(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.elapsed.as_nanos() as f64 / self.iters as f64
        }
    }
}

/// Drives the timed iterations of one benchmark.
pub struct Bencher {
    target: Duration,
    samples: Vec<Sample>,
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    fn new(target: Duration) -> Self {
        Bencher {
            target,
            samples: Vec::new(),
            elapsed: Duration::ZERO,
            iters: 0,
        }
    }

    fn record(&mut self, elapsed: Duration, iters: u64) {
        self.samples.push(Sample { elapsed, iters });
        self.elapsed += elapsed;
        self.iters += iters;
    }

    /// Times `routine` over a calibrated number of iterations, collecting
    /// per-batch samples for the lower/median/upper report.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: grow the batch until one batch takes ~1/10 of the
        // measurement budget, then measure until the budget is spent.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let took = start.elapsed();
            if took * 10 >= self.target || batch >= 1 << 20 {
                self.record(took, batch);
                break;
            }
            batch *= 4;
        }
        while self.elapsed < self.target {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.record(start.elapsed(), batch);
        }
    }

    /// Times `routine` on fresh values from `setup`, excluding setup time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        while self.elapsed < self.target || self.samples.is_empty() {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.record(start.elapsed(), 1);
        }
    }

    fn mean(&self) -> Duration {
        (self.elapsed.as_nanos() as u64)
            .checked_div(self.iters)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// `(lower, median, upper)` of the per-iteration batch means, in
    /// nanoseconds. With a single batch all three collapse to its mean.
    fn spread_ns(&self) -> (f64, f64, f64) {
        let mut per: Vec<f64> = self.samples.iter().map(Sample::per_iter_ns).collect();
        if per.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        per.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let median = if per.len() % 2 == 1 {
            per[per.len() / 2]
        } else {
            (per[per.len() / 2 - 1] + per[per.len() / 2]) / 2.0
        };
        (per[0], median, *per.last().expect("non-empty"))
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.4} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.4} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.4} ms", ns / 1_000_000.0)
    } else {
        format!("{:.4} s", ns / 1_000_000_000.0)
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    criterion: &'a Criterion,
}

impl BenchmarkGroup<'_> {
    /// Declares the amount of work one routine call performs, so results
    /// are also reported as a rate.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Accepted for API compatibility; this harness calibrates by wall
    /// clock rather than a fixed sample count, so the hint is ignored.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<S: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) {
        let mut b = Bencher::new(self.criterion.measurement_time);
        f(&mut b);
        self.report(&id.to_string(), &b);
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<S, I, F>(&mut self, id: S, input: &I, mut f: F)
    where
        S: std::fmt::Display,
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.criterion.measurement_time);
        f(&mut b, input);
        self.report(&id.to_string(), &b);
    }

    /// Ends the group (report output is already flushed per benchmark).
    pub fn finish(self) {}

    fn report(&self, id: &str, b: &Bencher) {
        let mean = b.mean();
        let (lo, med, hi) = b.spread_ns();
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
                let per_sec = n as f64 / mean.as_secs_f64();
                format!("  ({per_sec:.0} elem/s)")
            }
            Some(Throughput::Bytes(n)) if mean > Duration::ZERO => {
                let per_sec = n as f64 / mean.as_secs_f64();
                format!("  ({:.1} MiB/s)", per_sec / (1024.0 * 1024.0))
            }
            _ => String::new(),
        };
        println!(
            "{}/{:<28} time: [{} {} {}]{rate}   ({} iters)",
            self.name,
            id,
            fmt_ns(lo),
            fmt_ns(med),
            fmt_ns(hi),
            b.iters
        );
    }
}

/// The benchmark harness entry point.
pub struct Criterion {
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- --test` asks for a smoke run: execute every
        // bench once-ish, skip real measurement.
        let smoke = std::env::args().any(|a| a == "--test");
        let measurement_time = std::env::var("CRITERION_MEASUREMENT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or_else(|| Duration::from_millis(if smoke { 1 } else { 300 }));
        Criterion { measurement_time }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let mut b = Bencher::new(self.measurement_time);
        f(&mut b);
        let (lo, med, hi) = b.spread_ns();
        println!(
            "{:<36} time: [{} {} {}]   ({} iters)",
            id,
            fmt_ns(lo),
            fmt_ns(med),
            fmt_ns(hi),
            b.iters
        );
    }
}

/// Bundles benchmark functions into one runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the given group functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(Duration::from_millis(5));
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            n
        });
        assert!(b.iters > 0);
        assert!(b.mean() < Duration::from_millis(5));
        let (lo, med, hi) = b.spread_ns();
        assert!(lo <= med && med <= hi);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut b = Bencher::new(Duration::from_millis(2));
        b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput);
        assert!(b.iters > 0);
    }

    #[test]
    fn spread_is_ordered_and_median_is_central() {
        let mut b = Bencher::new(Duration::ZERO);
        for (ns, iters) in [(100u64, 1u64), (300, 1), (200, 1)] {
            b.record(Duration::from_nanos(ns), iters);
        }
        let (lo, med, hi) = b.spread_ns();
        assert_eq!((lo, med, hi), (100.0, 200.0, 300.0));
    }

    #[test]
    fn group_api_composes() {
        let mut c = Criterion {
            measurement_time: Duration::from_millis(1),
        };
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(10));
        group.bench_function(BenchmarkId::from_parameter(42), |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("f", 7), &7u32, |b, &x| b.iter(|| x * 2));
        group.finish();
    }
}
