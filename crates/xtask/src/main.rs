//! Repository automation tasks (`cargo run -p xtask -- <task>`).
//!
//! `bench-compare` runs the criterion micro-benchmark suite, prints each
//! benchmark's median beside the checked-in machine-local baseline in
//! `reports/bench_summary.txt`, and rewrites the baseline with the fresh
//! numbers. The `BENCH_N.json` files at the repository root are frozen
//! history; nothing here writes them. No dependencies: the criterion
//! shim's output format is fixed (`{name} time: [{lo} {med} {hi}] ...`),
//! so a hand-rolled parser is enough.
//!
//! `bench-compare --check` is the CI ratchet: it runs the same suite and
//! comparison but *never rewrites the baseline*, and exits nonzero when
//! any tracked benchmark's median regresses beyond [`THRESHOLD`] (fail
//! at >4× the baseline median — generous because CI hardware differs
//! from the machine that blessed the baseline). Benchmarks whose
//! baseline median is below [`MIN_NS`] are reported but never fail the
//! check: at that scale the shim's medians are dominated by timer noise.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The ratchet fails a benchmark whose fresh median exceeds its
/// baseline median times this ratio.
const THRESHOLD: f64 = 4.0;

/// Baselines faster than this many nanoseconds are exempt from failing
/// (timer noise).
const MIN_NS: f64 = 20.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-compare") => match parse_check(&args[1..]) {
            Ok(check) => bench_compare(check),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- bench-compare [--check]");
            std::process::exit(2);
        }
    }
}

/// Parses `bench-compare`'s arguments: whether `--check` (ratchet mode:
/// compare only, never rewrite, exit 1 on regression) was given.
fn parse_check(args: &[String]) -> Result<bool, String> {
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            other => return Err(format!("unknown bench-compare flag {other:?}")),
        }
    }
    Ok(check)
}

/// A benchmark line: name plus lower/median/upper estimates in ns.
struct Sample {
    name: String,
    lo_ns: f64,
    med_ns: f64,
    hi_ns: f64,
}

/// A tracked benchmark whose fresh median exceeded the ratchet.
struct Regression {
    name: String,
    old_ns: f64,
    new_ns: f64,
}

/// The ratchet comparison: every baseline benchmark that is present in
/// the fresh run, at or above [`MIN_NS`], and slower than [`THRESHOLD`]
/// × its baseline median.
fn find_regressions(old: &[Sample], new: &[Sample]) -> Vec<Regression> {
    let mut out = Vec::new();
    for o in old {
        if o.med_ns < MIN_NS {
            continue;
        }
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            continue;
        };
        if n.med_ns > o.med_ns * THRESHOLD {
            out.push(Regression {
                name: o.name.clone(),
                old_ns: o.med_ns,
                new_ns: n.med_ns,
            });
        }
    }
    out
}

fn bench_compare(check: bool) {
    let root = repo_root();
    let summary_path = root.join("reports/bench_summary.txt");

    let old = std::fs::read_to_string(&summary_path)
        .map(|s| parse_samples(&s))
        .unwrap_or_default();
    if check && old.is_empty() {
        eprintln!(
            "--check needs a baseline in {}; generate one with \
             `cargo run -p xtask -- bench-compare`",
            summary_path.display()
        );
        std::process::exit(2);
    }

    eprintln!("running: cargo bench -p odbgc-bench");
    let out = Command::new("cargo")
        .args(["bench", "-p", "odbgc-bench"])
        .current_dir(&root)
        .stderr(Stdio::inherit())
        .output()
        .expect("failed to launch cargo bench");
    if !out.status.success() {
        eprintln!("cargo bench failed: {}", out.status);
        std::process::exit(1);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let new = parse_samples(&stdout);
    if new.is_empty() {
        eprintln!("no benchmark lines found in cargo bench output");
        std::process::exit(1);
    }

    // Comparison table on stdout.
    println!(
        "{:<40} {:>12} {:>12} {:>8}",
        "benchmark", "old median", "new median", "speedup"
    );
    for s in &new {
        let old_med = old.iter().find(|o| o.name == s.name).map(|o| o.med_ns);
        let speedup = old_med.map(|o| o / s.med_ns);
        println!(
            "{:<40} {:>12} {:>12} {:>8}",
            s.name,
            old_med.map_or_else(|| "-".into(), fmt_time),
            fmt_time(s.med_ns),
            speedup.map_or_else(|| "-".into(), |x| format!("{x:.2}x")),
        );
    }

    if check {
        // Ratchet mode: judge, never rewrite.
        let regressions = find_regressions(&old, &new);
        if regressions.is_empty() {
            eprintln!(
                "bench ratchet OK: no tracked median beyond {THRESHOLD:.2}x baseline \
                 (noise floor {MIN_NS} ns)"
            );
            return;
        }
        eprintln!(
            "bench ratchet FAILED: {} tracked benchmark(s) beyond {THRESHOLD:.2}x baseline:",
            regressions.len(),
        );
        for r in &regressions {
            eprintln!(
                "  {:<40} {} -> {} ({:.2}x)",
                r.name,
                fmt_time(r.old_ns),
                fmt_time(r.new_ns),
                r.new_ns / r.old_ns
            );
        }
        std::process::exit(1);
    }

    // Baseline-refresh mode: the fresh numbers become the baseline.
    let mut summary = String::from(
        "Criterion micro-benchmark summary (lower/median/upper)\n\
         machine-local baseline, regenerate with: cargo run -p xtask -- bench-compare\n",
    );
    for s in &new {
        let _ = writeln!(
            summary,
            "{:<40} [{} {} {}]",
            s.name,
            fmt_time(s.lo_ns),
            fmt_time(s.med_ns),
            fmt_time(s.hi_ns),
        );
    }
    std::fs::write(&summary_path, summary).expect("write bench_summary.txt");
    eprintln!("wrote {}", summary_path.display());
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

/// Parses both the live `cargo bench` output
/// (`name time: [lo u med u hi u] ...`) and the checked-in summary
/// (`name [lo u med u hi u]`).
fn parse_samples(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(open) = line.find('[') else { continue };
        let Some(close) = line[open..].find(']') else {
            continue;
        };
        let name = line[..open].trim_end().trim_end_matches("time:").trim_end();
        if name.is_empty() || !name.contains('/') {
            continue;
        }
        let inner: Vec<&str> = line[open + 1..open + close].split_whitespace().collect();
        if inner.len() != 6 {
            continue;
        }
        let (Some(lo), Some(med), Some(hi)) = (
            to_ns(inner[0], inner[1]),
            to_ns(inner[2], inner[3]),
            to_ns(inner[4], inner[5]),
        ) else {
            continue;
        };
        out.push(Sample {
            name: name.to_string(),
            lo_ns: lo,
            med_ns: med,
            hi_ns: hi,
        });
    }
    out
}

fn to_ns(value: &str, unit: &str) -> Option<f64> {
    let v: f64 = value.parse().ok()?;
    let scale = match unit {
        "ns" => 1.0,
        "µs" | "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    Some(v * scale)
}

fn fmt_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.4} ns")
    } else if ns < 1e6 {
        format!("{:.4} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.4} ms", ns / 1e6)
    } else {
        format!("{:.4} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, med_ns: f64) -> Sample {
        Sample {
            name: name.to_string(),
            lo_ns: med_ns * 0.9,
            med_ns,
            hi_ns: med_ns * 1.1,
        }
    }

    #[test]
    fn parses_bench_output_and_summary_lines() {
        let live = "oo7_replay/small_prime_conn3            time: [5.4615 ms 5.8916 ms 8.2349 ms]  (16613439 elem/s)   (512 iters)";
        let s = parse_samples(live);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "oo7_replay/small_prime_conn3");
        assert_eq!(s[0].med_ns, 5.8916e6);

        let summary = "plan_survivors/100                       [3.2902 µs 3.5955 µs 4.4215 µs]";
        let s = parse_samples(summary);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "plan_survivors/100");
        assert_eq!(s[0].lo_ns, 3290.2);
        assert_eq!(s[0].hi_ns, 4421.5);
    }

    #[test]
    fn ignores_prose_and_malformed_lines() {
        let text = "Criterion micro-benchmark summary (lower/median/upper)\n\
                    running 3 tests [ok]\n\
                    group/bench [1.0 zs 2.0 zs 3.0 zs]\n";
        assert!(parse_samples(text).is_empty());
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(to_ns("2", "ns"), Some(2.0));
        assert_eq!(to_ns("2", "µs"), Some(2000.0));
        assert_eq!(to_ns("2", "ms"), Some(2e6));
        assert_eq!(to_ns("2", "s"), Some(2e9));
        assert_eq!(to_ns("2", "parsecs"), None);
        assert_eq!(fmt_time(5.8916e6), "5.8916 ms");
        assert_eq!(fmt_time(123.4), "123.4000 ns");
    }

    #[test]
    fn ratchet_flags_only_regressions_beyond_threshold() {
        let old = vec![sample("g/fast", 100.0), sample("g/slow", 1000.0)];
        let new = vec![
            sample("g/fast", 350.0),  // 3.5x: within a 4x ratchet
            sample("g/slow", 4100.0), // 4.1x: beyond it
        ];
        let r = find_regressions(&old, &new);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "g/slow");
        assert_eq!(r[0].new_ns, 4100.0);
    }

    #[test]
    fn ratchet_exempts_noise_floor_and_untracked_benchmarks() {
        // 5 ns baseline: below the 20 ns floor, can never fail.
        let old = vec![sample("g/tiny", 5.0), sample("g/gone", 500.0)];
        let new = vec![sample("g/tiny", 500.0), sample("g/new", 1.0)];
        assert!(find_regressions(&old, &new).is_empty());
        // A baseline at the floor is in scope.
        let r = find_regressions(&[sample("g/floor", 20.0)], &[sample("g/floor", 81.0)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "g/floor");
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn check_options_parse_and_reject() {
        assert_eq!(parse_check(&args(&["--check"])), Ok(true));
        assert_eq!(parse_check(&[]), Ok(false));
        assert!(parse_check(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn threshold_and_min_ns_are_unknown_flags() {
        // The ratchet's bounds are the constants THRESHOLD and MIN_NS.
        for flag in ["--threshold", "--min-ns"] {
            assert_eq!(
                parse_check(&args(&[flag, "2"])),
                Err(format!("unknown bench-compare flag \"{flag}\""))
            );
        }
    }
}
