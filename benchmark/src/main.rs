//! `odbgc-benchmark`: one end-to-end benchmark for the three ways work
//! reaches the store — trace replay, in-process serve, loopback serve —
//! with a per-layer time budget. See `README.md` next to the manifest.
//!
//! ```text
//! run     --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! all     [--seed N] [--seconds S] [--smoke] [--out FILE]    every workload, timed
//! trace   [--seed N] [--smoke] [--out FILE]                  every workload, traced
//! compare A.json B.json
//! ```

mod checks;
mod compare;
mod drive;
mod json;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{Probe, Report, RunOpts, Sizes};

type Res<T> = Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("odbgc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Res<ExitCode> {
    let (command, rest) = args
        .split_first()
        .ok_or("want a command: run | all | trace | compare")?;
    match command.as_str() {
        "run" => {
            let flags = Flags::parse(rest)?;
            let opts = flags.run_opts()?;
            let out = flags.get("out").map(PathBuf::from);
            flags.done()?;
            let report = workloads::run(&opts)?;
            print!("{}", render(&report));
            if let Some(out) = out {
                write(&out, &report.to_json())?;
            }
            // Last line: the result the acceptance driver reads.
            println!(
                "{}",
                report.result_line(&result_names(opts.traced)).render()
            );
            Ok(ExitCode::SUCCESS)
        }
        // `run`'s own helper: one set-up, or one rep, in a process that
        // does nothing else, which prints what it measured.
        "probe" => {
            let flags = Flags::parse(rest)?;
            let opts = flags.run_opts()?;
            let what = flags
                .get("measure")
                .and_then(Probe::parse)
                .ok_or("probe wants --measure setup|rss")?;
            flags.done()?;
            println!("{}", workloads::probe(&opts, what)?);
            Ok(ExitCode::SUCCESS)
        }
        "all" | "trace" => {
            let flags = Flags::parse(rest)?;
            let traced = command == "trace";
            let seed = flags.number("seed", 1)?;
            let seconds = flags.number("seconds", RUN_SECONDS)?;
            let smoke = flags.has("smoke");
            let out = flags.get("out").map_or_else(
                || workloads::default_out_dir().join(format!("{command}-seed{seed}.json")),
                PathBuf::from,
            );
            flags.done()?;
            let doc = run_all(traced, seed, seconds, smoke)?;
            write(&out, &doc)?;
            println!("wrote {}", out.display());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [a, b] = rest else {
                return Err("compare wants two result files".into());
            };
            let comparison = compare::compare(&read(a)?, &read(b)?)?;
            print!("{}", comparison.render());
            Ok(if comparison.regressed() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// `--key value` pairs and bare `--switch`es.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
    seen: std::cell::RefCell<Vec<String>>,
}

impl Flags {
    const SWITCHES: [&'static str; 1] = ["smoke"];

    fn parse(args: &[String]) -> Res<Flags> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if Flags::SWITCHES.contains(&key) {
                None
            } else {
                Some(
                    args.next()
                        .ok_or_else(|| format!("--{key} wants a value"))?
                        .clone(),
                )
            };
            pairs.push((key.to_owned(), value));
        }
        Ok(Flags {
            pairs,
            seen: Default::default(),
        })
    }

    fn find(&self, key: &str) -> Option<&(String, Option<String>)> {
        self.seen.borrow_mut().push(key.to_owned());
        self.pairs.iter().find(|(k, _)| k == key)
    }

    fn has(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.find(key).and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, key: &str, default: u64) -> Res<u64> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} wants a whole number, got {v:?}"))
        })
    }

    /// Fails on a flag nothing asked about.
    fn done(&self) -> Res<()> {
        let seen = self.seen.borrow();
        match self.pairs.iter().find(|(k, _)| !seen.contains(k)) {
            Some((key, _)) => Err(format!("unknown flag --{key}")),
            None => Ok(()),
        }
    }

    fn run_opts(&self) -> Res<RunOpts> {
        let name = self.get("workload").ok_or("want --workload")?;
        let workload = Workload::parse(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (one of {})", known.join(", "))
        })?;
        let smoke = self.has("smoke");
        let seconds = self.number("seconds", RUN_SECONDS)? as f64;
        Ok(RunOpts {
            workload,
            seed: self.number("seed", 1)?,
            // A smoke run is one rep, whatever `--seconds` says.
            seconds: if smoke { 0.0 } else { seconds },
            traced: match self.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
            },
            sizes: if smoke { Sizes::smoke() } else { Sizes::full() },
            probe_in_child: !smoke,
            out_dir: workloads::default_out_dir(),
        })
    }
}

/// The metrics of the result line: what `BENCHMARK.json` registers.
fn result_names(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|&(name, ..)| name).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.every_workload)
            .map(|m| m.name)
            .collect()
    }
}

/// Runs every workload in a child process of its own (so `peak_rss_mb`
/// is the workload's) and gathers the reports under a host header.
fn run_all(traced: bool, seed: u64, seconds: u64, smoke: bool) -> Res<Json> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = workloads::default_out_dir();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let part = out_dir.join(format!("part-{}.json", workload.name()));
        let mut child = std::process::Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        if !status.success() {
            return Err(format!("{} failed: {status}", workload.name()));
        }
        reports.push((workload.name(), read(&part)?));
        std::fs::remove_file(&part)
            .map_err(|e| format!("cannot remove {}: {e}", part.display()))?;
    }
    Ok(Json::obj([
        ("host", host()),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::obj(reports)),
    ]))
}

/// Where the numbers were taken: results depend on it.
fn host() -> Json {
    let file_line = |path: &str, prefix: &str| {
        std::fs::read_to_string(path).ok().and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(prefix))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
    };
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    let or_unknown = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu", or_unknown(file_line("/proc/cpuinfo", "model name"))),
        (
            "kernel",
            or_unknown(file_line("/proc/sys/kernel/osrelease", "")),
        ),
        ("rustc", or_unknown(rustc)),
    ])
}

fn read(path: impl AsRef<Path>) -> Res<Json> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &Path, doc: &Json) -> Res<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A report for people: every metric by name and unit, the exact counts,
/// and — for a traced run — the budget table.
fn render(report: &Report) -> String {
    let mut out = format!(
        "== {} seed {} ({}) ==\n  {}\n",
        report.workload.name(),
        report.seed,
        if report.traced { "traced" } else { "timed" },
        report.workload.why()
    );
    for m in &report.metrics {
        out += &format!("  {:<32} {:>16.4} {:<6}", m.name, m.value, m.unit);
        if m.n > 1 {
            out += &format!(
                " q1 {:.4} q3 {:.4} spread {:.1}% n {}",
                m.q1,
                m.q3,
                100.0 * stats::spread(m.q1, m.value, m.q3),
                m.n
            );
        }
        out.push('\n');
    }
    let counts: Vec<String> = report
        .exact
        .iter()
        .map(|(name, value)| format!("{name}={}", value.render()))
        .collect();
    out += &format!("  exact: {}\n", counts.join(" "));
    if report.traced {
        out += &format!(
            "  {:<32} {:>12} {:>7}\n",
            "budget: layer", "self ms", "share"
        );
        for (layer, ns) in &report.budget {
            out += &format!(
                "  {:<32} {:>12.3} {:>6.1}%\n",
                layer,
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / report.budget_wall_ns.max(1) as f64
            );
        }
        out += &format!(
            "  {:<32} {:>12.3} {:>6.1}%\n",
            "traced wall",
            report.budget_wall_ns as f64 / 1e6,
            100.0
        );
    }
    for note in &report.notes {
        out += &format!("  note: {note}\n");
    }
    out
}

#[cfg(test)]
mod tests;
