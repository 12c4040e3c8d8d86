//! `odbgc` — command-line driver for the collection-rate simulator.
//!
//! ```text
//! odbgc generate --conn 3 --seed 1 --out trace.odbgc     # write an OO7 trace
//! odbgc trace stat --trace trace.odbgc                    # census of a trace
//! odbgc run --trace trace.odbgc --policy saio:10%         # simulate one policy
//! odbgc run --conn 3 --seed 1 --policy saga:10%:fgs-hb    # generate + simulate
//! odbgc sweep --policy saio --points 2,5,10,20 --seeds 1..10 --csv out.csv
//! ```
//!
//! Policy specs:
//!
//! | Spec | Policy |
//! |---|---|
//! | `saio:10%` | SAIO at 10% requested GC-I/O share (`c_hist = 0`) |
//! | `saio:10%:hist=4` / `hist=inf` | SAIO with a history window |
//! | `saga:5%` / `saga:5%:oracle` | SAGA at 5% garbage, oracle estimator |
//! | `saga:5%:fgs-hb` / `saga:5%:fgs-hb@0.5` | SAGA with FGS/HB (history factor) |
//! | `saga:5%:cgs-cb` | SAGA with CGS/CB |
//! | `fixed:200` | collect every 200 pointer overwrites |
//! | `alloc:98304` | collect every 96 KiB allocated |
//! | `coupled:10%:floor=5%[:stretch=X]` | SAIO stretched when garbage < floor |
//! | `quiescent:idle=N:<spec>` | any policy + opportunistic idle collection |
//!
//! The grammar lives in `odbgc_core::spec` ([`odbgc_core::PolicySpec`]):
//! specs are data, parse/`Display` round-trip, and sweeps execute them as
//! an `ExperimentPlan` on a worker pool sized by `--jobs` (or the
//! `ODBGC_JOBS` environment variable, default: all cores).
//!
//! Everything is deterministic in `--seed`, whatever the worker count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commands;
pub mod flags;
pub mod spec;

/// A user-facing CLI failure (bad arguments, bad spec, I/O trouble).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("I/O error: {e}"))
    }
}

/// Dispatches a full argument vector (excluding the program name).
/// Returns the text to print on success.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "generate" => commands::generate::run(rest),
        "run" => commands::run::run(rest),
        "serve" => commands::serve::run(rest),
        "client" => commands::client::run(rest),
        "serve-bench" => commands::serve_bench::run(rest),
        "sweep" => commands::sweep::run(rest),
        "trace" => commands::trace::run(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError(format!(
            "unknown command {other:?}; try `odbgc help`"
        ))),
    }
}

/// The top-level usage text.
pub fn usage() -> String {
    "\
odbgc — self-adaptive GC-rate control simulator (SIGMOD'96 reproduction)

USAGE:
  odbgc generate --out <file> [--conn N] [--seed N] [--params small-prime|small|tiny] [--style bidir|forward]
  odbgc run      (--trace <file> | [--conn N] [--seed N] [--params small-prime|small|tiny]
                 [--style bidir|forward]) --policy <spec>
                 [--selector updated-pointer|random|round-robin|most-garbage]
                 [--series <csv>] [--preamble N] [--store paper|tiny]
                 [--telemetry <json>]
  odbgc serve-bench --policy <spec> [--sessions N] [--shards N] [--ops N]
                 [--batch N] [--sched-seed N] [--seed N] [--store tiny|paper]
                 [--telemetry <json>]
  odbgc serve    --policy <spec> [--listen HOST:PORT] [--shards N]
                 [--window-max N] [--idle-timeout-ms N] [--addr-file <f>]
                 [--store tiny|paper] [--telemetry <json>]
  odbgc client   --connect HOST:PORT [--session N] [--ops N] [--batch N]
                 [--window N] [--seed N] [--connections N] [--shutdown true]
  odbgc sweep    --policy saio|saga[:estimator] --points a,b,c [--seeds A..B]
                 [--conn N] [--params small-prime|small|tiny] [--csv <file>]
                 [--jobs N] [--telemetry <json>]
  odbgc trace    stat|cat --trace <file>   (cat: [--limit N])

Traces are OTBF tracefiles: checksummed, varint/delta-encoded, and read
block by block. `generate` writes one whatever the file's extension, and
every --trace reads one; anything else is refused as `not a tracefile`.
`trace stat` counts a tracefile by event kind and by phase, verifying
every block on the way; `trace cat` prints it as text. Without --trace,
`run` and `sweep` generate the OO7 trace in process, once per seed.

POLICY SPECS:
  saio:10%[:hist=N|inf]   saga:5%[:oracle|fgs-hb[@h]|cgs-cb]
  fixed:<overwrites>      alloc:<bytes>
  coupled:10%:floor=5%[:stretch=X]
  quiescent:idle=N:<spec>

Sweeps run cell × seed on --jobs worker threads (or ODBGC_JOBS; default:
all cores). Results are independent of the worker count.
Everything is deterministic in --seed (default 1).

serve-bench drives N live sessions (default 4) against engines sharded
by partition group (default 2 shards), each collecting between turns,
interleaved by a scheduler seeded with --sched-seed — the same
seed always reproduces the same schedule and per-shard results. With
--telemetry it writes one run document per shard from the live decision
log.

serve exposes the same sharded engines over a socket: one readiness-driven
event loop thread per shard multiplexes any number of connections and
applies its shard's turns and collections itself, per-client in-flight
windows give explicit busy responses, idle connections are reaped, and a
graceful drain (a client's --shutdown true) finishes in-flight ops and
flushes telemetry before closing. The bound address goes to stderr and
--addr-file; per-client and per-loop counters ride in telemetry under
volatile net_ keys. client drives one seeded session against it — or N sessions
round-robin from one process with --connections — the same workload
generator serve-bench schedules in-process, so loopback telemetry
matches in-process telemetry after stripping volatile keys.

--telemetry writes a versioned JSON document (policy decision log and
per-phase accounting for `run`; per-job wall times, trace-cache counts,
and the failure list for `sweep`) for external tools such as jq; odbgc
never reads one back. Every document leads with \"schema\":
\"odbgc-telemetry\", \"version\" and \"kind\"."
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_args_print_usage() {
        let out = dispatch(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(dispatch(&argv("help")).unwrap().contains("POLICY SPECS"));
    }

    #[test]
    fn unknown_command_errors() {
        let e = dispatch(&argv("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn usage_lists_the_params_and_style_flags() {
        let usage = usage();
        let section = |cmd: &str| {
            let start = usage.find(&format!("  odbgc {cmd} ")).expect(cmd);
            let rest = &usage[start + 2..];
            rest[..rest.find("\n  odbgc ").unwrap_or(rest.len())].to_owned()
        };
        let run = section("run");
        assert!(run.contains("[--params small-prime|small|tiny]"), "{run}");
        assert!(run.contains("[--style bidir|forward]"), "{run}");
        let sweep = section("sweep");
        assert!(
            sweep.contains("[--params small-prime|small|tiny]"),
            "{sweep}"
        );
    }
}
