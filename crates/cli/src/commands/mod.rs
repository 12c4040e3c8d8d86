//! The CLI subcommands.

pub mod client;
pub mod generate;
pub mod run;
pub mod serve;
pub mod serve_bench;
pub mod sweep;
pub mod trace;

use odbgc_tracefile::{DecodeError, FileBatches};

use crate::CliError;

/// Opens a tracefile for block-at-a-time reading out of one in-memory
/// image of the file. Anything that is not an `OTBF` tracefile — a text
/// trace included — is refused with the tracefile's typed diagnosis.
pub fn open_tracefile(path: &str) -> Result<FileBatches, CliError> {
    odbgc_tracefile::open_batches(std::path::Path::new(path)).map_err(|e| match e {
        DecodeError::Io(e) => CliError(format!("cannot read {path:?}: {e}")),
        e => CliError(format!("{path}: {e}")),
    })
}

/// The per-shard run documents of an in-process serve on the CLI's
/// defaults (tiny store, batch 8, default workload): what `serve-bench`
/// writes for the same flags, and what `serve` writes for sessions that
/// each own their shard.
#[cfg(test)]
pub(crate) fn in_process_shard_documents(
    policy: &str,
    sessions: u32,
    ops: u64,
    scheduler_seed: u64,
) -> Vec<String> {
    use odbgc_engine::{serve, EngineConfig, ServeConfig, WorkloadParams};

    let config = ServeConfig {
        engine: EngineConfig {
            store: crate::spec::store_config(None, "tiny").unwrap(),
            ..EngineConfig::default()
        },
        sessions,
        shards: sessions,
        ops_per_session: ops,
        batch: 8,
        scheduler_seed,
        workload: WorkloadParams::default(),
        gc_fault: None,
    };
    let outcome = serve(config, |_| {
        crate::spec::parse_policy(policy).unwrap().build()
    })
    .unwrap();
    outcome
        .shards
        .into_iter()
        .map(|shard| {
            assert!(!shard.log.decisions.is_empty(), "every shard collected");
            odbgc_sim::run_document(&shard.policy, &shard.log).to_string_pretty()
        })
        .collect()
}

/// The lines of a pretty-printed telemetry document outside its volatile
/// entries (`timing`, `wall_*`, `net_*`, each with its whole value),
/// trailing commas dropped since removing an entry moves them. Two
/// documents of the same deterministic outcome have equal lines.
#[cfg(test)]
pub(crate) fn deterministic_lines(text: &str) -> Vec<&str> {
    let mut lines = Vec::new();
    let mut skip_to: Option<String> = None;
    for line in text.lines() {
        let line = line.strip_suffix(',').unwrap_or(line);
        if let Some(close) = &skip_to {
            if line == close {
                skip_to = None;
            }
            continue;
        }
        let entry = line.trim_start();
        if ["\"timing\"", "\"wall_", "\"net_"]
            .iter()
            .any(|key| entry.starts_with(key))
        {
            let indent = &line[..line.len() - entry.len()];
            skip_to = match entry.chars().last() {
                Some('[') => Some(format!("{indent}]")),
                Some('{') => Some(format!("{indent}}}")),
                _ => None,
            };
            continue;
        }
        lines.push(line);
    }
    lines
}
