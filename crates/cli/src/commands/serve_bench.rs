//! `odbgc serve-bench` — benchmark the in-process multi-session serve
//! mode: N sessions submit live operations against sharded engines that
//! collect between turns, under a seeded deterministic scheduler.

use std::path::Path;

use odbgc_engine::{serve, EngineConfig, ServeConfig, ShardOutcome, WorkloadParams};
use odbgc_sim::{run_document, Json};

use crate::flags::{Flags, MAX_SESSIONS};
use crate::spec;
use crate::CliError;

/// Runs a serve-mode benchmark and reports per-shard and per-session
/// outcomes.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let policy_spec = flags.require("policy")?;
    let sessions = flags.count_or("sessions", 4, MAX_SESSIONS)?;
    let shards: u32 = flags.get_or("shards", 2)?;
    let ops: u64 = flags.get_or("ops", 2_000)?;
    let batch: u64 = flags.get_or("batch", 8)?;
    let sched_seed: u64 = flags.get_or("sched-seed", 42)?;
    let workload_seed: u64 = flags.get_or("seed", WorkloadParams::default().seed)?;
    let store_geometry = flags.get("store");
    let telemetry_path = flags.get("telemetry");
    flags.finish()?;

    if batch < 2 {
        // A turn must hold a whole create-and-link action.
        return Err(CliError(format!("--batch must be at least 2, got {batch}")));
    }
    if shards == 0 || shards > sessions {
        return Err(CliError(format!(
            "--shards must be in 1..=sessions ({sessions}), got {shards}"
        )));
    }

    // Parsed once, up front, so a bad spec fails before any threads
    // spin up.
    let policy = spec::parse_policy(&policy_spec)?;

    let engine_config = EngineConfig {
        store: spec::store_config(store_geometry.as_deref(), "tiny")?,
        ..EngineConfig::default()
    };

    let config = ServeConfig {
        engine: engine_config,
        sessions,
        shards,
        ops_per_session: ops,
        batch,
        scheduler_seed: sched_seed,
        workload: WorkloadParams {
            seed: workload_seed,
        },
        gc_fault: None,
    };
    let outcome =
        serve(config, |_| policy.build()).map_err(|e| CliError(format!("serve failed: {e}")))?;

    let mut out = format!(
        "serve-bench: {sessions} sessions × {ops} ops on {shards} shard(s), \
         policy {policy_spec}, scheduler seed {sched_seed}\n\
         scheduled turns:   {}\n\
         per-session ops:   {}",
        outcome.schedule.len(),
        outcome
            .per_session_ops
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    push_shard_report(&mut out, &outcome.shards);
    if let Some(path) = &telemetry_path {
        write_shard_telemetry(&mut out, path, &outcome.shards, &[])?;
    }
    Ok(out)
}

/// Appends each shard's block of a serve report to `out`: policy,
/// events, collections, decisions, the I/O split, the garbage left, and
/// why the shard failed if it did. Shared with `odbgc serve`.
pub(crate) fn push_shard_report(out: &mut String, shards: &[ShardOutcome]) {
    for (i, shard) in shards.iter().enumerate() {
        out.push_str(&format!(
            "\nshard {i}: policy {}\n\
             \x20 events applied:   {}\n\
             \x20 collections:      {}\n\
             \x20 decisions logged: {}\n\
             \x20 app I/O:          {} pages\n\
             \x20 GC I/O:           {} pages ({:.2}% of total)\n\
             \x20 garbage left:     {:.1} KiB",
            shard.policy,
            shard.result.events_replayed,
            shard.result.collection_count(),
            shard.log.decisions.len(),
            shard.result.app_io_total,
            shard.result.gc_io_total,
            shard.result.gc_io_pct_whole_run(),
            shard.result.final_garbage_bytes as f64 / 1024.0,
        ));
        if let Some(failed) = &shard.failed {
            out.push_str(&format!("\n\x20 FAILED:           {failed}"));
        }
    }
}

/// Writes one run document per shard, built from its live decision log
/// with `extra` fields appended, and notes each file in `out`. Shared
/// with `odbgc serve`, whose extras are its volatile `net_` counters.
pub(crate) fn write_shard_telemetry(
    out: &mut String,
    path: &str,
    shards: &[ShardOutcome],
    extra: &[(String, Json)],
) -> Result<(), CliError> {
    for (i, shard) in shards.iter().enumerate() {
        let mut doc = run_document(&shard.policy, &shard.log);
        if let Json::Obj(fields) = &mut doc {
            fields.extend_from_slice(extra);
        }
        let shard_path = shard_telemetry_path(path, i);
        std::fs::write(&shard_path, doc.to_string_pretty())
            .map_err(|e| CliError(format!("cannot write {shard_path:?}: {e}")))?;
        out.push_str(&format!("\nshard {i} telemetry written to {shard_path}"));
    }
    Ok(())
}

/// The telemetry file of one shard, at any shard count:
/// `name-shardN[.ext]` in the same directory (a dot in a directory name
/// is not an extension).
fn shard_telemetry_path(path: &str, shard: usize) -> String {
    let path = Path::new(path);
    let mut name = path.file_stem().unwrap_or_default().to_os_string();
    name.push(format!("-shard{shard}"));
    if let Some(ext) = path.extension() {
        name.push(".");
        name.push(ext);
    }
    path.with_file_name(name).display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::in_process_shard_documents;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn four_sessions_complete_deterministically() {
        let args = "--policy fixed:25 --sessions 4 --shards 2 --ops 300 --sched-seed 7";
        let a = run(&argv(args)).unwrap();
        let b = run(&argv(args)).unwrap();
        assert_eq!(a, b, "same seeds must reproduce the same report");
        assert!(a.contains("per-session ops:   300, 300, 300, 300"), "{a}");
        assert!(a.contains("shard 1:"), "{a}");
    }

    #[test]
    fn telemetry_files_verify_per_shard() {
        // Each shard's file is, byte for byte, the run document built in
        // process from a serve with the same seeds.
        let dir = std::env::temp_dir().join(format!("odbgc-serve-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.json");
        let out = run(&argv(&format!(
            "--policy saio:10% --sessions 2 --shards 2 --ops 400 --sched-seed 7 --telemetry {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("telemetry written to"), "{out}");
        let expected = in_process_shard_documents("saio:10%", 2, 400, 7);
        for (i, expected) in expected.iter().enumerate() {
            let text = std::fs::read_to_string(dir.join(format!("serve-shard{i}.json"))).unwrap();
            assert_eq!(&text, expected, "shard {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_suffix_goes_on_the_file_name_not_a_dotted_directory() {
        assert_eq!(
            shard_telemetry_path("/tmp/run.d/serve", 0),
            "/tmp/run.d/serve-shard0"
        );
        assert_eq!(
            shard_telemetry_path("out.d/serve.json", 1),
            "out.d/serve-shard1.json"
        );
        assert_eq!(shard_telemetry_path("serve.json", 1), "serve-shard1.json");
        // One shard takes the suffix too.
        assert_eq!(shard_telemetry_path("run.d/serve", 0), "run.d/serve-shard0");
    }

    #[test]
    fn rejects_batch_below_two_by_name() {
        for batch in [0, 1] {
            let err = run(&argv(&format!("--policy saio:10% --batch {batch}"))).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--batch must be at least 2, got {batch}")
            );
        }
    }

    #[test]
    fn rejects_more_shards_than_sessions() {
        let err = run(&argv("--policy fixed:25 --sessions 2 --shards 3")).unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
    }
}
