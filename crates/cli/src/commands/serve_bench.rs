//! `odbgc serve-bench` — benchmark the in-process multi-session serve
//! mode: N sessions submit live operations against sharded engines that
//! collect between turns, under a seeded deterministic scheduler.

use odbgc_sim::engine::{serve, ServeConfig, WorkloadParams};
use odbgc_sim::{RunTelemetry, SimConfig};

use crate::flags::Flags;
use crate::spec;
use crate::CliError;

/// Runs a serve-mode benchmark and reports per-shard and per-session
/// outcomes.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let policy_spec = flags.require("policy")?;
    let sessions: u32 = flags.get_or("sessions", 4)?;
    let shards: u32 = flags.get_or("shards", 2)?;
    let ops: u64 = flags.get_or("ops", 2_000)?;
    let batch: u64 = flags.get_or("batch", 8)?;
    let sched_seed: u64 = flags.get_or("sched-seed", 42)?;
    let workload_seed: u64 = flags.get_or("seed", WorkloadParams::default().seed)?;
    let store_geometry = flags.get("store");
    let telemetry_path = flags.get("telemetry");
    flags.finish()?;

    if sessions == 0 {
        return Err(CliError("--sessions must be at least 1".into()));
    }
    if shards == 0 || shards > sessions {
        return Err(CliError(format!(
            "--shards must be in 1..=sessions ({sessions}), got {shards}"
        )));
    }

    // Validate the spec once up front so a bad spec fails before any
    // threads spin up.
    spec::build_policy(&policy_spec)?;

    let mut engine_config = SimConfig::default();
    match store_geometry.as_deref() {
        None | Some("tiny") => engine_config.store = odbgc_sim::store::StoreConfig::tiny(),
        Some("paper") => {}
        Some(other) => {
            return Err(CliError(format!(
                "unknown store geometry {other:?} (paper | tiny)"
            )))
        }
    }

    let config = ServeConfig {
        engine: engine_config,
        sessions,
        shards,
        ops_per_session: ops,
        batch,
        scheduler_seed: sched_seed,
        workload: WorkloadParams {
            seed: workload_seed,
            ..WorkloadParams::default()
        },
        gc_fault: None,
    };
    let outcome = serve(config, |_| {
        spec::build_policy(&policy_spec).expect("spec validated above")
    })
    .map_err(|e| CliError(format!("serve failed: {e}")))?;

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
    for (i, shard) in outcome.shards.iter().enumerate() {
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
            shard.decisions.len(),
            shard.result.app_io_total,
            shard.result.gc_io_total,
            shard.result.gc_io_pct_whole_run(),
            shard.result.final_garbage_bytes as f64 / 1024.0,
        ));
    }

    if let Some(path) = &telemetry_path {
        for (i, shard) in outcome.shards.iter().enumerate() {
            let doc = RunTelemetry::from_decisions(shard.policy.clone(), shard.decisions.clone())
                .to_json()
                .to_string_pretty();
            let shard_path = shard_telemetry_path(path, i, outcome.shards.len());
            std::fs::write(&shard_path, doc)
                .map_err(|e| CliError(format!("cannot write {shard_path:?}: {e}")))?;
            out.push_str(&format!("\nshard {i} telemetry written to {shard_path}"));
        }
    }
    Ok(out)
}

/// The telemetry file of one shard: the given path verbatim for a
/// single-shard run, otherwise `name-shardN[.ext]`. Shared with
/// `odbgc serve`, which writes the same per-shard documents.
pub(crate) fn shard_telemetry_path(path: &str, shard: usize, shard_count: usize) -> String {
    if shard_count == 1 {
        return path.to_owned();
    }
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}-shard{shard}.{ext}"),
        None => format!("{path}-shard{shard}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let dir = std::env::temp_dir().join(format!("odbgc-serve-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.json");
        let out = run(&argv(&format!(
            "--policy saio:10% --sessions 2 --shards 2 --ops 400 --telemetry {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("telemetry written to"), "{out}");
        for shard in 0..2 {
            let shard_path = dir.join(format!("serve-shard{shard}.json"));
            let text = std::fs::read_to_string(&shard_path).unwrap();
            let doc = odbgc_sim::Json::parse(&text).expect("telemetry must parse");
            assert_eq!(odbgc_sim::verify_header(&doc).as_deref(), Ok("run"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_more_shards_than_sessions() {
        let err = run(&argv("--policy fixed:25 --sessions 2 --shards 3")).unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
    }
}
