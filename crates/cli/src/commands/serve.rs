//! `odbgc serve` — the network serve front-end: bind a socket, serve
//! client sessions until one requests a graceful drain, then report and
//! (optionally) write per-shard telemetry.
//!
//! The bound address is announced on **stderr** (and, with
//! `--addr-file`, written to a file) as soon as the listener is up, so
//! scripts using `--listen 127.0.0.1:0` can discover the ephemeral
//! port; stdout carries the end-of-run report only.

use odbgc_engine::EngineConfig;
use odbgc_net::{NetConfig, NetServer};
use odbgc_sim::Json;

use super::serve_bench::{push_shard_report, write_shard_telemetry};
use crate::flags::{Flags, MAX_SHARDS};
use crate::spec;
use crate::CliError;

/// Binds and serves until a client sends Shutdown; returns the drain
/// report.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let listen = flags.get_or("listen", "127.0.0.1:0".to_owned())?;
    let policy_spec = flags.require("policy")?;
    let shards = flags.count_or("shards", 2, MAX_SHARDS)?;
    let window_max: u32 = flags.get_or("window-max", 64)?;
    let idle_timeout_ms: u64 = flags.get_or("idle-timeout-ms", 30_000)?;
    let store_geometry = flags.get("store");
    let telemetry_path = flags.get("telemetry");
    let addr_file = flags.get("addr-file");
    flags.finish()?;

    if window_max == 0 {
        return Err(CliError("--window-max must be at least 1".into()));
    }
    if idle_timeout_ms == 0 {
        return Err(CliError("--idle-timeout-ms must be at least 1".into()));
    }
    // Validate the spec once up front so a bad spec fails before bind.
    spec::build_policy(&policy_spec)?;

    let engine_config = EngineConfig {
        store: spec::store_config(store_geometry.as_deref(), "tiny")?,
        ..EngineConfig::default()
    };

    let config = NetConfig {
        engine: engine_config,
        shards,
        window_max,
        idle_timeout: std::time::Duration::from_millis(idle_timeout_ms),
        ..NetConfig::default()
    };
    let server = NetServer::bind(&listen, config, |_| {
        spec::build_policy(&policy_spec).expect("spec validated above")
    })
    .map_err(|e| CliError(format!("serve: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError(format!("serve: local_addr: {e}")))?;
    eprintln!("odbgc serve: listening on {addr} ({shards} shard(s), policy {policy_spec})");
    if let Some(path) = &addr_file {
        std::fs::write(path, addr.to_string())
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
    }

    let outcome = server.run();

    let mut out = format!(
        "serve: drained after {} client connection(s) on {shards} shard(s), policy {policy_spec}",
        outcome.clients.len()
    );
    push_shard_report(&mut out, &outcome.shards);
    for (i, l) in outcome.loops.iter().enumerate() {
        // Loop counters are pure scheduling artifacts: volatile by
        // construction, reported for operators, never compared.
        out.push_str(&format!(
            "\nnet loop {i}: {} wakeup(s), {} timer tick(s), {} accepted, \
             {} frames in / {} out, {} partial read(s), {} partial write(s), \
             max turns per wakeup {}",
            l.wakeups,
            l.timeouts,
            l.accepted,
            l.frames_in,
            l.frames_out,
            l.partial_reads,
            l.partial_writes,
            l.max_queue_depth,
        ));
    }
    for c in &outcome.clients {
        // Per-client accounting is timing-dependent (bytes include
        // retries, stall time is wall clock); it lives on its own lines
        // here and under volatile `net_` keys in telemetry.
        out.push_str(&format!(
            "\nclient session {}: {} turns, {} ops, {} busy rejection(s), \
             {} B in / {} B out, GC stall {:.3} ms, {}",
            c.session,
            c.turns,
            c.ops,
            c.busy_rejections,
            c.bytes_in,
            c.bytes_out,
            c.gc_stall_ns as f64 / 1e6,
            if c.clean_close {
                "clean close"
            } else {
                "unclean close"
            },
        ));
    }

    if let Some(path) = &telemetry_path {
        // Per-client and per-loop counters ride along under `net_` keys,
        // which strip_volatile drops — the deterministic body stays
        // byte-comparable with in-process serve telemetry.
        let extra = [
            ("net_clients".to_owned(), clients_json(&outcome.clients)),
            ("net_loops".to_owned(), loops_json(&outcome.loops)),
        ];
        write_shard_telemetry(&mut out, path, &outcome.shards, &extra)?;
    }
    Ok(out)
}

fn loops_json(loops: &[odbgc_net::LoopStats]) -> Json {
    Json::Arr(
        loops
            .iter()
            .enumerate()
            .map(|(i, l)| {
                Json::Obj(vec![
                    ("loop".into(), Json::u64(i as u64)),
                    ("wakeups".into(), Json::u64(l.wakeups)),
                    ("timeouts".into(), Json::u64(l.timeouts)),
                    ("accepted".into(), Json::u64(l.accepted)),
                    ("frames_in".into(), Json::u64(l.frames_in)),
                    ("frames_out".into(), Json::u64(l.frames_out)),
                    ("partial_reads".into(), Json::u64(l.partial_reads)),
                    ("partial_writes".into(), Json::u64(l.partial_writes)),
                    ("max_queue_depth".into(), Json::u64(l.max_queue_depth)),
                ])
            })
            .collect(),
    )
}

fn clients_json(clients: &[odbgc_net::ClientCounters]) -> Json {
    Json::Arr(
        clients
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("session".into(), Json::u64(c.session as u64)),
                    ("turns".into(), Json::u64(c.turns)),
                    ("ops".into(), Json::u64(c.ops)),
                    ("bytes_in".into(), Json::u64(c.bytes_in)),
                    ("bytes_out".into(), Json::u64(c.bytes_out)),
                    ("busy_rejections".into(), Json::u64(c.busy_rejections)),
                    ("gc_stall_ns".into(), Json::u64(c.gc_stall_ns)),
                    ("clean_close".into(), Json::Bool(c.clean_close)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{deterministic_lines, in_process_shard_documents};
    use odbgc_engine::WorkloadParams;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn rejects_bad_flags_before_binding() {
        assert!(run(&argv("--policy nope")).is_err());
        assert!(run(&argv("--policy fixed:25 --shards 0")).is_err());
        assert!(run(&argv("--policy fixed:25 --window-max 0")).is_err());
        assert!(run(&argv("--policy fixed:25 --store weird")).is_err());
        assert!(run(&argv("--policy fixed:25 --tpyo 1")).is_err());
    }

    /// End-to-end over loopback: serve in a thread, drive one client
    /// through the public CLI path, drain, and check the report.
    #[test]
    fn serves_a_client_and_drains() {
        let dir = std::env::temp_dir().join(format!("odbgc-serve-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let telemetry = dir.join("net.json");
        let args = format!(
            "--policy fixed:25 --shards 2 --listen 127.0.0.1:0 \
             --addr-file {} --telemetry {}",
            addr_file.display(),
            telemetry.display()
        );
        let server = std::thread::spawn(move || run(&argv(&args)));
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        let report = odbgc_net::run_client(&odbgc_net::ClientConfig {
            addr,
            session: 0,
            ops: 200,
            batch: 8,
            window: 4,
            workload: WorkloadParams::default(),
            shutdown_after: true,
        })
        .expect("client run");
        assert_eq!(report.ops_applied, 200);
        let out = server.join().unwrap().expect("serve report");
        assert!(
            out.contains("drained after 1 client connection(s)"),
            "{out}"
        );
        assert!(out.contains("client session 0: "), "{out}");
        assert!(out.contains("telemetry written to"), "{out}");
        // Two shards, two loops: one telemetry file per shard.
        let text = std::fs::read_to_string(dir.join("net-shard0.json")).unwrap();
        assert!(
            text.contains("net_clients"),
            "telemetry carries client counters"
        );
        assert!(
            text.contains("net_loops"),
            "telemetry carries per-loop counters"
        );
        assert!(out.contains("net loop 0: "), "{out}");
        assert!(out.contains("net loop 1: "), "{out}");
        // Past its net_ counters, shard 0's file is the document an
        // in-process serve of the same session stream builds.
        let expected = &in_process_shard_documents("fixed:25", 2, 200, 42)[0];
        assert_eq!(deterministic_lines(&text), deterministic_lines(expected));
        std::fs::remove_dir_all(&dir).ok();
    }
}
