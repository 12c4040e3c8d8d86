//! `odbgc client` — seeded load driver against an `odbgc serve`
//! front-end.
//!
//! Runs the same `SessionWorkload` the in-process serve mode schedules,
//! one turn per `Ops` frame, acknowledging each applied turn. With
//! `--connections N` one process drives N sessions round-robin
//! (sessions `--session` through `--session + N - 1`, each running
//! `--ops` operations) and reports the aggregate — the cheap way to put
//! an event-loop server under high connection counts. With
//! `--shutdown true` the client requests a graceful server drain after
//! finishing its workload — the usual way a multi-client script ends a
//! serve run.

use odbgc_engine::WorkloadParams;
use odbgc_net::{run_client, run_clients, ClientConfig};

use crate::flags::{Flags, MAX_CONNECTIONS};
use crate::CliError;

/// Connects, drives the workload, and reports client-side counters.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let addr = flags.require("connect")?;
    let session: u32 = flags.get_or("session", 0)?;
    let ops: u64 = flags.get_or("ops", 2_000)?;
    let batch: u64 = flags.get_or("batch", 8)?;
    let window: u32 = flags.get_or("window", 4)?;
    let seed: u64 = flags.get_or("seed", WorkloadParams::default().seed)?;
    let connections = flags.count_or("connections", 1, MAX_CONNECTIONS)?;
    let shutdown_after: bool = flags.get_or("shutdown", false)?;
    flags.finish()?;

    if batch < 2 {
        // A turn must hold a whole create-and-link action.
        return Err(CliError(format!("--batch must be at least 2, got {batch}")));
    }
    if window == 0 {
        return Err(CliError("--window must be at least 1".into()));
    }

    let config = ClientConfig {
        addr: addr.clone(),
        session,
        ops,
        batch,
        window,
        workload: WorkloadParams { seed },
        shutdown_after,
    };

    let (header, report) = if connections == 1 {
        let report = run_client(&config).map_err(|e| CliError(format!("client: {e}")))?;
        (format!("client: session {session} against {addr}"), report)
    } else {
        let multi =
            run_clients(&config, connections).map_err(|e| CliError(format!("client: {e}")))?;
        let last_session = session.wrapping_add(connections - 1);
        (
            format!(
                "client: {connections} connection(s), sessions \
                 {session}..={last_session} against {addr}"
            ),
            multi.totals(),
        )
    };

    Ok(format!(
        "{header}\n\
         \x20 turns acked:      {}\n\
         \x20 ops applied:      {}\n\
         \x20 objects created:  {}\n\
         \x20 garbage created:  {} bytes\n\
         \x20 busy rejections:  {}\n\
         \x20 GC stall:         {:.3} ms\n\
         \x20 window granted:   {}{}",
        report.turns,
        report.ops_applied,
        report.created,
        report.garbage_created,
        report.busy,
        report.gc_stall_ns as f64 / 1e6,
        report.granted_window,
        if shutdown_after {
            "\n server drain requested"
        } else {
            ""
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(run(&argv("")).is_err(), "--connect is required");
        assert!(run(&argv("--connect 127.0.0.1:1 --window 0")).is_err());
        assert!(run(&argv("--connect 127.0.0.1:1 --connections 0")).is_err());
        assert!(run(&argv("--connect 127.0.0.1:1 --tpyo 1")).is_err());
    }

    #[test]
    fn batch_below_two_is_refused_by_name() {
        // Refused before connecting: port 1 is never reached.
        for batch in [0, 1] {
            let err = run(&argv(&format!("--connect 127.0.0.1:1 --batch {batch}"))).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--batch must be at least 2, got {batch}")
            );
        }
    }

    #[test]
    fn connection_refused_is_a_clean_error() {
        // Port 1 on loopback is never an odbgc server.
        let err = run(&argv("--connect 127.0.0.1:1 --ops 10")).unwrap_err();
        assert!(err.to_string().starts_with("client: "), "{err}");
    }
}
