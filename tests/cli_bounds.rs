//! Counts that size threads, sockets or memory are bounded: a value
//! over its bound, or a zero that would be silently raised, exits 2
//! naming the flag before anything is allocated, bound or spawned.
//!
//! Only refused values are run here; no test starts a server or client
//! with a large count to see what happens.

use std::process::Command;

use odbgc_cli::flags::{MAX_CONNECTIONS, MAX_SESSIONS, MAX_SHARDS};

/// Runs the `odbgc` binary, requires exit status 2, and returns stderr.
fn refused(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_odbgc"))
        .args(args.split_whitespace())
        .output()
        .expect("run odbgc");
    assert_eq!(out.status.code(), Some(2), "{args}");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn counts_over_their_bound_exit_2_naming_the_flag() {
    for (args, expected) in [
        (
            format!("serve --policy saio:10% --shards {}", MAX_SHARDS + 1),
            format!("--shards must be in 1..={MAX_SHARDS}"),
        ),
        (
            format!(
                "serve-bench --policy saio:10% --sessions {}",
                MAX_SESSIONS + 1
            ),
            format!("--sessions must be in 1..={MAX_SESSIONS}"),
        ),
        (
            // Port 1 on loopback is never reached: the count is refused first.
            format!(
                "client --connect 127.0.0.1:1 --connections {}",
                MAX_CONNECTIONS + 1
            ),
            format!("--connections must be in 1..={MAX_CONNECTIONS}"),
        ),
    ] {
        let err = refused(&args);
        assert!(err.starts_with("odbgc: "), "{args}: {err}");
        assert!(err.contains(&expected), "{args}: {err}");
    }
}

#[test]
fn zero_idle_timeout_exits_2_naming_the_flag() {
    let err = refused("serve --policy saio:10% --idle-timeout-ms 0");
    assert!(
        err.contains("--idle-timeout-ms must be at least 1"),
        "{err}"
    );
}
