//! Flags, subcommands and input formats the CLI once accepted and no
//! longer does are refused by name, before the command does any work.

use std::process::Command;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

/// Runs the `odbgc` binary, requires exit status 2, and returns stderr.
fn refused(args: &[String]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_odbgc"))
        .args(args)
        .output()
        .expect("run odbgc");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn gc_workers_flag_is_unknown_to_every_command() {
    // Neither pool size is an option of the product: the collector pool
    // never changed results and one worker was always the fastest, and a
    // server runs one event loop per shard.
    for (args, flag) in [
        (
            "run --policy saio:10% --params tiny --gc-workers 2",
            "--gc-workers",
        ),
        (
            "sweep --policy saio --points 5,10 --seeds 1..2 --gc-workers 2",
            "--gc-workers",
        ),
        ("serve --policy saio:10% --gc-workers 2", "--gc-workers"),
        (
            "serve-bench --policy fixed:25 --sessions 2 --shards 2 --ops 10 --gc-workers 2",
            "--gc-workers",
        ),
        ("serve --policy saio:10% --net-threads 2", "--net-threads"),
    ] {
        let err = odbgc_cli::dispatch(&argv(args)).unwrap_err();
        assert!(
            err.to_string().contains(&format!("unknown flag {flag}")),
            "{args}: {err}"
        );
    }
}

#[test]
fn trace_format_and_corpus_options_are_refused_by_name() {
    // One trace file format and no on-disk trace cache: nothing to pick
    // a format for, nothing to convert between, no corpus to name.
    let dir = std::env::temp_dir().join(format!("odbgc-removed-opts-{}", std::process::id()));
    let out = dir.join("t.txt").display().to_string();
    for (args, name) in [
        (
            "sweep --policy saio --points 5,10 --seeds 1..2 --params tiny --corpus d".to_owned(),
            "unknown flag --corpus",
        ),
        (
            format!("generate --out {out} --params tiny --format text"),
            "unknown flag --format",
        ),
        (
            format!("trace convert --in t.otb --out {out}"),
            "unknown trace subcommand \"convert\"",
        ),
    ] {
        let stderr = refused(&argv(&args));
        assert!(stderr.contains(name), "{args}: {stderr}");
    }
    assert!(!dir.exists(), "a refused command wrote nothing");
}

#[test]
fn sweep_progress_is_refused_by_name() {
    // A sweep of the paper's size takes seconds; it prints its table
    // when done and nothing along the way.
    let stderr = refused(&argv(
        "sweep --policy saio --points 5,10 --seeds 1..2 --params tiny --progress 2",
    ));
    assert!(stderr.contains("unknown flag --progress"), "{stderr}");
}

#[test]
fn sweep_jobs_and_poison_are_refused_by_name() {
    // ODBGC_JOBS is the one worker-count control; faults reach a plan
    // only through `ExperimentPlan::inject_fault`.
    for (flag, value) in [("jobs", "2"), ("poison", "0:1")] {
        let stderr = refused(&argv(&format!(
            "sweep --policy saio --points 5,10 --seeds 1..2 --params tiny --{flag} {value}"
        )));
        assert!(
            stderr.contains(&format!("unknown flag --{flag}")),
            "{stderr}"
        );
    }
}

#[test]
fn info_and_trace_verify_are_refused_by_name() {
    // `trace stat` is the one census: it prints what `info` printed and
    // verifies every block as `trace verify` did. Telemetry is
    // export-only: nothing in odbgc reads a document back.
    for (args, name) in [
        ("info --trace t.otb", "unknown command \"info\""),
        (
            "trace verify --trace t.otb",
            "unknown trace subcommand \"verify\"",
        ),
        (
            "telemetry verify --file x.json",
            "unknown command \"telemetry\"",
        ),
    ] {
        let stderr = refused(&argv(args));
        assert!(stderr.contains(name), "{args}: {stderr}");
    }
}

#[test]
fn a_text_trace_is_not_a_tracefile_to_any_reader() {
    let dir = std::env::temp_dir().join(format!("odbgc-text-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.txt");
    let (trace, _) = odbgc_oo7::Oo7App::standard(odbgc_oo7::Oo7Params::tiny(), 1).generate();
    std::fs::write(&path, odbgc_trace::codec::encode(&trace)).unwrap();
    let path = path.display().to_string();
    for args in [
        format!("run --policy saio:10% --store tiny --trace {path}"),
        format!("trace stat --trace {path}"),
        format!("trace cat --trace {path}"),
    ] {
        let stderr = refused(&argv(&args));
        assert!(
            stderr.contains(&format!("{path}: not a tracefile: bad magic")),
            "{args}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
