//! Flags the CLI once accepted and no longer does are refused by name,
//! before the command does any work.

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
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
