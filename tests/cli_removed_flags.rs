//! Flags the CLI once accepted and no longer does are refused by name,
//! before the command does any work.

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

#[test]
fn gc_workers_flag_is_unknown_to_every_command() {
    // The collector pool size is not an option of the product: results
    // never depended on it and one worker was always the fastest.
    for args in [
        "run --policy saio:10% --params tiny --gc-workers 2",
        "sweep --policy saio --points 5,10 --seeds 1..2 --gc-workers 2",
        "serve --policy saio:10% --gc-workers 2",
        "serve-bench --policy fixed:25 --sessions 2 --shards 2 --ops 10 --gc-workers 2",
    ] {
        let err = odbgc_cli::dispatch(&argv(args)).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --gc-workers"),
            "{args}: {err}"
        );
    }
}
