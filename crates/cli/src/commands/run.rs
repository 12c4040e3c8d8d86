//! `odbgc run` — simulate one policy over a trace.

use odbgc_engine::{DecisionLog, RunResult};
use odbgc_oo7::Oo7App;
use odbgc_sim::{run_document, BatchSource, ReplayOptions, Simulator, TraceBatches};

use crate::commands::open_tracefile;
use crate::flags::Flags;
use crate::spec;
use crate::CliError;

/// Simulates one policy over a trace and reports the outcome.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let policy_spec = flags.require("policy")?;
    let trace_path = flags.get("trace");
    // A tracefile fixes its workload, so the flags that shape a generated
    // one would be silently ignored. `--seed` also seeds the partition
    // selector, but only the random one draws from it.
    if trace_path.is_some() {
        for flag in ["params", "conn", "style"] {
            if flags.get(flag).is_some() {
                return Err(CliError(format!(
                    "--{flag} does not apply to --trace: a tracefile fixes its workload"
                )));
            }
        }
        if flags.get("seed").is_some() && flags.get("selector").as_deref() != Some("random") {
            return Err(CliError(
                "--seed does not apply to --trace without --selector random: \
                 a tracefile fixes its workload"
                    .into(),
            ));
        }
    }
    let conn: u32 = flags.get_or("conn", 3)?;
    let seed: u64 = flags.get_or("seed", 1)?;
    let params_name = flags.get("params");
    let style = flags.get("style");
    let selector = flags.get("selector");
    let series_path = flags.get("series");
    let telemetry_path = flags.get("telemetry");
    let preamble: Option<u64> = flags.get_parsed("preamble")?;
    let store_geometry = flags.get("store");
    flags.finish()?;

    let store = store_geometry
        .map(|name| spec::store_config(Some(&name), "paper"))
        .transpose()?;
    let selector = selector.as_deref().map(spec::parse_selector).transpose()?;
    let policy_spec = spec::parse_policy(&policy_spec)?;
    // The scale brings its store geometry, preamble and SAGA Δt_max,
    // which `--store`, `--preamble` and `:dtmax=` override. A tracefile,
    // which takes no `--params`, runs on the paper's: Small′'s.
    let db = spec::db_scale(params_name.as_deref())?;
    let mut config = db.engine_config();
    config.store = store.unwrap_or(config.store);
    config.preamble_collections = preamble.unwrap_or(config.preamble_collections);
    if let Some(selector) = selector {
        config.selector = selector;
        config.selector_seed = seed;
    }
    let mut policy = db.fill_dt_max(policy_spec).build();
    // A tracefile is replayed off its file image, one decoded block at a
    // time; a generated workload is replayed as one in-memory batch.
    // Where a source cuts its batches never changes the RunResult.
    let sim = Simulator::new(config);
    let mut log = telemetry_path.as_ref().map(|_| DecisionLog::default());
    let result = match &trace_path {
        Some(path) => replay(&sim, open_tracefile(path)?, policy.as_mut(), log.as_mut())?,
        None => {
            let params = spec::build_params(db, conn, style.as_deref())?;
            let trace = Oo7App::standard(params, seed).generate().0;
            replay(
                &sim,
                TraceBatches::new(&trace),
                policy.as_mut(),
                log.as_mut(),
            )?
        }
    };
    if let (Some(path), Some(log)) = (&telemetry_path, &log) {
        let json = run_document(&policy.name(), log).to_string_pretty();
        std::fs::write(path, json).map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
    }

    if let Some(path) = series_path {
        let mut csv = String::from(
            "collection,clock,interval_overwrites,app_io,gc_io,bytes_reclaimed,partition,db_size,actual_garbage\n",
        );
        for c in &result.collections {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                c.index,
                c.clock,
                c.interval_overwrites,
                c.app_io_since_prev,
                c.gc_io,
                c.bytes_reclaimed,
                c.partition,
                c.db_size,
                c.actual_garbage,
            ));
        }
        std::fs::write(&path, csv).map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
    }

    let fmt_opt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.2}%"),
        None => "n/a (run shorter than preamble)".to_owned(),
    };
    let mut out = format!(
        "policy:            {}\n\
         events replayed:   {}\n\
         collections:       {}\n\
         app I/O:           {} pages\n\
         GC I/O:            {} pages ({:.2}% of total)\n\
         achieved GC-I/O:   {} (measured window)\n\
         mean garbage:      {} (measured window)\n\
         garbage generated: {:.1} KiB\n\
         garbage collected: {:.1} KiB\n\
         garbage remaining: {:.1} KiB\n\
         final DB size:     {:.2} MB in {} partitions",
        policy.name(),
        result.events_replayed,
        result.collection_count(),
        result.app_io_total,
        result.gc_io_total,
        result.gc_io_pct_whole_run(),
        fmt_opt(result.gc_io_pct),
        fmt_opt(result.garbage_pct_mean),
        result.total_garbage_generated as f64 / 1024.0,
        result.total_garbage_collected as f64 / 1024.0,
        result.final_garbage_bytes as f64 / 1024.0,
        result.final_db_size as f64 / 1_048_576.0,
        result.partition_count,
    );
    if let Some(path) = &telemetry_path {
        out.push_str(&format!("\ntelemetry written to {path}"));
    }
    Ok(out)
}

/// Replays `source`, recording into `log` when there is one (a pure
/// observer: the RunResult is the same either way).
fn replay<B: BatchSource>(
    sim: &Simulator,
    source: B,
    policy: &mut dyn odbgc_core::RatePolicy,
    log: Option<&mut DecisionLog>,
) -> Result<RunResult, CliError>
where
    B::Error: std::fmt::Display,
{
    let options = match log {
        Some(log) => ReplayOptions::new().log(log),
        None => ReplayOptions::new(),
    };
    sim.replay_batched(source, policy, options)
        .map_err(|e| CliError(format!("simulation failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_sim::DbScale;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn runs_generated_workload_inline() {
        let out = run(&argv(
            "--policy saio:10% --params tiny --conn 2 --preamble 2",
        ))
        .unwrap();
        assert!(out.contains("saio(10.0%"));
        assert!(out.contains("collections:"));
    }

    #[test]
    fn writes_series_csv() {
        let dir = std::env::temp_dir().join("odbgc-cli-test-run");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("series.csv");
        run(&argv(&format!(
            "--policy fixed:25 --params tiny --series {}",
            csv.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with("collection,clock"));
        assert!(text.lines().count() > 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_flag_writes_verifiable_json() {
        let dir =
            std::env::temp_dir().join(format!("odbgc-cli-test-run-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        let out = run(&argv(&format!(
            "--policy saio:10% --params tiny --store tiny --preamble 2 --telemetry {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("telemetry written to"));
        // The file is, byte for byte, the document an in-process replay
        // of the same seed builds.
        let mut policy = spec::parse_policy("saio:10%").unwrap().build();
        let mut log = DecisionLog::default();
        let trace = Oo7App::standard(DbScale::Tiny.params(3).unwrap(), 1)
            .generate()
            .0;
        Simulator::new(DbScale::Tiny.engine_config())
            .replay(&trace, policy.as_mut(), ReplayOptions::new().log(&mut log))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, run_document(&policy.name(), &log).to_string_pretty());
        // The decision log length matches the reported collection count.
        let colls: u64 = out
            .lines()
            .find(|l| l.starts_with("collections:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(log.decisions.len() as u64, colls);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_run_result_matches_plain_run() {
        let dir =
            std::env::temp_dir().join(format!("odbgc-cli-test-run-tel-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        let plain = run(&argv(
            "--policy saio:10% --params tiny --store tiny --preamble 2",
        ))
        .unwrap();
        let instrumented = run(&argv(&format!(
            "--policy saio:10% --params tiny --store tiny --preamble 2 --telemetry {}",
            path.display()
        )))
        .unwrap();
        // Identical report modulo the trailing "telemetry written" line.
        let stripped = instrumented
            .lines()
            .filter(|l| !l.starts_with("telemetry written"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(plain, stripped);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_flags_are_refused_with_a_tracefile() {
        let dir = std::env::temp_dir().join(format!(
            "odbgc-cli-test-run-file-flags-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let otb = dir.join("t.otb");
        crate::commands::generate::run(&argv(&format!(
            "--out {} --params tiny --conn 2",
            otb.display()
        )))
        .unwrap();
        let base = format!("--policy saio:10% --store tiny --trace {}", otb.display());
        for (extra, flag) in [
            ("--params bogus", "params"),
            ("--params tiny", "params"),
            ("--conn 999", "conn"),
            ("--style sideways", "style"),
        ] {
            let err = run(&argv(&format!("{base} {extra}"))).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--{flag} does not apply to --trace: a tracefile fixes its workload"),
            );
        }
        // `--seed` still seeds the partition selector.
        run(&argv(&format!("{base} --seed 3 --selector random"))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seed_is_refused_with_a_tracefile_unless_the_selector_draws() {
        let dir = std::env::temp_dir().join(format!(
            "odbgc-cli-test-run-file-seed-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let otb = dir.join("t.otb");
        crate::commands::generate::run(&argv(&format!(
            "--out {} --params tiny --conn 2",
            otb.display()
        )))
        .unwrap();
        let base = format!(
            "--policy saio:10% --store tiny --preamble 2 --trace {}",
            otb.display()
        );
        // Only the random selector reads the seed; under any other a
        // different `--seed` would print the same report.
        for extra in ["", "--selector updated-pointer", "--selector round-robin"] {
            let err = run(&argv(&format!("{base} --seed 5 {extra}"))).unwrap_err();
            assert_eq!(
                err.to_string(),
                "--seed does not apply to --trace without --selector random: \
                 a tracefile fixes its workload",
                "{extra}"
            );
        }
        // The random selector draws from it: another seed, another run.
        let seeded =
            |seed: u64| run(&argv(&format!("{base} --seed {seed} --selector random"))).unwrap();
        assert_ne!(seeded(5), seeded(99));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracefile_report_matches_the_same_seed_generated() {
        // A tracefile replays off its file image block by block, the
        // same seed generated in process as one in-memory batch: same
        // report.
        let dir =
            std::env::temp_dir().join(format!("odbgc-cli-test-run-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let otb = dir.join("t.otb");
        crate::commands::generate::run(&argv(&format!(
            "--out {} --params tiny --conn 2 --seed 5",
            otb.display()
        )))
        .unwrap();
        let common = "--policy saio:10% --store tiny --preamble 2";
        let from_file = run(&argv(&format!("{common} --trace {}", otb.display()))).unwrap();
        let generated = run(&argv(&format!("{common} --params tiny --conn 2 --seed 5"))).unwrap();
        assert_eq!(from_file, generated, "same trace, same report");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_without_trace_errors() {
        // The source is chosen from the file, never from a flag: with
        // or without `--trace`, `--mmap` is not an option of `run`.
        for args in [
            "--policy saio:10% --params tiny --mmap true",
            "--policy saio:10% --trace /nonexistent/t.otb --mmap true",
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(err.to_string().contains("unknown flag --mmap"), "{err}");
        }
    }

    #[test]
    fn selector_flag_is_honored() {
        let out = run(&argv(
            "--policy fixed:25 --params tiny --selector random --seed 3",
        ))
        .unwrap();
        assert!(out.contains("collections:"));
    }

    #[test]
    fn bad_policy_spec_errors() {
        assert!(run(&argv("--policy warp:9 --params tiny")).is_err());
    }

    #[test]
    fn non_finite_stretch_is_refused_by_token() {
        for tok in ["nan", "inf", "1e999"] {
            let err = crate::dispatch(&argv(&format!(
                "run --policy coupled:10%:floor=5%:stretch={tok} --params tiny"
            )))
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("stretch {tok:?} must be a finite number > 1")
            );
        }
    }

    fn collections(report: &str) -> u64 {
        report
            .lines()
            .find(|l| l.starts_with("collections:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap()
    }

    #[test]
    fn params_tiny_brings_its_store_and_preamble() {
        // On the paper's 8 KiB pages the tiny database fits in one page
        // and never collects; its scale brings the tiny store and a
        // preamble of 2, as `--store tiny --preamble 2` would.
        let out = run(&argv("--policy saio:10% --params tiny --conn 2")).unwrap();
        let overridden = run(&argv(
            "--policy saio:10% --params tiny --conn 2 --store tiny --preamble 2",
        ))
        .unwrap();
        assert_eq!(out, overridden);
        assert!(collections(&out) > 0, "{out}");
        assert!(!out.contains("n/a"), "{out}");
    }

    #[test]
    fn params_tiny_brings_saga_dt_max() {
        // A SAGA spec without `:dtmax=`, bare or wrapped, runs at the tiny
        // scale's Δt_max; the paper's 1000 would collect about once.
        let dt_max = odbgc_core::SagaPolicy::TINY_DT_MAX;
        for (spec, explicit) in [
            ("saga:10%:fgs-hb", format!("saga:10%:fgs-hb:dtmax={dt_max}")),
            (
                "quiescent:idle=50:saga:10%:fgs-hb",
                format!("quiescent:idle=50:saga:10%:fgs-hb:dtmax={dt_max}"),
            ),
        ] {
            let out = run(&argv(&format!("--policy {spec} --params tiny --conn 3"))).unwrap();
            let overridden = run(&argv(&format!(
                "--policy {explicit} --params tiny --conn 3 --store tiny --preamble 2"
            )))
            .unwrap();
            assert_eq!(out, overridden, "{spec}");
            assert!(collections(&out) > 2, "{spec}: {out}");
        }
    }

    #[test]
    fn paper_settings_stay_reachable_on_tiny() {
        // An explicit `:dtmax=` and `--store`/`--preamble` override the
        // scale: the tiny trace on the paper's settings, as a tracefile
        // of it runs.
        let dir = std::env::temp_dir().join(format!(
            "odbgc-cli-test-run-paper-tiny-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let otb = dir.join("t.otb");
        crate::commands::generate::run(&argv(&format!(
            "--out {} --params tiny --conn 3",
            otb.display()
        )))
        .unwrap();
        let from_file = run(&argv(&format!(
            "--policy saga:10%:fgs-hb --trace {}",
            otb.display()
        )))
        .unwrap();
        let overridden = run(&argv(
            "--policy saga:10%:fgs-hb:dtmax=1000 --params tiny --conn 3 --store paper --preamble 10",
        ))
        .unwrap();
        assert_eq!(from_file, overridden);
        assert_ne!(
            overridden,
            run(&argv("--policy saga:10%:fgs-hb --params tiny --conn 3")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_conn_is_refused() {
        for (args, message) in [
            (
                "--conn 20",
                "--conn 20: small-prime connectivity must be in 1..=19",
            ),
            (
                "--params small --conn 0",
                "--conn 0: small connectivity must be in 1..=19",
            ),
        ] {
            let err = run(&argv(&format!("--policy saio:10% {args}"))).unwrap_err();
            assert_eq!(err.to_string(), message, "{args}");
        }
    }

    #[test]
    fn unknown_store_geometry_errors() {
        assert!(run(&argv("--policy saio:10% --store huge")).is_err());
    }
}
