//! `odbgc sweep` — requested-vs-achieved sweeps over seeds.

use odbgc_core::{EstimatorKind, PolicySpec};
use odbgc_sim::report::fmt_f;
use odbgc_sim::{
    sweep_point, ExperimentPlan, FaultKind, FaultSpec, PlanTelemetry, SimConfig, SweepPoint,
};

use crate::flags::{parse_number_list, parse_seed_range, Flags};
use crate::spec;
use crate::CliError;

/// What a sweep measures for each cell.
enum Axis {
    /// Achieved GC-I/O percentage (SAIO).
    GcIo,
    /// Achieved garbage percentage (SAGA).
    Garbage,
}

/// Runs requested-vs-achieved sweeps over seeds.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let policy = flags.require("policy")?;
    let points = parse_number_list(&flags.require("points")?)?;
    let seeds = parse_seed_range(&flags.get("seeds").unwrap_or_else(|| "1..10".into()))?;
    let conn: u32 = flags.get_or("conn", 3)?;
    let params_name = flags.get("params");
    let csv_path = flags.get("csv");
    let telemetry_path = flags.get("telemetry");
    let jobs = match flags.get("jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                return Err(CliError(format!(
                    "--jobs needs a positive integer, got {v:?}"
                )))
            }
        },
        None => None,
    };
    // Test rig: `--poison CELL:SEED` deterministically corrupts one job's
    // trace so the failure-reporting path can be exercised end to end.
    let poison = match flags.get("poison") {
        Some(v) => Some(parse_poison(&v)?),
        None => None,
    };
    flags.finish()?;

    let params = spec::build_params(params_name.as_deref(), conn, None)?;
    let config = SimConfig::default();

    // The sweep axis: `saio` sweeps requested I/O%, `saga[:estimator]`
    // sweeps requested garbage%.
    let mut spec_parts = policy.split(':');
    let head = spec_parts.next().unwrap_or_default();
    let (axis, cells): (Axis, Vec<(f64, PolicySpec)>) = match head {
        "saio" => (
            Axis::GcIo,
            points
                .iter()
                .map(|&pct| (pct, PolicySpec::saio(pct / 100.0)))
                .collect(),
        ),
        "saga" => {
            let estimator = match spec_parts.next() {
                None => EstimatorKind::Oracle,
                Some(tok) => spec::parse_estimator(tok)?,
            };
            (
                Axis::Garbage,
                points
                    .iter()
                    .map(|&pct| (pct, PolicySpec::saga(pct / 100.0, estimator)))
                    .collect(),
            )
        }
        other => {
            return Err(CliError(format!(
                "sweep supports saio or saga[:estimator], not {other:?}"
            )))
        }
    };

    // A point outside its policy's range (`saio` (0, 100], `saga`
    // [0, 100), `nan`) is a usage error caught before any trace is built:
    // each cell's spec must pass the parser a `--policy` spec does.
    for (pct, cell_spec) in &cells {
        if let Err(e) = cell_spec.to_string().parse::<PolicySpec>() {
            return Err(CliError(format!("--points {pct}: {e}")));
        }
    }

    let mut plan = ExperimentPlan::new(params, &seeds, config).cells(cells);
    if let Some((cell_index, seed)) = poison {
        plan = plan.inject_fault(FaultSpec {
            cell_index,
            seed,
            kind: FaultKind::PoisonTrace,
        });
    }
    let outcome = plan.run_with_jobs(jobs);
    if let Some(path) = &telemetry_path {
        // Written before the failure early-return below: a partially
        // failed sweep still leaves a full telemetry record (including
        // the failure list) on disk for inspection.
        let telemetry = PlanTelemetry::from_outcome(&plan, &outcome);
        std::fs::write(path, telemetry.to_json().to_string_pretty())
            .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
    }
    let results: Vec<(SweepPoint, f64)> = outcome
        .cells
        .iter()
        .map(|cell| {
            let achieved = match axis {
                Axis::GcIo => cell.outcome.gc_io_pcts(),
                Axis::Garbage => cell.outcome.garbage_pcts(),
            };
            (
                sweep_point(cell.x, &achieved),
                cell.cpu_time().as_secs_f64(),
            )
        })
        .collect();

    let mut out = format!(
        "sweep of {policy} over {} seeds (conn {conn}, {} workers)\nrequested  achieved.mean  achieved.min  achieved.max  runs  wall.s\n",
        seeds.len(),
        outcome.jobs,
    );
    let mut csv = String::from("requested,mean,min,max,runs,wall_s\n");
    for (p, wall_s) in &results {
        // Cells whose every seed failed have no statistics; fmt_f renders
        // their NaN mean/min/max as "-" instead of a misleading number.
        out.push_str(&format!(
            "{:>9.1}  {:>13}  {:>12}  {:>12}  {:>4}  {:>6.2}\n",
            p.x,
            fmt_f(p.mean, 2),
            fmt_f(p.min, 2),
            fmt_f(p.max, 2),
            p.runs,
            wall_s
        ));
        csv.push_str(&format!(
            "{},{},{},{},{},{:.3}\n",
            p.x,
            fmt_f(p.mean, 4),
            fmt_f(p.min, 4),
            fmt_f(p.max, 4),
            p.runs,
            wall_s
        ));
    }
    out.push_str(&format!(
        "{} traces built, {} cache hits; elapsed {:.2}s\n",
        outcome.cache.misses,
        outcome.cache.hits,
        outcome.elapsed.as_secs_f64(),
    ));
    if let Some(path) = csv_path {
        std::fs::write(&path, csv).map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("csv written to {path}\n"));
    }
    if let Some(path) = &telemetry_path {
        out.push_str(&format!("telemetry written to {path}\n"));
    }
    if !outcome.failures.is_empty() {
        // One line per failed job, then a nonzero exit: partial results
        // above are real, but the caller must notice the sweep was not
        // complete.
        out.push_str(&format!("{} job(s) failed:\n", outcome.failures.len()));
        for f in &outcome.failures {
            out.push_str(&format!("  failed: {f}\n"));
        }
        return Err(CliError(out));
    }
    Ok(out)
}

/// Parses `--poison CELL:SEED` (both decimal integers).
fn parse_poison(v: &str) -> Result<(usize, u64), CliError> {
    let bad = || {
        CliError(format!(
            "--poison wants CELL:SEED (two integers), got {v:?}"
        ))
    };
    let (cell, seed) = v.split_once(':').ok_or_else(bad)?;
    Ok((
        cell.trim().parse().map_err(|_| bad())?,
        seed.trim().parse().map_err(|_| bad())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::deterministic_lines;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn saio_sweep_on_tiny_runs() {
        let out = run(&argv(
            "--policy saio --points 10,20 --seeds 1..2 --params tiny --conn 2",
        ))
        .unwrap();
        assert!(out.contains("requested"));
        assert!(out.contains("traces built"));
        assert_eq!(out.lines().count(), 5);
    }

    #[test]
    fn saga_sweep_with_estimator_runs() {
        let out = run(&argv(
            "--policy saga:fgs-hb --points 10 --seeds 1 --params tiny --conn 2",
        ))
        .unwrap();
        assert!(out.contains("10.0"));
    }

    #[test]
    fn jobs_flag_does_not_change_results() {
        let serial = run(&argv(
            "--policy saio --points 10,20 --seeds 1..3 --params tiny --conn 2 --jobs 1",
        ))
        .unwrap();
        let parallel = run(&argv(
            "--policy saio --points 10,20 --seeds 1..3 --params tiny --conn 2 --jobs 8",
        ))
        .unwrap();
        // Wall-time columns differ run to run; the data rows must not.
        let data = |s: &str| -> Vec<String> {
            s.lines()
                .skip(2)
                .take(2)
                .map(|l| l.split_whitespace().take(4).collect::<Vec<_>>().join(" "))
                .collect()
        };
        assert_eq!(data(&serial), data(&parallel));
    }

    /// The in-process twin of `--policy saio --points 10,20 --seeds 1..2
    /// --params tiny --conn 2`, optionally poisoning one job.
    fn tiny_saio_plan(poison: Option<(usize, u64)>) -> ExperimentPlan {
        let params = spec::build_params(Some("tiny"), 2, None).unwrap();
        let mut plan = ExperimentPlan::new(params, &[1, 2], SimConfig::default()).cells([
            (10.0, PolicySpec::saio(0.10)),
            (20.0, PolicySpec::saio(0.20)),
        ]);
        if let Some((cell_index, seed)) = poison {
            plan = plan.inject_fault(FaultSpec {
                cell_index,
                seed,
                kind: FaultKind::PoisonTrace,
            });
        }
        plan
    }

    fn in_process_document(plan: &ExperimentPlan) -> String {
        PlanTelemetry::from_outcome(plan, &plan.run())
            .to_json()
            .to_string_pretty()
    }

    #[test]
    fn telemetry_flag_writes_plan_document() {
        let dir =
            std::env::temp_dir().join(format!("odbgc-cli-test-sweep-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        let out = run(&argv(&format!(
            "--policy saio --points 10,20 --seeds 1..2 --params tiny --conn 2 --telemetry {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("telemetry written to"));
        // Apart from its wall-clock entries, the file is the document the
        // same plan builds in process.
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = in_process_document(&tiny_saio_plan(None));
        assert_eq!(deterministic_lines(&text), deterministic_lines(&expected));
        assert!(text.contains("\n  \"failure_count\": 0,\n"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_survives_a_failed_sweep() {
        let dir = std::env::temp_dir().join(format!(
            "odbgc-cli-test-sweep-tel-fail-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        // The sweep errors (poisoned job ⇒ nonzero exit) but the
        // telemetry file must still be written, recording the failure.
        let err = run(&argv(&format!(
            "--policy saio --points 10,20 --seeds 1..2 --params tiny --conn 2 --poison 0:1 --telemetry {}",
            path.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("1 job(s) failed"));
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = in_process_document(&tiny_saio_plan(Some((0, 1))));
        assert_eq!(deterministic_lines(&text), deterministic_lines(&expected));
        assert!(text.contains("\n  \"failure_count\": 1,\n"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_points_are_refused_before_any_work() {
        for (args, value) in [
            ("--policy saio --points 10,150", "--points 150:"),
            ("--policy saio --points 0", "--points 0:"),
            ("--policy saio --points nan", "--points NaN:"),
            ("--policy saga --points 100", "--points 100:"),
            ("--policy saga:fgs-hb --points -5", "--points -5:"),
        ] {
            let err = run(&argv(&format!("{args} --seeds 1..2 --params tiny")))
                .unwrap_err()
                .to_string();
            assert!(err.starts_with(value), "{args}: {err}");
            assert!(!err.contains("job(s) failed"), "{args}: {err}");
        }
    }

    #[test]
    fn bad_jobs_flag_errors() {
        assert!(run(&argv(
            "--policy saio --points 10 --seeds 1 --params tiny --jobs 0"
        ))
        .is_err());
        assert!(run(&argv(
            "--policy saio --points 10 --seeds 1 --params tiny --jobs x"
        ))
        .is_err());
    }

    #[test]
    fn sweep_rejects_fixed_policies() {
        assert!(run(&argv("--policy fixed:200 --points 1 --seeds 1")).is_err());
    }

    #[test]
    fn poisoned_job_reports_failure_and_errors() {
        let err = run(&argv(
            "--policy saio --points 10,20 --seeds 1..3 --params tiny --conn 2 --poison 1:2",
        ))
        .unwrap_err();
        let text = err.to_string();
        // The healthy cells still render…
        assert!(
            text.contains("traces built"),
            "partial results kept: {text}"
        );
        // …and the failed job is named precisely.
        assert!(text.contains("1 job(s) failed"), "missing summary: {text}");
        assert!(
            text.contains("failed: cell 1 (saio:20%) seed 2"),
            "missing failure line: {text}"
        );
    }

    #[test]
    fn bad_poison_flag_errors() {
        assert!(run(&argv("--policy saio --points 10 --seeds 1 --poison nope")).is_err());
        assert!(run(&argv("--policy saio --points 10 --seeds 1 --poison 1")).is_err());
    }
}
