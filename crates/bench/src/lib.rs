//! Figure/table regeneration harness.
//!
//! One module (and one binary) per table or figure of the paper's
//! evaluation, plus the §2.1 strawman, ablation studies, and the §5
//! extension demos. Every experiment is a pure function from a
//! [`Scale`] to a printable report, so the binaries stay one-liners and
//! the test suite can smoke-run everything at reduced scale.
//!
//! Binaries (run with `cargo run --release -p odbgc-bench --bin <name>`):
//!
//! | Binary      | Reproduces                                               |
//! |-------------|----------------------------------------------------------|
//! | `fig1`      | Figure 1: fixed collection rate vs I/O and garbage        |
//! | `fig2`      | Figure 2: application phases (event census)               |
//! | `table1`    | Table 1 + Figure 3: database parameters & structure       |
//! | `strawman`  | §2.1: the connectivity heuristic's failure                |
//! | `motivation`| §2: overwrite vs allocation triggering                    |
//! | `fig4`      | Figure 4: SAIO accuracy vs requested I/O percentage       |
//! | `fig5`      | Figure 5: SAGA accuracy per estimator                     |
//! | `fig6`      | Figure 6: time-varying garbage estimation (CGS/CB, FGS/HB)|
//! | `fig7a`     | Figure 7a: FGS/HB history-parameter study                 |
//! | `fig7b`     | Figure 7b: collection rate / yield / garbage over time    |
//! | `fig8`      | Figure 8: sensitivity to database connectivity            |
//! | `ablation`  | Partition selection, overwrite semantics, buffer size     |
//! | `mixed`     | §1: two interleaved applications, one adaptive policy     |
//! | `extensions`| §5 future work: opportunistic + coupled policies          |
//! | `all`       | Everything above, in order                                |
//!
//! Scale is controlled by `ODBGC_SCALE` (`full` = paper protocol with 10
//! seeds, `quick` = 3 seeds, `test` = miniature database).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod experiments;
pub mod scale;

pub use scale::Scale;

/// Parses the shared binary flags and returns the scale.
///
/// Supported: `--jobs N` / `--jobs=N` — worker threads for experiment
/// plans, exported as `ODBGC_JOBS` so every plan in the process sees it
/// (default: all available cores). Scale still comes from `ODBGC_SCALE`.
/// Unknown flags abort with a usage message.
pub fn scale_from_args() -> Scale {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let jobs = if arg == "--jobs" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            Some(v.to_string())
        } else {
            eprintln!(
                "usage: {} [--jobs N]",
                std::env::args().next().unwrap_or_default()
            );
            std::process::exit(2);
        };
        match jobs.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n >= 1 => std::env::set_var("ODBGC_JOBS", n.to_string()),
            _ => {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        }
    }
    Scale::from_env()
}
