//! Figure/table regeneration harness.
//!
//! One module per table or figure of the paper's evaluation, plus the
//! §2.1 strawman, ablation studies, and the §5 extension demos. Every
//! experiment is a pure function from a [`Scale`] to a printable report,
//! so one `figures` binary prints any of them by name (the
//! [`experiments::FIGURES`] table) and the test suite can smoke-run
//! everything at reduced scale.
//!
//! Run with `cargo run --release -p odbgc-bench --bin figures -- <name>...`:
//!
//! | Name        | Reproduces                                               |
//! |-------------|----------------------------------------------------------|
//! | `table1`    | Table 1 + Figure 3: database parameters & structure       |
//! | `fig2`      | Figure 2: application phases (event census)               |
//! | `fig1`      | Figure 1: fixed collection rate vs I/O and garbage        |
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
//! | `all`       | Everything above, in this (paper) order                   |
//!
//! Scale is controlled by `ODBGC_SCALE` (`full` = paper protocol with 10
//! seeds, `quick` = 3 seeds, `test` = miniature database) and the
//! worker count by `ODBGC_JOBS` (default: all available cores). The
//! `profile_replay` binary is separate: it times `Store::apply` by store
//! variant and event kind.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod experiments;
pub mod scale;

pub use scale::Scale;
