//! Prints the paper's tables and figures by name, in the order named:
//! `figures fig4 table1`, or `figures all` for every one in paper order.
//! Scale comes from `ODBGC_SCALE` (`full`, the default, `quick` or
//! `test`; any other value exits 2 before a report runs) and the worker
//! count from `ODBGC_JOBS`.

use std::io::Write;

use odbgc_bench::experiments::select;
use odbgc_bench::Scale;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let figures = select(&names).unwrap_or_else(|e| {
        eprintln!("usage: figures <name>... | all\nfigures: {e}");
        std::process::exit(2);
    });
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2);
    });
    for (_, report) in figures {
        // A closed pipe (`figures all | head`) ends the run quietly.
        if writeln!(std::io::stdout(), "{}", report(scale)).is_err() {
            return;
        }
    }
}
