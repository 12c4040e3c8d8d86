//! `odbgc` binary entry point.

#![forbid(unsafe_code)]

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match odbgc_cli::dispatch(&args) {
        Ok(out) => {
            // Tolerate a closed pipe (e.g. `odbgc run … | head`).
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            if writeln!(lock, "{out}").is_err() {
                std::process::exit(0);
            }
        }
        Err(e) => {
            eprintln!("odbgc: {e}");
            std::process::exit(2);
        }
    }
}
