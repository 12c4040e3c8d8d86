//! The CLI subcommands.

pub mod client;
pub mod generate;
pub mod run;
pub mod serve;
pub mod serve_bench;
pub mod sweep;
pub mod telemetry;
pub mod trace;

use odbgc_tracefile::{DecodeError, FileBatches};

use crate::CliError;

/// Opens a tracefile for block-at-a-time reading out of one in-memory
/// image of the file. Anything that is not an `OTBF` tracefile — a text
/// trace included — is refused with the tracefile's typed diagnosis.
pub fn open_tracefile(path: &str) -> Result<FileBatches, CliError> {
    odbgc_tracefile::open_batches(std::path::Path::new(path)).map_err(|e| match e {
        DecodeError::Io(e) => CliError(format!("cannot read {path:?}: {e}")),
        e => CliError(format!("{path}: {e}")),
    })
}
