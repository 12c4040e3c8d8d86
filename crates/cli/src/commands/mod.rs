//! The CLI subcommands.

pub mod client;
pub mod generate;
pub mod info;
pub mod run;
pub mod serve;
pub mod serve_bench;
pub mod sweep;
pub mod telemetry;
pub mod trace;

use odbgc_trace::Trace;
use odbgc_tracefile::{DecodeError, FileBatches};

use crate::CliError;

/// On-disk trace encodings the CLI can read and write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The line-oriented `odbgc-trace v1` text codec.
    Text,
    /// The `OTBF` binary tracefile format (`.otb`).
    Binary,
}

impl TraceFormat {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<TraceFormat, CliError> {
        match s {
            "text" => Ok(TraceFormat::Text),
            "binary" => Ok(TraceFormat::Binary),
            other => Err(CliError(format!(
                "--format wants text or binary, got {other:?}"
            ))),
        }
    }

    /// The format implied by a file name: `.otb` means binary, anything
    /// else text.
    pub fn infer(path: &str) -> TraceFormat {
        if std::path::Path::new(path)
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("otb"))
        {
            TraceFormat::Binary
        } else {
            TraceFormat::Text
        }
    }
}

/// Sniffs a trace file's format from its leading bytes: true when it
/// opens with the `OTBF` magic (a binary tracefile), false for anything
/// else (parsed as the text codec). The extension is irrelevant on read.
pub fn is_binary_file(path: &str) -> Result<bool, CliError> {
    use std::io::Read as _;
    let mut prefix = [0u8; 4];
    std::fs::File::open(path)
        .and_then(|mut f| f.read(&mut prefix))
        .map(|n| odbgc_tracefile::is_binary(&prefix[..n]))
        .map_err(|e| CliError(format!("cannot read {path:?}: {e}")))
}

/// Opens a binary tracefile for block-at-a-time reading out of one
/// in-memory image of the file.
pub fn open_tracefile(path: &str) -> Result<FileBatches, CliError> {
    odbgc_tracefile::open_batches(std::path::Path::new(path)).map_err(|e| match e {
        DecodeError::Io(e) => CliError(format!("cannot read {path:?}: {e}")),
        e => CliError(format!("{path}: {e}")),
    })
}

/// Loads a text-codec trace from disk.
pub fn load_text_trace(path: &str) -> Result<Trace, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError(format!("cannot read {path:?}: {e}")))?;
    let text = String::from_utf8(bytes)
        .map_err(|_| CliError(format!("{path}: neither a binary tracefile nor UTF-8 text")))?;
    odbgc_trace::codec::decode(&text).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Loads a whole trace from disk in either format (see
/// [`is_binary_file`]).
pub fn load_trace(path: &str) -> Result<Trace, CliError> {
    if is_binary_file(path)? {
        return open_tracefile(path)?
            .read_to_trace()
            .map_err(|e| CliError(format!("{path}: {e}")));
    }
    load_text_trace(path)
}

/// Serializes a trace in the given format and writes it to `path`,
/// returning the on-disk size in bytes.
pub fn write_trace_file(path: &str, trace: &Trace, format: TraceFormat) -> Result<u64, CliError> {
    let bytes = match format {
        TraceFormat::Text => odbgc_trace::codec::encode(trace).into_bytes(),
        TraceFormat::Binary => odbgc_tracefile::encode(trace),
    };
    std::fs::write(path, &bytes).map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
    Ok(bytes.len() as u64)
}
