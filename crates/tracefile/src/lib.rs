//! The one on-disk trace format: the `OTBF` binary tracefile, its one
//! writer ([`encode`]) and its one batched block-at-a-time reader
//! ([`BatchReader`]).
//!
//! A trace reaches a replay one of two ways — generated in process by
//! `odbgc-oo7`, or read from a tracefile through this crate. There is
//! no other file format and no parser for the text rendering in
//! `odbgc_trace::codec`, which is output only. A tracefile is a
//! versioned binary container with three properties:
//!
//! * **Compactness.** Events are varint/delta-encoded against the
//!   previously seen object id, so the dense, locality-heavy id streams
//!   produced by OO7 generation shrink to a fraction of their text size.
//! * **Block-at-a-time.** [`encode`] seals an event block every ~32 KiB
//!   of encoded events, and [`BatchReader`] decodes a file image one
//!   block at a time into a reused arena, so a replay never holds a
//!   whole decoded trace — the reader's heap use is the encoded file
//!   image plus one decoded block (~32 KiB of payload), not O(decoded
//!   trace). [`decode`], which builds a whole [`Trace`], is only a loop
//!   over the reader's batches.
//! * **Verifiability.** Every block is length-prefixed and CRC32-
//!   checksummed; truncation, bit flips, foreign files (a text trace
//!   included), and future-version files are all detected and reported
//!   as distinct typed [`DecodeError`]s, never panics.
//!
//! ## Wire format (version 1)
//!
//! ```text
//! file    := magic version flags block*
//! magic   := "OTBF"                     (4 bytes)
//! version := u16 LE                     (currently 1)
//! flags   := u16 LE                     (reserved, 0)
//! block   := kind:u8 len:u32-LE payload[len] crc:u32-LE
//! ```
//!
//! The CRC is IEEE CRC32 over the payload bytes. Block kinds: `1` — the
//! phase table (exactly one, always first: varint count, then
//! varint-length-prefixed UTF-8 names); `2` — an event block (varint
//! event count, then events); `3` — the end block (varint total event
//! count, exactly one, always last). A file whose byte stream ends
//! before the end block is *truncated*, even if it ends on a block
//! boundary.
//!
//! Within an event block, object ids are encoded as zigzag varints of
//! the wrapping difference from the previously encoded id; the delta
//! state resets at each block boundary so blocks decode independently.
//! See [`writer`] for the per-event layouts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod crc32;
pub mod error;
pub mod varint;
pub mod writer;

pub use batch::BatchReader;
pub use error::DecodeError;
pub use writer::encode;

use std::path::Path;

use odbgc_trace::Trace;

/// The four magic bytes opening every tracefile.
pub const MAGIC: [u8; 4] = *b"OTBF";

/// The current (and only) format version this crate writes.
pub const FORMAT_VERSION: u16 = 1;

/// Block kind: the phase-name table (exactly one, first).
pub(crate) const BLOCK_PHASES: u8 = 1;
/// Block kind: a run of events.
pub(crate) const BLOCK_EVENTS: u8 = 2;
/// Block kind: the end marker carrying the total event count.
pub(crate) const BLOCK_END: u8 = 3;

/// Target payload size at which [`encode`] seals an event block.
pub(crate) const BLOCK_TARGET_BYTES: usize = 32 * 1024;

/// Upper bound on a declared block length; a corrupted length field must
/// not provoke an absurd allocation.
pub(crate) const MAX_BLOCK_LEN: u32 = 16 * 1024 * 1024;

/// Decodes an in-memory tracefile into a fully materialized trace: the
/// [`BatchReader`]'s batches, concatenated.
pub fn decode(bytes: &[u8]) -> Result<Trace, DecodeError> {
    let mut reader = BatchReader::new(bytes)?;
    let mut events = Vec::new();
    while let Some(batch) = reader.next_batch()? {
        events.extend_from_slice(batch);
    }
    Ok(Trace::from_parts(events, reader.phase_names().to_vec()))
}

/// A batched reader that owns the image of one tracefile.
pub type FileBatches = BatchReader<Vec<u8>>;

/// Opens a tracefile on disk for batched reading: the file is read into
/// one in-memory image, and blocks are CRC-verified and decoded straight
/// out of it.
pub fn open_batches(path: &Path) -> Result<FileBatches, DecodeError> {
    BatchReader::new(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::{SlotIdx, TraceBuilder};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.phase("GenDB");
        let a = b.create_unlinked(128, 3);
        let c = b.create(64, vec![Some(a), None]);
        b.root_add(a);
        b.access(c);
        b.slot_write(c, SlotIdx::new(1), Some(a));
        b.slot_clear(c, SlotIdx::new(0));
        b.phase("Reorg1");
        b.root_remove(a);
        b.finish()
    }

    #[test]
    fn round_trip() {
        let t = sample_trace();
        let bytes = encode(&t);
        assert_eq!(bytes[..4], MAGIC);
        assert_eq!(decode(&bytes).expect("decode"), t);
    }

    #[test]
    fn round_trip_empty() {
        let t = Trace::default();
        assert_eq!(decode(&encode(&t)).expect("decode"), t);
    }

    #[test]
    fn text_is_not_binary() {
        let text = odbgc_trace::codec::encode(&sample_trace());
        assert!(
            matches!(decode(text.as_bytes()), Err(DecodeError::BadMagic { found }) if &found == b"odbg"),
            "a text trace is a foreign file"
        );
        assert!(matches!(decode(b""), Err(DecodeError::Truncated { .. })));
        assert!(matches!(decode(b"OTB"), Err(DecodeError::Truncated { .. })));
    }

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "odbgc-tracefile-test-{name}-{}",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn open_batches_sees_the_same_bytes_as_memory() {
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(16, 0);
        for _ in 0..100 {
            b.access(a);
        }
        let trace = b.finish();
        let bytes = encode(&trace);
        let path = temp_file("same-bytes", &bytes);
        let mut reader = open_batches(&path).expect("open real file");
        std::fs::remove_file(&path).ok();
        let mut from_file = Vec::new();
        while let Some(batch) = reader.next_batch().expect("batch") {
            from_file.extend_from_slice(batch);
        }
        assert_eq!(from_file, trace.events());
        assert_eq!(reader.phase_names(), trace.phase_names());
    }

    #[test]
    fn open_batches_on_an_empty_file_is_a_typed_error() {
        let path = temp_file("empty", b"");
        let err = open_batches(&path).map(|_| ()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(
                err,
                DecodeError::Truncated {
                    offset: 0,
                    expected: "magic"
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn open_batches_on_a_missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("odbgc-tracefile-test-definitely-missing.otb");
        let err = open_batches(&path).map(|_| ()).unwrap_err();
        assert!(matches!(err, DecodeError::Io(_)), "{err:?}");
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let t = sample_trace();
        let binary = encode(&t).len();
        let text = odbgc_trace::codec::encode(&t).len();
        assert!(
            binary < text,
            "binary {binary} B should beat text {text} B even on a toy trace"
        );
    }
}
