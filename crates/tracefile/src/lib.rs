//! On-disk binary trace corpus: compact tracefile format, zero-copy
//! batched reading, and a persistent cross-process trace cache.
//!
//! The text codec in `odbgc-trace` is the diffable, human-readable
//! interchange form; this crate is the *storage* form. A tracefile is a
//! versioned binary container designed for three properties the text
//! format cannot give:
//!
//! * **Compactness.** Events are varint/delta-encoded against the
//!   previously seen object id, so the dense, locality-heavy id streams
//!   produced by OO7 generation shrink to a fraction of their text size.
//! * **Block-at-a-time.** [`TraceWriter`] encodes events as they arrive
//!   and [`BatchReader`] decodes a mapped file one block at a time into a
//!   reused arena, so neither side ever holds a whole decoded trace —
//!   heap use is one block (~32 KiB of payload), not O(trace).
//! * **Verifiability.** Every block is length-prefixed and CRC32-
//!   checksummed; truncation, bit flips, foreign files, and
//!   future-version files are all detected and reported as distinct
//!   typed [`DecodeError`]s, never panics.
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
//!
//! On top of the format, [`TraceCorpus`] is a directory of tracefiles
//! keyed by (workload, seed) with atomic temp-file + rename fills: a
//! persistent, cross-process second cache tier behind the in-memory
//! per-plan trace cache.

#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
pub mod crc32;
pub mod error;
pub mod mmap;
pub mod varint;
pub mod writer;

pub use batch::{BatchReader, SliceBlocks};
pub use corpus::{CorpusKey, CorpusStats, TraceCorpus};
pub use error::DecodeError;
pub use mmap::TraceData;
pub use writer::{write_trace, TraceWriter};

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

/// Target payload size at which the writer seals an event block.
pub(crate) const BLOCK_TARGET_BYTES: usize = 32 * 1024;

/// Upper bound on a declared block length; a corrupted length field must
/// not provoke an absurd allocation.
pub(crate) const MAX_BLOCK_LEN: u32 = 16 * 1024 * 1024;

/// True when `prefix` starts with the tracefile magic — used to sniff
/// binary vs. text trace files.
pub fn is_binary(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// Encodes a whole trace to an in-memory tracefile.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * 4 + 64);
    write_trace(&mut out, trace).expect("writing to a Vec cannot fail");
    out
}

/// Decodes an in-memory tracefile into a fully materialized trace:
/// blocks are CRC-verified and decoded straight out of `bytes` with no
/// intermediate payload copies.
pub fn decode(bytes: &[u8]) -> Result<Trace, DecodeError> {
    BatchReader::new(SliceBlocks::new(bytes)?)?.read_to_trace()
}

/// A batched reader over a whole-file backing ([`TraceData`]: mmap when
/// possible, owned bytes otherwise).
pub type FileBatches = BatchReader<TraceData>;

/// Opens a tracefile on disk for zero-copy batched reading, preferring
/// a read-only memory map and falling back to reading the whole file
/// into memory (see [`mmap`] for when).
pub fn open_batches(path: &Path) -> Result<FileBatches, DecodeError> {
    let data = TraceData::open(path)?;
    BatchReader::new(SliceBlocks::new(data)?)
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
        assert!(is_binary(&bytes));
        assert_eq!(decode(&bytes).expect("decode"), t);
    }

    #[test]
    fn round_trip_empty() {
        let t = Trace::default();
        assert_eq!(decode(&encode(&t)).expect("decode"), t);
    }

    #[test]
    fn text_is_not_binary() {
        assert!(!is_binary(b"odbgc-trace v1\n"));
        assert!(!is_binary(b""));
        assert!(!is_binary(b"OTB"));
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
