//! Typed decode failures.
//!
//! Tracefiles live on real disks and arrive from other processes; every
//! way one can be unusable has its own variant so callers (and tests)
//! can tell a foreign file from a truncated one from a bit flip — and
//! none of them panics.

use std::fmt;

/// Why a tracefile could not be decoded.
#[derive(Debug)]
pub enum DecodeError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The file does not start with the tracefile magic — it is not a
    /// tracefile at all.
    BadMagic {
        /// The bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The file declares a format version this crate does not speak
    /// (written by a future release).
    UnsupportedVersion {
        /// The version the file declares.
        found: u16,
        /// The newest version this crate supports.
        supported: u16,
    },
    /// The byte stream ended before the structure did (mid-header,
    /// mid-block, or before the end block).
    Truncated {
        /// Byte offset at which the stream ended.
        offset: u64,
        /// What the decoder was expecting to read.
        expected: &'static str,
    },
    /// A block's payload does not match its stored CRC32 — the bytes
    /// were altered after writing.
    ChecksumMismatch {
        /// Zero-based index of the damaged block.
        block: u64,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the payload actually read.
        computed: u32,
    },
    /// The structure is malformed in some other way (unknown block kind,
    /// bad varint, event count mismatch, non-UTF-8 phase name, …).
    Corrupt {
        /// Zero-based index of the offending block (the header counts as
        /// block 0's predecessor and reports 0).
        block: u64,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "tracefile I/O error: {e}"),
            DecodeError::BadMagic { found } => write!(
                f,
                "not a tracefile: bad magic {found:02x?} (expected {:02x?})",
                crate::MAGIC
            ),
            DecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "tracefile version {found} is newer than supported version {supported}"
            ),
            DecodeError::Truncated { offset, expected } => write!(
                f,
                "tracefile truncated at byte {offset} (expected {expected})"
            ),
            DecodeError::ChecksumMismatch {
                block,
                stored,
                computed,
            } => write!(
                f,
                "tracefile block {block} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            DecodeError::Corrupt { block, message } => {
                write!(f, "tracefile block {block} corrupt: {message}")
            }
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DecodeError {
    fn from(e: std::io::Error) -> Self {
        DecodeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure() {
        let e = DecodeError::BadMagic { found: *b"GIF8" };
        assert!(e.to_string().contains("bad magic"));
        let e = DecodeError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = DecodeError::Truncated {
            offset: 42,
            expected: "block payload",
        };
        assert!(e.to_string().contains("byte 42"));
        let e = DecodeError::ChecksumMismatch {
            block: 3,
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("block 3"));
        let e = DecodeError::Corrupt {
            block: 0,
            message: "bad varint".into(),
        };
        assert!(e.to_string().contains("bad varint"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: DecodeError = std::io::Error::other("boom").into();
        assert!(matches!(e, DecodeError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
