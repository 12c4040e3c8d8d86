//! Zero-copy block reading and borrowed event batches.
//!
//! This module is the one decoder of the tracefile format, in two layers:
//!
//! * [`SliceBlocks`] walks an in-memory tracefile image (a borrowed
//!   `&[u8]`, or the `Vec<u8>` [`crate::open_batches`] read a file
//!   into) and yields CRC-verified `(kind, payload)` block frames
//!   without copying a single payload byte.
//! * A [`BatchReader`] sits on top and yields **borrowed event batches**:
//!   each event block is validated once (CRC, count, exact payload
//!   consumption) and decoded in a single pass into a reusable arena,
//!   handed back as `&[Event]`. The happy path has no per-event
//!   allocation (other than `Create`'s inherent slot box) and no
//!   per-event `Result` branch.
//!
//! Damage of any kind — truncation, bit flips, foreign files — surfaces
//! as a typed [`DecodeError`]; `tests/tracefile_corruption.rs` runs every
//! byte-flip and truncation through this decoder.

use odbgc_trace::{Event, ObjectId, PhaseId, SlotIdx, Trace};

use crate::crc32::crc32;
use crate::error::DecodeError;
use crate::varint::{get_u64, unzigzag};
use crate::writer::{
    TAG_ACCESS, TAG_CREATE, TAG_PHASE, TAG_ROOT_ADD, TAG_ROOT_REMOVE, TAG_SLOT_WRITE_NULL,
    TAG_SLOT_WRITE_SOME,
};
use crate::{BLOCK_END, BLOCK_EVENTS, BLOCK_PHASES, FORMAT_VERSION, MAGIC, MAX_BLOCK_LEN};

/// Validates the magic and version at the front of `bytes`. Magic first,
/// version second: a 4-byte foreign file is "not a tracefile", not "a
/// truncated tracefile".
fn check_header(bytes: &[u8]) -> Result<(), DecodeError> {
    if bytes.len() < 4 {
        return Err(DecodeError::Truncated {
            offset: bytes.len() as u64,
            expected: "magic",
        });
    }
    if bytes[..4] != MAGIC {
        return Err(DecodeError::BadMagic {
            found: [bytes[0], bytes[1], bytes[2], bytes[3]],
        });
    }
    if bytes.len() < 8 {
        return Err(DecodeError::Truncated {
            offset: bytes.len() as u64,
            expected: "version header",
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(())
}

/// Zero-copy source of CRC-verified blocks over an in-memory tracefile
/// image.
///
/// `B` is any byte backing — a borrowed `&[u8]` or an owned `Vec<u8>`
/// holding a whole file. The 8-byte file header is
/// validated on construction; payload slices point straight into the
/// backing, nothing is copied.
pub struct SliceBlocks<B> {
    data: B,
    pos: usize,
    blocks_read: u64,
}

impl<B: AsRef<[u8]>> SliceBlocks<B> {
    /// Validates the file header and positions the cursor at block 0.
    pub fn new(data: B) -> Result<Self, DecodeError> {
        check_header(data.as_ref())?;
        Ok(SliceBlocks {
            data,
            pos: 8,
            blocks_read: 0,
        })
    }

    /// Reads the next block frame, verifying its CRC32.
    ///
    /// Errors are [`DecodeError::Truncated`] when the image ends inside
    /// a frame (the wire format requires an explicit end block, so a
    /// clean end here is still truncation), [`DecodeError::Corrupt`] on
    /// an oversized declared length, and
    /// [`DecodeError::ChecksumMismatch`] on payload damage.
    fn next_block(&mut self) -> Result<(u8, &[u8]), DecodeError> {
        let bytes = self.data.as_ref();
        // A frame cut short by the end of the image reports the total
        // bytes available as its offset.
        let truncated = |expected| DecodeError::Truncated {
            offset: bytes.len() as u64,
            expected,
        };
        if bytes.len() - self.pos < 5 {
            return Err(truncated("block header"));
        }
        let kind = bytes[self.pos];
        let len = u32::from_le_bytes([
            bytes[self.pos + 1],
            bytes[self.pos + 2],
            bytes[self.pos + 3],
            bytes[self.pos + 4],
        ]);
        if len > MAX_BLOCK_LEN {
            return Err(DecodeError::Corrupt {
                block: self.blocks_read,
                message: format!("block length {len} exceeds the {MAX_BLOCK_LEN}-byte cap"),
            });
        }
        let start = self.pos + 5;
        let len = len as usize;
        if bytes.len() - start < len {
            return Err(truncated("block payload"));
        }
        let end = start + len;
        if bytes.len() - end < 4 {
            return Err(truncated("block checksum"));
        }
        let payload = &bytes[start..end];
        let stored =
            u32::from_le_bytes([bytes[end], bytes[end + 1], bytes[end + 2], bytes[end + 3]]);
        let computed = crc32(payload);
        if stored != computed {
            return Err(DecodeError::ChecksumMismatch {
                block: self.blocks_read,
                stored,
                computed,
            });
        }
        self.pos = end + 4;
        self.blocks_read += 1;
        Ok((kind, payload))
    }

    /// Asserts the image is exhausted; called after the end block.
    /// Trailing bytes are [`DecodeError::Corrupt`].
    fn expect_eof(&self) -> Result<(), DecodeError> {
        if self.pos != self.data.as_ref().len() {
            return Err(DecodeError::Corrupt {
                block: self.blocks_read,
                message: "trailing bytes after end block".into(),
            });
        }
        Ok(())
    }

    /// The events remaining, learned by skipping along block headers to
    /// the end block's declared count. Purely a pre-allocation hint:
    /// `None` (structurally damaged input) never changes decode results,
    /// and damage is still diagnosed by decode proper.
    fn remaining_events_hint(&self) -> Option<u64> {
        // Hop along block headers (a handful of jumps for ~32 KiB
        // blocks) to the end block and read its declared total. Any
        // structural inconsistency — or a count implausible for the
        // bytes present (every event is at least 2 bytes) — yields
        // `None` rather than a huge reservation.
        let bytes = self.data.as_ref();
        let mut pos = self.pos;
        loop {
            let head = bytes.get(pos..pos + 5)?;
            let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
            let payload = bytes.get(pos + 5..pos + 5 + len)?;
            if head[0] == BLOCK_END {
                let mut p = 0;
                return get_u64(payload, &mut p).filter(|&n| n <= (bytes.len() as u64) / 2 + 1);
            }
            pos += 5 + len + 4;
        }
    }
}

/// Decodes the phase-table payload.
pub(crate) fn decode_phase_table(payload: &[u8]) -> Result<Vec<String>, DecodeError> {
    let corrupt = |message: String| DecodeError::Corrupt { block: 0, message };
    let mut pos = 0;
    let count =
        get_u64(payload, &mut pos).ok_or_else(|| corrupt("bad varint (phase count)".into()))?;
    let count = usize::try_from(count)
        .ok()
        .filter(|&c| c <= usize::from(u16::MAX))
        .ok_or_else(|| corrupt(format!("implausible phase count {count}")))?;
    let mut names = Vec::with_capacity(count);
    for i in 0..count {
        let len = get_u64(payload, &mut pos)
            .ok_or_else(|| corrupt(format!("bad varint (phase {i} name length)")))?;
        let end = usize::try_from(len)
            .ok()
            .and_then(|l| pos.checked_add(l))
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| corrupt(format!("phase {i} name runs past the table")))?;
        let name = std::str::from_utf8(&payload[pos..end])
            .map_err(|_| corrupt(format!("phase {i} name is not UTF-8")))?;
        names.push(name.to_owned());
        pos = end;
    }
    if pos != payload.len() {
        return Err(corrupt("trailing bytes after phase table".into()));
    }
    Ok(names)
}

/// Decode cursor over one event-block payload. All the per-event format
/// knowledge lives here, shared by every read path, so a given byte
/// stream produces the same typed error whichever reader saw it.
struct BlockCursor<'a> {
    payload: &'a [u8],
    pos: usize,
    /// Delta baseline; resets to 0 at each block boundary.
    prev_id: u64,
    /// Block index used in `Corrupt` errors.
    block: u64,
}

impl BlockCursor<'_> {
    fn corrupt(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::Corrupt {
            block: self.block,
            message: message.into(),
        }
    }

    #[inline]
    fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        get_u64(self.payload, &mut self.pos)
            .ok_or_else(|| self.corrupt(format!("bad varint ({what})")))
    }

    #[inline]
    fn id(&mut self, what: &str) -> Result<ObjectId, DecodeError> {
        let z = self.u64(what)?;
        let id = self.prev_id.wrapping_add(unzigzag(z) as u64);
        self.prev_id = id;
        Ok(ObjectId::new(id))
    }

    #[inline]
    fn event(&mut self) -> Result<Event, DecodeError> {
        let tag = *self
            .payload
            .get(self.pos)
            .ok_or_else(|| self.corrupt("event runs past block payload"))?;
        self.pos += 1;
        let ev = match tag {
            TAG_CREATE => {
                let id = self.id("create id")?;
                let size = self.u64("create size")?;
                let size = u32::try_from(size)
                    .map_err(|_| self.corrupt(format!("create size {size} exceeds u32")))?;
                let n = self.u64("create slot count")?;
                let n = usize::try_from(n)
                    .ok()
                    .filter(|&n| n <= self.payload.len() * 8)
                    .ok_or_else(|| self.corrupt(format!("implausible slot count {n}")))?;
                let bitmap_len = n.div_ceil(8);
                let bitmap_end = self
                    .pos
                    .checked_add(bitmap_len)
                    .filter(|&e| e <= self.payload.len())
                    .ok_or_else(|| self.corrupt("slot bitmap runs past block payload"))?;
                let bitmap = &self.payload[self.pos..bitmap_end];
                self.pos = bitmap_end;
                let mut slots = Vec::with_capacity(n);
                for i in 0..n {
                    if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                        let z = get_u64(self.payload, &mut self.pos)
                            .ok_or_else(|| self.corrupt("bad varint (create slot target)"))?;
                        let id = self.prev_id.wrapping_add(unzigzag(z) as u64);
                        self.prev_id = id;
                        slots.push(Some(ObjectId::new(id)));
                    } else {
                        slots.push(None);
                    }
                }
                Event::Create {
                    id,
                    size,
                    slots: slots.into_boxed_slice(),
                }
            }
            TAG_ACCESS => Event::Access {
                id: self.id("access id")?,
            },
            TAG_SLOT_WRITE_SOME | TAG_SLOT_WRITE_NULL => {
                let src = self.id("slot-write src")?;
                let slot = self.u64("slot index")?;
                let slot = u32::try_from(slot)
                    .map_err(|_| self.corrupt(format!("slot index {slot} exceeds u32")))?;
                let new = if tag == TAG_SLOT_WRITE_SOME {
                    Some(self.id("slot-write target")?)
                } else {
                    None
                };
                Event::SlotWrite {
                    src,
                    slot: SlotIdx::new(slot),
                    new,
                }
            }
            TAG_ROOT_ADD => Event::RootAdd {
                id: self.id("root-add id")?,
            },
            TAG_ROOT_REMOVE => Event::RootRemove {
                id: self.id("root-remove id")?,
            },
            TAG_PHASE => {
                let id = self.u64("phase id")?;
                let id = u16::try_from(id)
                    .map_err(|_| self.corrupt(format!("phase id {id} exceeds u16")))?;
                Event::Phase {
                    id: PhaseId::new(id),
                }
            }
            other => return Err(self.corrupt(format!("unknown event tag {other}"))),
        };
        Ok(ev)
    }
}

/// Decodes one whole event-block payload, appending the events to `out`.
///
/// The block-level invariants — non-zero count, every byte consumed —
/// are validated here, once per block, so the per-event loop carries no
/// redundant checks. `block` is the index used in corruption errors.
/// Returns the number of events decoded.
pub(crate) fn decode_event_block(
    payload: &[u8],
    block: u64,
    out: &mut Vec<Event>,
) -> Result<u64, DecodeError> {
    let mut cursor = BlockCursor {
        payload,
        pos: 0,
        prev_id: 0,
        block,
    };
    let count = cursor.u64("block event count")?;
    if count == 0 {
        return Err(cursor.corrupt("event block with zero events"));
    }
    out.reserve(count as usize);
    for _ in 0..count {
        let ev = cursor.event()?;
        out.push(ev);
    }
    if cursor.pos != payload.len() {
        return Err(cursor.corrupt(format!(
            "{} unconsumed bytes after last event of block",
            payload.len() - cursor.pos
        )));
    }
    Ok(count)
}

/// Batched tracefile reader: yields each event block as one borrowed,
/// fully validated `&[Event]` slice backed by a reusable arena.
///
/// A batch costs one `Result` branch per ~32 KiB block instead of one
/// per event, and the arena's capacity is reused across blocks.
///
/// ```
/// use odbgc_trace::TraceBuilder;
/// use odbgc_tracefile::{BatchReader, SliceBlocks};
///
/// let mut b = TraceBuilder::new();
/// let a = b.create_unlinked(16, 0);
/// b.access(a);
/// let trace = b.finish();
/// let bytes = odbgc_tracefile::encode(&trace);
///
/// let mut r = BatchReader::new(SliceBlocks::new(bytes.as_slice()).unwrap()).unwrap();
/// let mut events = Vec::new();
/// while let Some(batch) = r.next_batch().unwrap() {
///     events.extend_from_slice(batch);
/// }
/// assert_eq!(events, trace.events());
/// ```
pub struct BatchReader<B> {
    source: SliceBlocks<B>,
    phase_names: Vec<String>,
    arena: Vec<Event>,
    events_read: u64,
    done: bool,
}

impl<B: AsRef<[u8]>> BatchReader<B> {
    /// Opens a tracefile over `source`: reads and validates the phase
    /// table (the header was validated by the source's constructor).
    pub fn new(mut source: SliceBlocks<B>) -> Result<Self, DecodeError> {
        let (kind, payload) = source.next_block()?;
        if kind != BLOCK_PHASES {
            return Err(DecodeError::Corrupt {
                block: 0,
                message: format!("expected phase-table block first, found kind {kind}"),
            });
        }
        let phase_names = decode_phase_table(payload)?;
        Ok(BatchReader {
            source,
            phase_names,
            arena: Vec::new(),
            events_read: 0,
            done: false,
        })
    }

    /// The phase-name table from the header, in id order.
    pub fn phase_names(&self) -> &[String] {
        &self.phase_names
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Blocks read so far (including the phase table and, once reading
    /// completes, the end block).
    pub fn blocks_read(&self) -> u64 {
        self.source.blocks_read
    }

    /// Decodes the next event block, appending its events to `out`.
    /// `Ok(true)` means a block was decoded; `Ok(false)` means the end
    /// block was reached and verified. Fused: after `Ok(false)` or an
    /// error, every later call returns `Ok(false)`.
    fn next_into(&mut self, out: &mut Vec<Event>) -> Result<bool, DecodeError> {
        if self.done {
            return Ok(false);
        }
        let step = self.step(out);
        if !matches!(step, Ok(true)) {
            self.done = true;
        }
        step
    }

    fn step(&mut self, out: &mut Vec<Event>) -> Result<bool, DecodeError> {
        // Content errors are attributed to the *next* frame index (the
        // phase table is frame 0).
        let block = self.source.blocks_read + 1;
        let (kind, payload) = self.source.next_block()?;
        let corrupt = |message: String| DecodeError::Corrupt { block, message };
        match kind {
            BLOCK_EVENTS => {
                let n = decode_event_block(payload, block, out)?;
                self.events_read += n;
                Ok(true)
            }
            BLOCK_END => {
                let mut pos = 0;
                let total = get_u64(payload, &mut pos)
                    .ok_or_else(|| corrupt("bad varint (total event count)".into()))?;
                if total != self.events_read {
                    return Err(corrupt(format!(
                        "end block declares {total} events but {} were present",
                        self.events_read
                    )));
                }
                self.source.expect_eof()?;
                Ok(false)
            }
            BLOCK_PHASES => Err(corrupt("duplicate phase-table block".into())),
            other => Err(corrupt(format!("unknown block kind {other}"))),
        }
    }

    /// The next decoded block as a borrowed batch, or `None` once the
    /// end block has been verified. The slice borrows the reader's
    /// arena and is invalidated by the next call.
    pub fn next_batch(&mut self) -> Result<Option<&[Event]>, DecodeError> {
        let mut arena = std::mem::take(&mut self.arena);
        arena.clear();
        let more = self.next_into(&mut arena);
        self.arena = arena;
        match more? {
            true => Ok(Some(&self.arena)),
            false => Ok(None),
        }
    }

    /// Decodes the remaining blocks straight into one contiguous event
    /// vector and finishes as a materialized [`Trace`] — the fastest
    /// whole-file decode (no intermediate copies at all).
    pub fn read_to_trace(mut self) -> Result<Trace, DecodeError> {
        let mut events = std::mem::take(&mut self.arena);
        if let Some(n) = self.source.remaining_events_hint() {
            events.reserve_exact(n as usize);
        }
        while self.next_into(&mut events)? {}
        Ok(Trace::from_parts(events, self.phase_names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        b.phase("GenDB");
        let a = b.create_unlinked(128, 3);
        let c = b.create(64, vec![Some(a), None]);
        b.root_add(a);
        b.access(c);
        b.slot_write(c, SlotIdx::new(1), Some(a));
        b.phase("Reorg1");
        b.root_remove(a);
        b.finish()
    }

    fn multi_block() -> Trace {
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(16, 1);
        for _ in 0..40_000 {
            b.access(root);
        }
        b.finish()
    }

    #[test]
    fn batches_cover_the_trace_in_order() {
        let t = multi_block();
        let bytes = crate::encode(&t);
        let mut r = BatchReader::new(SliceBlocks::new(bytes.as_slice()).unwrap()).unwrap();
        let mut events = Vec::new();
        let mut batches = 0;
        while let Some(batch) = r.next_batch().unwrap() {
            assert!(!batch.is_empty(), "event blocks are never empty");
            events.extend_from_slice(batch);
            batches += 1;
        }
        assert!(batches >= 2, "40k events must span multiple blocks");
        assert_eq!(events.as_slice(), t.events());
        assert_eq!(r.events_read(), t.len() as u64);
        // Exhausted readers stay exhausted.
        assert!(r.next_batch().unwrap().is_none());
    }

    #[test]
    fn extreme_ids_round_trip() {
        // Wrapping deltas must survive ids at both ends of u64.
        let mut b = TraceBuilder::new();
        b.access(ObjectId::new(u64::MAX));
        b.access(ObjectId::new(0));
        b.access(ObjectId::new(u64::MAX / 2));
        b.slot_write(
            ObjectId::new(u64::MAX),
            SlotIdx::new(u32::MAX),
            Some(ObjectId::new(1)),
        );
        let t = b.finish();
        assert_eq!(crate::decode(&crate::encode(&t)).unwrap(), t);
    }

    #[test]
    fn truncation_surfaces_once_then_the_reader_is_fused() {
        let t = sample();
        let mut bytes = crate::encode(&t);
        let n = bytes.len();
        bytes.truncate(n - 3);
        let mut r = BatchReader::new(SliceBlocks::new(bytes.as_slice()).unwrap()).unwrap();
        let err = loop {
            match r.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncation must surface"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, DecodeError::Truncated { .. }), "{err:?}");
        assert!(matches!(r.next_batch(), Ok(None)), "fused after the error");
    }

    #[test]
    fn arena_capacity_is_reused_across_blocks() {
        let t = multi_block();
        let bytes = crate::encode(&t);
        let total = t.len();
        let mut r = BatchReader::new(SliceBlocks::new(bytes.as_slice()).unwrap()).unwrap();
        let mut largest_batch = 0;
        while let Some(batch) = r.next_batch().unwrap() {
            largest_batch = largest_batch.max(batch.len());
            // The arena holds one block, never the accumulated trace.
            assert!(
                r.arena.capacity() < total,
                "arena capacity {} grew toward the whole trace ({total} events)",
                r.arena.capacity()
            );
        }
        assert!(
            r.arena.capacity() <= 2 * largest_batch,
            "arena capacity {} should stay near the largest batch ({largest_batch})",
            r.arena.capacity()
        );
    }
}
