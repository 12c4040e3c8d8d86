//! Streaming tracefile encoder.
//!
//! Per-event layout inside an event block (after the block's leading
//! varint event count). `zdelta(id)` means: zigzag varint of the
//! wrapping difference between `id` and the previously encoded id in
//! this block (the state starts at 0 at each block boundary, so blocks
//! decode independently).
//!
//! | tag | event | fields |
//! |---|---|---|
//! | 1 | `Create` | zdelta(id), varint(size), varint(n_slots), presence bitmap (⌈n/8⌉ bytes, LSB-first), zdelta per non-null slot |
//! | 2 | `Access` | zdelta(id) |
//! | 3 | `SlotWrite` (non-null) | zdelta(src), varint(slot), zdelta(new) |
//! | 4 | `SlotWrite` (null) | zdelta(src), varint(slot) |
//! | 5 | `RootAdd` | zdelta(id) |
//! | 6 | `RootRemove` | zdelta(id) |
//! | 7 | `Phase` | varint(phase id) |

use std::io::{self, Write};

use odbgc_trace::{Event, ObjectId, Trace};

use crate::crc32::crc32;
use crate::varint::{put_u64, zigzag};
use crate::{BLOCK_END, BLOCK_EVENTS, BLOCK_PHASES, BLOCK_TARGET_BYTES, FORMAT_VERSION, MAGIC};

/// Event tag bytes (see module docs).
pub(crate) const TAG_CREATE: u8 = 1;
pub(crate) const TAG_ACCESS: u8 = 2;
pub(crate) const TAG_SLOT_WRITE_SOME: u8 = 3;
pub(crate) const TAG_SLOT_WRITE_NULL: u8 = 4;
pub(crate) const TAG_ROOT_ADD: u8 = 5;
pub(crate) const TAG_ROOT_REMOVE: u8 = 6;
pub(crate) const TAG_PHASE: u8 = 7;

/// Incremental tracefile writer.
///
/// Events are encoded as they arrive into a bounded block buffer that is
/// sealed (length-prefixed, checksummed, flushed) every ~32 KiB, so
/// writing a trace never requires holding it in memory.
///
/// ```
/// use odbgc_trace::TraceBuilder;
/// use odbgc_tracefile::TraceWriter;
///
/// let mut b = TraceBuilder::new();
/// b.phase("setup");
/// let a = b.create_unlinked(16, 0);
/// b.root_add(a);
/// let trace = b.finish();
///
/// let mut out = Vec::new();
/// let mut w = TraceWriter::new(&mut out, trace.phase_names()).unwrap();
/// for ev in trace.iter() {
///     w.write_event(ev).unwrap();
/// }
/// w.finish().unwrap();
///
/// assert_eq!(odbgc_tracefile::decode(&out).unwrap(), trace);
/// ```
pub struct TraceWriter<W: Write> {
    out: W,
    /// Encoded events of the open block (without the leading count).
    block: Vec<u8>,
    /// Events in the open block.
    block_events: u64,
    /// Delta baseline for the open block.
    prev_id: u64,
    /// Events written over the writer's whole life.
    total_events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a tracefile on `out`: writes the header and the phase
    /// table. Phase names must be known up front; they are part of the
    /// header so a streaming reader can resolve [`Event::Phase`] ids
    /// during replay.
    pub fn new(mut out: W, phase_names: &[String]) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?; // flags, reserved
        let mut table = Vec::new();
        put_u64(&mut table, phase_names.len() as u64);
        for name in phase_names {
            put_u64(&mut table, name.len() as u64);
            table.extend_from_slice(name.as_bytes());
        }
        write_block(&mut out, BLOCK_PHASES, &table)?;
        Ok(TraceWriter {
            out,
            block: Vec::with_capacity(BLOCK_TARGET_BYTES + 256),
            block_events: 0,
            prev_id: 0,
            total_events: 0,
        })
    }

    /// Encodes the next id as a zigzag delta against the running
    /// baseline, then advances the baseline.
    fn put_id(&mut self, id: ObjectId) {
        let delta = id.raw().wrapping_sub(self.prev_id) as i64;
        put_u64(&mut self.block, zigzag(delta));
        self.prev_id = id.raw();
    }

    /// Appends one event, sealing the current block if it is full.
    pub fn write_event(&mut self, ev: &Event) -> io::Result<()> {
        match ev {
            Event::Create { id, size, slots } => {
                self.block.push(TAG_CREATE);
                self.put_id(*id);
                put_u64(&mut self.block, u64::from(*size));
                put_u64(&mut self.block, slots.len() as u64);
                let mut bitmap = vec![0u8; slots.len().div_ceil(8)];
                for (i, slot) in slots.iter().enumerate() {
                    if slot.is_some() {
                        bitmap[i / 8] |= 1 << (i % 8);
                    }
                }
                self.block.extend_from_slice(&bitmap);
                for slot in slots.iter().flatten() {
                    self.put_id(*slot);
                }
            }
            Event::Access { id } => {
                self.block.push(TAG_ACCESS);
                self.put_id(*id);
            }
            Event::SlotWrite { src, slot, new } => {
                match new {
                    Some(_) => self.block.push(TAG_SLOT_WRITE_SOME),
                    None => self.block.push(TAG_SLOT_WRITE_NULL),
                }
                self.put_id(*src);
                put_u64(&mut self.block, u64::from(slot.raw()));
                if let Some(new) = new {
                    self.put_id(*new);
                }
            }
            Event::RootAdd { id } => {
                self.block.push(TAG_ROOT_ADD);
                self.put_id(*id);
            }
            Event::RootRemove { id } => {
                self.block.push(TAG_ROOT_REMOVE);
                self.put_id(*id);
            }
            Event::Phase { id } => {
                self.block.push(TAG_PHASE);
                put_u64(&mut self.block, u64::from(id.raw()));
            }
        }
        self.block_events += 1;
        self.total_events += 1;
        if self.block.len() >= BLOCK_TARGET_BYTES {
            self.seal_block()?;
        }
        Ok(())
    }

    /// Seals the open event block: prepends its count, checksums it, and
    /// writes it out.
    fn seal_block(&mut self) -> io::Result<()> {
        if self.block_events == 0 {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(self.block.len() + 4);
        put_u64(&mut payload, self.block_events);
        payload.extend_from_slice(&self.block);
        write_block(&mut self.out, BLOCK_EVENTS, &payload)?;
        self.block.clear();
        self.block_events = 0;
        self.prev_id = 0;
        Ok(())
    }

    /// Seals any open block, writes the end block, flushes, and returns
    /// the underlying writer. A tracefile without its end block is
    /// detectably truncated.
    pub fn finish(mut self) -> io::Result<W> {
        self.seal_block()?;
        let mut payload = Vec::new();
        put_u64(&mut payload, self.total_events);
        write_block(&mut self.out, BLOCK_END, &payload)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes one length-prefixed, checksummed block.
fn write_block<W: Write>(out: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    out.write_all(&[kind])?;
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(payload)?;
    out.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Writes a fully materialized trace as a tracefile.
pub fn write_trace<W: Write>(out: W, trace: &Trace) -> io::Result<W> {
    let mut w = TraceWriter::new(out, trace.phase_names())?;
    for ev in trace.iter() {
        w.write_event(ev)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::TraceBuilder;

    #[test]
    fn header_layout_is_stable() {
        let out = write_trace(Vec::new(), &Trace::default()).unwrap();
        assert_eq!(&out[..4], b"OTBF");
        assert_eq!(u16::from_le_bytes([out[4], out[5]]), FORMAT_VERSION);
        assert_eq!(u16::from_le_bytes([out[6], out[7]]), 0);
        // Empty phase table block, then empty-count end block.
        assert_eq!(out[8], BLOCK_PHASES);
    }

    #[test]
    fn large_traces_span_multiple_blocks() {
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(16, 1);
        for _ in 0..40_000 {
            b.access(root);
        }
        let t = b.finish();
        let bytes = crate::encode(&t);
        // 40k two-byte events cannot fit one 32 KiB block. Walk the block
        // structure to count them.
        let mut pos = 8;
        let mut event_blocks = 0;
        while pos < bytes.len() {
            let kind = bytes[pos];
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
            if kind == BLOCK_EVENTS {
                event_blocks += 1;
            }
            pos += 1 + 4 + len + 4;
        }
        assert_eq!(pos, bytes.len(), "blocks tile the file exactly");
        assert!(event_blocks >= 2, "expected multiple event blocks");
        assert_eq!(crate::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn events_written_counts() {
        let mut w = TraceWriter::new(Vec::new(), &[]).unwrap();
        assert_eq!(w.total_events, 0);
        w.write_event(&Event::Access {
            id: ObjectId::new(5),
        })
        .unwrap();
        assert_eq!(w.total_events, 1);
        // The count is what the end block declares.
        let bytes = w.finish().unwrap();
        let end = &bytes[bytes.len() - 4 - 1..bytes.len() - 4];
        assert_eq!(end, [1]);
    }
}
