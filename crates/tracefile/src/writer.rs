//! The tracefile encoder: [`encode`].
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

/// Encodes a whole trace to an in-memory tracefile: the header, the
/// phase table, one event block per ~32 KiB of encoded events, and the
/// end block, each written straight into the returned image.
///
/// ```
/// use odbgc_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// b.phase("setup");
/// let a = b.create_unlinked(16, 0);
/// b.root_add(a);
/// let trace = b.finish();
///
/// let bytes = odbgc_tracefile::encode(&trace);
/// assert_eq!(bytes[..4], *b"OTBF");
/// assert_eq!(odbgc_tracefile::decode(&bytes).unwrap(), trace);
/// ```
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * 4 + 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    push_block(&mut out, BLOCK_PHASES, |table| {
        put_u64(table, trace.phase_names().len() as u64);
        for name in trace.phase_names() {
            put_u64(table, name.len() as u64);
            table.extend_from_slice(name.as_bytes());
        }
    });
    let mut block = EventBlock {
        bytes: Vec::with_capacity(BLOCK_TARGET_BYTES + 256),
        events: 0,
        prev_id: 0,
    };
    for ev in trace.iter() {
        block.push(ev);
        if block.bytes.len() >= BLOCK_TARGET_BYTES {
            block.seal_into(&mut out);
        }
    }
    block.seal_into(&mut out);
    push_block(&mut out, BLOCK_END, |payload| {
        put_u64(payload, trace.len() as u64)
    });
    out
}

/// Appends one length-prefixed, checksummed block whose payload `fill`
/// writes in place.
fn push_block(out: &mut Vec<u8>, kind: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    out.push(kind);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    fill(out);
    let payload = &out[len_at + 4..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The open event block: its encoded events, which follow the event
/// count once the block is sealed.
struct EventBlock {
    bytes: Vec<u8>,
    events: u64,
    /// Delta baseline for the open block.
    prev_id: u64,
}

impl EventBlock {
    /// Encodes the next id as a zigzag delta against the running
    /// baseline, then advances the baseline.
    fn put_id(&mut self, id: ObjectId) {
        let delta = id.raw().wrapping_sub(self.prev_id) as i64;
        put_u64(&mut self.bytes, zigzag(delta));
        self.prev_id = id.raw();
    }

    /// Appends one event.
    fn push(&mut self, ev: &Event) {
        match ev {
            Event::Create { id, size, slots } => {
                self.bytes.push(TAG_CREATE);
                self.put_id(*id);
                put_u64(&mut self.bytes, u64::from(*size));
                put_u64(&mut self.bytes, slots.len() as u64);
                let bitmap = self.bytes.len();
                self.bytes.resize(bitmap + slots.len().div_ceil(8), 0);
                for (i, slot) in slots.iter().enumerate() {
                    if slot.is_some() {
                        self.bytes[bitmap + i / 8] |= 1 << (i % 8);
                    }
                }
                for slot in slots.iter().flatten() {
                    self.put_id(*slot);
                }
            }
            Event::Access { id } => {
                self.bytes.push(TAG_ACCESS);
                self.put_id(*id);
            }
            Event::SlotWrite { src, slot, new } => {
                match new {
                    Some(_) => self.bytes.push(TAG_SLOT_WRITE_SOME),
                    None => self.bytes.push(TAG_SLOT_WRITE_NULL),
                }
                self.put_id(*src);
                put_u64(&mut self.bytes, u64::from(slot.raw()));
                if let Some(new) = new {
                    self.put_id(*new);
                }
            }
            Event::RootAdd { id } => {
                self.bytes.push(TAG_ROOT_ADD);
                self.put_id(*id);
            }
            Event::RootRemove { id } => {
                self.bytes.push(TAG_ROOT_REMOVE);
                self.put_id(*id);
            }
            Event::Phase { id } => {
                self.bytes.push(TAG_PHASE);
                put_u64(&mut self.bytes, u64::from(id.raw()));
            }
        }
        self.events += 1;
    }

    /// Writes the block, if it holds any event, as an event block on
    /// `out` and empties it for the next.
    fn seal_into(&mut self, out: &mut Vec<u8>) {
        if self.events == 0 {
            return;
        }
        push_block(out, BLOCK_EVENTS, |payload| {
            put_u64(payload, self.events);
            payload.extend_from_slice(&self.bytes);
        });
        self.bytes.clear();
        self.events = 0;
        self.prev_id = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::TraceBuilder;

    #[test]
    fn header_layout_is_stable() {
        let out = encode(&Trace::default());
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
        let bytes = encode(&t);
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
        let mut b = TraceBuilder::new();
        b.access(ObjectId::new(5));
        // The count is what the end block declares.
        let bytes = encode(&b.finish());
        let end = &bytes[bytes.len() - 4 - 1..bytes.len() - 4];
        assert_eq!(end, [1]);
    }
}
