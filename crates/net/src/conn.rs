//! Per-connection state for the event-loop server: partial-frame
//! reassembly, a buffered write side, and the session binding.
//!
//! A loop thread never blocks on a socket, so a connection must absorb
//! whatever fraction of a frame the kernel delivers and carry the rest
//! across poll iterations:
//!
//! * [`FrameAssembler`] buffers raw received bytes and yields complete,
//!   CRC-verified frame bodies — a frame split at *any* byte boundary
//!   reassembles to exactly what a blocking [`read_frame_into`] of the same
//!   bytes would return (the property test in `tests/net_event_loop.rs`
//!   proves this for every boundary).
//! * The write side is a plain buffer of fully framed responses; a short
//!   write leaves the tail for the next `POLLOUT`. While more than
//!   [`OUT_HIGH_WATER`] bytes of it are unflushed the connection stops
//!   reading and decoding requests, so a peer that never reads its
//!   replies is held to a bounded buffer, not served without limit.
//!
//! The protocol phases are `Hello → Ready → Draining`. A fresh
//! connection is unbound (`session == None`; admin requests are legal
//! there too) until a `Hello` binds it to a session, which moves it to
//! the loop that owns the session's shard. From then on each request is
//! handled as soon as it is decoded, a turn included, so the
//! credit-window arithmetic is the blocking server's strict
//! request/response ordering. `Draining` is the `close_after_flush`
//! flag: flush buffered responses, then close.
//!
//! [`read_frame_into`]: crate::proto::read_frame_into

use std::net::TcpStream;
use std::time::Instant;

use odbgc_engine::SessionObjects;

use crate::proto::{ClientCounters, ProtoError, MAX_FRAME};
use odbgc_tracefile::crc32::crc32;

/// Unflushed response bytes above which a connection stops reading and
/// decoding requests until `POLLOUT` drains it back under. One response
/// is at most a frame, so the buffer itself stays under this plus
/// `MAX_FRAME`.
pub(crate) const OUT_HIGH_WATER: usize = 2 * MAX_FRAME as usize;

/// Reassembles length-prefixed, CRC-trailed frames from arbitrarily
/// split byte deliveries.
///
/// Feed received bytes with [`FrameAssembler::extend`]; pull complete
/// frame bodies with [`FrameAssembler::next_frame`]. Errors are sticky
/// in practice — a length-bound or CRC failure means the stream is out
/// of sync and the caller closes the connection, exactly as the
/// blocking reader treats the same corruption.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends freshly received bytes, first compacting away anything
    /// already consumed so the buffer's footprint tracks the unconsumed
    /// tail, not the connection's lifetime traffic.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete frame body, if one is fully buffered.
    ///
    /// `Ok(None)` means more bytes are needed (a partial frame is fine
    /// and stays buffered). Errors mirror [`read_frame_into`]: an oversized
    /// length prefix or a CRC mismatch, both fatal to the stream.
    ///
    /// [`read_frame_into`]: crate::proto::read_frame_into
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME {
            return Err(ProtoError::TooLarge(len));
        }
        let need = 8 + len as usize;
        if avail < need {
            return Ok(None);
        }
        let body_start = self.start + 4;
        let body_end = body_start + len as usize;
        let crc_bytes: [u8; 4] = self.buf[body_end..body_end + 4]
            .try_into()
            .expect("4-byte slice");
        let want = u32::from_le_bytes(crc_bytes);
        let got = crc32(&self.buf[body_start..body_end]);
        if got != want {
            return Err(ProtoError::Crc { got, want });
        }
        self.start += need;
        Ok(Some(&self.buf[body_start..body_end]))
    }
}

/// One event-loop connection: the non-blocking stream plus everything a
/// loop thread needs to resume it mid-frame or mid-write, or to hand it
/// to another loop.
pub(crate) struct Connection {
    pub(crate) stream: TcpStream,
    pub(crate) assembler: FrameAssembler,
    /// Fully framed response bytes not yet accepted by the kernel.
    pub(crate) out: Vec<u8>,
    /// How much of `out` has been written.
    pub(crate) out_pos: usize,
    /// Close once `out` is flushed (the `Draining` phase).
    pub(crate) close_after_flush: bool,
    pub(crate) session: Option<u32>,
    pub(crate) shard: u32,
    pub(crate) window: u64,
    pub(crate) in_flight: u64,
    /// The session's creation-index map.
    pub(crate) objects: SessionObjects,
    pub(crate) counters: ClientCounters,
    pub(crate) last_activity: Instant,
    /// The owning loop's collection-time total when this connection's
    /// previous turn reply was queued; the next turn's `gc_stall_ns` is
    /// what the loop has spent collecting since.
    pub(crate) gc_mark: u64,
}

impl Connection {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Connection {
        Connection {
            stream,
            assembler: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            session: None,
            shard: 0,
            window: 1,
            in_flight: 0,
            objects: SessionObjects::new(),
            counters: ClientCounters {
                session: u32::MAX,
                ..ClientCounters::default()
            },
            last_activity: now,
            gc_mark: 0,
        }
    }

    /// Bytes queued for writing but not yet accepted by the kernel.
    pub(crate) fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether the next request may be read and decoded now: not
    /// closing, and the peer is keeping up with its replies.
    pub(crate) fn accepting(&self) -> bool {
        !self.close_after_flush && self.out_pending() <= OUT_HIGH_WATER
    }

    /// Pushes buffered response bytes to the socket until done or the
    /// kernel pushes back. Returns `Ok(true)` when the buffer drained,
    /// `Ok(false)` on a short write (`POLLOUT` will resume it).
    pub(crate) fn flush_out(&mut self) -> std::io::Result<bool> {
        use std::io::Write;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Drop the written prefix once it is the larger
                    // half, so a peer that reads slowly but never
                    // catches up cannot grow `out` with its traffic.
                    if self.out_pos >= self.out.len() / 2 {
                        self.out.drain(..self.out_pos);
                        self.out_pos = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::frame_into;

    #[test]
    fn assembler_handles_whole_and_partial_frames() {
        let mut wire = Vec::new();
        frame_into(&mut wire, b"alpha");
        frame_into(&mut wire, b"beta");

        // Whole delivery: both frames pop out in order.
        let mut a = FrameAssembler::new();
        a.extend(&wire);
        assert_eq!(a.next_frame().unwrap(), Some(&b"alpha"[..]));
        assert_eq!(a.next_frame().unwrap(), Some(&b"beta"[..]));
        assert_eq!(a.next_frame().unwrap(), None);
        assert_eq!(a.pending(), 0);

        // One-byte trickle: nothing surfaces until a frame completes.
        let mut b = FrameAssembler::new();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        for byte in &wire {
            b.extend(std::slice::from_ref(byte));
            while let Some(frame) = b.next_frame().unwrap() {
                seen.push(frame.to_vec());
            }
        }
        assert_eq!(seen, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    }

    #[test]
    fn assembler_rejects_oversized_and_corrupt_frames() {
        let mut oversized = FrameAssembler::new();
        oversized.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            oversized.next_frame(),
            Err(ProtoError::TooLarge(_))
        ));

        let mut wire = Vec::new();
        frame_into(&mut wire, b"payload");
        wire[5] ^= 0x10; // flip a body bit
        let mut corrupt = FrameAssembler::new();
        corrupt.extend(&wire);
        assert!(matches!(corrupt.next_frame(), Err(ProtoError::Crc { .. })));
    }

    #[test]
    fn assembler_compacts_consumed_bytes() {
        let mut a = FrameAssembler::new();
        for i in 0..100u8 {
            let mut wire = Vec::new();
            frame_into(&mut wire, &[i; 16]);
            a.extend(&wire);
            assert_eq!(a.next_frame().unwrap(), Some(&[i; 16][..]));
        }
        // Consumed frames must not accumulate in the buffer.
        assert_eq!(a.pending(), 0);
        assert!(
            a.buf.len() <= 24 + 8,
            "buffer grew past one frame: {}",
            a.buf.len()
        );
    }
}
