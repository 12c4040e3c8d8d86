//! A line-oriented text rendering of traces.
//!
//! One event per line; phase names are declared up front. This is an
//! output form only — what `odbgc trace cat` prints and what a diff of
//! two traces reads — and there is no parser for it: the one on-disk
//! trace format is the `OTBF` tracefile of `odbgc-tracefile`.
//!
//! ```text
//! odbgc-trace v1
//! phases GenDB Reorg1
//! c 0 128 3 _ _ _        # Create id=0 size=128 slots=[null,null,null]
//! c 1 64 1 0              # Create id=1 size=64 slots=[o0]
//! w 1 0 _                 # SlotWrite src=1 slot=0 new=null
//! a 0                     # Access id=0
//! r+ 0                    # RootAdd
//! r- 0                    # RootRemove
//! ph 1                    # Phase Reorg1
//! ```

use std::fmt::Write as _;

use crate::event::Event;
use crate::trace::Trace;

/// Renders a trace in the text format.
///
/// ```
/// use odbgc_trace::{codec, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let a = b.create_unlinked(16, 0);
/// b.root_add(a);
/// let trace = b.finish();
/// assert_eq!(codec::encode(&trace), "odbgc-trace v1\nc 0 16 0\nr+ 0\n");
/// ```
pub fn encode(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 12 + 64);
    out.push_str(&encode_header(trace.phase_names()));
    for ev in trace.iter() {
        encode_event(&mut out, ev);
    }
    out
}

/// The text-format preamble: the version line plus the `phases`
/// declaration (omitted when there are no phases). Streaming writers
/// emit this once, then [`encode_event`] per event; the concatenation is
/// byte-identical to [`encode`].
pub fn encode_header(phase_names: &[String]) -> String {
    let mut out = String::from("odbgc-trace v1\n");
    if !phase_names.is_empty() {
        out.push_str("phases");
        for name in phase_names {
            debug_assert!(
                !name.contains(char::is_whitespace),
                "phase names must be whitespace-free"
            );
            out.push(' ');
            out.push_str(name);
        }
        out.push('\n');
    }
    out
}

/// Appends one event as its text-format line (including the newline).
pub fn encode_event(out: &mut String, ev: &Event) {
    match ev {
        Event::Create { id, size, slots } => {
            let _ = write!(out, "c {} {} {}", id.raw(), size, slots.len());
            for s in slots.iter() {
                match s {
                    Some(t) => {
                        let _ = write!(out, " {}", t.raw());
                    }
                    None => out.push_str(" _"),
                }
            }
            out.push('\n');
        }
        Event::Access { id } => {
            let _ = writeln!(out, "a {}", id.raw());
        }
        Event::SlotWrite { src, slot, new } => match new {
            Some(t) => {
                let _ = writeln!(out, "w {} {} {}", src.raw(), slot.raw(), t.raw());
            }
            None => {
                let _ = writeln!(out, "w {} {} _", src.raw(), slot.raw());
            }
        },
        Event::RootAdd { id } => {
            let _ = writeln!(out, "r+ {}", id.raw());
        }
        Event::RootRemove { id } => {
            let _ = writeln!(out, "r- {}", id.raw());
        }
        Event::Phase { id } => {
            let _ = writeln!(out, "ph {}", id.raw());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotIdx;
    use crate::trace::TraceBuilder;

    #[test]
    fn renders_every_event_kind_one_line_each() {
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
        assert_eq!(
            encode(&b.finish()),
            "odbgc-trace v1\n\
             phases GenDB Reorg1\n\
             ph 0\n\
             c 0 128 3 _ _ _\n\
             c 1 64 2 0 _\n\
             r+ 0\n\
             a 1\n\
             w 1 1 0\n\
             w 1 0 _\n\
             ph 1\n\
             r- 0\n"
        );
    }

    #[test]
    fn streamed_header_and_events_equal_the_whole_rendering() {
        let mut b = TraceBuilder::new();
        b.phase("Traverse");
        let a = b.create_unlinked(8, 1);
        b.access(a);
        let trace = b.finish();
        let mut streamed = encode_header(trace.phase_names());
        for ev in trace.iter() {
            encode_event(&mut streamed, ev);
        }
        assert_eq!(streamed, encode(&trace));
        assert_eq!(encode(&Trace::default()), "odbgc-trace v1\n");
    }
}
