//! The trace container and its builder.

use crate::event::Event;
use crate::ids::{IdGen, ObjectId, PhaseId, SlotIdx};
use crate::stats::TraceStats;

/// An immutable, replayable sequence of database events plus the phase-name
/// side table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<Event>,
    phase_names: Vec<String>,
}

impl Trace {
    /// The event sequence.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name of a phase id, if registered.
    pub fn phase_name(&self, id: PhaseId) -> Option<&str> {
        self.phase_names.get(id.index()).map(String::as_str)
    }

    /// All registered phase names in id order.
    pub fn phase_names(&self) -> &[String] {
        &self.phase_names
    }

    /// Iterates events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(self)
    }

    /// Assembles a trace from parts. The codec uses this; generators should
    /// prefer [`TraceBuilder`].
    ///
    /// # Panics
    ///
    /// If a `Phase` event's id is at or past the end of `phase_names`:
    /// such a trace has no phase for that event, and the tracefile decoder
    /// refuses its encoding.
    pub fn from_parts(events: Vec<Event>, phase_names: Vec<String>) -> Self {
        for (i, ev) in events.iter().enumerate() {
            if let Event::Phase { id } = ev {
                assert!(
                    id.index() < phase_names.len(),
                    "event {i}: phase id {} is past the {}-entry phase table",
                    id.raw(),
                    phase_names.len()
                );
            }
        }
        Trace {
            events,
            phase_names,
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Incrementally records events into a [`Trace`].
///
/// The builder owns the trace's [`IdGen`] so generated object ids are dense
/// and deterministic, and offers one convenience method per event kind.
///
/// ```
/// use odbgc_trace::{SlotIdx, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// b.phase("setup");
/// let root = b.create_unlinked(64, 1); // 64 bytes, one pointer slot
/// b.root_add(root);
/// let child = b.create_unlinked(32, 0);
/// b.slot_write(root, SlotIdx::new(0), Some(child));
/// b.slot_clear(root, SlotIdx::new(0)); // detaches child
/// let trace = b.finish();
/// assert_eq!(trace.len(), 6);
/// assert_eq!(trace.phase_names(), &["setup"]);
/// ```
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Event>,
    phase_names: Vec<String>,
    ids: IdGen,
}

impl TraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Pre-allocates capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        TraceBuilder {
            events: Vec::with_capacity(n),
            ..TraceBuilder::default()
        }
    }

    /// Creates an object with the given size and slot contents, returning
    /// its fresh id.
    pub fn create(&mut self, size: u32, slots: Vec<Option<ObjectId>>) -> ObjectId {
        let id = self.ids.fresh();
        self.events.push(Event::Create {
            id,
            size,
            slots: slots.into_boxed_slice(),
        });
        id
    }

    /// Creates an object whose `n` slots are all initially null.
    pub fn create_unlinked(&mut self, size: u32, n_slots: usize) -> ObjectId {
        self.create(size, vec![None; n_slots])
    }

    /// Records a read-only access.
    pub fn access(&mut self, id: ObjectId) {
        self.events.push(Event::Access { id });
    }

    /// Records a pointer store `src.slots[slot] = new`.
    pub fn slot_write(&mut self, src: ObjectId, slot: SlotIdx, new: Option<ObjectId>) {
        self.events.push(Event::SlotWrite { src, slot, new });
    }

    /// Records a pointer kill `src.slots[slot] = null`.
    pub fn slot_clear(&mut self, src: ObjectId, slot: SlotIdx) {
        self.slot_write(src, slot, None);
    }

    /// Adds an object to the root set.
    pub fn root_add(&mut self, id: ObjectId) {
        self.events.push(Event::RootAdd { id });
    }

    /// Removes an object from the root set.
    pub fn root_remove(&mut self, id: ObjectId) {
        self.events.push(Event::RootRemove { id });
    }

    /// Starts a named phase, registering the name if new, and returns its id.
    pub fn phase(&mut self, name: &str) -> PhaseId {
        let id = match self.phase_names.iter().position(|n| n == name) {
            Some(i) => PhaseId::new(i as u16),
            None => {
                assert!(
                    self.phase_names.len() < u16::MAX as usize,
                    "event {}: phase {name:?} does not fit the full {}-entry phase table",
                    self.events.len(),
                    self.phase_names.len()
                );
                self.phase_names.push(name.to_owned());
                PhaseId::new((self.phase_names.len() - 1) as u16)
            }
        };
        self.events.push(Event::Phase { id });
        id
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes recording.
    pub fn finish(self) -> Trace {
        Trace {
            events: self.events,
            phase_names: self.phase_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(16, 0);
        let c = b.create(8, vec![Some(a)]);
        assert_eq!(a.raw(), 0);
        assert_eq!(c.raw(), 1);
        let t = b.finish();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn phase_names_are_interned() {
        let mut b = TraceBuilder::new();
        let p1 = b.phase("GenDB");
        let p2 = b.phase("Reorg1");
        let p1_again = b.phase("GenDB");
        assert_eq!(p1, p1_again);
        assert_ne!(p1, p2);
        let t = b.finish();
        assert_eq!(t.phase_name(p1), Some("GenDB"));
        assert_eq!(t.phase_name(p2), Some("Reorg1"));
        assert_eq!(t.phase_names().len(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn events_replay_in_order() {
        let mut b = TraceBuilder::new();
        let a = b.create_unlinked(10, 2);
        b.root_add(a);
        b.access(a);
        b.slot_clear(a, SlotIdx::new(0));
        b.root_remove(a);
        let t = b.finish();
        let kinds: Vec<_> = t.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Create,
                EventKind::RootAdd,
                EventKind::Access,
                EventKind::SlotWrite,
                EventKind::RootRemove,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "event 1: phase id 3 is past the 1-entry phase table")]
    fn from_parts_refuses_a_phase_id_past_the_table() {
        let events = vec![
            Event::Phase {
                id: PhaseId::new(0),
            },
            Event::Phase {
                id: PhaseId::new(3),
            },
        ];
        Trace::from_parts(events, vec!["a".into()]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn into_iterator_for_ref() {
        let mut b = TraceBuilder::new();
        b.create_unlinked(1, 0);
        let t = b.finish();
        let mut n = 0;
        for _e in &t {
            n += 1;
        }
        assert_eq!(n, 1);
    }
}
