//! Summary statistics over a trace.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::trace::Trace;

/// Census of a trace: event counts per kind, overall and per phase, plus
/// allocation volume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events per kind.
    pub by_kind: BTreeMap<EventKind, u64>,
    /// Per-phase `(phase name, per-kind counts)` in order of first
    /// occurrence. Events before the first phase marker fall into a
    /// synthetic `"<pre>"` phase.
    pub by_phase: Vec<(String, BTreeMap<EventKind, u64>)>,
    /// Total bytes allocated by `Create` events.
    pub bytes_allocated: u64,
    /// Number of distinct objects created.
    pub objects_created: u64,
    /// Total slot-write events (upper bound on pointer overwrites; the true
    /// overwrite count depends on replay state).
    pub slot_writes: u64,
}

impl TraceStats {
    /// Computes statistics for `trace`.
    pub fn of(trace: &Trace) -> TraceStats {
        let mut stats = TraceStats::default();
        for ev in trace {
            stats.add(ev, trace.phase_names());
        }
        stats
    }

    /// Counts one more event, so a census can be taken block by block
    /// without a whole [`Trace`]. A phase marker opens a new per-phase
    /// row named from `phase_names`, the trace's side table in id order.
    pub fn add(&mut self, ev: &Event, phase_names: &[String]) {
        if let Event::Phase { id } = ev {
            let name = phase_names
                .get(id.index())
                .map_or("<unknown>", String::as_str);
            self.by_phase.push((name.to_owned(), BTreeMap::new()));
        } else if self.by_phase.is_empty() {
            self.by_phase.push(("<pre>".to_owned(), BTreeMap::new()));
        }
        *self.by_kind.entry(ev.kind()).or_insert(0) += 1;
        let (_, phase) = self.by_phase.last_mut().expect("a row was just ensured");
        *phase.entry(ev.kind()).or_insert(0) += 1;
        match ev {
            Event::Create { size, .. } => {
                self.bytes_allocated += u64::from(*size);
                self.objects_created += 1;
            }
            Event::SlotWrite { .. } => self.slot_writes += 1,
            _ => {}
        }
    }

    /// Count of events of one kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Total number of events.
    pub fn total(&self) -> u64 {
        self.by_kind.values().sum()
    }

    /// Mean created-object size in bytes, or 0 if nothing was created.
    pub fn mean_object_size(&self) -> f64 {
        if self.objects_created == 0 {
            0.0
        } else {
            self.bytes_allocated as f64 / self.objects_created as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotIdx;
    use crate::trace::TraceBuilder;

    #[test]
    fn counts_by_kind_and_phase() {
        let mut b = TraceBuilder::new();
        let pre = b.create_unlinked(100, 1); // before any phase
        b.phase("GenDB");
        let a = b.create_unlinked(50, 1);
        b.slot_write(a, SlotIdx::new(0), Some(pre));
        b.phase("Reorg1");
        b.access(a);
        b.access(pre);
        let t = b.finish();
        let s = t.stats();

        assert_eq!(s.count(EventKind::Create), 2);
        assert_eq!(s.count(EventKind::Access), 2);
        assert_eq!(s.count(EventKind::SlotWrite), 1);
        assert_eq!(s.count(EventKind::Phase), 2);
        assert_eq!(s.total(), 7);
        assert_eq!(s.objects_created, 2);
        assert_eq!(s.bytes_allocated, 150);
        assert!((s.mean_object_size() - 75.0).abs() < 1e-9);

        assert_eq!(s.by_phase.len(), 3);
        assert_eq!(s.by_phase[0].0, "<pre>");
        assert_eq!(s.by_phase[1].0, "GenDB");
        assert_eq!(s.by_phase[2].0, "Reorg1");
        assert_eq!(s.by_phase[0].1[&EventKind::Create], 1);
        assert_eq!(s.by_phase[1].1[&EventKind::SlotWrite], 1);
        assert_eq!(s.by_phase[2].1[&EventKind::Access], 2);
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::default().stats();
        assert_eq!(s.total(), 0);
        assert_eq!(s.mean_object_size(), 0.0);
        assert!(s.by_phase.is_empty());
    }
}
