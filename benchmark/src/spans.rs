//! Spans recorded by the traced run, around the calls into each layer.
//!
//! The program under test carries no tracing of its own yet, so every
//! span here is opened and closed from the benchmark's files. Spans are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `parent` is the span that was open when this
/// one started; `rep` tells passes over the same workload apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rep: u32,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// An in-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Labels the spans that follow with pass number `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is charged to
        // the parent and not to this span.
        self.spans[id as usize].start_ns = self.ns(Instant::now());
        SpanId(id)
    }

    /// Closes a span; spans close in the reverse of the order they
    /// opened.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id.0), "spans must nest");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Records an interval the caller timed itself: a root span, or a
    /// child of `parent` (which may already be closed).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.map(|p| p.0),
            rep: self.rep,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Durations of every span called `name` in pass `rep`, in
    /// nanoseconds, in the order recorded.
    pub fn durations(&self, name: &str, rep: u32) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time per span name within pass `rep`: each span's duration
    /// minus the part its direct children cover. Because children nest
    /// inside their parent, the self times of a pass add up to the
    /// durations of its root spans.
    pub fn self_times(&self, rep: u32) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let covered = span.end_ns - span.start_ns;
                own[parent as usize] = own[parent as usize].saturating_sub(covered);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            if span.rep == rep {
                *by_name.entry(span.name).or_insert(0) += own;
            }
        }
        by_name
    }

    /// Total duration of the root spans of pass `rep`.
    pub fn root_time(&self, rep: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as `{"spans": [{name, start_ns, end_ns,
    /// parent, rep}, ...]}`.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("rep", Json::Num(f64::from(s.rep))),
                ])
            })
            .collect();
        let doc = Json::obj([("spans", Json::Arr(spans))]);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let root = t.enter("root");
        let a = t.enter("child");
        let leaf = t.enter("leaf");
        t.exit(leaf);
        t.exit(a);
        let before = Instant::now();
        let after = Instant::now();
        t.exit(root);
        t.record("child", before, after, Some(root));

        let spans = &t.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0), "recorded under the named span");
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));

        let own = t.self_times(3);
        let total: u64 = own.values().sum();
        assert_eq!(total, t.root_time(3), "self times partition the root");
        assert_eq!(t.durations("child", 3).len(), 2);
        assert!(t.self_times(0).is_empty());
    }
}
