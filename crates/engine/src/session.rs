//! The mutator-facing handle onto an engine.
//!
//! A [`Session`] is a client's handle onto a [`StoreEngine`]: it applies
//! events through [`Session::apply_event`] — the engine's one apply
//! path, the same the replay loop takes — and names itself in every
//! error. [`apply_ops`](crate::serve::apply_ops) maps served operations
//! onto it.

use odbgc_store::{ApplyOutcome, StoreError};
use odbgc_trace::Event;

use crate::engine::StoreEngine;
use crate::observer::DecisionLog;

/// Identifier of one client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u32);

impl SessionId {
    /// Wraps a raw session id.
    pub const fn new(raw: u32) -> Self {
        SessionId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// A failed session operation: which session, and the store's complaint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpError {
    /// The session whose operation failed.
    pub session: SessionId,
    /// The store's complaint.
    pub cause: StoreError,
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.session, self.cause)
    }
}

impl std::error::Error for OpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// A client's handle onto an engine.
///
/// Holds the engine mutably for its lifetime: one session operates at a
/// time per engine, which is the serialization a shard's single owner
/// provides.
pub struct Session<'e, P: odbgc_core::RatePolicy = Box<dyn odbgc_core::RatePolicy + Send>> {
    id: SessionId,
    pub(crate) engine: &'e mut StoreEngine<P>,
    log: Option<&'e mut DecisionLog>,
}

impl<'e, P: odbgc_core::RatePolicy> Session<'e, P> {
    pub(crate) fn new(
        id: SessionId,
        engine: &'e mut StoreEngine<P>,
        log: Option<&'e mut DecisionLog>,
    ) -> Self {
        Session { id, engine, log }
    }

    /// Applies one event through [`StoreEngine::apply_event`], reporting
    /// to this session's log.
    pub fn apply_event(&mut self, ev: &Event) -> Result<ApplyOutcome, OpError> {
        let session = self.id;
        self.engine
            .apply_event(ev, self.log.as_deref_mut())
            .map_err(|cause| OpError { session, cause })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::serve::{apply_ops, ObjRef, SessionObjects, SessionOp, TurnApplied, TurnErrorKind};
    use odbgc_core::FixedRatePolicy;
    use odbgc_trace::{ObjectId, SlotIdx};

    fn engine(rate: u64) -> StoreEngine {
        StoreEngine::new(EngineConfig::tiny(), Box::new(FixedRatePolicy::new(rate)))
    }

    #[test]
    fn typed_ops_round_trip() {
        // One op per turn, so each turn reports what its op did.
        let mut e = engine(1_000_000);
        let mut objects = SessionObjects::new();
        let (anchor, child) = (ObjRef(0), ObjRef(1));
        let link = |target| SessionOp::Overwrite {
            obj: anchor,
            slot: 0,
            target,
        };
        // (op, objects created, garbage created, overwrite clock after)
        let steps = [
            (SessionOp::Create { size: 40, slots: 2 }, 1, 0, 0),
            (SessionOp::AddRoot { obj: anchor }, 0, 0, 0),
            (SessionOp::Create { size: 64, slots: 0 }, 1, 0, 0),
            // The initial store of a null slot is not an overwrite.
            (link(Some(child)), 0, 0, 0),
            (SessionOp::Access { obj: child }, 0, 0, 0),
            (link(None), 0, 64, 1),
            (SessionOp::RemoveRoot { obj: anchor }, 0, 40, 1),
        ];
        let mut s = e.session_with(SessionId::new(3), None);
        for (op, created, garbage_created, clock) in steps {
            let applied = apply_ops(&mut s, &mut objects, &[op]).expect("op applies");
            let want = TurnApplied {
                applied: 1,
                created,
                garbage_created,
            };
            assert_eq!(applied, want, "{op:?}");
            assert_eq!(s.engine.store().overwrite_clock(), clock, "{op:?}");
        }
        assert_eq!(objects.created_count(), 2);
        assert_eq!(e.store().garbage_bytes(), 104);
        assert_eq!(e.events_applied(), 7);
    }

    #[test]
    fn op_errors_name_the_session() {
        let mut e = engine(1_000_000);
        let mut s = e.session_with(SessionId::new(9), None);
        let err = s
            .apply_event(&Event::Access {
                id: ObjectId::new(12345),
            })
            .unwrap_err();
        assert_eq!(err.session, SessionId::new(9));
        assert!(err.to_string().contains("session 9"));

        // A served op the store refuses carries the same error, at its
        // index in the turn.
        let root = SessionOp::AddRoot { obj: ObjRef(0) };
        let ops = [SessionOp::Create { size: 40, slots: 0 }, root, root];
        let err = apply_ops(&mut s, &mut SessionObjects::new(), &ops).unwrap_err();
        assert_eq!(err.op_index, 2);
        assert!(
            matches!(&err.kind, TurnErrorKind::Op(op) if op.session == SessionId::new(9)),
            "{err:?}"
        );
        assert!(err.to_string().starts_with("op 2: session 9: "), "{err}");
    }

    #[test]
    fn apply_batch_matches_per_event_loop() {
        // A workload long enough to cross a collection trigger, applied
        // in turns with due collections drained between them, so the
        // batch is exercised across collection boundaries, not just
        // plain applies.
        let mut events = Vec::new();
        let mut ids = Vec::new();
        for i in 0..40u32 {
            let id = ObjectId::new(u64::from(i) + 1);
            ids.push(id);
            events.push(Event::Create {
                id,
                size: 32 + i,
                slots: vec![None; 2].into_boxed_slice(),
            });
        }
        for &id in &ids[..8] {
            events.push(Event::RootAdd { id });
        }
        for (i, &id) in ids[..8].iter().enumerate() {
            events.push(Event::SlotWrite {
                src: id,
                slot: SlotIdx::new(0),
                new: Some(ids[8 + i]),
            });
        }
        for &id in &ids[..8] {
            events.push(Event::SlotWrite {
                src: id,
                slot: SlotIdx::new(0),
                new: None,
            });
        }
        events.push(Event::Access { id: ids[0] });
        events.push(Event::RootRemove { id: ids[0] });

        let mut by_event = engine(4);
        let mut event_log = DecisionLog::default();
        let mut by_batch = engine(4);
        let mut batch_log = DecisionLog::default();
        for turn in events.chunks(8) {
            let mut s = by_event.session_with(SessionId::new(1), None);
            for ev in turn {
                s.apply_event(ev).expect("per-event apply");
            }
            while by_event.collect_if_due(Some(&mut event_log)).is_some() {}
            by_batch.apply_batch(turn, None).expect("batched apply");
            while by_batch.collect_if_due(Some(&mut batch_log)).is_some() {}
        }

        assert!(by_batch.collection_count() > 0, "the batch collects");
        assert_eq!(by_event.counters(), by_batch.counters());
        assert_eq!(
            format!("{:?}", event_log.decisions),
            format!("{:?}", batch_log.decisions)
        );
        assert_eq!(
            by_event.into_result(Vec::new()),
            by_batch.into_result(Vec::new())
        );
    }
}
