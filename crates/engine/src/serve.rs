//! In-process multi-session serve mode, and the [`Shard`] the network
//! front-end (`odbgc-net`) runs turns on.
//!
//! A [`Shard`] is one store, collector and policy (a [`StoreEngine`]),
//! its decision log, and a failure latch. It is a plain owned value
//! with exactly one owner per mode: [`serve`] holds its shards on the
//! calling thread; in `odbgc-net` each shard moves into the event loop
//! that serves its connections. The owner
//! applies one turn of operations ([`Shard::turn`]) and then drains
//! every due collection ([`Shard::collect_due`]) before it starts the
//! shard's next turn — the order the paper's simulator uses between two
//! application events — so collections land at deterministic points in
//! each shard's operation stream with no lock, flag or second thread to
//! enforce it.
//!
//! Operations are plain data ([`SessionOp`]) that name objects by
//! *creation index* within the issuing session ([`ObjRef`]), not by raw
//! [`ObjectId`]. That makes an operation stream a pure function of its
//! seed — generators never need to see store-assigned ids — and is what
//! lets the same [`SessionWorkload`] drive the in-process scheduler here
//! and the wire protocol in `odbgc-net` with identical semantics.
//! [`apply_ops`] turns each operation into the trace [`Event`] it stands
//! for, so a served operation and a replayed event take one path.
//!
//! Failure is typed, never a panic cascade: turns and collections run
//! under `catch_unwind`; a panic in either is captured with its payload
//! and latches the shard failed — every later turn on it returns a
//! [`ServeError`] naming the panic and its engine is not touched again —
//! while every other shard keeps serving and drains cleanly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use odbgc_core::RatePolicy;
use odbgc_trace::{Event, ObjectId, SlotIdx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::EngineConfig;
use crate::engine::StoreEngine;
use crate::observer::{DecisionLog, DecisionRecord};
use crate::result::RunResult;
use crate::session::{OpError, Session, SessionId};

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

/// Parameters of the synthetic mutator workload each session runs.
///
/// Sessions build small object graphs: rooted *anchor* objects whose
/// pointer slots are linked to freshly created children, relinked
/// (overwriting the old pointer, creating garbage), cleared, and
/// navigated. Session `i` draws from an RNG seeded `seed + i`, so the
/// whole workload is a pure function of the configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// Base RNG seed; session `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams { seed: 0xD15EA5E }
    }
}

/// Size of each rooted anchor object, bytes.
const ANCHOR_SIZE: u32 = 64;
/// Pointer slots per anchor.
const ANCHOR_SLOTS: u32 = 4;
/// Size of each linked child object, bytes.
const CHILD_SIZE: u32 = 48;

/// A session-local object name: the index of the object in the order the
/// session created it (0 = the session's first `Create`).
///
/// Operation streams address objects by creation index rather than by
/// store-assigned [`ObjectId`], so a stream can be generated — or sent
/// over a wire — without waiting for any response. The applier resolves
/// indices through the session's [`SessionObjects`] map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef(pub u64);

/// One mutator operation, as plain data.
///
/// This is the unit the serve scheduler, the network protocol, and the
/// workload generator all share. [`apply_ops`] applies each one as the
/// trace [`Event`] it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// Create a fresh object (`size` bytes, `slots` null pointer slots).
    /// The object becomes addressable as the session's next [`ObjRef`].
    Create {
        /// Object size in bytes.
        size: u32,
        /// Number of pointer slots.
        slots: u32,
    },
    /// Read an object (navigation; charges application I/O).
    Access {
        /// The object to read.
        obj: ObjRef,
    },
    /// Store a pointer: `obj.slots[slot] = target` (`None` clears).
    Overwrite {
        /// The object whose slot is written.
        obj: ObjRef,
        /// The slot index.
        slot: u32,
        /// The new pointee, or `None` to clear.
        target: Option<ObjRef>,
    },
    /// Add an object to the persistent root set.
    AddRoot {
        /// The object to pin.
        obj: ObjRef,
    },
    /// Remove an object from the persistent root set.
    RemoveRoot {
        /// The object to unpin.
        obj: ObjRef,
    },
}

/// One session's creation-index → [`ObjectId`] map, maintained by
/// [`apply_ops`] as `Create` operations execute.
#[derive(Debug, Default)]
pub struct SessionObjects {
    created: Vec<ObjectId>,
}

impl SessionObjects {
    /// An empty map for a fresh session.
    pub fn new() -> Self {
        SessionObjects::default()
    }

    /// Objects this session has created so far.
    pub fn created_count(&self) -> u64 {
        self.created.len() as u64
    }

    fn resolve(&self, r: ObjRef) -> Option<ObjectId> {
        self.created.get(r.0 as usize).copied()
    }
}

/// What applying one turn of operations did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TurnApplied {
    /// Operations applied.
    pub applied: u64,
    /// Objects created by this turn.
    pub created: u64,
    /// Bytes that became garbage as a direct consequence of this turn's
    /// overwrites and root removals.
    pub garbage_created: u64,
}

/// A turn failed at `op_index` (operations before it were applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurnError {
    /// Index of the failing operation within the submitted turn.
    pub op_index: usize,
    /// What went wrong.
    pub kind: TurnErrorKind,
}

/// Why an operation in a turn failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TurnErrorKind {
    /// The store rejected the operation.
    Op(OpError),
    /// The operation named a creation index the session has not reached
    /// (a malformed stream; on the wire path, a protocol error).
    UnknownRef {
        /// The out-of-range creation index.
        obj: u64,
        /// How many objects the session has actually created.
        created: u64,
    },
}

impl std::fmt::Display for TurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TurnErrorKind::Op(e) => write!(f, "op {}: {e}", self.op_index),
            TurnErrorKind::UnknownRef { obj, created } => write!(
                f,
                "op {}: unknown object ref {obj} (session created {created})",
                self.op_index
            ),
        }
    }
}

impl std::error::Error for TurnError {}

/// Applies one turn of operations through a session: each op becomes
/// the [`Event`] it stands for, applied by [`Session::apply_event`].
/// [`ObjRef`]s resolve via `objects`, which grows at every applied
/// `Create`; a create takes the store's next unused id
/// ([`Store::object_table_len`](odbgc_store::Store::object_table_len)),
/// so a refused create's id goes to the next one.
///
/// On failure the error carries the index of the offending operation;
/// everything before it has been applied and `objects` reflects the
/// applied prefix.
pub fn apply_ops<P: RatePolicy>(
    sess: &mut Session<'_, P>,
    objects: &mut SessionObjects,
    ops: &[SessionOp],
) -> Result<TurnApplied, TurnError> {
    let mut out = TurnApplied::default();
    for (op_index, op) in ops.iter().enumerate() {
        let fail = |kind| TurnError { op_index, kind };
        let resolve = |r: ObjRef| {
            objects.resolve(r).ok_or_else(|| {
                fail(TurnErrorKind::UnknownRef {
                    obj: r.0,
                    created: objects.created_count(),
                })
            })
        };
        let ev = match *op {
            SessionOp::Create { size, slots } => Event::Create {
                id: ObjectId::new(sess.engine.store().object_table_len()),
                size,
                slots: vec![None; slots as usize].into_boxed_slice(),
            },
            SessionOp::Access { obj } => Event::Access { id: resolve(obj)? },
            SessionOp::Overwrite { obj, slot, target } => Event::SlotWrite {
                src: resolve(obj)?,
                slot: SlotIdx::new(slot),
                new: target.map(resolve).transpose()?,
            },
            SessionOp::AddRoot { obj } => Event::RootAdd { id: resolve(obj)? },
            SessionOp::RemoveRoot { obj } => Event::RootRemove { id: resolve(obj)? },
        };
        let outcome = sess
            .apply_event(&ev)
            .map_err(|e| fail(TurnErrorKind::Op(e)))?;
        if let Event::Create { id, .. } = ev {
            objects.created.push(id);
            out.created += 1;
        }
        out.garbage_created += outcome.garbage_created;
        out.applied += 1;
    }
    Ok(out)
}

/// One session's workload generator: a pure function of
/// `(params.seed + session, ops)` that yields operations in whole-action
/// turns.
///
/// Every action is safe under deferred collection *between* turns:
/// composite actions (create a child, then link it reachable) are never
/// split across a turn boundary, so the collector never observes the
/// momentarily-unreachable child — and a turn never exceeds the
/// session's remaining operation budget, however the budget and the
/// batch size line up (the PR 6 batch-accounting guarantee, preserved
/// here for streams that cross a network backpressure boundary).
#[derive(Debug)]
pub struct SessionWorkload {
    rng: StdRng,
    /// Rooted anchors this session created, by creation index.
    anchors: Vec<ObjRef>,
    /// Objects generated so far (the next `Create`'s [`ObjRef`]).
    generated: u64,
    remaining: u64,
}

impl SessionWorkload {
    /// The generator for session `session` with an `ops` total budget.
    pub fn new(session: u32, params: WorkloadParams, ops: u64) -> Self {
        SessionWorkload {
            rng: StdRng::seed_from_u64(params.seed.wrapping_add(session as u64)),
            anchors: Vec::new(),
            generated: 0,
            remaining: ops,
        }
    }

    /// Operations left in this session's budget.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Generates the next turn: whole actions only, at most
    /// `batch` operations, never more than the remaining budget.
    /// Returns an empty vec when the budget is exhausted.
    pub fn next_turn(&mut self, batch: u64) -> Vec<SessionOp> {
        let mut ops = Vec::new();
        while (ops.len() as u64) < batch && self.remaining > 0 {
            let room = (batch - ops.len() as u64).min(self.remaining);
            let n = self.push_action(&mut ops, room);
            self.remaining -= n.min(self.remaining);
        }
        ops
    }

    /// Appends one action (1 or 2 operations, never more than `room`)
    /// and returns the number of operations appended.
    fn push_action(&mut self, ops: &mut Vec<SessionOp>, room: u64) -> u64 {
        let roll = self.rng.random_range(0u32..100);
        // Composite actions need room for both halves in this turn.
        if room >= 2 && (self.anchors.is_empty() || roll < 10) {
            // New rooted anchor.
            let a = ObjRef(self.generated);
            self.generated += 1;
            ops.push(SessionOp::Create {
                size: ANCHOR_SIZE,
                slots: ANCHOR_SLOTS,
            });
            ops.push(SessionOp::AddRoot { obj: a });
            self.anchors.push(a);
            return 2;
        }
        if self.anchors.is_empty() {
            // No anchors and no room for the composite: burn one op on
            // an unrooted create (immediate garbage — the collector's
            // job is exactly to find it).
            self.generated += 1;
            ops.push(SessionOp::Create {
                size: CHILD_SIZE,
                slots: 0,
            });
            return 1;
        }
        let anchor = self.anchors[self.rng.random_range(0..self.anchors.len())];
        if room >= 2 && roll < 45 {
            // Create a child and link it into a random anchor slot,
            // atomically within this turn. Overwriting an existing
            // pointer orphans the old child — garbage, by design.
            let c = ObjRef(self.generated);
            self.generated += 1;
            ops.push(SessionOp::Create {
                size: CHILD_SIZE,
                slots: 0,
            });
            ops.push(SessionOp::Overwrite {
                obj: anchor,
                slot: self.rng.random_range(0..ANCHOR_SLOTS),
                target: Some(c),
            });
            return 2;
        }
        if roll < 60 {
            // Clear a random slot (may orphan a child).
            ops.push(SessionOp::Overwrite {
                obj: anchor,
                slot: self.rng.random_range(0..ANCHOR_SLOTS),
                target: None,
            });
            return 1;
        }
        // Navigate: read a rooted anchor.
        ops.push(SessionOp::Access { obj: anchor });
        1
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A serve-mode failure, always typed — a panic on a shard is caught and
/// recovered into this, never re-thrown.
#[derive(Debug)]
pub struct ServeError {
    /// The shard the failure occurred on.
    pub shard: usize,
    /// What went wrong.
    pub kind: ServeErrorKind,
}

/// The ways a serve run can fail.
#[derive(Debug, Clone)]
pub enum ServeErrorKind {
    /// An operation of a turn failed: the store refused it, or it named
    /// an unknown creation index.
    Turn(TurnError),
    /// The shard panicked while collecting; the payload is captured here
    /// and the shard stops serving, while other shards continue.
    CollectPanic(String),
    /// The shard panicked while applying a turn; captured and latched
    /// the same way.
    TurnPanic(String),
}

/// Renders the failure without its shard; for the two panic kinds this
/// is the notice [`ShardOutcome::failed`] carries.
impl std::fmt::Display for ServeErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeErrorKind::Turn(t) => write!(f, "{t}"),
            ServeErrorKind::CollectPanic(msg) => write!(f, "collection panicked: {msg}"),
            ServeErrorKind::TurnPanic(msg) => write!(f, "turn panicked: {msg}"),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.kind)
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ServeErrorKind::Turn(t) => Some(t),
            _ => None,
        }
    }
}

/// Renders a caught panic payload (mirrors the runner's job-panic
/// rendering: `&str` and `String` payloads verbatim, anything else
/// summarized).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// Kill-one-collection fault injection: the named shard panics when it
/// is asked to collect after it has completed `after_collections`
/// collections. For robustness tests of [`serve`] — proves a death
/// while collecting surfaces as a typed [`ServeError`] while other
/// shards drain cleanly. A panic from inside a collection needs no
/// seam: a policy that panics in `after_collection` raises one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcFault {
    /// The shard whose collection dies.
    pub shard: u32,
    /// Collections the shard completes before the fault fires.
    pub after_collections: u64,
}

/// One engine shard: the engine, its decision log, and the failure
/// latch. Owned by exactly one thread at a time; see the module docs
/// for who that is in each mode.
pub struct Shard {
    index: usize,
    engine: StoreEngine,
    log: DecisionLog,
    /// Set when this shard is the one a [`GcFault`] names.
    fault: Option<GcFault>,
    /// Set by a panic in a turn or a collection. A failed shard refuses
    /// further turns and collections; its engine is only read again by
    /// [`Shard::into_outcome`].
    failed: Option<ServeErrorKind>,
}

impl Shard {
    /// Builds shard `index` over a fresh engine. Session `i`
    /// conventionally maps to shard `i % shard_count`.
    pub fn new(
        index: usize,
        engine: &EngineConfig,
        policy: Box<dyn RatePolicy + Send>,
        fault: Option<GcFault>,
    ) -> Shard {
        Shard {
            index,
            engine: StoreEngine::new(engine.clone(), policy),
            log: DecisionLog::default(),
            fault: fault.filter(|f| f.shard as usize == index),
            failed: None,
        }
    }

    /// Runs one turn: `f` gets a session on this shard. A turn never
    /// collects, so it makes no decision; the caller follows it with
    /// [`Shard::collect_due`], whose decisions feed the shard's log,
    /// before the shard's next turn.
    ///
    /// Fails — without panicking — when the shard has already failed, or
    /// when `f` panics, which latches the shard failed with the payload.
    pub fn turn<T>(
        &mut self,
        session: SessionId,
        f: impl FnOnce(&mut Session<'_>) -> T,
    ) -> Result<T, ServeError> {
        if let Some(err) = self.failure() {
            return Err(err);
        }
        let engine = &mut self.engine;
        catch_unwind(AssertUnwindSafe(|| {
            f(&mut engine.session_with(session, None))
        }))
        .map_err(|payload| {
            let kind = ServeErrorKind::TurnPanic(panic_message(payload));
            self.failed = Some(kind.clone());
            ServeError {
                shard: self.index,
                kind,
            }
        })
    }

    /// Drains the shard's trigger if it is due: collects until the
    /// (re-armed) trigger is satisfied. Policies clamp triggers to ≥ 1
    /// elapsed unit, so this runs at most one real collection plus
    /// possible no-partition re-arms. Returns whether the trigger was
    /// due.
    ///
    /// A panic inside the drain — including an injected [`GcFault`] — is
    /// caught and latches the shard failed.
    pub fn collect_due(&mut self) -> bool {
        if self.failed.is_some() || !self.engine.collection_due() {
            return false;
        }
        let fault_due = self
            .fault
            .is_some_and(|f| self.engine.collection_count() >= f.after_collections);
        let (engine, log, index) = (&mut self.engine, &mut self.log, self.index);
        let drained = catch_unwind(AssertUnwindSafe(|| {
            if fault_due {
                panic!("injected collection fault on shard {index}");
            }
            while engine.collect_if_due(Some(log)).is_some() {}
        }));
        if let Err(payload) = drained {
            self.failed = Some(ServeErrorKind::CollectPanic(panic_message(payload)));
        }
        true
    }

    /// Collections the shard has completed.
    pub fn collection_count(&self) -> u64 {
        self.engine.collection_count()
    }

    /// The error every turn on this shard now gets, if it has failed.
    pub fn failure(&self) -> Option<ServeError> {
        self.failed.clone().map(|kind| ServeError {
            shard: self.index,
            kind,
        })
    }

    /// Consumes the shard into its outcome. `phases` are the trace phase
    /// markers for the outcome's [`RunResult`] (replay drivers record
    /// these; live workloads have none).
    pub fn into_outcome(self, phases: Vec<(String, u64, u64)>) -> ShardOutcome {
        ShardOutcome {
            policy: self.engine.policy_name(),
            result: self.engine.into_result(phases),
            decisions: self.log.decisions,
            failed: self.failed.map(|kind| kind.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------

/// Configuration of one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// Number of client sessions.
    pub sessions: u32,
    /// Number of engine shards. Session `i` maps to shard
    /// `i % shards`.
    pub shards: u32,
    /// Operations each session submits over its lifetime.
    pub ops_per_session: u64,
    /// Maximum operations one scheduled turn applies (clamped to ≥ 2 so
    /// composite create-and-link actions stay atomic within a turn).
    pub batch: u64,
    /// Seed of the scheduler's session-picking RNG.
    pub scheduler_seed: u64,
    /// The synthetic workload sessions run.
    pub workload: WorkloadParams,
    /// Optional kill-one-collection fault injection (robustness tests).
    pub gc_fault: Option<GcFault>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            sessions: 4,
            shards: 2,
            ops_per_session: 2_000,
            batch: 8,
            scheduler_seed: 42,
            workload: WorkloadParams::default(),
            gc_fault: None,
        }
    }
}

/// What one shard did over a serve run.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The shard's policy name.
    pub policy: String,
    /// The shard engine's run summary (phases empty: live runs have no
    /// trace phase markers).
    pub result: RunResult,
    /// Every trigger decision the shard's policy made, from live
    /// counters.
    pub decisions: Vec<DecisionRecord>,
    /// Why the shard stopped serving early, if it did (the captured
    /// panic, rendered as [`ServeErrorKind`] displays it).
    pub failed: Option<String>,
}

/// What a serve run did.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Operations each session applied (indexed by session id).
    pub per_session_ops: Vec<u64>,
    /// The scheduler's turn order: session id per scheduled turn.
    /// Deterministic under a fixed [`ServeConfig::scheduler_seed`].
    pub schedule: Vec<u32>,
    /// Per-shard summaries (indexed by shard).
    pub shards: Vec<ShardOutcome>,
    /// Shard-level failures observed while serving (one per failed
    /// shard; the sessions mapped there stop, every other shard drains
    /// cleanly to completion).
    pub failures: Vec<ServeError>,
}

/// Runs a multi-session serve workload to completion on the calling
/// thread.
///
/// `make_policy` is called once per shard with the shard index. The
/// scheduler picks among sessions with remaining work using an RNG
/// seeded from [`ServeConfig::scheduler_seed`], applies one batch of
/// that session's operations against its shard, and then drains the
/// shard's trigger if the turn left it due, so collections land at
/// deterministic points in each shard's operation stream.
///
/// A failing session *operation* aborts the run with that error. A
/// failing *shard* (a panic in a turn or a collection) does not: its
/// sessions stop, the failure is recorded in
/// [`ServeOutcome::failures`], and every other shard drains cleanly.
pub fn serve(
    config: ServeConfig,
    mut make_policy: impl FnMut(u32) -> Box<dyn RatePolicy + Send>,
) -> Result<ServeOutcome, ServeError> {
    let sessions = config.sessions.max(1) as usize;
    let shard_count = (config.shards.max(1) as usize).min(sessions);
    let batch = config.batch.max(2);

    let mut shards: Vec<Shard> = (0..shard_count)
        .map(|i| Shard::new(i, &config.engine, make_policy(i as u32), config.gc_fault))
        .collect();
    let mut workloads: Vec<SessionWorkload> = (0..sessions)
        .map(|i| SessionWorkload::new(i as u32, config.workload, config.ops_per_session))
        .collect();
    let mut objects: Vec<SessionObjects> = (0..sessions).map(|_| SessionObjects::new()).collect();
    let mut per_session_ops = vec![0u64; sessions];
    let mut schedule: Vec<u32> = Vec::new();
    let mut failures: Vec<ServeError> = Vec::new();

    let mut rng = StdRng::seed_from_u64(config.scheduler_seed);
    let mut active: Vec<usize> = (0..sessions).collect();
    while !active.is_empty() {
        let k = rng.random_range(0..active.len());
        let si = active[k];
        let shard_i = si % shard_count;
        let shard = &mut shards[shard_i];
        let turn = shard.turn(SessionId::new(si as u32), |sess| {
            let ops = workloads[si].next_turn(batch);
            apply_ops(sess, &mut objects[si], &ops)
        });
        match turn {
            Ok(Ok(applied)) => {
                per_session_ops[si] += applied.applied;
                schedule.push(si as u32);
            }
            // A failed turn is fatal to the run.
            Ok(Err(err)) => {
                return Err(ServeError {
                    shard: shard_i,
                    kind: ServeErrorKind::Turn(err),
                });
            }
            Err(err) => {
                // The shard is gone: record the typed failure (once —
                // its sessions never come up again) and retire every
                // session mapped to it; other shards keep draining.
                failures.push(err);
                active.retain(|&s| s % shard_count != shard_i);
                continue;
            }
        }
        shard.collect_due();
        if workloads[si].remaining() == 0 {
            active.swap_remove(k);
        }
    }

    Ok(ServeOutcome {
        per_session_ops,
        schedule,
        shards: shards
            .into_iter()
            .map(|shard| shard.into_outcome(Vec::new()))
            .collect(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_core::FixedRatePolicy;
    use odbgc_store::StoreError;

    fn tiny_serve(seed: u64) -> ServeConfig {
        ServeConfig {
            engine: EngineConfig::tiny(),
            sessions: 3,
            shards: 2,
            ops_per_session: 300,
            batch: 4,
            scheduler_seed: seed,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_completes_all_ops_and_collects() {
        let out = serve(tiny_serve(7), |_| Box::new(FixedRatePolicy::new(20))).expect("serve run");
        assert_eq!(out.per_session_ops, vec![300, 300, 300]);
        assert_eq!(out.shards.len(), 2);
        assert!(out.failures.is_empty());
        let total_collections: u64 = out.shards.iter().map(|s| s.result.collection_count()).sum();
        assert!(total_collections > 0, "rate-20 policy must collect");
        for shard in &out.shards {
            assert_eq!(
                shard.decisions.len() as u64,
                shard.result.collection_count(),
                "one decision per collection, logged from live counters"
            );
            assert_eq!(shard.policy, "fixed(20)");
            assert!(shard.failed.is_none());
        }
    }

    #[test]
    fn serve_schedule_is_deterministic_per_seed() {
        let a = serve(tiny_serve(9), |_| Box::new(FixedRatePolicy::new(25))).expect("run a");
        let b = serve(tiny_serve(9), |_| Box::new(FixedRatePolicy::new(25))).expect("run b");
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.per_session_ops, b.per_session_ops);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.result, sb.result);
        }
        let c = serve(tiny_serve(10), |_| Box::new(FixedRatePolicy::new(25))).expect("run c");
        assert_ne!(
            a.schedule, c.schedule,
            "different scheduler seeds interleave differently"
        );
    }

    #[test]
    fn workload_turns_respect_batch_and_budget() {
        // Whole-action turns: never exceed the batch, never exceed the
        // remaining budget, never split a composite across a boundary —
        // whatever the batch/budget alignment.
        for (ops, batch) in [(301u64, 4u64), (7, 2), (100, 3), (17, 8), (1, 8)] {
            let mut w = SessionWorkload::new(0, WorkloadParams::default(), ops);
            let mut total = 0u64;
            loop {
                let turn = w.next_turn(batch);
                if turn.is_empty() {
                    break;
                }
                assert!(turn.len() as u64 <= batch, "turn exceeds batch");
                // A Create followed by AddRoot/Overwrite-link is a
                // composite; both halves must be in this turn. Verify no
                // turn *starts* with the second half of a composite:
                // every Overwrite { target: Some(c) } and AddRoot names
                // an object created in this or an earlier turn — and a
                // linking op's child is created in the same turn.
                for (i, op) in turn.iter().enumerate() {
                    if let SessionOp::Overwrite {
                        target: Some(c), ..
                    } = op
                    {
                        // The linked child must be this turn's preceding op.
                        assert!(
                            matches!(turn[i - 1], SessionOp::Create { .. }),
                            "link's create half fell outside the turn"
                        );
                        let _ = c;
                    }
                }
                total += turn.len() as u64;
                assert!(total <= ops, "budget overshoot: {total} > {ops}");
            }
            assert_eq!(total, ops, "budget must be spent exactly");
            assert_eq!(w.remaining(), 0);
        }
    }

    #[test]
    fn workload_stream_is_a_pure_function_of_its_seed() {
        let params = WorkloadParams::default();
        let mut a = SessionWorkload::new(2, params, 200);
        let mut b = SessionWorkload::new(2, params, 200);
        loop {
            let ta = a.next_turn(8);
            let tb = b.next_turn(8);
            assert_eq!(ta, tb);
            if ta.is_empty() {
                break;
            }
        }
        // Different sessions draw different streams.
        let mut c = SessionWorkload::new(3, params, 200);
        let t2 = SessionWorkload::new(2, params, 200).next_turn(8);
        assert_ne!(c.next_turn(8), t2);
    }

    #[test]
    fn gc_worker_fault_is_typed_and_other_shards_drain() {
        // Fail shard 0 at its first collection. Sessions 0
        // and 2 (mapped to shard 0) stop; session 1 (shard 1) must
        // complete every operation, and the failure must surface as a
        // typed ServeError, not a panic or a poisoned-lock abort.
        let config = ServeConfig {
            gc_fault: Some(GcFault {
                shard: 0,
                after_collections: 0,
            }),
            ..tiny_serve(7)
        };
        let out = serve(config, |_| Box::new(FixedRatePolicy::new(20))).expect("serve survives");
        assert_eq!(out.failures.len(), 1, "exactly one shard failed");
        let failure = &out.failures[0];
        assert_eq!(failure.shard, 0);
        match &failure.kind {
            ServeErrorKind::CollectPanic(msg) => {
                assert!(msg.contains("injected collection fault"), "{msg}");
            }
            other => panic!("expected CollectPanic, got {other:?}"),
        }
        // Shard 1's only session (session 1) drained cleanly.
        assert_eq!(out.per_session_ops[1], 300);
        assert!(out.shards[1].failed.is_none());
        assert!(out.shards[0].failed.is_some());
        // And the failure is printable without touching the panic path.
        assert!(failure.to_string().contains("collection panicked"));
    }

    #[test]
    fn gc_fault_on_a_later_collection_keeps_the_earlier_ones() {
        // The fault fires when shard 0 is asked for its second
        // collection: the first is in its RunResult and decision log,
        // nothing after the failure is.
        let config = ServeConfig {
            gc_fault: Some(GcFault {
                shard: 0,
                after_collections: 1,
            }),
            ..tiny_serve(7)
        };
        let out = serve(config, |_| Box::new(FixedRatePolicy::new(20))).expect("serve survives");
        assert_eq!(out.shards[0].result.collection_count(), 1);
        assert_eq!(out.shards[0].decisions.len(), 1);
        assert_eq!(
            out.shards[0].failed.as_deref(),
            Some("collection panicked: injected collection fault on shard 0")
        );
        assert_eq!(out.per_session_ops[1], 300);
        assert!(out.shards[1].failed.is_none());
    }

    /// Rate 20 until its first collection finishes, then a panic in
    /// `after_collection`: a failure from inside a real collection.
    struct DiesAfterCollecting(FixedRatePolicy);

    impl RatePolicy for DiesAfterCollecting {
        fn initial_trigger(&mut self) -> odbgc_core::Trigger {
            self.0.initial_trigger()
        }

        fn after_collection(
            &mut self,
            obs: &odbgc_core::CollectionObservation,
        ) -> odbgc_core::Trigger {
            panic!("policy died after collection {}", obs.collection_index)
        }

        fn name(&self) -> String {
            self.0.name()
        }
    }

    #[test]
    fn a_panic_inside_a_collection_latches_its_shard() {
        let out = serve(tiny_serve(7), |shard| -> Box<dyn RatePolicy + Send> {
            match shard {
                0 => Box::new(DiesAfterCollecting(FixedRatePolicy::new(20))),
                _ => Box::new(FixedRatePolicy::new(20)),
            }
        })
        .expect("serve survives");
        // Shard 0's notice carries the payload; the collection ran, its
        // decision was never made.
        let notice = "collection panicked: policy died after collection 0";
        assert_eq!(out.shards[0].failed.as_deref(), Some(notice));
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].to_string(), format!("shard 0: {notice}"));
        assert_eq!(out.shards[0].result.collection_count(), 1);
        assert!(out.shards[0].decisions.is_empty());
        // Shard 1 drains: its session's whole budget, every collection
        // with its decision.
        assert_eq!(out.per_session_ops[1], 300);
        assert!(out.shards[1].failed.is_none());
        assert!(out.shards[1].result.collection_count() > 0);
        assert_eq!(
            out.shards[1].decisions.len() as u64,
            out.shards[1].result.collection_count()
        );
    }

    #[test]
    fn turn_panic_latches_the_shard() {
        let mut shard = Shard::new(
            3,
            &EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(20)),
            None,
        );
        let err = shard
            .turn(SessionId::new(0), |_| -> () { panic!("boom") })
            .expect_err("the panic is caught");
        assert!(matches!(&err.kind, ServeErrorKind::TurnPanic(msg) if msg == "boom"));
        assert_eq!(err.to_string(), "shard 3: turn panicked: boom");
        // Latched: the next turn never runs, collections are refused,
        // and the outcome carries the notice.
        let mut ran = false;
        assert!(shard.turn(SessionId::new(0), |_| ran = true).is_err());
        assert!(!ran);
        assert!(!shard.collect_due());
        assert_eq!(
            shard.into_outcome(Vec::new()).failed.as_deref(),
            Some("turn panicked: boom")
        );
    }

    #[test]
    fn create_too_large_is_a_typed_op_error_and_the_shard_keeps_serving() {
        // The paper geometry a server runs: 8 KiB pages, so sizes within
        // a page of u32::MAX have no partition.
        let mut shard = Shard::new(
            0,
            &EngineConfig::default(),
            Box::new(FixedRatePolicy::new(20)),
            None,
        );
        let mut objects = SessionObjects::new();
        let hostile = [
            SessionOp::Create { size: 64, slots: 1 },
            SessionOp::Create {
                size: u32::MAX,
                slots: 0,
            },
        ];
        let err = shard
            .turn(SessionId::new(0), |sess| {
                apply_ops(sess, &mut objects, &hostile)
            })
            .expect("no panic, the shard is not latched")
            .unwrap_err();
        assert_eq!(err.op_index, 1, "the create before it was applied");
        match err.kind {
            TurnErrorKind::Op(OpError { cause, .. }) => assert!(
                matches!(cause, StoreError::ObjectTooLarge { size: u32::MAX, .. }),
                "{cause}"
            ),
            other => panic!("expected a typed op error, got {other:?}"),
        }
        assert!(shard.failure().is_none());

        let next = [
            SessionOp::Create { size: 64, slots: 0 },
            SessionOp::Overwrite {
                obj: ObjRef(0),
                slot: 0,
                target: Some(ObjRef(1)),
            },
        ];
        let applied = shard
            .turn(SessionId::new(0), |sess| {
                apply_ops(sess, &mut objects, &next)
            })
            .expect("the shard still takes turns")
            .expect("and applies them");
        assert_eq!((applied.applied, applied.created), (2, 1));
        assert_eq!(
            objects.created_count(),
            2,
            "the refused create named nothing"
        );
    }

    #[test]
    fn unknown_ref_is_a_typed_turn_error() {
        let mut engine: StoreEngine = StoreEngine::new(
            EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(1_000_000)),
        );
        let mut objects = SessionObjects::new();
        let mut sess = engine.session_with(SessionId::new(0), None);
        let err = apply_ops(
            &mut sess,
            &mut objects,
            &[SessionOp::Access { obj: ObjRef(5) }],
        )
        .unwrap_err();
        assert_eq!(err.op_index, 0);
        assert!(matches!(
            err.kind,
            TurnErrorKind::UnknownRef { obj: 5, created: 0 }
        ));
        assert!(err.to_string().contains("unknown object ref 5"));
    }

    #[test]
    fn a_refused_create_leaves_its_id_to_the_next_create() {
        let mut engine: StoreEngine = StoreEngine::new(
            EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(1_000_000)),
        );
        let mut objects = SessionObjects::new();
        let mut sess = engine.session_with(SessionId::new(0), None);
        let create = |size| SessionOp::Create { size, slots: 0 };
        apply_ops(&mut sess, &mut objects, &[create(64)]).expect("first create");
        let err = apply_ops(&mut sess, &mut objects, &[create(u32::MAX)]).unwrap_err();
        match err.kind {
            TurnErrorKind::Op(OpError { cause, .. }) => assert_eq!(
                cause,
                StoreError::ObjectTooLarge {
                    object: ObjectId::new(1),
                    size: u32::MAX
                }
            ),
            other => panic!("expected a typed op error, got {other:?}"),
        }
        apply_ops(&mut sess, &mut objects, &[create(64)]).expect("next create");
        assert_eq!(objects.created_count(), 2, "only applied creates count");
        assert_eq!(objects.resolve(ObjRef(1)), Some(ObjectId::new(1)));
        assert!(engine.store().is_present(ObjectId::new(1)));
        assert!(!engine.store().is_present(ObjectId::new(2)));
    }

    /// The reference mapping from a session's ops to trace events: the
    /// engine hands out ids in creation order, across sessions.
    fn event_of(op: SessionOp, created: &mut Vec<ObjectId>, next_id: &mut u64) -> Event {
        let id = |r: ObjRef| created[r.0 as usize];
        match op {
            SessionOp::Create { size, slots } => {
                let new = ObjectId::new(*next_id);
                *next_id += 1;
                created.push(new);
                Event::Create {
                    id: new,
                    size,
                    slots: vec![None; slots as usize].into_boxed_slice(),
                }
            }
            SessionOp::Access { obj } => Event::Access { id: id(obj) },
            SessionOp::Overwrite { obj, slot, target } => Event::SlotWrite {
                src: id(obj),
                slot: SlotIdx::new(slot),
                new: target.map(id),
            },
            SessionOp::AddRoot { obj } => Event::RootAdd { id: id(obj) },
            SessionOp::RemoveRoot { obj } => Event::RootRemove { id: id(obj) },
        }
    }

    #[test]
    fn a_served_op_is_the_event_it_names() {
        // Two sessions alternate turns on each engine: `served` takes the
        // ops through `apply_ops`, `replayed` the events they name through
        // `apply_batch`. Both drain due collections after every turn.
        let audited = || -> StoreEngine {
            let config = EngineConfig {
                deep_checks: true,
                ..EngineConfig::tiny()
            };
            StoreEngine::new(config, Box::new(FixedRatePolicy::new(20)))
        };
        let (mut served, mut replayed, mut by_event) = (audited(), audited(), audited());
        let mut workloads: Vec<SessionWorkload> = (0..2)
            .map(|s| SessionWorkload::new(s, WorkloadParams::default(), 1_500))
            .collect();
        let mut objects = [SessionObjects::new(), SessionObjects::new()];
        let mut created: [Vec<ObjectId>; 2] = Default::default();
        let mut next_id = 0;
        let (mut turn_garbage, mut event_garbage) = (0, 0);
        for s in (0..2).cycle() {
            let ops = workloads[s].next_turn(8);
            if ops.is_empty() {
                break;
            }
            let mut sess = served.session_with(SessionId::new(s as u32), None);
            turn_garbage += apply_ops(&mut sess, &mut objects[s], &ops)
                .expect("served turn")
                .garbage_created;
            let events: Vec<Event> = ops
                .iter()
                .map(|&op| event_of(op, &mut created[s], &mut next_id))
                .collect();
            replayed.apply_batch(&events, None).expect("replayed turn");
            for ev in &events {
                event_garbage += by_event
                    .apply_event(ev, None)
                    .expect("event")
                    .garbage_created;
            }
            for engine in [&mut served, &mut replayed, &mut by_event] {
                while engine.collect_if_due(None).is_some() {}
            }
        }
        assert!(served.collection_count() > 0, "the run collects");
        assert!(turn_garbage > 0, "the run makes garbage");
        assert_eq!(turn_garbage, event_garbage);
        let served = served.into_result(Vec::new());
        assert_eq!(served, replayed.into_result(Vec::new()));
        assert_eq!(served, by_event.into_result(Vec::new()));
    }
}
