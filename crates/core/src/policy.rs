//! The rate-policy interface.

/// When the next collection should run, measured from the moment the
/// trigger is issued. Whichever armed bound is reached first fires.
///
/// The two time bases match the paper's policies: SAIO measures time in
/// application I/O operations (the quantity it controls), SAGA in pointer
/// overwrites (the events that create garbage). Composite policies (e.g.
/// the opportunistic extension) may arm both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// Fire after this many further application I/O operations.
    pub app_io: Option<u64>,
    /// Fire after this many further pointer overwrites.
    pub overwrites: Option<u64>,
    /// Fire after this many further allocated bytes (the programming-
    /// language heuristic §2 argues against; used by the
    /// allocation-triggered baseline).
    pub alloc_bytes: Option<u64>,
}

impl Trigger {
    /// A trigger with no bounds armed (never fires on its own).
    pub const fn unarmed() -> Self {
        Trigger {
            app_io: None,
            overwrites: None,
            alloc_bytes: None,
        }
    }

    /// Fire after `n` application I/O operations (n ≥ 1 enforced: a zero
    /// trigger would collect in a busy loop).
    pub fn after_app_io(n: u64) -> Self {
        Trigger {
            app_io: Some(n.max(1)),
            ..Trigger::unarmed()
        }
    }

    /// Fire after `n` pointer overwrites (n ≥ 1 enforced).
    pub fn after_overwrites(n: u64) -> Self {
        Trigger {
            overwrites: Some(n.max(1)),
            ..Trigger::unarmed()
        }
    }

    /// Fire after `n` allocated bytes (n ≥ 1 enforced).
    pub fn after_alloc_bytes(n: u64) -> Self {
        Trigger {
            alloc_bytes: Some(n.max(1)),
            ..Trigger::unarmed()
        }
    }

    /// Arms app-I/O and overwrite bounds; whichever is reached first
    /// fires.
    pub fn either(app_io: u64, overwrites: u64) -> Self {
        Trigger {
            app_io: Some(app_io.max(1)),
            overwrites: Some(overwrites.max(1)),
            alloc_bytes: None,
        }
    }

    /// Is the trigger satisfied by the elapsed interval?
    pub fn is_due(&self, elapsed: TriggerElapsed) -> bool {
        self.app_io.is_some_and(|n| elapsed.app_io >= n)
            || self.overwrites.is_some_and(|n| elapsed.overwrites >= n)
            || self.alloc_bytes.is_some_and(|n| elapsed.alloc_bytes >= n)
    }
}

/// The interval elapsed since the last collection, on every time base a
/// trigger can arm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriggerElapsed {
    /// Application page I/O since the last collection.
    pub app_io: u64,
    /// Pointer overwrites since the last collection.
    pub overwrites: u64,
    /// Bytes allocated since the last collection.
    pub alloc_bytes: u64,
}

impl TriggerElapsed {
    /// Bundles the three elapsed counters.
    pub fn new(app_io: u64, overwrites: u64, alloc_bytes: u64) -> Self {
        TriggerElapsed {
            app_io,
            overwrites,
            alloc_bytes,
        }
    }
}

/// Everything a rate policy may observe, delivered right after each
/// collection completes. All byte quantities are exact store-side facts
/// except `exact_garbage`, which is oracle knowledge that only the oracle
/// estimator may consult.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionObservation {
    /// 0-based index of the collection that just finished.
    pub collection_index: u64,
    /// Page I/O the collection itself performed (`CurrGCIO`).
    pub gc_io: u64,
    /// Application page I/O since the previous collection (`ΔAppIO`
    /// realized).
    pub app_io_since_prev: u64,
    /// Bytes the collection reclaimed (`CurrColl`).
    pub bytes_reclaimed: u64,
    /// Pointer-overwrite count of the collected partition at collection
    /// time (denominator of the GPPO behavior sample).
    pub overwrites_of_collected: u64,
    /// Σ outstanding per-partition overwrite counters after the collection
    /// (the FGS state).
    pub total_outstanding_overwrites: u64,
    /// Number of allocated partitions (the CGS state).
    pub partition_count: u64,
    /// `DBSize(t)` in bytes.
    pub db_size: u64,
    /// `TotColl(t)`: cumulative bytes ever collected.
    pub total_collected: u64,
    /// The overwrite clock (cumulative pointer overwrites — SAGA's time
    /// base).
    pub overwrite_clock: u64,
    /// The allocation clock (cumulative bytes allocated).
    pub alloc_clock: u64,
    /// Exact current garbage bytes (oracle only).
    pub exact_garbage: u64,
}

impl CollectionObservation {
    /// A zeroed observation, convenient as a baseline in tests.
    pub fn zero() -> Self {
        CollectionObservation {
            collection_index: 0,
            gc_io: 0,
            app_io_since_prev: 0,
            bytes_reclaimed: 0,
            overwrites_of_collected: 0,
            total_outstanding_overwrites: 0,
            partition_count: 0,
            db_size: 0,
            total_collected: 0,
            overwrite_clock: 0,
            alloc_clock: 0,
            exact_garbage: 0,
        }
    }
}

/// How many past inter-collection intervals a policy remembers
/// (the paper's `c_hist`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryLen {
    /// Remember the last `n` intervals. `Fixed(0)`, the default, is the
    /// paper's `c_hist = 0`: decide from the current collection only
    /// (maximally responsive).
    Fixed(usize),
    /// Remember everything (`c_hist = ∞`).
    Infinite,
}

impl Default for HistoryLen {
    fn default() -> Self {
        HistoryLen::Fixed(0)
    }
}

impl HistoryLen {
    /// The retention limit as an optional count.
    pub fn limit(self) -> Option<usize> {
        match self {
            HistoryLen::Fixed(n) => Some(n),
            HistoryLen::Infinite => None,
        }
    }
}

/// Whether a policy's most recent interval computation was limited by a
/// configured clamp rather than landing inside the open interval.
///
/// Telemetry records this per decision: §2.3 claims the SAGA clamps
/// `[Δt_min, Δt_max]` are "rarely hit in practice", and the decision log
/// is how that claim becomes checkable on a given workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClampHit {
    /// The computed interval was used as-is.
    #[default]
    None,
    /// The computation hit the lower clamp (collect as soon as allowed).
    Min,
    /// The computation hit the upper clamp (back off as far as allowed).
    Max,
}

impl ClampHit {
    /// Stable lower-case label for reports and JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            ClampHit::None => "none",
            ClampHit::Min => "min",
            ClampHit::Max => "max",
        }
    }
}

impl std::fmt::Display for ClampHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A collection-rate policy: decides when the next collection runs.
pub trait RatePolicy {
    /// Trigger for the first collection of a run (cold start).
    fn initial_trigger(&mut self) -> Trigger;

    /// Observes a finished collection and schedules the next one.
    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger;

    /// Policy name (with parameters) for reports.
    fn name(&self) -> String;

    /// Whether the most recent [`RatePolicy::after_collection`] decision
    /// hit a configured clamp. Policies without clamps (or wrappers that
    /// do not delegate) report [`ClampHit::None`].
    fn last_clamp(&self) -> ClampHit {
        ClampHit::None
    }
}

impl<P: RatePolicy + ?Sized> RatePolicy for &mut P {
    fn initial_trigger(&mut self) -> Trigger {
        (**self).initial_trigger()
    }

    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger {
        (**self).after_collection(obs)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn last_clamp(&self) -> ClampHit {
        (**self).last_clamp()
    }
}

impl<P: RatePolicy + ?Sized> RatePolicy for Box<P> {
    fn initial_trigger(&mut self) -> Trigger {
        (**self).initial_trigger()
    }

    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger {
        (**self).after_collection(obs)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn last_clamp(&self) -> ClampHit {
        (**self).last_clamp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(app_io: u64, overwrites: u64) -> TriggerElapsed {
        TriggerElapsed::new(app_io, overwrites, 0)
    }

    #[test]
    fn trigger_due_logic() {
        let t = Trigger::after_app_io(10);
        assert!(!t.is_due(el(9, 1_000)));
        assert!(t.is_due(el(10, 0)));
        let t = Trigger::after_overwrites(5);
        assert!(!t.is_due(el(1_000, 4)));
        assert!(t.is_due(el(0, 5)));
        let t = Trigger::either(10, 5);
        assert!(t.is_due(el(10, 0)));
        assert!(t.is_due(el(0, 5)));
        assert!(!t.is_due(el(9, 4)));
    }

    #[test]
    fn alloc_trigger_fires_on_allocation() {
        let t = Trigger::after_alloc_bytes(4_096);
        assert!(!t.is_due(TriggerElapsed::new(1_000_000, 1_000_000, 4_095)));
        assert!(t.is_due(TriggerElapsed::new(0, 0, 4_096)));
    }

    #[test]
    fn unarmed_trigger_never_fires() {
        let t = Trigger::unarmed();
        assert!(!t.is_due(TriggerElapsed::new(u64::MAX, u64::MAX, u64::MAX)));
    }

    #[test]
    fn zero_triggers_are_clamped_to_one() {
        assert_eq!(Trigger::after_app_io(0).app_io, Some(1));
        assert_eq!(Trigger::after_overwrites(0).overwrites, Some(1));
        assert_eq!(Trigger::after_alloc_bytes(0).alloc_bytes, Some(1));
        let t = Trigger::either(0, 0);
        assert_eq!((t.app_io, t.overwrites), (Some(1), Some(1)));
    }

    #[test]
    fn history_limits() {
        assert_eq!(HistoryLen::default(), HistoryLen::Fixed(0));
        assert_eq!(HistoryLen::default().limit(), Some(0));
        assert_eq!(HistoryLen::Fixed(3).limit(), Some(3));
        assert_eq!(HistoryLen::Infinite.limit(), None);
    }

    #[test]
    fn clamp_hit_labels_are_stable() {
        assert_eq!(ClampHit::None.as_str(), "none");
        assert_eq!(ClampHit::Min.to_string(), "min");
        assert_eq!(ClampHit::Max.to_string(), "max");
        assert_eq!(ClampHit::default(), ClampHit::None);
    }

    #[test]
    fn last_clamp_defaults_to_none() {
        struct Plain;
        impl RatePolicy for Plain {
            fn initial_trigger(&mut self) -> Trigger {
                Trigger::after_overwrites(1)
            }
            fn after_collection(&mut self, _: &CollectionObservation) -> Trigger {
                Trigger::after_overwrites(1)
            }
            fn name(&self) -> String {
                "plain".into()
            }
        }
        assert_eq!(Plain.last_clamp(), ClampHit::None);
    }
}
