//! The generator's in-memory mirror of the database.
//!
//! The trace generator must know the exact slot contents of every object
//! it manipulates: deletion clears precisely the slots that reference the
//! doomed structure, and reinsertion stores only into free (null) slots.
//! The mirror is that knowledge; it never touches the store.

use odbgc_trace::{ObjectId, SlotIdx, TraceBuilder};
use rand::rngs::StdRng;
use rand::Rng;

use crate::params::Oo7Params;
use crate::schema::Kind;

/// A connection, as seen from either endpoint.
///
/// `from`/`to` are part indices within the composite (slot identities,
/// stable across delete/reinsert cycles); `from_slot`/`to_slot` are the
/// absolute slot indices in the respective part objects holding this
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnMirror {
    /// The connection object's id.
    pub id: ObjectId,
    /// Source part index within the composite.
    pub from: u32,
    /// Out-slot index in the source part holding this connection.
    pub from_slot: u32,
    /// Target part index within the composite.
    pub to: u32,
    /// In-slot index in the target part (mirror-only under the forward
    /// connection style).
    pub to_slot: u32,
}

/// One atomic part.
#[derive(Debug, Clone)]
pub struct PartMirror {
    /// The atomic part's id.
    pub id: ObjectId,
    /// Out-connection slots (length = `num_conn_per_atomic`).
    pub out: Vec<Option<ConnMirror>>,
    /// In-connection slots (length = `in_conn_capacity()`).
    pub in_: Vec<Option<ConnMirror>>,
}

impl PartMirror {
    /// A fresh, unconnected part mirror.
    pub fn new(id: ObjectId, p: &Oo7Params) -> Self {
        PartMirror {
            id,
            out: vec![None; p.num_conn_per_atomic as usize],
            in_: vec![None; p.in_conn_capacity() as usize],
        }
    }

    /// Index of a free out slot, if any.
    pub fn free_out_slot(&self) -> Option<u32> {
        self.out.iter().position(Option::is_none).map(|i| i as u32)
    }

    /// Index of a free in slot, if any.
    pub fn free_in_slot(&self) -> Option<u32> {
        self.in_.iter().position(Option::is_none).map(|i| i as u32)
    }

    /// Number of live out-connections.
    pub fn out_degree(&self) -> usize {
        self.out.iter().flatten().count()
    }
}

/// One composite part.
///
/// The part slots are private: every change to a part's presence or to
/// its in-slots goes through a method here, so the connectable set (the
/// parts a new connection may target) can never drift from the slots.
#[derive(Debug, Clone)]
pub struct CompositeMirror {
    /// The composite part's id.
    pub id: ObjectId,
    /// The current document's id.
    pub doc: ObjectId,
    /// Parts by slot identity; `None` while a slot is deleted-not-yet-
    /// reinserted.
    parts: Vec<Option<PartMirror>>,
    /// Bit `i` is set iff slot `i` holds a live part with a free in slot.
    connectable: Vec<u64>,
}

impl CompositeMirror {
    /// A composite over the given part slots.
    pub(crate) fn new(id: ObjectId, doc: ObjectId, parts: Vec<Option<PartMirror>>) -> Self {
        let mut comp = CompositeMirror {
            id,
            doc,
            connectable: vec![0; parts.len().div_ceil(64)],
            parts,
        };
        for idx in 0..comp.parts.len() as u32 {
            comp.refresh(idx);
        }
        comp
    }

    /// Parts by slot identity; `None` marks a deleted slot.
    pub fn parts(&self) -> &[Option<PartMirror>] {
        &self.parts
    }

    /// Indices of slots currently holding a live part.
    pub fn live_part_indices(&self) -> Vec<u32> {
        self.parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| i as u32))
            .collect()
    }

    /// The live part at slot `idx` (panics if the slot is empty).
    pub fn part(&self, idx: u32) -> &PartMirror {
        self.parts[idx as usize]
            .as_ref()
            .expect("part slot is live")
    }

    fn part_mut(&mut self, idx: u32) -> &mut PartMirror {
        self.parts[idx as usize]
            .as_mut()
            .expect("part slot is live")
    }

    /// Puts `part` into the empty slot `idx`.
    pub(crate) fn insert_part(&mut self, idx: u32, part: PartMirror) {
        debug_assert!(self.parts[idx as usize].is_none(), "slot {idx} is live");
        self.parts[idx as usize] = Some(part);
        self.refresh(idx);
    }

    /// Empties the live slot `idx`.
    pub(crate) fn remove_part(&mut self, idx: u32) {
        let part = self.parts[idx as usize].take();
        debug_assert!(part.is_some(), "slot {idx} is empty");
        self.refresh(idx);
    }

    /// Records connection `c` in both endpoint parts.
    pub(crate) fn connect(&mut self, c: ConnMirror) {
        self.part_mut(c.from).out[c.from_slot as usize] = Some(c);
        self.part_mut(c.to).in_[c.to_slot as usize] = Some(c);
        self.refresh(c.to);
    }

    /// Forgets connection `c` at both endpoint parts.
    pub(crate) fn disconnect(&mut self, c: ConnMirror) {
        self.part_mut(c.from).out[c.from_slot as usize] = None;
        self.part_mut(c.to).in_[c.to_slot as usize] = None;
        self.refresh(c.to);
    }

    /// Picks the target of a new connection from part `from`: uniformly
    /// among the other live parts with a free in slot, or `None` (drawing
    /// nothing) when there is none.
    ///
    /// The draw is the one a uniform pick from the ascending candidate
    /// list makes (`rand`'s slice sampling): one `random_range(0..n)` as
    /// a `usize`, then the k-th candidate in slot order, which is the k-th
    /// set bit of the connectable set once `from`'s own bit is masked out.
    /// So the generator's random stream, and every trace, is unchanged.
    pub(crate) fn connection_target(&self, from: u32, rng: &mut impl Rng) -> Option<u32> {
        let (from_word, from_bit) = (from as usize / 64, 1u64 << (from % 64));
        let word = |w: usize| {
            let bits = self.connectable[w];
            if w == from_word {
                bits & !from_bit
            } else {
                bits
            }
        };
        let n: usize = (0..self.connectable.len())
            .map(|w| word(w).count_ones() as usize)
            .sum();
        if n == 0 {
            return None;
        }
        let mut k = rng.random_range(0..n);
        for w in 0..self.connectable.len() {
            let mut bits = word(w);
            let ones = bits.count_ones() as usize;
            if k < ones {
                for _ in 0..k {
                    bits &= bits - 1;
                }
                return Some((w * 64) as u32 + bits.trailing_zeros());
            }
            k -= ones;
        }
        unreachable!("k < n set bits")
    }

    /// Recomputes slot `idx`'s connectable bit from the slot itself.
    fn refresh(&mut self, idx: u32) {
        let open = self.parts[idx as usize]
            .as_ref()
            .is_some_and(|p| p.free_in_slot().is_some());
        let (w, bit) = (idx as usize / 64, 1u64 << (idx % 64));
        if open {
            self.connectable[w] |= bit;
        } else {
            self.connectable[w] &= !bit;
        }
    }
}

/// One assembly-tree node.
#[derive(Debug, Clone)]
pub struct AssemblyMirror {
    /// The assembly object's id.
    pub id: ObjectId,
    /// Child assembly indices (complex assemblies only).
    pub children: Vec<usize>,
    /// Referenced composite indices (base assemblies only).
    pub composites: Vec<u32>,
    /// Leaf (base) assembly?
    pub is_base: bool,
}

/// The whole-module mirror.
#[derive(Debug, Clone)]
pub struct ModuleMirror {
    /// The module object's id.
    pub id: ObjectId,
    /// The manual object's id.
    pub manual: ObjectId,
    /// Assembly arena; index 0 is the root.
    pub assemblies: Vec<AssemblyMirror>,
    /// All composite parts, by index.
    pub composites: Vec<CompositeMirror>,
}

/// Generator state threaded through the phases: parameters, the trace
/// under construction, the RNG, and the mirror.
#[derive(Debug)]
pub struct GenState {
    /// The database parameters in force.
    pub params: Oo7Params,
    /// The trace being recorded.
    pub trace: TraceBuilder,
    /// The seeded generator RNG.
    pub rng: StdRng,
    /// The whole-database mirror.
    pub module: ModuleMirror,
    /// Connections that could not be placed because no candidate target
    /// had free in-capacity (diagnostic; expected to stay 0 or tiny).
    pub skipped_connections: u64,
}

impl GenState {
    /// Creates an object of `kind` with the given slot contents, emitting
    /// the trace event and returning the fresh id.
    pub fn create(&mut self, kind: Kind, slots: Vec<Option<ObjectId>>) -> ObjectId {
        debug_assert_eq!(slots.len(), kind.slot_count(&self.params));
        self.trace.create(kind.size(&self.params), slots)
    }

    /// Creates an object of `kind` with all-null slots.
    pub fn create_unlinked(&mut self, kind: Kind) -> ObjectId {
        let n = kind.slot_count(&self.params);
        self.trace.create_unlinked(kind.size(&self.params), n)
    }

    /// Emits a pointer store.
    pub fn write(&mut self, src: ObjectId, slot: u32, target: ObjectId) {
        self.trace.slot_write(src, SlotIdx::new(slot), Some(target));
    }

    /// Emits a pointer kill.
    pub fn clear(&mut self, src: ObjectId, slot: u32) {
        self.trace.slot_clear(src, SlotIdx::new(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(p: &Oo7Params) -> PartMirror {
        PartMirror::new(ObjectId::new(7), p)
    }

    #[test]
    fn fresh_part_has_all_slots_free() {
        let p = Oo7Params::tiny(); // conn 2, capacity 4
        let m = part(&p);
        assert_eq!(m.out.len(), 2);
        assert_eq!(m.in_.len(), 4);
        assert_eq!(m.free_out_slot(), Some(0));
        assert_eq!(m.free_in_slot(), Some(0));
        assert!(m.in_.iter().all(Option::is_none));
        assert_eq!(m.out_degree(), 0);
    }

    #[test]
    fn slot_occupancy_tracked() {
        let p = Oo7Params::tiny();
        let mut m = part(&p);
        let c = ConnMirror {
            id: ObjectId::new(9),
            from: 0,
            from_slot: 0,
            to: 1,
            to_slot: 2,
        };
        m.out[0] = Some(c);
        assert_eq!(m.free_out_slot(), Some(1));
        m.out[1] = Some(c);
        assert_eq!(m.free_out_slot(), None);
        assert_eq!(m.out_degree(), 2);
    }

    #[test]
    fn composite_live_indices_skip_deleted() {
        let p = Oo7Params::tiny();
        let mut comp = CompositeMirror::new(
            ObjectId::new(1),
            ObjectId::new(2),
            (0..4)
                .map(|i| Some(PartMirror::new(ObjectId::new(10 + i), &p)))
                .collect(),
        );
        comp.remove_part(2);
        assert_eq!(comp.live_part_indices(), vec![0, 1, 3]);
        assert_eq!(comp.part(0).id, ObjectId::new(10));
    }
}

/// The connectable set against the scan it replaced, through random
/// delete/reinsert sequences on real generator state.
#[cfg(test)]
mod connectable_tests {
    use proptest::prelude::*;
    use rand::seq::IndexedRandom;
    use rand::SeedableRng;

    use super::*;
    use crate::builder::build;
    use crate::reorg::{delete_part, reinsert_part};

    /// The candidate list `add_connection` used to build for every
    /// connection: every other live part with a free in slot, ascending.
    fn scanned_candidates(comp: &CompositeMirror, from: u32) -> Vec<u32> {
        comp.parts
            .iter()
            .enumerate()
            .filter_map(|(qi, p)| match p {
                Some(pm) if qi as u32 != from && pm.free_in_slot().is_some() => Some(qi as u32),
                _ => None,
            })
            .collect()
    }

    /// The bitset equals a from-scratch scan of the slots, bits past the
    /// last slot stay clear, and from every live part the target draw
    /// picks what `choose` over the scanned list picks, consuming the
    /// same randomness.
    fn check(comp: &CompositeMirror, draw_seed: u64) -> Result<(), String> {
        for (i, p) in comp.parts.iter().enumerate() {
            let scanned = p.as_ref().is_some_and(|pm| pm.in_.contains(&None));
            let bit = comp.connectable[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(bit, scanned, "slot {i}");
        }
        let set: u32 = comp.connectable.iter().map(|w| w.count_ones()).sum();
        let open = comp
            .parts
            .iter()
            .flatten()
            .filter(|pm| pm.in_.contains(&None));
        prop_assert_eq!(set as usize, open.count(), "stray bits past the last slot");
        for from in comp.live_part_indices() {
            for k in 0..2 {
                let mut reference = StdRng::seed_from_u64(draw_seed ^ k);
                let mut bitset = reference.clone();
                let want = scanned_candidates(comp, from)
                    .choose(&mut reference)
                    .copied();
                let got = comp.connection_target(from, &mut bitset);
                prop_assert_eq!(got, want, "target from part {from}");
                prop_assert!(bitset == reference, "draws diverged from part {from}");
            }
        }
        Ok(())
    }

    /// Builds `params` at `seed` and checks every composite, then runs
    /// `steps` over the first three composites — each deletes the named
    /// part if it is live and reinserts it otherwise — checking the
    /// touched composite after every step.
    fn run(params: Oo7Params, seed: u64, steps: &[(u32, u32)]) -> Result<(), String> {
        let mut state = build(params, seed);
        for comp in &state.module.composites {
            check(comp, seed)?;
        }
        let n_comps = state.module.composites.len() as u32;
        for (step, &(ci, pi)) in steps.iter().enumerate() {
            let (ci, pi) = (ci % n_comps.min(3), pi % params.num_atomic_per_comp);
            if state.module.composites[ci as usize].parts[pi as usize].is_some() {
                delete_part(&mut state, ci, pi);
            } else {
                reinsert_part(&mut state, ci, pi);
            }
            check(&state.module.composites[ci as usize], seed + step as u64)?;
        }
        Ok(())
    }

    fn steps() -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0u32..3, 0u32..200), 1..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn tiny_bitset_tracks_the_scan(seed in 0u64..1_000, conn in 1u32..6, steps in steps()) {
            let params = Oo7Params {
                num_conn_per_atomic: conn,
                ..Oo7Params::tiny()
            };
            run(params, seed, &steps)?;
        }

        #[test]
        fn small_prime_bitset_tracks_the_scan(seed in 0u64..1_000, conn in 1u32..10, steps in steps()) {
            run(Oo7Params::small_prime(conn), seed, &steps)?;
        }

        #[test]
        fn multi_word_bitset_tracks_the_scan(seed in 0u64..1_000, steps in steps()) {
            // 130 parts span three words: the word-crossing selection path.
            let params = Oo7Params {
                num_atomic_per_comp: 130,
                num_comp_per_module: 2,
                ..Oo7Params::small_prime(3)
            };
            run(params, seed, &steps)?;
        }
    }
}
