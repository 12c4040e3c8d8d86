//! Remembered sets: per-partition records of incoming cross-partition
//! references.
//!
//! Partitioned collection treats every reference into the collected
//! partition from *outside* it as a root (plus global roots resident
//! inside), and does not traverse pointers leaving the partition. The
//! remembered set therefore tracks *physical* pointers — including those
//! held by objects that are already unreachable — because the collector
//! cannot know a remote holder is garbage. This is the standard
//! conservatism of partitioned GC: garbage chains that cross partitions are
//! reclaimed only once the referencing partition is collected first.
//!
//! Remset maintenance sits on the per-event hot path (every pointer write
//! may insert or remove an entry), so the storage is a hand-rolled
//! open-addressing table with an FxHash-style multiplicative hasher
//! instead of `HashMap`'s SipHash: no per-operation allocation, no
//! cryptographic mixing, cache-friendly linear probing. The observable
//! behavior (insert/remove/target_of/external_targets_into/entry_count)
//! is identical to the previous `HashMap<RemEntry, ObjectId>`-backed
//! implementation; `crates/store/tests/remset_differential.rs` proves it
//! against a `HashMap` oracle under random operation sequences.
//!
//! A collection never prunes the collected partition's own set: every
//! target remembered there is one of its collection roots, so it
//! survives.

use odbgc_trace::{ObjectId, SlotIdx};

use crate::ids::PartitionId;

/// One remembered reference: a slot of `src` (in another partition)
/// pointing at `target` (in this set's partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemEntry {
    /// The referencing object (in another partition).
    pub src: ObjectId,
    /// The slot of `src` holding the pointer.
    pub slot: SlotIdx,
}

/// FxHash-style mixer for the (src, slot) key: xor-fold the two words,
/// then one multiply by a random odd constant and a high-bit fold. Not
/// DoS-resistant — irrelevant here, keys are simulator-generated ids —
/// but 1–2 ns instead of SipHash's ~20.
#[inline]
fn hash_key(src: u64, slot: u32) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (src.rotate_left(5) ^ u64::from(slot)).wrapping_mul(K);
    h ^= h >> 32;
    h
}

/// Control-byte states for the open-addressing table.
const EMPTY: u8 = 0;
const FULL: u8 = 1;
const TOMBSTONE: u8 = 2;

/// Open-addressing (linear probing, tombstone deletion) map from
/// `(src, slot)` to the remembered target.
///
/// Invariants: `ctrl`, `keys`, and `vals` always have identical length,
/// a power of two; `len` counts FULL slots; `used` counts FULL +
/// TOMBSTONE slots and triggers a rehash when it exceeds 7/8 of
/// capacity. The rehash drops tombstones and sizes the new table from
/// `len` alone, so capacity follows the live entries, not the churn
/// that filled the old table with tombstones.
#[derive(Debug, Clone, Default)]
struct RemTable {
    ctrl: Vec<u8>,
    keys: Vec<(u64, u32)>,
    vals: Vec<ObjectId>,
    len: usize,
    used: usize,
}

impl RemTable {
    const MIN_CAPACITY: usize = 8;

    #[inline]
    fn mask(&self) -> usize {
        self.ctrl.len() - 1
    }

    /// Index of the key if present, else the slot where an insert should
    /// land (first tombstone on the probe path, or the empty slot).
    #[inline]
    fn probe(&self, key: (u64, u32)) -> (Option<usize>, usize) {
        debug_assert!(!self.ctrl.is_empty());
        let mask = self.mask();
        let mut i = hash_key(key.0, key.1) as usize & mask;
        let mut insert_at = usize::MAX;
        loop {
            match self.ctrl[i] {
                EMPTY => {
                    let at = if insert_at == usize::MAX {
                        i
                    } else {
                        insert_at
                    };
                    return (None, at);
                }
                FULL if self.keys[i] == key => return (Some(i), i),
                TOMBSTONE if insert_at == usize::MAX => insert_at = i,
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Rehashes the FULL entries into a table of at least twice `len + 1`
    /// slots: double when the table is full of live entries, the same or
    /// smaller when it is full of tombstones. Either way the new table is
    /// at most half used, so insert stays amortised O(1).
    fn rehash(&mut self) {
        let new_cap = ((self.len + 1) * 2)
            .next_power_of_two()
            .max(Self::MIN_CAPACITY);
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; new_cap]);
        let old_keys = std::mem::replace(&mut self.keys, vec![(0, 0); new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![ObjectId::new(0); new_cap]);
        self.used = self.len;
        let mask = new_cap - 1;
        for (i, &c) in old_ctrl.iter().enumerate() {
            if c != FULL {
                continue;
            }
            let key = old_keys[i];
            let mut j = hash_key(key.0, key.1) as usize & mask;
            while self.ctrl[j] == FULL {
                j = (j + 1) & mask;
            }
            self.ctrl[j] = FULL;
            self.keys[j] = key;
            self.vals[j] = old_vals[i];
        }
    }

    fn insert(&mut self, key: (u64, u32), val: ObjectId) {
        if self.ctrl.is_empty() || (self.used + 1) * 8 > self.ctrl.len() * 7 {
            self.rehash();
        }
        let (found, at) = self.probe(key);
        if found.is_some() {
            self.vals[at] = val;
            return;
        }
        if self.ctrl[at] == EMPTY {
            self.used += 1;
        }
        self.ctrl[at] = FULL;
        self.keys[at] = key;
        self.vals[at] = val;
        self.len += 1;
    }

    fn remove(&mut self, key: (u64, u32)) {
        if self.ctrl.is_empty() {
            return;
        }
        if let (Some(i), _) = self.probe(key) {
            self.ctrl[i] = TOMBSTONE;
            self.len -= 1;
        }
    }

    fn get(&self, key: (u64, u32)) -> Option<ObjectId> {
        if self.ctrl.is_empty() {
            return None;
        }
        self.probe(key).0.map(|i| self.vals[i])
    }

    /// Appends the target of every FULL slot to `out`, in table order.
    /// Branch-free: every slot's value is written at the cursor, and the
    /// cursor advances only past a FULL slot, so the next write replaces
    /// the value of a slot that is not. The cursor ends at `len`; one
    /// spare element takes the writes made there.
    fn values_into(&self, out: &mut Vec<ObjectId>) {
        let start = out.len();
        out.resize(start + self.len + 1, ObjectId::new(0));
        let dst = &mut out[start..];
        let mut cursor = 0;
        for (&c, &val) in self.ctrl.iter().zip(&self.vals) {
            dst[cursor] = val;
            cursor += usize::from(c == FULL);
        }
        debug_assert_eq!(cursor, self.len);
        out.truncate(start + self.len);
    }

    /// Structural audit: verifies the open-addressing invariants hold —
    /// parallel arrays in lockstep, power-of-two (or empty) capacity,
    /// `len`/`used` matching the control bytes, and every FULL key
    /// reachable by its own probe sequence (i.e. no entry was stranded by
    /// a torn rehash or deletion).
    fn check_structure(&self, p: usize) -> Result<(), String> {
        let cap = self.ctrl.len();
        if self.keys.len() != cap || self.vals.len() != cap {
            return Err(format!(
                "remset[{p}]: parallel arrays out of lockstep ({cap}/{}/{})",
                self.keys.len(),
                self.vals.len()
            ));
        }
        if cap != 0 && !cap.is_power_of_two() {
            return Err(format!("remset[{p}]: capacity {cap} not a power of two"));
        }
        let full = self.ctrl.iter().filter(|&&c| c == FULL).count();
        let dead = self.ctrl.iter().filter(|&&c| c == TOMBSTONE).count();
        if full != self.len {
            return Err(format!(
                "remset[{p}]: len {} but {full} FULL slots",
                self.len
            ));
        }
        if full + dead != self.used {
            return Err(format!(
                "remset[{p}]: used {} but {full} FULL + {dead} TOMBSTONE slots",
                self.used
            ));
        }
        for (i, &c) in self.ctrl.iter().enumerate() {
            if c != FULL {
                continue;
            }
            let key = self.keys[i];
            if self.probe(key).0 != Some(i) {
                return Err(format!(
                    "remset[{p}]: entry at slot {i} unreachable by its probe sequence"
                ));
            }
        }
        Ok(())
    }
}

/// Remembered sets for all partitions.
#[derive(Debug, Clone, Default)]
pub struct RemSets {
    /// `sets[p]` maps (src, slot) → target for every cross-partition
    /// pointer into partition `p`.
    sets: Vec<RemTable>,
}

impl RemSets {
    /// Empty remembered sets.
    pub fn new() -> Self {
        RemSets::default()
    }

    fn ensure(&mut self, p: PartitionId) -> &mut RemTable {
        if self.sets.len() <= p.index() {
            self.sets.resize_with(p.index() + 1, RemTable::default);
        }
        &mut self.sets[p.index()]
    }

    /// Records that `src.slots[slot]` (src in `src_partition`) now points at
    /// `target` living in `target_partition`. Intra-partition pointers are
    /// not remembered.
    pub fn insert(
        &mut self,
        src: ObjectId,
        slot: SlotIdx,
        src_partition: PartitionId,
        target: ObjectId,
        target_partition: PartitionId,
    ) {
        if src_partition == target_partition {
            return;
        }
        self.ensure(target_partition)
            .insert((src.raw(), slot.raw()), target);
    }

    /// Removes the remembered entry for `src.slots[slot]` pointing into
    /// `target_partition`, if present.
    pub fn remove(&mut self, src: ObjectId, slot: SlotIdx, target_partition: PartitionId) {
        if let Some(set) = self.sets.get_mut(target_partition.index()) {
            set.remove((src.raw(), slot.raw()));
        }
    }

    /// The target remembered for `src.slots[slot]` in `p`'s set, if any.
    pub fn target_of(&self, src: ObjectId, slot: SlotIdx, p: PartitionId) -> Option<ObjectId> {
        self.sets.get(p.index())?.get((src.raw(), slot.raw()))
    }

    /// Appends the target of every entry into `p` to `out` — the external
    /// component of `p`'s collection roots — in table order, *without*
    /// sorting or deduplication (one push per entry, so an object
    /// referenced from several slots appears several times). Callers
    /// building a root set sort and dedup the whole buffer once at the
    /// end.
    pub fn external_targets_into(&self, p: PartitionId, out: &mut Vec<ObjectId>) {
        if let Some(set) = self.sets.get(p.index()) {
            set.values_into(out);
        }
    }

    /// Number of remembered entries into `p`.
    pub fn entry_count(&self, p: PartitionId) -> usize {
        self.sets.get(p.index()).map_or(0, |t| t.len)
    }

    /// Total remembered entries across all partitions (space-overhead
    /// metric).
    pub fn total_entries(&self) -> usize {
        self.sets.iter().map(|t| t.len).sum()
    }

    /// Structural audit of every per-partition table (see
    /// `RemTable::check_structure`). Run by the store's deep consistency
    /// check after collections — in particular after parallel
    /// collections, where it proves the sweep/finalize split left no
    /// torn table behind.
    pub fn check_structure(&self) -> Result<(), String> {
        for (p, set) in self.sets.iter().enumerate() {
            set.check_structure(p)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PartitionId {
        PartitionId::new(n)
    }
    fn oid(n: u64) -> ObjectId {
        ObjectId::new(n)
    }
    fn s(n: u32) -> SlotIdx {
        SlotIdx::new(n)
    }
    /// The distinct targets remembered into `p`, in id order.
    fn targets(rs: &RemSets, p: PartitionId) -> Vec<ObjectId> {
        let mut v = Vec::new();
        rs.external_targets_into(p, &mut v);
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn cross_partition_refs_are_remembered() {
        let mut rs = RemSets::new();
        rs.insert(oid(1), s(0), pid(0), oid(9), pid(1));
        assert_eq!(targets(&rs, pid(1)), vec![oid(9)]);
        assert_eq!(rs.entry_count(pid(1)), 1);
        assert_eq!(targets(&rs, pid(0)), Vec::<ObjectId>::new());
    }

    #[test]
    fn intra_partition_refs_are_not() {
        let mut rs = RemSets::new();
        rs.insert(oid(1), s(0), pid(2), oid(9), pid(2));
        assert_eq!(rs.entry_count(pid(2)), 0);
    }

    #[test]
    fn remove_erases_specific_slot() {
        let mut rs = RemSets::new();
        rs.insert(oid(1), s(0), pid(0), oid(9), pid(1));
        rs.insert(oid(1), s(1), pid(0), oid(9), pid(1));
        rs.remove(oid(1), s(0), pid(1));
        assert_eq!(rs.entry_count(pid(1)), 1);
        assert_eq!(rs.target_of(oid(1), s(0), pid(1)), None);
        assert_eq!(rs.target_of(oid(1), s(1), pid(1)), Some(oid(9)));
        // The surviving entry still makes o9 a root of P1.
        assert_eq!(targets(&rs, pid(1)), vec![oid(9)]);
    }

    #[test]
    fn targets_are_deduped() {
        let mut rs = RemSets::new();
        rs.insert(oid(1), s(0), pid(0), oid(9), pid(1));
        rs.insert(oid(2), s(0), pid(0), oid(9), pid(1));
        rs.insert(oid(2), s(1), pid(0), oid(8), pid(1));
        assert_eq!(targets(&rs, pid(1)), vec![oid(8), oid(9)]);
        assert_eq!(rs.entry_count(pid(1)), 3);
        assert_eq!(rs.total_entries(), 3);
    }

    #[test]
    fn remove_on_unknown_partition_is_noop() {
        let mut rs = RemSets::new();
        rs.remove(oid(1), s(0), pid(7));
        assert_eq!(rs.entry_count(pid(7)), 0);
    }

    #[test]
    fn reinsert_overwrites_target() {
        let mut rs = RemSets::new();
        rs.insert(oid(1), s(0), pid(0), oid(9), pid(1));
        rs.insert(oid(1), s(0), pid(0), oid(8), pid(1));
        assert_eq!(rs.entry_count(pid(1)), 1);
        assert_eq!(rs.target_of(oid(1), s(0), pid(1)), Some(oid(8)));
        assert_eq!(targets(&rs, pid(1)), vec![oid(8)]);
    }

    #[test]
    fn structural_audit_passes_under_churn() {
        let mut rs = RemSets::new();
        rs.check_structure()
            .expect("empty sets are structurally ok");
        for round in 0..3u64 {
            for i in 0..150u64 {
                rs.insert(oid(i), s(round as u32), pid(0), oid(500 + i), pid(1));
            }
            for i in (0..150u64).step_by(3) {
                rs.remove(oid(i), s(round as u32), pid(1));
            }
            rs.check_structure().expect("audit after churn round");
        }
    }

    #[test]
    fn capacity_follows_live_entries_not_churn() {
        const LIVE: u64 = 1_000;
        let mut rs = RemSets::new();
        for i in 0..LIVE {
            rs.insert(oid(i), s(0), pid(0), oid(i), pid(1));
        }
        // Each pair retires the oldest entry and remembers a fresh
        // (src, slot): the live count stays put while tombstones pile up.
        for i in 0..200_000u64 {
            rs.remove(oid(i), s(0), pid(1));
            rs.insert(oid(LIVE + i), s(0), pid(0), oid(i), pid(1));
        }
        assert_eq!(rs.entry_count(pid(1)), LIVE as usize);
        let capacity = rs.sets[1].ctrl.len();
        assert!(
            capacity <= 4 * LIVE as usize + RemTable::MIN_CAPACITY,
            "{capacity} slots for {LIVE} live entries"
        );
        rs.check_structure().expect("audit after churn");
    }

    #[test]
    fn table_survives_growth_and_tombstone_churn() {
        let mut rs = RemSets::new();
        // Enough inserts to force several rehashes, interleaved with
        // removals so tombstones accumulate on probe paths.
        for round in 0..4u64 {
            for i in 0..200u64 {
                rs.insert(oid(i), s(round as u32), pid(0), oid(1000 + i), pid(1));
            }
            for i in (0..200u64).step_by(2) {
                rs.remove(oid(i), s(round as u32), pid(1));
            }
        }
        assert_eq!(rs.entry_count(pid(1)), 4 * 100);
        let targets = targets(&rs, pid(1));
        let expected: Vec<ObjectId> = (0..200u64)
            .filter(|i| i % 2 == 1)
            .map(|i| oid(1000 + i))
            .collect();
        assert_eq!(targets, expected);
    }
}
