//! Object placement.
//!
//! Following §3.1 of the paper, allocation is decoupled from collection:
//! a new object goes into the first partition (in id order) whose free
//! tail holds it, and when no existing partition has room a new one is
//! simply appended. Lack of free space never triggers a collection.
//!
//! "First partition with room" is answered by a [`FreeIndex`], an
//! implicit max-tree over the partitions' free bytes, in
//! O(log partitions). A scan cannot do better than O(partitions) on a
//! real database: a partition that stopped fitting the next object keeps
//! a tail of a few dozen bytes for good, so there is never a prefix of
//! exactly-full partitions to skip, and every `Create` walks them all —
//! a replay quadratic in database size.
//!
//! The index is exact, not a heuristic: every node holds the true maximum
//! of the leaves below it, so the descent returns precisely the leftmost
//! partition a linear scan would stop at. Placements, partition counts,
//! page I/O and every recorded number are those of the scan.

use crate::config::StoreConfig;
use crate::ids::PartitionId;
use crate::partition::Partition;

/// Per-partition free bytes under an implicit max-tree: which is the
/// leftmost partition with at least `size` bytes free?
///
/// `tree` has `2 * leaves` entries, `leaves` a power of two: partition
/// `i`'s free bytes at `tree[leaves + i]`, node `n`'s children at `2n`
/// and `2n + 1`, the root at `tree[1]` (`tree[0]` is unused). Leaves past
/// the last partition hold 0 and so never fit anything. Appending past
/// `leaves` partitions doubles the tree and rebuilds it — O(1) amortized,
/// 8 bytes per partition at the worst.
#[derive(Debug, Clone, Default)]
pub struct FreeIndex {
    tree: Vec<u32>,
    /// Partitions indexed.
    len: usize,
    /// Tree nodes [`FreeIndex::first_fit`] has read so far.
    probes: u64,
}

impl FreeIndex {
    /// An index over no partitions.
    pub fn new() -> Self {
        FreeIndex::default()
    }

    /// Partitions indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no partition is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn leaves(&self) -> usize {
        self.tree.len() / 2
    }

    /// Appends partition `len()` with `free` bytes free.
    pub fn push(&mut self, free: u32) {
        if self.len == self.leaves() {
            let old = self.leaves();
            let leaves = (2 * old).max(1);
            let mut tree = vec![0; 2 * leaves];
            tree[leaves..leaves + old].copy_from_slice(&self.tree[old..]);
            for n in (1..leaves).rev() {
                tree[n] = tree[2 * n].max(tree[2 * n + 1]);
            }
            self.tree = tree;
        }
        self.len += 1;
        self.set(self.len - 1, free);
    }

    /// Partition `i`'s free bytes as the index has them.
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "partition {i} is not indexed");
        self.tree[self.leaves() + i]
    }

    /// Records that partition `i` now has `free` bytes free. Walks up
    /// only as far as a maximum changes.
    pub fn set(&mut self, i: usize, free: u32) {
        assert!(i < self.len, "partition {i} is not indexed");
        let mut n = self.leaves() + i;
        self.tree[n] = free;
        while n > 1 {
            n /= 2;
            let max = self.tree[2 * n].max(self.tree[2 * n + 1]);
            if self.tree[n] == max {
                break;
            }
            self.tree[n] = max;
        }
    }

    /// The leftmost partition with at least `size` bytes free: the root
    /// says whether there is one, and one descent finds it — left
    /// whenever the left subtree's maximum fits.
    pub fn first_fit(&mut self, size: u32) -> Option<usize> {
        self.probes += 1;
        if self.tree.get(1).is_none_or(|&max| max < size) {
            return None;
        }
        let leaves = self.leaves();
        let mut n = 1;
        while n < leaves {
            n *= 2;
            self.probes += 1;
            if self.tree[n] < size {
                n += 1;
            }
        }
        // Padding leaves hold 0, and a descent for 0 bytes keeps left.
        debug_assert!(n - leaves < self.len);
        Some(n - leaves)
    }

    /// Tree nodes read by every [`FreeIndex::first_fit`] so far: the
    /// search's work as a count that repeats exactly.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Audits the tree's shape: `2 * leaves` entries with `leaves` a
    /// power of two holding every partition, padding leaves 0, every
    /// inner node the maximum of its children.
    pub fn check_structure(&self) -> Result<(), String> {
        let leaves = self.leaves();
        if self.tree.is_empty() && self.len == 0 {
            return Ok(());
        }
        if self.tree.len() != 2 * leaves || !leaves.is_power_of_two() || self.len > leaves {
            return Err(format!(
                "free index of {} entries cannot hold {} partitions",
                self.tree.len(),
                self.len
            ));
        }
        if let Some(i) = (self.len..leaves).find(|&i| self.tree[leaves + i] != 0) {
            return Err(format!(
                "free index padding leaf {i} holds {}",
                self.tree[leaves + i]
            ));
        }
        for n in 1..leaves {
            let max = self.tree[2 * n].max(self.tree[2 * n + 1]);
            if self.tree[n] != max {
                return Err(format!(
                    "free index node {n} holds {}, its children's maximum is {max}",
                    self.tree[n]
                ));
            }
        }
        Ok(())
    }
}

/// Chooses a partition and offset for a new object of `size` bytes,
/// appending a partition if necessary. Objects larger than a regular
/// partition get a dedicated, larger partition sized in whole pages.
/// Returns `None`, with nothing changed, when `size` is within a page of
/// `u32::MAX` and so rounds up to a capacity no partition can have.
///
/// `free` mirrors each partition's free bytes, kept in lockstep with
/// `partitions` (here on placement and append, by the store after a
/// collection or grow). It is searched for the leftmost partition with
/// room — one root check and one descent, ⌈log2 partitions⌉ + 1 nodes —
/// and updated along one leaf-to-root path.
pub fn place(
    partitions: &mut Vec<Partition>,
    free: &mut FreeIndex,
    config: &StoreConfig,
    size: u32,
) -> Option<(PartitionId, u32)> {
    debug_assert!(size >= 1);
    debug_assert_eq!(free.len(), partitions.len(), "free index out of sync");
    if let Some(i) = free.first_fit(size) {
        let offset = partitions[i].append(size);
        free.set(i, partitions[i].free_bytes());
        return Some((PartitionId::new(i as u32), offset));
    }
    // No existing partition has room: append one (never collect).
    let pages = config
        .pages_per_partition
        .max(size.div_ceil(config.page_size));
    // The capacity is a `u32`; `Partition::new` would wrap it.
    pages.checked_mul(config.page_size)?;
    let mut fresh = Partition::new(pages, config.page_size);
    let offset = fresh.append(size);
    free.push(fresh.free_bytes());
    partitions.push(fresh);
    Some((PartitionId::new(partitions.len() as u32 - 1), offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StoreConfig {
        StoreConfig::tiny() // 64-byte pages, 4-page (256-byte) partitions
    }

    /// `place` on a store of its own, checking the index after each call.
    struct Placer {
        cfg: StoreConfig,
        parts: Vec<Partition>,
        free: FreeIndex,
    }

    impl Placer {
        fn new(cfg: StoreConfig) -> Self {
            Placer {
                cfg,
                parts: Vec::new(),
                free: FreeIndex::new(),
            }
        }

        fn place(&mut self, size: u32) -> Option<(u32, u32)> {
            let placed = place(&mut self.parts, &mut self.free, &self.cfg, size);
            self.free.check_structure().expect("index stays a max-tree");
            for (i, p) in self.parts.iter().enumerate() {
                assert_eq!(self.free.get(i), p.free_bytes());
            }
            placed.map(|(p, o)| (p.raw(), o))
        }
    }

    #[test]
    fn first_fit_fills_earliest_partition() {
        let mut s = Placer::new(cfg());
        assert_eq!(s.place(100), Some((0, 0)));
        assert_eq!(s.place(100), Some((0, 100)));
        assert_eq!(s.place(100), Some((1, 0))); // 300 > 256: new partition
        assert_eq!(s.place(56), Some((0, 200))); // fits back in partition 0
        assert_eq!(s.parts.len(), 2);
    }

    #[test]
    fn oversized_objects_get_dedicated_partition() {
        let mut s = Placer::new(cfg());
        assert_eq!(s.place(1000), Some((0, 0))); // > 256 bytes
        assert_eq!(s.parts[0].pages, 16); // ceil(1000/64)
        assert_eq!(s.parts[0].capacity, 1024);
        // Tail space of the big partition is reusable under first-fit.
        assert_eq!(s.place(24), Some((0, 1000)));
    }

    #[test]
    fn exact_fit_boundary() {
        let mut s = Placer::new(cfg());
        s.place(256);
        assert_eq!(s.parts.len(), 1);
        assert_eq!(s.parts[0].free_bytes(), 0);
        assert_eq!(s.place(1), Some((1, 0)));
    }

    #[test]
    fn a_size_no_partition_can_hold_places_nothing() {
        let mut s = Placer::new(cfg());
        s.place(100);
        // Whole pages up to u32::MAX: 64 * 67_108_863.
        let largest = u32::MAX - 63;
        assert_eq!(s.place(largest + 1), None);
        assert_eq!(s.place(u32::MAX), None);
        assert_eq!((s.parts.len(), s.free.len()), (1, 1));
        assert_eq!(s.place(largest), Some((1, 0)));
        assert_eq!(s.parts[1].free_bytes(), 0);
    }

    #[test]
    fn search_reads_one_node_per_level() {
        let mut free = FreeIndex::new();
        for _ in 0..9 {
            free.push(10); // 9 partitions: 16 leaves, 4 levels below the root
        }
        assert_eq!(free.first_fit(11), None);
        assert_eq!(free.probes(), 1, "the root alone says no");
        assert_eq!(free.first_fit(10), Some(0));
        assert_eq!(free.probes(), 1 + 5);
    }
}
