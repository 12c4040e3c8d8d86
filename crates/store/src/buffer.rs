//! An LRU buffer pool with O(1) lookup.
//!
//! The paper sizes the buffer equal to one partition (12 × 8 KiB pages,
//! §3.1), but `touch` sits on the per-event hot path — every object
//! access touches each page the object spans — so even a tiny pool is
//! worth indexing. Frames live in a slab threaded onto an intrusive
//! doubly-linked LRU list (head = least recent), and a per-partition
//! page→frame table makes lookup, hit promotion, and eviction all O(1)
//! with zero steady-state allocation. A buffer miss costs one page read;
//! evicting a dirty page costs one page write, charged to the I/O class
//! performing the access that caused the eviction.

use crate::ids::{PageKey, PartitionId};
use crate::io::{IoClass, IoLedger};

/// Sentinel for "no frame" in the page index and LRU links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Frame {
    key: PageKey,
    dirty: bool,
    /// LRU list neighbor toward the head (less recently used).
    prev: u32,
    /// LRU list neighbor toward the tail (more recently used).
    next: u32,
}

/// Buffer access statistics (hits/misses per class), separate from the page
/// I/O ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Application accesses served from the buffer.
    pub app_hits: u64,
    /// Application accesses that had to read a page.
    pub app_misses: u64,
    /// Collector accesses served from the buffer.
    pub gc_hits: u64,
    /// Collector accesses that had to read a page.
    pub gc_misses: u64,
    /// Evictions that had to write a dirty page back.
    pub dirty_evictions: u64,
}

impl BufferStats {
    /// Application hit rate in `[0, 1]`; 0 when no accesses.
    pub fn app_hit_rate(&self) -> f64 {
        let total = self.app_hits + self.app_misses;
        if total == 0 {
            0.0
        } else {
            self.app_hits as f64 / total as f64
        }
    }
}

/// Fixed-capacity LRU page buffer with dirty-bit tracking.
#[derive(Debug, Clone)]
pub struct BufferPool {
    /// Frame slab; slots are recycled via `free`, never shrunk.
    frames: Vec<Frame>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Least recently used frame (first eviction victim).
    lru_head: u32,
    /// Most recently used frame.
    lru_tail: u32,
    /// `page_index[partition][page]` → frame slot, or `NIL`. Grown on
    /// demand as partitions/pages are first touched.
    page_index: Vec<Vec<u32>>,
    /// Buffered page count (`frames` minus free slots).
    live: usize,
    capacity: usize,
    stats: BufferStats,
}

impl BufferPool {
    /// Creates a pool holding `capacity` pages.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "buffer must hold at least one page");
        BufferPool {
            frames: Vec::with_capacity(capacity as usize),
            free: Vec::new(),
            lru_head: NIL,
            lru_tail: NIL,
            page_index: Vec::new(),
            live: 0,
            capacity: capacity as usize,
            stats: BufferStats::default(),
        }
    }

    /// Frame slot buffering `key`, if any.
    #[inline]
    fn lookup(&self, key: PageKey) -> Option<u32> {
        let slot = *self
            .page_index
            .get(key.partition.index())?
            .get(key.page as usize)?;
        (slot != NIL).then_some(slot)
    }

    /// Points `key`'s index entry at `slot`, growing the index on demand.
    fn index_set(&mut self, key: PageKey, slot: u32) {
        let p = key.partition.index();
        if self.page_index.len() <= p {
            self.page_index.resize_with(p + 1, Vec::new);
        }
        let pages = &mut self.page_index[p];
        if pages.len() <= key.page as usize {
            pages.resize(key.page as usize + 1, NIL);
        }
        pages[key.page as usize] = slot;
    }

    /// Unlinks frame `i` from the LRU list (it stays in the slab).
    fn detach(&mut self, i: u32) {
        let Frame { prev, next, .. } = self.frames[i as usize];
        if prev == NIL {
            self.lru_head = next;
        } else {
            self.frames[prev as usize].next = next;
        }
        if next == NIL {
            self.lru_tail = prev;
        } else {
            self.frames[next as usize].prev = prev;
        }
    }

    /// Links frame `i` at the most-recently-used end.
    fn attach_tail(&mut self, i: u32) {
        let tail = self.lru_tail;
        self.frames[i as usize].prev = tail;
        self.frames[i as usize].next = NIL;
        if tail == NIL {
            self.lru_head = i;
        } else {
            self.frames[tail as usize].next = i;
        }
        self.lru_tail = i;
    }

    /// Unlinks frame `i`, clears its index entry, and recycles its slot.
    fn drop_frame(&mut self, i: u32) {
        self.detach(i);
        let key = self.frames[i as usize].key;
        self.page_index[key.partition.index()][key.page as usize] = NIL;
        self.free.push(i);
        self.live -= 1;
    }

    /// Touches `key` on behalf of `class`, marking it dirty if `dirty`.
    /// Charges a read to `ledger` on a miss and a write when a dirty page
    /// must be evicted to make room.
    pub fn touch(&mut self, key: PageKey, dirty: bool, class: IoClass, ledger: &mut IoLedger) {
        // Fast path: a repeat touch of the most-recently-used page — the
        // common case, e.g. successive slot writes against one object
        // header — needs no index lookup and no list splice, only the
        // dirty bit and the hit counter.
        let tail = self.lru_tail;
        if tail != NIL && self.frames[tail as usize].key == key {
            self.frames[tail as usize].dirty |= dirty;
            match class {
                IoClass::App => self.stats.app_hits += 1,
                IoClass::Gc => self.stats.gc_hits += 1,
            }
            return;
        }
        if let Some(i) = self.lookup(key) {
            self.frames[i as usize].dirty |= dirty;
            match class {
                IoClass::App => self.stats.app_hits += 1,
                IoClass::Gc => self.stats.gc_hits += 1,
            }
            if self.lru_tail != i {
                self.detach(i);
                self.attach_tail(i);
            }
            return;
        }
        match class {
            IoClass::App => self.stats.app_misses += 1,
            IoClass::Gc => self.stats.gc_misses += 1,
        }
        ledger.charge_reads(class, 1);
        if self.live == self.capacity {
            let victim = self.lru_head;
            if self.frames[victim as usize].dirty {
                ledger.charge_writes(class, 1);
                self.stats.dirty_evictions += 1;
            }
            self.drop_frame(victim);
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.frames.push(Frame {
                    key,
                    dirty,
                    prev: NIL,
                    next: NIL,
                });
                (self.frames.len() - 1) as u32
            }
        };
        self.frames[i as usize] = Frame {
            key,
            dirty,
            prev: NIL,
            next: NIL,
        };
        self.attach_tail(i);
        self.index_set(key, i);
        self.live += 1;
    }

    /// Drops every buffered page of partition `p` *without* writing it
    /// back, in O(pages of `p`) via the page index. The collector uses
    /// this when it rewrites a partition wholesale: buffered copies are
    /// stale and their contents were already persisted by the collector's
    /// own writes.
    pub fn invalidate_partition(&mut self, p: PartitionId) {
        let Some(n) = self.page_index.get(p.index()).map(Vec::len) else {
            return;
        };
        for pg in 0..n {
            let i = self.page_index[p.index()][pg];
            if i != NIL {
                self.drop_frame(i);
            }
        }
    }

    /// Is `key` currently buffered?
    pub fn contains(&self, key: PageKey) -> bool {
        self.lookup(key).is_some()
    }

    /// Is `key` buffered and dirty?
    pub fn is_dirty(&self, key: PageKey) -> bool {
        self.lookup(key)
            .is_some_and(|i| self.frames[i as usize].dirty)
    }

    /// Number of buffered pages.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Access statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Buffered pages from least to most recently used. Test/diagnostic
    /// helper for asserting eviction order.
    pub fn lru_order(&self) -> Vec<PageKey> {
        let mut out = Vec::with_capacity(self.live);
        let mut i = self.lru_head;
        while i != NIL {
            out.push(self.frames[i as usize].key);
            i = self.frames[i as usize].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PartitionId;

    fn key(p: u32, pg: u32) -> PageKey {
        PageKey::new(PartitionId::new(p), pg)
    }

    #[test]
    fn miss_charges_read_hit_charges_nothing() {
        let mut pool = BufferPool::new(2);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), false, IoClass::App, &mut io);
        assert_eq!(io.app_reads, 1);
        pool.touch(key(0, 0), false, IoClass::App, &mut io);
        assert_eq!(io.app_reads, 1);
        assert_eq!(pool.stats().app_hits, 1);
        assert_eq!(pool.stats().app_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut pool = BufferPool::new(2);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), false, IoClass::App, &mut io);
        pool.touch(key(0, 1), false, IoClass::App, &mut io);
        pool.touch(key(0, 0), false, IoClass::App, &mut io); // refresh page 0
        pool.touch(key(0, 2), false, IoClass::App, &mut io); // evicts page 1
        assert!(pool.contains(key(0, 0)));
        assert!(!pool.contains(key(0, 1)));
        assert!(pool.contains(key(0, 2)));
    }

    #[test]
    fn dirty_eviction_charges_write() {
        let mut pool = BufferPool::new(1);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), true, IoClass::App, &mut io);
        assert_eq!((io.app_reads, io.app_writes), (1, 0));
        pool.touch(key(0, 1), false, IoClass::App, &mut io);
        assert_eq!((io.app_reads, io.app_writes), (2, 1));
        assert_eq!(pool.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_eviction_charges_no_write() {
        let mut pool = BufferPool::new(1);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), false, IoClass::App, &mut io);
        pool.touch(key(0, 1), false, IoClass::App, &mut io);
        assert_eq!(io.app_writes, 0);
    }

    #[test]
    fn dirty_bit_is_sticky() {
        let mut pool = BufferPool::new(2);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), true, IoClass::App, &mut io);
        pool.touch(key(0, 0), false, IoClass::App, &mut io);
        assert!(pool.is_dirty(key(0, 0)));
    }

    #[test]
    fn invalidate_drops_without_writeback() {
        let mut pool = BufferPool::new(4);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), true, IoClass::App, &mut io);
        pool.touch(key(1, 0), true, IoClass::App, &mut io);
        let writes_before = io.app_writes + io.gc_writes;
        pool.invalidate_partition(PartitionId::new(0));
        assert!(!pool.contains(key(0, 0)));
        assert!(pool.contains(key(1, 0)));
        assert_eq!(io.app_writes + io.gc_writes, writes_before);
    }

    #[test]
    fn invalidate_partition_matches_predicate_form() {
        let mut pool = BufferPool::new(6);
        let mut io = IoLedger::new();
        for pg in 0..3 {
            pool.touch(key(0, pg), pg == 1, IoClass::App, &mut io);
            pool.touch(key(1, pg), false, IoClass::Gc, &mut io);
        }
        let writes_before = io.app_writes + io.gc_writes;
        pool.invalidate_partition(PartitionId::new(0));
        assert_eq!(io.app_writes + io.gc_writes, writes_before);
        for pg in 0..3 {
            assert!(!pool.contains(key(0, pg)));
            assert!(pool.contains(key(1, pg)));
        }
        assert_eq!(pool.len(), 3);
        // Surviving pages keep their recency order.
        assert_eq!(pool.lru_order(), vec![key(1, 0), key(1, 1), key(1, 2)]);
    }

    #[test]
    fn gc_class_charges_gc_ledger() {
        let mut pool = BufferPool::new(1);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), true, IoClass::Gc, &mut io);
        pool.touch(key(0, 1), false, IoClass::Gc, &mut io);
        assert_eq!(io.gc_reads, 2);
        assert_eq!(io.gc_writes, 1);
        assert_eq!(io.app_total(), 0);
    }

    #[test]
    fn capacity_respected() {
        let mut pool = BufferPool::new(3);
        let mut io = IoLedger::new();
        for pg in 0..10 {
            pool.touch(key(0, pg), false, IoClass::App, &mut io);
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.capacity(), 3);
    }

    #[test]
    fn frame_slots_are_recycled_after_invalidation() {
        let mut pool = BufferPool::new(3);
        let mut io = IoLedger::new();
        for round in 0..5 {
            for pg in 0..3 {
                pool.touch(key(0, pg), false, IoClass::App, &mut io);
            }
            pool.invalidate_partition(PartitionId::new(0));
            assert!(pool.is_empty(), "round {round}");
        }
        // The slab never grew past capacity despite 15 insertions.
        assert!(pool.frames.len() <= 3);
    }

    #[test]
    fn lru_order_tracks_touches() {
        let mut pool = BufferPool::new(3);
        let mut io = IoLedger::new();
        pool.touch(key(0, 0), false, IoClass::App, &mut io);
        pool.touch(key(0, 1), false, IoClass::App, &mut io);
        pool.touch(key(0, 2), false, IoClass::App, &mut io);
        pool.touch(key(0, 0), false, IoClass::App, &mut io);
        assert_eq!(pool.lru_order(), vec![key(0, 1), key(0, 2), key(0, 0)]);
    }
}
