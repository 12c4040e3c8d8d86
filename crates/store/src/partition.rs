//! Partition bookkeeping.
//!
//! A partition is a fixed extent of pages. Objects are appended at the
//! high-water mark; only a collection compacts the partition and lowers the
//! mark. Oversized objects (larger than a regular partition, e.g. the OO7
//! manual) get a dedicated partition sized to fit.

use odbgc_trace::ObjectId;

/// Bookkeeping for one partition.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Capacity in bytes (pages × page size; oversized partitions are
    /// larger than the regular size).
    pub capacity: u32,
    /// Capacity in pages.
    pub pages: u32,
    /// Append point: bytes in use (live + garbage).
    pub high_water: u32,
    /// Bytes of live objects resident here (per the incremental tracker).
    pub live_bytes: u64,
    /// Bytes of garbage objects resident here (oracle knowledge; *not*
    /// visible to estimators, which must guess).
    pub garbage_bytes: u64,
    /// Objects resident in this partition in layout (offset) order.
    /// Includes garbage until it is collected; never includes destroyed
    /// objects.
    pub residents: Vec<ObjectId>,
    /// Resident objects registered as global roots: together with
    /// `ObjectInfo::is_root`, the store's root set. Maintained on root
    /// add/remove; a collection leaves it alone, because roots are
    /// collection roots and so always survive.
    pub root_residents: Vec<ObjectId>,
    /// Resident objects currently holding a birth pin. Maintained on
    /// create and on first incoming reference (pin drop); a collection
    /// leaves it alone, because pinned objects are collection roots too.
    /// Lets `partition_roots` skip the full resident scan.
    pub pinned_residents: Vec<ObjectId>,
    /// Pointer overwrites whose old target lived in this partition since
    /// the partition was last collected (the FGS state; also drives the
    /// UPDATEDPOINTER selection policy).
    pub overwrites: u64,
    /// Number of times this partition has been collected.
    pub collections: u64,
}

impl Partition {
    /// An empty partition with the given page geometry.
    pub fn new(pages: u32, page_size: u32) -> Self {
        Partition {
            capacity: pages * page_size,
            pages,
            high_water: 0,
            live_bytes: 0,
            garbage_bytes: 0,
            residents: Vec::new(),
            root_residents: Vec::new(),
            pinned_residents: Vec::new(),
            overwrites: 0,
            collections: 0,
        }
    }

    /// Free bytes at the tail.
    pub fn free_bytes(&self) -> u32 {
        self.capacity - self.high_water
    }

    /// Can an object of `size` bytes be appended?
    pub fn fits(&self, size: u32) -> bool {
        size <= self.free_bytes()
    }

    /// Appends `size` bytes, returning the allocated offset.
    /// Panics if it does not fit — callers must check [`Partition::fits`].
    pub fn append(&mut self, size: u32) -> u32 {
        assert!(self.fits(size), "allocation beyond partition capacity");
        let offset = self.high_water;
        self.high_water += size;
        offset
    }

    /// Pages currently occupied (touched by any resident data).
    pub fn occupied_pages(&self, page_size: u32) -> u32 {
        self.high_water.div_ceil(page_size)
    }

    /// Extends the partition by `extra_pages` pages, returning the number
    /// of capacity bytes added (so callers can maintain global tallies).
    pub fn grow(&mut self, extra_pages: u32, page_size: u32) -> u64 {
        let added = extra_pages * page_size;
        self.pages += extra_pages;
        self.capacity += added;
        u64::from(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_advances_high_water() {
        let mut p = Partition::new(4, 64);
        assert_eq!(p.capacity, 256);
        let a = p.append(100);
        let b = p.append(50);
        assert_eq!((a, b), (0, 100));
        assert_eq!(p.high_water, 150);
        assert_eq!(p.free_bytes(), 106);
        assert!(p.fits(106));
        assert!(!p.fits(107));
    }

    #[test]
    #[should_panic(expected = "beyond partition capacity")]
    fn overfull_append_panics() {
        let mut p = Partition::new(1, 64);
        p.append(65);
    }

    #[test]
    fn grow_extends_capacity_in_place() {
        let mut p = Partition::new(1, 64);
        p.append(60);
        assert!(!p.fits(10));
        assert_eq!(p.grow(2, 64), 128);
        assert_eq!((p.pages, p.capacity), (3, 192));
        assert!(p.fits(10));
        assert_eq!(p.append(10), 60);
    }

    #[test]
    fn occupied_pages_rounds_up() {
        let mut p = Partition::new(4, 64);
        assert_eq!(p.occupied_pages(64), 0);
        p.append(1);
        assert_eq!(p.occupied_pages(64), 1);
        p.append(63);
        assert_eq!(p.occupied_pages(64), 1);
        p.append(1);
        assert_eq!(p.occupied_pages(64), 2);
    }
}
