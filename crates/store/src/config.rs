//! Store configuration.

/// What counts as a *pointer overwrite* for the overwrite clock.
///
/// The paper uses pointer overwrites — "modifications of pointers between
/// objects" — as the indicator that garbage is being created, because only
/// killing an existing pointer can disconnect objects. Initial stores into
/// null slots therefore do not advance the clock under the default
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverwriteSemantics {
    /// Only slot writes whose *old* value was a non-null pointer advance the
    /// overwrite clock (the paper's semantics; default).
    #[default]
    NonNullOld,
    /// Every slot write advances the clock (ablation mode). Per-partition
    /// overwrite counters still require a non-null old target, since the
    /// counter is keyed by the old target's partition.
    AllStores,
}

/// Static configuration of a [`crate::Store`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Page size in bytes (paper: 8 KiB).
    pub page_size: u32,
    /// Pages per partition (paper: 12, i.e. 96 KiB partitions).
    pub pages_per_partition: u32,
    /// Buffer-pool capacity in pages (paper: equal to one partition).
    pub buffer_pages: u32,
    /// Overwrite-clock semantics.
    pub overwrite_semantics: OverwriteSemantics,
}

impl Default for StoreConfig {
    /// The paper's configuration: 8 KiB pages, 12-page partitions, 12-page
    /// buffer.
    fn default() -> Self {
        StoreConfig {
            page_size: 8 * 1024,
            pages_per_partition: 12,
            buffer_pages: 12,
            overwrite_semantics: OverwriteSemantics::default(),
        }
    }
}

impl StoreConfig {
    /// A small configuration convenient for unit tests: 64-byte pages,
    /// 4-page partitions, 4-page buffer.
    pub fn tiny() -> Self {
        StoreConfig {
            page_size: 64,
            pages_per_partition: 4,
            buffer_pages: 4,
            ..StoreConfig::default()
        }
    }

    /// Capacity of a regular partition in bytes.
    pub fn partition_bytes(&self) -> u32 {
        self.page_size * self.pages_per_partition
    }

    /// Panics if the configuration is unusable.
    pub fn validate(&self) {
        assert!(self.page_size > 0, "page_size must be positive");
        assert!(
            self.pages_per_partition > 0,
            "pages_per_partition must be positive"
        );
        assert!(self.buffer_pages > 0, "buffer_pages must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = StoreConfig::default();
        assert_eq!(c.page_size, 8192);
        assert_eq!(c.pages_per_partition, 12);
        assert_eq!(c.buffer_pages, 12);
        assert_eq!(c.partition_bytes(), 96 * 1024);
        assert_eq!(c.overwrite_semantics, OverwriteSemantics::NonNullOld);
        c.validate();
    }

    #[test]
    fn tiny_is_valid() {
        let c = StoreConfig::tiny();
        c.validate();
        assert_eq!(c.partition_bytes(), 256);
    }

    #[test]
    #[should_panic(expected = "page_size")]
    fn zero_page_size_rejected() {
        StoreConfig {
            page_size: 0,
            ..StoreConfig::default()
        }
        .validate();
    }
}
