//! Fixed-rate baselines (§2.1).
//!
//! A fixed collection rate — every `n` pointer overwrites — cannot adapt
//! to application behavior, and §2.1 argues any particular choice fails
//! somewhere. These baselines exist to reproduce Figure 1 (the rate sweep
//! showing the time/space trade-off) and the connectivity-heuristic
//! strawman whose prediction misses the real garbage rate by ~5×.

use crate::policy::{CollectionObservation, RatePolicy, Trigger};

/// Collect every `rate` pointer overwrites, unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedRatePolicy {
    rate: u64,
}

impl FixedRatePolicy {
    /// `rate` = pointer overwrites per collection (≥ 1).
    pub fn new(rate: u64) -> Self {
        assert!(rate >= 1, "fixed rate must be >= 1");
        FixedRatePolicy { rate }
    }

    /// The configured rate.
    pub fn rate(&self) -> u64 {
        self.rate
    }
}

impl RatePolicy for FixedRatePolicy {
    fn initial_trigger(&mut self) -> Trigger {
        Trigger::after_overwrites(self.rate)
    }

    fn after_collection(&mut self, _obs: &CollectionObservation) -> Trigger {
        Trigger::after_overwrites(self.rate)
    }

    fn name(&self) -> String {
        format!("fixed({})", self.rate)
    }
}

/// Collect every `bytes` of allocation — the programming-language
/// heuristic Yong–Naughton–Yu adopted ("collection is triggered … after a
/// fixed amount of storage is allocated"). §2 argues allocation and
/// garbage creation are *not* correlated in object databases: this
/// baseline collects eagerly during pure growth (GenDB, reinsertion) when
/// no garbage exists, and sluggishly during deletion bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationRatePolicy {
    bytes: u64,
}

impl AllocationRatePolicy {
    /// `bytes` of allocation per collection (≥ 1).
    pub fn new(bytes: u64) -> Self {
        assert!(bytes >= 1, "alloc bytes must be >= 1");
        AllocationRatePolicy { bytes }
    }

    /// The configured allocation budget per collection.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl RatePolicy for AllocationRatePolicy {
    fn initial_trigger(&mut self) -> Trigger {
        Trigger::after_alloc_bytes(self.bytes)
    }

    fn after_collection(&mut self, _obs: &CollectionObservation) -> Trigger {
        Trigger::after_alloc_bytes(self.bytes)
    }

    fn name(&self) -> String {
        format!("alloc-fixed({}B)", self.bytes)
    }
}

/// The §2.1 "clever" fixed-rate heuristic: from average connectivity,
/// average object size, and partition size, infer how many overwrites
/// create one partition's worth of garbage.
///
/// Reasoning: `connectivity` pointers point at each object on average, so
/// every `connectivity` overwrites should free one object of
/// `avg_object_size` bytes; collect when `partition_bytes` of garbage has
/// accumulated. For the paper's numbers (connectivity 4, 133-byte objects,
/// 96 KiB partitions) this predicts a rate of ~2956 overwrites per
/// collection — about 5× too slow, because single overwrites can detach
/// whole clusters and large objects.
/// ```
/// // The paper's arithmetic: connectivity 4, 133-byte objects,
/// // 96 KiB partitions → collect every 2956 overwrites. (§2.1 then
/// // shows this underestimates the true garbage rate severalfold.)
/// let rate = odbgc_core::connectivity_heuristic_rate(4.0, 133.0, 96 * 1024);
/// assert_eq!(rate, 2956);
/// ```
pub fn connectivity_heuristic_rate(
    avg_connectivity: f64,
    avg_object_size: f64,
    partition_bytes: u64,
) -> u64 {
    assert!(avg_connectivity > 0.0 && avg_object_size > 0.0);
    let garbage_per_overwrite = avg_object_size / avg_connectivity;
    (partition_bytes as f64 / garbage_per_overwrite) as u64 // truncate, as the paper does (2956)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_is_constant() {
        let mut p = FixedRatePolicy::new(200);
        assert_eq!(p.initial_trigger(), Trigger::after_overwrites(200));
        assert_eq!(
            p.after_collection(&CollectionObservation::zero()),
            Trigger::after_overwrites(200)
        );
        assert_eq!(p.name(), "fixed(200)");
    }

    #[test]
    #[should_panic(expected = "fixed rate must be >= 1")]
    fn zero_rate_panics() {
        FixedRatePolicy::new(0);
    }

    #[test]
    #[should_panic(expected = "alloc bytes must be >= 1")]
    fn zero_alloc_bytes_panics() {
        AllocationRatePolicy::new(0);
    }

    #[test]
    fn allocation_policy_arms_the_alloc_clock() {
        let mut p = AllocationRatePolicy::new(96 * 1024);
        let t = p.initial_trigger();
        assert_eq!(t.alloc_bytes, Some(96 * 1024));
        assert_eq!(t.overwrites, None);
        assert_eq!(t.app_io, None);
        assert_eq!(
            p.after_collection(&CollectionObservation::zero()),
            Trigger::after_alloc_bytes(96 * 1024)
        );
        assert_eq!(p.name(), "alloc-fixed(98304B)");
    }

    #[test]
    fn heuristic_reproduces_the_papers_arithmetic() {
        // §2.1: connectivity 4, 133-byte objects, 96 KiB partitions
        // → collect every 2956 pointer overwrites.
        let rate = connectivity_heuristic_rate(4.0, 133.0, 96 * 1024);
        assert_eq!(rate, 2956);
    }

    #[test]
    fn heuristic_scales_with_partition_size() {
        let small = connectivity_heuristic_rate(4.0, 133.0, 48 * 1024);
        let large = connectivity_heuristic_rate(4.0, 133.0, 96 * 1024);
        assert!(large > small);
        assert!((large as f64 / small as f64 - 2.0).abs() < 0.01);
    }
}
