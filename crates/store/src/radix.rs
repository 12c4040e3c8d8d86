//! Sorting a partition's collection roots without comparisons.
//!
//! A served partition gathers well over a thousand root ids per
//! collection (rooted anchors plus remembered targets), and the Cheney
//! plan needs them sorted and distinct: the survivor order, which
//! reclusters the partition, starts from that order. An LSD radix sort
//! over 8-bit digits of the raw id does it in a few linear passes, and
//! only the digits on which the ids differ cost a pass: ids index the
//! object table, so the high digits are shared and skipped.

use odbgc_trace::ObjectId;

/// Sorts `ids` ascending and removes duplicates — the result of
/// `sort_unstable` followed by `dedup` — with no comparison sort. The
/// upper half of `ids` is the ping-pong buffer, so a `Vec` that keeps
/// its capacity across calls allocates nothing after the first.
pub(crate) fn sort_dedup(ids: &mut Vec<ObjectId>) {
    let n = ids.len();
    let (mut any, mut all) = (0u64, u64::MAX);
    for id in ids.iter() {
        any |= id.raw();
        all &= id.raw();
    }
    // A digit every id shares orders nothing: skip its pass.
    let varying = any ^ all;
    ids.resize(2 * n, ObjectId::new(0));
    let (lo, hi) = ids.split_at_mut(n);
    let mut in_lo = true;
    for shift in (0..u64::BITS).step_by(8) {
        if (varying >> shift) & 0xff == 0 {
            continue;
        }
        let (src, dst) = if in_lo {
            (&*lo, &mut *hi)
        } else {
            (&*hi, &mut *lo)
        };
        let digit = |id: &ObjectId| (id.raw() >> shift) as usize & 0xff;
        let mut next = [0usize; 256];
        for id in src {
            next[digit(id)] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for id in src {
            let d = digit(id);
            dst[next[d]] = *id;
            next[d] += 1;
        }
        in_lo = !in_lo;
    }
    if !in_lo {
        lo.copy_from_slice(hi);
    }
    ids.truncate(n);
    ids.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: a comparison sort and dedup.
    fn reference(raw: &[u64]) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = raw.iter().map(|&r| ObjectId::new(r)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn radix(raw: &[u64]) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = raw.iter().map(|&r| ObjectId::new(r)).collect();
        sort_dedup(&mut ids);
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn object_table_ids_sort_like_sort_unstable(
            raw in proptest::collection::vec(0u64..300_000, 0..600),
        ) {
            prop_assert_eq!(radix(&raw), reference(&raw));
        }

        #[test]
        fn heavy_duplicates_sort_like_sort_unstable(
            raw in proptest::collection::vec(0u64..8, 0..600),
        ) {
            prop_assert_eq!(radix(&raw), reference(&raw));
        }

        #[test]
        fn ids_sharing_every_high_digit_sort_like_sort_unstable(
            base in any::<u64>(),
            low in proptest::collection::vec(0u64..256, 0..600),
        ) {
            let raw: Vec<u64> = low.iter().map(|&l| (base & !0xff) | l).collect();
            prop_assert_eq!(radix(&raw), reference(&raw));
        }

        #[test]
        fn ids_near_the_u32_ceiling_sort_like_sort_unstable(
            below in proptest::collection::vec(0u64..4_096, 0..600),
        ) {
            let top = u64::from(u32::MAX) - 1;
            let raw: Vec<u64> = below.iter().map(|&b| top - b).collect();
            prop_assert_eq!(radix(&raw), reference(&raw));
        }

        #[test]
        fn full_range_keys_sort_like_sort_unstable(
            raw in proptest::collection::vec(any::<u64>(), 0..600),
        ) {
            prop_assert_eq!(radix(&raw), reference(&raw));
        }
    }

    #[test]
    fn every_short_length_sorts_like_sort_unstable() {
        for n in 0..=128u64 {
            // Descending with repeats: every pass moves every id.
            let raw: Vec<u64> = (0..n).map(|i| (n - i) / 2 * 1_000 + 70_000).collect();
            assert_eq!(radix(&raw), reference(&raw), "length {n}");
        }
    }

    #[test]
    fn a_reused_buffer_keeps_its_capacity() {
        let raw: Vec<u64> = (0..1_000u64).rev().map(|i| i * 37 % 5_000).collect();
        let mut ids: Vec<ObjectId> = Vec::new();
        ids.extend(raw.iter().map(|&r| ObjectId::new(r)));
        sort_dedup(&mut ids);
        let capacity = ids.capacity();
        for _ in 0..3 {
            ids.clear();
            ids.extend(raw.iter().map(|&r| ObjectId::new(r)));
            sort_dedup(&mut ids);
            assert_eq!(ids.capacity(), capacity);
        }
        assert_eq!(ids, reference(&raw));
    }
}
