//! Vendored stand-in for the `rand` crate.
//!
//! This workspace builds in offline environments where crates.io is not
//! reachable, so the small subset of the `rand` 0.9 API the simulator
//! actually uses is implemented here: a seedable deterministic generator
//! ([`rngs::StdRng`]), uniform ranges ([`Rng::random_range`]), slice
//! helpers ([`seq::IndexedRandom::choose`], [`seq::SliceRandom::shuffle`]).
//!
//! The generator is xoshiro256** seeded via SplitMix64 — a different
//! stream than upstream `rand`'s ChaCha12-based `StdRng`, but everything
//! in this repository treats the RNG as an opaque deterministic function
//! of the seed, which this crate preserves: same seed, same stream, on
//! every platform.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// A generator that can be constructed from a numeric seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a range by [`Rng::random_range`].
pub trait SampleUniform: Copy {
    /// Samples uniformly from `[low, high]` (inclusive bounds).
    fn sample_inclusive<R: RngCore>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore>(rng: &mut R, low: Self, high: Self) -> Self {
                debug_assert!(low <= high, "empty sample range");
                let span = (high as u128).wrapping_sub(low as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width range: every value is fair game.
                    return rng.next_u64() as $t;
                }
                // Modulo sampling: the bias over a 64-bit draw is
                // negligible for the simulator's small ranges.
                low.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample_inclusive<R: RngCore>(rng: &mut R, low: Self, high: Self) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + unit * (high - low)
    }
}

/// Range forms accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd + OneLess> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample from empty range");
        T::sample_inclusive(rng, self.start, self.end.one_less())
    }
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "cannot sample from empty range");
        T::sample_inclusive(rng, low, high)
    }
}

/// Internal helper: the predecessor of a value (to turn an exclusive upper
/// bound into an inclusive one).
pub trait OneLess {
    /// `self - 1` for integers; identity minus an ulp is not needed for
    /// floats because exclusive float ranges sample `[low, high)` anyway.
    fn one_less(self) -> Self;
}

macro_rules! impl_one_less_int {
    ($($t:ty),*) => {$(
        impl OneLess for $t {
            fn one_less(self) -> Self { self - 1 }
        }
    )*};
}

impl_one_less_int!(u8, u16, u32, u64, usize, i32, i64);

impl OneLess for f64 {
    fn one_less(self) -> Self {
        // Float ranges sample [low, high); keeping the bound is correct
        // because sample_inclusive for f64 never returns `high` when the
        // unit draw is < 1.
        self
    }
}

/// The raw generator interface.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling helpers, available on every generator.
pub trait Rng: RngCore + Sized {
    /// Uniform sample from a range (`0..n`, `a..=b`, float ranges).
    fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// A uniformly random value of a supported primitive type.
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Types [`Rng::random`] can produce.
pub trait Random {
    /// A uniformly random value.
    fn random<R: RngCore>(rng: &mut R) -> Self;
}

impl Random for u64 {
    fn random<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for u8 {
    fn random<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Random for bool {
    fn random<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    fn random<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**.
    ///
    /// Not the same stream as upstream `rand`'s `StdRng`; everything here
    /// only requires determinism in the seed, which this provides.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers (subset of `rand::seq`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Random element selection from slices.
    pub trait IndexedRandom {
        /// The element type.
        type Item;

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> IndexedRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }

    /// In-place random mutation of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::{IndexedRandom, SliceRandom};
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(
                a.random_range(0u64..1_000_000),
                b.random_range(0u64..1_000_000)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.random_range(0u64..u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random_range(0u64..u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let v = rng.random_range(10usize..20);
            assert!((10..20).contains(&v));
            let v = rng.random_range(5u32..=5);
            assert_eq!(v, 5);
            let f = rng.random_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_samples_cover_the_space() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.random_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = StdRng::seed_from_u64(9);
        let items = [1, 2, 3, 4];
        assert!(items.choose(&mut rng).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());

        let mut v: Vec<u32> = (0..32).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert_ne!(v, orig, "32 elements almost surely move");
    }
}
