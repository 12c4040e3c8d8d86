//! Vendored stand-in for the `proptest` crate.
//!
//! This workspace builds in offline environments where crates.io is not
//! reachable, so the subset of the proptest API the test suite uses is
//! implemented here: composable [`Strategy`] values (ranges, tuples,
//! `prop_map`, [`collection::vec`], [`option::of`], [`prop_oneof!`],
//! [`Just`], [`arbitrary::any`]) and the [`proptest!`] test macro with
//! `prop_assert*` early returns.
//!
//! Differences from upstream: cases are generated from a fixed
//! deterministic seed (reproducible by construction, no persistence
//! files), and failing cases are reported but **not shrunk**.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::Rng;

/// Runtime configuration for a [`proptest!`] block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` generated cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 128 }
    }
}

/// A generator of test values.
///
/// Unlike upstream proptest there is no value tree or shrinking: a
/// strategy is just a deterministic function of the RNG state.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            f: std::rc::Rc::new(move |rng| self.generate(rng)),
        }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<V> {
    f: std::rc::Rc<dyn Fn(&mut StdRng) -> V>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut StdRng) -> V {
        (self.f)(rng)
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// String generation from a regex-like pattern (subset).
///
/// Supports what the workspace's fuzz tests use: `.` (any char),
/// character classes like `[ -~\n]` with ranges and escapes, and the
/// quantifiers `*`, `+`, `?`, and `{m,n}`. Unsupported syntax falls back
/// to treating characters literally rather than erroring.
mod pattern {
    use super::StdRng;
    use rand::Rng;

    #[derive(Clone)]
    enum CharSet {
        /// `.`: a mix of printable ASCII and a few multibyte chars.
        Any,
        Literal(char),
        /// Inclusive ranges, e.g. `[ -~\n]` → [(' ', '~'), ('\n', '\n')].
        Class(Vec<(char, char)>),
    }

    impl CharSet {
        fn sample(&self, rng: &mut StdRng) -> char {
            match self {
                CharSet::Any => {
                    // Mostly printable ASCII, sometimes newline or a
                    // multibyte char so UTF-8 handling gets exercised.
                    match rng.random_range(0u32..20) {
                        0 => '\n',
                        1 => 'é',
                        2 => '→',
                        3 => '𝄞',
                        _ => char::from(rng.random_range(0x20u32..0x7F) as u8),
                    }
                }
                CharSet::Literal(c) => *c,
                CharSet::Class(ranges) => {
                    let (lo, hi) = ranges[rng.random_range(0..ranges.len())];
                    char::from_u32(rng.random_range(lo as u32..=hi as u32)).unwrap_or(lo)
                }
            }
        }
    }

    #[derive(Clone, Copy)]
    enum Quant {
        One,
        Range(usize, usize),
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            '0' => '\0',
            other => other,
        }
    }

    pub(super) struct Pattern {
        terms: Vec<(CharSet, Quant)>,
    }

    impl Pattern {
        pub(super) fn parse(pattern: &str) -> Pattern {
            let mut chars = pattern.chars().peekable();
            let mut terms = Vec::new();
            while let Some(c) = chars.next() {
                let set = match c {
                    '.' => CharSet::Any,
                    '\\' => CharSet::Literal(unescape(chars.next().unwrap_or('\\'))),
                    '[' => {
                        // Collect class members (escapes resolved), then
                        // fold `a-b` triples into ranges.
                        let mut members = Vec::new();
                        while let Some(d) = chars.next() {
                            match d {
                                ']' => break,
                                '\\' => members.push(unescape(chars.next().unwrap_or('\\'))),
                                d => members.push(d),
                            }
                        }
                        let mut ranges = Vec::new();
                        let mut i = 0;
                        while i < members.len() {
                            if i + 2 < members.len() && members[i + 1] == '-' {
                                ranges.push((members[i], members[i + 2]));
                                i += 3;
                            } else {
                                ranges.push((members[i], members[i]));
                                i += 1;
                            }
                        }
                        if ranges.is_empty() {
                            CharSet::Any
                        } else {
                            CharSet::Class(ranges)
                        }
                    }
                    other => CharSet::Literal(other),
                };
                let quant = match chars.peek() {
                    Some('*') => {
                        chars.next();
                        Quant::Range(0, 32)
                    }
                    Some('+') => {
                        chars.next();
                        Quant::Range(1, 32)
                    }
                    Some('?') => {
                        chars.next();
                        Quant::Range(0, 1)
                    }
                    Some('{') => {
                        chars.next();
                        let mut spec = String::new();
                        for d in chars.by_ref() {
                            if d == '}' {
                                break;
                            }
                            spec.push(d);
                        }
                        let (lo, hi) = match spec.split_once(',') {
                            Some((a, b)) => (
                                a.trim().parse().unwrap_or(0),
                                b.trim().parse().unwrap_or(32),
                            ),
                            None => {
                                let n = spec.trim().parse().unwrap_or(1);
                                (n, n)
                            }
                        };
                        Quant::Range(lo, hi)
                    }
                    _ => Quant::One,
                };
                terms.push((set, quant));
            }
            Pattern { terms }
        }

        pub(super) fn generate(&self, rng: &mut StdRng) -> String {
            let mut out = String::new();
            for (set, quant) in &self.terms {
                let n = match *quant {
                    Quant::One => 1,
                    Quant::Range(lo, hi) => rng.random_range(lo..=hi),
                };
                for _ in 0..n {
                    out.push(set.sample(rng));
                }
            }
            out
        }
    }
}

impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        pattern::Pattern::parse(self).generate(rng)
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.random::<u64>() as $t
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.random::<bool>()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> f64 {
            rng.random::<f64>()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// The strategy returned by [`vec`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.random_range(self.size.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Option strategies (subset of `proptest::option`).
pub mod option {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// The strategy returned by [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            // Upstream defaults to mostly-Some; 1 in 4 None keeps both
            // variants well exercised.
            if rng.random_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `None` sometimes, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Everything a proptest file usually imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };
    /// Re-exports so macro-generated code can name the RNG without the
    /// user crate depending on `rand` itself.
    pub use rand::rngs::StdRng;
    #[doc(hidden)]
    pub use rand::SeedableRng as __SeedableRng;
}

/// Chooses uniformly among the given strategies (all yielding the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        let arms = vec![$($crate::Strategy::boxed($strat)),+];
        $crate::OneOf { arms }
    }};
}

/// The strategy produced by [`prop_oneof!`].
#[derive(Clone)]
pub struct OneOf<V> {
    /// The type-erased arms.
    pub arms: Vec<BoxedStrategy<V>>,
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut StdRng) -> V {
        let i = rng.random_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// Asserts a condition inside a [`proptest!`] body, failing the current
/// case with a message instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(format!(
                "{} ({:?} != {:?})",
                format!($($fmt)*),
                l,
                r
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: both sides equal {:?}", l);
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($config:expr;) => {};
    (
        $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            // Seed differs per test name so sibling tests explore
            // different streams, deterministically.
            let mut seed: u64 = 0xC0FF_EE00;
            for b in stringify!($name).bytes() {
                seed = seed.wrapping_mul(31).wrapping_add(b as u64);
            }
            let mut rng =
                <$crate::prelude::StdRng as $crate::prelude::__SeedableRng>::seed_from_u64(seed);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!("proptest case {case} failed: {msg}");
                }
            }
        }
        $crate::__proptest_fns!($config; $($rest)*);
    };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(::std::default::Default::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = <StdRng as ::rand::SeedableRng>::seed_from_u64(1);
        let s = (0u64..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 20 && v % 2 == 0);
        }
        let t = (0u32..5, 0.0f64..1.0);
        let (a, b) = t.generate(&mut rng);
        assert!(a < 5 && (0.0..1.0).contains(&b));
        let c = crate::collection::vec(0u8..3, 1..4).generate(&mut rng);
        assert!((1..4).contains(&c.len()));
    }

    #[test]
    fn oneof_uses_every_arm() {
        let mut rng = <StdRng as ::rand::SeedableRng>::seed_from_u64(2);
        let s = prop_oneof![Just(0usize), Just(1usize), Just(2usize)];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[s.generate(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_runs_and_asserts(x in 0u64..100, y in 0u64..100) {
            prop_assert!(x < 100);
            prop_assert_eq!(x + y, y + x);
            prop_assert_ne!(x, x + y + 1);
        }
    }

    proptest! {
        #[test]
        fn macro_defaults_apply(v in crate::option::of(0u32..3)) {
            if let Some(v) = v {
                prop_assert!(v < 3);
            }
        }
    }
}
