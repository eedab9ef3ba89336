//! Offline stand-in for `proptest`.
//!
//! Covers the subset this workspace uses: the [`Strategy`] trait with
//! `prop_map`/`prop_flat_map`, numeric-range and tuple strategies,
//! `prop::collection::vec`, `prop::sample::Index`, `any::<T>()`, the
//! `proptest!`/`prop_assert*`/`prop_assume!` macros, and
//! [`ProptestConfig::with_cases`]. Differences from real proptest:
//!
//! * **no shrinking** — a failing case reports its case number and message;
//! * **`prop_assume!` skips** the case instead of drawing a replacement;
//! * inputs are drawn from a deterministic per-test RNG (seeded from the
//!   test name and case index), so failures are reproducible across runs;
//! * `PROPTEST_CASES` overrides the case count, as in real proptest.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic RNG for input generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Per-(test, case) generator: reseeding is a pure function of both.
    #[must_use]
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform u64 in [low, high).
    pub fn next_in(&mut self, low: u64, high: u64) -> u64 {
        debug_assert!(low < high);
        low + self.next_u64() % (high - low)
    }
}

/// Generates random values of an associated type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Derives a dependent strategy from each generated value.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ── numeric ranges ───────────────────────────────────────────────────

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_in(0, span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.next_in(0, span) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (rng.next_f64() as $t) * (hi - lo)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

// ── tuples ───────────────────────────────────────────────────────────

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6);
}

// ── arbitrary ────────────────────────────────────────────────────────

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, broadly-ranged values; avoids NaN/inf surprises.
        (rng.next_f64() - 0.5) * 2e12
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        ((rng.next_f64() - 0.5) * 2e6) as f32
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ── collection / sample modules ──────────────────────────────────────

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as a collection-size specification.
    pub trait SizeRange {
        /// Draws a size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            rng.next_in(self.start as u64, self.end as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.next_in(*self.start() as u64, *self.end() as u64 + 1) as usize
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for vectors whose length is drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

/// Sampling helpers (`prop::sample`).
pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An abstract index into any collection, resolved against a length.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolves the index against a collection of `len` elements.
        #[must_use]
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

// ── runner ───────────────────────────────────────────────────────────

/// Per-block test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Drives one proptest-generated test: `f` returns `Err(message)` on
/// assertion failure. `PROPTEST_CASES` overrides the configured count.
pub fn run_cases<F>(config: &ProptestConfig, test_name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> Result<(), String>,
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(config.cases)
        .max(1);
    for case in 0..cases {
        let mut rng = TestRng::for_case(test_name, case);
        if let Err(msg) = f(&mut rng) {
            panic!("proptest `{test_name}` failed at case {case}/{cases}: {msg}");
        }
    }
}

/// Everything a proptest file conventionally imports.
pub mod prelude {
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, `prop::sample::Index`).
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest! { @with_config ($config) $($rest)* }
    };
    (@with_config ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run_cases(&__config, stringify!($name), |__rng| {
                $(let $pat = $crate::Strategy::generate(&($strat), __rng);)+
                let __outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    Ok(())
                })();
                __outcome
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest! { @with_config ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Asserts a condition, failing the current case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", ::std::stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality, failing the current case with both values.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {:?} != {:?}", __a, __b),
            );
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {:?} != {:?}: {}",
                __a,
                __b,
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality, failing the current case with the shared value.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {:?} == {:?}",
                __a,
                __b
            ));
        }
    }};
}

/// Skips the current case when the precondition does not hold.
///
/// Unlike real proptest this does not draw a replacement input; the case
/// simply counts as passed.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let x = Strategy::generate(&(3usize..10), &mut rng);
            assert!((3..10).contains(&x));
            let y = Strategy::generate(&(5u32..=5), &mut rng);
            assert_eq!(y, 5);
            let f = Strategy::generate(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let a = Strategy::generate(&(0u64..1 << 60), &mut crate::TestRng::for_case("x", 7));
        let b = Strategy::generate(&(0u64..1 << 60), &mut crate::TestRng::for_case("x", 7));
        let c = Strategy::generate(&(0u64..1 << 60), &mut crate::TestRng::for_case("x", 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro plumbing itself: patterns, maps, vec, Index, assume.
        #[test]
        fn macro_plumbing((a, b) in (0u32..100, 0u32..100).prop_map(|(x, y)| (x, x + y)),
                          picks in prop::collection::vec(any::<prop::sample::Index>(), 1..4)) {
            prop_assume!(b < 1000);
            prop_assert!(b >= a, "{b} < {a}");
            prop_assert_eq!(a.min(b), a);
            for p in &picks {
                prop_assert!(p.index(7) < 7);
            }
        }
    }
}
