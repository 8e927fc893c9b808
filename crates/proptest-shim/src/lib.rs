//! Minimal in-tree property-testing facade.
//!
//! The build environment for this repository has no crates.io access, so
//! this crate reimplements the (small) slice of the `proptest` API the
//! test suite uses: [`Strategy`] with `prop_map`, `Just`, integer-range
//! and tuple strategies, `any::<T>()`, `prop::collection::vec`, and the
//! `proptest!`, `prop_oneof!`, `prop_assert!`, `prop_assert_eq!` macros.
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case is reported with its generated
//!   inputs (`Debug`), but not minimized.
//! - **Deterministic seeding.** Each test function derives its RNG seed
//!   from its own name, so failures reproduce exactly across runs.
//! - `prop_assert*` panics (like `assert*`) instead of returning a
//!   `TestCaseError`.
//!
//! `.proptest-regressions` files are ignored; the seeds they record were
//! produced by the real crate.

use std::ops::{Range, RangeInclusive};

/// Pseudo-random generator driving strategies (splitmix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        TestRng { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift rejection-free mapping is fine for test data.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A generator of values of one type.
///
/// Object-safe core (`generate`) plus `Sized`-gated combinators, so boxed
/// strategies can back `prop_oneof!`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy { inner: Box::new(self) }
    }
}

/// Boxed, type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: Box<dyn Strategy<Value = V>>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Integer types usable with range strategies and `any`.
pub trait SampleUniform: Copy {
    /// Converts to the `u64` sampling domain.
    fn to_u64(self) -> u64;
    /// Converts back from the `u64` sampling domain.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u64(self) -> u64 { self as u64 }
            fn from_u64(v: u64) -> Self { v as $t }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let lo = self.start.to_u64();
        let hi = self.end.to_u64();
        assert!(lo < hi, "empty range strategy");
        T::from_u64(lo + rng.below(hi - lo))
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let lo = self.start().to_u64();
        let hi = self.end().to_u64();
        let span = hi - lo + 1;
        if span == 0 {
            // Full-width inclusive range: any value is in range.
            return T::from_u64(rng.next_u64());
        }
        T::from_u64(lo + rng.below(span))
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Full-domain strategy for a primitive, as `any::<T>()`.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self { rng.next_u64() as $t }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Weighted union of same-typed strategies (backs `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u32,
}

impl<V> Union<V> {
    /// Builds a union; weights must sum to a nonzero value.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs at least one weighted arm");
        Union { arms, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total as u64) as u32;
        for (w, s) in &self.arms {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights exhausted")
    }
}

/// `prop::collection` namespace, as re-exported by the prelude.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors whose length is drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vector of values from `element` with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-run configuration accepted by `proptest!`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Unused knobs kept for struct-update compatibility.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64, max_shrink_iters: 0 }
    }
}

/// Stable seed derived from the test function's name (FNV-1a), so each
/// property replays identically across runs and machines.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// Everything the tests import.
pub mod prelude {
    pub use super::{
        any, seed_for, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng, Union,
    };
    /// `prop::collection::vec(...)` paths.
    pub mod prop {
        pub use super::super::collection;
    }
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Asserts a condition inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Weighted choice between strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr)
        $( $(#[$meta:meta])* fn $name:ident (
            $($arg:ident in $strat:expr),+ $(,)?
        ) $body:block )*
    ) => {
        $( $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::seed_from_u64($crate::seed_for(stringify!($name)));
            for case in 0..cfg.cases {
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                let inputs = format!(concat!($(stringify!($arg), " = {:?}  "),+), $(&$arg),+);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body));
                if let Err(e) = result {
                    eprintln!("proptest case {case} of {} failed with inputs:\n  {}",
                        stringify!($name), inputs);
                    std::panic::resume_unwind(e);
                }
            }
        } )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = (3u8..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1u64..=8).generate(&mut rng);
            assert!((1..=8).contains(&w));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![
            1 => Just(0u8),
            1 => Just(1u8),
            2 => Just(2u8),
        ];
        let mut rng = TestRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn vec_lengths_respect_range() {
        let strat = prop::collection::vec(any::<u8>(), 2..5);
        let mut rng = TestRng::seed_from_u64(9);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()), "len {}", v.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_cases(x in 0u32..10, v in prop::collection::vec(any::<bool>(), 1..4)) {
            prop_assert!(x < 10);
            prop_assert!(!v.is_empty() && v.len() < 4);
        }
    }

    proptest! {
        #[test]
        fn macro_without_config(y in 5u64..6) {
            prop_assert_eq!(y, 5);
        }
    }
}
