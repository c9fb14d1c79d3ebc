//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this shim implements
//! the subset of proptest the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, [`any`], range strategies, tuple
//! strategies, [`Just`], `collection::vec`, `prop_oneof!`, `prop_assert!`,
//! `prop_assert_eq!`, [`ProptestConfig`](test_runner::ProptestConfig), and the `proptest!` macro.
//!
//! Differences from real proptest, deliberate for size:
//! * cases are drawn from a fixed-seed deterministic RNG (replayable runs,
//!   no `PROPTEST_*` env handling);
//! * **no shrinking** — a failing case panics with the generated inputs
//!   rendered via `Debug` instead of a minimized counterexample;
//! * `prop_assert*` are plain `assert*` (they panic rather than early-return).

use std::ops::{Range, RangeInclusive};

/// Test-runner plumbing (RNG + config), mirroring `proptest::test_runner`.
pub mod test_runner {
    /// Deterministic xorshift-style RNG driving case generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The fixed seed every test starts from (replayable runs).
        pub fn deterministic() -> Self {
            Self {
                state: 0x853c_49e6_748f_ea9b,
            }
        }

        /// Derive a runner whose stream is salted by `salt` (used so each
        /// test function inside one binary sees a distinct stream).
        pub fn salted(salt: u64) -> Self {
            let mut rng = Self {
                state: 0x853c_49e6_748f_ea9b ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            rng.next_u64(); // decorrelate adjacent salts
            rng
        }

        /// Next 64 random bits (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A uniform value in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "TestRng::below(0)");
            self.next_u64() % bound
        }
    }

    /// A rejected or failed test case, usable as the error half of a
    /// `Result`-returning property body (`check(...)?`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Per-test configuration, mirroring `proptest::test_runner::ProptestConfig`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }
}

use test_runner::TestRng;

/// A generator of values for property tests.
pub trait Strategy {
    /// The type of generated values.
    type Value: std::fmt::Debug;

    /// Generate one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O: std::fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// Type-erased strategy handle.
#[derive(Clone)]
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T: std::fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        self.0.new_value(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: std::fmt::Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Strategy producing exactly one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draw an arbitrary value.
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

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<A>(std::marker::PhantomData<fn() -> A>);

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;
    fn new_value(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// The "any value of `A`" strategy.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u64 + 1;
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
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

/// Uniform choice among boxed alternatives (built by `prop_oneof!`).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T: std::fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! with no arms");
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].new_value(rng)
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Element-count bounds for [`vec`](fn@vec).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min
                + if span == 0 {
                    0
                } else {
                    rng.below(span) as usize
                };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Uniform choice among alternatives: `prop_oneof![s1, s2, ...]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Property assertion (shim: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion (shim: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion (shim: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    (@funcs ($config:expr) $(#[$meta:meta])* fn $name:ident
        ($($arg:ident in $strategy:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            // Salt the stream by the test name so sibling tests explore
            // different cases.
            let salt = {
                let name = stringify!($name);
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in name.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                h
            };
            let mut rng = $crate::test_runner::TestRng::salted(salt);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::new_value(&$strategy, &mut rng);)+
                // Render inputs up front so a failing body (which consumes
                // them) can still be reported.
                let mut rendered = String::new();
                $(rendered.push_str(&format!(
                    "  {} = {:?}\n", stringify!($arg), &$arg
                ));)+
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                ));
                match result {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        eprintln!(
                            "proptest case {}/{} failed for {}:\n{}",
                            case + 1,
                            config.cases,
                            stringify!($name),
                            rendered
                        );
                        panic!("property returned error: {e}");
                    }
                    Err(payload) => {
                        eprintln!(
                            "proptest case {}/{} failed for {}:\n{}",
                            case + 1,
                            config.cases,
                            stringify!($name),
                            rendered
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::proptest!(@funcs ($config) $($rest)*);
    };
    (@funcs ($config:expr)) => {};
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Push(u8),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![any::<u8>().prop_map(Op::Push), Just(Op::Pop),]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_strategy_respects_bounds(ops in crate::collection::vec(op(), 1..20)) {
            prop_assert!(!ops.is_empty() && ops.len() < 20);
        }

        #[test]
        fn ranges_stay_in_bounds(a in 1u16..500, b in 0..3u8, c in 1..=3i64) {
            prop_assert!((1..500).contains(&a));
            prop_assert!(b < 3);
            prop_assert!((1..=3).contains(&c));
        }

        #[test]
        fn tuples_and_maps_compose(pair in (any::<i8>(), 1usize..4).prop_map(|(x, n)| (x, n * 2))) {
            prop_assert_eq!(pair.1 % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = crate::collection::vec(any::<u64>(), 3..10);
        let mut r1 = crate::test_runner::TestRng::deterministic();
        let mut r2 = crate::test_runner::TestRng::deterministic();
        assert_eq!(s.new_value(&mut r1), s.new_value(&mut r2));
    }
}
