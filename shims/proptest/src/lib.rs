//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of proptest it uses: the [`Strategy`]
//! trait with `prop_map`, range/tuple/vec/select strategies, the
//! [`proptest!`] macro with `#![proptest_config(..)]`, and the
//! `prop_assert*` / `prop_assume!` macros. Cases are generated from a
//! fixed-seed SplitMix64 stream so runs are deterministic; failing inputs
//! are **not shrunk** — the failure message carries the assertion site
//! instead.

use std::fmt;
use std::ops::{Range, RangeInclusive};

pub mod collection;
pub mod sample;

/// Deterministic case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// The next 64-bit word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A value generator. Unlike real proptest there is no shrinking: a
/// strategy is just a deterministic sampler over a [`TestRng`].
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Numeric types samplable uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
    fn sample_range(lo: Self, hi: Self, inclusive: bool, rng: &mut TestRng) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range(lo: $t, hi: $t, inclusive: bool, rng: &mut TestRng) -> $t {
                // Width in u128 so `hi - lo (+1)` cannot overflow the type.
                let lo_w = lo as i128;
                let hi_w = hi as i128;
                let span = (hi_w - lo_w + if inclusive { 1 } else { 0 }).max(1) as u128;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (lo_w + offset) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range(lo: f64, hi: f64, _inclusive: bool, rng: &mut TestRng) -> f64 {
        lo + rng.next_f64() * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_range(lo: f32, hi: f32, _inclusive: bool, rng: &mut TestRng) -> f32 {
        lo + rng.next_f64() as f32 * (hi - lo)
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_range(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::sample_range(*self.start(), *self.end(), true, rng)
    }
}

macro_rules! impl_strategy_tuple {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.sample(rng),)*)
            }
        }
    };
}

impl_strategy_tuple!(A);
impl_strategy_tuple!(A, B);
impl_strategy_tuple!(A, B, C);
impl_strategy_tuple!(A, B, C, D);
impl_strategy_tuple!(A, B, C, D, E);
impl_strategy_tuple!(A, B, C, D, E, F);
impl_strategy_tuple!(A, B, C, D, E, F, G);
impl_strategy_tuple!(A, B, C, D, E, F, G, H);

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the run aborts with this message.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(message.into())
    }

    /// An input rejection.
    pub fn reject(message: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
    /// RNG seed of the case stream.
    pub seed: u64,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            seed: 0x7e57_ca5e,
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// Drives a strategy through a test closure `config.cases` times.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
}

impl TestRunner {
    /// Creates a runner with the given config. A `PROPTEST_CASES`
    /// environment variable raises the case count (it never lowers it),
    /// so CI can run a property file deeper without editing it.
    ///
    /// # Panics
    ///
    /// Panics when `PROPTEST_CASES` is set but not a number.
    pub fn new(mut config: ProptestConfig) -> TestRunner {
        if let Ok(raw) = std::env::var("PROPTEST_CASES") {
            let cases: u32 = raw.parse().expect("PROPTEST_CASES expects a number");
            config.cases = config.cases.max(cases);
        }
        let rng = TestRng::seed_from_u64(config.seed);
        TestRunner { config, rng }
    }

    /// Runs the test body until `cases` inputs were accepted.
    ///
    /// # Panics
    ///
    /// Panics on the first failing case, or when `prop_assume!` rejects an
    /// excessive fraction of generated inputs.
    pub fn run<S, F>(&mut self, strategy: &S, mut body: F)
    where
        S: Strategy,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        let reject_limit = self.config.cases.saturating_mul(20).saturating_add(1_000);
        while accepted < self.config.cases {
            let value = strategy.sample(&mut self.rng);
            match body(value) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= reject_limit,
                        "prop_assume! rejected {rejected} inputs before {} cases passed",
                        self.config.cases
                    );
                }
                Err(TestCaseError::Fail(message)) => {
                    panic!("proptest case {} failed: {message}", accepted + 1)
                }
            }
        }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the subset of real-proptest syntax this workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn it_holds(x in 0u64..100, v in proptest::collection::vec(0f64..1.0, 3..20)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                let mut runner = $crate::TestRunner::new(config);
                runner.run(
                    &($($strat,)*),
                    |($($arg,)*)| {
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "{} at {}:{}",
                format!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "{left:?} != {right:?} ({} != {})",
            stringify!($left),
            stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, "{left:?} != {right:?}: {}", format!($($fmt)*));
    }};
}

/// Skips the current case when its generated inputs are unsuitable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// The glob-import surface used by test files.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = (5u64..10).sample(&mut rng);
            assert!((5..10).contains(&x));
            let y = (1u32..=3).sample(&mut rng);
            assert!((1..=3).contains(&y));
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn tuples_and_map_compose() {
        let strat = (1u32..=4, 0u64..8).prop_map(|(a, b)| a as u64 + b);
        let mut rng = crate::TestRng::seed_from_u64(2);
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!(v <= 11);
        }
    }

    #[test]
    fn vec_and_select_sample() {
        let mut rng = crate::TestRng::seed_from_u64(3);
        let v = crate::collection::vec(0u64..5, 3..6).sample(&mut rng);
        assert!((3..6).contains(&v.len()));
        assert!(v.iter().all(|&x| x < 5));
        let s = crate::sample::select(vec![2u32, 4, 8]).sample(&mut rng);
        assert!([2, 4, 8].contains(&s));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro path itself: config, assume, assert, trailing comma.
        #[test]
        fn macro_roundtrip(x in 1u64..100, y in prop::sample::select(vec![1u64, 2, 3]),) {
            prop_assume!(x != 50);
            prop_assert!((1..100).contains(&x));
            prop_assert_eq!(y * 2 / 2, y, "y {}", y);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_site() {
        let mut runner = crate::TestRunner::new(ProptestConfig::with_cases(4));
        runner.run(&(0u64..10,), |(x,)| {
            prop_assert!(x > 100, "x {x} not above 100");
            Ok(())
        });
    }
}
