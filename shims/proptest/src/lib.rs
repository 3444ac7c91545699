//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset the workspace's property tests use: range strategies,
//! tuple strategies, `collection::vec`, `prop_map`, the [`proptest!`] macro with
//! an optional `#![proptest_config(..)]` header, and the `prop_assert*` /
//! `prop_assume!` macros. Cases are generated from a seed derived from the test
//! name, so failures reproduce deterministically. There is no shrinking: the
//! failing input is printed as generated.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The per-case RNG handed to strategies.
pub type TestRng = ChaCha8Rng;

/// How a property-test case ends early.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The property failed; the test panics with this message.
    Fail(String),
    /// `prop_assume!` rejected the input; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure.
    pub fn fail(message: String) -> Self {
        TestCaseError::Fail(message)
    }

    /// Builds a rejection.
    pub fn reject(message: String) -> Self {
        TestCaseError::Reject(message)
    }
}

/// Configuration of one `proptest!` block.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of accepted cases each test must pass.
    pub cases: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl Config {
    /// A config running `cases` cases (upstream `ProptestConfig::with_cases`).
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
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

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::Range<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::Range<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),*) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*
    };
}

impl_tuple_strategy!((A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));

/// A strategy producing one fixed value (upstream `Just`).
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Size specification of a generated collection: fixed or a range.
    #[derive(Clone, Copy, Debug)]
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

    /// Strategy for vectors of `element` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.min + 1 >= self.size.max {
                self.size.min
            } else {
                rng.gen_range(self.size.min..self.size.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// FNV-1a hash of the test name; the per-test RNG seed.
pub fn seed_from_name(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Runs `case` until `config.cases` accepted executions, panicking on failure.
pub fn run_cases(name: &str, config: Config, mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
    let mut rng = TestRng::seed_from_u64(seed_from_name(name));
    let mut accepted = 0u32;
    let mut rejected = 0u64;
    let max_rejects = (config.cases as u64) * 64;
    while accepted < config.cases {
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!("{name}: too many prop_assume! rejections ({rejected}) for {accepted} accepted cases");
                }
            }
            Err(TestCaseError::Fail(message)) => {
                panic!("{name}: property failed after {accepted} cases: {message}");
            }
        }
    }
}

pub mod prelude {
    //! The upstream-compatible glob import: `use proptest::prelude::*;`.

    pub use crate::collection;
    pub use crate::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Just, Strategy, TestCaseError};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config); $($rest)*);
    };
    (@with_config ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::Config = $config;
                $crate::run_cases(stringify!($name), config, |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strategy), rng);)*
                    let case = move || -> std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    };
                    case()
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::Config::default()); $($rest)*);
    };
}

/// Asserts a condition inside a property test, reporting the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{}` == `{}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{}` != `{}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Skips the current case when its generated input does not satisfy `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond).to_string()));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_generate_in_bounds(x in -2.0f64..2.0, n in 0usize..10) {
            prop_assert!((-2.0..2.0).contains(&x));
            prop_assert!(n < 10);
        }

        #[test]
        fn vec_and_map_compose(v in collection::vec((0usize..5, 0usize..5), 1..8).prop_map(|pairs| {
            pairs.into_iter().map(|(a, b)| a + b).collect::<Vec<_>>()
        })) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&s| s <= 8));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic() {
        crate::run_cases("failures_panic", crate::Config::with_cases(8), |_rng| {
            Err(crate::TestCaseError::fail("forced".to_string()))
        });
    }
}
