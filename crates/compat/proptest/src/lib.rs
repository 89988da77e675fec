//! Offline stand-in for `proptest`.
//!
//! Supports the patterns the workspace's tests use: the [`proptest!`] macro
//! with `pattern in strategy` arguments, `any::<T>()`, integer-range
//! strategies, [`collection::vec`] with a fixed size or a size range, and
//! the `prop_assert_*` macros. Each property runs a fixed number of
//! deterministic cases (seeded per test body by case index); there is no
//! shrinking — a failing case panics with the ordinary assert message.
//!
//! Like the real proptest, the case count is overridable through the
//! `PROPTEST_CASES` environment variable (the nightly CI workflow runs the
//! property suites with `PROPTEST_CASES=2048`); unset or unparsable values
//! fall back to [`NUM_CASES`].

/// Number of cases each property is executed with unless overridden via
/// `PROPTEST_CASES`.
pub const NUM_CASES: u32 = 64;

/// The effective case count: `PROPTEST_CASES` when set to a positive
/// integer, [`NUM_CASES`] otherwise.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(NUM_CASES)
}

/// Deterministic RNG driving case generation.
pub mod test_runner {
    /// splitmix64-based test RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl Default for TestRng {
        fn default() -> Self {
            TestRng {
                state: 0x1234_5678_9ABC_DEF0,
            }
        }
    }

    impl TestRng {
        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy for `any::<T>()`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T> {
        pub(crate) _marker: std::marker::PhantomData<T>,
    }

    macro_rules! any_int {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! range_int {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $t
                }
            }
        )*};
    }

    range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Returns the strategy generating arbitrary values of `T`.
pub fn any<T>() -> strategy::Any<T> {
    strategy::Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Anything usable as the size argument of [`vec()`].
    pub trait IntoSize {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSize for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSize for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: IntoSize> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Creates a vector strategy with a fixed length or a length range.
    pub fn vec<S: Strategy, Z: IntoSize>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`cases()`](crate::cases) deterministic
/// cases (`PROPTEST_CASES` overrides the default [`NUM_CASES`]).
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let mut __rng = $crate::test_runner::TestRng::default();
                for __case in 0..$crate::cases() {
                    let _ = __case;
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// `prop_assert!` — plain assert in the stand-in.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `prop_assert_eq!` — plain assert_eq in the stand-in.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `prop_assert_ne!` — plain assert_ne in the stand-in.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn vectors_respect_size_range(data in crate::collection::vec(any::<u8>(), 0..16)) {
            prop_assert!(data.len() < 16);
        }

        #[test]
        fn ranges_respect_bounds(x in 5u64..10) {
            prop_assert!((5..10).contains(&x));
        }
    }
}
