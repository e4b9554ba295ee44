//! Offline stand-in for the parts of the `proptest` crate this
//! workspace's property tests use.
//!
//! The build environment has no network access to crates.io, so this
//! workspace-local crate shadows the real `proptest` via a path
//! dependency. It keeps the same test-source API — the `proptest!`
//! macro, `Strategy` with `prop_map`, `Just`, `prop_oneof!`, integer
//! ranges, `collection::vec`, `any::<T>()`, a small character-class
//! subset of string regex strategies, and the `prop_assert*` macros —
//! but intentionally drops the machinery that is irrelevant to a
//! deterministic CI gate:
//!
//! * **no shrinking** — a failing case reports its index and message;
//!   cases are reproducible because the RNG seed is a hash of the test
//!   name, so re-running the test replays the identical sequence;
//! * **no persistence files**, no fork, no timeouts.

pub mod test_runner {
    use std::fmt;

    /// Per-test configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property case (carried by `prop_assert*` early returns).
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// The deterministic case generator: SplitMix64 seeded from a hash of
    /// the test's full path, so every test has its own stable stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator whose stream is a pure function of `name`.
        pub fn deterministic(name: &str) -> TestRng {
            // FNV-1a over the test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform value in `[0, n)`; 0 when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }
    }
}

pub mod strategy {
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values. Unlike the real proptest there is
    /// no value tree: generation is a single draw, with no shrinking.
    pub trait Strategy: Clone {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// A strategy producing `f` of this strategy's values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            F: Fn(Self::Value) -> O + Clone,
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases this strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let inner = self;
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| inner.gen_value(rng)))
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O + Clone,
    {
        type Value = O;

        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice among type-erased alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// A strategy choosing uniformly among `arms`.
        ///
        /// # Panics
        ///
        /// Panics when `arms` is empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> OneOf<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Clone for OneOf<T> {
        fn clone(&self) -> Self {
            OneOf {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].gen_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128) - (self.start as i128);
                    let off = (rng.next_u64() as u128 % span as u128) as i128;
                    ((self.start as i128) + off) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.gen_value(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy!((A)(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E));

    /// String strategies from a small regex subset: a sequence of atoms,
    /// each a literal character or a single character class `[a-z]`,
    /// optionally repeated `{n}` or `{m,n}`.
    impl Strategy for &'static str {
        type Value = String;

        fn gen_value(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let bytes = pattern.as_bytes();
        let mut out = String::new();
        let mut i = 0;
        while i < bytes.len() {
            let (lo, hi) = if bytes[i] == b'[' {
                assert!(
                    i + 4 < bytes.len() && bytes[i + 2] == b'-' && bytes[i + 4] == b']',
                    "proptest shim supports only `[x-y]` classes, got {pattern:?}"
                );
                let pair = (bytes[i + 1], bytes[i + 3]);
                i += 5;
                pair
            } else {
                let c = bytes[i];
                i += 1;
                (c, c)
            };
            let (min, max) = if i < bytes.len() && bytes[i] == b'{' {
                let close = pattern[i..].find('}').expect("unterminated `{` in pattern") + i;
                let body = &pattern[i + 1..close];
                let (min, max) = match body.split_once(',') {
                    Some((m, n)) => (
                        m.parse::<u64>().expect("bad repeat count"),
                        n.parse::<u64>().expect("bad repeat count"),
                    ),
                    None => {
                        let n = body.parse::<u64>().expect("bad repeat count");
                        (n, n)
                    }
                };
                i = close + 1;
                (min, max)
            } else {
                (1, 1)
            };
            let n = min + rng.below(max - min + 1);
            for _ in 0..n {
                out.push((lo + rng.below(u64::from(hi - lo) + 1) as u8) as char);
            }
        }
        out
    }
}

pub mod collection {
    use core::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A strategy for vectors whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The result of [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use std::marker::PhantomData;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for `T` ([`any`]).
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Property assertion: fails the current case without panicking the
/// generator loop (the failure is reported with its case index).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality property assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// Inequality property assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            left
        );
    }};
}

/// The property-test declaration macro: wraps each `fn name(x in strat)`
/// into a `#[test]` running `cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $( $(#[doc = $doc:expr])* #[test] fn $name:ident(
          $($arg:pat in $strat:expr),+ $(,)?
      ) $body:block )*
    ) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);)+
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!("property `{}` failed at case {}: {}", stringify!($name), case, e);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..500 {
            let v = Strategy::gen_value(&(3u64..64), &mut rng);
            assert!((3..64).contains(&v));
            let w = Strategy::gen_value(&(-512i64..512), &mut rng);
            assert!((-512..512).contains(&w));
        }
    }

    #[test]
    fn pattern_strategies_match_shape() {
        let mut rng = TestRng::deterministic("patterns");
        for _ in 0..200 {
            let s = Strategy::gen_value(&"[a-z]{1,6}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 6, "{s:?}");
            assert!(s.bytes().all(|b| b.is_ascii_lowercase()), "{s:?}");
            let d = Strategy::gen_value(&"[0-9]{2}x", &mut rng);
            assert_eq!(d.len(), 3);
            assert!(d.ends_with('x'));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let st = prop_oneof![Just("a".to_string()), "[b-d]{1}"].prop_map(|s| s.len());
        let mut rng = TestRng::deterministic("compose");
        for _ in 0..50 {
            assert_eq!(st.clone().gen_value(&mut rng), 1);
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let st = crate::collection::vec((0u8..3, 0u64..64), 1..20);
        let mut rng = TestRng::deterministic("vec");
        for _ in 0..100 {
            let v = st.gen_value(&mut rng);
            assert!(!v.is_empty() && v.len() < 20);
            for (a, b) in v {
                assert!(a < 3 && b < 64);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0i64..100, flips in crate::collection::vec(any::<bool>(), 0..8)) {
            prop_assert!(x >= 0);
            prop_assert!(x < 100, "x was {}", x);
            prop_assert_eq!(flips.len() < 8, true);
        }
    }
}
