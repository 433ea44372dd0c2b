//! Std-only property-testing harness.
//!
//! The build environment is offline, so the workspace cannot depend on
//! `proptest`. This crate provides the small subset the repository's
//! property tests actually need:
//!
//! * [`Gen`] — a seeded, deterministic value generator (SplitMix64);
//! * [`run_cases`] — runs a property closure over many generated cases,
//!   reporting the failing case's seed so it can be replayed exactly;
//! * [`prop_assert!`] / [`prop_assert_eq!`] — assertion macros that
//!   return an error from the property closure instead of panicking, so
//!   the harness can attach case context.
//!
//! There is intentionally no shrinking: generators are seeded and every
//! case prints its replay seed, which for this codebase's deterministic
//! simulations is enough to reproduce and debug a failure.
//!
//! # Example
//!
//! ```
//! use testkit::{prop_assert, prop_assert_eq, run_cases};
//!
//! run_cases("addition_commutes", 64, |g| {
//!     let a = g.u64_in(0..1000);
//!     let b = g.u64_in(0..1000);
//!     prop_assert_eq!(a + b, b + a);
//!     prop_assert!(a + b >= a, "no wrap expected for {a} + {b}");
//!     Ok(())
//! });
//! ```

/// Result type returned by property closures.
pub type PropResult = Result<(), String>;

/// Default base seed; override with the `TESTKIT_SEED` environment
/// variable to explore a different deterministic case stream.
const DEFAULT_SEED: u64 = 0x0001_5A55_2023;

/// A deterministic pseudo-random value generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.next_u64() % span
    }

    /// Uniform `i64` in `[range.start, range.end)`.
    pub fn i64_in(&mut self, range: std::ops::Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as i64
    }

    /// Uniform `u32` in `[range.start, range.end)`.
    pub fn u32_in(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.u64_in(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `u16` in `[range.start, range.end)`.
    pub fn u16_in(&mut self, range: std::ops::Range<u16>) -> u16 {
        self.u64_in(range.start as u64..range.end as u64) as u16
    }

    /// Uniform `u8` in `[range.start, range.end)`.
    pub fn u8_in(&mut self, range: std::ops::Range<u8>) -> u8 {
        self.u64_in(range.start as u64..range.end as u64) as u8
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64().is_multiple_of(2)
    }

    /// Picks one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.usize_in(0..xs.len())]
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `f`.
    pub fn vec<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// The base seed for this process (`TESTKIT_SEED` env var, else fixed).
pub fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Runs `cases` generated cases of the property `f`.
///
/// Each case gets a [`Gen`] seeded deterministically from the base seed
/// and the case index; a failing case panics with the property name, the
/// case index and the exact seed to replay it (`Gen::new(seed)`).
///
/// # Panics
///
/// Panics when a case returns `Err` — this is the test-failure path.
pub fn run_cases(name: &str, cases: u32, f: impl Fn(&mut Gen) -> PropResult) {
    let base = base_seed();
    for i in 0..cases {
        let seed = base
            .wrapping_mul(0x100000001B3)
            .wrapping_add(i as u64)
            .wrapping_mul(0x2545F491_4F6CDD1D);
        let mut g = Gen::new(seed);
        if let Err(msg) = f(&mut g) {
            panic!(
                "property `{name}` failed at case {i}/{cases} \
                 (replay: Gen::new({seed:#x})): {msg}"
            );
        }
    }
}

/// `assert!` for property closures: returns `Err` instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// `assert_eq!` for property closures: returns `Err` instead of
/// panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): left = {:?}, right = {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): left = {:?}, right = {:?}: {}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l,
                r,
                format!($($fmt)+)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_deterministic() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::new(42);
        for _ in 0..1000 {
            let v = g.u64_in(10..20);
            assert!((10..20).contains(&v));
            let i = g.i64_in(-5..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn values_spread_over_the_range() {
        let mut g = Gen::new(1);
        let seen: std::collections::HashSet<u64> = (0..200).map(|_| g.u64_in(0..16)).collect();
        assert!(seen.len() > 12, "{seen:?}");
    }

    #[test]
    fn vec_and_pick_work() {
        let mut g = Gen::new(3);
        let v = g.vec(5..9, |g| g.u8_in(0..4));
        assert!((5..9).contains(&v.len()));
        let choices = [1, 2, 3];
        assert!(choices.contains(g.pick(&choices)));
    }

    #[test]
    fn run_cases_passes_good_properties() {
        run_cases("tautology", 16, |g| {
            let x = g.u64_in(0..100);
            prop_assert!(x < 100);
            prop_assert_eq!(x, x);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn run_cases_panics_with_replay_seed() {
        run_cases("always_fails", 4, |g| {
            let x = g.u64_in(0..10);
            prop_assert!(x > 100, "x was {x}");
            Ok(())
        });
    }
}
