//! Offline stand-in for the `rand` crate.
//!
//! The sandbox has no crates.io access, so the benchmark builds the
//! repository's crates against this file instead. `gremlin-core`'s chaos
//! module is the only user: a seeded [`rngs::StdRng`] and
//! [`Rng::gen_range`] over integer ranges. The generator is SplitMix64,
//! so sequences differ from the published crate's ChaCha12; nothing the
//! benchmark runs draws from it.

use std::ops::{Range, RangeInclusive};

/// Generators that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole sequence is fixed by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The source every generator implements.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience draws on top of [`RngCore`].
pub trait Rng: RngCore {
    /// A value uniformly distributed over `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty, as the published crate does.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range [`Rng::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! integer_ranges {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $ty
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                match ((end - start) as u64).checked_add(1) {
                    Some(span) => start + (rng.next_u64() % span) as $ty,
                    None => rng.next_u64() as $ty,
                }
            }
        }
    )*};
}

integer_ranges!(u8, u16, u32, u64, usize);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The default seeded generator (SplitMix64 here).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_draws_inside_the_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let x = a.gen_range(3..9usize);
            assert_eq!(x, b.gen_range(3..9usize));
            assert!((3..9).contains(&x));
            let y = a.gen_range(1..=2u64);
            assert_eq!(y, b.gen_range(1..=2u64));
            assert!((1..=2).contains(&y));
        }
    }
}
