//! # rand (offline shim)
//!
//! The build environment has no crates.io access, so this vendored crate
//! provides the (small) subset of the `rand` 0.9 API this workspace uses:
//!
//! * [`Rng`] — `random::<T>()` and `random_range(range)`,
//! * [`SeedableRng`] — `seed_from_u64`,
//! * [`rngs::StdRng`] — a deterministic seeded generator
//!   (xoshiro256++ seeded via SplitMix64; not the upstream ChaCha12, so
//!   exact streams differ from crates.io `rand`, but all statistical
//!   properties the test-suite checks hold),
//! * [`seq::index::sample`].
//!
//! Everything is uniform, deterministic under a fixed seed, and
//! dependency-free. Swap back to crates.io `rand` by deleting this crate
//! from `[workspace.dependencies]` when network access exists.

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// The next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;
}

mod sample_impls {
    /// Types producible by [`super::Rng::random`].
    pub trait StandardSample: Sized {
        fn sample_standard(word: u64) -> Self;
    }

    impl StandardSample for f64 {
        fn sample_standard(word: u64) -> Self {
            // 53 uniform bits in [0, 1).
            (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl StandardSample for f32 {
        fn sample_standard(word: u64) -> Self {
            (word >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
        }
    }

    impl StandardSample for u64 {
        fn sample_standard(word: u64) -> Self {
            word
        }
    }

    impl StandardSample for u32 {
        fn sample_standard(word: u64) -> Self {
            (word >> 32) as u32
        }
    }

    impl StandardSample for usize {
        fn sample_standard(word: u64) -> Self {
            word as usize
        }
    }

    impl StandardSample for bool {
        fn sample_standard(word: u64) -> Self {
            word & 1 == 1
        }
    }
}

pub use sample_impls::StandardSample;

/// Integer/float types samplable from a range by [`Rng::random_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)`; caller guarantees `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`; caller guarantees `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u128).wrapping_sub(lo as u128);
                lo.wrapping_add(uniform_u128_below(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: any word is uniform.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u128_below(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        Self::sample_half_open(rng, lo, hi)
    }
}

/// Unbiased uniform sample below `bound` (> 0) via rejection on the top
/// multiple of `bound`.
fn uniform_u128_below<R: RngCore + ?Sized>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    if bound <= u64::MAX as u128 {
        let bound = bound as u64;
        // Lemire-style widening multiply with rejection.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let word = rng.next_u64();
            if word <= zone {
                return (word % bound) as u128;
            }
        }
    } else {
        let zone = u128::MAX - (u128::MAX - bound + 1) % bound;
        loop {
            let word = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            if word <= zone {
                return word % bound;
            }
        }
    }
}

/// Ranges accepted by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws a uniform sample from the (non-empty) range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample from empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample from empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A sample from the standard distribution of `T` (uniform bits;
    /// `[0, 1)` for floats).
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self.next_u64())
    }

    /// A uniform sample from `range`.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a deterministic generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// with SplitMix64 seeding.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    pub mod index {
        use super::super::Rng;

        /// Distinct indices sampled by [`sample`].
        #[derive(Debug, Clone)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// The sampled indices as a vector.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }

            /// Number of sampled indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether no indices were sampled.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;

            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Samples `amount` distinct indices from `0..length` uniformly
        /// (partial Fisher–Yates).
        ///
        /// # Panics
        ///
        /// Panics when `amount > length`.
        pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} indices from {length}"
            );
            let mut idx: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.random_range(i..length);
                idx.swap(i, j);
            }
            idx.truncate(amount);
            IndexVec(idx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::index::sample;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..8).map(|_| r.random::<u64>()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..8).map(|_| r.random::<u64>()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(10);
            (0..8).map(|_| r.random::<u64>()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn unit_float_bounds_and_mean() {
        let mut r = StdRng::seed_from_u64(1);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn range_sampling_in_bounds_and_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.random_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
        for _ in 0..1000 {
            let v = r.random_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let f = r.random_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = r.random_range(0..=4u32);
            assert!(i <= 4);
        }
    }

    #[test]
    fn index_sample_distinct() {
        let mut r = StdRng::seed_from_u64(4);
        let s = sample(&mut r, 50, 10).into_vec();
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(s.iter().all(|&i| i < 50));
    }
}
