//! # bf-data — seeded synthetic datasets for the paper's experiments
//!
//! The paper evaluates on two real datasets we cannot redistribute
//! (twitter coordinates collected from the Twitter API; the UCI skin
//! segmentation data), one public-recipe synthetic dataset, and the UCI
//! adult census attribute `capital-loss`. This crate ships deterministic,
//! seeded generators whose *structural* properties match what the
//! experiments actually exercise (see DESIGN.md §3 for the substitution
//! argument):
//!
//! * [`twitter::twitter_like_sized`] — points on the 400×300
//!   western-USA grid (0.05° cells ≈ 5.55 km): a mixture of urban
//!   hot-spots plus uniform background (the paper has
//!   [`twitter::TWITTER_N`] = 193,563),
//! * [`skin::skin_like_sized`] — B/G/R rows in the 256³ color cube: two
//!   elongated Gaussian classes, skin tones tight and non-skin broad
//!   ([`skin::SKIN_N`] = 245,057),
//! * [`adult::adult_capital_loss_like_sized`] — values over a domain of
//!   size 4,357: ~95% exact zeros plus heavy spikes in the 1,500–2,600
//!   band, the sparsity `p ≪ |T|` that the Ordered Mechanism exploits
//!   ([`adult::ADULT_N`] = 48,842),
//! * [`synthetic_clusters`] — the paper's own recipe: `n` points in
//!   `(0,1)^d` from `k` random centers with Gaussian noise σ = 0.2.
//!
//! Every generator takes an explicit seed and is fully reproducible.

pub mod adult;
pub mod generators;
pub mod skin;
pub mod synthetic;
pub mod twitter;

pub use generators::zipf_histogram_dataset;
pub use synthetic::synthetic_clusters;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Standard normal sample via Box–Muller (rand's offline feature set has
/// no normal distribution helper).
pub(crate) fn sample_normal(rng: &mut impl rand::Rng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// A seeded RNG for the generators.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments() {
        let mut rng = seeded_rng(1);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn seeding_is_deterministic() {
        let a: Vec<f64> = {
            let mut rng = seeded_rng(42);
            (0..10).map(|_| sample_normal(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = seeded_rng(42);
            (0..10).map(|_| sample_normal(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
