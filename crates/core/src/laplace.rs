//! Laplace sampling and the policy-calibrated Laplace mechanism.
//!
//! Theorem 5.1: releasing `f(D) + η` with `η_i ~ Lap(S(f,P)/ε)` i.i.d.
//! satisfies `(ε, P)`-Blowfish privacy. With the complete secret graph this
//! is exactly the classical Laplace mechanism of Dwork et al.
//!
//! # The sampler
//!
//! [`sample_laplace`] is a 256-layer exponential ziggurat (Marsaglia &
//! Tsang, J. Stat. Softw. 5(8), 2000) with a random sign, times `scale`.
//! It is an **exact** rejection sampler of `Exp(1)` — no approximation of
//! `ln` — and it is **data-blind**: the unit variate is drawn before
//! `scale` is looked at and never sees the true answer, so the number of
//! generator words a release consumes (≈ 1.034 per sample: one word
//! decides layer, sign and position on 97.8 % of attempts, a wedge or
//! tail test costs a second, and 1.1 % of attempts are rejected) depends
//! on generator bits only, and noise stays a pure function of
//! `(seed, release identity, ledger position)`.
//!
//! ROADMAP item 6b is **open**: the f64 lattice `answer + noise` lands on
//! still depends on the true answer, exactly as it did under the
//! inverse-CDF sampler this replaced. The snapped/discrete sampler of 6b
//! replaces this same function body and is measured against this one's
//! `core.laplace_ns_per_sample` (`bfbench --trace 1`; ≈ 5 ns, paid
//! 65 536× per `engine_batch` Ordered release).

use crate::epsilon::Epsilon;
use crate::error::CoreError;
use rand::Rng;
use std::sync::LazyLock;

/// Right edge of the ziggurat's base layer.
const ZIG_R: f64 = 7.69711747013105;
/// Area of each of the 256 layers (the base layer includes the tail).
const ZIG_V: f64 = 0.003949659822581572;

/// Layer edges `x[0] = V/f(R) > x[1] = R > … > x[256] = 0` of the
/// `Exp(1)` density `f(x) = e^{−x}`, and `f[i] = f(x[i])`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let (mut x, mut f) = ([0.0; 257], [1.0; 257]);
    x[1] = ZIG_R;
    f[1] = (-ZIG_R).exp();
    x[0] = ZIG_V / f[1];
    f[0] = (-x[0]).exp();
    for i in 2..256 {
        // Layer i−1 is the rectangle [0, x[i−1]] × [f[i−1], f[i]] of area V.
        x[i] = -(ZIG_V / x[i - 1] + f[i - 1]).ln();
        f[i] = (-x[i]).exp();
    }
    Ziggurat { x, f }
});

/// The top 52 bits of `word` as a uniform in the *open* interval (0, 1).
fn open_unit(word: u64) -> f64 {
    ((word >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// One `Lap(1)` variate. Bits 0–7 of a word pick the layer, bit 8 the
/// sign, the top 52 the position in the layer: both ends of the *same*
/// word, so the first variate of a fresh generator is as good as any.
fn sample_unit_laplace(rng: &mut impl Rng) -> f64 {
    let zig = &*ZIGGURAT;
    loop {
        let word: u64 = rng.random();
        let i = (word & 0xff) as usize;
        let x = open_unit(word) * zig.x[i];
        let x = if x < zig.x[i + 1] {
            x // wholly under the curve
        } else if i == 0 {
            ZIG_R - open_unit(rng.random()).ln() // the tail beyond R
        } else if zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * open_unit(rng.random()) < (-x).exp() {
            x // in the wedge, under the curve
        } else {
            continue;
        };
        // The sign goes straight into the bit pattern: as a branch it is
        // a coin flip the predictor loses half the time.
        return f64::from_bits(x.to_bits() | (word & 0x100) << 55);
    }
}

/// Draws one sample from the Laplace distribution with the given scale
/// (mean 0); see the module documentation for the sampler.
pub fn sample_laplace(rng: &mut impl Rng, scale: f64) -> f64 {
    debug_assert!(scale >= 0.0, "scale must be non-negative");
    if scale == 0.0 {
        return 0.0;
    }
    sample_unit_laplace(rng) * scale
}

/// The vector Laplace mechanism: adds i.i.d. `Lap(sensitivity/ε)` noise.
///
/// # Examples
///
/// ```
/// use bf_core::{Epsilon, LaplaceMechanism};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mech = LaplaceMechanism::new(Epsilon::new(0.5).unwrap(), 2.0).unwrap();
/// assert_eq!(mech.scale(), 4.0); // S(f,P)/ε
/// let mut rng = StdRng::seed_from_u64(1);
/// let noisy = mech.release(&[10.0, 20.0], &mut rng);
/// assert_eq!(noisy.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: Epsilon,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Builds a mechanism for a query with the given (policy-specific)
    /// sensitivity.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSensitivity`] for negative or non-finite
    /// sensitivity.
    pub fn new(epsilon: Epsilon, sensitivity: f64) -> Result<Self, CoreError> {
        if !(sensitivity.is_finite() && sensitivity >= 0.0) {
            return Err(CoreError::InvalidSensitivity(sensitivity));
        }
        Ok(Self {
            epsilon,
            sensitivity,
        })
    }

    /// Noise scale `b = S(f,P)/ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon.value()
    }

    /// Releases a noisy copy of `answer`.
    pub fn release(&self, answer: &[f64], rng: &mut impl Rng) -> Vec<f64> {
        let scale = self.scale();
        answer
            .iter()
            .map(|&a| a + sample_laplace(rng, scale))
            .collect()
    }

    /// Releases noisy values in place.
    pub fn release_in_place(&self, answer: &mut [f64], rng: &mut impl Rng) {
        let scale = self.scale();
        for a in answer {
            *a += sample_laplace(rng, scale);
        }
    }

    /// Releases a single noisy scalar.
    pub fn release_scalar(&self, answer: f64, rng: &mut impl Rng) -> f64 {
        answer + sample_laplace(rng, self.scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The inverse-CDF sampler this module shipped before the ziggurat,
    /// kept as the oracle [`matches_the_inverse_cdf_sampler`] compares to.
    fn sample_laplace_inverse_cdf(rng: &mut impl Rng, scale: f64) -> f64 {
        // u uniform in (-0.5, 0.5]; guard the log endpoint u = -0.5.
        let u: f64 = rng.random::<f64>() - 0.5;
        let u = if u <= -0.5 { -0.4999999999999999 } else { u };
        // ln(1 - 2|u|) as ln_1p for accuracy near 0.
        -scale * u.signum() * ((1.0 - 2.0 * u.abs()) - 1.0).ln_1p()
    }

    fn laplace_cdf(x: f64, scale: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / scale).exp()
        } else {
            1.0 - 0.5 * (-x / scale).exp()
        }
    }

    /// Kolmogorov–Smirnov distance of `samples` to `Lap(scale)`.
    fn ks_to_laplace(mut samples: Vec<f64>, scale: f64) -> f64 {
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        samples
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = laplace_cdf(x, scale);
                (f - i as f64 / n).max((i + 1) as f64 / n - f)
            })
            .fold(0.0, f64::max)
    }

    /// Two-sample Kolmogorov–Smirnov distance.
    fn ks_between(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            i += a[i..].iter().take_while(|&&v| v <= x).count();
            j += b[j..].iter().take_while(|&&v| v <= x).count();
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    /// `c(α)` of the Kolmogorov distribution at α = 0.1 %: reject at
    /// `D > c·√(1/n)` (one sample) or `c·√(1/n + 1/m)` (two samples).
    const KS_C_001: f64 = 1.9495;

    #[test]
    fn ziggurat_layers_close_at_the_mode() {
        // R and V are right iff stacking 255 layers of area V on the base
        // lands exactly on f(0) = 1.
        let zig = &*ZIGGURAT;
        assert!((zig.f[255] + ZIG_V / zig.x[255] - 1.0).abs() < 1e-12);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        assert!(zig.f.windows(2).all(|w| w[0] < w[1]));
        assert_eq!((zig.x[256], zig.f[256]), (0.0, 1.0));
    }

    #[test]
    fn distribution_matches_the_closed_form_cdf() {
        let mut rng = StdRng::seed_from_u64(2014);
        let (n, scale) = (1_000_000usize, 3.0);
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, scale)).collect();
        // Tail mass beyond R·scale: 2 · ½e^{−R} of the samples, ± 5σ.
        let tail = samples.iter().filter(|s| s.abs() > ZIG_R * scale).count() as f64;
        let expect = n as f64 * (-ZIG_R).exp();
        assert!(
            (tail - expect).abs() < 5.0 * expect.sqrt(),
            "tail {tail} expected {expect}"
        );
        let positive = samples.iter().filter(|&&s| s > 0.0).count() as f64;
        assert!(
            (positive - n as f64 / 2.0).abs() < 5.0 * (n as f64).sqrt() / 2.0,
            "{positive} positive of {n}"
        );
        assert!(samples.iter().all(|&s| s != 0.0 && s.is_finite()));
        let d = ks_to_laplace(samples, scale);
        assert!(d < KS_C_001 / (n as f64).sqrt(), "KS distance {d}");
    }

    /// The wire path answers a scalar with the *first* variate of a
    /// freshly keyed generator, so that variate alone must follow the law.
    #[test]
    fn first_variate_of_fresh_generators_matches_the_cdf() {
        let n = 100_000u64;
        let samples: Vec<f64> = (0..n)
            .map(|seed| sample_laplace(&mut StdRng::seed_from_u64(seed), 1.0))
            .collect();
        let d = ks_to_laplace(samples, 1.0);
        assert!(d < KS_C_001 / (n as f64).sqrt(), "KS distance {d}");
    }

    #[test]
    fn sampler_is_blind_to_scale() {
        let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..100_000 {
            let (x, y) = (sample_laplace(&mut a, 1.0), sample_laplace(&mut b, 4.0));
            assert_eq!((4.0 * x).to_bits(), y.to_bits());
        }
        // Same words consumed whatever the scale (wedge and tail draws
        // included: 100 000 samples take ≈ 3 400 of them).
        assert_eq!(a, b);
        assert_eq!(sample_laplace(&mut a, 0.0), 0.0);
        assert_eq!(a, b, "a zero scale consumes no word");
    }

    #[test]
    fn matches_the_inverse_cdf_sampler() {
        let n = 1_000_000usize;
        let mut rng = StdRng::seed_from_u64(17);
        let new: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, 2.0)).collect();
        let old: Vec<f64> = (0..n)
            .map(|_| sample_laplace_inverse_cdf(&mut rng, 2.0))
            .collect();
        let d = ks_between(new, old);
        assert!(d < KS_C_001 * (2.0 / n as f64).sqrt(), "KS distance {d}");
    }

    #[test]
    fn laplace_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let scale = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Var[Lap(b)] = 2b².
        let expected = 2.0 * scale * scale;
        assert!(
            (var - expected).abs() / expected < 0.05,
            "variance {var} expected {expected}"
        );
    }

    #[test]
    fn laplace_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let pos = (0..n)
            .filter(|_| sample_laplace(&mut rng, 1.0) > 0.0)
            .count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn zero_scale_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_laplace(&mut rng, 0.0), 0.0);
        let m = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 0.0).unwrap();
        assert_eq!(m.release(&[5.0, 6.0], &mut rng), vec![5.0, 6.0]);
    }

    #[test]
    fn mechanism_scale() {
        let m = LaplaceMechanism::new(Epsilon::new(0.5).unwrap(), 2.0).unwrap();
        assert_eq!(m.scale(), 4.0);
    }

    #[test]
    fn invalid_sensitivity_rejected() {
        let e = Epsilon::new(1.0).unwrap();
        assert!(LaplaceMechanism::new(e, -1.0).is_err());
        assert!(LaplaceMechanism::new(e, f64::NAN).is_err());
    }

    #[test]
    fn release_unbiased() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 1.0).unwrap();
        let trials = 50_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            acc += m.release_scalar(10.0, &mut rng);
        }
        let mean = acc / trials as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
    }

    /// Empirical check of the (ε,P) likelihood-ratio inequality on a
    /// discretized output: for neighbor answers differing by the
    /// sensitivity, the histogram ratio of outputs must be ≤ e^ε within
    /// sampling error.
    #[test]
    fn privacy_inequality_empirical() {
        let eps = 1.0;
        let m = LaplaceMechanism::new(Epsilon::new(eps).unwrap(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let n = 400_000;
        let width = 0.25;
        let bucket = |v: f64| ((v / width).floor() as i64).clamp(-40, 40);
        let mut h1 = std::collections::HashMap::new();
        let mut h2 = std::collections::HashMap::new();
        for _ in 0..n {
            *h1.entry(bucket(m.release_scalar(0.0, &mut rng)))
                .or_insert(0u64) += 1;
            *h2.entry(bucket(m.release_scalar(1.0, &mut rng)))
                .or_insert(0u64) += 1;
        }
        for (b, &c1) in &h1 {
            let c2 = *h2.get(b).unwrap_or(&0);
            if c1 > 500 && c2 > 500 {
                let ratio = c1 as f64 / c2 as f64;
                assert!(
                    ratio < (eps).exp() * 1.15,
                    "bucket {b}: ratio {ratio} exceeds e^ε"
                );
            }
        }
    }
}
