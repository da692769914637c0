//! Privelet-style Haar wavelet mechanism (Xiao, Wang, Gehrke \[19\]) — an
//! additional differentially-private range-query baseline the paper
//! groups with the hierarchical methods.
//!
//! The histogram (padded to a power of two) is transformed into the
//! unnormalized Haar basis: the total `S` plus one *difference
//! coefficient* `d_v = sum(left half) − sum(right half)` per internal
//! node of the dyadic tree. Changing one tuple's value moves one unit of
//! count between two leaves, touching the total not at all and at most
//! `2h` difference coefficients by 1 each (`h = log₂ n` levels), so
//! releasing all coefficients with `Lap(2h/ε)` noise (and the total with
//! the same scale, conservatively) is ε-differentially private.
//!
//! Reconstruction halves noise contributions level by level
//! (`x_left = (parent_sum + d)/2`), so reconstructed-leaf errors are
//! correlated and partially cancel over dyadic ranges — the property that
//! gives Privelet its `O(log³|T|/ε²)` range-query error.

use bf_core::{sample_laplace, Epsilon};
use rand::Rng;

/// The Haar wavelet mechanism configuration.
#[derive(Debug, Clone, Copy)]
pub struct WaveletMechanism {
    /// Total privacy budget.
    pub epsilon: Epsilon,
}

impl WaveletMechanism {
    /// Creates the mechanism.
    pub fn new(epsilon: Epsilon) -> Self {
        Self { epsilon }
    }

    /// Releases the noisy wavelet reconstruction of the histogram.
    pub fn release(&self, histogram: &[f64], rng: &mut impl Rng) -> WaveletRelease {
        let n = histogram.len();
        assert!(n >= 1);
        let padded = n.next_power_of_two();
        let levels = padded.trailing_zeros() as usize; // h
        let mut data = histogram.to_vec();
        data.resize(padded, 0.0);

        // Forward unnormalized Haar transform: coefficients[0] = total,
        // then per level the differences (left − right) of each block
        // pair, computed from block sums.
        //
        // We store, per level l (0 = root split), the difference
        // coefficient of each of the 2^l blocks at that level.
        let mut sums = data.clone();
        let mut diffs_per_level: Vec<Vec<f64>> = Vec::with_capacity(levels);
        // Build block sums bottom-up, recording differences top-down
        // afterwards; easiest is to compute all levels of sums first.
        let mut levels_sums: Vec<Vec<f64>> = vec![sums.clone()];
        while sums.len() > 1 {
            let next: Vec<f64> = sums.chunks_exact(2).map(|p| p[0] + p[1]).collect();
            levels_sums.push(next.clone());
            sums = next;
        }
        // levels_sums[k] has padded/2^k entries; the difference at level
        // with blocks of size 2^(k+1) pairs entries of levels_sums[k].
        for k in (0..levels).rev() {
            let s = &levels_sums[k];
            let diffs: Vec<f64> = s.chunks_exact(2).map(|p| p[0] - p[1]).collect();
            diffs_per_level.push(diffs);
        }
        // diffs_per_level[0] is the root split (two halves), …, last is
        // adjacent leaves.

        // Noise scale: one tuple change affects ≤ 2 coefficients per
        // level plus (for add/remove variants) the total.
        let h = levels.max(1) as f64;
        let scale = 2.0 * h / self.epsilon.value();
        let mut total = levels_sums[levels][0];
        total += sample_laplace(rng, scale);
        for level in &mut diffs_per_level {
            for d in level.iter_mut() {
                *d += sample_laplace(rng, scale);
            }
        }

        // Reconstruct leaves top-down: block sums from (parent ± d)/2.
        let mut block_sums = vec![total];
        for level in &diffs_per_level {
            let mut next = Vec::with_capacity(block_sums.len() * 2);
            for (parent, d) in block_sums.iter().zip(level) {
                next.push((parent + d) / 2.0);
                next.push((parent - d) / 2.0);
            }
            block_sums = next;
        }
        block_sums.truncate(n);
        let mut prefix = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &v in &block_sums {
            acc += v;
            prefix.push(acc);
        }
        WaveletRelease {
            histogram: block_sums,
            prefix,
        }
    }
}

/// A released noisy wavelet reconstruction.
#[derive(Debug, Clone)]
pub struct WaveletRelease {
    histogram: Vec<f64>,
    prefix: Vec<f64>,
}

impl WaveletRelease {
    /// The reconstructed noisy histogram.
    pub fn histogram(&self) -> &[f64] {
        &self.histogram
    }

    /// Noisy range count `q[lo, hi]` (inclusive).
    pub(crate) fn range(&self, lo: usize, hi: usize) -> f64 {
        let upper = self.prefix[hi];
        let lower = if lo == 0 { 0.0 } else { self.prefix[lo - 1] };
        upper - lower
    }
}

impl crate::range_workload::RangeAnswerer for WaveletRelease {
    fn answer(&self, lo: usize, hi: usize) -> f64 {
        self.range(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hist(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    /// With an enormous ε the reconstruction is numerically exact —
    /// transform/inverse round-trip including non-power-of-two padding.
    #[test]
    fn reconstruction_round_trip() {
        for n in [1usize, 2, 5, 8, 13, 64, 100] {
            let h = hist(n);
            let m = WaveletMechanism::new(Epsilon::new(1e12).unwrap());
            let mut rng = StdRng::seed_from_u64(1);
            let r = m.release(&h, &mut rng);
            assert_eq!(r.histogram().len(), n);
            for (a, b) in r.histogram().iter().zip(&h) {
                assert!((a - b).abs() < 1e-6, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ranges_unbiased() {
        let h = hist(64);
        let truth: f64 = h[10..=40].iter().sum();
        let m = WaveletMechanism::new(Epsilon::new(1.0).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 2000;
        let mut acc = 0.0;
        for _ in 0..trials {
            acc += m.release(&h, &mut rng).range(10, 40);
        }
        let mean = acc / trials as f64;
        assert!((mean - truth).abs() < 4.0, "mean {mean} vs {truth}");
    }

    /// The wavelet baseline is in the same error regime as the
    /// hierarchical mechanism (both O(log³|T|/ε²)) — within an order of
    /// magnitude on a fixed workload.
    #[test]
    fn comparable_to_hierarchical() {
        use crate::hierarchical::HierarchicalMechanism;
        use crate::range_workload::{evaluate_range_mse, random_ranges};
        let h = hist(512);
        let eps = Epsilon::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let workload = random_ranges(512, 300, &mut rng);
        let trials = 15;
        let wm = WaveletMechanism::new(eps);
        let hm = HierarchicalMechanism::new(2, eps);
        let mut w_mse = 0.0;
        let mut h_mse = 0.0;
        for _ in 0..trials {
            w_mse += evaluate_range_mse(&wm.release(&h, &mut rng), &h, &workload);
            h_mse += evaluate_range_mse(&hm.release(&h, &mut rng), &h, &workload);
        }
        assert!(
            w_mse < h_mse * 10.0 && h_mse < w_mse * 10.0,
            "wavelet {w_mse} vs hierarchical {h_mse}"
        );
    }

    #[test]
    fn single_cell_domain() {
        let m = WaveletMechanism::new(Epsilon::new(1.0).unwrap());
        let mut rng = StdRng::seed_from_u64(4);
        let r = m.release(&[5.0], &mut rng);
        assert!(r.range(0, 0).is_finite());
    }
}
