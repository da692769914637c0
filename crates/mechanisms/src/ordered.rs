//! The Ordered Mechanism (Section 7.1).
//!
//! Under the policy `(T, G^{d,θ}, I_n)` on a totally ordered domain, the
//! cumulative histogram `S_T` has policy-specific sensitivity θ (one tuple
//! moving ≤ θ positions changes at most θ prefix counts by 1 each). The
//! Ordered Mechanism releases `s̃_i = s_i + Lap(θ/ε)` and then *boosts*
//! accuracy with constrained inference on the ordering constraint
//! `s_1 ≤ s_2 ≤ …` (isotonic regression = exact least-squares projection).
//!
//! Every range query is a difference of two prefix counts, so its error is
//! at most `2 · 2(θ/ε)²` — for the line graph (θ = 1) this is the `4/ε²`
//! bound of Theorem 7.1, *independent of* `|T|`, beating the
//! `Ω(log³|T|/ε²)` lower bound for differentially private strategies.

use crate::isotonic::{isotonic_regression, isotonic_regression_nonneg};
use bf_core::sensitivity::cumulative_histogram_sensitivity;
use bf_core::{CoreError, Epsilon, LaplaceMechanism, Policy};
use bf_domain::CumulativeHistogram;
use rand::Rng;

/// Configuration of the Ordered Mechanism.
///
/// # Examples
///
/// ```
/// use bf_core::Epsilon;
/// use bf_domain::Histogram;
/// use bf_mechanisms::OrderedMechanism;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let hist = Histogram::from_counts(vec![3.0, 0.0, 5.0, 2.0]);
/// let mech = OrderedMechanism::line_graph(Epsilon::new(0.5).unwrap());
/// let mut rng = StdRng::seed_from_u64(1);
/// let release = mech.release(&hist.cumulative(), &mut rng).unwrap();
/// // Any range query costs at most two prefix counts:
/// let noisy = release.range(1, 2);
/// assert!(noisy.is_finite());
/// // Theorem 7.1: error ≤ 4/ε² regardless of the domain size.
/// assert_eq!(4.0 * mech.scale() * mech.scale(), 16.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OrderedMechanism {
    /// Total privacy budget ε.
    pub epsilon: Epsilon,
    /// Sensitivity of the cumulative histogram (θ for `G^{L1,θ}`).
    pub sensitivity: f64,
    /// Run constrained inference (isotonic regression) on the noisy prefix
    /// sums. On by default — it is the "boosting" step of Section 7.1.
    pub constrained_inference: bool,
    /// Additionally force `s_1 ≥ 0` so recovered counts are non-negative.
    pub nonnegative: bool,
}

impl OrderedMechanism {
    /// For the line graph `G^{d,1}` (sensitivity 1).
    pub fn line_graph(epsilon: Epsilon) -> Self {
        Self {
            epsilon,
            sensitivity: 1.0,
            constrained_inference: true,
            nonnegative: false,
        }
    }

    /// For a distance threshold θ (sensitivity θ).
    pub fn with_theta(epsilon: Epsilon, theta: u64) -> Self {
        assert!(theta >= 1);
        Self {
            epsilon,
            sensitivity: theta as f64,
            constrained_inference: true,
            nonnegative: false,
        }
    }

    /// Calibrated from a constraint-free policy (closed-form cumulative
    /// histogram sensitivity).
    pub fn for_policy(policy: &Policy, epsilon: Epsilon) -> Self {
        Self {
            epsilon,
            sensitivity: cumulative_histogram_sensitivity(policy),
            constrained_inference: true,
            nonnegative: false,
        }
    }

    /// Disables the boosting step (raw noisy prefix sums).
    pub fn without_inference(mut self) -> Self {
        self.constrained_inference = false;
        self
    }

    /// Enables the `s_1 ≥ 0` refinement.
    pub fn with_nonnegativity(mut self) -> Self {
        self.nonnegative = true;
        self
    }

    /// Noise scale θ/ε.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon.value()
    }

    /// Releases noisy (and, by default, boosted) prefix sums.
    ///
    /// # Errors
    ///
    /// Propagates invalid-sensitivity errors from the Laplace layer.
    pub fn release(
        &self,
        cumulative: &CumulativeHistogram,
        rng: &mut impl Rng,
    ) -> Result<OrderedRelease, CoreError> {
        let mech = LaplaceMechanism::new(self.epsilon, self.sensitivity)?;
        let mut noisy = cumulative.prefixes().to_vec();
        mech.release_in_place(&mut noisy, rng);
        let final_prefix = if self.constrained_inference {
            if self.nonnegative {
                isotonic_regression_nonneg(&noisy)
            } else {
                isotonic_regression(&noisy)
            }
        } else {
            noisy
        };
        Ok(OrderedRelease {
            prefix: final_prefix,
        })
    }
}

/// Released (noisy) cumulative histogram, answering prefix and range
/// queries.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedRelease {
    prefix: Vec<f64>,
}

impl OrderedRelease {
    /// Noisy prefix count `s̃_{i+1}` (0-based index `i`).
    pub fn prefix(&self, i: usize) -> f64 {
        self.prefix[i]
    }

    /// All noisy prefix counts.
    pub fn prefixes(&self) -> &[f64] {
        &self.prefix
    }

    /// The noisy prefix counts, by value.
    pub fn into_prefixes(self) -> Vec<f64> {
        self.prefix
    }

    /// Noisy range count `q[lo, hi] = s̃_hi − s̃_{lo−1}` (inclusive).
    pub fn range(&self, lo: usize, hi: usize) -> f64 {
        let upper = self.prefix[hi];
        let lower = if lo == 0 { 0.0 } else { self.prefix[lo - 1] };
        upper - lower
    }

    /// Noisy quantile: smallest index whose prefix reaches `q·n`.
    pub fn quantile(&self, q: f64, n: f64) -> usize {
        assert!((0.0..=1.0).contains(&q));
        let target = q * n;
        self.prefix
            .iter()
            .position(|&s| s >= target)
            .unwrap_or(self.prefix.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::Histogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_cumulative(size: usize) -> CumulativeHistogram {
        // Sparse histogram: a few spikes, most zeros (p << |T|).
        let mut counts = vec![0.0; size];
        counts[2] = 40.0;
        counts[size / 2] = 25.0;
        counts[size - 3] = 35.0;
        Histogram::from_counts(counts).cumulative()
    }

    #[test]
    fn release_is_sorted_after_inference() {
        let mut rng = StdRng::seed_from_u64(21);
        let m = OrderedMechanism::with_theta(Epsilon::new(0.2).unwrap(), 4);
        let r = m.release(&sparse_cumulative(64), &mut rng).unwrap();
        assert!(r.prefixes().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn nonnegativity_flag() {
        let mut rng = StdRng::seed_from_u64(22);
        let m = OrderedMechanism::line_graph(Epsilon::new(0.05).unwrap()).with_nonnegativity();
        let r = m.release(&sparse_cumulative(32), &mut rng).unwrap();
        assert!(r.prefixes().iter().all(|&s| s >= 0.0));
        // Non-decreasing and non-negative: every reconstructed count is too.
        assert!((0..32).all(|i| r.range(i, i) >= -1e-9));
    }

    #[test]
    fn range_error_within_theorem_7_1_bound() {
        // Empirical MSE of range queries under the line graph must respect
        // (up to sampling error) the 4/ε² bound — and is independent of
        // |T|.
        let eps = Epsilon::new(0.5).unwrap();
        let bound = 4.0 / (0.5 * 0.5);
        for size in [64usize, 512] {
            let cum = sparse_cumulative(size);
            // Raw mechanism (no inference) matches the analytic bound;
            // inference only helps.
            let m = OrderedMechanism::line_graph(eps).without_inference();
            let mut rng = StdRng::seed_from_u64(size as u64);
            let trials = 3000;
            let mut mse = 0.0;
            let (lo, hi) = (size / 4, 3 * size / 4);
            let truth = cum.range_count(lo, hi).unwrap();
            for _ in 0..trials {
                let r = m.release(&cum, &mut rng).unwrap();
                let e = r.range(lo, hi) - truth;
                mse += e * e;
            }
            mse /= trials as f64;
            assert!(
                mse < bound * 1.1,
                "size {size}: mse {mse} exceeds bound {bound}"
            );
            assert!(mse > bound * 0.3, "mse {mse} suspiciously small");
        }
    }

    #[test]
    fn inference_helps_on_sparse_data() {
        let eps = Epsilon::new(0.1).unwrap();
        let cum = sparse_cumulative(256);
        let with = OrderedMechanism::line_graph(eps);
        let without = with.without_inference();
        let mut rng = StdRng::seed_from_u64(77);
        let trials = 60;
        let mut err_with = 0.0;
        let mut err_without = 0.0;
        for _ in 0..trials {
            let rw = with.release(&cum, &mut rng).unwrap();
            let ro = without.release(&cum, &mut rng).unwrap();
            for i in 0..256 {
                let t = cum.prefix(i);
                err_with += (rw.prefix(i) - t).powi(2);
                err_without += (ro.prefix(i) - t).powi(2);
            }
        }
        assert!(
            err_with < err_without * 0.8,
            "inference should help substantially on sparse data: {err_with} vs {err_without}"
        );
    }

    /// The two claims above at the paper's domain size, where a release
    /// runs the pre-pooling pass of `isotonic_regression` end to end:
    /// inference still buys what it bought, and a range still costs under
    /// Theorem 7.1's `4/ε²` with inference on.
    #[test]
    fn inference_and_the_range_bound_hold_at_65_536_cells() {
        let size = 65_536;
        let eps = Epsilon::new(0.1).unwrap();
        let cum = sparse_cumulative(size);
        let with = OrderedMechanism::line_graph(eps);
        let without = with.without_inference();
        let mut rng = StdRng::seed_from_u64(78);
        let (mut err_with, mut err_without, mut range_se) = (0.0, 0.0, 0.0);
        let (trials, ranges) = (4, 2_000);
        for _ in 0..trials {
            let rw = with.release(&cum, &mut rng).unwrap();
            let ro = without.release(&cum, &mut rng).unwrap();
            for i in 0..size {
                let t = cum.prefix(i);
                err_with += (rw.prefix(i) - t).powi(2);
                err_without += (ro.prefix(i) - t).powi(2);
            }
            for _ in 0..ranges {
                let lo = rng.random_range(0..size);
                let hi = rng.random_range(lo..size);
                range_se += (rw.range(lo, hi) - cum.range_count(lo, hi).unwrap()).powi(2);
            }
        }
        assert!(
            err_with <= 0.8 * err_without,
            "prefix error with inference {err_with} vs raw {err_without}"
        );
        // Without inference one range costs two noisy prefixes,
        // `2 · 2(θ/ε)²`; inference only improves on that.
        let range_mse = range_se / (trials * ranges) as f64;
        let bound = 4.0 * with.scale() * with.scale();
        assert!(
            range_mse < bound,
            "range MSE {range_mse} over the 4/ε² bound {bound}"
        );
    }

    #[test]
    fn policy_calibration() {
        use bf_domain::Domain;
        let p = Policy::distance_threshold(Domain::line(100).unwrap(), 7);
        let m = OrderedMechanism::for_policy(&p, Epsilon::new(1.0).unwrap());
        assert_eq!(m.sensitivity, 7.0);
        assert_eq!(m.scale(), 7.0);
    }

    #[test]
    fn batch_answers_match_single_answers() {
        use crate::range_workload::RangeAnswerer;
        let mut rng = StdRng::seed_from_u64(33);
        let m = OrderedMechanism::line_graph(Epsilon::new(0.5).unwrap());
        let r = m.release(&sparse_cumulative(64), &mut rng).unwrap();
        let ranges = [(0, 5), (10, 20), (63, 63)];
        let batch = r.answer_batch(&ranges);
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            assert_eq!(batch[i], r.range(lo, hi));
        }
    }

    #[test]
    fn quantiles_and_ranges() {
        let r = OrderedRelease {
            prefix: vec![10.0, 10.0, 50.0, 100.0],
        };
        assert_eq!(r.quantile(0.5, 100.0), 2);
        assert_eq!(r.quantile(0.05, 100.0), 0);
        assert_eq!(r.range(2, 3), 90.0);
        assert_eq!(r.range(0, 0), 10.0);
    }
}
