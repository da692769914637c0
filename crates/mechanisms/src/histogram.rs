//! Laplace histogram release (Theorem 5.1, Sections 5 and 8).

use bf_core::sensitivity::histogram_sensitivity;
use bf_core::{CoreError, Epsilon, LaplaceMechanism, Policy};
use bf_domain::{Dataset, Histogram};
use rand::Rng;

/// Releases a complete histogram with Laplace noise calibrated to a
/// (policy-specific) sensitivity.
///
/// * Unconstrained policies: sensitivity 2 (same as differential privacy)
///   via [`HistogramMechanism::for_policy`].
/// * Constrained policies: pass the Section 8 sensitivity (e.g. a
///   `PolicyGraph::sensitivity_bound()` or a Theorem 8.4–8.6 closed form)
///   via [`HistogramMechanism::with_sensitivity`].
#[derive(Debug, Clone, Copy)]
pub struct HistogramMechanism {
    mechanism: LaplaceMechanism,
}

impl HistogramMechanism {
    /// Calibrates to the closed-form unconstrained sensitivity of the
    /// policy's secret graph.
    ///
    /// # Errors
    ///
    /// Propagates invalid-sensitivity errors (cannot occur for the closed
    /// forms, which are 0 or 2).
    pub fn for_policy(policy: &Policy, epsilon: Epsilon) -> Result<Self, CoreError> {
        let s = histogram_sensitivity(policy);
        Ok(Self {
            mechanism: LaplaceMechanism::new(epsilon, s)?,
        })
    }

    /// Calibrates to an explicitly supplied sensitivity (the constrained
    /// case).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSensitivity`] for negative or non-finite input.
    pub fn with_sensitivity(epsilon: Epsilon, sensitivity: f64) -> Result<Self, CoreError> {
        Ok(Self {
            mechanism: LaplaceMechanism::new(epsilon, sensitivity)?,
        })
    }

    /// The noise scale in use.
    pub fn scale(&self) -> f64 {
        self.mechanism.scale()
    }

    /// Releases the noisy complete histogram.
    pub fn release(&self, dataset: &Dataset, rng: &mut impl Rng) -> Histogram {
        let mut h = dataset.histogram();
        self.mechanism.release_in_place(h.counts_mut(), rng);
        h
    }

    /// Releases noisy counts for an arbitrary pre-computed histogram
    /// (useful when the caller already aggregated).
    pub fn release_counts(&self, counts: &[f64], rng: &mut impl Rng) -> Vec<f64> {
        self.mechanism.release(counts, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::Domain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        let d = Domain::line(8).unwrap();
        Dataset::from_rows(d, vec![0, 0, 1, 5, 7, 7, 7]).unwrap()
    }

    #[test]
    fn release_is_unbiased() {
        let p = Policy::differential_privacy(Domain::line(8).unwrap());
        let m = HistogramMechanism::for_policy(&p, Epsilon::new(1.0).unwrap()).unwrap();
        let ds = dataset();
        let truth = ds.histogram();
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 3000;
        let mut acc = [0.0; 8];
        for _ in 0..trials {
            let h = m.release(&ds, &mut rng);
            for (a, &c) in acc.iter_mut().zip(h.counts()) {
                *a += c;
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let mean = a / trials as f64;
            assert!(
                (mean - truth.count(i)).abs() < 0.3,
                "cell {i}: mean {mean} vs {}",
                truth.count(i)
            );
        }
    }

    #[test]
    fn zero_sensitivity_partition_policy_is_exact() {
        use bf_domain::Partition;
        let d = Domain::line(8).unwrap();
        let p = Policy::partitioned(d, Partition::singletons(8));
        let m = HistogramMechanism::for_policy(&p, Epsilon::new(1.0).unwrap()).unwrap();
        let ds = dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let h = m.release(&ds, &mut rng);
        assert_eq!(h, ds.histogram());
    }

    #[test]
    fn constrained_sensitivity_scales_noise() {
        let eps = Epsilon::new(1.0).unwrap();
        let m = HistogramMechanism::with_sensitivity(eps, 8.0).unwrap();
        assert_eq!(m.scale(), 8.0);
        assert!(HistogramMechanism::with_sensitivity(eps, -2.0).is_err());
    }
}
