//! SuLQ-style private k-means (Section 6), calibrated to a Blowfish
//! policy via [`KmeansSecretSpec`].

use super::sensitivity::KmeansSecretSpec;
use super::{accumulate, flatten};
use bf_core::{sample_laplace, Epsilon};
use bf_domain::PointSet;
use rand::Rng;

/// Private k-means configuration.
///
/// # Examples
///
/// ```
/// use bf_core::Epsilon;
/// use bf_domain::{BoundingBox, PointSet};
/// use bf_mechanisms::kmeans::{init_random, KmeansSecretSpec, PrivateKmeans};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let points = PointSet::new(
///     vec![vec![1.0, 1.0], vec![1.5, 1.0], vec![9.0, 9.0], vec![8.5, 9.0]],
///     BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]),
/// );
/// let mut rng = StdRng::seed_from_u64(1);
/// let init = init_random(&points, 2, &mut rng);
/// let mech = PrivateKmeans::new(
///     2,
///     5,
///     Epsilon::new(1.0).unwrap(),
///     KmeansSecretSpec::L1Threshold(2.0), // "cannot locate me within 2 units"
/// );
/// let centroids = mech.run(&points, &init, &mut rng);
/// assert_eq!(centroids.len(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PrivateKmeans {
    /// Number of clusters `k`.
    pub k: usize,
    /// Fixed number of Lloyd iterations (the paper uses 10).
    pub iterations: usize,
    /// Total privacy budget, split uniformly across iterations and then
    /// evenly between `q_size` and `q_sum` within each iteration.
    pub epsilon: Epsilon,
    /// The sensitive-information specification.
    pub spec: KmeansSecretSpec,
}

impl PrivateKmeans {
    /// Builds a configuration.
    pub fn new(k: usize, iterations: usize, epsilon: Epsilon, spec: KmeansSecretSpec) -> Self {
        assert!(k >= 1 && iterations >= 1);
        Self {
            k,
            iterations,
            epsilon,
            spec,
        }
    }

    /// Runs private k-means from the given initial centroids, returning
    /// the final centroids. `initial` must not depend on `points` (draw it
    /// with [`init_random`](super::init_random), which reads only the box):
    /// a centroid no noisy count moves is released as it started.
    ///
    /// Per iteration: noisy sizes `ñ_j = |S_j| + Lap(S_size/ε')` and noisy
    /// sums `Σ̃_j = Σ_j + Lap(S_sum/ε')` per coordinate, with
    /// `ε' = ε / (2·iterations)`; the centroid update is `Σ̃_j / ñ_j`,
    /// clamped into the domain bounding box. Clusters with noisy size
    /// below 1 keep their previous centroid.
    pub fn run(
        &self,
        points: &PointSet,
        initial: &[Vec<f64>],
        rng: &mut impl Rng,
    ) -> Vec<Vec<f64>> {
        assert_eq!(
            initial.len(),
            self.k,
            "need one initial centroid per cluster"
        );
        let dim = points.dim();
        let per_query_eps = self.epsilon.value() / (2.0 * self.iterations as f64);
        let size_scale = self.spec.qsize_sensitivity() / per_query_eps;
        let sum_scale = self.spec.qsum_sensitivity(points.bbox()) / per_query_eps;

        let mut centroids = flatten(initial, dim);
        let mut counts = vec![0.0; self.k];
        let mut sums = vec![0.0; centroids.len()];
        for _ in 0..self.iterations {
            accumulate(points, &centroids, &mut counts, &mut sums);
            for (j, &count) in counts.iter().enumerate() {
                let noisy_count = count + sample_laplace(rng, size_scale);
                if noisy_count < 1.0 {
                    continue; // keep the previous centroid
                }
                let centroid = &mut centroids[j * dim..][..dim];
                for (c, s) in centroid.iter_mut().zip(&sums[j * dim..]) {
                    *c = (s + sample_laplace(rng, sum_scale)) / noisy_count;
                }
                points.bbox().clamp(centroid);
            }
        }
        centroids.chunks_exact(dim).map(<[f64]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{init_random, objective};
    use bf_domain::BoundingBox;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl PrivateKmeans {
        /// Runs the mechanism and reports the objective ratio against a
        /// non-private Lloyd run from the same initialization — the
        /// quantity plotted in Figure 1.
        fn objective_ratio(
            &self,
            points: &PointSet,
            initial: &[Vec<f64>],
            rng: &mut impl Rng,
        ) -> f64 {
            let private = self.run(points, initial, rng);
            let baseline = crate::kmeans::lloyd::lloyd_kmeans(points, initial, self.iterations);
            objective(points, &private) / objective(points, &baseline)
        }
    }

    fn blobs(n_per: usize, rng: &mut impl Rng) -> PointSet {
        let centers = [[2.0, 2.0], [8.0, 8.0], [2.0, 8.0], [8.0, 2.0]];
        let mut pts = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                let dx: f64 = rng.random::<f64>() - 0.5;
                let dy: f64 = rng.random::<f64>() - 0.5;
                pts.push(vec![
                    (c[0] + dx).clamp(0.0, 10.0),
                    (c[1] + dy).clamp(0.0, 10.0),
                ]);
            }
        }
        PointSet::new(pts, BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]))
    }

    #[test]
    fn exact_spec_reproduces_lloyd() {
        let mut rng = StdRng::seed_from_u64(8);
        let pts = blobs(50, &mut rng);
        let init = init_random(&pts, 4, &mut rng);
        let m = PrivateKmeans::new(4, 5, Epsilon::new(1.0).unwrap(), KmeansSecretSpec::Exact);
        let ratio = m.objective_ratio(&pts, &init, &mut rng);
        assert!((ratio - 1.0).abs() < 1e-9, "exact spec must match Lloyd");
    }

    #[test]
    fn centroids_stay_in_bbox() {
        let mut rng = StdRng::seed_from_u64(9);
        let pts = blobs(30, &mut rng);
        let init = init_random(&pts, 4, &mut rng);
        let m = PrivateKmeans::new(4, 10, Epsilon::new(0.1).unwrap(), KmeansSecretSpec::Full);
        let cents = m.run(&pts, &init, &mut rng);
        for c in cents {
            assert!(pts.bbox().contains(&c), "centroid {c:?} escaped the box");
        }
    }

    #[test]
    fn smaller_theta_gives_lower_error_on_average() {
        // The Figure 1 trend: tighter policies → less noise → lower
        // objective ratio, at least in aggregate.
        let mut rng = StdRng::seed_from_u64(10);
        let pts = blobs(100, &mut rng);
        let eps = Epsilon::new(0.4).unwrap();
        let trials = 12;
        let mut ratio_full = 0.0;
        let mut ratio_tight = 0.0;
        for t in 0..trials {
            let mut trial_rng = StdRng::seed_from_u64(100 + t);
            let init = init_random(&pts, 4, &mut trial_rng);
            let full = PrivateKmeans::new(4, 10, eps, KmeansSecretSpec::Full);
            let tight = PrivateKmeans::new(4, 10, eps, KmeansSecretSpec::L1Threshold(0.5));
            ratio_full += full.objective_ratio(&pts, &init, &mut trial_rng);
            ratio_tight += tight.objective_ratio(&pts, &init, &mut trial_rng);
        }
        assert!(
            ratio_tight < ratio_full,
            "tight {ratio_tight} should beat full {ratio_full}"
        );
    }
}
