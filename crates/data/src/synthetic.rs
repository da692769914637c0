//! The paper's synthetic k-means dataset (Section 6.1, Figure 1c).
//!
//! "We generate 1000 points from (0,1)⁴ with k randomly chosen centers
//! and a Gaussian noise with σ(0, 0.2) in each direction." This recipe is
//! public, so no substitution is needed — we implement it exactly.

use crate::sample_normal;
use bf_domain::{BoundingBox, PointSet};
use rand::Rng;

/// Generates `n` points in `(0,1)^dim` around `k` uniform random centers
/// with per-axis Gaussian noise `σ`, clamped to the unit cube.
pub fn synthetic_clusters(
    n: usize,
    dim: usize,
    k: usize,
    sigma: f64,
    rng: &mut impl Rng,
) -> PointSet {
    assert!(n >= 1 && dim >= 1 && k >= 1);
    assert!(sigma >= 0.0);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
        .collect();
    let mut coords = Vec::with_capacity(n * dim);
    for i in 0..n {
        for &mu in &centers[i % k] {
            coords.push((mu + sigma * sample_normal(rng)).clamp(0.0, 1.0));
        }
    }
    let bbox = BoundingBox::new(vec![0.0; dim], vec![1.0; dim]);
    PointSet::from_flat(dim, coords, bbox)
}

/// The exact Figure 1(c) configuration: n = 1000, dim = 4, k = 4, σ = 0.2.
pub fn paper_synthetic(rng: &mut impl Rng) -> PointSet {
    synthetic_clusters(1000, 4, 4, 0.2, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn paper_configuration() {
        let mut rng = seeded_rng(41);
        let ps = paper_synthetic(&mut rng);
        assert_eq!(ps.len(), 1000);
        assert_eq!(ps.dim(), 4);
        assert_eq!(ps.bbox().l1_diameter(), 4.0);
        for p in ps.iter() {
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn row_major_points_equal_point_set_new() {
        let (n, dim, k, sigma) = (1_000, 4, 4, 0.2);
        let mut rng = seeded_rng(44);
        let centers: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
            .collect();
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                centers[i % k]
                    .iter()
                    .map(|&mu| (mu + sigma * sample_normal(&mut rng)).clamp(0.0, 1.0))
                    .collect()
            })
            .collect();
        let bbox = BoundingBox::new(vec![0.0; dim], vec![1.0; dim]);
        let expected = PointSet::new(points, bbox);
        let got = synthetic_clusters(n, dim, k, sigma, &mut seeded_rng(44));
        assert_eq!(got.len(), n);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for i in 0..n {
            assert_eq!(bits(got.point(i)), bits(expected.point(i)), "point {i}");
        }
    }

    #[test]
    fn clusters_are_balanced() {
        let mut rng = seeded_rng(42);
        let ps = synthetic_clusters(400, 2, 4, 0.01, &mut rng);
        // With tiny sigma, points sit near 4 centers with 100 points each;
        // round-robin assignment guarantees balance.
        assert_eq!(ps.len(), 400);
    }

    #[test]
    fn zero_sigma_hits_centers_exactly() {
        let mut rng = seeded_rng(43);
        let ps = synthetic_clusters(8, 3, 2, 0.0, &mut rng);
        // Points alternate between exactly two locations.
        let a = ps.point(0).to_vec();
        let b = ps.point(1).to_vec();
        for i in 0..8 {
            let expect = if i % 2 == 0 { &a } else { &b };
            assert_eq!(ps.point(i), expect.as_slice());
        }
    }
}
