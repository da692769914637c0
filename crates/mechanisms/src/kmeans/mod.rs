//! K-means clustering under Blowfish policies (Section 6).
//!
//! The private algorithm is SuLQ k-means (Blum et al. \[2\]): each Lloyd
//! iteration asks two queries — cluster sizes `q_size` and per-cluster
//! coordinate sums `q_sum` — and perturbs both with Laplace noise. Under
//! differential privacy `q_sum` has sensitivity `2·d(T)` (the domain's L1
//! diameter); under Blowfish policies it shrinks to the largest secret
//! edge length (Lemma 6.1), which is where the accuracy gains of Figure 1
//! come from.

pub mod lloyd;
pub mod private;
pub mod sensitivity;

pub use lloyd::lloyd_kmeans;
pub use private::PrivateKmeans;
pub use sensitivity::KmeansSecretSpec;

use bf_domain::PointSet;
use rand::seq::index::sample;
use rand::Rng;

/// Index of the nearest centroid to a point (L2).
pub fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (j, c) in centroids.iter().enumerate() {
        let d = PointSet::sq_l2(point, c);
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    best
}

/// Points below which [`assign`] stays sequential.
const PAR_ASSIGN_MIN_POINTS: usize = 65_536;

/// Assigns every point to its nearest centroid. Large point sets are
/// split into chunks assigned in parallel across the available cores
/// (the Lloyd assignment step is the `O(n·k·d)` bulk of each private and
/// non-private iteration); the result is identical to the sequential
/// pass since assignment is pure per-point arithmetic.
///
/// Each parallel call spawns and joins scoped OS threads, which at
/// `k = 4, d = 4` on 2 cores measured (chunked vs sequential map, µs):
/// 4 096 points 146 vs 64, 20 000 points 319–456 vs 314, 65 536 points
/// 772–1 250 vs 1 056, 131 072 points 1 414–2 380 vs 2 126 — the low
/// ends with the second core idle, the high ends with it busy. The
/// chunked path breaks even past 20 000 points at best, so it starts at
/// 65 536.
pub fn assign(points: &PointSet, centroids: &[Vec<f64>]) -> Vec<usize> {
    let n = points.len();
    let workers = rayon::current_num_threads();
    if n < PAR_ASSIGN_MIN_POINTS || workers <= 1 {
        return points
            .iter()
            .map(|p| nearest_centroid(p, centroids))
            .collect();
    }
    // 4 chunks per worker keeps stragglers short without paying per-point
    // scheduling overhead.
    let chunk = n.div_ceil(workers * 4).max(1);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect();
    rayon::par_map(&ranges, |&(lo, hi)| {
        (lo..hi)
            .map(|i| nearest_centroid(points.point(i), centroids))
            .collect::<Vec<usize>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The k-means objective (Definition 6.1): total squared L2 distance from
/// each point to its nearest centroid.
pub fn objective(points: &PointSet, centroids: &[Vec<f64>]) -> f64 {
    points
        .iter()
        .map(|p| PointSet::sq_l2(p, &centroids[nearest_centroid(p, centroids)]))
        .sum()
}

/// Samples `k` distinct data points as initial centroids (the common
/// "random" initialization both the private and non-private runs share so
/// that error ratios isolate the noise effect).
pub fn init_random(points: &PointSet, k: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
    assert!(k >= 1 && k <= points.len(), "need 1 ≤ k ≤ n");
    sample(rng, points.len(), k)
        .into_iter()
        .map(|i| points.point(i).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::BoundingBox;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn square_points() -> PointSet {
        let bbox = BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]);
        PointSet::new(
            vec![
                vec![1.0, 1.0],
                vec![1.0, 2.0],
                vec![9.0, 9.0],
                vec![9.0, 8.0],
            ],
            bbox,
        )
    }

    #[test]
    fn nearest_and_assign() {
        let pts = square_points();
        let cents = vec![vec![1.0, 1.5], vec![9.0, 8.5]];
        assert_eq!(assign(&pts, &cents), vec![0, 0, 1, 1]);
        assert_eq!(nearest_centroid(&[0.0, 0.0], &cents), 0);
    }

    #[test]
    fn objective_value() {
        let pts = square_points();
        let cents = vec![vec![1.0, 1.5], vec![9.0, 8.5]];
        // Each point is 0.5 away in one coordinate: 4 * 0.25.
        assert!((objective(&pts, &cents) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_assignment_matches_sequential() {
        // Past the parallel threshold, the chunked assignment must be
        // bit-identical to the sequential map.
        let n = PAR_ASSIGN_MIN_POINTS + 513;
        let bbox = BoundingBox::new(vec![0.0, 0.0], vec![100.0, 100.0]);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 100) as f64, ((i * 7) % 100) as f64])
            .collect();
        let points = PointSet::new(pts, bbox);
        let cents = vec![vec![10.0, 10.0], vec![50.0, 50.0], vec![90.0, 20.0]];
        let expect: Vec<usize> = points.iter().map(|p| nearest_centroid(p, &cents)).collect();
        assert_eq!(assign(&points, &cents), expect);
    }

    #[test]
    fn init_yields_distinct_indices() {
        let pts = square_points();
        let mut rng = StdRng::seed_from_u64(3);
        let cents = init_random(&pts, 3, &mut rng);
        assert_eq!(cents.len(), 3);
        for c in &cents {
            assert_eq!(c.len(), 2);
        }
    }
}
