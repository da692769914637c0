//! Non-private Lloyd iteration — the utility reference point for Figure 1.

use super::{accumulate, flatten};
use bf_domain::PointSet;

/// Runs `iterations` Lloyd updates from the given initial centroids and
/// returns the final centroids.
///
/// Empty clusters keep their previous centroid (the same convention the
/// private variant uses, so the two runs are directly comparable).
pub fn lloyd_kmeans(points: &PointSet, initial: &[Vec<f64>], iterations: usize) -> Vec<Vec<f64>> {
    let dim = points.dim();
    let mut centroids = flatten(initial, dim);
    let mut counts = vec![0.0; initial.len()];
    let mut sums = vec![0.0; centroids.len()];
    for _ in 0..iterations {
        accumulate(points, &centroids, &mut counts, &mut sums);
        for (j, &count) in counts.iter().enumerate() {
            if count > 0.0 {
                for (c, s) in centroids[j * dim..][..dim].iter_mut().zip(&sums[j * dim..]) {
                    *c = s / count;
                }
            }
        }
    }
    centroids.chunks_exact(dim).map(<[f64]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::objective;
    use bf_domain::BoundingBox;

    fn two_blobs() -> PointSet {
        let bbox = BoundingBox::new(vec![0.0], vec![10.0]);
        PointSet::new(
            vec![
                vec![0.0],
                vec![1.0],
                vec![2.0],
                vec![8.0],
                vec![9.0],
                vec![10.0],
            ],
            bbox,
        )
    }

    #[test]
    fn converges_to_blob_means() {
        let pts = two_blobs();
        let cents = lloyd_kmeans(&pts, &[vec![0.5], vec![9.5]], 10);
        let mut sorted: Vec<f64> = cents.iter().map(|c| c[0]).collect();
        sorted.sort_by(f64::total_cmp);
        assert!((sorted[0] - 1.0).abs() < 1e-9);
        assert!((sorted[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn objective_non_increasing() {
        let pts = two_blobs();
        let init = vec![vec![0.0], vec![3.0]];
        let mut prev = objective(&pts, &init);
        let mut cents = init;
        for _ in 0..5 {
            cents = lloyd_kmeans(&pts, &cents, 1);
            let obj = objective(&pts, &cents);
            assert!(obj <= prev + 1e-9);
            prev = obj;
        }
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        let pts = two_blobs();
        // A far-away centroid attracts nothing and must stay put.
        let cents = lloyd_kmeans(&pts, &[vec![5.0], vec![10_000.0]], 3);
        assert!((cents[1][0] - 10_000.0).abs() < 1e-9);
    }
}
