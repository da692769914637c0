//! K-means clustering under Blowfish policies (Section 6).
//!
//! The private algorithm is SuLQ k-means (Blum et al. \[2\]): each Lloyd
//! iteration asks two queries — cluster sizes `q_size` and per-cluster
//! coordinate sums `q_sum` — and perturbs both with Laplace noise. Under
//! differential privacy `q_sum` has sensitivity `2·d(T)` (the domain's L1
//! diameter); under Blowfish policies it shrinks to the largest secret
//! edge length (Lemma 6.1), which is where the accuracy gains of Figure 1
//! come from.
//!
//! Both variants share one data pass per iteration, `accumulate`: the
//! centroids of a run live in one row-major `k·d` slice and each point is
//! assigned and added to its cluster's count and sum in the same visit.
//! It is bit-identical to the two-pass form it replaced (label every
//! point, then accumulate): distances are `Σ (x−y)²` left to right, the
//! lowest index wins a tie, and sums grow in point order. It is
//! sequential on purpose. At `k = 4, d = 4` on 2 cores a whole iteration
//! takes 552 µs for 65 536 points and 1 116 µs for 131 072, under the
//! best the chunked scoped-thread *assignment* it replaced ever measured
//! (772 and 1 414 µs, second core idle): no size is left where threads win.

pub mod lloyd;
pub mod private;
pub mod sensitivity;

pub use lloyd::lloyd_kmeans;
pub use private::PrivateKmeans;
pub use sensitivity::KmeansSecretSpec;

use bf_domain::PointSet;
use rand::Rng;

/// Index of the nearest centroid to a point (L2).
pub(crate) fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> usize {
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

/// Row-major `k·d` copy of the centroids, each checked to be `d` long.
fn flatten(centroids: &[Vec<f64>], d: usize) -> Vec<f64> {
    for c in centroids {
        assert_eq!(c.len(), d, "centroid dimensionality mismatch");
    }
    centroids.concat()
}

/// The data pass of one Lloyd iteration: `counts[j]` and
/// `sums[j·d..(j+1)·d]` become the size and coordinate sum of the points
/// nearest to row `j` of the flat `centroids` (strict `<`: the lowest
/// index wins a tie and a NaN distance never wins). Counts are `f64`,
/// exact below 2⁵³ points, because that is what the private run perturbs.
fn accumulate(points: &PointSet, centroids: &[f64], counts: &mut [f64], sums: &mut [f64]) {
    counts.fill(0.0);
    sums.fill(0.0);
    // One body; the literal arms hand the compiler the paper's three data
    // shapes (twitter 2, skin 3, synthetic 4) as constants.
    match points.dim() {
        2 => accumulate_d(points, 2, centroids, counts, sums),
        3 => accumulate_d(points, 3, centroids, counts, sums),
        4 => accumulate_d(points, 4, centroids, counts, sums),
        d => accumulate_d(points, d, centroids, counts, sums),
    }
}

#[inline(always)]
fn accumulate_d(points: &PointSet, d: usize, cents: &[f64], counts: &mut [f64], sums: &mut [f64]) {
    for p in points.iter() {
        let p = &p[..d];
        let (mut best, mut best_dist) = (0, f64::INFINITY);
        for (j, c) in cents.chunks_exact(d).enumerate() {
            let dist = PointSet::sq_l2(p, c);
            if dist < best_dist {
                (best, best_dist) = (j, dist);
            }
        }
        counts[best] += 1.0;
        for (s, x) in sums[best * d..][..d].iter_mut().zip(p) {
            *s += x;
        }
    }
}

/// The k-means objective (Definition 6.1): total squared L2 distance from
/// each point to its nearest centroid.
pub fn objective(points: &PointSet, centroids: &[Vec<f64>]) -> f64 {
    points
        .iter()
        .map(|p| PointSet::sq_l2(p, &centroids[nearest_centroid(p, centroids)]))
        .sum()
}

/// Draws `k` initial centroids uniformly from the point set's box, the
/// start both the private and non-private runs share so that error ratios
/// isolate the noise effect. It reads only the box, `k` and `rng`, never a
/// point: SuLQ k-means needs a public start. Each coordinate is
/// `lo·(1−u) + hi·u`, clamped, finite even where `hi − lo` overflows.
pub fn init_random(points: &PointSet, k: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
    assert!(k >= 1 && k <= points.len(), "need 1 ≤ k ≤ n");
    let bbox = points.bbox();
    let mut centroids = vec![bbox.lo.clone(); k];
    for c in &mut centroids {
        for (x, hi) in c.iter_mut().zip(&bbox.hi) {
            let u: f64 = rng.random();
            *x = *x * (1.0 - u) + hi * u;
        }
        bbox.clamp(c);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::BoundingBox;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
    fn nearest_and_accumulate() {
        let pts = square_points();
        let cents = vec![vec![1.0, 1.5], vec![9.0, 8.5]];
        let (mut counts, mut sums) = (vec![f64::NAN; 2], vec![f64::NAN; 4]);
        accumulate(&pts, &flatten(&cents, 2), &mut counts, &mut sums);
        assert_eq!(counts, [2.0, 2.0]);
        assert_eq!(sums, [2.0, 3.0, 18.0, 17.0]);
        assert_eq!(nearest_centroid(&[0.0, 0.0], &cents), 0);
    }

    #[test]
    fn objective_value() {
        let pts = square_points();
        let cents = vec![vec![1.0, 1.5], vec![9.0, 8.5]];
        // Each point is 0.5 away in one coordinate: 4 * 0.25.
        assert!((objective(&pts, &cents) - 1.0).abs() < 1e-12);
    }

    /// The two-pass Lloyd step this module used before the fused pass —
    /// label every point, then walk the points again to rebuild counts and
    /// sums — kept as the oracle the kernel must match bit for bit.
    mod oracle {
        use super::super::nearest_centroid;
        use crate::kmeans::PrivateKmeans;
        use bf_core::sample_laplace;
        use bf_domain::PointSet;
        use rand::Rng;

        fn assign(points: &PointSet, centroids: &[Vec<f64>]) -> Vec<usize> {
            points
                .iter()
                .map(|p| nearest_centroid(p, centroids))
                .collect()
        }

        pub fn lloyd_kmeans(
            points: &PointSet,
            initial: &[Vec<f64>],
            iterations: usize,
        ) -> Vec<Vec<f64>> {
            let k = initial.len();
            let dim = points.dim();
            let mut centroids: Vec<Vec<f64>> = initial.to_vec();
            for _ in 0..iterations {
                let labels = assign(points, &centroids);
                let mut sums = vec![vec![0.0; dim]; k];
                let mut counts = vec![0usize; k];
                for (p, &j) in points.iter().zip(&labels) {
                    counts[j] += 1;
                    for (s, &v) in sums[j].iter_mut().zip(p) {
                        *s += v;
                    }
                }
                for j in 0..k {
                    if counts[j] > 0 {
                        for (c, s) in centroids[j].iter_mut().zip(&sums[j]) {
                            *c = s / counts[j] as f64;
                        }
                    }
                }
            }
            centroids
        }

        pub fn run(
            mech: &PrivateKmeans,
            points: &PointSet,
            initial: &[Vec<f64>],
            rng: &mut impl Rng,
        ) -> Vec<Vec<f64>> {
            let dim = points.dim();
            let bbox = points.bbox().clone();
            let per_query_eps = mech.epsilon.value() / (2.0 * mech.iterations as f64);
            let size_scale = mech.spec.qsize_sensitivity() / per_query_eps;
            let sum_scale = mech.spec.qsum_sensitivity(&bbox) / per_query_eps;

            let mut centroids = initial.to_vec();
            for _ in 0..mech.iterations {
                let labels = assign(points, &centroids);
                let mut sums = vec![vec![0.0; dim]; mech.k];
                let mut counts = vec![0.0f64; mech.k];
                for (p, &j) in points.iter().zip(&labels) {
                    counts[j] += 1.0;
                    for (s, &v) in sums[j].iter_mut().zip(p) {
                        *s += v;
                    }
                }
                for j in 0..mech.k {
                    let noisy_count = counts[j] + sample_laplace(rng, size_scale);
                    if noisy_count < 1.0 {
                        continue; // keep the previous centroid
                    }
                    let mut new_c = Vec::with_capacity(dim);
                    for s in &sums[j] {
                        new_c.push((s + sample_laplace(rng, sum_scale)) / noisy_count);
                    }
                    bbox.clamp(&mut new_c);
                    centroids[j] = new_c;
                }
            }
            centroids
        }
    }

    fn bits(centroids: &[Vec<f64>]) -> Vec<Vec<u64>> {
        centroids
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `n` points on the integer lattice `{0..=4}^d`: few distinct values,
    /// so equal points and exact distance ties occur (and duplicate
    /// initial centroids, when the start is picked from the points).
    fn lattice_points(n: usize, d: usize, rng: &mut StdRng) -> PointSet {
        let coords = (0..n * d)
            .map(|_| rng.random_range(0..5u32) as f64)
            .collect();
        PointSet::from_flat(d, coords, BoundingBox::new(vec![0.0; d], vec![4.0; d]))
    }

    #[test]
    fn fused_pass_is_bit_identical_to_the_two_pass_oracle() {
        // d = 2, 3, 4 take the literal arms, 1, 5, 6 the runtime-`d` arm.
        let eps = bf_core::Epsilon::new(1.0).unwrap();
        let specs = [
            KmeansSecretSpec::Full,
            KmeansSecretSpec::L1Threshold(1.5),
            KmeansSecretSpec::Exact,
        ];
        let mut seed = 0;
        for d in 1..=6 {
            for k in [1, 2, 3, 4, 7] {
                for n in [7, 100, 5_000] {
                    seed += 1;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let points = lattice_points(n, d, &mut rng);
                    // A start picked from the lattice points, with
                    // repeats: `init_random`'s box draws almost never tie.
                    let init: Vec<Vec<f64>> = (0..k)
                        .map(|_| points.point(rng.random_range(0..n)).to_vec())
                        .collect();
                    let case = format!("d={d} k={k} n={n}");
                    assert_eq!(
                        bits(&lloyd_kmeans(&points, &init, 4)),
                        bits(&oracle::lloyd_kmeans(&points, &init, 4)),
                        "lloyd {case}"
                    );
                    for spec in specs {
                        let mech = PrivateKmeans::new(k, 4, eps, spec);
                        let (mut r1, mut r2) = (rng.clone(), rng.clone());
                        assert_eq!(
                            bits(&mech.run(&points, &init, &mut r1)),
                            bits(&oracle::run(&mech, &points, &init, &mut r2)),
                            "{spec:?} {case}"
                        );
                        // Same draws in the same order: the generators agree after.
                        assert_eq!(r1.next_u64(), r2.next_u64(), "{spec:?} {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn tie_goes_to_the_lowest_index_and_nan_never_wins() {
        // (1, 1) is equidistant from rows 1 and 2; row 0 is NaN.
        let pts = PointSet::new(
            vec![vec![1.0, 1.0]],
            BoundingBox::new(vec![0.0, 0.0], vec![2.0, 2.0]),
        );
        let cents = [f64::NAN, 1.0, 0.0, 1.0, 2.0, 1.0];
        let (mut counts, mut sums) = (vec![0.0; 3], vec![0.0; 6]);
        accumulate(&pts, &cents, &mut counts, &mut sums);
        assert_eq!(counts, [0.0, 1.0, 0.0]);
        assert_eq!(sums, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_cluster_keeps_its_centroid_and_still_consumes_its_size_draw() {
        // ε is large enough that no size draw reaches 1, so the far-away
        // cluster 1 stays empty in the noisy view too.
        let pts = square_points();
        let init = vec![vec![5.0, 5.0], vec![10.0, 0.0]];
        let eps = bf_core::Epsilon::new(1e6).unwrap();
        let mech = PrivateKmeans::new(2, 1, eps, KmeansSecretSpec::Full);
        let mut rng = StdRng::seed_from_u64(21);
        let mut expect = rng.clone();
        let cents = mech.run(&pts, &init, &mut rng);
        assert_eq!(cents[1], init[1]);
        assert!((cents[0][0] - 5.0).abs() < 1e-3 && (cents[0][1] - 5.0).abs() < 1e-3);
        // Cluster 0: its size draw and two sum draws; cluster 1: its size
        // draw only.
        let (size_scale, sum_scale) = (2.0 / 5e5, 40.0 / 5e5);
        for scale in [size_scale, sum_scale, sum_scale, size_scale] {
            bf_core::sample_laplace(&mut expect, scale);
        }
        assert_eq!(rng.next_u64(), expect.next_u64());
    }

    #[test]
    #[should_panic(expected = "centroid dimensionality mismatch")]
    fn run_refuses_a_centroid_of_the_wrong_length() {
        let mech = PrivateKmeans::new(
            2,
            1,
            bf_core::Epsilon::new(1.0).unwrap(),
            KmeansSecretSpec::Full,
        );
        let init = vec![vec![1.0, 1.0], vec![9.0]];
        mech.run(&square_points(), &init, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn init_reads_the_box_and_never_the_points() {
        // Two point sets that share a box: one seed gives one start.
        let far = PointSet::new(
            vec![vec![0.5, 9.5], vec![7.0, 3.0], vec![4.0, 4.0]],
            square_points().bbox().clone(),
        );
        let draw = |pts: &PointSet| init_random(pts, 3, &mut StdRng::seed_from_u64(3));
        let cents = draw(&square_points());
        assert_eq!(bits(&cents), bits(&draw(&far)));
        assert!(cents.iter().all(|c| c.len() == 2 && far.bbox().contains(c)));
        // A box whose extent overflows still yields finite centroids.
        let huge = PointSet::new(
            vec![vec![0.0, 0.0]],
            BoundingBox::new(vec![-1e308; 2], vec![1e308; 2]),
        );
        let cents = init_random(&huge, 1, &mut StdRng::seed_from_u64(3));
        assert!(cents[0].iter().all(|v| v.is_finite()), "{cents:?}");
    }
}
