//! Isotonic regression via pool-adjacent-violators (PAVA).
//!
//! The Ordered Mechanism boosts the accuracy of noisy cumulative counts by
//! *constrained inference*: projecting the noisy sequence onto the cone of
//! non-decreasing sequences in least squares (Hay et al. \[9\] show the
//! projection is the minimum-L2 consistent estimate and that its error
//! collapses to `O(p log³|T|/ε²)` where `p` is the number of distinct
//! values). PAVA computes the exact projection in `O(|T|)`.

/// Returns the least-squares projection of `values` onto non-decreasing
/// sequences (unit weights).
pub fn isotonic_regression(values: &[f64]) -> Vec<f64> {
    isotonic_regression_weighted(values, None)
}

/// Weighted isotonic regression: minimizes `Σ w_i (z_i − v_i)²` subject to
/// `z_1 ≤ z_2 ≤ … ≤ z_n`. `None` weights mean uniform.
///
/// # Panics
///
/// Panics when `weights` is provided with a different length than
/// `values`, or contains non-positive entries.
pub fn isotonic_regression_weighted(values: &[f64], weights: Option<&[f64]>) -> Vec<f64> {
    match weights {
        None => pool_adjacent_violators(values.iter().map(|&v| (v, 1.0))),
        Some(w) => {
            assert_eq!(w.len(), values.len(), "one weight per value");
            assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
            pool_adjacent_violators(values.iter().zip(w).map(|(&v, &w)| (w * v, w)))
        }
    }
}

/// A maximal run of cells pooled to one value, kept as sums so that
/// pooling two blocks is three additions.
struct Block {
    /// `Σ w_i·v_i` over the run.
    sum: f64,
    /// `Σ w_i` over the run (positive).
    weight: f64,
    cells: usize,
}

/// PAVA over `(w·v, w)` cells on one stack of [`Block`]s. Two blocks
/// violate the ordering when `sum_a/weight_a > sum_b/weight_b`; weights
/// are positive, so that is `sum_a·weight_b > sum_b·weight_a` and the
/// pooling loop never divides. A NaN compares false and pools, so
/// non-finite input neither panics nor loops.
fn pool_adjacent_violators(cells: impl ExactSizeIterator<Item = (f64, f64)>) -> Vec<f64> {
    let n = cells.len();
    let mut blocks: Vec<Block> = Vec::new();
    for (sum, weight) in cells {
        let mut top = Block {
            sum,
            weight,
            cells: 1,
        };
        while let Some(below) = blocks.last() {
            if below.sum * top.weight <= top.sum * below.weight {
                break;
            }
            top.sum += below.sum;
            top.weight += below.weight;
            top.cells += below.cells;
            blocks.pop();
        }
        blocks.push(top);
    }
    let mut out = Vec::with_capacity(n);
    let mut floor = f64::NEG_INFINITY;
    for block in &blocks {
        // One division per surviving block. Two quotients can invert by
        // an ulp where their cross-products did not, and the output must
        // be non-decreasing exactly, hence the floor.
        let mean = block.sum / block.weight;
        floor = if mean < floor { floor } else { mean };
        out.resize(out.len() + block.cells, floor);
    }
    out
}

/// Projects onto non-decreasing sequences with a lower bound of zero on
/// the first element (the paper's `s_1 > 0` refinement, which forces all
/// recovered counts non-negative).
pub fn isotonic_regression_nonneg(values: &[f64]) -> Vec<f64> {
    let mut out = isotonic_regression(values);
    for v in &mut out {
        if *v < 0.0 {
            *v = 0.0;
        } else {
            break; // sorted: once non-negative, stays non-negative
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn is_sorted(v: &[f64]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1])
    }

    /// The PAVA this module shipped before the block-sum one — three
    /// parallel stacks of block *means*, a division on every pool — kept
    /// as the oracle the new body is compared against.
    fn three_vec_pava(values: &[f64], weights: Option<&[f64]>) -> Vec<f64> {
        let mut means: Vec<f64> = Vec::new();
        let mut wsum: Vec<f64> = Vec::new();
        let mut count: Vec<usize> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            means.push(v);
            wsum.push(weights.map_or(1.0, |ws| ws[i]));
            count.push(1);
            while means.len() >= 2 {
                let m = means.len();
                if means[m - 2] <= means[m - 1] {
                    break;
                }
                let w_total = wsum[m - 2] + wsum[m - 1];
                means[m - 2] = (means[m - 2] * wsum[m - 2] + means[m - 1] * wsum[m - 1]) / w_total;
                wsum[m - 2] = w_total;
                count[m - 2] += count[m - 1];
                means.pop();
                wsum.pop();
                count.pop();
            }
        }
        let mut out = Vec::with_capacity(values.len());
        for (m, c) in means.iter().zip(&count) {
            out.extend(std::iter::repeat_n(*m, *c));
        }
        out
    }

    fn assert_matches_oracle(values: &[f64], weights: Option<&[f64]>) {
        let new = isotonic_regression_weighted(values, weights);
        let old = three_vec_pava(values, weights);
        assert_eq!(new.len(), old.len());
        for (i, (n, o)) in new.iter().zip(&old).enumerate() {
            assert!(
                (n - o).abs() <= 1e-9 * o.abs().max(1.0),
                "cell {i}: {n} vs oracle {o}"
            );
        }
        assert!(is_sorted(&new));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against the oracle on up to 2 000 cells of magnitude up to
        /// 10¹², with and without weights, with and without ties: equal
        /// per cell to rounding and non-decreasing with no tolerance. (The
        /// oracle-free invariants — weighted sum, optimality — are
        /// `isotonic_invariants` in the workspace's `tests/property_based.rs`.)
        #[test]
        fn matches_the_three_vec_oracle(
            unit in proptest::collection::vec(-1.0f64..1.0, 0..2001),
            weights in proptest::option::of(proptest::collection::vec(0.001f64..1000.0, 2000)),
            exponent in 0i32..13,
            ties in proptest::bool::ANY,
        ) {
            let magnitude = 10f64.powi(exponent);
            let values: Vec<f64> = unit
                .iter()
                .map(|&u| if ties { (4.0 * u).round() / 4.0 } else { u } * magnitude)
                .collect();
            assert_matches_oracle(&values, weights.as_deref().map(|w| &w[..values.len()]));
        }
    }

    #[test]
    fn strictly_decreasing_input_is_one_block() {
        let v: Vec<f64> = (0..100_000).rev().map(|i| i as f64 * 0.5).collect();
        let z = isotonic_regression(&v);
        assert!(z.iter().all(|&x| x == z[0]));
        assert_matches_oracle(&v, None);
    }

    #[test]
    fn constant_runs() {
        let v = [3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 4.0];
        assert_eq!(isotonic_regression(&v), three_vec_pava(&v, None));
        let w = [1.0, 2.0, 4.0, 0.5, 0.5, 8.0, 1.0, 1.0, 2.0, 2.0, 4.0];
        assert_matches_oracle(&v, Some(&w));
        assert_eq!(isotonic_regression(&[7.0; 50]), vec![7.0; 50]);
    }

    #[test]
    fn block_means_an_ulp_apart_stay_ordered() {
        // 11v·7 == 7v·11 in f64, so the cross-products see a tie and keep
        // two blocks — whose quotients 11v/11 and 7v/7 then round an ulp
        // apart the wrong way round. Only the floor keeps the output
        // sorted.
        let v = f64::from_bits(0x3fff_3d4e_71b1_e668); // 1.9524673882682695
        assert!((11.0 * v) / 11.0 > (7.0 * v) / 7.0);
        assert_matches_oracle(&[v, v], Some(&[11.0, 7.0]));
        // And the honest neighbours: an ulp up stays, an ulp down pools.
        let up = f64::from_bits(v.to_bits() + 1);
        assert_eq!(isotonic_regression(&[v, up]), vec![v, up]);
        let z = isotonic_regression(&[up, v]);
        assert!(z[0] == z[1] && (v..=up).contains(&z[0]));
    }

    #[test]
    fn non_finite_input_neither_panics_nor_hangs() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut v: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
            v[500] = bad;
            assert_eq!(isotonic_regression(&v).len(), v.len());
            let w = vec![2.0; v.len()];
            assert_eq!(isotonic_regression_weighted(&v, Some(&w)).len(), v.len());
        }
        // A NaN pools everything it touches, as it always has.
        assert!(isotonic_regression(&[1.0, f64::NAN, 2.0])
            .iter()
            .all(|z| z.is_nan()));
        assert_eq!(
            isotonic_regression(&[1.0, f64::INFINITY, 2.0]),
            vec![1.0, f64::INFINITY, f64::INFINITY]
        );
    }

    #[test]
    fn already_sorted_is_identity() {
        let v = vec![1.0, 2.0, 2.0, 5.0];
        assert_eq!(isotonic_regression(&v), v);
    }

    #[test]
    fn simple_violation_pools() {
        let v = vec![3.0, 1.0];
        assert_eq!(isotonic_regression(&v), vec![2.0, 2.0]);
    }

    #[test]
    fn cascade_pooling() {
        let v = vec![4.0, 3.0, 2.0, 1.0];
        assert_eq!(isotonic_regression(&v), vec![2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn output_always_sorted() {
        let v = vec![5.0, -1.0, 3.0, 2.0, 8.0, 0.0];
        let z = isotonic_regression(&v);
        assert!(is_sorted(&z));
        assert_eq!(z.len(), v.len());
    }

    #[test]
    fn projection_preserves_mean() {
        // The L2 projection onto the monotone cone preserves the total sum
        // for uniform weights (block means preserve block sums).
        let v = vec![5.0, -1.0, 3.0, 2.0, 8.0, 0.0];
        let z = isotonic_regression(&v);
        let sv: f64 = v.iter().sum();
        let sz: f64 = z.iter().sum();
        assert!((sv - sz).abs() < 1e-9);
    }

    #[test]
    fn weighted_pooling() {
        // Heavier weight pulls the pooled value toward that element.
        let z = isotonic_regression_weighted(&[3.0, 1.0], Some(&[3.0, 1.0]));
        assert!((z[0] - 2.5).abs() < 1e-12);
        assert_eq!(z[0], z[1]);
    }

    #[test]
    fn nonneg_clamps_prefix() {
        let z = isotonic_regression_nonneg(&[-2.0, -1.0, 3.0]);
        assert_eq!(z, vec![0.0, 0.0, 3.0]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(isotonic_regression(&[]).is_empty());
        assert_eq!(isotonic_regression(&[7.0]), vec![7.0]);
    }

    /// Verify optimality against a brute-force grid search on a small
    /// instance: no monotone sequence on a fine grid beats PAVA's L2 cost.
    #[test]
    fn projection_optimality_spot_check() {
        let v = [2.0, 0.0, 1.0];
        let z = isotonic_regression(&v);
        let cost = |c: &[f64]| -> f64 { c.iter().zip(&v).map(|(a, b)| (a - b) * (a - b)).sum() };
        let zc = cost(&z);
        let grid: Vec<f64> = (0..=40).map(|i| i as f64 * 0.05).collect();
        for &a in &grid {
            for &b in grid.iter().filter(|&&b| b >= a) {
                for &c in grid.iter().filter(|&&c| c >= b) {
                    assert!(zc <= cost(&[a, b, c]) + 1e-9);
                }
            }
        }
    }
}
