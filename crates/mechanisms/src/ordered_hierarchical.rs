//! The Ordered Hierarchical Mechanism (Section 7.2).
//!
//! A hybrid structure for the policy `(T, G^{d,θ}, I_n)` on an ordered
//! domain, interpolating between the Ordered Mechanism (θ = 1) and the
//! hierarchical mechanism (θ = |T|):
//!
//! * **S nodes** `s_i = q[x_1, x_{iθ}]`, `i = 1..k`, `k = ⌈|T|/θ⌉`:
//!   prefix counts at stride θ. Moving one tuple a distance ≤ θ crosses at
//!   most one stride boundary, so the S-node vector has sensitivity 1 and
//!   each `s_i` (i ≥ 2) is released with `Lap(1/ε_S)`.
//! * **H subtrees** `H_i`: a fanout-`f` interval tree over block `i`'s θ
//!   values, of edge-height `h = ⌈log_f θ⌉`. Sub-block ranges decompose
//!   into *non-root* H nodes (a prefix query never needs a whole block —
//!   it would use the S node instead), and a tuple change touches at most
//!   `2h` of those, so each is released with `Lap(2h/ε_H)`.
//! * `s_1` doubles as the root of `H_1`, so the whole of `H_1` (root
//!   included) is noised with `Lap(2h/(ε_S + ε_H))`.
//!
//! The expected range-query error (Eq. 14) is
//! `c₁/ε_S² + c₂/ε_H²` with `c₁ = 4(|T|−θ)/(|T|+1)` and
//! `c₂ = 8(f−1)·log_f³θ·|T|/(|T|+1)`, minimized at
//! `ε_S* = c₁^⅓/(c₁^⅓ + c₂^⅓)·ε` (Eq. 15).

use crate::hierarchical::{HierarchicalMechanism, HierarchicalRelease, IntervalTree};
use bf_core::{sample_laplace, Epsilon};
use rand::Rng;

/// Error constants `(c1, c2)` of Eq. 14 for a domain size, threshold and
/// fanout.
pub fn error_constants(size: usize, theta: usize, fanout: usize) -> (f64, f64) {
    assert!(size >= 1 && theta >= 1 && fanout >= 2);
    let t = size as f64;
    let theta_f = theta.min(size) as f64;
    let c1 = 4.0 * (t - theta_f) / (t + 1.0);
    let log_f_theta = if theta <= 1 {
        0.0
    } else {
        theta_f.ln() / (fanout as f64).ln()
    };
    let c2 = 8.0 * (fanout as f64 - 1.0) * log_f_theta.powi(3) * t / (t + 1.0);
    (c1, c2)
}

/// The optimal S-budget fraction `ε_S*/ε` from Eq. 15. Returns 1.0 when
/// `c2 = 0` (pure ordered) and 0.0 when `c1 = 0` (pure hierarchical).
pub fn optimal_split(size: usize, theta: usize, fanout: usize) -> f64 {
    let (c1, c2) = error_constants(size, theta, fanout);
    if c2 == 0.0 {
        return 1.0;
    }
    if c1 == 0.0 {
        return 0.0;
    }
    let a = c1.cbrt();
    let b = c2.cbrt();
    a / (a + b)
}

/// The expected per-range-query error of Eq. 14 for a concrete split.
pub fn expected_range_error(
    size: usize,
    theta: usize,
    fanout: usize,
    eps_s: f64,
    eps_h: f64,
) -> f64 {
    let (c1, c2) = error_constants(size, theta, fanout);
    let s_term = if c1 == 0.0 { 0.0 } else { c1 / (eps_s * eps_s) };
    let h_term = if c2 == 0.0 { 0.0 } else { c2 / (eps_h * eps_h) };
    s_term + h_term
}

/// Configuration of the Ordered Hierarchical Mechanism.
///
/// # Examples
///
/// ```
/// use bf_core::Epsilon;
/// use bf_mechanisms::{OrderedHierarchicalMechanism, RangeAnswerer};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let counts = vec![1.0; 256];
/// let mech = OrderedHierarchicalMechanism::new(Epsilon::new(0.5).unwrap(), 16, 4);
/// let mut rng = StdRng::seed_from_u64(1);
/// let release = mech.release(&counts, &mut rng);
/// assert!(release.answer(10, 200).is_finite());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OrderedHierarchicalMechanism {
    /// Total privacy budget ε = ε_S + ε_H.
    pub epsilon: Epsilon,
    /// Distance threshold θ in domain cells (θ ≥ |T| ⇒ pure hierarchical).
    pub theta: usize,
    /// Fanout of the H subtrees.
    pub fanout: usize,
    /// S-budget fraction; `None` selects the Eq. 15 optimum.
    pub eps_s_fraction: Option<f64>,
}

impl OrderedHierarchicalMechanism {
    /// A mechanism with the optimal budget split.
    pub fn new(epsilon: Epsilon, theta: usize, fanout: usize) -> Self {
        assert!(theta >= 1, "theta must be at least 1");
        assert!(fanout >= 2, "fanout must be at least 2");
        Self {
            epsilon,
            theta,
            fanout,
            eps_s_fraction: None,
        }
    }

    /// Overrides the budget split (ablation).
    pub fn with_split(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.eps_s_fraction = Some(fraction);
        self
    }

    /// The `(ε_S, ε_H)` pair this mechanism will use on a domain of the
    /// given size.
    pub fn budget(&self, size: usize) -> (f64, f64) {
        let theta = self.theta.min(size);
        let frac = self
            .eps_s_fraction
            .unwrap_or_else(|| optimal_split(size, theta, self.fanout));
        let e = self.epsilon.value();
        (e * frac, e * (1.0 - frac))
    }

    /// Releases the structure over an exact histogram.
    pub fn release(&self, histogram: &[f64], rng: &mut impl Rng) -> OrderedHierarchicalRelease {
        let size = histogram.len();
        assert!(size >= 1);
        let theta = self.theta.min(size);
        let (eps_s, eps_h) = self.budget(size);

        // Degenerate splits collapse to the pure mechanisms.
        if theta >= size || eps_s <= f64::EPSILON {
            let hm = HierarchicalMechanism::new(self.fanout, self.epsilon);
            return OrderedHierarchicalRelease {
                inner: OhInner::Hierarchical(hm.release(histogram, rng)),
            };
        }
        if theta == 1 || eps_h <= f64::EPSILON {
            // Pure ordered: every position is a stride boundary; noisy
            // prefixes with Lap(1/ε).
            let scale = 1.0 / self.epsilon.value();
            let mut prefix = Vec::with_capacity(size);
            let mut acc = 0.0;
            for &c in histogram {
                acc += c;
                prefix.push(acc + sample_laplace(rng, scale));
            }
            return OrderedHierarchicalRelease {
                inner: OhInner::PureOrdered { prefix },
            };
        }

        let k = size.div_ceil(theta);
        // Edge-height of a θ-block tree.
        let h = (IntervalTree::build(theta, self.fanout).levels() - 1) as f64;

        // Exact prefix sums for the S nodes.
        let mut prefix = vec![0.0; size + 1];
        for (i, &c) in histogram.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c;
        }

        // H subtrees per block; block i (0-based) covers
        // [i·θ, min((i+1)θ, size) − 1].
        let mut subtrees = Vec::with_capacity(k);
        for i in 0..k {
            let lo = i * theta;
            let hi = ((i + 1) * theta).min(size) - 1;
            let tree = IntervalTree::build(hi - lo + 1, self.fanout);
            let mut values = tree.exact_counts(&histogram[lo..=hi]);
            let scale = if i == 0 {
                2.0 * h / (eps_s + eps_h)
            } else {
                2.0 * h / eps_h
            };
            for (node, v) in values.iter_mut().enumerate() {
                if i > 0 && node == 0 {
                    // Roots of H_i (i ≥ 2) are never queried and never
                    // released; keep the slot unused.
                    *v = f64::NAN;
                    continue;
                }
                *v += sample_laplace(rng, scale);
            }
            subtrees.push((tree, values));
        }

        // Noisy S values: s_1 is H_1's root; s_i (i ≥ 2) gets Lap(1/ε_S).
        let mut s_values = Vec::with_capacity(k);
        s_values.push(subtrees[0].1[0]);
        let s_scale = 1.0 / eps_s;
        for i in 2..=k {
            let pos = (i * theta).min(size);
            s_values.push(prefix[pos] + sample_laplace(rng, s_scale));
        }

        OrderedHierarchicalRelease {
            inner: OhInner::Hybrid {
                theta,
                size,
                s_values,
                subtrees,
            },
        }
    }
}

#[derive(Debug, Clone)]
enum OhInner {
    /// θ ≥ |T|: the classical hierarchical mechanism.
    Hierarchical(HierarchicalRelease),
    /// θ = 1: noisy prefix sums only.
    PureOrdered { prefix: Vec<f64> },
    /// The hybrid S/H structure.
    Hybrid {
        theta: usize,
        size: usize,
        /// `s_values[i]` is the noisy prefix at 1-based position
        /// `min((i+1)·θ, |T|)`.
        s_values: Vec<f64>,
        /// Per block: the interval tree and noisy node values (roots of
        /// blocks ≥ 1 are NaN placeholders — never queried).
        subtrees: Vec<(IntervalTree, Vec<f64>)>,
    },
}

/// A released Ordered Hierarchical structure answering prefix and range
/// queries.
#[derive(Debug, Clone)]
pub struct OrderedHierarchicalRelease {
    inner: OhInner,
}

impl OrderedHierarchicalRelease {
    /// Noisy cumulative count `q[x_1, x_{i+1}]` for 0-based index `i`
    /// (i.e. the count of values ≤ i).
    pub fn prefix(&self, i: usize) -> f64 {
        match &self.inner {
            OhInner::Hierarchical(r) => r.range(0, i),
            OhInner::PureOrdered { prefix } => prefix[i],
            OhInner::Hybrid {
                theta,
                size,
                s_values,
                subtrees,
            } => {
                debug_assert!(i < *size);
                let pos = i + 1; // 1-based position
                                 // Block containing index i, and that block's end position.
                let block = i / theta;
                let block_end = ((block + 1) * theta).min(*size);
                if pos == block_end {
                    // Aligned with an S node (including the short last
                    // block, whose end is s_k = q[x_1, x_|T|]).
                    return s_values[block];
                }
                let s_part = if block == 0 { 0.0 } else { s_values[block - 1] };
                let within = pos - block * theta; // 1..block_len-1
                let (tree, values) = &subtrees[block];
                let h_part: f64 = tree
                    .decompose(0, within - 1)
                    .into_iter()
                    .map(|id| values[id])
                    .sum();
                debug_assert!(h_part.is_finite(), "queried an unreleased H root");
                s_part + h_part
            }
        }
    }

    /// Noisy range count `q[lo, hi]` (inclusive, 0-based).
    pub(crate) fn range(&self, lo: usize, hi: usize) -> f64 {
        match &self.inner {
            OhInner::Hierarchical(r) => r.range(lo, hi),
            _ => {
                let upper = self.prefix(hi);
                let lower = if lo == 0 { 0.0 } else { self.prefix(lo - 1) };
                upper - lower
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl OrderedHierarchicalRelease {
        /// Which regime the release operated in: `"hierarchical"`,
        /// `"ordered"`, or `"hybrid"`.
        fn regime(&self) -> &'static str {
            match &self.inner {
                OhInner::Hierarchical(_) => "hierarchical",
                OhInner::PureOrdered { .. } => "ordered",
                OhInner::Hybrid { .. } => "hybrid",
            }
        }
    }

    fn histogram(size: usize) -> Vec<f64> {
        (0..size).map(|i| ((i * 13 + 5) % 11) as f64).collect()
    }

    fn exact_prefix(h: &[f64], i: usize) -> f64 {
        h[..=i].iter().sum()
    }

    #[test]
    fn constants_limits() {
        let (c1, c2) = error_constants(100, 1, 16);
        assert!(c1 > 0.0);
        assert_eq!(c2, 0.0);
        let (c1, c2) = error_constants(100, 100, 16);
        assert_eq!(c1, 0.0);
        assert!(c2 > 0.0);
    }

    #[test]
    fn optimal_split_limits() {
        assert_eq!(optimal_split(100, 1, 16), 1.0);
        assert_eq!(optimal_split(100, 100, 16), 0.0);
        let mid = optimal_split(1000, 50, 16);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn optimal_split_minimizes_expected_error() {
        let (size, theta, f) = (4096, 64, 16);
        let star = optimal_split(size, theta, f);
        let eps = 1.0;
        let best = expected_range_error(size, theta, f, eps * star, eps * (1.0 - star));
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let e = expected_range_error(size, theta, f, eps * frac, eps * (1.0 - frac));
            assert!(best <= e + 1e-9, "fraction {frac} beats optimum");
        }
    }

    #[test]
    fn regimes() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = histogram(64);
        let eps = Epsilon::new(1.0).unwrap();
        assert_eq!(
            OrderedHierarchicalMechanism::new(eps, 64, 16)
                .release(&h, &mut rng)
                .regime(),
            "hierarchical"
        );
        assert_eq!(
            OrderedHierarchicalMechanism::new(eps, 1, 16)
                .release(&h, &mut rng)
                .regime(),
            "ordered"
        );
        assert_eq!(
            OrderedHierarchicalMechanism::new(eps, 8, 4)
                .release(&h, &mut rng)
                .regime(),
            "hybrid"
        );
    }

    #[test]
    fn hybrid_prefixes_unbiased() {
        let h = histogram(50);
        let eps = Epsilon::new(2.0).unwrap();
        let m = OrderedHierarchicalMechanism::new(eps, 8, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 1500;
        for idx in [0usize, 7, 8, 15, 23, 31, 49] {
            let mut acc = 0.0;
            for _ in 0..trials {
                acc += m.release(&h, &mut rng).prefix(idx);
            }
            let mean = acc / trials as f64;
            let truth = exact_prefix(&h, idx);
            assert!(
                (mean - truth).abs() < truth.max(10.0) * 0.1 + 2.0,
                "prefix {idx}: mean {mean} vs {truth}"
            );
        }
    }

    #[test]
    fn hybrid_ranges_unbiased_and_finite() {
        let h = histogram(100);
        let eps = Epsilon::new(1.0).unwrap();
        let m = OrderedHierarchicalMechanism::new(eps, 10, 4);
        let mut rng = StdRng::seed_from_u64(10);
        for (lo, hi) in [(0, 99), (5, 14), (10, 19), (37, 83), (99, 99)] {
            let v = m.release(&h, &mut rng).range(lo, hi);
            assert!(v.is_finite(), "range [{lo},{hi}] not finite");
        }
    }

    #[test]
    fn last_short_block_handled() {
        // size 53, theta 10 → 6 blocks, last of length 3.
        let h = histogram(53);
        let m = OrderedHierarchicalMechanism::new(Epsilon::new(1.0).unwrap(), 10, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let r = m.release(&h, &mut rng);
        for i in 0..53 {
            assert!(r.prefix(i).is_finite(), "prefix {i}");
        }
    }

    #[test]
    fn theta_larger_than_domain_clamps() {
        let h = histogram(16);
        let m = OrderedHierarchicalMechanism::new(Epsilon::new(1.0).unwrap(), 500, 4);
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(m.release(&h, &mut rng).regime(), "hierarchical");
    }

    #[test]
    fn small_theta_beats_hierarchical_on_range_mse() {
        // The headline claim of Section 7: at small θ the OH error is far
        // below the hierarchical baseline.
        let size = 1024;
        let h = histogram(size);
        let eps = Epsilon::new(0.5).unwrap();
        let ordered = OrderedHierarchicalMechanism::new(eps, 1, 16);
        let hier = OrderedHierarchicalMechanism::new(eps, size, 16);
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 150;
        let ranges = [(100usize, 400usize), (0, 1023), (512, 600)];
        let mut mse_ord = 0.0;
        let mut mse_hier = 0.0;
        for _ in 0..trials {
            let ro = ordered.release(&h, &mut rng);
            let rh = hier.release(&h, &mut rng);
            for &(lo, hi) in &ranges {
                let truth: f64 = h[lo..=hi].iter().sum();
                mse_ord += (ro.range(lo, hi) - truth).powi(2);
                mse_hier += (rh.range(lo, hi) - truth).powi(2);
            }
        }
        assert!(
            mse_ord * 5.0 < mse_hier,
            "ordered {mse_ord} should be ≪ hierarchical {mse_hier}"
        );
    }

    #[test]
    fn split_override() {
        let m =
            OrderedHierarchicalMechanism::new(Epsilon::new(1.0).unwrap(), 8, 4).with_split(0.25);
        let (es, eh) = m.budget(64);
        assert!((es - 0.25).abs() < 1e-12);
        assert!((eh - 0.75).abs() < 1e-12);
    }
}
