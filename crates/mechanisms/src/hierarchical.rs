//! The hierarchical mechanism (Hay et al. \[9\]) — the paper's differential
//! privacy baseline for range queries.
//!
//! A fanout-`f` interval tree over the ordered domain: the root covers
//! `[x_1, x_|T|]`, each node splits its interval into `f` children, leaves
//! are unit intervals. Every level is a partition of the domain, so each
//! level has histogram sensitivity 2; with the per-level budgets summing
//! to ε, each node at level `i` is released with `Lap(2/ε_i)` noise.
//! Budgeting is uniform (`ε_i = ε/h`), as in the paper's experiments.
//!
//! Optional *consistency* (constrained inference) refines the noisy tree:
//! a bottom-up inverse-variance weighted pass followed by a top-down
//! discrepancy-distribution pass, after which parents equal the sum of
//! their children and every subtree estimate is the minimum-variance
//! linear combination of the noisy observations.

use bf_core::{sample_laplace, Epsilon};
use rand::Rng;

/// One node of the interval tree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    /// Inclusive interval `[lo, hi]` of domain indices.
    lo: usize,
    hi: usize,
    /// Child node ids (empty for leaves).
    children: Vec<usize>,
    /// Depth: root is 0.
    depth: usize,
}

/// The static tree structure over a domain of a given size.
#[derive(Debug, Clone)]
pub struct IntervalTree {
    nodes: Vec<Node>,
    size: usize,
    /// Number of levels (root level included); `ceil(log_f size) + 1`.
    levels: usize,
}

impl IntervalTree {
    /// Builds the tree over `size` values with the given fanout.
    ///
    /// # Panics
    ///
    /// Panics for `size == 0` or `fanout < 2`.
    pub fn build(size: usize, fanout: usize) -> Self {
        assert!(size >= 1, "tree needs a non-empty domain");
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut nodes = Vec::new();
        nodes.push(Node {
            lo: 0,
            hi: size - 1,
            children: Vec::new(),
            depth: 0,
        });
        let mut cursor = 0;
        while cursor < nodes.len() {
            let (lo, hi, depth) = {
                let n = &nodes[cursor];
                (n.lo, n.hi, n.depth)
            };
            let len = hi - lo + 1;
            if len > 1 {
                // Split into up to `fanout` intervals of ceiling width.
                let width = len.div_ceil(fanout);
                let mut child_ids = Vec::new();
                let mut start = lo;
                while start <= hi {
                    let end = (start + width - 1).min(hi);
                    child_ids.push(nodes.len());
                    nodes.push(Node {
                        lo: start,
                        hi: end,
                        children: Vec::new(),
                        depth: depth + 1,
                    });
                    start = end + 1;
                }
                nodes[cursor].children = child_ids;
            }
            cursor += 1;
        }
        let levels = nodes.iter().map(|n| n.depth).max().unwrap_or(0) + 1;
        Self {
            nodes,
            size,
            levels,
        }
    }

    /// Number of levels including the root; the height `h` of the paper is
    /// `levels − 1` (edges), with `levels = 1` for a single-leaf tree.
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// Exact node counts for a histogram.
    pub fn exact_counts(&self, histogram: &[f64]) -> Vec<f64> {
        assert_eq!(histogram.len(), self.size);
        // Prefix sums make each node O(1).
        let mut prefix = vec![0.0; self.size + 1];
        for (i, &c) in histogram.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c;
        }
        self.nodes
            .iter()
            .map(|n| prefix[n.hi + 1] - prefix[n.lo])
            .collect()
    }

    /// Every node's Laplace noise scale under a total budget ε split
    /// uniformly over the levels. Level sensitivity is 2 (one tuple change
    /// moves one unit of count between two nodes of the level... or within
    /// one, changing it by at most 2 in L1).
    pub(crate) fn noise_scale(&self, epsilon: Epsilon) -> f64 {
        2.0 / (epsilon.value() / self.levels as f64)
    }

    /// Decomposes `[lo, hi]` (inclusive) into a minimal set of node ids
    /// whose intervals exactly cover the range.
    pub fn decompose(&self, lo: usize, hi: usize) -> Vec<usize> {
        assert!(lo <= hi && hi < self.size, "invalid range [{lo}, {hi}]");
        let mut out = Vec::new();
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            let n = &self.nodes[id];
            if n.lo > hi || n.hi < lo {
                continue;
            }
            if lo <= n.lo && n.hi <= hi {
                out.push(id);
                continue;
            }
            stack.extend(n.children.iter().copied());
        }
        out
    }

    /// Enforces parent = Σ children consistency on noisy node values via
    /// inverse-variance weighted bottom-up refinement and top-down
    /// discrepancy distribution. `variances[i]` is the noise variance of
    /// node `i` (2·scale²).
    pub(crate) fn enforce_consistency(&self, values: &mut [f64], variances: &[f64]) {
        assert_eq!(values.len(), self.nodes.len());
        assert_eq!(variances.len(), self.nodes.len());
        let n = self.nodes.len();
        // Bottom-up pass: refined estimate z and its variance per node.
        // Nodes are stored in BFS order, so iterating in reverse visits
        // children before parents.
        let mut z = values.to_vec();
        let mut var = variances.to_vec();
        for id in (0..n).rev() {
            if self.nodes[id].children.is_empty() {
                continue;
            }
            let child_sum: f64 = self.nodes[id].children.iter().map(|&c| z[c]).sum();
            let child_var: f64 = self.nodes[id].children.iter().map(|&c| var[c]).sum();
            let own_var = variances[id];
            if own_var == 0.0 {
                // Exact own value dominates.
                continue;
            }
            if child_var == 0.0 {
                z[id] = child_sum;
                var[id] = 0.0;
                continue;
            }
            let w_own = 1.0 / own_var;
            let w_children = 1.0 / child_var;
            z[id] = (w_own * values[id] + w_children * child_sum) / (w_own + w_children);
            var[id] = 1.0 / (w_own + w_children);
        }
        // Top-down pass: parents are final; distribute each parent's
        // discrepancy over its children proportionally to child variance.
        values[0] = z[0];
        for id in 0..n {
            if self.nodes[id].children.is_empty() {
                continue;
            }
            let children = &self.nodes[id].children;
            let child_sum: f64 = children.iter().map(|&c| z[c]).sum();
            let diff = values[id] - child_sum;
            let total_var: f64 = children.iter().map(|&c| var[c]).sum();
            for &c in children {
                let share = if total_var > 0.0 {
                    var[c] / total_var
                } else {
                    1.0 / children.len() as f64
                };
                values[c] = z[c] + diff * share;
            }
        }
    }
}

/// The hierarchical mechanism: configuration for releasing a noisy tree.
#[derive(Debug, Clone, Copy)]
pub struct HierarchicalMechanism {
    /// Fanout `f`.
    pub fanout: usize,
    /// Total privacy budget.
    pub epsilon: Epsilon,
    /// Whether to run constrained inference after noising.
    pub consistency: bool,
}

impl HierarchicalMechanism {
    /// The paper's configuration: uniform budgeting, no consistency.
    pub fn new(fanout: usize, epsilon: Epsilon) -> Self {
        Self {
            fanout,
            epsilon,
            consistency: false,
        }
    }

    /// Enables constrained inference.
    pub fn with_consistency(mut self) -> Self {
        self.consistency = true;
        self
    }

    /// Releases a noisy tree over the histogram.
    pub fn release(&self, histogram: &[f64], rng: &mut impl Rng) -> HierarchicalRelease {
        let tree = IntervalTree::build(histogram.len(), self.fanout);
        let mut values = tree.exact_counts(histogram);
        let scale = tree.noise_scale(self.epsilon);
        for v in values.iter_mut() {
            *v += sample_laplace(rng, scale);
        }
        if self.consistency {
            let variances = vec![2.0 * scale * scale; values.len()];
            tree.enforce_consistency(&mut values, &variances);
        }
        HierarchicalRelease { tree, values }
    }
}

/// A released noisy hierarchical tree, answering arbitrary range queries.
#[derive(Debug, Clone)]
pub struct HierarchicalRelease {
    tree: IntervalTree,
    values: Vec<f64>,
}

impl HierarchicalRelease {
    /// Noisy answer to the range count `q[lo, hi]` (inclusive).
    pub(crate) fn range(&self, lo: usize, hi: usize) -> f64 {
        self.tree
            .decompose(lo, hi)
            .into_iter()
            .map(|id| self.values[id])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Leaf node ids in domain order.
    fn leaves(t: &IntervalTree) -> Vec<usize> {
        let mut out: Vec<usize> = (0..t.nodes.len())
            .filter(|&i| t.nodes[i].children.is_empty())
            .collect();
        out.sort_by_key(|&i| t.nodes[i].lo);
        out
    }

    #[test]
    fn tree_structure_covers_domain() {
        let t = IntervalTree::build(10, 3);
        assert_eq!(t.size, 10);
        let leaves = leaves(&t);
        assert_eq!(leaves.len(), 10);
        for (i, &l) in leaves.iter().enumerate() {
            assert_eq!((t.nodes[l].lo, t.nodes[l].hi), (i, i));
        }
    }

    #[test]
    fn levels_match_log() {
        assert_eq!(IntervalTree::build(1, 2).levels(), 1);
        assert_eq!(IntervalTree::build(16, 2).levels(), 5);
        assert_eq!(IntervalTree::build(16, 16).levels(), 2);
        assert_eq!(IntervalTree::build(17, 16).levels(), 3);
    }

    #[test]
    fn exact_counts_consistent() {
        let t = IntervalTree::build(8, 2);
        let h: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let counts = t.exact_counts(&h);
        assert_eq!(counts[0], 28.0); // root = total
                                     // Parent = sum of children everywhere.
        for id in 0..t.nodes.len() {
            let n = &t.nodes[id];
            if !n.children.is_empty() {
                let cs: f64 = n.children.iter().map(|&c| counts[c]).sum();
                assert!((counts[id] - cs).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn decompose_is_exact_cover() {
        let t = IntervalTree::build(20, 4);
        let h: Vec<f64> = (0..20).map(|i| (i * i) as f64).collect();
        let counts = t.exact_counts(&h);
        for lo in 0..20 {
            for hi in lo..20 {
                let ids = t.decompose(lo, hi);
                let sum: f64 = ids.iter().map(|&i| counts[i]).sum();
                let expect: f64 = h[lo..=hi].iter().sum();
                assert!((sum - expect).abs() < 1e-9, "range [{lo},{hi}]");
                // Cover must be disjoint and within the range.
                let mut covered = [false; 20];
                for &id in &ids {
                    let (a, b) = (t.nodes[id].lo, t.nodes[id].hi);
                    assert!(lo <= a && b <= hi);
                    for c in covered.iter_mut().take(b + 1).skip(a) {
                        assert!(!*c, "overlapping cover");
                        *c = true;
                    }
                }
            }
        }
    }

    #[test]
    fn decomposition_size_logarithmic() {
        let t = IntervalTree::build(4096, 16);
        for (lo, hi) in [(0, 4095), (1, 4094), (100, 3000), (7, 8)] {
            let ids = t.decompose(lo, hi);
            assert!(
                ids.len() <= 2 * 15 * t.levels(),
                "range [{lo},{hi}] used {} nodes",
                ids.len()
            );
        }
    }

    #[test]
    fn uniform_scales() {
        let t = IntervalTree::build(16, 4);
        // levels = 3 → per-level ε = 1/3 → scale 6 everywhere.
        assert!((t.noise_scale(Epsilon::new(1.0).unwrap()) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn consistency_restores_tree_invariant() {
        let t = IntervalTree::build(9, 3);
        let h = vec![1.0; 9];
        let mut values = t.exact_counts(&h);
        // Perturb deterministically.
        for (i, v) in values.iter_mut().enumerate() {
            *v += ((i * 7919) % 13) as f64 - 6.0;
        }
        let variances = vec![2.0; t.nodes.len()];
        t.enforce_consistency(&mut values, &variances);
        for id in 0..t.nodes.len() {
            let n = &t.nodes[id];
            if !n.children.is_empty() {
                let cs: f64 = n.children.iter().map(|&c| values[c]).sum();
                assert!((values[id] - cs).abs() < 1e-9, "node {id}");
            }
        }
    }

    #[test]
    fn consistency_reduces_leaf_error() {
        let mut rng = StdRng::seed_from_u64(99);
        let eps = Epsilon::new(0.5).unwrap();
        let h: Vec<f64> = (0..256).map(|i| ((i % 17) * 3) as f64).collect();
        let plain = HierarchicalMechanism::new(4, eps);
        let boosted = plain.with_consistency();
        let trials = 40;
        let mut err_plain = 0.0;
        let mut err_boost = 0.0;
        for _ in 0..trials {
            let rp = plain.release(&h, &mut rng);
            let rb = boosted.release(&h, &mut rng);
            let leaf_values = |r: &HierarchicalRelease| -> Vec<f64> {
                leaves(&r.tree).iter().map(|&id| r.values[id]).collect()
            };
            let (lp_hist, lb_hist) = (leaf_values(&rp), leaf_values(&rb));
            for ((&lp, &lb), &truth) in lp_hist.iter().zip(&lb_hist).zip(&h) {
                err_plain += (lp - truth) * (lp - truth);
                err_boost += (lb - truth) * (lb - truth);
            }
        }
        assert!(
            err_boost < err_plain,
            "consistency should reduce leaf MSE: {err_boost} vs {err_plain}"
        );
    }

    #[test]
    fn release_answers_ranges_unbiased() {
        let mut rng = StdRng::seed_from_u64(3);
        let eps = Epsilon::new(1.0).unwrap();
        let h: Vec<f64> = vec![5.0; 32];
        let m = HierarchicalMechanism::new(4, eps);
        let trials = 2000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let r = m.release(&h, &mut rng);
            acc += r.range(3, 20);
        }
        let mean = acc / trials as f64;
        let truth = 18.0 * 5.0;
        assert!((mean - truth).abs() < 2.0, "mean {mean} vs {truth}");
    }
}
