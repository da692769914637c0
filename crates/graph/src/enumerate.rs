//! Structure-aware edge enumeration for [`SecretGraph`].
//!
//! Every implicit secret-graph family has far fewer edges than the
//! `Θ(|T|²)` pairs an `is_edge(x, y)` all-pairs scan inspects:
//!
//! * `G^attr` — one edge per single-attribute value swap:
//!   `|E| = |T| · Σᵢ(|Aᵢ|−1) / 2`,
//! * `G^{L1,θ}` — one edge per lattice offset of L1 length ≤ θ:
//!   `|E| = O(|T| · |B_θ|)` where `B_θ` is the L1 ball of radius θ,
//! * `G^P` — within-block pairs only: `|E| = Σ_b |P_b|·(|P_b|−1)/2`,
//! * custom — its explicit adjacency list.
//!
//! This module enumerates exactly those edges, each once, from its
//! smaller endpoint — so sensitivity closed forms, critical-pair checks
//! and Definition 8.2 sparsity validation become `O(|E|)` instead of
//! `O(|T|²)`. The complete graph `G^full` is the one genuinely dense
//! family; consumers should prefer its closed forms (max−min weight
//! spread, any-two-values crossings) and fall back to the pair loop only
//! when they must.
//!
//! Correctness contract (property-tested in this module and again by the
//! consuming crates): the enumerated edge set equals
//! `{(x, y) : x < y, is_edge(x, y)}` **exactly**, for every variant.

use crate::secret::SecretGraph;
use bf_domain::Domain;
use std::ops::ControlFlow;

/// Row-major strides of the domain's mixed-radix encoding:
/// `strides[i] = Π_{k>i} |A_k|` (the last attribute varies fastest,
/// matching [`Domain::encode`]).
fn strides(domain: &Domain) -> Vec<usize> {
    let m = domain.arity();
    let mut out = vec![1usize; m];
    for i in (0..m.saturating_sub(1)).rev() {
        out[i] = out[i + 1] * domain.attribute(i + 1).cardinality();
    }
    out
}

/// All non-zero integer offset vectors `Δ` with `Σᵢ|Δᵢ| ≤ theta` and
/// `|Δᵢ| ≤ |Aᵢ|−1`. With `positive_only`, keeps exactly one of each
/// `{Δ, −Δ}` pair — the one whose first non-zero coordinate is positive.
/// Because attribute 0 carries the largest stride, applying such an
/// offset to `x` (when every coordinate stays in range) always yields
/// `y > x`, so each edge is produced once from its smaller endpoint.
fn l1_offsets(domain: &Domain, theta: u64, positive_only: bool) -> Vec<Vec<i64>> {
    fn rec(
        domain: &Domain,
        positive_only: bool,
        i: usize,
        budget: i64,
        seen_nonzero: bool,
        current: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
    ) {
        if i == domain.arity() {
            if seen_nonzero {
                out.push(current.clone());
            }
            return;
        }
        let diameter = domain.attribute(i).cardinality() as i64 - 1;
        let reach = budget.min(diameter);
        let lo = if positive_only && !seen_nonzero {
            0 // coordinates before the first non-zero one must be zero
        } else {
            -reach
        };
        for d in lo..=reach {
            current.push(d);
            rec(
                domain,
                positive_only,
                i + 1,
                budget - d.abs(),
                seen_nonzero || d != 0,
                current,
                out,
            );
            current.pop();
        }
    }
    let mut out = Vec::new();
    // No offset can exceed the domain's L1 diameter, so clamp before the
    // signed cast: a huge θ (e.g. u64::MAX as "everything is a neighbor")
    // must mean the complete ball, not a negative budget and an empty —
    // and therefore silently noiseless — edge set.
    let budget = theta.min(domain.l1_diameter()).min(i64::MAX as u64) as i64;
    rec(
        domain,
        positive_only,
        0,
        budget,
        false,
        &mut Vec::with_capacity(domain.arity()),
        &mut out,
    );
    out
}

/// Applies `offset` to the value whose decoded coordinates are `vals`,
/// returning the target index when every coordinate stays in range.
fn apply_offset(
    index: usize,
    vals: &[u32],
    offset: &[i64],
    strides: &[usize],
    domain: &Domain,
) -> Option<usize> {
    let mut y = index as i64;
    for (i, &d) in offset.iter().enumerate() {
        if d == 0 {
            continue;
        }
        let nv = vals[i] as i64 + d;
        if nv < 0 || nv >= domain.attribute(i).cardinality() as i64 {
            return None;
        }
        y += d * strides[i] as i64;
    }
    Some(y as usize)
}

impl SecretGraph {
    /// Visits every edge `(x, y)` with `x < y` exactly once, specialized
    /// per variant, stopping early when `f` breaks. The visit cost is
    /// `O(|E|)` for the structured families (plus an `O(arity)` decode
    /// per vertex) and `O(|T|²)` only for `G^full`, whose edge set *is*
    /// quadratic.
    pub(crate) fn try_for_each_edge<B, F>(&self, domain: &Domain, mut f: F) -> ControlFlow<B>
    where
        F: FnMut(usize, usize) -> ControlFlow<B>,
    {
        let n = domain.size();
        match self {
            SecretGraph::Full => {
                for x in 0..n {
                    for y in (x + 1)..n {
                        f(x, y)?;
                    }
                }
            }
            SecretGraph::Attribute => {
                let strides = strides(domain);
                for x in 0..n {
                    for (a, &stride) in strides.iter().enumerate() {
                        let v = domain.attribute_value(x, a) as usize;
                        for w in (v + 1)..domain.attribute(a).cardinality() {
                            f(x, x + (w - v) * stride)?;
                        }
                    }
                }
            }
            SecretGraph::Partition(p) => {
                // Block member lists are ascending, so x < y holds.
                for block in p.blocks() {
                    for (i, &x) in block.iter().enumerate() {
                        for &y in &block[i + 1..] {
                            f(x, y)?;
                        }
                    }
                }
            }
            SecretGraph::L1Threshold { theta } => {
                let offsets = l1_offsets(domain, *theta, true);
                let strides = strides(domain);
                let mut vals = vec![0u32; domain.arity()];
                for x in 0..n {
                    for (i, v) in vals.iter_mut().enumerate() {
                        *v = domain.attribute_value(x, i);
                    }
                    for off in &offsets {
                        if let Some(y) = apply_offset(x, &vals, off, &strides, domain) {
                            f(x, y)?;
                        }
                    }
                }
            }
            SecretGraph::Custom(g) => {
                // Clamp to the domain: the all-pairs reference only ever
                // inspects pairs of domain indices.
                for u in 0..g.num_vertices().min(n) {
                    for &v in g.neighbors(u) {
                        if u < v && v < n {
                            f(u, v)?;
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Visits every edge `(x, y)` with `x < y` exactly once.
    pub fn for_each_edge<F: FnMut(usize, usize)>(&self, domain: &Domain, mut f: F) {
        let _ = self.try_for_each_edge::<std::convert::Infallible, _>(domain, |x, y| {
            f(x, y);
            ControlFlow::Continue(())
        });
    }

    /// First edge satisfying `pred`, enumerating structurally and
    /// stopping as soon as one is found.
    pub fn find_edge<F>(&self, domain: &Domain, mut pred: F) -> Option<(usize, usize)>
    where
        F: FnMut(usize, usize) -> bool,
    {
        match self.try_for_each_edge(domain, |x, y| {
            if pred(x, y) {
                ControlFlow::Break((x, y))
            } else {
                ControlFlow::Continue(())
            }
        }) {
            ControlFlow::Break(edge) => Some(edge),
            ControlFlow::Continue(()) => None,
        }
    }

    /// Number of edges `|E|`: closed-form where the family allows it,
    /// an `O(|T| · |B_θ|)` boundary-aware count for `G^{L1,θ}`.
    pub(crate) fn edge_count(&self, domain: &Domain) -> u64 {
        let n = domain.size() as u64;
        match self {
            SecretGraph::Full => n * n.saturating_sub(1) / 2,
            SecretGraph::Attribute => {
                let swaps: u64 = domain
                    .attributes()
                    .iter()
                    .map(|a| a.diameter() as u64)
                    .sum();
                n * swaps / 2
            }
            SecretGraph::Partition(p) => p
                .block_sizes()
                .iter()
                .map(|&b| (b as u64) * (b as u64).saturating_sub(1) / 2)
                .sum(),
            SecretGraph::L1Threshold { .. } => {
                let mut count = 0u64;
                self.for_each_edge(domain, |_, _| count += 1);
                count
            }
            SecretGraph::Custom(g) => g.num_edges() as u64,
        }
    }

    /// Like `SecretGraph::edge_count`, but stops enumerating once the
    /// count exceeds `cap`, returning `min(|E|, cap + 1)`. A result
    /// `> cap` therefore means "over budget" without paying for the full
    /// enumeration — this is what lets `check_sparse`-style budget
    /// guards reject a billion-edge graph without first walking a
    /// billion edges. Closed-form variants answer in `O(1)` (plus the
    /// block/degree sums).
    pub fn edge_count_capped(&self, domain: &Domain, cap: u64) -> u64 {
        match self {
            SecretGraph::L1Threshold { .. } => {
                let mut count = 0u64;
                let _ = self.try_for_each_edge::<(), _>(domain, |_, _| {
                    count += 1;
                    if count > cap {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                count
            }
            _ => self.edge_count(domain).min(cap.saturating_add(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Graph;
    use bf_domain::Partition;
    use proptest::prelude::*;

    /// The all-pairs reference the structured enumeration must match.
    fn reference_edges(graph: &SecretGraph, domain: &Domain) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for x in domain.indices() {
            for y in (x + 1)..domain.size() {
                if graph.is_edge(domain, x, y) {
                    out.push((x, y));
                }
            }
        }
        out
    }

    fn collected_edges(graph: &SecretGraph, domain: &Domain) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        graph.for_each_edge(domain, |x, y| out.push((x, y)));
        out
    }

    fn assert_matches_reference(graph: &SecretGraph, domain: &Domain) {
        let reference = reference_edges(graph, domain);
        let mut enumerated = collected_edges(graph, domain);
        enumerated.sort_unstable();
        let pre_dedup = enumerated.len();
        enumerated.dedup();
        assert_eq!(
            pre_dedup,
            enumerated.len(),
            "{}: duplicate edges enumerated",
            graph.label()
        );
        assert_eq!(enumerated, reference, "{}", graph.label());
        assert_eq!(graph.edge_count(domain), reference.len() as u64);
    }

    #[test]
    fn named_families_match_reference_scan() {
        let domains = [
            Domain::line(1).unwrap(),
            Domain::line(7).unwrap(),
            Domain::from_cardinalities(&[2, 2, 3]).unwrap(),
            Domain::from_cardinalities(&[4, 1, 3]).unwrap(),
        ];
        for d in &domains {
            for theta in [1u64, 2, 3, 100] {
                assert_matches_reference(&SecretGraph::L1Threshold { theta }, d);
            }
            assert_matches_reference(&SecretGraph::Full, d);
            assert_matches_reference(&SecretGraph::Attribute, d);
            assert_matches_reference(
                &SecretGraph::Partition(Partition::intervals(d.size(), 3)),
                d,
            );
        }
    }

    #[test]
    fn huge_theta_is_the_complete_graph_not_an_empty_one() {
        // Regression: `theta as i64` used to go negative for θ past
        // i64::MAX, producing an empty offset set — zero edges — while
        // is_edge said every pair was an edge.
        let d = Domain::from_cardinalities(&[3, 4]).unwrap();
        for theta in [u64::MAX, i64::MAX as u64 + 1, 1 << 40] {
            assert_matches_reference(&SecretGraph::L1Threshold { theta }, &d);
            assert_eq!(
                SecretGraph::L1Threshold { theta }.edge_count(&d),
                SecretGraph::Full.edge_count(&d)
            );
        }
    }

    #[test]
    fn capped_edge_count_stops_early() {
        let d = Domain::line(10_000).unwrap();
        let g = SecretGraph::L1Threshold { theta: 8 };
        let exact = g.edge_count(&d);
        // Under the cap: exact count comes back.
        assert_eq!(g.edge_count_capped(&d, exact), exact);
        assert_eq!(g.edge_count_capped(&d, exact + 5), exact);
        // Over the cap: exactly cap + 1, proving the walk stopped.
        assert_eq!(g.edge_count_capped(&d, 100), 101);
        assert_eq!(g.edge_count_capped(&d, 0), 1);
        // Closed-form variants agree too.
        let full = SecretGraph::Full;
        assert_eq!(full.edge_count_capped(&d, 10), 11);
        assert_eq!(
            full.edge_count_capped(&d, u64::MAX - 1),
            full.edge_count(&d)
        );
    }

    #[test]
    fn find_edge_stops_early_and_agrees_with_scan() {
        let d = Domain::line(100).unwrap();
        let g = SecretGraph::L1Threshold { theta: 2 };
        let mut visited = 0usize;
        let hit = g.find_edge(&d, |x, _| {
            visited += 1;
            x >= 50
        });
        assert_eq!(hit.map(|(x, _)| x), Some(50));
        assert!(visited < 2 * g.edge_count(&d) as usize);
        assert!(g.find_edge(&d, |_, _| false).is_none());
    }

    #[test]
    fn custom_graph_enumeration() {
        let d = Domain::line(5).unwrap();
        let g = SecretGraph::Custom(Graph::from_edges(5, &[(3, 1), (0, 4), (2, 3)]));
        let mut edges = collected_edges(&g, &d);
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 4), (1, 3), (2, 3)]);
        assert_eq!(g.edge_count(&d), 3);
    }

    #[test]
    fn structured_enumeration_is_linear_in_edges() {
        // A 4096-cell θ=4 line has ~4·|T| edges; the enumeration must
        // visit exactly that many pairs, not |T|²/2 ≈ 8.4M.
        let d = Domain::line(4096).unwrap();
        let g = SecretGraph::L1Threshold { theta: 4 };
        let mut visited = 0u64;
        g.for_each_edge(&d, |_, _| visited += 1);
        assert_eq!(visited, g.edge_count(&d));
        assert_eq!(visited, 4 * 4096 - (1 + 2 + 3 + 4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On random small multi-attribute domains, every variant's
        /// structured enumeration equals the all-pairs `is_edge` scan.
        #[test]
        fn enumeration_matches_is_edge_oracle(
            cards in proptest::collection::vec(1usize..5, 1..4),
            theta in 1u64..6,
            width in 1usize..5,
        ) {
            let domain = Domain::from_cardinalities(&cards).unwrap();
            let graphs = [
                SecretGraph::Full,
                SecretGraph::Attribute,
                SecretGraph::L1Threshold { theta },
                SecretGraph::Partition(Partition::intervals(domain.size(), width)),
            ];
            for g in &graphs {
                let reference = reference_edges(g, &domain);
                let mut enumerated = collected_edges(g, &domain);
                enumerated.sort_unstable();
                prop_assert_eq!(&enumerated, &reference, "{}", g.label());
                prop_assert_eq!(g.edge_count(&domain), reference.len() as u64);
            }
        }
    }
}
