//! Policy-specific global sensitivity `S(f, P)` (Definition 5.1).
//!
//! `S(f, P) = max_{(D1,D2) ∈ N(P)} ||f(D1) − f(D2)||₁`. The Laplace
//! mechanism with scale `S(f, P)/ε` satisfies `(ε, P)`-Blowfish privacy
//! (Theorem 5.1). Because `N(P) ⊆ N` always, `S(f, P) ≤ S(f)` and Blowfish
//! never adds more noise than differential privacy (Lemma 5.2).
//!
//! This module provides:
//!
//! * closed-form sensitivities for the paper's workloads (histograms,
//!   cumulative histograms, k-means `q_size`/`q_sum`, linear queries) on
//!   constraint-free policies, and
//! * an exhaustive [`brute_force_sensitivity`] that evaluates the
//!   definition literally over a materialized neighbor relation — the
//!   ground truth the closed forms and the Section 8 theorems are tested
//!   against.

use crate::error::CoreError;
use crate::neighbors::NeighborRelation;
use crate::policy::Policy;
use bf_domain::Dataset;
use bf_graph::SecretGraph;

/// L1 distance between two query outputs.
pub(crate) fn l1_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Exhaustive `S(f, P)` of the vector-valued query `f : I → R^d` over
/// all neighbor pairs of databases with `n` rows. Exponential in
/// `n·log|T|`; use only on verification-scale policies (the cap guards
/// against accidents).
///
/// # Errors
///
/// [`CoreError::SearchSpaceTooLarge`] when `|T|^n` exceeds `max_states`.
pub fn brute_force_sensitivity(
    policy: &Policy,
    n: usize,
    query: &dyn Fn(&Dataset) -> Vec<f64>,
    max_states: f64,
) -> Result<f64, CoreError> {
    brute_force_sensitivity_with(
        policy,
        n,
        query,
        crate::neighbors::NeighborSemantics::Literal,
        max_states,
    )
}

/// [`brute_force_sensitivity`] with an explicit neighbor-semantics choice
/// (see [`crate::neighbors::NeighborSemantics`] — the Section 8 theorems
/// use the *aligned* reading).
///
/// # Errors
///
/// [`CoreError::SearchSpaceTooLarge`] when `|T|^n` exceeds `max_states`.
pub fn brute_force_sensitivity_with(
    policy: &Policy,
    n: usize,
    query: &dyn Fn(&Dataset) -> Vec<f64>,
    semantics: crate::neighbors::NeighborSemantics,
    max_states: f64,
) -> Result<f64, CoreError> {
    let relation = NeighborRelation::build_with(policy.clone(), n, semantics, max_states)?;
    let datasets: Vec<Dataset> = relation
        .instances()
        .iter()
        .map(|rows| Dataset::from_rows(policy.domain().clone(), rows.clone()).expect("valid rows"))
        .collect();
    let outputs: Vec<Vec<f64>> = datasets.iter().map(query).collect();
    let mut best: f64 = 0.0;
    for (i, j) in relation.all_neighbor_pairs() {
        best = best.max(l1_diff(&outputs[i], &outputs[j]));
    }
    Ok(best)
}

/// Closed-form policy sensitivity of the **complete histogram** `h_T` for
/// constraint-free policies: `2` whenever the secret graph has at least one
/// edge (one tuple moves between two cells), else `0`.
///
/// With constraints the problem is NP-hard in general (Theorem 8.1); use
/// `bf-constraints` for the sparse-constraint machinery.
pub fn histogram_sensitivity(policy: &Policy) -> f64 {
    assert!(
        !policy.has_constraints(),
        "use bf-constraints for constrained histogram sensitivity"
    );
    let domain = policy.domain();
    let has_edge = match policy.graph() {
        SecretGraph::Full | SecretGraph::Attribute => domain.size() > 1,
        SecretGraph::L1Threshold { .. } => domain.size() > 1,
        SecretGraph::Partition(p) => p.block_sizes().iter().any(|&s| s > 1),
        SecretGraph::Custom(g) => g.num_edges() > 0,
    };
    if has_edge {
        2.0
    } else {
        0.0
    }
}

/// Closed-form policy sensitivity of the **histogram over a partition**
/// `h_P`: `2` if some edge of the secret graph crosses two blocks of the
/// query partition, else `0`.
///
/// In particular `S(h_P, (T, G^P, I_n)) = 0` when the query partition is
/// the policy partition (or any coarsening) — such histograms can be
/// released *exactly* (Section 5).
pub fn partition_histogram_sensitivity(
    policy: &Policy,
    query_partition: &bf_domain::Partition,
) -> f64 {
    assert!(!policy.has_constraints());
    let domain = policy.domain();
    assert_eq!(query_partition.domain_size(), domain.size());
    let crossing = match policy.graph() {
        SecretGraph::Partition(policy_part) => {
            // An edge exists between x ≠ y in the same policy block; it
            // crosses the query partition iff some non-singleton policy
            // block spans two query blocks.
            policy_part.blocks().into_iter().any(|block| {
                block.len() > 1 && {
                    let first = query_partition.block_of(block[0]);
                    block.iter().any(|&x| query_partition.block_of(x) != first)
                }
            })
        }
        SecretGraph::Full => query_partition.num_blocks() > 1,
        graph => graph
            .find_edge(domain, |x, y| !query_partition.same_block(x, y))
            .is_some(),
    };
    if crossing {
        2.0
    } else {
        0.0
    }
}

/// Policy sensitivity of the **cumulative histogram** `S_T`: the largest
/// *index span* of any secret-graph edge, `max_{(x,y)∈E} |x − y|` over
/// domain indices — a tuple moving from `x` to `y` changes exactly the
/// prefix counts between them, by 1 each (Section 7).
///
/// On a totally ordered (one-attribute) domain the index span of an edge
/// is its L1 length, and the closed forms are O(1):
///
/// * full graph → `|T| − 1` (ordinary DP),
/// * `G^{L1,θ}` → `θ`,
/// * line graph → `1`.
///
/// On a multi-attribute domain the prefixes run over the row-major index
/// order and one step of an early attribute spans many indices — on
/// `3 × 4` cells `G^{L1,1}` has span 4, not 1, `G^attr` 8, not 3 — so
/// the definition is evaluated over the edges (a cold path: callers cache
/// it per policy).
pub fn cumulative_histogram_sensitivity(policy: &Policy) -> f64 {
    assert!(!policy.has_constraints());
    let domain = policy.domain();
    match policy.graph() {
        graph if domain.arity() == 1 => graph.max_edge_l1(domain) as f64,
        SecretGraph::Full => domain.size().saturating_sub(1) as f64,
        graph => {
            let mut span = 0;
            graph.for_each_edge(domain, |x, y| span = span.max(x.abs_diff(y)));
            span as f64
        }
    }
}

/// Closed-form policy sensitivity of the k-means **sum query** `q_sum` in
/// the *discrete ordinal embedding* of the domain, per Lemma 6.1:
/// `2 · max_{(x,y)∈E} ||x − y||₁` cells:
///
/// * full graph → `2·d(T)`,
/// * `G^attr` → `2·max_A (|A|−1)`,
/// * `G^{L1,θ}` → `2θ`,
/// * `G^P` → `2·max_P d(P)`.
///
/// Continuous-embedding variants (physical units) live in
/// `bf-mechanisms::kmeans`, scaled by cell widths.
pub fn qsum_sensitivity_cells(policy: &Policy) -> f64 {
    assert!(!policy.has_constraints());
    2.0 * policy.graph().max_edge_l1(policy.domain()) as f64
}

/// Closed-form policy sensitivity of a **linear query**
/// `f_w(D) = Σ_x w(x)·c(x)`: the largest weight difference across a secret
/// edge, `max_{(x,y)∈E} |w(x) − w(y)|`.
///
/// For the full graph this is `max w − min w` (matching the paper's
/// `(b−a)·max_i w_i` example structure); for `G^{d,θ}` it only compares
/// values within threshold θ.
pub(crate) fn linear_query_sensitivity(policy: &Policy, weights: &[f64]) -> f64 {
    assert!(!policy.has_constraints());
    let domain = policy.domain();
    assert_eq!(weights.len(), domain.size());
    match policy.graph() {
        SecretGraph::Full => {
            let max = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = weights.iter().cloned().fold(f64::INFINITY, f64::min);
            if domain.size() > 1 {
                max - min
            } else {
                0.0
            }
        }
        graph => {
            // Structured edge enumeration: O(|E|) instead of the old
            // all-pairs O(|T|²) candidate scan (see bf_graph::enumerate).
            let mut best: f64 = 0.0;
            graph.for_each_edge(domain, |x, y| {
                best = best.max((weights[x] - weights[y]).abs());
            });
            best
        }
    }
}

/// Policy sensitivity of a single **range count** `q[lo, hi]`
/// (Definition 7.2; inclusive endpoints) released stand-alone: a single
/// move changes the count by at most 1 (the tuple either enters or
/// leaves the range), so the sensitivity is 1 when some secret edge
/// crosses the range boundary and 0 when none does. A *connected* graph
/// — `G^full`, `G^attr`, and `G^{L1,θ}` with θ ≥ 1, on any domain — has
/// such an edge exactly when the range meets the domain in a non-empty
/// proper subset, which is `O(1)` to decide; the other graphs enumerate
/// their actual edges and stop at the first crossing (`O(|E|)` worst
/// case). Endpoints are not validated: past-the-end or inverted ones
/// are read as the set `[lo, hi] ∩ T`.
pub(crate) fn range_sensitivity(policy: &Policy, lo: usize, hi: usize) -> f64 {
    let domain = policy.domain();
    let inside = |x: usize| lo <= x && x <= hi;
    let crossing = match policy.graph() {
        SecretGraph::Full | SecretGraph::Attribute | SecretGraph::L1Threshold { theta: 1.. } => {
            let n = domain.size();
            lo <= hi && lo < n && (lo > 0 || hi < n - 1)
        }
        graph => graph
            .find_edge(domain, |x, y| inside(x) != inside(y))
            .is_some(),
    };
    if crossing {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::{Domain, Partition};

    const CAP: f64 = 2e6;

    /// The complete histogram as a query closure.
    fn hist_query() -> impl Fn(&Dataset) -> Vec<f64> {
        |d: &Dataset| d.histogram().counts().to_vec()
    }

    /// The cumulative histogram as a query closure.
    fn cum_query() -> impl Fn(&Dataset) -> Vec<f64> {
        |d: &Dataset| d.histogram().cumulative().prefixes().to_vec()
    }

    #[test]
    fn histogram_closed_form_matches_brute_force() {
        for (policy, _name) in [
            (Policy::differential_privacy(Domain::line(4).unwrap()), "dp"),
            (
                Policy::distance_threshold(Domain::line(4).unwrap(), 2),
                "theta2",
            ),
            (
                Policy::partitioned(Domain::line(4).unwrap(), Partition::intervals(4, 2)),
                "part",
            ),
        ] {
            let q = hist_query();
            let bf = brute_force_sensitivity(&policy, 2, &q, CAP).unwrap();
            assert_eq!(bf, histogram_sensitivity(&policy), "{}", policy.label());
        }
    }

    #[test]
    fn histogram_sensitivity_zero_for_singleton_blocks() {
        let p = Policy::partitioned(Domain::line(3).unwrap(), Partition::singletons(3));
        assert_eq!(histogram_sensitivity(&p), 0.0);
    }

    #[test]
    fn cumulative_closed_form_matches_brute_force() {
        for theta in [1u64, 2, 3] {
            let policy = Policy::distance_threshold(Domain::line(4).unwrap(), theta);
            let q = cum_query();
            let bf = brute_force_sensitivity(&policy, 2, &q, CAP).unwrap();
            assert_eq!(
                bf,
                cumulative_histogram_sensitivity(&policy),
                "theta={theta}"
            );
        }
        // Full graph: |T| - 1.
        let dp = Policy::differential_privacy(Domain::line(4).unwrap());
        assert_eq!(cumulative_histogram_sensitivity(&dp), 3.0);
        let q = cum_query();
        assert_eq!(brute_force_sensitivity(&dp, 2, &q, CAP).unwrap(), 3.0);
    }

    #[test]
    fn partition_histogram_exact_release() {
        // Policy partition == query partition → sensitivity 0.
        let d = Domain::line(6).unwrap();
        let part = Partition::intervals(6, 2);
        let p = Policy::partitioned(d, part.clone());
        assert_eq!(partition_histogram_sensitivity(&p, &part), 0.0);
        // Coarser query partition also 0.
        let coarser = Partition::intervals(6, 3);
        // blocks {0,1},{2,3},{4,5} within coarser {0,1,2},{3,4,5}? Block
        // {2,3} spans two coarse blocks → crossing → 2.
        assert_eq!(partition_histogram_sensitivity(&p, &coarser), 2.0);
        // Query = singletons: edges stay within policy blocks but cross
        // singleton query blocks → 2.
        assert_eq!(
            partition_histogram_sensitivity(&p, &Partition::singletons(6)),
            2.0
        );
    }

    #[test]
    fn partition_histogram_full_graph() {
        let d = Domain::line(4).unwrap();
        let p = Policy::differential_privacy(d);
        assert_eq!(
            partition_histogram_sensitivity(&p, &Partition::intervals(4, 2)),
            2.0
        );
        assert_eq!(
            partition_histogram_sensitivity(&p, &Partition::single_block(4)),
            0.0
        );
    }

    #[test]
    fn qsum_closed_forms() {
        let d = Domain::from_cardinalities(&[4, 3]).unwrap();
        assert_eq!(
            qsum_sensitivity_cells(&Policy::differential_privacy(d.clone())),
            2.0 * 5.0
        );
        assert_eq!(
            qsum_sensitivity_cells(&Policy::attribute(d.clone())),
            2.0 * 3.0
        );
        assert_eq!(
            qsum_sensitivity_cells(&Policy::distance_threshold(d, 2)),
            4.0
        );
    }

    #[test]
    fn linear_query_sensitivity_thresholds() {
        let d = Domain::line(5).unwrap();
        let w = vec![0.0, 1.0, 2.0, 3.0, 10.0];
        let full = Policy::differential_privacy(d.clone());
        assert_eq!(linear_query_sensitivity(&full, &w), 10.0);
        let near = Policy::distance_threshold(d, 1);
        assert_eq!(linear_query_sensitivity(&near, &w), 7.0); // |3-10|
    }

    /// The pre-enumeration all-pairs reference scan for the linear-query
    /// sensitivity, kept as the oracle the structured path is
    /// property-tested against.
    fn linear_sensitivity_all_pairs(policy: &Policy, weights: &[f64]) -> f64 {
        linear_sensitivity_all_pairs_rows(policy, weights, policy.domain().indices())
    }

    /// The rows `x ∈ rows` of that scan: every `y > x` is tested.
    fn linear_sensitivity_all_pairs_rows(
        policy: &Policy,
        weights: &[f64],
        rows: std::ops::Range<usize>,
    ) -> f64 {
        let domain = policy.domain();
        let graph = policy.graph();
        let mut best: f64 = 0.0;
        for x in rows {
            for y in (x + 1)..domain.size() {
                if graph.is_edge(domain, x, y) {
                    best = best.max((weights[x] - weights[y]).abs());
                }
            }
        }
        best
    }

    /// The cases the retired vertex-sharded reduction was checked on —
    /// single- and multi-attribute domains under `G^attr` and
    /// `G^{L1,θ}`, and an edgeless graph — against the all-pairs oracle.
    #[test]
    fn linear_sensitivity_matches_all_pairs_on_structured_families() {
        for cards in [vec![64], vec![8, 9], vec![3, 5, 7]] {
            let domain = Domain::from_cardinalities(&cards).unwrap();
            let weights: Vec<f64> = (0..domain.size())
                .map(|x| ((x * 31 + 17) % 101) as f64)
                .collect();
            for policy in [
                Policy::attribute(domain.clone()),
                Policy::distance_threshold(domain.clone(), 1),
                Policy::distance_threshold(domain.clone(), 3),
            ] {
                assert_eq!(
                    linear_query_sensitivity(&policy, &weights),
                    linear_sensitivity_all_pairs(&policy, &weights),
                    "{} on {cards:?}",
                    policy.label()
                );
            }
        }
        let lone = Policy::distance_threshold(Domain::line(1).unwrap(), 2);
        assert_eq!(linear_query_sensitivity(&lone, &[99.0]), 0.0);
    }

    /// The one scaling claim the retired `scaling` bench asserted: on the
    /// 65 536-cell `G^{L1,4}` policy the structured edge enumeration is
    /// ≥ 20× faster cold than the all-pairs scan it replaced (11 158× in
    /// BENCH_PR2.json). The whole scan is 2.1 × 10⁹ edge tests — 19 s
    /// optimised — so the oracle runs its first 512 rows only: if that
    /// 1/128th already costs 20 full structured scans, the claim holds
    /// with room to spare, on any build profile.
    #[test]
    fn structured_cold_sensitivity_is_20x_the_all_pairs_scan_at_64k() {
        use std::time::Instant;
        let n = 65_536;
        let policy = Policy::distance_threshold(Domain::line(n).unwrap(), 4);
        let weights: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64).collect();
        let mut structured = f64::INFINITY;
        let mut value = 0.0;
        for _ in 0..3 {
            let start = Instant::now();
            value = std::hint::black_box(linear_query_sensitivity(&policy, &weights));
            structured = structured.min(start.elapsed().as_secs_f64());
        }
        let start = Instant::now();
        let sliced = linear_sensitivity_all_pairs_rows(&policy, &weights, 0..512);
        let oracle_slice = start.elapsed().as_secs_f64();
        assert_eq!(sliced, value, "the weights repeat every 97 cells");
        assert!(
            oracle_slice >= 20.0 * structured,
            "512 of the oracle's 65 536 rows took {oracle_slice:.4} s, a structured scan {structured:.4} s"
        );
    }

    /// All-pairs reference for the partition-histogram crossing check.
    fn partition_histogram_all_pairs(policy: &Policy, query_partition: &Partition) -> f64 {
        let domain = policy.domain();
        let graph = policy.graph();
        for x in domain.indices() {
            for y in (x + 1)..domain.size() {
                if graph.is_edge(domain, x, y) && !query_partition.same_block(x, y) {
                    return 2.0;
                }
            }
        }
        0.0
    }

    #[test]
    fn partition_histogram_singleton_blocks_regression() {
        // Regression for the dead guard `block.windows(1).count() > 0`
        // (true for every non-empty block): singleton policy blocks have
        // no edges, so nothing can cross any query partition and the
        // sensitivity must be 0 — even against the singleton query
        // partition, where any edge at all would cross.
        let d = Domain::line(5).unwrap();
        let p = Policy::partitioned(d, Partition::singletons(5));
        for query in [
            Partition::singletons(5),
            Partition::intervals(5, 2),
            Partition::single_block(5),
        ] {
            assert_eq!(partition_histogram_sensitivity(&p, &query), 0.0);
            assert_eq!(partition_histogram_all_pairs(&p, &query), 0.0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// On random domains and policies across every `SecretGraph`
        /// variant, the enumeration-based sensitivities exactly equal
        /// the old all-pairs reference scans.
        #[test]
        fn structured_sensitivities_match_all_pairs_oracle(
            cards in proptest::collection::vec(1usize..5, 1..4),
            theta in 1u64..5,
            width in 1usize..5,
            wseed in proptest::collection::vec(0u32..1000, 60),
            eseed in proptest::collection::vec(0usize..10_000, 0..12),
        ) {
            use bf_graph::Graph;
            use proptest::prop_assert_eq;
            let domain = Domain::from_cardinalities(&cards).unwrap();
            let n = domain.size();
            let weights: Vec<f64> =
                (0..n).map(|i| wseed[i % wseed.len()] as f64 / 7.0).collect();
            let qpart = Partition::intervals(n, width);
            let mut custom = Graph::new(n);
            for pair in eseed.chunks(2) {
                if let [a, b] = pair {
                    custom.add_edge(a % n, b % n);
                }
            }
            for policy in [
                Policy::differential_privacy(domain.clone()),
                Policy::attribute(domain.clone()),
                Policy::distance_threshold(domain.clone(), theta),
                Policy::partitioned(domain.clone(), Partition::intervals(n, width)),
                Policy::new(domain.clone(), SecretGraph::Custom(custom.clone())),
            ] {
                prop_assert_eq!(
                    linear_query_sensitivity(&policy, &weights),
                    linear_sensitivity_all_pairs(&policy, &weights),
                    "linear, {}",
                    policy.label()
                );
                prop_assert_eq!(
                    partition_histogram_sensitivity(&policy, &qpart),
                    partition_histogram_all_pairs(&policy, &qpart),
                    "partition histogram, {}",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn brute_force_on_constrained_policy() {
        // Cardinality-style constraint: count of value 0 fixed. Histogram
        // sensitivity doubles: a neighbor changes 2 tuples.
        use crate::constraint::{CountConstraint, Predicate};
        use bf_graph::SecretGraph;
        let domain = Domain::from_cardinalities(&[2]).unwrap();
        let d1 = Dataset::from_rows(domain.clone(), vec![0, 1]).unwrap();
        let c = CountConstraint::observed(Predicate::of_values(2, &[0]), &d1);
        let p = Policy::with_constraints(domain, SecretGraph::Full, vec![c]).unwrap();
        let q = hist_query();
        // Neighbors swap one 0 and one 1 → histogram L1 distance 4? No:
        // counts (1,1) -> (1,1): swapping values between two ids keeps the
        // histogram identical. S(h,P) = 0 here.
        assert_eq!(brute_force_sensitivity(&p, 2, &q, CAP).unwrap(), 0.0);
    }

    #[test]
    fn range_sensitivity_on_threshold_and_partition_graphs() {
        let p1 = Policy::distance_threshold(Domain::line(5).unwrap(), 1);
        assert_eq!(range_sensitivity(&p1, 1, 3), 1.0);
        // A policy partitioned so no edge crosses the boundary of [0,1]:
        let part = Partition::intervals(5, 2); // {0,1},{2,3},{4}
        let pp = Policy::partitioned(Domain::line(5).unwrap(), part);
        assert_eq!(range_sensitivity(&pp, 0, 1), 0.0);
    }

    #[test]
    fn range_sensitivity_full_graph_with_unvalidated_endpoints() {
        // QueryClass::Range carries raw endpoints, so the Full-graph
        // short-circuit must match the edge scan even for endpoints
        // outside the domain or inverted.
        let n = 10;
        let full = Policy::differential_privacy(Domain::line(n).unwrap());
        let scan = |lo: usize, hi: usize| {
            let inside = |x: usize| lo <= x && x <= hi;
            let crossing = (0..n).any(|x| (0..n).any(|y| x != y && inside(x) != inside(y)));
            if crossing {
                1.0
            } else {
                0.0
            }
        };
        for (lo, hi) in [
            (5, 20),  // straddles the upper domain edge → crossing
            (12, 13), // entirely past the domain → empty inside-set
            (0, 20),  // covers the whole domain → no crossing
            (0, 9),   // exactly the domain → no crossing
            (7, 3),   // inverted → empty inside-set
            (3, 5),   // ordinary interior range
            (0, 0),   // prefix of one value
            (9, 9),   // suffix of one value
        ] {
            assert_eq!(
                range_sensitivity(&full, lo, hi),
                scan(lo, hi),
                "full-graph range [{lo}, {hi}] on |T|={n}"
            );
        }
    }

    #[test]
    fn range_closed_form_agrees_with_the_edge_scan() {
        // Every (lo, hi) — inverted and past-the-end ones included — under
        // every graph the closed form answers (and θ = 0, which it leaves
        // to the scan), on lines and on multi-attribute domains.
        let mut domains: Vec<Domain> = (1..=12).map(|n| Domain::line(n).unwrap()).collect();
        for cards in [&[2, 2][..], &[4, 3], &[1, 3], &[2, 1, 2], &[4, 3, 2]] {
            domains.push(Domain::from_cardinalities(cards).unwrap());
        }
        for domain in domains {
            let n = domain.size();
            let graphs = (0..=5)
                .map(|theta| SecretGraph::L1Threshold { theta })
                .chain([SecretGraph::Attribute, SecretGraph::Full]);
            for graph in graphs {
                let policy = Policy::new(domain.clone(), graph.clone());
                for lo in 0..n + 3 {
                    for hi in 0..n + 3 {
                        let inside = |x: usize| lo <= x && x <= hi;
                        let scan = graph
                            .find_edge(&domain, |x, y| inside(x) != inside(y))
                            .is_some();
                        assert_eq!(
                            range_sensitivity(&policy, lo, hi),
                            if scan { 1.0 } else { 0.0 },
                            "{} range [{lo}, {hi}] on {domain:?}",
                            graph.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_sensitivity_matches_brute_force() {
        let p = Policy::distance_threshold(Domain::line(4).unwrap(), 1);
        let q = |d: &Dataset| vec![d.histogram().range_count(1, 2).unwrap()];
        let bf = brute_force_sensitivity(&p, 2, &q, CAP).unwrap();
        assert_eq!(bf, range_sensitivity(&p, 1, 2));
    }

    #[test]
    fn linear_sensitivity_matches_brute_force() {
        let d = Domain::line(3).unwrap();
        let w = [1.0, 5.0, 10.0];
        let q = |ds: &Dataset| vec![ds.rows().iter().map(|&r| w[r]).sum()];
        for policy in [
            Policy::differential_privacy(d.clone()),
            Policy::distance_threshold(d.clone(), 1),
        ] {
            let bf = brute_force_sensitivity(&policy, 2, &q, CAP).unwrap();
            assert_eq!(
                bf,
                linear_query_sensitivity(&policy, &w),
                "{}",
                policy.label()
            );
        }
    }
}
