//! Lift/lower analysis and the sparsity check (Definitions 8.1, 8.2).
//!
//! For a directed tuple change `x → y` and a count query `q_φ`, exactly one
//! of three cases holds: the count *lifts* (`¬φ(x) ∧ φ(y)`), *lowers*
//! (`φ(x) ∧ ¬φ(y)`), or stays put. Constraints `Q` are **sparse** w.r.t.
//! the secret graph `G` when every edge lifts at most one query in `Q` and
//! lowers at most one query in `Q` — the condition under which the policy
//! graph of Definition 8.3 captures the full structure of `S(h, P)`.

use crate::error::ConstraintError;
use bf_core::Predicate;
use bf_domain::Domain;
use bf_graph::SecretGraph;

/// The effect of a directed change `x → y` on a constraint set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LiftLower {
    /// Indices of queries lifted by the change.
    pub lifted: Vec<usize>,
    /// Indices of queries lowered by the change.
    pub lowered: Vec<usize>,
}

impl LiftLower {
    /// Analyzes the change `x → y` against every query.
    pub(crate) fn analyze(queries: &[Predicate], x: usize, y: usize) -> Self {
        let mut lifted = Vec::new();
        let mut lowered = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let fx = q.eval(x);
            let fy = q.eval(y);
            if !fx && fy {
                lifted.push(i);
            } else if fx && !fy {
                lowered.push(i);
            }
        }
        Self { lifted, lowered }
    }

    /// Whether this single change respects sparsity (≤1 lift, ≤1 lower).
    pub(crate) fn is_sparse(&self) -> bool {
        self.lifted.len() <= 1 && self.lowered.len() <= 1
    }
}

/// Default cap on `|T|` for scanning the **complete** secret graph (whose
/// edge set is genuinely `Θ(|T|²)`). Structured graphs are capped on the
/// number of *actual* edges instead — see [`check_sparse`].
pub const DEFAULT_SCAN_CAP: usize = 4096;

/// Validates sizes and checks Definition 8.2 sparsity of `queries` w.r.t.
/// the secret graph by scanning every edge of `G`.
///
/// Edges are enumerated structurally (`bf_graph::enumerate`), so the scan
/// costs `O(|E| · |Q|)` — for an `L1Threshold` or `Attribute` graph that
/// is near-linear in `|T|`, and domains far beyond the old all-pairs cap
/// are accepted. The work bound is expressed as an **edge budget** of
/// `scan_cap²` (the same worst-case work the old `|T| ≤ scan_cap` rule
/// permitted): the complete graph keeps the legacy `|T|` cap, every other
/// variant is rejected only when its actual edge count exceeds the
/// budget.
///
/// # Errors
///
/// * [`ConstraintError::PredicateSizeMismatch`] for mis-sized predicates,
/// * [`ConstraintError::DomainTooLargeForScan`] for a complete graph past
///   the `|T|` cap,
/// * [`ConstraintError::TooManyEdgesForScan`] for a structured graph past
///   the edge budget,
/// * [`ConstraintError::NotSparse`] naming the first offending edge.
pub fn check_sparse(
    domain: &Domain,
    graph: &SecretGraph,
    queries: &[Predicate],
    scan_cap: usize,
) -> Result<(), ConstraintError> {
    for q in queries {
        if q.domain_size() != domain.size() {
            return Err(ConstraintError::PredicateSizeMismatch {
                expected: domain.size(),
                got: q.domain_size(),
            });
        }
    }
    match graph {
        SecretGraph::Full => {
            if domain.size() > scan_cap {
                return Err(ConstraintError::DomainTooLargeForScan {
                    size: domain.size(),
                    cap: scan_cap,
                });
            }
        }
        _ => {
            let budget = (scan_cap as u64).saturating_mul(scan_cap as u64);
            // Capped counting: stops at budget + 1, so rejecting an
            // over-budget graph never costs more than the budget itself.
            let edges = graph.edge_count_capped(domain, budget);
            if edges > budget {
                return Err(ConstraintError::TooManyEdgesForScan { edges, cap: budget });
            }
        }
    }
    // Sparsity is symmetric: x→y lifts what y→x lowers. One direction
    // suffices, so scanning each undirected edge once is enough.
    if let Some((x, y)) = graph.find_edge(domain, |x, y| {
        !LiftLower::analyze(queries, x, y).is_sparse()
    }) {
        let ll = LiftLower::analyze(queries, x, y);
        return Err(ConstraintError::NotSparse {
            x,
            y,
            lifted: ll.lifted,
            lowered: ll.lowered,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc_domain() -> Domain {
        // Section 8's running example: A1={a1,a2}, A2={b1,b2}, A3={c1..c3}.
        Domain::from_cardinalities(&[2, 2, 3]).unwrap()
    }

    /// The four marginal queries of Figure 3(a): q_i fixes (A1, A2).
    fn marginal_queries(domain: &Domain) -> Vec<Predicate> {
        let mut out = Vec::new();
        for a1 in 0..2u32 {
            for a2 in 0..2u32 {
                out.push(Predicate::from_fn(domain.size(), |x| {
                    domain.attribute_value(x, 0) == a1 && domain.attribute_value(x, 1) == a2
                }));
            }
        }
        out
    }

    #[test]
    fn example_8_1_is_sparse() {
        let d = abc_domain();
        let qs = marginal_queries(&d);
        assert!(check_sparse(&d, &SecretGraph::Full, &qs, DEFAULT_SCAN_CAP).is_ok());
    }

    #[test]
    fn example_8_1_lift_lower_cases() {
        let d = abc_domain();
        let qs = marginal_queries(&d);
        // (a1,b1,c1) -> (a2,b2,c2): lifts q4 (index 3), lowers q1 (index 0).
        let x = d.encode(&[0, 0, 0]).unwrap();
        let y = d.encode(&[1, 1, 1]).unwrap();
        let ll = LiftLower::analyze(&qs, x, y);
        assert_eq!(ll.lifted, vec![3]);
        assert_eq!(ll.lowered, vec![0]);
        // (a1,b2,c1) -> (a1,b2,c2): neither lifts nor lowers.
        let x = d.encode(&[0, 1, 0]).unwrap();
        let y = d.encode(&[0, 1, 1]).unwrap();
        let ll = LiftLower::analyze(&qs, x, y);
        assert!(ll.lifted.is_empty() && ll.lowered.is_empty());
    }

    #[test]
    fn overlapping_queries_not_sparse() {
        let d = Domain::line(4).unwrap();
        // Two overlapping prefix queries: moving 3 -> 0 lifts both.
        let q1 = Predicate::of_values(4, &[0, 1]);
        let q2 = Predicate::of_values(4, &[0, 1, 2]);
        let err = check_sparse(&d, &SecretGraph::Full, &[q1, q2], DEFAULT_SCAN_CAP).unwrap_err();
        assert!(matches!(err, ConstraintError::NotSparse { .. }));
    }

    #[test]
    fn narrow_graph_can_restore_sparsity() {
        // The same overlapping queries are sparse w.r.t. the line graph:
        // adjacent moves cross at most one query boundary.
        let d = Domain::line(4).unwrap();
        let q1 = Predicate::of_values(4, &[0, 1]);
        let q2 = Predicate::of_values(4, &[0, 1, 2]);
        assert!(check_sparse(&d, &SecretGraph::line(), &[q1, q2], DEFAULT_SCAN_CAP).is_ok());
    }

    #[test]
    fn size_mismatch_and_cap() {
        let d = Domain::line(4).unwrap();
        let bad = Predicate::of_values(5, &[0]);
        assert!(matches!(
            check_sparse(&d, &SecretGraph::Full, &[bad], DEFAULT_SCAN_CAP),
            Err(ConstraintError::PredicateSizeMismatch { .. })
        ));
        let big = Domain::line(100).unwrap();
        let q = Predicate::of_values(100, &[0]);
        assert!(matches!(
            check_sparse(&big, &SecretGraph::Full, &[q], 10),
            Err(ConstraintError::DomainTooLargeForScan { .. })
        ));
    }

    #[test]
    fn structured_graphs_scan_past_the_old_domain_cap() {
        // 16384 cells is 4× the old all-pairs cap; the θ=2 line graph has
        // only ~2·|T| edges, so the structured scan accepts it.
        let n = 16_384;
        let d = Domain::line(n).unwrap();
        let queries: Vec<Predicate> = (0..4)
            .map(|i| Predicate::from_fn(n, move |x| x / (n / 4) == i))
            .collect();
        let g = SecretGraph::L1Threshold { theta: 2 };
        assert!(check_sparse(&d, &g, &queries, DEFAULT_SCAN_CAP).is_ok());
        // The complete graph on the same domain is still refused: its
        // edge set genuinely is Θ(|T|²).
        assert!(matches!(
            check_sparse(&d, &SecretGraph::Full, &queries, DEFAULT_SCAN_CAP),
            Err(ConstraintError::DomainTooLargeForScan { .. })
        ));
    }

    #[test]
    fn edge_budget_rejects_effectively_dense_structured_graphs() {
        // A single partition block over 8192 values is a clique of ~33.5M
        // edges — past the 4096² ≈ 16.8M edge budget.
        use bf_domain::Partition;
        let n = 8192;
        let d = Domain::line(n).unwrap();
        let g = SecretGraph::Partition(Partition::single_block(n));
        let q = Predicate::of_values(n, &[0]);
        assert!(matches!(
            check_sparse(&d, &g, &[q], DEFAULT_SCAN_CAP),
            Err(ConstraintError::TooManyEdgesForScan { .. })
        ));
    }

    /// The pre-enumeration all-pairs sparsity verdict, kept as the oracle
    /// the structured scan is property-tested against.
    fn sparse_verdict_all_pairs(
        domain: &Domain,
        graph: &SecretGraph,
        queries: &[Predicate],
    ) -> bool {
        for x in domain.indices() {
            for y in (x + 1)..domain.size() {
                if graph.is_edge(domain, x, y) && !LiftLower::analyze(queries, x, y).is_sparse() {
                    return false;
                }
            }
        }
        true
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// On random domains, secret graphs, and query sets, the
        /// structured `check_sparse` verdict exactly equals the all-pairs
        /// reference verdict.
        #[test]
        fn check_sparse_matches_all_pairs_oracle(
            cards in proptest::collection::vec(1usize..5, 1..4),
            theta in 1u64..5,
            width in 1usize..5,
            qseed in proptest::collection::vec(0usize..10_000, 2..10),
        ) {
            use bf_domain::Partition;
            use proptest::prop_assert_eq;
            let domain = Domain::from_cardinalities(&cards).unwrap();
            let n = domain.size();
            // A couple of random overlapping membership queries.
            let queries: Vec<Predicate> = qseed
                .chunks(3)
                .map(|chunk| {
                    let values: Vec<usize> = chunk.iter().map(|s| s % n).collect();
                    Predicate::of_values(n, &values)
                })
                .collect();
            for graph in [
                SecretGraph::Full,
                SecretGraph::Attribute,
                SecretGraph::L1Threshold { theta },
                SecretGraph::Partition(Partition::intervals(n, width)),
            ] {
                let got = check_sparse(&domain, &graph, &queries, DEFAULT_SCAN_CAP);
                let want = sparse_verdict_all_pairs(&domain, &graph, &queries);
                prop_assert_eq!(
                    got.is_ok(),
                    want,
                    "{}: got {:?}",
                    graph.label(),
                    got
                );
            }
        }
    }
}
