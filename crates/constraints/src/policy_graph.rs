//! The policy graph `G_P` (Definition 8.3) and the Theorem 8.2 sensitivity
//! bound.
//!
//! Vertices are the count queries of `Q` plus two specials `v⁺` and `v⁻`.
//! For every secret-graph edge `(x, y)` (analyzed as the directed change
//! `x → y`; the reverse direction contributes the reversed arcs):
//!
//! * if the change lifts `q'` and lowers `q`, add arc `q → q'`,
//! * if it lifts `q` without lowering anything, add arc `v⁺ → q`,
//! * if it lowers `q` without lifting anything, add arc `q → v⁻`,
//! * and `v⁺ → v⁻` is always present.
//!
//! Theorem 8.2: for sparse `Q`,
//! `S(h, P) ≤ 2·max{α(G_P), ξ(G_P)}` where `α` is the longest simple
//! cycle length and `ξ` the longest simple `v⁺ → v⁻` path length; the
//! bound is tight in the structured scenarios of Section 8.2.

use crate::error::ConstraintError;
use crate::sparse::{check_sparse, LiftLower};
use bf_core::Predicate;
use bf_domain::Domain;
use bf_graph::{DiGraph, SecretGraph};

/// The directed policy graph `G_P = (Q ∪ {v⁺, v⁻}, E_P)`.
///
/// # Examples
///
/// Example 8.2 / Figure 3 — the {A1, A2} marginal over `T = 2×2×3` with
/// full-domain secrets yields α = 4, ξ = 1 and `S(h, P) = 8`:
///
/// ```
/// use bf_constraints::marginal::Marginal;
/// use bf_constraints::policy_graph::PolicyGraph;
/// use bf_constraints::sparse::DEFAULT_SCAN_CAP;
/// use bf_domain::Domain;
/// use bf_graph::SecretGraph;
///
/// let domain = Domain::from_cardinalities(&[2, 2, 3]).unwrap();
/// let marginal = Marginal::new(vec![0, 1]);
/// let gp = PolicyGraph::build(
///     &domain,
///     &SecretGraph::Full,
///     &marginal.queries(&domain),
///     DEFAULT_SCAN_CAP,
/// ).unwrap();
/// assert_eq!((gp.alpha(), gp.xi()), (4, 1));
/// assert_eq!(gp.sensitivity_bound(), 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct PolicyGraph {
    digraph: DiGraph,
    num_queries: usize,
}

impl PolicyGraph {
    /// Builds `G_P` by scanning every edge of the secret graph. Requires
    /// the constraints to be sparse (Definition 8.2); edges are
    /// enumerated structurally so the scan is `O(|E|·|Q|)`, within the
    /// same caps as [`check_sparse`].
    ///
    /// # Errors
    ///
    /// Propagates [`check_sparse`] errors: size mismatches, over-cap
    /// scans and non-sparse constraint sets.
    pub fn build(
        domain: &Domain,
        graph: &SecretGraph,
        queries: &[Predicate],
        scan_cap: usize,
    ) -> Result<Self, ConstraintError> {
        check_sparse(domain, graph, queries, scan_cap)?;
        let p = queries.len();
        let v_plus = p;
        let v_minus = p + 1;
        let mut digraph = DiGraph::new(p + 2);
        digraph.add_edge(v_plus, v_minus); // rule (iv)
        graph.for_each_edge(domain, |x, y| {
            // Each undirected edge contributes both directed changes.
            for (a, b) in [(x, y), (y, x)] {
                let ll = LiftLower::analyze(queries, a, b);
                match (ll.lowered.first(), ll.lifted.first()) {
                    (Some(&ql), Some(&qf)) => digraph.add_edge(ql, qf),
                    (None, Some(&qf)) => digraph.add_edge(v_plus, qf),
                    (Some(&ql), None) => digraph.add_edge(ql, v_minus),
                    (None, None) => {}
                }
            }
        });
        Ok(Self {
            digraph,
            num_queries: p,
        })
    }

    /// Vertex id of `v⁺`.
    pub(crate) fn v_plus(&self) -> usize {
        self.num_queries
    }

    /// Vertex id of `v⁻`.
    pub(crate) fn v_minus(&self) -> usize {
        self.num_queries + 1
    }

    /// The underlying digraph (query vertices `0..p`, then `v⁺`, `v⁻`).
    pub fn digraph(&self) -> &DiGraph {
        &self.digraph
    }

    /// `α(G_P)`: length of the longest simple directed cycle (0 if
    /// acyclic).
    pub fn alpha(&self) -> usize {
        self.digraph.longest_simple_cycle()
    }

    /// `ξ(G_P)`: length of the longest simple `v⁺ → v⁻` path. At least 1
    /// because `v⁺ → v⁻` is always an arc.
    pub fn xi(&self) -> usize {
        self.digraph
            .longest_simple_path(self.v_plus(), self.v_minus())
            .expect("v+ -> v- arc always exists")
    }

    /// The Theorem 8.2 sensitivity bound `2·max{α, ξ}` for the complete
    /// histogram.
    pub fn sensitivity_bound(&self) -> f64 {
        2.0 * self.alpha().max(self.xi()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::DEFAULT_SCAN_CAP;

    fn abc_domain() -> Domain {
        Domain::from_cardinalities(&[2, 2, 3]).unwrap()
    }

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

    /// Example 8.2 / Figure 3(b): the policy graph of the {A1, A2}
    /// marginal with full-domain secrets has α = 4 and ξ = 1.
    #[test]
    fn example_8_2_policy_graph() {
        let d = abc_domain();
        let qs = marginal_queries(&d);
        let gp = PolicyGraph::build(&d, &SecretGraph::Full, &qs, DEFAULT_SCAN_CAP).unwrap();
        assert_eq!(gp.num_queries, 4);
        assert_eq!(gp.alpha(), 4);
        assert_eq!(gp.xi(), 1);
        // Example 8.3: S(h, P) = 8.
        assert_eq!(gp.sensitivity_bound(), 8.0);
        // Every ordered query pair is an arc (complete digraph on Q).
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    assert!(gp.digraph().has_edge(u, v), "missing arc {u}->{v}");
                }
            }
        }
        // No arcs into v- or out of v+ except (v+, v-).
        assert!(gp.digraph().has_edge(gp.v_plus(), gp.v_minus()));
        assert_eq!(gp.digraph().successors(gp.v_plus()).len(), 1);
    }

    /// A single count query with full-domain secrets: the change can lift
    /// without lowering (and vice versa), so v⁺ → q → v⁻ gives ξ = 2 and
    /// S(h, P) ≤ 4 — matching the unconstrained histogram sensitivity 2
    /// only through the tighter neighbor analysis; the theorem's bound is
    /// 2·max{0, 2} = 4.
    #[test]
    fn single_query_bound() {
        let d = Domain::line(4).unwrap();
        let q = Predicate::of_values(4, &[0, 1]);
        let gp = PolicyGraph::build(&d, &SecretGraph::Full, &[q], DEFAULT_SCAN_CAP).unwrap();
        assert_eq!(gp.alpha(), 0);
        assert_eq!(gp.xi(), 2); // v+ -> q -> v-
        assert_eq!(gp.sensitivity_bound(), 4.0);
    }

    /// Corollary 8.3: the bound never exceeds `2·max{|Q|, 1}` (cycles and
    /// v⁺→v⁻ paths visit each query vertex at most once).
    #[test]
    fn corollary_8_3_bound() {
        let d = abc_domain();
        let qs = marginal_queries(&d);
        let gp = PolicyGraph::build(&d, &SecretGraph::Full, &qs, DEFAULT_SCAN_CAP).unwrap();
        assert!(gp.sensitivity_bound() <= 2.0 * (qs.len().max(1)) as f64);
    }

    /// With partitioned secrets aligned to the constrained counts, no edge
    /// lifts or lowers anything: the policy graph has only the (v⁺, v⁻)
    /// arc, α = 0, ξ = 1, bound 2.
    #[test]
    fn aligned_partition_gives_minimal_graph() {
        let d = Domain::line(6).unwrap();
        let part = bf_domain::Partition::intervals(6, 3);
        let graph = SecretGraph::Partition(part);
        let q1 = Predicate::of_values(6, &[0, 1, 2]);
        let q2 = Predicate::of_values(6, &[3, 4, 5]);
        let gp = PolicyGraph::build(&d, &graph, &[q1, q2], DEFAULT_SCAN_CAP).unwrap();
        assert_eq!(gp.alpha(), 0);
        assert_eq!(gp.xi(), 1);
        assert_eq!(gp.sensitivity_bound(), 2.0);
    }

    /// Line-graph secrets with contiguous interval constraints: each unit
    /// move crosses at most one boundary, arcs chain the intervals, and the
    /// longest cycle alternates between adjacent intervals (length 2).
    #[test]
    fn interval_constraints_on_line_graph() {
        let d = Domain::line(6).unwrap();
        let q1 = Predicate::of_values(6, &[0, 1]);
        let q2 = Predicate::of_values(6, &[2, 3]);
        let q3 = Predicate::of_values(6, &[4, 5]);
        let gp =
            PolicyGraph::build(&d, &SecretGraph::line(), &[q1, q2, q3], DEFAULT_SCAN_CAP).unwrap();
        // Moves 1<->2 swap q1/q2; moves 3<->4 swap q2/q3. All moves lift
        // one and lower one, so no v+/v- arcs beyond the default.
        assert_eq!(gp.alpha(), 2);
        assert_eq!(gp.xi(), 1);
        assert_eq!(gp.sensitivity_bound(), 4.0);
    }

    #[test]
    fn not_sparse_propagates() {
        let d = Domain::line(4).unwrap();
        let q1 = Predicate::of_values(4, &[0, 1]);
        let q2 = Predicate::of_values(4, &[0, 1, 2]);
        assert!(matches!(
            PolicyGraph::build(&d, &SecretGraph::Full, &[q1, q2], DEFAULT_SCAN_CAP),
            Err(ConstraintError::NotSparse { .. })
        ));
    }
}
