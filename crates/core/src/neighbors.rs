//! The neighbor relation `N(P)` (Definition 4.1).
//!
//! Two databases are neighbors w.r.t. a policy `P = (T, G, I_Q)` when
//!
//! 1. both satisfy the constraints (`D1, D2 ∈ I_Q`),
//! 2. they differ in at least one discriminative pair
//!    (`T(D1, D2) ≠ ∅`, where `T(D1, D2)` collects the ids whose tuples
//!    differ along an edge of `G`), and
//! 3. the difference is *minimal*: no `D3 ∈ I_Q` differs from `D1` in a
//!    non-empty strict subset of those discriminative pairs, nor realizes
//!    the same discriminative pairs with strictly fewer tuple changes.
//!
//! Without constraints this collapses to "exactly one tuple changed, along
//! an edge of `G`" — the fast path. With constraints, minimality requires
//! a search over `I_Q`; `NeighborRelation` materializes `I_Q` for small
//! domains so the sensitivity theorems of Section 8 can be verified
//! exactly against the definition.

use crate::error::CoreError;
use crate::policy::Policy;
use bf_domain::Dataset;
use std::collections::BTreeSet;

/// Which reading of Definition 4.1 to apply when constraints are present.
///
/// The definition as printed minimizes first over the set of differing
/// discriminative pairs and then over tuple changes — but it does not
/// forbid a neighbor from *also* containing non-edge "correction" changes
/// that restore the constraints, as long as no comparable database does
/// strictly better (subsets are compared, and incomparable difference
/// sets do not dominate each other). Under an incomplete secret graph
/// this admits neighbors whose histogram distance exceeds `2·|T(D1,D2)|`,
/// which the Section 8 theorems implicitly rule out (their proofs bound
/// `||h(D1) − h(D2)||₁` by `2·|T(D1,D2)|`).
///
/// * [`Literal`](NeighborSemantics::Literal) — Definition 4.1 exactly as
///   printed. Matches the theorems when the secret graph is complete
///   (`G^full`), where every change is discriminative.
/// * [`Aligned`](NeighborSemantics::Aligned) — additionally requires
///   every differing tuple to differ along a secret-graph edge
///   (`Δ(D1,D2) = T(D1,D2)`), the reading the Section 8 proofs use.
///
/// See EXPERIMENTS.md for a concrete witness where the two disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborSemantics {
    /// Definition 4.1 verbatim.
    #[default]
    Literal,
    /// Every differing tuple must lie on a secret-graph edge.
    Aligned,
}

/// A discriminative difference: individual `id` holds `x` in `D1` and `y`
/// in `D2`, with `(x, y)` an edge of the secret graph.
type DiffTriple = (usize, usize, usize);

/// Collects the differing ids between two equal-length row vectors.
fn diffs(rows1: &[usize], rows2: &[usize]) -> Vec<DiffTriple> {
    rows1
        .iter()
        .zip(rows2)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (&a, &b))| (i, a, b))
        .collect()
}

/// `T(D1, D2)`: the subset of differing ids whose value pair is an edge of
/// the policy's secret graph.
fn discriminative_set(policy: &Policy, rows1: &[usize], rows2: &[usize]) -> BTreeSet<DiffTriple> {
    diffs(rows1, rows2)
        .into_iter()
        .filter(|&(_, x, y)| policy.is_secret_pair(x, y))
        .collect()
}

/// Whether `a ⊊ b` for ordered sets, requiring `a` non-empty.
fn proper_nonempty_subset<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> bool {
    !a.is_empty() && a.len() < b.len() && a.is_subset(b)
}

/// Enumerates all neighbors of `d` under the policy.
///
/// Without constraints this is the closed form
/// `{D with one tuple moved along an edge}`; with constraints it filters
/// the materialized `I_Q`.
///
/// # Errors
///
/// [`CoreError::SearchSpaceTooLarge`] when `|T|^n > max_states`.
pub fn enumerate_neighbors(
    policy: &Policy,
    d: &Dataset,
    max_states: f64,
) -> Result<Vec<Dataset>, CoreError> {
    if !policy.has_constraints() {
        let mut out = Vec::new();
        for id in 0..d.len() {
            let x = d.row(id);
            for y in 0..policy.domain().size() {
                if policy.is_secret_pair(x, y) {
                    out.push(d.with_row(id, y)?);
                }
            }
        }
        return Ok(out);
    }
    let relation = NeighborRelation::build(policy.clone(), d.len(), max_states)?;
    Ok(relation
        .neighbors_of(d.rows())
        .into_iter()
        .map(|rows| {
            Dataset::from_rows(policy.domain().clone(), rows)
                .expect("rows drawn from the domain are valid")
        })
        .collect())
}

/// A materialized neighbor relation over `I_Q` for exact, definition-level
/// verification on small domains.
#[derive(Debug, Clone)]
pub(crate) struct NeighborRelation {
    policy: Policy,
    semantics: NeighborSemantics,
    /// All row vectors in `I_Q`.
    instances: Vec<Vec<usize>>,
}

impl NeighborRelation {
    /// Enumerates `I_Q` for databases of `n` rows under the literal
    /// Definition 4.1.
    ///
    /// # Errors
    ///
    /// [`CoreError::SearchSpaceTooLarge`] when `|T|^n > max_states`.
    pub(crate) fn build(policy: Policy, n: usize, max_states: f64) -> Result<Self, CoreError> {
        Self::build_with(policy, n, NeighborSemantics::Literal, max_states)
    }

    /// Enumerates `I_Q` with an explicit neighbor-semantics choice.
    ///
    /// # Errors
    ///
    /// [`CoreError::SearchSpaceTooLarge`] when `|T|^n > max_states`.
    pub(crate) fn build_with(
        policy: Policy,
        n: usize,
        semantics: NeighborSemantics,
        max_states: f64,
    ) -> Result<Self, CoreError> {
        let t = policy.domain().size() as f64;
        let states = t.powi(n as i32);
        if states > max_states {
            return Err(CoreError::SearchSpaceTooLarge {
                states,
                cap: max_states,
            });
        }
        let size = policy.domain().size();
        let mut instances = Vec::new();
        let mut rows = vec![0usize; n];
        loop {
            let ds = Dataset::from_rows(policy.domain().clone(), rows.clone())
                .expect("odometer rows are valid");
            if policy.satisfies_constraints(&ds) {
                instances.push(rows.clone());
            }
            // Odometer increment.
            let mut i = n;
            loop {
                if i == 0 {
                    return Ok(Self {
                        policy,
                        semantics,
                        instances,
                    });
                }
                i -= 1;
                rows[i] += 1;
                if rows[i] < size {
                    break;
                }
                rows[i] = 0;
            }
        }
    }

    /// The materialized `I_Q`.
    pub(crate) fn instances(&self) -> &[Vec<usize>] {
        &self.instances
    }

    /// Minimality check (condition 3): is there no `D3 ∈ I_Q` with a
    /// non-empty `T(D1, D3) ⊊ t12`, or `T(D1, D3) = t12` with
    /// `Δ(D3, D1) ⊊ delta12`?
    fn minimal(
        &self,
        rows1: &[usize],
        t12: &BTreeSet<DiffTriple>,
        delta12: &BTreeSet<DiffTriple>,
    ) -> bool {
        for rows3 in &self.instances {
            let t13 = discriminative_set(&self.policy, rows1, rows3);
            let delta13: BTreeSet<DiffTriple> = diffs(rows1, rows3).into_iter().collect();
            if self.semantics == NeighborSemantics::Aligned && t13.len() != delta13.len() {
                // Aligned semantics compares only against candidates whose
                // every change is discriminative — the D3s the Section 8
                // proofs construct.
                continue;
            }
            if proper_nonempty_subset(&t13, t12) {
                return false;
            }
            if t13 == *t12 && proper_nonempty_subset(&delta13, delta12) {
                return false;
            }
        }
        true
    }

    /// Whether two row vectors are neighbors.
    pub(crate) fn are_neighbors(&self, rows1: &[usize], rows2: &[usize]) -> bool {
        let ds1 =
            Dataset::from_rows(self.policy.domain().clone(), rows1.to_vec()).expect("valid rows");
        let ds2 =
            Dataset::from_rows(self.policy.domain().clone(), rows2.to_vec()).expect("valid rows");
        if !self.policy.satisfies_constraints(&ds1) || !self.policy.satisfies_constraints(&ds2) {
            return false;
        }
        let t12 = discriminative_set(&self.policy, rows1, rows2);
        if t12.is_empty() {
            return false;
        }
        let delta12: BTreeSet<DiffTriple> = diffs(rows1, rows2).into_iter().collect();
        if self.semantics == NeighborSemantics::Aligned && t12.len() != delta12.len() {
            return false;
        }
        self.minimal(rows1, &t12, &delta12)
    }

    /// All neighbors of a row vector inside `I_Q`.
    pub(crate) fn neighbors_of(&self, rows: &[usize]) -> Vec<Vec<usize>> {
        self.instances
            .iter()
            .filter(|cand| self.are_neighbors(rows, cand))
            .cloned()
            .collect()
    }

    /// Every ordered neighbor pair `(i, j)` as indices into
    /// [`Self::instances`] — the raw material for brute-force sensitivity.
    pub(crate) fn all_neighbor_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.instances.len() {
            for j in 0..self.instances.len() {
                if i != j && self.are_neighbors(&self.instances[i], &self.instances[j]) {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CountConstraint, Predicate};
    use bf_domain::Domain;
    use bf_graph::SecretGraph;

    const CAP: f64 = 1e6;

    fn line_policy(size: usize, theta: u64) -> Policy {
        Policy::distance_threshold(Domain::line(size).unwrap(), theta)
    }

    /// `(D1, D2) ∈ N(P)`, decided over the materialized `I_Q`.
    fn are_neighbors(p: &Policy, d1: &Dataset, d2: &Dataset) -> bool {
        NeighborRelation::build(p.clone(), d1.len(), CAP)
            .unwrap()
            .are_neighbors(d1.rows(), d2.rows())
    }

    #[test]
    fn unconstrained_neighbors_are_single_edge_changes() {
        let p = line_policy(5, 1);
        let d1 = Dataset::from_rows(p.domain().clone(), vec![2, 3]).unwrap();
        let adj = d1.with_row(0, 1).unwrap();
        let far = d1.with_row(0, 4).unwrap();
        let two = d1.with_row(0, 1).unwrap().with_row(1, 2).unwrap();
        assert!(are_neighbors(&p, &d1, &adj));
        assert!(!are_neighbors(&p, &d1, &far)); // not an edge
        assert!(!are_neighbors(&p, &d1, &two)); // two changes
        assert!(!are_neighbors(&p, &d1, &d1)); // no change
    }

    #[test]
    fn enumerate_unconstrained() {
        let p = line_policy(4, 1);
        let d = Dataset::from_rows(p.domain().clone(), vec![0]).unwrap();
        let nbrs = enumerate_neighbors(&p, &d, CAP).unwrap();
        // 0 is adjacent only to 1.
        assert_eq!(nbrs.len(), 1);
        assert_eq!(nbrs[0].rows(), &[1]);
    }

    #[test]
    fn dp_neighbors_match_classic_definition() {
        let p = Policy::differential_privacy(Domain::line(3).unwrap());
        let d = Dataset::from_rows(p.domain().clone(), vec![0, 1]).unwrap();
        let nbrs = enumerate_neighbors(&p, &d, CAP).unwrap();
        // Each of 2 rows can move to 2 other values.
        assert_eq!(nbrs.len(), 4);
    }

    #[test]
    fn constrained_neighbors_can_differ_in_many_tuples() {
        // Gender-balance example from Section 4.1: domain {m, f}, constraint
        // fixes #m. Full-domain secrets. Neighbors must flip *two* tuples
        // (one m→f, one f→m).
        let domain = Domain::from_cardinalities(&[2]).unwrap();
        let males = Predicate::of_values(2, &[0]);
        let d1 = Dataset::from_rows(domain.clone(), vec![0, 1]).unwrap();
        let c = CountConstraint::observed(males, &d1);
        let p = Policy::with_constraints(domain, SecretGraph::Full, vec![c]).unwrap();

        let d2 = Dataset::from_rows(p.domain().clone(), vec![1, 0]).unwrap();
        assert!(are_neighbors(&p, &d1, &d2));

        // A database violating the constraint is not a neighbor.
        let bad = Dataset::from_rows(p.domain().clone(), vec![0, 0]).unwrap();
        assert!(!are_neighbors(&p, &d1, &bad));
    }

    #[test]
    fn constrained_minimality_rejects_supersets() {
        // Domain {0,1,2}; constraint: count of {0} is fixed at 1. Moving
        // one tuple 1→2 keeps the constraint and is minimal; moving two
        // tuples (1→2, 2→1 swap) differs in a superset of secret pairs.
        let domain = Domain::from_cardinalities(&[3]).unwrap();
        let d1 = Dataset::from_rows(domain.clone(), vec![0, 1, 2]).unwrap();
        let c = CountConstraint::observed(Predicate::of_values(3, &[0]), &d1);
        let p = Policy::with_constraints(domain, SecretGraph::Full, vec![c]).unwrap();

        let single = Dataset::from_rows(p.domain().clone(), vec![0, 2, 2]).unwrap();
        assert!(are_neighbors(&p, &d1, &single));

        let double = Dataset::from_rows(p.domain().clone(), vec![0, 2, 1]).unwrap();
        assert!(!are_neighbors(&p, &d1, &double));
    }

    #[test]
    fn relation_materializes_iq() {
        let domain = Domain::from_cardinalities(&[2]).unwrap();
        let d1 = Dataset::from_rows(domain.clone(), vec![0, 1]).unwrap();
        let c = CountConstraint::observed(Predicate::of_values(2, &[0]), &d1);
        let p = Policy::with_constraints(domain, SecretGraph::Full, vec![c]).unwrap();
        let rel = NeighborRelation::build(p, 2, CAP).unwrap();
        // I_Q = {(0,1), (1,0)}: exactly one male.
        assert_eq!(rel.instances().len(), 2);
        assert_eq!(rel.all_neighbor_pairs().len(), 2);
    }

    #[test]
    fn search_cap_respected() {
        let p = Policy::differential_privacy(Domain::line(10).unwrap());
        assert!(matches!(
            NeighborRelation::build(p, 20, 1e6),
            Err(CoreError::SearchSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn partition_graph_blocks_cross_block_moves() {
        let domain = Domain::line(4).unwrap();
        let p = Policy::partitioned(domain, bf_domain::Partition::intervals(4, 2));
        let d1 = Dataset::from_rows(p.domain().clone(), vec![0]).unwrap();
        let inside = d1.with_row(0, 1).unwrap();
        let outside = d1.with_row(0, 2).unwrap();
        assert!(are_neighbors(&p, &d1, &inside));
        assert!(!are_neighbors(&p, &d1, &outside));
    }
}
