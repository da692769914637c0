//! Marginals (cuboids) as constraint sets, and Theorems 8.4 / 8.5.
//!
//! A marginal `C` projects the database onto attributes `[C]` and publishes
//! every group-by count (Definition 8.4). As a constraint set it is one
//! count query per cell of `×_{A ∈ [C]} A`, so `size(C) = ∏_{A∈[C]} |A|`.

use crate::error::ConstraintError;
use bf_core::{CountConstraint, Predicate};
use bf_domain::{Dataset, Domain};

/// A marginal: a subset of attribute positions `[C]`.
///
/// # Examples
///
/// ```
/// use bf_constraints::Marginal;
/// use bf_domain::Domain;
///
/// let domain = Domain::from_cardinalities(&[2, 4, 5]).unwrap();
/// let m = Marginal::new(vec![0, 1]); // project onto (A1, A2)
/// assert_eq!(m.size(&domain), 8);    // 8 group-by cells
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marginal {
    attrs: Vec<usize>,
}

impl Marginal {
    /// Creates a marginal over the given attribute positions (sorted,
    /// deduplicated).
    pub fn new(mut attrs: Vec<usize>) -> Self {
        attrs.sort_unstable();
        attrs.dedup();
        Self { attrs }
    }

    /// `size(C) = ∏_{A ∈ [C]} |A|`: the number of cells (count queries).
    pub fn size(&self, domain: &Domain) -> usize {
        self.attrs
            .iter()
            .map(|&a| domain.attribute(a).cardinality())
            .product()
    }

    /// Whether `[C] ⊊ A` (a *proper* subset of all attributes) — required
    /// by Theorems 8.4/8.5.
    pub(crate) fn is_proper(&self, domain: &Domain) -> bool {
        self.attrs.len() < domain.arity()
    }

    /// Whether two marginals project onto disjoint attribute sets.
    pub(crate) fn disjoint_from(&self, other: &Marginal) -> bool {
        self.attrs.iter().all(|a| !other.attrs.contains(a))
    }

    /// The marginal's count queries `C^q`: one predicate per cell, in
    /// odometer order over the projected attributes.
    pub fn queries(&self, domain: &Domain) -> Vec<Predicate> {
        let cards: Vec<usize> = self
            .attrs
            .iter()
            .map(|&a| domain.attribute(a).cardinality())
            .collect();
        let cells = cards.iter().product::<usize>();
        let mut out = Vec::with_capacity(cells);
        let mut cursor = vec![0u32; self.attrs.len()];
        for _ in 0..cells {
            let fixed: Vec<(usize, u32)> = self
                .attrs
                .iter()
                .zip(&cursor)
                .map(|(&a, &v)| (a, v))
                .collect();
            out.push(Predicate::from_fn(domain.size(), move |x| {
                fixed
                    .iter()
                    .all(|&(a, v)| domain_attr_value(x, a, domain) == v)
            }));
            // Odometer increment over the projected attributes.
            for i in (0..cursor.len()).rev() {
                cursor[i] += 1;
                if (cursor[i] as usize) < cards[i] {
                    break;
                }
                cursor[i] = 0;
            }
        }
        out
    }

    /// The marginal as observed constraints on a dataset: count queries
    /// paired with their public answers.
    pub fn constraints(&self, dataset: &Dataset) -> Vec<CountConstraint> {
        self.queries(dataset.domain())
            .into_iter()
            .map(|q| CountConstraint::observed(q, dataset))
            .collect()
    }
}

fn domain_attr_value(x: usize, attr: usize, domain: &Domain) -> u32 {
    domain.attribute_value(x, attr)
}

/// Theorem 8.4: for a policy `(T, G^full, I_Q(C))` with one marginal
/// `[C] ⊊ A` known, the histogram sensitivity is exactly
/// `S(h, P) = 2·size(C)`.
///
/// # Errors
///
/// [`ConstraintError::MarginalNotProper`] when `[C] = A` (the theorem's
/// construction of matching neighbors needs a free attribute).
pub fn thm_8_4_sensitivity(domain: &Domain, marginal: &Marginal) -> Result<f64, ConstraintError> {
    if !marginal.is_proper(domain) {
        return Err(ConstraintError::MarginalNotProper);
    }
    Ok(2.0 * marginal.size(domain) as f64)
}

/// Theorem 8.5: for a policy `(T, G^attr, I_Q(C1,…,Cp))` with
/// pairwise-disjoint proper marginals, the histogram sensitivity is
/// exactly `S(h, P) = 2·max_i size(C_i)`.
///
/// # Errors
///
/// * [`ConstraintError::MarginalNotProper`] when some `[C_i] = A`,
/// * [`ConstraintError::MarginalsOverlap`] when two marginals share an
///   attribute.
pub fn thm_8_5_sensitivity(
    domain: &Domain,
    marginals: &[Marginal],
) -> Result<f64, ConstraintError> {
    for (i, m) in marginals.iter().enumerate() {
        if !m.is_proper(domain) {
            return Err(ConstraintError::MarginalNotProper);
        }
        for (j, other) in marginals.iter().enumerate().skip(i + 1) {
            if !m.disjoint_from(other) {
                return Err(ConstraintError::MarginalsOverlap {
                    first: i,
                    second: j,
                });
            }
        }
    }
    let max = marginals.iter().map(|m| m.size(domain)).max().unwrap_or(0);
    Ok(2.0 * max as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_graph::PolicyGraph;
    use crate::sparse::DEFAULT_SCAN_CAP;
    use bf_graph::SecretGraph;

    fn abc_domain() -> Domain {
        Domain::from_cardinalities(&[2, 2, 3]).unwrap()
    }

    #[test]
    fn marginal_size_and_queries() {
        let d = abc_domain();
        let m = Marginal::new(vec![0, 1]);
        assert_eq!(m.size(&d), 4);
        assert!(m.is_proper(&d));
        let qs = m.queries(&d);
        assert_eq!(qs.len(), 4);
        // Each domain value satisfies exactly one cell.
        for x in d.indices() {
            assert_eq!(qs.iter().filter(|q| q.eval(x)).count(), 1);
        }
        // Each cell has |A3| = 3 values.
        for q in &qs {
            assert_eq!(q.support_size(), 3);
        }
    }

    #[test]
    fn marginal_constraints_observed() {
        let d = abc_domain();
        let ds = Dataset::from_rows(d.clone(), vec![0, 1, 6, 11]).unwrap();
        let m = Marginal::new(vec![0]);
        let cs = m.constraints(&ds);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].answer(), 2); // a1: rows 0, 1
        assert_eq!(cs[1].answer(), 2); // a2: rows 6, 11
    }

    #[test]
    fn thm_8_4_matches_policy_graph() {
        // Example 8.3: S(h, P) = 2·size(C) = 8 for the {A1,A2} marginal.
        let d = abc_domain();
        let m = Marginal::new(vec![0, 1]);
        let closed = thm_8_4_sensitivity(&d, &m).unwrap();
        let gp =
            PolicyGraph::build(&d, &SecretGraph::Full, &m.queries(&d), DEFAULT_SCAN_CAP).unwrap();
        assert_eq!(closed, gp.sensitivity_bound());
        assert_eq!(closed, 8.0);
    }

    #[test]
    fn thm_8_4_rejects_full_marginal() {
        let d = abc_domain();
        let m = Marginal::new(vec![0, 1, 2]);
        assert!(matches!(
            thm_8_4_sensitivity(&d, &m),
            Err(ConstraintError::MarginalNotProper)
        ));
    }

    #[test]
    fn thm_8_5_matches_policy_graph() {
        // Disjoint marginals {A1} and {A3} with attribute secrets: the
        // policy graph is a union of cliques; S = 2·max(2, 3) = 6.
        let d = abc_domain();
        let m1 = Marginal::new(vec![0]);
        let m2 = Marginal::new(vec![2]);
        let closed = thm_8_5_sensitivity(&d, &[m1.clone(), m2.clone()]).unwrap();
        assert_eq!(closed, 6.0);
        let mut queries = m1.queries(&d);
        queries.extend(m2.queries(&d));
        let gp =
            PolicyGraph::build(&d, &SecretGraph::Attribute, &queries, DEFAULT_SCAN_CAP).unwrap();
        assert_eq!(gp.sensitivity_bound(), closed);
    }

    #[test]
    fn thm_8_5_rejects_overlap() {
        let d = abc_domain();
        let m1 = Marginal::new(vec![0, 1]);
        let m2 = Marginal::new(vec![1]);
        assert!(matches!(
            thm_8_5_sensitivity(&d, &[m1, m2]),
            Err(ConstraintError::MarginalsOverlap { .. })
        ));
    }

    #[test]
    fn marginals_not_sparse_under_full_secrets_when_multiple() {
        // Two disjoint marginals are NOT sparse w.r.t. the full graph: a
        // change can lower one query in each marginal. That is why Theorem
        // 8.5 uses attribute secrets.
        let d = abc_domain();
        let m1 = Marginal::new(vec![0]);
        let m2 = Marginal::new(vec![2]);
        let mut queries = m1.queries(&d);
        queries.extend(m2.queries(&d));
        assert!(matches!(
            PolicyGraph::build(&d, &SecretGraph::Full, &queries, DEFAULT_SCAN_CAP),
            Err(ConstraintError::NotSparse { .. })
        ));
    }

    #[test]
    fn dedup_and_sort() {
        let m = Marginal::new(vec![2, 0, 2]);
        assert_eq!(m.attrs, &[0, 2]);
    }
}
