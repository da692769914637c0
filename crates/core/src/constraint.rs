//! Deterministic constraints: the auxiliary knowledge `Q` (Section 3.2).
//!
//! Blowfish models an adversary's background knowledge as publicly known
//! *count query constraints*: conjunctions of `(q_φ, answer)` pairs
//! (Eq. 16). A constraint restricts the possible databases to
//! `I_Q ⊆ I_n`; correlations induced by the constraints are exactly what
//! the Definition 4.1 neighbor relation accounts for.

use crate::error::CoreError;
use bf_domain::Dataset;

/// A predicate `φ` over domain values, stored densely: `mask[x]` is
/// `φ(x)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    mask: Vec<bool>,
}

impl Predicate {
    /// The predicate holding exactly on the listed domain values.
    pub fn of_values(domain_size: usize, values: &[usize]) -> Self {
        let mut mask = vec![false; domain_size];
        for &v in values {
            mask[v] = true;
        }
        Self { mask }
    }

    /// Evaluates a closure over all domain indices.
    pub fn from_fn(domain_size: usize, f: impl Fn(usize) -> bool) -> Self {
        Self {
            mask: (0..domain_size).map(f).collect(),
        }
    }

    /// Whether `φ(x)` holds.
    pub fn eval(&self, x: usize) -> bool {
        self.mask[x]
    }

    /// Domain size the predicate covers.
    pub fn domain_size(&self) -> usize {
        self.mask.len()
    }

    /// Number of domain values satisfying the predicate.
    pub fn support_size(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Domain values satisfying the predicate.
    pub fn support(&self) -> Vec<usize> {
        self.mask
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Whether the supports of two predicates are disjoint.
    pub fn disjoint_from(&self, other: &Predicate) -> bool {
        self.mask.iter().zip(&other.mask).all(|(&a, &b)| !(a && b))
    }

    /// Count `q_φ(D) = Σ_{t∈D} 1_{φ(t)}`.
    pub(crate) fn count(&self, dataset: &Dataset) -> u64 {
        dataset.count_where(|r| self.mask[r])
    }
}

/// One count-query constraint `q_φ(D) = cnt`: the query *and* its publicly
/// known answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountConstraint {
    predicate: Predicate,
    answer: u64,
}

impl CountConstraint {
    /// Pairs a predicate with its public answer.
    pub fn new(predicate: Predicate, answer: u64) -> Self {
        Self { predicate, answer }
    }

    /// Reads the answer off a concrete dataset (the usual way constraints
    /// are published).
    pub fn observed(predicate: Predicate, dataset: &Dataset) -> Self {
        let answer = predicate.count(dataset);
        Self { predicate, answer }
    }

    /// The predicate `φ`.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The public answer `cnt`.
    pub fn answer(&self) -> u64 {
        self.answer
    }

    /// Whether a dataset satisfies this constraint.
    pub(crate) fn holds(&self, dataset: &Dataset) -> bool {
        self.predicate.count(dataset) == self.answer
    }

    /// Validates the predicate against a domain size.
    ///
    /// # Errors
    ///
    /// [`CoreError::PredicateSizeMismatch`] on a size mismatch.
    pub(crate) fn check_domain(&self, domain_size: usize) -> Result<(), CoreError> {
        if self.predicate.domain_size() != domain_size {
            return Err(CoreError::PredicateSizeMismatch {
                expected: domain_size,
                got: self.predicate.domain_size(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::Domain;

    fn ds() -> Dataset {
        let d = Domain::from_cardinalities(&[4]).unwrap();
        Dataset::from_rows(d, vec![0, 0, 1, 3]).unwrap()
    }

    #[test]
    fn predicate_constructors_agree() {
        let a = Predicate::of_values(4, &[1, 3]);
        let b = Predicate::from_fn(4, |x| x % 2 == 1);
        assert_eq!(a, b);
        assert_eq!(a.support(), vec![1, 3]);
        assert_eq!(a.support_size(), 2);
    }

    #[test]
    fn counting() {
        let p = Predicate::of_values(4, &[0]);
        assert_eq!(p.count(&ds()), 2);
    }

    #[test]
    fn constraint_holds() {
        let c = CountConstraint::observed(Predicate::of_values(4, &[0, 1]), &ds());
        assert_eq!(c.answer(), 3);
        assert!(c.holds(&ds()));
        let moved = ds().with_row(0, 2).unwrap();
        assert!(!c.holds(&moved));
    }

    #[test]
    fn disjointness() {
        let a = Predicate::of_values(4, &[0, 1]);
        let b = Predicate::of_values(4, &[2]);
        let c = Predicate::of_values(4, &[1, 2]);
        assert!(a.disjoint_from(&b));
        assert!(!a.disjoint_from(&c));
    }

    #[test]
    fn domain_check() {
        let c = CountConstraint::new(Predicate::of_values(4, &[0]), 1);
        assert!(c.check_domain(4).is_ok());
        assert!(matches!(
            c.check_domain(5),
            Err(CoreError::PredicateSizeMismatch {
                expected: 5,
                got: 4
            })
        ));
    }
}
