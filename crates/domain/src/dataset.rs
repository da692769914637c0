//! Datasets: multisets of tuples over a domain.
//!
//! A [`Dataset`] stores the dense-encoded value of each tuple. Tuple
//! position doubles as the individual identifier `t.id` — the paper assumes
//! the set of individuals is known in advance and fixed, so neighboring
//! databases only *change* values, never add or remove rows.

use crate::domain::Domain;
use crate::error::DomainError;
use crate::histogram::Histogram;

/// A dataset `D ∈ I_n`: `n` rows, each a dense-encoded domain value.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    domain: Domain,
    rows: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset from dense-encoded rows.
    ///
    /// # Errors
    ///
    /// [`DomainError::IndexOutOfRange`] when a row is not a valid domain
    /// index.
    pub fn from_rows(domain: Domain, rows: Vec<usize>) -> Result<Self, DomainError> {
        let size = domain.size();
        if let Some(&bad) = rows.iter().find(|&&r| r >= size) {
            return Err(DomainError::IndexOutOfRange { index: bad, size });
        }
        Ok(Self { domain, rows })
    }

    /// The domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of rows `n = |D|` (public knowledge in the paper's model).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Dense-encoded rows; the position is the individual id.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Value of individual `id`.
    pub fn row(&self, id: usize) -> usize {
        self.rows[id]
    }

    /// Returns a copy with individual `id` changed to domain value `x` —
    /// the tuple-change operation that generates Blowfish neighbors.
    ///
    /// # Errors
    ///
    /// [`DomainError::IndexOutOfRange`] for an invalid value.
    pub fn with_row(&self, id: usize, x: usize) -> Result<Dataset, DomainError> {
        if x >= self.domain.size() {
            return Err(DomainError::IndexOutOfRange {
                index: x,
                size: self.domain.size(),
            });
        }
        let mut rows = self.rows.clone();
        rows[id] = x;
        Ok(Self {
            domain: self.domain.clone(),
            rows,
        })
    }

    /// Complete histogram `h_T(D)`.
    pub fn histogram(&self) -> Histogram {
        Histogram::from_rows(self.domain.size(), &self.rows)
    }

    /// Number of rows matching a predicate over dense indices — the count
    /// query `q_φ(D) = Σ_t 1_{φ(t)}` of Section 8.
    pub fn count_where(&self, predicate: impl Fn(usize) -> bool) -> u64 {
        self.rows.iter().filter(|&&r| predicate(r)).count() as u64
    }

    /// Set of tuple positions on which two same-length datasets differ —
    /// `Δ(D1, D2)` restricted to ids (the paper's symmetric difference is
    /// over (id, value) pairs; with fixed ids this is the differing ids).
    pub fn differing_ids(&self, other: &Dataset) -> Vec<usize> {
        assert_eq!(self.len(), other.len(), "datasets must share the id space");
        self.rows
            .iter()
            .zip(&other.rows)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let d = Domain::from_cardinalities(&[2, 3]).unwrap();
        Dataset::from_rows(d, vec![0, 1, 5, 5, 2]).unwrap()
    }

    #[test]
    fn construction_validates_rows() {
        let d = Domain::from_cardinalities(&[2, 3]).unwrap();
        assert!(Dataset::from_rows(d, vec![0, 6]).is_err());
    }

    #[test]
    fn histogram_counts() {
        let h = tiny().histogram();
        assert_eq!(h.counts(), &[1.0, 1.0, 1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn with_row_changes_one_value() {
        let ds = tiny();
        let ds2 = ds.with_row(0, 3).unwrap();
        assert_eq!(ds2.row(0), 3);
        assert_eq!(ds.differing_ids(&ds2), vec![0]);
        assert!(ds.with_row(0, 6).is_err());
    }

    #[test]
    fn count_where_matches_histogram() {
        let ds = tiny();
        assert_eq!(ds.count_where(|r| r == 5), 2);
        assert_eq!(ds.count_where(|r| r < 2), 2);
    }
}
