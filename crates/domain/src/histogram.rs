//! Histograms and cumulative histograms.
//!
//! `h_T(D)` (Definition in Section 2) counts the occurrences of every domain
//! value; `S_T(D)` (Definition 7.1) is the sequence of prefix sums over a
//! totally ordered domain. Both are represented with `f64` counts so they
//! double as containers for *noisy* answers.

use crate::error::DomainError;
use crate::partition::Partition;

/// A (possibly noisy) histogram over a domain of a given size: one count per
/// domain value.
///
/// # Examples
///
/// ```
/// use bf_domain::{Dataset, Domain};
///
/// let h = Dataset::from_rows(Domain::line(4)?, vec![0, 0, 2, 3])?.histogram();
/// assert_eq!(h.counts(), &[2.0, 0.0, 1.0, 1.0]);
/// assert_eq!(h.range_count(0, 1).unwrap(), 2.0);
/// let cum = h.cumulative();
/// assert_eq!(cum.prefixes(), &[2.0, 2.0, 3.0, 4.0]);
/// # Ok::<(), bf_domain::DomainError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<f64>,
}

/// A (possibly noisy) cumulative histogram: `s_i = Σ_{j ≤ i} c(x_j)`
/// (Definition 7.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeHistogram {
    prefix: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram from raw counts.
    pub fn from_counts(counts: Vec<f64>) -> Self {
        Self { counts }
    }

    /// Counts exact occurrences of each value among encoded rows.
    pub(crate) fn from_rows(domain_size: usize, rows: &[usize]) -> Self {
        let mut counts = vec![0.0; domain_size];
        for &r in rows {
            counts[r] += 1.0;
        }
        Self { counts }
    }

    /// Domain size `|T|`.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the histogram has no cells.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Count of value `x`.
    pub fn count(&self, x: usize) -> f64 {
        self.counts[x]
    }

    /// All counts.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Mutable access to the counts (mechanisms add noise in place).
    pub fn counts_mut(&mut self) -> &mut [f64] {
        &mut self.counts
    }

    /// Number of values with non-zero count.
    pub fn support_size(&self) -> usize {
        self.counts.iter().filter(|&&c| c != 0.0).count()
    }

    /// Cumulative histogram `S_T` of this histogram (requires the natural
    /// index order to be the domain's total order).
    pub fn cumulative(&self) -> CumulativeHistogram {
        let mut prefix = Vec::with_capacity(self.counts.len());
        let mut acc = 0.0;
        for &c in &self.counts {
            acc += c;
            prefix.push(acc);
        }
        CumulativeHistogram { prefix }
    }

    /// Coarsens the histogram along a partition: `h_P(D)` from `h_T(D)`.
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidPartition`] when the partition covers a
    /// different domain size.
    pub fn coarsen(&self, partition: &Partition) -> Result<Histogram, DomainError> {
        if partition.domain_size() != self.len() {
            return Err(DomainError::InvalidPartition(format!(
                "partition covers {} values but histogram has {}",
                partition.domain_size(),
                self.len()
            )));
        }
        let mut out = vec![0.0; partition.num_blocks()];
        for (x, &c) in self.counts.iter().enumerate() {
            out[partition.block_of(x) as usize] += c;
        }
        Ok(Histogram { counts: out })
    }

    /// Exact range-count `q[lo, hi]` (inclusive) on this histogram.
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidRange`] for empty or out-of-bounds ranges.
    pub fn range_count(&self, lo: usize, hi: usize) -> Result<f64, DomainError> {
        if lo > hi || hi >= self.len() {
            return Err(DomainError::InvalidRange {
                lo,
                hi,
                size: self.len(),
            });
        }
        Ok(self.counts[lo..=hi].iter().sum())
    }

    /// L1 distance to another histogram — `||h(D1) − h(D2)||_1`, the
    /// quantity bounded by policy-specific sensitivity.
    pub fn l1_distance(&self, other: &Histogram) -> f64 {
        assert_eq!(self.len(), other.len());
        self.counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

impl CumulativeHistogram {
    /// Number of prefix counts `|T|`.
    pub(crate) fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Prefix count `s_i = Σ_{j ≤ i} c(x_j)` (0-based `i`).
    pub fn prefix(&self, i: usize) -> f64 {
        self.prefix[i]
    }

    /// All prefix counts.
    pub fn prefixes(&self) -> &[f64] {
        &self.prefix
    }

    /// Number of *distinct* prefix values, the sparsity parameter `p` in the
    /// error bound `O(p log³|T| / ε²)` of Section 7.1. Sorted input is
    /// guaranteed for exact cumulative histograms; for noisy ones this
    /// counts distinct values in sequence order.
    pub fn distinct_count(&self) -> usize {
        if self.prefix.is_empty() {
            return 0;
        }
        1 + self.prefix.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Range query `q[lo, hi] = s_hi − s_{lo−1}` (inclusive, 0-based).
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidRange`] for empty or out-of-bounds ranges.
    pub fn range_count(&self, lo: usize, hi: usize) -> Result<f64, DomainError> {
        if lo > hi || hi >= self.len() {
            return Err(DomainError::InvalidRange {
                lo,
                hi,
                size: self.len(),
            });
        }
        let upper = self.prefix[hi];
        let lower = if lo == 0 { 0.0 } else { self.prefix[lo - 1] };
        Ok(upper - lower)
    }

    /// Recovers the per-value histogram by differencing.
    pub fn to_histogram(&self) -> Histogram {
        let mut counts = Vec::with_capacity(self.prefix.len());
        let mut prev = 0.0;
        for &s in &self.prefix {
            counts.push(s - prev);
            prev = s;
        }
        Histogram::from_counts(counts)
    }

    /// Whether prefix counts are non-decreasing (the ordering constraint the
    /// constrained-inference step enforces).
    pub fn is_sorted(&self) -> bool {
        self.prefix.windows(2).all(|w| w[0] <= w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Histogram {
        Histogram::from_rows(5, &[0, 0, 2, 4, 4, 4])
    }

    #[test]
    fn from_rows_counts() {
        let h = h();
        assert_eq!(h.counts(), &[2.0, 0.0, 1.0, 0.0, 3.0]);
        assert_eq!(h.support_size(), 3);
    }

    #[test]
    fn cumulative_and_back() {
        let c = h().cumulative();
        assert_eq!(c.prefixes(), &[2.0, 2.0, 3.0, 3.0, 6.0]);
        assert_eq!(c.to_histogram(), h());
        assert!(c.is_sorted());
        assert_eq!(c.distinct_count(), 3);
    }

    #[test]
    fn range_counts_agree() {
        let hist = h();
        let cum = hist.cumulative();
        for lo in 0..5 {
            for hi in lo..5 {
                assert_eq!(
                    hist.range_count(lo, hi).unwrap(),
                    cum.range_count(lo, hi).unwrap(),
                    "range [{lo},{hi}]"
                );
            }
        }
        assert!(hist.range_count(3, 2).is_err());
        assert!(cum.range_count(0, 5).is_err());
    }

    #[test]
    fn coarsen_by_partition() {
        let p = Partition::intervals(5, 2);
        let coarse = h().coarsen(&p).unwrap();
        assert_eq!(coarse.counts(), &[2.0, 1.0, 3.0]);
        let bad = Partition::intervals(4, 2);
        assert!(h().coarsen(&bad).is_err());
    }

    #[test]
    fn l1_distance() {
        let a = Histogram::from_counts(vec![1.0, 2.0]);
        let b = Histogram::from_counts(vec![2.0, 0.0]);
        assert_eq!(a.l1_distance(&b), 3.0);
    }
}
