//! Domain partitions.
//!
//! A partition `P = {P1, …, Pp}` divides the domain into disjoint blocks
//! whose union is the whole domain. Partitions back:
//!
//! * the partitioned sensitive-information graph `G^P` (an adversary may
//!   learn which block an individual is in, but not where inside it), and
//! * histogram queries `h_P` over coarsened domains (Section 2).

use crate::error::DomainError;

/// A partition of the domain into `num_blocks` disjoint blocks, stored as
/// the block id of every domain value.
///
/// # Examples
///
/// ```
/// use bf_domain::Partition;
///
/// let p = Partition::intervals(10, 3); // {0..2}, {3..5}, {6..8}, {9}
/// assert_eq!(p.num_blocks(), 4);
/// assert!(p.same_block(0, 2));
/// assert!(!p.same_block(2, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    block_of: Vec<u32>,
    num_blocks: usize,
}

impl Partition {
    /// Builds a partition from a per-value block assignment.
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidPartition`] when `block_of` is empty, or block
    /// ids are not exactly `0..num_blocks` (every block must be non-empty).
    pub fn new(block_of: Vec<u32>) -> Result<Self, DomainError> {
        if block_of.is_empty() {
            return Err(DomainError::InvalidPartition("no values".into()));
        }
        let num_blocks = block_of.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
        let mut seen = vec![false; num_blocks];
        for &b in &block_of {
            seen[b as usize] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(DomainError::InvalidPartition(format!(
                "block {missing} is empty; block ids must be dense"
            )));
        }
        Ok(Self {
            block_of,
            num_blocks,
        })
    }

    /// The trivial partition: every value in its own block (`p = |T|`).
    pub fn singletons(domain_size: usize) -> Self {
        Self {
            block_of: (0..domain_size as u32).collect(),
            num_blocks: domain_size,
        }
    }

    /// The trivial partition with a single block covering the whole domain.
    pub fn single_block(domain_size: usize) -> Self {
        Self {
            block_of: vec![0; domain_size],
            num_blocks: 1,
        }
    }

    /// Partitions a 1-D ordered domain into contiguous intervals of width
    /// `width` (the last interval may be shorter).
    pub fn intervals(domain_size: usize, width: usize) -> Self {
        assert!(width >= 1);
        let block_of = (0..domain_size).map(|i| (i / width) as u32).collect();
        Self::new(block_of).expect("interval blocks are dense")
    }

    /// Number of blocks `p`.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of domain values covered.
    pub fn domain_size(&self) -> usize {
        self.block_of.len()
    }

    /// Block id of domain value `x`.
    pub fn block_of(&self, x: usize) -> u32 {
        self.block_of[x]
    }

    /// Whether `x` and `y` share a block.
    pub fn same_block(&self, x: usize, y: usize) -> bool {
        self.block_of[x] == self.block_of[y]
    }

    /// Sizes of every block.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_blocks];
        for &b in &self.block_of {
            sizes[b as usize] += 1;
        }
        sizes
    }

    /// Members of every block.
    pub fn blocks(&self) -> Vec<Vec<usize>> {
        let mut blocks = vec![Vec::new(); self.num_blocks];
        for (x, &b) in self.block_of.iter().enumerate() {
            blocks[b as usize].push(x);
        }
        blocks
    }

    /// Whether `other` is a refinement of `self`: every block of `other`
    /// lies inside a block of `self`. (Coarser histograms of a partition can
    /// be released exactly under `G^P`; see Section 5.)
    pub fn refines(&self, finer: &Partition) -> bool {
        if self.domain_size() != finer.domain_size() {
            return false;
        }
        // For each finer block, all members must share a coarse block.
        let mut coarse_of_finer: Vec<Option<u32>> = vec![None; finer.num_blocks()];
        for (x, &fb) in finer.block_of.iter().enumerate() {
            let cb = self.block_of[x];
            match coarse_of_finer[fb as usize] {
                None => coarse_of_finer[fb as usize] = Some(cb),
                Some(prev) if prev != cb => return false,
                _ => {}
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_sparse_block_ids() {
        assert!(Partition::new(vec![0, 2]).is_err());
        assert!(Partition::new(vec![]).is_err());
        assert!(Partition::new(vec![0, 1, 1, 0]).is_ok());
    }

    #[test]
    fn intervals_partition() {
        let p = Partition::intervals(10, 3);
        assert_eq!(p.num_blocks(), 4);
        assert_eq!(p.block_sizes(), vec![3, 3, 3, 1]);
        assert!(p.same_block(0, 2));
        assert!(!p.same_block(2, 3));
    }

    #[test]
    fn refinement() {
        let coarse = Partition::intervals(8, 4);
        let fine = Partition::intervals(8, 2);
        assert!(coarse.refines(&fine));
        assert!(!fine.refines(&coarse));
        let singles = Partition::singletons(8);
        assert!(coarse.refines(&singles));
        assert!(Partition::single_block(8).refines(&coarse));
    }

    #[test]
    fn blocks_listing() {
        let p = Partition::new(vec![1, 0, 1, 0]).unwrap();
        assert_eq!(p.blocks(), vec![vec![1, 3], vec![0, 2]]);
    }
}
