//! Grid domains `[m1] × … × [mk]` with Lp geometry.
//!
//! Section 8.2.3 of the paper considers domains `T = [m]^k` encoding a 2-D
//! plane or 3-D space, with `d(x, y) = ||x − y||_p`. The twitter experiments
//! use a 400×300 lat/long grid; the skin experiments use the 256³ RGB cube.
//!
//! [`GridDomain`] is a thin geometric layer over [`Domain`]: it shares the
//! same dense index encoding and adds cell coordinates, Lp distances and
//! rectangles.

use crate::domain::Domain;
use crate::error::DomainError;

/// A `k`-dimensional grid domain with per-axis physical cell widths.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDomain {
    domain: Domain,
    dims: Vec<usize>,
    /// Physical width of one cell along each axis.
    cell_widths: Vec<f64>,
}

/// An axis-aligned rectangle `[l1, u1] × … × [lk, uk]` of grid cells
/// (inclusive endpoints), as used by range count queries in Section 8.2.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rectangle {
    /// Inclusive lower corner, one coordinate per axis.
    pub lo: Vec<usize>,
    /// Inclusive upper corner, one coordinate per axis.
    pub hi: Vec<usize>,
}

impl Rectangle {
    /// Builds a rectangle after validating `lo[i] <= hi[i]`.
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidRange`] when some axis is empty or the corner
    /// arities differ.
    pub fn new(lo: Vec<usize>, hi: Vec<usize>) -> Result<Self, DomainError> {
        if lo.len() != hi.len() {
            return Err(DomainError::ArityMismatch {
                expected: lo.len(),
                got: hi.len(),
            });
        }
        for (&l, &u) in lo.iter().zip(&hi) {
            if l > u {
                return Err(DomainError::InvalidRange {
                    lo: l,
                    hi: u,
                    size: usize::MAX,
                });
            }
        }
        Ok(Self { lo, hi })
    }

    /// Whether the rectangle contains the cell with the given coordinates.
    pub fn contains(&self, coords: &[usize]) -> bool {
        coords
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&c, (&l, &u))| l <= c && c <= u)
    }

    /// Whether this is a *point query*: `lo == hi` on every axis.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether two rectangles share at least one cell.
    pub fn intersects(&self, other: &Rectangle) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((&l1, &u1), (&l2, &u2))| l1 <= u2 && l2 <= u1)
    }

    /// Minimum L1 distance (in cells) between this rectangle and another:
    /// `d(X, Y) = min_{x∈X, y∈Y} ||x − y||_1`. Zero when they intersect.
    pub fn l1_gap(&self, other: &Rectangle) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .map(|((&l1, &u1), (&l2, &u2))| {
                if l1 > u2 {
                    (l1 - u2) as u64
                } else if l2 > u1 {
                    (l2 - u1) as u64
                } else {
                    0
                }
            })
            .sum()
    }
}

impl GridDomain {
    /// Builds a grid with unit cell widths.
    ///
    /// # Errors
    ///
    /// Propagates [`Domain`] construction errors (empty dims, overflow).
    pub fn new(dims: Vec<usize>) -> Result<Self, DomainError> {
        let widths = vec![1.0; dims.len()];
        Self::with_cell_widths(dims, widths)
    }

    /// Builds a grid with physical cell widths per axis (e.g. km per cell).
    ///
    /// # Errors
    ///
    /// Propagates [`Domain`] construction errors; panics on non-positive
    /// widths (programmer error).
    pub fn with_cell_widths(dims: Vec<usize>, cell_widths: Vec<f64>) -> Result<Self, DomainError> {
        assert_eq!(dims.len(), cell_widths.len(), "one width per axis");
        assert!(
            cell_widths.iter().all(|&w| w > 0.0),
            "cell widths must be positive"
        );
        let domain = Domain::from_cardinalities(&dims)?;
        Ok(Self {
            domain,
            dims,
            cell_widths,
        })
    }

    /// The underlying flat domain (shares the dense index encoding).
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Grid dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes `k`.
    pub(crate) fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Total number of cells.
    pub fn size(&self) -> usize {
        self.domain.size()
    }

    /// Physical cell widths.
    pub(crate) fn cell_widths(&self) -> &[f64] {
        &self.cell_widths
    }

    /// Cell coordinates of a dense index.
    pub fn coords(&self, index: usize) -> Vec<usize> {
        self.domain
            .decode(index)
            .expect("index in range")
            .into_iter()
            .map(|v| v as usize)
            .collect()
    }

    /// Dense index of cell coordinates.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors for out-of-range coordinates.
    pub fn index_of(&self, coords: &[usize]) -> Result<usize, DomainError> {
        let vals: Vec<u32> = coords.iter().map(|&c| c as u32).collect();
        self.domain.encode(&vals)
    }

    /// Validates a rectangle against the grid bounds.
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidRange`] when the rectangle leaves the grid;
    /// [`DomainError::ArityMismatch`] on wrong dimensionality.
    pub fn check_rectangle(&self, r: &Rectangle) -> Result<(), DomainError> {
        if r.lo.len() != self.arity() {
            return Err(DomainError::ArityMismatch {
                expected: self.arity(),
                got: r.lo.len(),
            });
        }
        for ((&u, &d), &l) in r.hi.iter().zip(&self.dims).zip(&r.lo) {
            if u >= d {
                return Err(DomainError::InvalidRange {
                    lo: l,
                    hi: u,
                    size: d,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let g = GridDomain::new(vec![4, 3]).unwrap();
        for i in 0..g.size() {
            let c = g.coords(i);
            assert_eq!(g.index_of(&c).unwrap(), i);
        }
    }

    #[test]
    fn rectangle_semantics() {
        let r1 = Rectangle::new(vec![0, 0], vec![2, 2]).unwrap();
        let r2 = Rectangle::new(vec![3, 3], vec![4, 4]).unwrap();
        let r3 = Rectangle::new(vec![2, 2], vec![5, 5]).unwrap();
        assert!(!r1.intersects(&r2));
        assert!(r1.intersects(&r3));
        assert_eq!(r1.l1_gap(&r2), 2);
        assert_eq!(r1.l1_gap(&r3), 0);
        assert!(Rectangle::new(vec![2], vec![1]).is_err());
        assert!(Rectangle::new(vec![1, 1], vec![1, 1]).unwrap().is_point());
    }

    #[test]
    fn check_rectangle_bounds() {
        let g = GridDomain::new(vec![4, 4]).unwrap();
        let r = Rectangle::new(vec![0, 0], vec![4, 3]).unwrap();
        assert!(g.check_rectangle(&r).is_err());
        let r = Rectangle::new(vec![0], vec![3]).unwrap();
        assert!(g.check_rectangle(&r).is_err());
    }
}
