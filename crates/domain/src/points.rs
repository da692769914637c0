//! Continuous point sets for k-means style analyses.
//!
//! The k-means experiments of Section 6 run over real-valued points
//! (lat/long, RGB, ℝ⁴). [`PointSet`] stores row-major `f64` coordinates
//! with the bounding box that defines the domain diameter `d(T)` used to
//! calibrate `q_sum` sensitivity.

use crate::dataset::Dataset;
use crate::grid::GridDomain;

/// A point in ℝ^dim.
pub type Point = Vec<f64>;

/// Axis-aligned bounding box of the domain.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    /// Lower corner per axis.
    pub lo: Vec<f64>,
    /// Upper corner per axis.
    pub hi: Vec<f64>,
}

impl BoundingBox {
    /// Builds a box, validating `lo[i] <= hi[i]`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len());
        assert!(
            lo.iter().zip(&hi).all(|(a, b)| a <= b),
            "box corners must be ordered"
        );
        Self { lo, hi }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Side length along each axis.
    pub fn extents(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(a, b)| b - a).collect()
    }

    /// L1 diameter `d(T)`: the largest L1 distance between two points of
    /// the box (sum of extents). This is the paper's `d(T)` in the `q_sum`
    /// sensitivity `2·d(T)` for differential privacy.
    pub fn l1_diameter(&self) -> f64 {
        self.extents().iter().sum()
    }

    /// The largest per-axis extent: `max_A |A|` in Lemma 6.1 (attribute
    /// secret graph sensitivity is `2 · max_A |A|`).
    pub fn max_extent(&self) -> f64 {
        self.extents().iter().cloned().fold(0.0, f64::max)
    }

    /// Clamps a point into the box (used after noisy centroid updates).
    pub fn clamp(&self, p: &mut [f64]) {
        for (v, (l, h)) in p.iter_mut().zip(self.lo.iter().zip(&self.hi)) {
            *v = v.clamp(*l, *h);
        }
    }

    /// Whether the box contains `p`.
    pub fn contains(&self, p: &[f64]) -> bool {
        p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&v, (&l, &h))| l <= v && v <= h)
    }
}

/// A set of `n` points in ℝ^dim with its domain bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    dim: usize,
    /// Row-major coordinates, `n * dim` values.
    coords: Vec<f64>,
    bbox: BoundingBox,
}

impl PointSet {
    /// Builds a point set; every point must lie inside the box.
    pub fn new(points: Vec<Point>, bbox: BoundingBox) -> Self {
        let dim = bbox.dim();
        let mut coords = Vec::with_capacity(points.len() * dim);
        for p in &points {
            assert_eq!(p.len(), dim, "point dimensionality mismatch");
            debug_assert!(bbox.contains(p), "point outside bounding box");
            coords.extend_from_slice(p);
        }
        Self { dim, coords, bbox }
    }

    /// Builds from row-major coordinates.
    pub fn from_flat(dim: usize, coords: Vec<f64>, bbox: BoundingBox) -> Self {
        assert_eq!(bbox.dim(), dim);
        assert_eq!(coords.len() % dim.max(1), 0);
        Self { dim, coords, bbox }
    }

    /// Converts a discrete grid dataset into points at cell centers scaled
    /// by physical cell widths — how the twitter grid becomes km-scale
    /// coordinates for k-means.
    pub fn from_grid_dataset(grid: &GridDomain, dataset: &Dataset) -> Self {
        assert_eq!(grid.domain().size(), dataset.domain().size());
        let dim = grid.arity();
        let widths = grid.cell_widths();
        let mut coords = Vec::with_capacity(dataset.len() * dim);
        for &row in dataset.rows() {
            for (axis, c) in grid.coords(row).into_iter().enumerate() {
                coords.push((c as f64 + 0.5) * widths[axis]);
            }
        }
        let lo = vec![0.0; dim];
        let hi: Vec<f64> = grid
            .dims()
            .iter()
            .zip(widths)
            .map(|(&d, &w)| d as f64 * w)
            .collect();
        Self {
            dim,
            coords,
            bbox: BoundingBox::new(lo, hi),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Point `i` as a slice.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over points.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.coords.chunks_exact(self.dim)
    }

    /// The bounding box.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Keeps only the points at the given indices (subsampling).
    pub fn subset(&self, indices: &[usize]) -> PointSet {
        let mut coords = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            coords.extend_from_slice(self.point(i));
        }
        Self {
            dim: self.dim,
            coords,
            bbox: self.bbox.clone(),
        }
    }

    /// Squared L2 distance between two points.
    #[inline] // bf-mechanisms' k-means pass calls this per point and centroid
    pub fn sq_l2(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// L1 distance between two points.
    pub fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    #[test]
    fn bbox_diameters() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![3.0, 4.0]);
        assert_eq!(b.l1_diameter(), 7.0);
        assert_eq!(b.max_extent(), 4.0);
    }

    #[test]
    fn bbox_clamp() {
        let b = BoundingBox::new(vec![0.0], vec![1.0]);
        let mut p = vec![2.5];
        b.clamp(&mut p);
        assert_eq!(p, vec![1.0]);
        assert!(b.contains(&p));
    }

    #[test]
    fn pointset_accessors() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]);
        let ps = PointSet::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], b);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.point(1), &[3.0, 4.0]);
        assert_eq!(ps.iter().count(), 2);
        let sub = ps.subset(&[1]);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.point(0), &[3.0, 4.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(PointSet::sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(PointSet::l1(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
    }

    #[test]
    fn grid_dataset_to_points() {
        let grid = GridDomain::with_cell_widths(vec![4, 3], vec![2.0, 1.0]).unwrap();
        let domain = Domain::from_cardinalities(&[4, 3]).unwrap();
        let ds = Dataset::from_rows(domain, vec![0, 11]).unwrap();
        let ps = PointSet::from_grid_dataset(&grid, &ds);
        assert_eq!(ps.len(), 2);
        // Cell (0,0) center = (0.5*2, 0.5*1).
        assert_eq!(ps.point(0), &[1.0, 0.5]);
        // Cell (3,2) center = (3.5*2, 2.5*1).
        assert_eq!(ps.point(1), &[7.0, 2.5]);
        assert_eq!(ps.bbox().hi, vec![8.0, 3.0]);
    }
}
