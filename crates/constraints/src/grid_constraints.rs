//! Range-count constraints on grid domains and Theorem 8.6.
//!
//! Section 8.2.3: the domain is a grid `T = [m]^k`, the adversary knows
//! the answers to `p` *disjoint* range count queries (rectangles), and the
//! policy protects distance-threshold secrets `S^{d,θ}_pairs`. Build the
//! rectangle graph `G_R(Q)` — vertices are the rectangles, an edge joins
//! `R_i, R_j` iff `d(R_i, R_j) ≤ θ` — and let `maxcomp(Q)` be the size of
//! its largest connected component. Then
//! `S(h, P) ≤ 2·(maxcomp(Q) + 1)`, with equality when no constraint is a
//! point query.

use crate::error::ConstraintError;
use bf_core::Predicate;
use bf_domain::grid::Rectangle;
use bf_domain::GridDomain;
use bf_graph::Graph;

/// Validates disjointness and builds the rectangle graph `G_R(Q)`:
/// vertices are rectangles, edges join rectangles at L1 gap ≤ θ.
///
/// # Errors
///
/// [`ConstraintError::RectanglesOverlap`] when two rectangles intersect.
pub(crate) fn rectangle_graph(rects: &[Rectangle], theta: u64) -> Result<Graph, ConstraintError> {
    for (i, r) in rects.iter().enumerate() {
        for (j, s) in rects.iter().enumerate().skip(i + 1) {
            if r.intersects(s) {
                return Err(ConstraintError::RectanglesOverlap {
                    first: i,
                    second: j,
                });
            }
        }
    }
    let mut g = Graph::new(rects.len());
    for (i, r) in rects.iter().enumerate() {
        for (j, s) in rects.iter().enumerate().skip(i + 1) {
            if r.l1_gap(s) <= theta {
                g.add_edge(i, j);
            }
        }
    }
    Ok(g)
}

/// Sizes of the connected components of `G_R(Q)`.
///
/// # Errors
///
/// Propagates [`rectangle_graph`] errors.
pub(crate) fn rectangle_graph_components(
    rects: &[Rectangle],
    theta: u64,
) -> Result<Vec<usize>, ConstraintError> {
    let g = rectangle_graph(rects, theta)?;
    let comp = g.components();
    let n = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; n];
    for c in comp {
        sizes[c] += 1;
    }
    Ok(sizes)
}

/// Theorem 8.6: `S(h, P) = 2·(maxcomp(Q) + 1)` for disjoint range-count
/// constraints with distance-threshold secrets (equality requires no point
/// queries; with point queries the value is an upper bound).
///
/// Returns `(sensitivity, is_exact)`.
///
/// # Errors
///
/// Propagates `rectangle_graph` errors.
pub fn thm_8_6_sensitivity(
    grid: &GridDomain,
    rects: &[Rectangle],
    theta: u64,
) -> Result<(f64, bool), ConstraintError> {
    assert!(theta > 0, "theorem requires θ > 0");
    for r in rects {
        grid.check_rectangle(r)
            .unwrap_or_else(|e| panic!("rectangle outside grid: {e}"));
    }
    let sizes = rectangle_graph_components(rects, theta)?;
    let maxcomp = sizes.iter().copied().max().unwrap_or(0);
    let exact = rects.iter().all(|r| !r.is_point());
    Ok((2.0 * (maxcomp as f64 + 1.0), exact))
}

/// The rectangles as count-query predicates over the grid (used to wire
/// range constraints into policies and the generic policy-graph checker).
pub fn rectangle_predicates(grid: &GridDomain, rects: &[Rectangle]) -> Vec<Predicate> {
    rects
        .iter()
        .map(|r| Predicate::from_fn(grid.size(), |x| r.contains(&grid.coords(x))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: Vec<usize>, hi: Vec<usize>) -> Rectangle {
        Rectangle::new(lo, hi).unwrap()
    }

    #[test]
    fn overlap_rejected() {
        let rects = vec![rect(vec![0, 0], vec![2, 2]), rect(vec![2, 2], vec![3, 3])];
        assert!(matches!(
            rectangle_graph(&rects, 1),
            Err(ConstraintError::RectanglesOverlap {
                first: 0,
                second: 1
            })
        ));
    }

    #[test]
    fn components_depend_on_theta() {
        // Three rectangles in a row with gaps 2 and 4.
        let rects = vec![
            rect(vec![0, 0], vec![1, 9]),
            rect(vec![3, 0], vec![4, 9]),
            rect(vec![8, 0], vec![9, 9]),
        ];
        // θ=1: all isolated.
        assert_eq!(
            rectangle_graph_components(&rects, 1).unwrap(),
            vec![1, 1, 1]
        );
        // θ=2: first two join.
        let mut sizes = rectangle_graph_components(&rects, 2).unwrap();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2]);
        // θ=4: all chained.
        assert_eq!(rectangle_graph_components(&rects, 4).unwrap(), vec![3]);
    }

    #[test]
    fn thm_8_6_values() {
        let grid = GridDomain::new(vec![10, 10]).unwrap();
        let rects = vec![
            rect(vec![0, 0], vec![1, 9]),
            rect(vec![3, 0], vec![4, 9]),
            rect(vec![8, 0], vec![9, 9]),
        ];
        let (s, exact) = thm_8_6_sensitivity(&grid, &rects, 1).unwrap();
        assert_eq!(s, 4.0); // maxcomp 1
        assert!(exact);
        let (s, _) = thm_8_6_sensitivity(&grid, &rects, 4).unwrap();
        assert_eq!(s, 8.0); // maxcomp 3
    }

    #[test]
    fn point_queries_flagged_inexact() {
        let grid = GridDomain::new(vec![5, 5]).unwrap();
        let rects = vec![rect(vec![0, 0], vec![0, 0])];
        let (s, exact) = thm_8_6_sensitivity(&grid, &rects, 1).unwrap();
        assert_eq!(s, 4.0);
        assert!(!exact);
    }

    #[test]
    fn predicates_match_rectangles() {
        let grid = GridDomain::new(vec![4, 4]).unwrap();
        let rects = vec![rect(vec![0, 0], vec![1, 1]), rect(vec![2, 2], vec![3, 3])];
        let preds = rectangle_predicates(&grid, &rects);
        assert_eq!(preds[0].support_size(), 4);
        assert!(preds[0].disjoint_from(&preds[1]));
        assert!(preds[0].eval(grid.index_of(&[1, 1]).unwrap()));
        assert!(!preds[0].eval(grid.index_of(&[2, 0]).unwrap()));
    }

    #[test]
    fn empty_constraint_set() {
        let grid = GridDomain::new(vec![4, 4]).unwrap();
        let (s, exact) = thm_8_6_sensitivity(&grid, &[], 1).unwrap();
        // maxcomp = 0: a single move still changes 2 histogram cells.
        assert_eq!(s, 2.0);
        assert!(exact);
    }
}
