//! Discriminative secret graphs (Section 3.1).
//!
//! A secret graph `G = (V, E)` over the domain `T` has an edge `(x, y)`
//! whenever an adversary must not distinguish an individual's value being
//! `x` from being `y`. The paper's named families are:
//!
//! * `G^full` — complete graph ⇒ ordinary differential privacy,
//! * `G^attr` — edges between values differing in exactly one attribute,
//! * `G^P` — union of complete graphs, one per partition block,
//! * `G^{d,θ}` — edges between values at metric distance ≤ θ (we implement
//!   the L1 metric on the ordinal embedding, the one used throughout the
//!   paper's experiments); `θ = 1` on a 1-D domain is the *line graph* of
//!   Section 7.1,
//! * arbitrary custom graphs.
//!
//! All variants are *implicit*: adjacency and shortest-path distance are
//! computed from the domain structure in O(arity) per query instead of
//! materializing `Θ(|T|²)` edges. [`SecretGraph::Custom`] falls back to the
//! explicit [`Graph`] with BFS.

use crate::adjacency::Graph;
use bf_domain::{Domain, Partition};

/// A discriminative secret graph over a domain.
///
/// # Examples
///
/// ```
/// use bf_domain::Domain;
/// use bf_graph::SecretGraph;
///
/// let domain = Domain::line(100).unwrap();
/// let g = SecretGraph::L1Threshold { theta: 10 };
/// assert!(g.is_edge(&domain, 0, 10));
/// // Values farther apart are only protected through intermediate hops:
/// assert_eq!(g.distance(&domain, 0, 95), Some(10)); // ceil(95/10)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SecretGraph {
    /// Complete graph `G^full`: every pair of values is a discriminative
    /// secret. Blowfish with this graph and no constraints is exactly
    /// ε-differential privacy.
    Full,
    /// Attribute graph `G^attr`: `(x, y) ∈ E` iff `x` and `y` differ in
    /// exactly one attribute.
    Attribute,
    /// Partition graph `G^P`: `(x, y) ∈ E` iff `x ≠ y` lie in the same
    /// block.
    Partition(Partition),
    /// Distance-threshold graph `G^{L1,θ}`: `(x, y) ∈ E` iff
    /// `0 < ||x − y||_1 ≤ θ` in the ordinal embedding of the domain.
    L1Threshold {
        /// Threshold θ ≥ 1, in L1 cells.
        theta: u64,
    },
    /// An arbitrary explicit graph on domain indices.
    Custom(Graph),
}

impl SecretGraph {
    /// The line graph over a 1-D ordered domain: `G^{L1,1}` (Section 7.1).
    pub fn line() -> Self {
        SecretGraph::L1Threshold { theta: 1 }
    }

    /// Whether `(x, y)` is an edge — i.e. `(s_x^i, s_y^i)` is a
    /// discriminative pair for every individual `i`.
    pub fn is_edge(&self, domain: &Domain, x: usize, y: usize) -> bool {
        if x == y {
            return false;
        }
        match self {
            SecretGraph::Full => true,
            SecretGraph::Attribute => domain.hamming(x, y) == 1,
            SecretGraph::Partition(p) => p.same_block(x, y),
            SecretGraph::L1Threshold { theta } => domain.l1(x, y) <= *theta,
            SecretGraph::Custom(g) => g.has_edge(x, y),
        }
    }

    /// Shortest-path distance `d_G(x, y)` in hops; `None` when `x` and `y`
    /// are disconnected. By Eq. 9, an adversary can distinguish `x` from
    /// `y` with likelihood ratio at most `e^{ε·d_G(x,y)}`.
    ///
    /// Closed forms are exact for the implicit families:
    ///
    /// * full: 1,
    /// * attribute: Hamming distance (change one attribute per hop),
    /// * partition: 1 inside a block, ∞ across blocks,
    /// * L1 threshold: `⌈||x−y||₁ / θ⌉` — ordinal domains always contain
    ///   intermediate lattice points at L1 steps of θ.
    pub fn distance(&self, domain: &Domain, x: usize, y: usize) -> Option<u64> {
        if x == y {
            return Some(0);
        }
        match self {
            SecretGraph::Full => Some(1),
            SecretGraph::Attribute => Some(domain.hamming(x, y) as u64),
            SecretGraph::Partition(p) => {
                if p.same_block(x, y) {
                    Some(1)
                } else {
                    None
                }
            }
            SecretGraph::L1Threshold { theta } => {
                let d = domain.l1(x, y);
                Some(d.div_ceil(*theta))
            }
            SecretGraph::Custom(g) => g.distance(x, y),
        }
    }

    /// Whether every pair of domain values is connected (finite
    /// distinguishability for all pairs).
    pub fn is_connected(&self, domain: &Domain) -> bool {
        match self {
            SecretGraph::Full | SecretGraph::Attribute => true,
            SecretGraph::L1Threshold { .. } => true,
            SecretGraph::Partition(p) => p.num_blocks() == 1 || domain.size() <= 1,
            SecretGraph::Custom(g) => g.is_connected(),
        }
    }

    /// Largest L1 length (ordinal embedding) of any single edge:
    /// `max_{(x,y)∈E} ||x − y||₁`. This drives the Blowfish sensitivity of
    /// `q_sum` (Lemma 6.1) and, on a one-attribute domain — where an
    /// edge's L1 length is its index span — of the cumulative histogram
    /// (Section 7.2):
    ///
    /// * full: domain diameter `d(T)`,
    /// * attribute: `max_A (|A| − 1)`,
    /// * partition: max block L1 diameter,
    /// * L1 threshold: θ (capped by the domain diameter),
    /// * custom: max over explicit edges.
    pub fn max_edge_l1(&self, domain: &Domain) -> u64 {
        match self {
            SecretGraph::Full => domain.l1_diameter(),
            SecretGraph::Attribute => domain
                .attributes()
                .iter()
                .map(|a| a.diameter() as u64)
                .max()
                .unwrap_or(0),
            SecretGraph::Partition(p) => {
                let mut best = 0u64;
                for block in p.blocks() {
                    for (i, &x) in block.iter().enumerate() {
                        for &y in &block[i + 1..] {
                            best = best.max(domain.l1(x, y));
                        }
                    }
                }
                best
            }
            SecretGraph::L1Threshold { theta } => (*theta).min(domain.l1_diameter()),
            SecretGraph::Custom(g) => g
                .edges()
                .iter()
                .map(|&(u, v)| domain.l1(u, v))
                .max()
                .unwrap_or(0),
        }
    }

    /// Materializes the secret graph as an explicit [`Graph`] via the
    /// structured edge enumeration (`O(|E|)` for the implicit families;
    /// only `G^full` costs `Θ(|T|²)` — its edge set is quadratic).
    pub fn materialize(&self, domain: &Domain) -> Graph {
        let mut g = Graph::new(domain.size());
        self.for_each_edge(domain, |x, y| g.add_edge(x, y));
        g
    }

    /// A short human-readable policy name matching the paper's figure
    /// legends (`laplace` for the full graph, `blowfish|θ`, `attribute`,
    /// `partition|p`).
    pub fn label(&self) -> String {
        match self {
            SecretGraph::Full => "full".to_string(),
            SecretGraph::Attribute => "attribute".to_string(),
            SecretGraph::Partition(p) => format!("partition|{}", p.num_blocks()),
            SecretGraph::L1Threshold { theta } => format!("blowfish|{theta}"),
            SecretGraph::Custom(_) => "custom".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Domain {
        Domain::from_cardinalities(&[2, 2, 3]).unwrap()
    }

    #[test]
    fn full_graph_edges() {
        let d = abc();
        let g = SecretGraph::Full;
        assert!(g.is_edge(&d, 0, 11));
        assert!(!g.is_edge(&d, 3, 3));
        assert_eq!(g.distance(&d, 0, 11), Some(1));
        assert_eq!(g.max_edge_l1(&d), d.l1_diameter());
    }

    #[test]
    fn attribute_graph_is_hamming() {
        let d = abc();
        let g = SecretGraph::Attribute;
        let x = d.encode(&[0, 0, 0]).unwrap();
        let y = d.encode(&[0, 0, 2]).unwrap();
        let z = d.encode(&[1, 1, 2]).unwrap();
        assert!(g.is_edge(&d, x, y)); // one attribute differs
        assert!(!g.is_edge(&d, x, z)); // three differ
        assert_eq!(g.distance(&d, x, z), Some(3));
        assert_eq!(g.max_edge_l1(&d), 2); // A3 has diameter 2
    }

    #[test]
    fn partition_graph_blocks() {
        let d = Domain::line(6).unwrap();
        let p = Partition::intervals(6, 3);
        let g = SecretGraph::Partition(p);
        assert!(g.is_edge(&d, 0, 2));
        assert!(!g.is_edge(&d, 2, 3));
        assert_eq!(g.distance(&d, 2, 3), None);
        assert!(!g.is_connected(&d));
        assert_eq!(g.max_edge_l1(&d), 2);
    }

    #[test]
    fn l1_threshold_distances() {
        let d = Domain::line(100).unwrap();
        let g = SecretGraph::L1Threshold { theta: 10 };
        assert!(g.is_edge(&d, 0, 10));
        assert!(!g.is_edge(&d, 0, 11));
        assert_eq!(g.distance(&d, 0, 95), Some(10)); // ceil(95/10)
        assert_eq!(g.max_edge_l1(&d), 10);
        assert!(g.is_connected(&d));
    }

    #[test]
    fn line_graph_is_theta_one() {
        let d = Domain::line(5).unwrap();
        let g = SecretGraph::line();
        assert!(g.is_edge(&d, 1, 2));
        assert!(!g.is_edge(&d, 1, 3));
        assert_eq!(g.distance(&d, 0, 4), Some(4));
    }

    #[test]
    fn implicit_distances_match_materialized_bfs() {
        let d = Domain::from_cardinalities(&[3, 4]).unwrap();
        for g in [
            SecretGraph::Full,
            SecretGraph::Attribute,
            SecretGraph::L1Threshold { theta: 2 },
            SecretGraph::Partition(Partition::intervals(12, 4)),
        ] {
            let explicit = g.materialize(&d);
            for x in 0..d.size() {
                for y in 0..d.size() {
                    assert_eq!(
                        g.distance(&d, x, y),
                        explicit.distance(x, y),
                        "graph {:?} pair ({x},{y})",
                        g.label()
                    );
                }
            }
        }
    }

    #[test]
    fn multidim_l1_threshold_closed_form() {
        // On a 2-D grid the ceil(d/θ) closed form must match BFS too.
        let d = Domain::from_cardinalities(&[4, 4]).unwrap();
        let g = SecretGraph::L1Threshold { theta: 3 };
        let explicit = g.materialize(&d);
        for x in 0..16 {
            for y in 0..16 {
                assert_eq!(g.distance(&d, x, y), explicit.distance(x, y));
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SecretGraph::Full.label(), "full");
        assert_eq!(
            SecretGraph::L1Threshold { theta: 64 }.label(),
            "blowfish|64"
        );
        assert_eq!(
            SecretGraph::Partition(Partition::intervals(10, 5)).label(),
            "partition|2"
        );
    }

    #[test]
    fn custom_graph_falls_back_to_bfs() {
        let d = Domain::line(4).unwrap();
        let g = SecretGraph::Custom(Graph::from_edges(4, &[(0, 1), (2, 3)]));
        assert_eq!(g.distance(&d, 0, 1), Some(1));
        assert_eq!(g.distance(&d, 0, 3), None);
        assert!(!g.is_connected(&d));
        assert_eq!(g.max_edge_l1(&d), 1);
    }
}
