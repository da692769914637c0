//! Explicit undirected graphs.
//!
//! Vertices are dense `usize` ids. The representation is a plain adjacency
//! list: small, cache-friendly, and sufficient for the custom secret graphs
//! and policy-verification work the rest of the stack needs.

use std::collections::VecDeque;

/// An undirected simple graph on vertices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
    num_edges: usize,
}

impl Graph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Number of vertices.
    pub(crate) fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds an undirected edge; self-loops and duplicates are ignored.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v || self.has_edge(u, v) {
            return;
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.num_edges += 1;
    }

    /// Whether `{u, v}` is an edge.
    pub(crate) fn has_edge(&self, u: usize, v: usize) -> bool {
        // Scan the smaller list.
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a].contains(&b)
    }

    /// Neighbors of `u`.
    pub(crate) fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// BFS hop distances from `src`; `None` for unreachable vertices.
    pub(crate) fn bfs_distances(&self, src: usize) -> Vec<Option<u64>> {
        let mut dist = vec![None; self.num_vertices()];
        let mut queue = VecDeque::new();
        dist[src] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued vertices have distances");
            for &v in &self.adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Shortest hop distance `d_G(u, v)`; `None` when disconnected. This is
    /// the distance appearing in the disclosure bound
    /// `Pr[M(D1) ∈ S] ≤ e^{ε·d_G(x,y)} Pr[M(D2) ∈ S]` (Eq. 9).
    pub fn distance(&self, u: usize, v: usize) -> Option<u64> {
        if u == v {
            return Some(0);
        }
        self.bfs_distances(u)[v]
    }

    /// Connected-component id of every vertex (ids are dense, in order of
    /// first discovery).
    pub fn components(&self) -> Vec<usize> {
        let n = self.num_vertices();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        let mut queue = VecDeque::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = next;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in &self.adj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        queue.push_back(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// All edges as ordered pairs `u < v`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Graph {
        /// Builds a graph from an edge list (a test fixture for the
        /// whole crate).
        pub(crate) fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
            let mut g = Self::new(n);
            for &(u, v) in edges {
                g.add_edge(u, v);
            }
            g
        }
    }

    #[test]
    fn complete_graph_counts() {
        let pairs: Vec<(usize, usize)> = (0..5)
            .flat_map(|u| (u + 1..5).map(move |v| (u, v)))
            .collect();
        let g = Graph::from_edges(5, &pairs);
        assert_eq!(g.num_edges(), 10);
        assert!(g.has_edge(0, 4));
        assert_eq!(g.distance(0, 4), Some(1));
    }

    #[test]
    fn line_graph_distances() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.distance(0, 5), Some(5));
        assert_eq!(g.distance(2, 2), Some(0));
    }

    #[test]
    fn duplicate_and_loop_edges_ignored() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 1);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn components_and_disconnection() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let comp = g.components();
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(comp.iter().max(), Some(&2)); // {0,1,2}, {3}, {4,5}
        assert_eq!(g.distance(0, 4), None);
    }

    #[test]
    fn edge_listing_sorted() {
        let g = Graph::from_edges(4, &[(2, 1), (0, 3)]);
        assert_eq!(g.edges(), vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn bfs_distance_matrix_symmetric() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(g.distance(u, v), g.distance(v, u));
            }
        }
        assert_eq!(g.distance(0, 2), Some(2));
    }
}
