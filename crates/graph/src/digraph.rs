//! Explicit directed graphs and the exact cycle/path searches used on
//! policy graphs.
//!
//! Section 8 bounds the policy-specific sensitivity of the histogram query
//! by `2·max{α(G_P), ξ(G_P)}` where `α` is the length of the longest simple
//! cycle and `ξ` the length of the longest simple `v⁺ → v⁻` path. Both are
//! NP-hard in general; policy graphs have one vertex per *count query
//! constraint*, which is small in the practical scenarios of Section 8.2,
//! so exact backtracking search is the right tool. The searches here use
//! DFS with a visited mask and are exact.

use std::collections::VecDeque;

/// A directed graph on vertices `0..n` (parallel edges collapsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    succ: Vec<Vec<usize>>,
    num_edges: usize,
}

impl DiGraph {
    /// An edgeless digraph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            succ: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.succ.len()
    }

    /// Number of arcs.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds arc `u → v`; self-loops and duplicates are ignored. (Policy
    /// graphs never contain self-loops: a secret pair cannot lift and lower
    /// the same count query.)
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v || self.succ[u].contains(&v) {
            return;
        }
        self.succ[u].push(v);
        self.num_edges += 1;
    }

    /// Whether arc `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.succ[u].contains(&v)
    }

    /// Successors of `u`.
    pub fn successors(&self, u: usize) -> &[usize] {
        &self.succ[u]
    }

    /// Whether the digraph contains any directed cycle (linear time).
    pub(crate) fn has_cycle(&self) -> bool {
        // Kahn's algorithm: a cycle exists iff topological sort is partial.
        let n = self.num_vertices();
        let mut indeg = vec![0usize; n];
        for u in 0..n {
            for &v in &self.succ[u] {
                indeg[v] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut removed = 0;
        while let Some(u) = queue.pop_front() {
            removed += 1;
            for &v in &self.succ[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        removed < n
    }

    /// Length (number of arcs) of the longest *simple* directed cycle;
    /// `0` when the digraph is acyclic. This is `α(G_P)` in Theorem 8.2.
    ///
    /// Exact exponential-time search; intended for policy graphs whose
    /// vertex count is the number of count-query constraints.
    pub fn longest_simple_cycle(&self) -> usize {
        if !self.has_cycle() {
            return 0;
        }
        let n = self.num_vertices();
        let mut best = 0usize;
        let mut visited = vec![false; n];
        // A simple cycle's minimum vertex can be taken as the start; only
        // explore vertices >= start to avoid re-finding cycles.
        for start in 0..n {
            visited[start] = true;
            self.dfs_cycle(start, start, 1, &mut visited, &mut best);
            visited[start] = false;
        }
        best
    }

    fn dfs_cycle(
        &self,
        start: usize,
        u: usize,
        depth: usize,
        visited: &mut [bool],
        best: &mut usize,
    ) {
        for &v in &self.succ[u] {
            if v == start {
                // Closing the cycle uses one more arc; `depth` arcs were
                // consumed reaching `u` plus the closing arc.
                *best = (*best).max(depth);
            } else if v > start && !visited[v] {
                visited[v] = true;
                self.dfs_cycle(start, v, depth + 1, visited, best);
                visited[v] = false;
            }
        }
    }

    /// Length (number of arcs) of the longest *simple* directed path from
    /// `src` to `dst`; `None` when no path exists. This is `ξ(G_P)` when
    /// `src = v⁺` and `dst = v⁻` (Theorem 8.2).
    pub fn longest_simple_path(&self, src: usize, dst: usize) -> Option<usize> {
        let n = self.num_vertices();
        let mut visited = vec![false; n];
        let mut best: Option<usize> = None;
        visited[src] = true;
        self.dfs_path(src, dst, 0, &mut visited, &mut best);
        best
    }

    fn dfs_path(
        &self,
        u: usize,
        dst: usize,
        depth: usize,
        visited: &mut [bool],
        best: &mut Option<usize>,
    ) {
        if u == dst {
            *best = Some(best.map_or(depth, |b| b.max(depth)));
            // Keep exploring: longer paths may revisit dst? No — simple
            // paths end at dst; nothing extends past it.
            return;
        }
        for &v in &self.succ[u] {
            if !visited[v] {
                visited[v] = true;
                self.dfs_path(v, dst, depth + 1, visited, best);
                visited[v] = false;
            }
        }
    }

    /// All arcs as pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, vs) in self.succ.iter().enumerate() {
            for &v in vs {
                out.push((u, v));
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DiGraph {
        /// Builds a digraph from an arc list (a test fixture).
        fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
            let mut g = Self::new(n);
            for &(u, v) in edges {
                g.add_edge(u, v);
            }
            g
        }
    }

    #[test]
    fn acyclic_graph() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(!g.has_cycle());
        assert_eq!(g.longest_simple_cycle(), 0);
        assert_eq!(g.longest_simple_path(0, 3), Some(3)); // 0-1-2-3
        assert_eq!(g.longest_simple_path(3, 0), None);
    }

    #[test]
    fn triangle_cycle() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(g.has_cycle());
        assert_eq!(g.longest_simple_cycle(), 3);
    }

    #[test]
    fn two_cycle() {
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(g.longest_simple_cycle(), 2);
    }

    #[test]
    fn complete_digraph_cycle_is_hamiltonian() {
        // The policy graph of a full marginal + full-domain secrets is a
        // complete digraph on the marginal's cells; α = number of cells
        // (Theorem 8.4 with size(C) = 4).
        let n = 4;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = DiGraph::from_edges(n, &edges);
        assert_eq!(g.longest_simple_cycle(), 4);
    }

    #[test]
    fn duplicate_arcs_collapsed() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 0);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn longest_path_prefers_detours() {
        // 0 -> 3 directly, but 0 -> 1 -> 2 -> 3 is longer.
        let g = DiGraph::from_edges(4, &[(0, 3), (0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.longest_simple_path(0, 3), Some(3));
        assert_eq!(g.longest_simple_path(0, 0), Some(0));
    }

    #[test]
    fn disjoint_cliques_cycle() {
        // Two directed 3-cliques (Theorem 8.5 structure): α = 3.
        let mut edges = Vec::new();
        for base in [0usize, 3] {
            for u in 0..3 {
                for v in 0..3 {
                    if u != v {
                        edges.push((base + u, base + v));
                    }
                }
            }
        }
        let g = DiGraph::from_edges(6, &edges);
        assert_eq!(g.longest_simple_cycle(), 3);
    }

    #[test]
    fn edges_listing() {
        let g = DiGraph::from_edges(3, &[(2, 0), (0, 1)]);
        assert_eq!(g.edges(), vec![(0, 1), (2, 0)]);
    }
}
