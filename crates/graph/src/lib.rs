//! # bf-graph — graph substrate for Blowfish policies
//!
//! Blowfish privacy expresses *sensitive information* as a discriminative
//! secret graph `G = (V, E)` over the domain `T` (Section 3.1), and
//! expresses *constraint structure* as a directed policy graph `G_P` over
//! count queries (Section 8, Definition 8.3). This crate supplies both:
//!
//! * [`Graph`] — explicit undirected graphs with BFS shortest paths and
//!   connected components, used for custom secret graphs and brute-force
//!   verification,
//! * [`DiGraph`] — explicit directed graphs with exact longest-simple-cycle
//!   (`α(G_P)`) and longest-simple-path (`ξ(G_P)`) search, used for policy
//!   graphs (these searches are exponential-time in general — Section 8
//!   notes the underlying problem is NP-hard — but exact on the small
//!   constraint sets that arise in practice),
//! * [`SecretGraph`] — the paper's named secret-graph families (full
//!   domain, attribute, partitioned, distance-threshold, line, custom) in
//!   an *implicit* representation that never materializes `|T|²` edges, so
//!   policies scale to domains like the 400×300 twitter grid or the 256³
//!   RGB cube.
//!
//! The [`enumerate`] module adds **structure-aware edge enumeration** on
//! top of the implicit families — `for_each_edge`, `find_edge`,
//! `neighbors_of`, `edge_count`, `max_degree` — visiting the `O(|E|)`
//! actual edges instead of scanning all `Θ(|T|²)` candidate pairs, which
//! is what lets sensitivity closed forms and sparsity checks run on
//! 64K-cell domains in microseconds.

pub mod adjacency;
pub mod digraph;
pub mod enumerate;
pub mod secret;

pub use adjacency::Graph;
pub use digraph::DiGraph;
pub use secret::SecretGraph;
