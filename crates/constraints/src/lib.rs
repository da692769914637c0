//! # bf-constraints — histograms under count constraints (Section 8)
//!
//! When the policy carries publicly known count-query constraints
//! `Q = {q_φ1, …, q_φp}`, neighboring databases can differ in many tuples
//! and computing the policy-specific sensitivity `S(h, P)` of the complete
//! histogram is NP-hard in general (Theorem 8.1). This crate implements
//! the paper's tractable machinery for the *sparse* case:
//!
//! * [`sparse`] — Definition 8.1 lift/lower analysis and the Definition 8.2
//!   sparsity check (every secret-graph edge lifts at most one query and
//!   lowers at most one query),
//! * [`policy_graph`] — the Definition 8.3 directed policy graph
//!   `G_P = (Q ∪ {v⁺, v⁻}, E_P)` with `α(G_P)` (longest simple cycle) and
//!   `ξ(G_P)` (longest simple `v⁺ → v⁻` path), giving the Theorem 8.2
//!   bound `S(h, P) ≤ 2·max{α, ξ}`,
//! * [`marginal`] — marginals/cuboids as sets of count queries
//!   (Definition 8.4) and the closed forms of Theorem 8.4 (one marginal +
//!   full-domain secrets: `S = 2·size(C)`) and Theorem 8.5 (disjoint
//!   marginals + attribute secrets: `S = 2·maxᵢ size(Cᵢ)`),
//! * [`grid_constraints`] — disjoint range-count constraints on grid
//!   domains with distance-threshold secrets and the Theorem 8.6 closed
//!   form `S = 2·(maxcomp(Q) + 1)`.

pub mod error;
pub mod grid_constraints;
pub mod marginal;
pub mod policy_graph;
pub mod sparse;

pub use marginal::{thm_8_4_sensitivity, Marginal};
pub use policy_graph::PolicyGraph;
