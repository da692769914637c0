//! # bf-core — Blowfish privacy: policies, sensitivity, mechanisms core
//!
//! This crate implements the privacy layer of *Blowfish Privacy: Tuning
//! Privacy-Utility Trade-offs using Policies* (He, Machanavajjhala, Ding —
//! SIGMOD 2014):
//!
//! * [`Policy`] — the triple `P = (T, G, I_Q)` of Definition 3.1: a domain,
//!   a discriminative secret graph, and a set of publicly known
//!   deterministic constraints,
//! * [`neighbors`] — Definition 4.1 neighbors `N(P)`, implemented both as a
//!   fast path for constraint-free policies and as an exact brute-force
//!   enumerator used to *verify* the theory on small domains,
//! * [`sensitivity`] — policy-specific global sensitivity `S(f, P)`
//!   (Definition 5.1) with closed forms for the paper's query workloads and
//!   an exhaustive fallback,
//! * [`laplace`] — Laplace sampling and the policy-calibrated Laplace
//!   mechanism (Theorem 5.1),
//! * [`composition`] — sequential (Theorem 4.1) and parallel (Theorems
//!   4.2/4.3) composition accounting,
//! * [`QueryClass`] — the query shapes a serving layer routes, each with
//!   its policy sensitivity.
//!
//! The privacy *guarantee* of every released answer is
//! `Pr[M(D1) ∈ S] ≤ e^ε · Pr[M(D2) ∈ S]` for all neighbors
//! `(D1, D2) ∈ N(P)` (Definition 4.2).

pub mod audit;
pub mod composition;
pub mod constraint;
pub mod epsilon;
pub mod error;
pub mod laplace;
pub mod neighbors;
pub mod policy;
pub mod query_class;
pub mod sensitivity;
pub mod unbounded;

pub use audit::estimate_max_log_ratio;
pub use composition::{parallel_epsilon, sequential_epsilon, BudgetAccountant};
pub use constraint::{CountConstraint, Predicate};
pub use epsilon::Epsilon;
pub use error::CoreError;
pub use laplace::{sample_laplace, LaplaceMechanism};
pub use neighbors::NeighborSemantics;
pub use policy::Policy;
pub use query_class::QueryClass;
