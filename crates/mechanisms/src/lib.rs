//! # bf-mechanisms — Blowfish-private analysis mechanisms
//!
//! The mechanisms the paper designs and evaluates:
//!
//! * [`histogram`] — Laplace histogram release calibrated to
//!   policy-specific sensitivity (Theorem 5.1), including
//!   constraint-calibrated sensitivities from Section 8,
//! * [`kmeans`] — non-private Lloyd iteration plus the SuLQ-style private
//!   k-means of Section 6, with `q_sum` sensitivity driven by the policy's
//!   secret graph (Lemma 6.1),
//! * [`isotonic`] — pool-adjacent-violators (PAVA) isotonic regression:
//!   the least-squares projection onto the ordering constraint used by
//!   constrained inference (Hay et al.),
//! * [`hierarchical`] — the fanout-`f` hierarchical interval tree
//!   (Hay et al. \[9\]) with uniform budgeting and optional consistency,
//!   the paper's differential-privacy baseline for range queries,
//! * [`ordered`] — the Ordered Mechanism of Section 7.1: noisy prefix sums
//!   with sensitivity `θ` under `G^{L1,θ}` plus ordering-constrained
//!   inference; range-query error `≤ 4/ε²` independent of `|T|` for the
//!   line graph (Theorem 7.1),
//! * [`ordered_hierarchical`] — the hybrid S-node/H-node structure of
//!   Section 7.2 with the closed-form `ε_S*` budget optimizer (Eq. 14–15),
//! * [`range_workload`] — random range-query workloads and mean-squared
//!   error evaluation (the measurements behind Figure 2).

pub mod hierarchical;
pub mod histogram;
pub mod isotonic;
pub mod kmeans;
pub mod ordered;
pub mod ordered_hierarchical;
pub mod range_workload;
pub mod wavelet;

pub use hierarchical::HierarchicalMechanism;
pub use histogram::HistogramMechanism;
pub use isotonic::isotonic_regression;
pub use ordered::{OrderedMechanism, OrderedRelease};
pub use ordered_hierarchical::OrderedHierarchicalMechanism;
pub use range_workload::RangeAnswerer;
pub use wavelet::WaveletMechanism;
