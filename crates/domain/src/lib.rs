//! # bf-domain — discrete domains, datasets and histogram kernels
//!
//! This crate implements the data model underlying Blowfish privacy
//! (He, Machanavajjhala, Ding — SIGMOD 2014):
//!
//! * a dataset `D` of `n` tuples, each drawn from a finite domain
//!   `T = A1 × A2 × … × Am` built from categorical attributes
//!   ([`Attribute`], [`Domain`]),
//! * totally ordered 1-D domains used by the cumulative-histogram
//!   mechanisms of Section 7 ([`OrderedDomain`]),
//! * grid domains `[m]^k` with Lp geometry used by the location
//!   experiments and Section 8.2.3 ([`GridDomain`]),
//! * partitions of the domain used by partitioned sensitive information
//!   `S^P_pairs` ([`Partition`]),
//! * datasets, histograms and cumulative histograms with the exact
//!   query semantics the paper relies on ([`Dataset`], [`Histogram`],
//!   [`CumulativeHistogram`]),
//! * continuous point sets for k-means style analyses ([`PointSet`]).
//!
//! Every domain value is canonically encoded as a dense index in
//! `0..domain.size()`, so the rest of the stack (graphs over the domain,
//! count-query predicates, histograms) can use flat vectors instead of
//! hash maps.

pub mod attribute;
pub mod dataset;
pub mod domain;
pub mod error;
pub mod grid;
pub mod histogram;
pub mod ordered;
pub mod partition;
pub mod points;

pub use attribute::Attribute;
pub use dataset::Dataset;
pub use domain::Domain;
pub use error::DomainError;
pub use grid::GridDomain;
pub use histogram::{CumulativeHistogram, Histogram};
pub use ordered::OrderedDomain;
pub use partition::Partition;
pub use points::{BoundingBox, PointSet};
