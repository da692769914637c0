//! # blowfish — policy-driven privacy for statistical databases
//!
//! A Rust implementation of **Blowfish privacy** (He, Machanavajjhala,
//! Ding — *Blowfish Privacy: Tuning Privacy-Utility Trade-offs using
//! Policies*, SIGMOD 2014): a class of privacy definitions that
//! generalizes ε-differential privacy with a **policy**
//! `P = (T, G, I_Q)` specifying
//!
//! * the domain `T` of tuples,
//! * a *discriminative secret graph* `G` — which pairs of values an
//!   adversary must not distinguish (the complete graph recovers
//!   ordinary differential privacy), and
//! * publicly known deterministic constraints `Q` (count queries,
//!   marginals) that induce correlations an adversary could exploit.
//!
//! Weaker secret graphs buy accuracy; declared constraints buy protection
//! against correlation attacks. The workspace crates are re-exported here:
//!
//! | module | contents |
//! |---|---|
//! | [`domain`] | domains, datasets, histograms, grids, partitions |
//! | [`graph`] | secret graphs, policy graphs, graph algorithms |
//! | [`core`] | policies, neighbors, sensitivity, Laplace, composition |
//! | [`constraints`] | Section 8: sparsity, policy graphs, closed forms |
//! | [`mechanisms`] | k-means, histogram, ordered / hierarchical / OH |
//! | [`data`] | seeded synthetic datasets for the paper's experiments |
//! | [`engine`] | multi-tenant serving: sessions → router → sensitivity cache → mechanisms |
//! | [`server`] | async front-end: fair per-analyst scheduling + cross-analyst release coalescing |
//! | [`store`] | durable ε-budget ledger: checksummed WAL, group commit, snapshots, crash recovery |
//! | [`net`] | wire protocol, TCP front-end and client library for multi-process serving |
//! | [`replica`] | Calvin-style deterministic replication: log shipping, quorum acks, ε-lossless failover |
//! | [`obs`] | metrics registry, request-stage spans, Prometheus-style rendering |
//! | [`chaos`] | seed-deterministic fault injection: scripted store/net fault plans, backoff jitter |
//!
//! ## Serving repeated queries
//!
//! For one-shot analyses, call the mechanisms directly as below. To serve
//! *many* requests — multiple analysts, repeated queries, batches — use
//! the [`engine`]: it memoizes policy sensitivities across requests,
//! enforces one ε-ledger per analyst (sequential composition,
//! Theorem 4.1), and answers batched range queries from a single release.
//! See `examples/multi_analyst_serving.rs`.
//!
//! ## Quickstart
//!
//! Release a histogram and answer range queries under a
//! distance-threshold policy:
//!
//! ```
//! use blowfish::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // An ordered domain of 64 salary bins; adversaries may learn a
//! // person's salary to within 4 bins, but nothing finer.
//! let domain = Domain::line(64)?;
//! let policy = Policy::distance_threshold(domain.clone(), 4);
//!
//! // A toy dataset.
//! let rows: Vec<usize> = (0..500).map(|i| (i * 7) % 64).collect();
//! let dataset = Dataset::from_rows(domain, rows)?;
//!
//! // The Ordered Mechanism (Section 7) answers every range query with
//! // error independent of the domain size.
//! let epsilon = Epsilon::new(0.5)?;
//! let mechanism = OrderedMechanism::for_policy(&policy, epsilon);
//! let mut rng = StdRng::seed_from_u64(7);
//! let release = mechanism.release(&dataset.histogram().cumulative(), &mut rng)?;
//!
//! let noisy = release.range(10, 20);
//! let exact = dataset.histogram().range_count(10, 20)?;
//! assert!((noisy - exact).abs() < 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use bf_chaos as chaos;
pub use bf_constraints as constraints;
pub use bf_core as core;
pub use bf_data as data;
pub use bf_domain as domain;
pub use bf_engine as engine;
pub use bf_graph as graph;
pub use bf_mechanisms as mechanisms;
pub use bf_net as net;
pub use bf_obs as obs;
pub use bf_replica as replica;
pub use bf_server as server;
pub use bf_store as store;

/// The most common types, one `use` away.
pub mod prelude {
    pub use bf_constraints::{Marginal, PolicyGraph};
    pub use bf_core::{
        BudgetAccountant, CountConstraint, Epsilon, LaplaceMechanism, Policy, Predicate, QueryClass,
    };
    pub use bf_domain::{
        BoundingBox, CumulativeHistogram, Dataset, Domain, GridDomain, Histogram, Partition,
        PointSet,
    };
    pub use bf_engine::{Engine, EngineError, Request, RequestKind, Response};
    pub use bf_graph::SecretGraph;
    pub use bf_mechanisms::kmeans::{KmeansSecretSpec, PrivateKmeans};
    pub use bf_mechanisms::{HistogramMechanism, OrderedHierarchicalMechanism, OrderedMechanism};
    pub use bf_net::{Client, NetConfig, NetError, NetServer, RetryPolicy, WireError};
    pub use bf_obs::{TraceContext, TraceTree};
    pub use bf_replica::{Replica, ReplicaConfig};
    pub use bf_server::{Server, ServerConfig, ServerError, ServerStats, Ticket};
    pub use bf_store::{LedgerEntry, Store, StoreConfig, StoreError};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compile() {
        let d = Domain::line(4).unwrap();
        let p = Policy::differential_privacy(d);
        assert_eq!(p.label(), "full");
    }
}
