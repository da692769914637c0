//! # bf-obs — the observability substrate
//!
//! A production Blowfish deployment has to *prove* operational claims —
//! where a request's time goes, how many answers one release served,
//! how fast an analyst's ε drains — and every signal here exists
//! because a benchmark, an example, a test or an operator question in
//! README reads it (README's signal table names the reader of each).
//! This crate is the measurement substrate every other layer
//! instruments itself with, built on `std` alone:
//!
//! * **[`Registry`]** — a named catalog of instruments. [`Counter`]s are
//!   sharded across cache lines so concurrent increments never contend;
//!   [`Gauge`]s are single atomics; [`Histogram`]s are log-bucketed
//!   (≈12.5% resolution) with p50/p99/p999 readout. Handles are cheap
//!   `Arc` clones: register once, record forever without touching the
//!   registry lock again.
//! * **[`Stage`] / [`Span`]** — a request's lifecycle decomposed into
//!   the seven stages of the serving pipeline (frame decode → analyst
//!   queue → epoch drain → coalesce grouping → WAL commit → mechanism
//!   release → reply flush), each recorded into a per-stage histogram.
//! * **[`render_prometheus`]** — text exposition of a
//!   [`MetricSnapshot`] set, Prometheus-style, for dashboards and the
//!   wire-level `StatsReport` frame.
//! * **[`TraceContext`] / [`TraceTree`]** — request-scoped distributed
//!   tracing: a client-assigned [`TraceId`] rides the `Submit` frame,
//!   every layer appends [`TraceSpan`] records to the travelling
//!   context, and the finished tree lands in the bounded
//!   [`TraceBuffer`] (slowest-N exemplars per stage), scrapeable over
//!   the wire via `Traces`/`TraceReport` frames. Coalesced releases
//!   carry a shared link id across all waiter traces, so amplification
//!   is visible from any one of them.
//! * **[`SloEngine`] / [`SloSpec`]** — declarative service-level
//!   objectives (replication lag, per-analyst ε burn rate) evaluated
//!   over a sliding window of scrapes into `slo_firing` gauges and a
//!   firing/ok state machine. Windowed in scrapes, never wall clocks.
//! * **[`EventBus`] / [`ClusterEvent`]** — the bounded broadcast bus
//!   behind live `Watch` subscriptions, carrying state transitions
//!   only: replication role changes and SLO flips. Per-subscriber
//!   bounded queues drop-with-gap; publishing never blocks the serving
//!   or replication path, and wakes each subscriber it queued for.
//! * **[`merge_labeled_snapshots`]** — label-qualified merging for
//!   federated scrapes: each source's samples gain a
//!   `replica="<node>"` label so a fleet's same-named metrics stay
//!   distinct series.
//!
//! ## Side-channel guarantee
//!
//! Instrumentation is **observation only**: no instrument feeds back
//! into RNG derivation, ε accounting, or scheduling. Disabling a
//! registry ([`Registry::set_enabled`]) freezes every instrument minted
//! from it — recording becomes a single relaxed load — which is how the
//! benches measure instrumentation overhead and the determinism tests
//! pin that same-seed runs stay byte-identical with metrics fully on.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod bus;
mod metrics;
mod registry;
mod render;
mod slo;
mod span;
mod trace;

pub use bus::{BusSubscriber, ClusterEvent, ClusterEventKind, EventBus};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{merge_labeled_snapshots, merge_snapshots, MetricSnapshot, Registry};
pub use render::render_prometheus;
pub use slo::{SloEngine, SloObjective, SloSpec, SloTransition};
pub use span::{Span, Stage};
pub use trace::{
    next_link_id, TraceBuffer, TraceContext, TraceId, TraceSpan, TraceTimer, TraceTree,
};
