//! The binary wire protocol.
//!
//! ## Frame layout
//!
//! Every message travels in one frame, reusing `bf-store`'s WAL
//! record-framing discipline byte for byte
//! ([`bf_store::frame_into`] / [`bf_store::read_frame`]):
//!
//! ```text
//! ┌───────────┬───────────────┬──────────────┐
//! │ len: u32  │ checksum: u64 │ payload      │   all little-endian
//! └───────────┴───────────────┴──────────────┘
//! ```
//!
//! `checksum` is `bf-store`'s `frame_sum` — XXH64 — over the payload. A
//! frame that fails its checksum, exceeds [`bf_store::MAX_RECORD_LEN`],
//! or decodes to anything but a well-formed message kills the
//! connection — framing damage is never "wait for more bytes", and a
//! flipped byte is never misparsed as a different message (the
//! corruption sweep in the tests pins this). A peer built before the
//! checksum changed sealed its frames with byte-wise FNV-1a: its first
//! frame fails here like any corrupt one, and the `corrupt frame`
//! refusal it is sent fails the same way at its end.
//!
//! ## Message table
//!
//! A payload is one message: a tag byte, then the message's fields in
//! declaration order. [`ClientMessage`] (tags 1–15) and [`ServerMessage`]
//! (tags 65–79) below are the catalogue, and every type they carry is
//! declared the same way: each variant names its tag beside its fields,
//! and the encoder, the decoder and the tests' generators are derived from
//! that one declaration by `bf_store`'s field codec, which derives the
//! WAL's records too. Replica peers speak the same table. README's
//! message catalogue is checked against it by a test.
//!
//! Every message carries a client-assigned **correlation id**; replies
//! echo it, so a client may pipeline any number of requests on one
//! connection and match answers out of order.
//!
//! ## Version
//!
//! There is one dialect. The first frame on a connection is
//! [`ClientMessage::Hello`], and it must carry [`PROTOCOL_VERSION`]: the
//! server answers [`ServerMessage::Welcome`] with the same number, and
//! any other version gets one [`WireError::Protocol`] refusal and a
//! closed connection. Every later frame has exactly one encoding. An
//! older dialect cannot reach a live connection: the frame checksum
//! changed to XXH64 with no version byte, so a binary built before that
//! change fails its first frame as corrupt, and every binary built
//! since speaks this version. The field stays so that the next change
//! to the encoding is refused by number, not misparsed.
//!
//! ε values travel as exact `f64` bit patterns (`_bits` fields), the
//! same discipline the WAL uses — a budget decision made over the wire
//! is bit-identical to one made in process.
//!
//! ## Trust model
//!
//! The protocol has no authentication: every connected client is a
//! trusted curator-side process, and aggregate introspection
//! ([`ClientMessage::Budget`], [`ClientMessage::Stats`],
//! [`ClientMessage::Traces`] — trace trees name analysts and stages,
//! not query contents) is served to any connection. The one exception
//! is [`ClientMessage::BudgetAudit`]: per-record labels and exact ε
//! charges are a materially larger disclosure, so the server refuses
//! it unless the requesting **connection** attached the analyst's
//! session via [`ClientMessage::OpenSession`] — which requires the
//! session's original ε total, a capability strangers don't hold. Once
//! a wire attach has issued an analyst's session token, every
//! [`ClientMessage::Submit`], [`ClientMessage::SubmitBatch`] and
//! [`ClientMessage::BudgetAudit`] for that analyst must present it, on
//! every connection.
//! Deployments needing real multi-tenant isolation must front the
//! port with transport-level auth.

use bf_engine::{Request, RequestKind, Response};
use bf_mechanisms::kmeans::KmeansSecretSpec;
use bf_obs::TraceTree;
use bf_store::codec::{self, Put};
use bf_store::{wire_enum, wire_struct, LedgerEntry};

/// The protocol version — the only one this build speaks or accepts
/// (see the module docs). Version 5 is: idempotency keys, deadlines and
/// trace ids on [`ClientMessage::Submit`]; session tokens issued by
/// [`ServerMessage::SessionAttached`] and presented on every submit,
/// batch and audit; the replica peer frames; and the cluster plane
/// (federated scrape, health probe, live event stream).
pub const PROTOCOL_VERSION: u16 = 5;

/// Idempotency keys at or above this value are reserved for the
/// replication layer, which derives a key from the log position
/// (`RESERVED_REQUEST_ID_BASE | index`) for entries submitted without
/// one — every replica must execute under the same tag. Client-supplied
/// `request_id`s in this range are refused at the wire boundary with
/// [`WireError::InvalidRequest`]: a client key colliding with a derived
/// key would alias another request's cached reply.
pub const RESERVED_REQUEST_ID_BASE: u64 = 1 << 62;

wire_struct! {
    /// A query as it travels the wire: names, exact ε bits, and the kind
    /// payload. Conversion to an engine [`Request`] validates ε.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireRequest {
        /// Registered policy name.
        pub policy: String,
        /// Registered dataset / point-set name.
        pub data: String,
        /// ε as `f64` bits.
        pub epsilon_bits: u64,
        /// Which query family, with its parameters.
        pub kind: WireRequestKind,
    }
}

wire_enum! {
    /// The query families, mirroring [`RequestKind`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireRequestKind {
        /// Complete histogram.
        1 => Histogram,
        /// Cumulative histogram (Ordered Mechanism).
        2 => Cumulative,
        /// Range count `[lo, hi]`, inclusive.
        3 => Range {
            /// Inclusive lower endpoint.
            lo: u64,
            /// Inclusive upper endpoint.
            hi: u64,
        },
        /// Linear query; weights as exact `f64` bits.
        4 => Linear {
            /// One weight per domain value, as bits.
            weight_bits: Vec<u64>,
        },
        /// Private k-means over a registered point set.
        5 => Kmeans {
            /// Cluster count.
            k: u64,
            /// Lloyd iterations.
            iterations: u64,
            /// Sensitive-information spec.
            spec: WireKmeansSpec,
        },
    }
}

wire_enum! {
    /// [`KmeansSecretSpec`] on the wire (parameters as `f64` bits).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireKmeansSpec {
        /// Full-domain secrets.
        1 => Full,
        /// Attribute secrets.
        2 => Attribute,
        /// Distance-threshold secrets, θ in physical units (bits).
        3 => L1Threshold(theta_bits: u64),
        /// Partitioned secrets, max block diameter (bits).
        4 => PartitionMaxDiameter(diameter_bits: u64),
        /// All-singleton partition (exact clustering).
        5 => Exact,
    }
}

wire_enum! {
    /// A served answer on the wire, mirroring [`Response`] with every float
    /// as exact bits. The engine's own [`Response`] is declared under the
    /// same tags and encodes to the same bytes, so a server frames an
    /// answer without building this copy, and a reply cached in the WAL
    /// is the bytes this message carries.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WireResponse {
        /// Noisy per-value counts.
        1 => Histogram(counts: Vec<u64>),
        /// Noisy prefix counts.
        2 => Prefixes(prefixes: Vec<u64>),
        /// A single noisy number.
        3 => Scalar(value: u64),
        /// Final k-means centroids.
        4 => Centroids(centroids: Vec<Vec<u64>>),
    }
}

wire_struct! {
    /// One entry of the replicated log as it travels between replicas
    /// (leader → follower inside [`ServerMessage::Replicate`]). The
    /// `(epoch, index)` stamp is the entry's identity; followers append
    /// entries in index order and make each durable in their own WAL
    /// before acknowledging it.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireLogEntry {
        /// The sequencing epoch the leader stamped.
        pub epoch: u64,
        /// The entry's monotone log position (1-based).
        pub index: u64,
        /// The analyst the operation belongs to.
        pub analyst: String,
        /// The idempotency key every replica executes the entry under —
        /// client-chosen when the `Submit` carried one, else derived from
        /// the log index by the sequencer.
        pub request_id: u64,
        /// The operation itself.
        pub op: WireLogOp,
    }
}

wire_enum! {
    /// The operations that travel the replicated log. Session opens are in
    /// the log too — replicas must agree on ledger *totals*, not just
    /// charges, or a failover could resurrect ε.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireLogOp {
        /// Open (or reattach) the analyst's session with a total ε budget.
        1 => OpenSession {
            /// Total ε as bits.
            total_bits: u64,
        },
        /// Serve one query and charge its ledger.
        2 => Submit {
            /// The query.
            request: WireRequest,
        },
    }
}

impl WireLogOp {
    /// Encodes the op standalone (the byte payload a
    /// `bf_store::Record::Replicated` frame carries).
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes [`WireLogOp::encode`] output; `None` for anything
    /// malformed (a recovering replica must stop, not guess).
    pub fn decode(payload: &[u8]) -> Option<WireLogOp> {
        codec::decode(payload)
    }
}

wire_enum! {
    /// One metric sample in a [`ServerMessage::StatsReport`] — the wire
    /// mirror of `bf_obs::MetricSnapshot`, with gauge values carried as
    /// exact `f64` bit patterns and histogram summaries flattened to their
    /// count/sum/max and quantile estimates (nanoseconds for the `_ns`
    /// instruments).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WireMetric {
        /// A monotone counter's total.
        1 => Counter {
            /// Metric name (labels-in-name convention).
            name: String,
            /// Total count.
            value: u64,
        },
        /// A gauge's current value.
        2 => Gauge {
            /// Metric name.
            name: String,
            /// Value as `f64` bits.
            bits: u64,
        },
        /// A latency/size histogram's summary.
        3 => Histogram {
            /// Metric name.
            name: String,
            /// Observations recorded.
            count: u64,
            /// Sum of observed values.
            sum: u64,
            /// Largest observed value.
            max: u64,
            /// Median estimate.
            p50: u64,
            /// 99th percentile estimate.
            p99: u64,
            /// 99.9th percentile estimate.
            p999: u64,
        },
    }
}

impl WireMetric {
    /// Encodes a `bf_obs` snapshot for the wire.
    pub fn from_snapshot(snap: &bf_obs::MetricSnapshot) -> Self {
        use bf_obs::MetricSnapshot as MS;
        match snap {
            MS::Counter { name, value } => WireMetric::Counter {
                name: name.clone(),
                value: *value,
            },
            MS::Gauge { name, value } => WireMetric::Gauge {
                name: name.clone(),
                bits: value.to_bits(),
            },
            MS::Histogram { name, summary } => WireMetric::Histogram {
                name: name.clone(),
                count: summary.count,
                sum: summary.sum,
                max: summary.max,
                p50: summary.p50,
                p99: summary.p99,
                p999: summary.p999,
            },
        }
    }

    /// Decodes back to a `bf_obs` snapshot, bit-exactly.
    pub fn to_snapshot(&self) -> bf_obs::MetricSnapshot {
        use bf_obs::MetricSnapshot as MS;
        match self {
            WireMetric::Counter { name, value } => MS::Counter {
                name: name.clone(),
                value: *value,
            },
            WireMetric::Gauge { name, bits } => MS::Gauge {
                name: name.clone(),
                value: f64::from_bits(*bits),
            },
            WireMetric::Histogram {
                name,
                count,
                sum,
                max,
                p50,
                p99,
                p999,
            } => MS::Histogram {
                name: name.clone(),
                summary: bf_obs::HistogramSummary {
                    count: *count,
                    sum: *sum,
                    max: *max,
                    p50: *p50,
                    p99: *p99,
                    p999: *p999,
                },
            },
        }
    }

    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            WireMetric::Counter { name, .. }
            | WireMetric::Gauge { name, .. }
            | WireMetric::Histogram { name, .. } => name,
        }
    }
}

wire_enum! {
    /// Typed refusals, mirroring `bf-server`'s `ServerError` and the
    /// operationally meaningful `bf-engine` `EngineError` variants. Errors
    /// a client cannot act on distinctly collapse into
    /// [`WireError::Other`] with the server's rendered message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireError {
        /// The analyst's server-side submission queue is full — resubmit
        /// after draining answers.
        1 => QueueFull {
            /// Whose queue.
            analyst: String,
            /// Configured capacity.
            capacity: u64,
        },
        /// This connection's in-flight window is full — read some answers
        /// before submitting more.
        2 => WindowFull {
            /// Configured per-connection window.
            capacity: u64,
        },
        /// Admission control refused: requested ε exceeds the remaining
        /// budget (bits carry exact values).
        3 => BudgetExhausted {
            /// Whose ledger.
            analyst: String,
            /// Requested ε bits.
            requested_bits: u64,
            /// Remaining ε bits.
            remaining_bits: u64,
        },
        /// The ledger refused the charge at serve time.
        4 => BudgetRefused {
            /// Whose ledger.
            analyst: String,
            /// Requested ε bits.
            requested_bits: u64,
            /// Remaining ε bits.
            remaining_bits: u64,
        },
        /// The serving process is shutting down.
        5 => ShutDown,
        /// No policy registered under this name.
        6 => UnknownPolicy(name: String),
        /// No dataset registered under this name.
        7 => UnknownDataset(name: String),
        /// No point set registered under this name.
        8 => UnknownPoints(name: String),
        /// No open session for this analyst.
        9 => UnknownAnalyst(name: String),
        /// The session was evicted; reopen with the original total.
        10 => SessionEvicted(name: String),
        /// The request is malformed (or a session total mismatched).
        11 => InvalidRequest(message: String),
        /// The peer broke the protocol (bad frame, bad handshake, unknown
        /// correlation id).
        12 => Protocol(message: String),
        /// Any other server-side failure, rendered.
        13 => Other(message: String),
        /// Load shedding: the server's total backlog is at its configured
        /// shed depth. Nothing was queued or charged; back off and
        /// resubmit.
        14 => Overloaded {
            /// Total queued requests at refusal time.
            depth: u64,
            /// The configured shed threshold.
            limit: u64,
        },
        /// The request's deadline elapsed before dispatch; refused before
        /// any charge.
        15 => DeadlineExceeded {
            /// Whose request expired.
            analyst: String,
        },
        /// This replica is a follower: writes must go to the leader. The
        /// hint is the leader's client-facing address when known, empty
        /// when the follower itself is between leaders.
        16 => NotLeader {
            /// The leader's client address hint (may be empty).
            leader: String,
        },
        /// This follower's replay lags the leader beyond its configured
        /// staleness bound; the read was refused rather than served stale.
        17 => StaleReplica {
            /// Entries logged but not yet applied here.
            lag_entries: u64,
        },
        /// A replica peer refusal: the follower asked to catch up from an
        /// index beyond the leader's durable log — its tail belongs to a
        /// deposed epoch. The follower must truncate its un-applied suffix
        /// back to the leader's high-water mark and resubscribe from there.
        18 => LogDiverged {
            /// The leader's durable log high-water mark (the highest index
            /// the follower may keep).
            leader_high_water: u64,
        },
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::QueueFull { analyst, capacity } => {
                write!(f, "queue full for {analyst:?} (capacity {capacity})")
            }
            WireError::WindowFull { capacity } => {
                write!(f, "connection window full (capacity {capacity})")
            }
            WireError::BudgetExhausted {
                analyst,
                requested_bits,
                remaining_bits,
            } => write!(
                f,
                "admission refused for {analyst:?}: requested ε={}, remaining ε={}",
                f64::from_bits(*requested_bits),
                f64::from_bits(*remaining_bits)
            ),
            WireError::BudgetRefused {
                analyst,
                requested_bits,
                remaining_bits,
            } => write!(
                f,
                "budget refused for {analyst:?}: requested ε={}, remaining ε={}",
                f64::from_bits(*requested_bits),
                f64::from_bits(*remaining_bits)
            ),
            WireError::ShutDown => write!(f, "server shutting down"),
            WireError::UnknownPolicy(n) => write!(f, "unknown policy {n:?}"),
            WireError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            WireError::UnknownPoints(n) => write!(f, "unknown point set {n:?}"),
            WireError::UnknownAnalyst(n) => write!(f, "no open session for analyst {n:?}"),
            WireError::SessionEvicted(n) => write!(
                f,
                "session for {n:?} was evicted; reopen with the original total"
            ),
            WireError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::Other(m) => write!(f, "server error: {m}"),
            WireError::Overloaded { depth, limit } => {
                write!(
                    f,
                    "overloaded: {depth} requests queued (shed depth {limit})"
                )
            }
            WireError::DeadlineExceeded { analyst } => {
                write!(f, "deadline exceeded for {analyst:?} before dispatch")
            }
            WireError::NotLeader { leader } if leader.is_empty() => {
                write!(f, "not the leader (no leader hint)")
            }
            WireError::NotLeader { leader } => {
                write!(f, "not the leader; writes go to {leader}")
            }
            WireError::StaleReplica { lag_entries } => {
                write!(
                    f,
                    "replica {lag_entries} log entries behind its staleness bound"
                )
            }
            WireError::LogDiverged { leader_high_water } => {
                write!(
                    f,
                    "log diverged: truncate to the leader's high water {leader_high_water} \
                     and resubscribe"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

wire_enum! {
    correlated
    /// Client → server messages. Every variant leads with the correlation
    /// id its reply will echo.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ClientMessage {
        /// Version handshake — must be the first frame on a connection.
        1 => Hello {
            /// Correlation id.
            id: u64,
            /// [`PROTOCOL_VERSION`] the client speaks.
            version: u16,
        },
        /// Open (or reattach) an analyst session with a total ε budget.
        2 => OpenSession {
            /// Correlation id.
            id: u64,
            /// The analyst.
            analyst: String,
            /// Total ε as bits.
            total_bits: u64,
        },
        /// Submit one query.
        3 => Submit {
            /// Correlation id.
            id: u64,
            /// The analyst submitting.
            analyst: String,
            /// The query.
            request: WireRequest,
            /// Durable idempotency key: a resubmission with the same
            /// `(analyst, request_id)` replays the original answer
            /// bit-for-bit at **zero additional ε** instead of drawing a
            /// fresh release. `None` opts out of retry safety.
            request_id: Option<u64>,
            /// Scheduling deadline in microseconds from receipt: refuse
            /// (before any charge) rather than answer late. `None` waits
            /// indefinitely.
            deadline_micros: Option<u64>,
            /// Client-assigned distributed-tracing id: the server threads a
            /// trace context through every pipeline stage this request
            /// touches and retains the finished tree in its exemplar
            /// buffer, scrapeable via [`ClientMessage::Traces`]. `None`
            /// leaves the request untraced (zero overhead).
            trace_id: Option<u64>,
            /// The session token [`ServerMessage::SessionAttached`] issued.
            /// Once a token exists for the analyst, submissions without it
            /// — or with a stale one — are refused with
            /// [`WireError::InvalidRequest`]. `None` for sessions opened
            /// in-process.
            token: Option<u64>,
        },
        /// Submit several queries answered as one correlated batch (the
        /// server's coalescing window folds compatible members into shared
        /// releases).
        4 => SubmitBatch {
            /// Correlation id.
            id: u64,
            /// The analyst submitting.
            analyst: String,
            /// The queries.
            requests: Vec<WireRequest>,
            /// The session token [`ServerMessage::SessionAttached`] issued
            /// — required under the same rules as
            /// [`ClientMessage::Submit`]'s; a batch charges the same budget
            /// a single submit does, so it passes the same gate.
            token: Option<u64>,
        },
        /// Ask for an analyst's ledger snapshot.
        5 => Budget {
            /// Correlation id.
            id: u64,
            /// The analyst.
            analyst: String,
        },
        /// Ask for the serving process's full metrics snapshot (engine,
        /// server, net and store registries merged).
        7 => Stats {
            /// Correlation id.
            id: u64,
        },
        /// Ask for the retained trace-tree exemplars (the slowest-N per
        /// stage plus the most recent, as the server's bounded trace
        /// buffer keeps them).
        8 => Traces {
            /// Correlation id.
            id: u64,
        },
        /// Ask for an analyst's complete ε-provenance history — every
        /// durable `Charged`/`Replied` ledger record in WAL total order,
        /// across live **and archived** segments. Refused with
        /// [`WireError::InvalidRequest`] unless this connection attached
        /// the analyst's session (see the module-level trust model).
        9 => BudgetAudit {
            /// Correlation id.
            id: u64,
            /// Whose ledger history.
            analyst: String,
            /// The analyst's session token — required once one was
            /// issued, like [`ClientMessage::Submit`]'s.
            token: Option<u64>,
        },
        /// Replica peer frame: a follower subscribes to the replicated
        /// log starting at `from_index`, announcing the epoch it last saw.
        /// The leader replies with a stream of [`ServerMessage::Replicate`]
        /// frames (or [`WireError::NotLeader`] if it is not sequencing).
        10 => LogCatchup {
            /// Correlation id.
            id: u64,
            /// Highest epoch the follower has seen — a leader below it must
            /// step down (fencing).
            epoch: u64,
            /// First log index the follower is missing.
            from_index: u64,
            /// Epoch of the follower's last durable entry (0 when its log is
            /// empty). The leader checks it against its own entry at
            /// `from_index - 1` — Raft's log-matching property — and refuses
            /// with [`WireError::LogDiverged`] on a mismatch: the follower
            /// holds an orphan suffix from a dead epoch and must truncate
            /// back to its commit point before resubscribing.
            last_epoch: u64,
        },
        /// Replica peer frame: read-only probe of a peer's durable log
        /// position, answered by [`ServerMessage::PeerStatusReport`]
        /// regardless of the peer's role. A promotion candidate probes the
        /// surviving peers first: promoting a node whose durable log is
        /// shorter than a survivor's would silently drop quorum-acked
        /// entries.
        12 => PeerStatus {
            /// Correlation id.
            id: u64,
        },
        /// Replica peer frame: the follower has made every entry up to
        /// `index` durable in its own WAL. Acks are cumulative — entries
        /// arrive in order, so one ack covers the whole prefix.
        11 => ReplicateAck {
            /// Correlation id (0: unsolicited stream traffic).
            id: u64,
            /// The follower's current epoch (fencing: an ack above the
            /// leader's epoch deposes it).
            epoch: u64,
            /// Durable log high-water mark on the follower.
            index: u64,
        },
        /// Cluster-plane frame: ask the serving node to fan a stats
        /// probe to every configured peer over the peer port and merge the
        /// fleet's snapshots, each source qualified with a
        /// `replica="<node>"` label, answered by
        /// [`ServerMessage::ClusterStatsReport`]. One call covers the
        /// whole cluster; unreachable peers are reported, never silently
        /// dropped.
        13 => ClusterStats {
            /// Correlation id.
            id: u64,
        },
        /// Cluster-plane frame: one cheap health probe suitable for a
        /// load balancer — role, epoch, replication lag, WAL depth, queue
        /// depth, unreachable peers and the firing-SLO list, answered by
        /// [`ServerMessage::HealthReport`].
        14 => Health {
            /// Correlation id.
            id: u64,
        },
        /// Cluster-plane frame: subscribe this connection to the
        /// node's live event bus. The server pushes [`ServerMessage::Event`]
        /// frames echoing this correlation id until the client sends
        /// [`ClientMessage::Goodbye`] or disconnects. The subscription's
        /// queue is bounded: a slow consumer loses events (counted), never
        /// stalls the serving or replication path.
        15 => Watch {
            /// Correlation id every pushed event will echo.
            id: u64,
        },
        /// Orderly close: the server finishes in-flight work, replies
        /// [`ServerMessage::Farewell`], and closes.
        6 => Goodbye {
            /// Correlation id.
            id: u64,
        },
    }
}

wire_enum! {
    correlated
    /// Server → client messages; `id` echoes the triggering request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServerMessage {
        /// Handshake accepted.
        65 => Welcome {
            /// Correlation id of the `Hello`.
            id: u64,
            /// Version the server speaks.
            version: u16,
        },
        /// Session opened or reattached.
        66 => SessionAttached {
            /// Correlation id.
            id: u64,
            /// Remaining ε as bits (total minus durable spent).
            remaining_bits: u64,
            /// Server-issued session token: later [`ClientMessage::Submit`]
            /// / [`ClientMessage::SubmitBatch`] /
            /// [`ClientMessage::BudgetAudit`] frames for this analyst must
            /// present it. Stable across reattaches of the same analyst
            /// within one server process; never `0`.
            token: u64,
        },
        /// A query's answer.
        67 => Answer {
            /// Correlation id.
            id: u64,
            /// The response.
            response: WireResponse,
            /// The trace id the `Submit` carried, echoed so a pipelining
            /// client can pair answers with the traces it assigned.
            trace_id: Option<u64>,
        },
        /// A batch's per-slot answers, in submission order.
        68 => BatchAnswer {
            /// Correlation id.
            id: u64,
            /// One result per submitted query.
            slots: Vec<Result<WireResponse, WireError>>,
        },
        /// An analyst's ledger snapshot.
        69 => BudgetReport {
            /// Correlation id.
            id: u64,
            /// Total ε bits.
            total_bits: u64,
            /// Spent ε bits.
            spent_bits: u64,
            /// Remaining ε bits.
            remaining_bits: u64,
            /// Requests served.
            served: u64,
        },
        /// The process's metrics snapshot, one sample per registered
        /// metric, sorted by name.
        72 => StatsReport {
            /// Correlation id.
            id: u64,
            /// Every registered metric.
            metrics: Vec<WireMetric>,
        },
        /// The process's retained trace trees.
        73 => TraceReport {
            /// Correlation id.
            id: u64,
            /// The retained exemplars, oldest first.
            traces: Vec<TraceTree>,
        },
        /// An analyst's ε-provenance ledger history, WAL total order.
        74 => AuditReport {
            /// Correlation id.
            id: u64,
            /// One entry per durable charge, oldest first.
            entries: Vec<LedgerEntry>,
        },
        /// The correlated request was refused.
        70 => Refused {
            /// Correlation id.
            id: u64,
            /// Why.
            error: WireError,
            /// The trace id the `Submit` carried (when the refusal
            /// correlates to a traced submission), echoed like
            /// [`ServerMessage::Answer`] does.
            trace_id: Option<u64>,
        },
        /// Replica peer frame: the leader streams log entries in index
        /// order, piggybacking its current commit index — the quorum-durable
        /// prefix followers may execute. A frame may carry zero entries
        /// (a pure commit-index bump).
        75 => Replicate {
            /// Correlation id (0: unsolicited stream traffic).
            id: u64,
            /// The leader's sequencing epoch (fencing: followers refuse
            /// entries from a lower epoch than they have seen).
            epoch: u64,
            /// Highest log index durable on a quorum — followers execute
            /// entries up to `min(commit_index, locally durable)`.
            commit_index: u64,
            /// New entries, in index order.
            entries: Vec<WireLogEntry>,
        },
        /// Replica peer frame: answer to [`ClientMessage::PeerStatus`]
        /// — this peer's durable log position, served regardless of role so
        /// a promotion candidate can verify it holds the longest surviving
        /// log before fencing a new epoch.
        76 => PeerStatusReport {
            /// Correlation id.
            id: u64,
            /// The peer's current sequencing epoch.
            epoch: u64,
            /// Largest durable log index in the peer's WAL.
            high_water: u64,
            /// Largest index executed through the peer's engine.
            applied: u64,
        },
        /// Cluster-plane frame: answer to
        /// [`ClientMessage::ClusterStats`] — one [`WireReplicaStats`] per
        /// cluster member (the serving node first), each metric set
        /// already qualified with its source's `replica="<node>"` label.
        77 => ClusterStatsReport {
            /// Correlation id.
            id: u64,
            /// Per-member snapshots, serving node first, peers in
            /// configured order.
            replicas: Vec<WireReplicaStats>,
        },
        /// Cluster-plane frame: answer to [`ClientMessage::Health`].
        /// Gauges the probe reports (lag, applied) are refreshed from live
        /// node state at probe time, not from the last replication-stream
        /// receipt.
        78 => HealthReport {
            /// Correlation id.
            id: u64,
            /// Serving role: `"leader"`, `"follower"` or `"standalone"`.
            role: String,
            /// Current sequencing epoch (0 when standalone).
            epoch: u64,
            /// Largest log index executed through the engine.
            applied: u64,
            /// Commit-to-apply replication lag in entries.
            lag: u64,
            /// Durable WAL segment count (live plus archived).
            wal_segments: u64,
            /// Queued submissions across every analyst queue.
            queue_depth: u64,
            /// Peer addresses that did not answer a status probe.
            unreachable: Vec<String>,
            /// Names of SLOs currently firing.
            firing: Vec<String>,
        },
        /// Cluster-plane frame: one live event pushed to a
        /// [`ClientMessage::Watch`] subscription (`id` echoes the watch).
        79 => Event {
            /// Correlation id of the subscribing `Watch`.
            id: u64,
            /// Bus sequence number — gaps mean the subscriber's bounded
            /// queue dropped events.
            seq: u64,
            /// What happened.
            kind: WireEventKind,
            /// Human-readable detail (`role@epoch`, SLO name).
            detail: String,
            /// Kind-specific magnitude (epoch, 0/1 firing).
            value: u64,
        },
        /// Goodbye acknowledged; the server closes after this frame.
        71 => Farewell {
            /// Correlation id.
            id: u64,
        },
    }
}

wire_struct! {
    /// One cluster member's contribution to a
    /// [`ServerMessage::ClusterStatsReport`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireReplicaStats {
        /// The member's node label (its peer address).
        pub node: String,
        /// Whether the member answered the scrape probe. Unreachable
        /// members carry no metrics but stay in the report so a missing
        /// replica is visible, not silently absent.
        pub reachable: bool,
        /// The member's metrics, each name qualified with
        /// `replica="<node>"`. Empty when unreachable.
        pub metrics: Vec<WireMetric>,
    }
}

wire_enum! {
    /// What a pushed [`ServerMessage::Event`] describes, mirroring
    /// [`bf_obs::ClusterEventKind`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireEventKind {
        /// The node's replication role or epoch changed.
        3 => Role,
        /// An SLO transitioned between ok and firing.
        4 => Slo,
    }
}

impl From<bf_obs::ClusterEventKind> for WireEventKind {
    fn from(kind: bf_obs::ClusterEventKind) -> Self {
        match kind {
            bf_obs::ClusterEventKind::Role => WireEventKind::Role,
            bf_obs::ClusterEventKind::Slo => WireEventKind::Slo,
        }
    }
}

impl From<WireEventKind> for bf_obs::ClusterEventKind {
    fn from(kind: WireEventKind) -> Self {
        match kind {
            WireEventKind::Role => bf_obs::ClusterEventKind::Role,
            WireEventKind::Slo => bf_obs::ClusterEventKind::Slo,
        }
    }
}

// ---------------------------------------------------------------------
// Conversions to/from the engine vocabulary
// ---------------------------------------------------------------------

impl WireRequest {
    /// Encodes an engine [`Request`] for the wire (exact ε bits).
    pub fn from_request(request: &Request) -> Self {
        let kind = match &request.kind {
            RequestKind::Histogram => WireRequestKind::Histogram,
            RequestKind::CumulativeHistogram => WireRequestKind::Cumulative,
            RequestKind::Range { lo, hi } => WireRequestKind::Range {
                lo: *lo as u64,
                hi: *hi as u64,
            },
            RequestKind::Linear { weights } => WireRequestKind::Linear {
                weight_bits: weights.iter().map(|w| w.to_bits()).collect(),
            },
            RequestKind::KMeans {
                k,
                iterations,
                spec,
            } => WireRequestKind::Kmeans {
                k: *k as u64,
                iterations: *iterations as u64,
                spec: WireKmeansSpec::from_spec(*spec),
            },
        };
        Self {
            policy: request.policy.clone(),
            data: request.data.clone(),
            epsilon_bits: request.epsilon.value().to_bits(),
            kind,
        }
    }

    /// Decodes into an engine [`Request`], checking ε only as an
    /// `Epsilon`: a subnormal ε decodes, and the engine refuses it (with
    /// every other inadmissible field) before the charge.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidRequest`] when the ε bits are not a valid
    /// budget (negative, NaN, infinite).
    pub fn to_request(&self) -> Result<Request, WireError> {
        let epsilon = bf_core::Epsilon::new(f64::from_bits(self.epsilon_bits))
            .map_err(|e| WireError::InvalidRequest(e.to_string()))?;
        let kind = match &self.kind {
            WireRequestKind::Histogram => RequestKind::Histogram,
            WireRequestKind::Cumulative => RequestKind::CumulativeHistogram,
            WireRequestKind::Range { lo, hi } => RequestKind::Range {
                lo: *lo as usize,
                hi: *hi as usize,
            },
            WireRequestKind::Linear { weight_bits } => RequestKind::Linear {
                weights: weight_bits.iter().map(|b| f64::from_bits(*b)).collect(),
            },
            WireRequestKind::Kmeans {
                k,
                iterations,
                spec,
            } => RequestKind::KMeans {
                k: *k as usize,
                iterations: *iterations as usize,
                spec: spec.to_spec(),
            },
        };
        Ok(Request {
            policy: self.policy.clone(),
            data: self.data.clone(),
            epsilon,
            kind,
        })
    }
}

impl WireKmeansSpec {
    /// Encodes a [`KmeansSecretSpec`].
    pub(crate) fn from_spec(spec: KmeansSecretSpec) -> Self {
        match spec {
            KmeansSecretSpec::Full => WireKmeansSpec::Full,
            KmeansSecretSpec::Attribute => WireKmeansSpec::Attribute,
            KmeansSecretSpec::L1Threshold(t) => WireKmeansSpec::L1Threshold(t.to_bits()),
            KmeansSecretSpec::PartitionMaxDiameter(d) => {
                WireKmeansSpec::PartitionMaxDiameter(d.to_bits())
            }
            KmeansSecretSpec::Exact => WireKmeansSpec::Exact,
        }
    }

    /// Decodes back to a [`KmeansSecretSpec`].
    pub(crate) fn to_spec(self) -> KmeansSecretSpec {
        match self {
            WireKmeansSpec::Full => KmeansSecretSpec::Full,
            WireKmeansSpec::Attribute => KmeansSecretSpec::Attribute,
            WireKmeansSpec::L1Threshold(b) => KmeansSecretSpec::L1Threshold(f64::from_bits(b)),
            WireKmeansSpec::PartitionMaxDiameter(b) => {
                KmeansSecretSpec::PartitionMaxDiameter(f64::from_bits(b))
            }
            WireKmeansSpec::Exact => KmeansSecretSpec::Exact,
        }
    }
}

impl WireResponse {
    /// Encodes an engine [`Response`] (exact bits).
    pub fn from_response(response: &Response) -> Self {
        match response {
            Response::Histogram(v) => {
                WireResponse::Histogram(v.iter().map(|x| x.to_bits()).collect())
            }
            Response::Prefixes(v) => {
                WireResponse::Prefixes(v.iter().map(|x| x.to_bits()).collect())
            }
            Response::Scalar(x) => WireResponse::Scalar(x.to_bits()),
            Response::Centroids(cs) => WireResponse::Centroids(
                cs.iter()
                    .map(|c| c.iter().map(|x| x.to_bits()).collect())
                    .collect(),
            ),
        }
    }

    /// Decodes back to an engine [`Response`], bit-exactly.
    pub(crate) fn to_response(&self) -> Response {
        match self {
            WireResponse::Histogram(v) => {
                Response::Histogram(v.iter().map(|b| f64::from_bits(*b)).collect())
            }
            WireResponse::Prefixes(v) => {
                Response::Prefixes(v.iter().map(|b| f64::from_bits(*b)).collect())
            }
            WireResponse::Scalar(b) => Response::Scalar(f64::from_bits(*b)),
            WireResponse::Centroids(cs) => Response::Centroids(
                cs.iter()
                    .map(|c| c.iter().map(|b| f64::from_bits(*b)).collect())
                    .collect(),
            ),
        }
    }
}

impl WireError {
    /// Maps a server-side refusal onto the wire vocabulary.
    pub(crate) fn from_server_error(e: &bf_server::ServerError) -> Self {
        use bf_server::ServerError as SE;
        match e {
            SE::QueueFull { analyst, capacity } => WireError::QueueFull {
                analyst: analyst.clone(),
                capacity: *capacity as u64,
            },
            SE::BudgetExhausted {
                analyst,
                requested,
                remaining,
            } => WireError::BudgetExhausted {
                analyst: analyst.clone(),
                requested_bits: requested.to_bits(),
                remaining_bits: remaining.to_bits(),
            },
            SE::Overloaded { depth, limit } => WireError::Overloaded {
                depth: *depth as u64,
                limit: *limit as u64,
            },
            SE::DeadlineExceeded { analyst } => WireError::DeadlineExceeded {
                analyst: analyst.clone(),
            },
            SE::ShutDown => WireError::ShutDown,
            SE::Engine(e) => WireError::from_engine_error(e),
        }
    }

    /// Maps an engine refusal onto the wire vocabulary.
    pub fn from_engine_error(e: &bf_engine::EngineError) -> Self {
        use bf_engine::EngineError as EE;
        match e {
            EE::UnknownPolicy(n) => WireError::UnknownPolicy(n.clone()),
            EE::UnknownDataset(n) => WireError::UnknownDataset(n.clone()),
            EE::UnknownPoints(n) => WireError::UnknownPoints(n.clone()),
            EE::UnknownAnalyst(n) => WireError::UnknownAnalyst(n.clone()),
            EE::SessionEvicted(n) => WireError::SessionEvicted(n.clone()),
            EE::BudgetRefused {
                analyst,
                requested,
                remaining,
            } => WireError::BudgetRefused {
                analyst: analyst.clone(),
                requested_bits: requested.to_bits(),
                remaining_bits: remaining.to_bits(),
            },
            EE::InvalidRequest(m) => WireError::InvalidRequest(m.clone()),
            other => WireError::Other(other.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------

impl ClientMessage {
    /// The payload bytes (no frame).
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// [`ClientMessage::encode`] for the frozen `bfbench`, which still
    /// passes a version: [`PROTOCOL_VERSION`] or a panic. ROADMAP item 2
    /// removes it with the next change to `bfbench/`.
    pub fn encode_for(&self, version: u16) -> Vec<u8> {
        assert_eq!(version, PROTOCOL_VERSION, "the wire has one dialect");
        self.encode()
    }

    /// [`ClientMessage::encode`] appended to `out` — the form
    /// [`bf_store::frame_into`] takes, so a message is encoded straight
    /// into the frame that carries it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Decodes a payload produced by [`ClientMessage::encode`]; `None`
    /// when the bytes are not a well-formed message (the connection must
    /// close — a framing layer that let damage through cannot be
    /// trusted).
    pub fn decode(payload: &[u8]) -> Option<ClientMessage> {
        codec::decode(payload)
    }

    /// [`ClientMessage::decode`] for the frozen `bfbench`, which still
    /// passes a version: any but [`PROTOCOL_VERSION`] decodes nothing.
    /// ROADMAP item 2 removes it with the next change to `bfbench/`.
    pub fn decode_for(payload: &[u8], version: u16) -> Option<ClientMessage> {
        (version == PROTOCOL_VERSION).then(|| Self::decode(payload))?
    }
}

/// The tags the server's writer frames engine answers under.
const ANSWER: u8 = codec::tag(ServerMessage::TAGS, "Answer");
const BATCH_ANSWER: u8 = codec::tag(ServerMessage::TAGS, "BatchAnswer");

impl ServerMessage {
    /// The payload bytes (no frame).
    pub(crate) fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// `ServerMessage::encode` for the frozen `bfbench` (see
    /// [`ClientMessage::encode_for`]).
    pub fn encode_for(&self, version: u16) -> Vec<u8> {
        assert_eq!(version, PROTOCOL_VERSION, "the wire has one dialect");
        self.encode()
    }

    /// `ServerMessage::encode` appended to `out` (see
    /// [`ClientMessage::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Appends the payload of the [`ServerMessage::Answer`] that carries
    /// `response` — the bytes `WireResponse::from_response(response)`
    /// would encode to inside one, without building it: the server's
    /// writer turns each float into its wire bits as it lands in the
    /// frame.
    pub(crate) fn encode_answer_into(
        out: &mut Vec<u8>,
        id: u64,
        response: &Response,
        trace_id: Option<u64>,
    ) {
        out.push(ANSWER);
        id.put(out);
        response.put(out);
        trace_id.put(out);
    }

    /// [`ServerMessage::encode_answer_into`] for a
    /// [`ServerMessage::BatchAnswer`].
    pub(crate) fn encode_batch_answer_into(
        out: &mut Vec<u8>,
        id: u64,
        slots: &[Result<Response, WireError>],
    ) {
        out.push(BATCH_ANSWER);
        id.put(out);
        Put::put_list(slots, out);
    }

    /// Decodes a payload produced by `ServerMessage::encode`; `None`
    /// for anything malformed.
    pub fn decode(payload: &[u8]) -> Option<ServerMessage> {
        codec::decode(payload)
    }

    /// [`ServerMessage::decode`] for the frozen `bfbench` (see
    /// [`ClientMessage::decode_for`]).
    pub fn decode_for(payload: &[u8], version: u16) -> Option<ServerMessage> {
        (version == PROTOCOL_VERSION).then(|| Self::decode(payload))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_store::codec::{tag, Arb};
    use bf_store::{frame_bytes, frame_into, read_frame, FrameBuf, FrameRead};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        /// Every client message round-trips encode → decode exactly.
        #[test]
        fn client_messages_round_trip(seed in 0u64..512) {
            let msg = ClientMessage::arb(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(ClientMessage::decode(&msg.encode()), Some(msg));
        }

        /// Every server message round-trips encode → decode exactly.
        #[test]
        fn server_messages_round_trip(seed in 0u64..512) {
            let msg = ServerMessage::arb(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(ServerMessage::decode(&msg.encode()), Some(msg));
        }

        /// Log operations round-trip standalone — the encoding a
        /// `Record::Replicated` WAL frame carries must survive recovery.
        #[test]
        fn log_ops_round_trip(seed in 0u64..256) {
            let op = WireLogOp::arb(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(WireLogOp::decode(&op.encode()), Some(op));
        }

        /// Metric samples survive obs-snapshot → wire → obs-snapshot
        /// bit-exactly (gauges carried as raw `f64` bits).
        #[test]
        fn metric_snapshot_conversions_round_trip(seed in 0u64..256) {
            let wire = WireMetric::arb(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(WireMetric::from_snapshot(&wire.to_snapshot()), wire);
        }

        /// Engine request/response conversions are lossless (ε, weights
        /// and answers as exact bits).
        #[test]
        fn engine_conversions_round_trip(seed in 0u64..256) {
            let mut rng = StdRng::seed_from_u64(seed);
            let wire = WireRequest::arb(&mut rng);
            if let Ok(request) = wire.to_request() {
                prop_assert_eq!(WireRequest::from_request(&request), wire);
            }
            let resp = WireResponse::arb(&mut rng);
            prop_assert_eq!(WireResponse::from_response(&resp.to_response()), resp.clone());
        }

        /// An engine answer's own bytes — what a `Replied` WAL frame
        /// caches — are its wire mirror's, and exactly the response bytes
        /// of the `Answer` frame that carries it: one answer, one encoding.
        #[test]
        fn an_engine_answer_encodes_to_its_wire_mirror(seed in 0u64..512) {
            let response = Response::arb(&mut StdRng::seed_from_u64(seed));
            let bytes = response.to_bytes();
            let wire = WireResponse::from_response(&response);
            prop_assert_eq!(&bytes, &codec::encode(&wire));
            let answer = ServerMessage::Answer { id: seed, response: wire, trace_id: None };
            prop_assert_eq!(&answer.encode()[9..], &[&bytes[..], &[0]].concat()[..]);
        }

        /// `encode_into` appends, to whatever the buffer already holds,
        /// exactly the bytes `encode_for` returns at the one version —
        /// both directions — and the writer's two engine-`Response`
        /// encoders produce the `Answer` / `BatchAnswer` payloads of the
        /// wire mirror they skip.
        #[test]
        fn encode_into_appends_what_encode_for_returns(seed in 0u64..512) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cm = ClientMessage::arb(&mut rng);
            let sm = ServerMessage::arb(&mut rng);
            let response = WireResponse::arb(&mut rng);
            let slots: Vec<Result<WireResponse, WireError>> = Arb::arb(&mut rng);
            let engine_slots: Vec<Result<Response, WireError>> = slots
                .iter()
                .map(|slot| slot.as_ref().map(WireResponse::to_response).map_err(Clone::clone))
                .collect();
            let trace_id = Arb::arb(&mut rng);
            let after = |encode: &dyn Fn(&mut Vec<u8>)| {
                let mut out = b"what was framed before".to_vec();
                encode(&mut out);
                prop_assert_eq!(&out[..22], &b"what was framed before"[..]);
                Ok(out.split_off(22))
            };
            prop_assert_eq!(after(&|out| cm.encode_into(out))?, cm.encode_for(PROTOCOL_VERSION));
            prop_assert_eq!(after(&|out| sm.encode_into(out))?, sm.encode_for(PROTOCOL_VERSION));
            let answer = ServerMessage::Answer { id: seed, response: response.clone(), trace_id };
            prop_assert_eq!(
                after(&|out| ServerMessage::encode_answer_into(
                    out, seed, &response.to_response(), trace_id
                ))?,
                answer.encode_for(PROTOCOL_VERSION)
            );
            let batch = ServerMessage::BatchAnswer { id: seed, slots: slots.clone() };
            prop_assert_eq!(
                after(&|out| ServerMessage::encode_batch_answer_into(out, seed, &engine_slots))?,
                batch.encode_for(PROTOCOL_VERSION)
            );
        }
    }

    /// README's message catalogue lists exactly the table's messages,
    /// each under its tag and direction, and no tag is declared twice.
    #[test]
    fn the_readme_catalogue_is_the_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let mut rows: Vec<(u8, String, String)> = readme
            .lines()
            .skip_while(|line| !line.starts_with("**Message catalog.**"))
            .skip_while(|line| !line.starts_with("| tag |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let tag = cells[1].parse().expect("a tag in the first column");
                (
                    tag,
                    cells[2].to_owned(),
                    cells[3].trim_matches('`').to_owned(),
                )
            })
            .collect();
        let directions = [("C→S", ClientMessage::TAGS), ("S→C", ServerMessage::TAGS)];
        let mut table: Vec<(u8, String, String)> = directions
            .iter()
            .flat_map(|(direction, tags)| {
                tags.iter()
                    .map(|(name, tag)| (*tag, direction.to_string(), name.to_string()))
            })
            .collect();
        rows.sort();
        table.sort();
        assert_eq!(rows, table);
        table.dedup_by_key(|(tag, _, _)| *tag);
        assert_eq!(table.len(), rows.len(), "a tag declared twice");
    }

    /// The layout, pinned byte for byte: a field reordered or retyped in a
    /// declaration still round-trips, but peers built before it — and WAL
    /// segments whose `Replicated` records hold log ops — could not read
    /// what it writes.
    #[test]
    fn the_encoding_is_pinned() {
        let hex = |spaced: &str| -> Vec<u8> {
            let digits: String = spaced.split_whitespace().collect();
            (0..digits.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
                .collect()
        };
        let request = WireRequest {
            policy: "p".into(),
            data: "d".into(),
            epsilon_bits: 0.5f64.to_bits(),
            kind: WireRequestKind::Range { lo: 3, hi: 9 },
        };
        let submit = ClientMessage::Submit {
            id: 7,
            analyst: "al".into(),
            request: request.clone(),
            request_id: Some(42),
            deadline_micros: None,
            trace_id: None,
            token: Some(5),
        };
        let answer = ServerMessage::Answer {
            id: 8,
            response: WireResponse::Histogram(vec![1, 2]),
            trace_id: Some(9),
        };
        let batch = ServerMessage::BatchAnswer {
            id: 9,
            slots: vec![
                Ok(WireResponse::Scalar(4)),
                Err(WireError::UnknownPolicy("x".into())),
            ],
        };
        let request_bytes = "0100000070 0100000064 000000000000e03f \
                             03 0300000000000000 0900000000000000";
        assert_eq!(
            submit.encode(),
            hex(&format!(
                "03 0700000000000000 02000000616c {request_bytes} \
                 012a00000000000000 00 00 010500000000000000"
            ))
        );
        assert_eq!(
            answer.encode(),
            hex("43 0800000000000000 01 0200000000000000 0100000000000000 \
                 0200000000000000 010900000000000000")
        );
        assert_eq!(
            batch.encode(),
            hex(
                "44 0900000000000000 0200000000000000 01 03 0400000000000000 \
                 02 06 0100000078"
            )
        );
        assert_eq!(
            WireLogOp::Submit { request }.encode(),
            hex(&format!("02 {request_bytes}"))
        );
    }

    /// A byte stream that hands out at most the next of `steps` bytes per
    /// `read` (cycling), the way a socket delivers a frame in pieces.
    struct Pieces<'a> {
        rest: &'a [u8],
        steps: Vec<usize>,
        reads: usize,
    }

    impl std::io::Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let step = self.steps[self.reads % self.steps.len()];
            self.reads += 1;
            let n = step.min(buf.len()).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// Everything `frames` hands out until the stream ends, and whether
    /// it ended on a corrupt frame.
    fn drain(stream: &[u8], steps: Vec<usize>) -> (Vec<Vec<u8>>, bool) {
        let mut pieces = Pieces {
            rest: stream,
            steps,
            reads: 0,
        };
        let mut frames = FrameBuf::new();
        let mut seen = Vec::new();
        loop {
            match frames.next_frame() {
                FrameRead::Complete { payload, .. } => seen.push(payload.to_vec()),
                FrameRead::Incomplete => {
                    if frames.fill(&mut pieces).unwrap() == 0 {
                        return (seen, false);
                    }
                }
                FrameRead::Corrupt => {
                    // Final: more bytes and more asking change nothing.
                    let _ = frames.fill(&mut pieces).unwrap();
                    assert_eq!(frames.next_frame(), FrameRead::Corrupt);
                    return (seen, true);
                }
            }
        }
    }

    /// 32 framed messages — scalars beside a 32 KiB histogram answer —
    /// as one byte stream, with each frame's payload.
    fn framed_stream(seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..32)
            .map(|i| {
                let payload = match i {
                    11 => ServerMessage::Answer {
                        id: 11,
                        response: WireResponse::Histogram(
                            (0..4096).map(|_| rng.random()).collect(),
                        ),
                        trace_id: None,
                    }
                    .encode(),
                    _ if i % 2 == 0 => ClientMessage::arb(&mut rng).encode(),
                    _ => ServerMessage::arb(&mut rng).encode(),
                };
                frame_into(&mut stream, |out| out.extend_from_slice(&payload));
                payload
            })
            .collect();
        (stream, payloads)
    }

    /// However the stream is cut into reads, `FrameBuf` hands out the
    /// same 32 payloads in order.
    #[test]
    fn frame_buf_yields_the_same_frames_at_any_chunking() {
        for seed in 0..4 {
            let (stream, payloads) = framed_stream(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            let random: Vec<usize> = (0..257).map(|_| rng.random_range(1..40_000usize)).collect();
            for steps in [vec![1], vec![7], vec![16 * 1024], vec![usize::MAX], random] {
                let what = format!("seed {seed}, steps {:?}", &steps[..steps.len().min(4)]);
                let (seen, corrupt) = drain(&stream, steps);
                assert!(!corrupt, "{what}");
                assert_eq!(seen, payloads, "{what}");
            }
        }
    }

    /// A damaged frame mid-stream ends it: the frames before it come out,
    /// then `Corrupt` — never a frame from behind the damage.
    #[test]
    fn a_corrupt_frame_mid_stream_yields_its_predecessors_then_corrupt() {
        let (stream, payloads) = framed_stream(9);
        let mut rng = StdRng::seed_from_u64(0xBAD);
        let mut start = 0;
        for (k, payload) in payloads.iter().enumerate() {
            // One bit, somewhere in frame k's checksum or payload (a
            // flipped length is a different failure: a stall or a
            // `Corrupt`, decided by what the bytes after it look like).
            let mut damaged = stream.clone();
            let at = start + 4 + rng.random_range(0..8 + payload.len());
            damaged[at] ^= 1 << rng.random_range(0..8u32);
            for steps in [vec![1], vec![16 * 1024], vec![usize::MAX]] {
                let (seen, corrupt) = drain(&damaged, steps);
                assert!(corrupt, "frame {k}, byte {at}");
                assert_eq!(seen, payloads[..k], "frame {k}, byte {at}");
            }
            start += bf_store::FRAME_HEADER_LEN + payload.len();
        }
    }

    /// The test binary's allocator: `System`'s, noting on each thread
    /// the largest single allocation since that thread last reset it.
    struct Largest;

    thread_local! {
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Allocates nothing: `LARGEST` is a const-initialised `Cell`, and
    /// `try_with` skips a thread whose locals are already torn down.
    fn note(size: usize) {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: every method hands its caller's arguments to `System`
    // unchanged, so `System` gets exactly the guarantees `GlobalAlloc`'s
    // caller gives; `note` neither allocates nor touches the memory.
    unsafe impl std::alloc::GlobalAlloc for Largest {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `layout`, as `GlobalAlloc::alloc` got it.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `System` through this allocator with
            // this `layout`, as the caller guarantees.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            note(new_size);
            // SAFETY: as for `dealloc`, and `new_size` is the caller's.
            unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Largest = Largest;

    /// Every list a message can open with — and `HealthReport`'s second,
    /// behind an empty first — claiming 2⁴⁰ items (and `u64::MAX`) in
    /// front of 16 bytes: the decode is `None`, and no allocation made on
    /// the way is larger than the payload. Strings before the count are
    /// empty, so the count is the only thing that could ask for memory.
    #[test]
    fn a_list_count_the_bytes_cannot_back_allocates_nothing() {
        // `tag`, then per `shape` letter a zero `u64` (`w`) or an empty
        // string (`s`), then `then` — everything up to a list's count.
        let prefix = |tag: u8, shape: &str, then: &[u8]| {
            let mut p = vec![tag];
            for field in shape.chars() {
                match field {
                    'w' => 0u64.put(&mut p),
                    _ => String::new().put(&mut p),
                }
            }
            p.extend_from_slice(then);
            p
        };
        type Decodes = fn(&[u8]) -> bool;
        let cm: Decodes = |p| ClientMessage::decode(p).is_some();
        let sm: Decodes = |p| ServerMessage::decode(p).is_some();
        let op: Decodes = |p| WireLogOp::decode(p).is_some();
        let client = |name| tag(ClientMessage::TAGS, name);
        let health = tag(ServerMessage::TAGS, "HealthReport");
        let server = |name| tag(ServerMessage::TAGS, name);
        let linear = [tag(WireRequestKind::TAGS, "Linear")];
        let response = |name| [tag(WireResponse::TAGS, name)];
        let log_submit = tag(WireLogOp::TAGS, "Submit");
        let cases: [(&str, Vec<u8>, Decodes); 14] = [
            ("Submit", prefix(client("Submit"), "wsssw", &linear), cm),
            ("SubmitBatch", prefix(client("SubmitBatch"), "ws", &[]), cm),
            ("Histogram", prefix(ANSWER, "w", &response("Histogram")), sm),
            ("Prefixes", prefix(ANSWER, "w", &response("Prefixes")), sm),
            ("Centroids", prefix(ANSWER, "w", &response("Centroids")), sm),
            ("BatchAnswer", prefix(BATCH_ANSWER, "w", &[]), sm),
            ("StatsReport", prefix(server("StatsReport"), "w", &[]), sm),
            ("TraceReport", prefix(server("TraceReport"), "w", &[]), sm),
            ("AuditReport", prefix(server("AuditReport"), "w", &[]), sm),
            ("Replicate", prefix(server("Replicate"), "www", &[]), sm),
            (
                "Cluster",
                prefix(server("ClusterStatsReport"), "w", &[]),
                sm,
            ),
            ("unreachable", prefix(health, "wswwwww", &[]), sm),
            ("firing", prefix(health, "wswwwwww", &[]), sm),
            ("log op", prefix(log_submit, "ssw", &linear), op),
        ];
        for (what, prefix, decodes) in cases {
            for count in [1u64 << 40, u64::MAX] {
                let mut payload = prefix.clone();
                count.put(&mut payload);
                payload.extend_from_slice(&[0xAB; 16]);
                LARGEST.with(|l| l.set(0));
                let decoded = decodes(&payload);
                let largest = LARGEST.with(|l| l.get());
                assert!(!decoded, "{what}, count {count}");
                assert!(
                    largest <= payload.len(),
                    "{what}, count {count}: allocated {largest} bytes for a {}-byte payload",
                    payload.len()
                );
            }
        }
    }

    /// The frozen bench's version-taking forms are the one encoding at
    /// [`PROTOCOL_VERSION`] and nothing at any other.
    #[test]
    fn encode_for_and_decode_for_speak_only_the_one_version() {
        let msg = ClientMessage::Goodbye { id: 3 };
        let reply = ServerMessage::Farewell { id: 3 };
        assert_eq!(msg.encode_for(PROTOCOL_VERSION), msg.encode());
        assert_eq!(reply.encode_for(PROTOCOL_VERSION), reply.encode());
        for version in [0, 4, 6, u16::MAX] {
            assert_eq!(ClientMessage::decode_for(&msg.encode(), version), None);
            assert_eq!(ServerMessage::decode_for(&reply.encode(), version), None);
            assert!(std::panic::catch_unwind(|| msg.encode_for(version)).is_err());
        }
        assert_eq!(
            ClientMessage::decode_for(&msg.encode(), PROTOCOL_VERSION),
            Some(msg)
        );
    }

    /// Trailing garbage after a well-formed message must not decode.
    #[test]
    fn trailing_garbage_is_rejected() {
        let msg = ClientMessage::Goodbye { id: 7 };
        let mut payload = msg.encode();
        payload.push(0);
        assert_eq!(ClientMessage::decode(&payload), None);
        assert_eq!(ClientMessage::decode(&[]), None);
        assert_eq!(ClientMessage::decode(&[200]), None);
        assert_eq!(ServerMessage::decode(&[]), None);
        assert_eq!(ServerMessage::decode(&[200]), None);
    }

    /// The corruption sweep: flip EVERY single byte (and every single
    /// bit of each byte position's value) of framed messages; the frame
    /// layer must reject or wait — a flipped frame is never misparsed
    /// into a different well-formed message.
    #[test]
    fn single_byte_flips_never_misparse() {
        let mut rng = StdRng::seed_from_u64(0xF1F1);
        for case in 0..32 {
            let payload = if case % 2 == 0 {
                ClientMessage::arb(&mut rng).encode()
            } else {
                ServerMessage::arb(&mut rng).encode()
            };
            let framed = frame_bytes(&payload);
            for pos in 0..framed.len() {
                for bit in [0x01u8, 0x10, 0x80] {
                    let mut damaged = framed.clone();
                    damaged[pos] ^= bit;
                    match read_frame(&damaged) {
                        // A bigger length field: the reader waits for
                        // bytes that never come — a stall, never a parse.
                        FrameRead::Incomplete => {}
                        // Checksum or length sanity caught it.
                        FrameRead::Corrupt => {}
                        FrameRead::Complete { payload: p, .. } => {
                            // The only acceptable "complete" readings are
                            // impossible: the flip changed some byte, so
                            // an intact checksum would be a `frame_sum`
                            // collision one bit-flip away — fail loudly.
                            panic!(
                                "flip at byte {pos} (bit {bit:#x}) of case {case} \
                                 still parsed: {:?}",
                                p
                            );
                        }
                    }
                }
            }
        }
    }

    /// Partial frames (every prefix) wait for more bytes — a slow or
    /// segmented TCP stream never kills a connection.
    #[test]
    fn every_prefix_is_incomplete_not_corrupt() {
        let msg = ClientMessage::Submit {
            id: 42,
            analyst: "alice".into(),
            request: WireRequest {
                policy: "pol".into(),
                data: "ds".into(),
                epsilon_bits: 0.5f64.to_bits(),
                kind: WireRequestKind::Range { lo: 3, hi: 9 },
            },
            request_id: Some(42),
            deadline_micros: None,
            trace_id: Some(0xDEADBEEF),
            token: Some(0x70_6B),
        };
        let framed = frame_bytes(&msg.encode());
        for cut in 0..framed.len() {
            assert_eq!(
                read_frame(&framed[..cut]),
                FrameRead::Incomplete,
                "cut {cut}"
            );
        }
        // And the whole frame parses back to the message.
        match read_frame(&framed) {
            FrameRead::Complete { payload, consumed } => {
                assert_eq!(consumed, framed.len());
                assert_eq!(ClientMessage::decode(payload), Some(msg));
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }
}
