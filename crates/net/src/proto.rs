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
//! ## Message catalog
//!
//! | direction | message | purpose |
//! |---|---|---|
//! | C→S | [`ClientMessage::Hello`] | handshake, first frame on every connection; must carry [`PROTOCOL_VERSION`] |
//! | C→S | [`ClientMessage::OpenSession`] | open **or reattach** an analyst session (PR 4 recovery path) |
//! | C→S | [`ClientMessage::Submit`] | one query (histogram / cumulative / range / linear / k-means) |
//! | C→S | [`ClientMessage::SubmitBatch`] | several queries answered as one correlated batch |
//! | C→S | [`ClientMessage::Budget`] | ledger snapshot for an analyst |
//! | C→S | [`ClientMessage::Stats`] | process-wide metrics snapshot (PR 6 introspection) |
//! | C→S | [`ClientMessage::Traces`] | retained trace-tree exemplars (PR 8 distributed tracing) |
//! | C→S | [`ClientMessage::BudgetAudit`] | an analyst's full ε-provenance ledger history (PR 8; connection must have attached the session) |
//! | C→S | [`ClientMessage::LogCatchup`] | replica peer: follower subscribes to the replicated log from an index |
//! | C→S | [`ClientMessage::ReplicateAck`] | replica peer: follower acknowledges an entry durable in its own WAL |
//! | C→S | [`ClientMessage::PeerStatus`] | replica peer: read-only probe of a peer's durable log position (pre-promotion check) |
//! | C→S | [`ClientMessage::ClusterStats`] | federated scrape: the serving node fans stats probes to every peer |
//! | C→S | [`ClientMessage::Health`] | one cheap health/SLO probe, load-balancer friendly |
//! | C→S | [`ClientMessage::Watch`] | subscribe this connection to the node's live event bus |
//! | C→S | [`ClientMessage::Goodbye`] | orderly close (the server drains in-flight work first) |
//! | S→C | [`ServerMessage::Welcome`] | handshake accept, echoes [`PROTOCOL_VERSION`] |
//! | S→C | [`ServerMessage::SessionAttached`] | session opened/reattached, remaining ε + session token |
//! | S→C | [`ServerMessage::Answer`] | a submitted query's response (echoes the trace id, when traced) |
//! | S→C | [`ServerMessage::BatchAnswer`] | per-slot responses for a batch |
//! | S→C | [`ServerMessage::BudgetReport`] | ledger snapshot |
//! | S→C | [`ServerMessage::StatsReport`] | every registered metric, one [`WireMetric`] each |
//! | S→C | [`ServerMessage::TraceReport`] | the retained trace trees, one [`bf_obs::TraceTree`] each |
//! | S→C | [`ServerMessage::AuditReport`] | the ledger history, one [`bf_store::LedgerEntry`] each |
//! | S→C | [`ServerMessage::Refused`] | typed error for the correlated request (echoes the trace id) |
//! | S→C | [`ServerMessage::Replicate`] | replica peer: leader streams log entries + its commit index |
//! | S→C | [`ServerMessage::PeerStatusReport`] | replica peer: the probed peer's epoch and durable/applied log marks |
//! | S→C | [`ServerMessage::ClusterStatsReport`] | the whole fleet's metrics, one replica-labeled [`WireReplicaStats`] per member |
//! | S→C | [`ServerMessage::HealthReport`] | role, epoch, lag, WAL depth, queue depth, unreachable peers, firing SLOs |
//! | S→C | [`ServerMessage::Event`] | one live event pushed to an open watch subscription |
//! | S→C | [`ServerMessage::Farewell`] | goodbye acknowledged, connection closing |
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
use bf_obs::{Stage, TraceId, TraceSpan, TraceTree};
use bf_store::{put_str, put_u64, LedgerEntry, Reader};

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

/// The query families, mirroring [`RequestKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequestKind {
    /// Complete histogram.
    Histogram,
    /// Cumulative histogram (Ordered Mechanism).
    Cumulative,
    /// Range count `[lo, hi]`, inclusive.
    Range {
        /// Inclusive lower endpoint.
        lo: u64,
        /// Inclusive upper endpoint.
        hi: u64,
    },
    /// Linear query; weights as exact `f64` bits.
    Linear {
        /// One weight per domain value, as bits.
        weight_bits: Vec<u64>,
    },
    /// Private k-means over a registered point set.
    Kmeans {
        /// Cluster count.
        k: u64,
        /// Lloyd iterations.
        iterations: u64,
        /// Sensitive-information spec.
        spec: WireKmeansSpec,
    },
}

/// [`KmeansSecretSpec`] on the wire (parameters as `f64` bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKmeansSpec {
    /// Full-domain secrets.
    Full,
    /// Attribute secrets.
    Attribute,
    /// Distance-threshold secrets, θ in physical units (bits).
    L1Threshold(u64),
    /// Partitioned secrets, max block diameter (bits).
    PartitionMaxDiameter(u64),
    /// All-singleton partition (exact clustering).
    Exact,
}

/// A served answer on the wire, mirroring [`Response`] with every float
/// as exact bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Noisy per-value counts.
    Histogram(Vec<u64>),
    /// Noisy prefix counts.
    Prefixes(Vec<u64>),
    /// A single noisy number.
    Scalar(u64),
    /// Final k-means centroids.
    Centroids(Vec<Vec<u64>>),
}

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

/// The operations that travel the replicated log. Session opens are in
/// the log too — replicas must agree on ledger *totals*, not just
/// charges, or a failover could resurrect ε.
#[derive(Debug, Clone, PartialEq)]
pub enum WireLogOp {
    /// Open (or reattach) the analyst's session with a total ε budget.
    OpenSession {
        /// Total ε as bits.
        total_bits: u64,
    },
    /// Serve one query and charge its ledger.
    Submit {
        /// The query.
        request: WireRequest,
    },
}

impl WireLogOp {
    /// Encodes the op standalone (the byte payload a
    /// `bf_store::Record::Replicated` frame carries).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        encode_log_op(&mut out, self);
        out
    }

    /// Decodes [`WireLogOp::encode`] output; `None` for anything
    /// malformed (a recovering replica must stop, not guess).
    pub fn decode(payload: &[u8]) -> Option<WireLogOp> {
        let mut r = Reader::new(payload);
        let op = decode_log_op(&mut r)?;
        r.done().then_some(op)
    }
}

/// One metric sample in a [`ServerMessage::StatsReport`] — the wire
/// mirror of `bf_obs::MetricSnapshot`, with gauge values carried as
/// exact `f64` bit patterns and histogram summaries flattened to their
/// count/sum/max and quantile estimates (nanoseconds for the `_ns`
/// instruments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMetric {
    /// A monotone counter's total.
    Counter {
        /// Metric name (labels-in-name convention).
        name: String,
        /// Total count.
        value: u64,
    },
    /// A gauge's current value.
    Gauge {
        /// Metric name.
        name: String,
        /// Value as `f64` bits.
        bits: u64,
    },
    /// A latency/size histogram's summary.
    Histogram {
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

/// Typed refusals, mirroring `bf-server`'s `ServerError` and the
/// operationally meaningful `bf-engine` `EngineError` variants. Errors
/// a client cannot act on distinctly collapse into
/// [`WireError::Other`] with the server's rendered message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The analyst's server-side submission queue is full — resubmit
    /// after draining answers.
    QueueFull {
        /// Whose queue.
        analyst: String,
        /// Configured capacity.
        capacity: u64,
    },
    /// This connection's in-flight window is full — read some answers
    /// before submitting more.
    WindowFull {
        /// Configured per-connection window.
        capacity: u64,
    },
    /// Admission control refused: requested ε exceeds the remaining
    /// budget (bits carry exact values).
    BudgetExhausted {
        /// Whose ledger.
        analyst: String,
        /// Requested ε bits.
        requested_bits: u64,
        /// Remaining ε bits.
        remaining_bits: u64,
    },
    /// The ledger refused the charge at serve time.
    BudgetRefused {
        /// Whose ledger.
        analyst: String,
        /// Requested ε bits.
        requested_bits: u64,
        /// Remaining ε bits.
        remaining_bits: u64,
    },
    /// The serving process is shutting down.
    ShutDown,
    /// No policy registered under this name.
    UnknownPolicy(String),
    /// No dataset registered under this name.
    UnknownDataset(String),
    /// No point set registered under this name.
    UnknownPoints(String),
    /// No open session for this analyst.
    UnknownAnalyst(String),
    /// The session was evicted; reopen with the original total.
    SessionEvicted(String),
    /// The request is malformed (or a session total mismatched).
    InvalidRequest(String),
    /// The peer broke the protocol (bad frame, bad handshake, unknown
    /// correlation id).
    Protocol(String),
    /// Any other server-side failure, rendered.
    Other(String),
    /// Load shedding: the server's total backlog is at its configured
    /// shed depth. Nothing was queued or charged; back off and
    /// resubmit.
    Overloaded {
        /// Total queued requests at refusal time.
        depth: u64,
        /// The configured shed threshold.
        limit: u64,
    },
    /// The request's deadline elapsed before dispatch; refused before
    /// any charge.
    DeadlineExceeded {
        /// Whose request expired.
        analyst: String,
    },
    /// This replica is a follower: writes must go to the leader. The
    /// hint is the leader's client-facing address when known, empty
    /// when the follower itself is between leaders.
    NotLeader {
        /// The leader's client address hint (may be empty).
        leader: String,
    },
    /// This follower's replay lags the leader beyond its configured
    /// staleness bound; the read was refused rather than served stale.
    StaleReplica {
        /// Entries logged but not yet applied here.
        lag_entries: u64,
    },
    /// A replica peer refusal: the follower asked to catch up from an
    /// index beyond the leader's durable log — its tail belongs to a
    /// deposed epoch. The follower must truncate its un-applied suffix
    /// back to the leader's high-water mark and resubscribe from there.
    LogDiverged {
        /// The leader's durable log high-water mark (the highest index
        /// the follower may keep).
        leader_high_water: u64,
    },
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

/// Client → server messages. Every variant leads with the correlation
/// id its reply will echo.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// Version handshake — must be the first frame on a connection.
    Hello {
        /// Correlation id.
        id: u64,
        /// [`PROTOCOL_VERSION`] the client speaks.
        version: u16,
    },
    /// Open (or reattach) an analyst session with a total ε budget.
    OpenSession {
        /// Correlation id.
        id: u64,
        /// The analyst.
        analyst: String,
        /// Total ε as bits.
        total_bits: u64,
    },
    /// Submit one query.
    Submit {
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
    SubmitBatch {
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
    Budget {
        /// Correlation id.
        id: u64,
        /// The analyst.
        analyst: String,
    },
    /// Ask for the serving process's full metrics snapshot (engine,
    /// server, net and store registries merged).
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Ask for the retained trace-tree exemplars (the slowest-N per
    /// stage plus the most recent, as the server's bounded trace
    /// buffer keeps them).
    Traces {
        /// Correlation id.
        id: u64,
    },
    /// Ask for an analyst's complete ε-provenance history — every
    /// durable `Charged`/`Replied` ledger record in WAL total order,
    /// across live **and archived** segments. Refused with
    /// [`WireError::InvalidRequest`] unless this connection attached
    /// the analyst's session (see the module-level trust model).
    BudgetAudit {
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
    LogCatchup {
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
    PeerStatus {
        /// Correlation id.
        id: u64,
    },
    /// Replica peer frame: the follower has made every entry up to
    /// `index` durable in its own WAL. Acks are cumulative — entries
    /// arrive in order, so one ack covers the whole prefix.
    ReplicateAck {
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
    ClusterStats {
        /// Correlation id.
        id: u64,
    },
    /// Cluster-plane frame: one cheap health probe suitable for a
    /// load balancer — role, epoch, replication lag, WAL depth, queue
    /// depth, unreachable peers and the firing-SLO list, answered by
    /// [`ServerMessage::HealthReport`].
    Health {
        /// Correlation id.
        id: u64,
    },
    /// Cluster-plane frame: subscribe this connection to the
    /// node's live event bus. The server pushes [`ServerMessage::Event`]
    /// frames echoing this correlation id until the client sends
    /// [`ClientMessage::Goodbye`] or disconnects. The subscription's
    /// queue is bounded: a slow consumer loses events (counted), never
    /// stalls the serving or replication path.
    Watch {
        /// Correlation id every pushed event will echo.
        id: u64,
    },
    /// Orderly close: the server finishes in-flight work, replies
    /// [`ServerMessage::Farewell`], and closes.
    Goodbye {
        /// Correlation id.
        id: u64,
    },
}

/// Server → client messages; `id` echoes the triggering request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// Handshake accepted.
    Welcome {
        /// Correlation id of the `Hello`.
        id: u64,
        /// Version the server speaks.
        version: u16,
    },
    /// Session opened or reattached.
    SessionAttached {
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
    Answer {
        /// Correlation id.
        id: u64,
        /// The response.
        response: WireResponse,
        /// The trace id the `Submit` carried, echoed so a pipelining
        /// client can pair answers with the traces it assigned.
        trace_id: Option<u64>,
    },
    /// A batch's per-slot answers, in submission order.
    BatchAnswer {
        /// Correlation id.
        id: u64,
        /// One result per submitted query.
        slots: Vec<Result<WireResponse, WireError>>,
    },
    /// An analyst's ledger snapshot.
    BudgetReport {
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
    StatsReport {
        /// Correlation id.
        id: u64,
        /// Every registered metric.
        metrics: Vec<WireMetric>,
    },
    /// The process's retained trace trees.
    TraceReport {
        /// Correlation id.
        id: u64,
        /// The retained exemplars, oldest first.
        traces: Vec<TraceTree>,
    },
    /// An analyst's ε-provenance ledger history, WAL total order.
    AuditReport {
        /// Correlation id.
        id: u64,
        /// One entry per durable charge, oldest first.
        entries: Vec<LedgerEntry>,
    },
    /// The correlated request was refused.
    Refused {
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
    Replicate {
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
    PeerStatusReport {
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
    ClusterStatsReport {
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
    HealthReport {
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
    Event {
        /// Correlation id of the subscribing `Watch`.
        id: u64,
        /// Bus sequence number — gaps mean the subscriber's bounded
        /// queue dropped events.
        seq: u64,
        /// What happened.
        kind: WireEventKind,
        /// Human-readable detail (stage name, SLO name, role, trace
        /// outcome).
        detail: String,
        /// Kind-specific magnitude (duration in ns, epoch, 0/1 firing).
        value: u64,
    },
    /// Goodbye acknowledged; the server closes after this frame.
    Farewell {
        /// Correlation id.
        id: u64,
    },
}

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

/// What a pushed [`ServerMessage::Event`] describes, mirroring
/// [`bf_obs::ClusterEventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireEventKind {
    /// A pipeline stage completed (obs journal tail).
    Stage,
    /// A traced request finished and its tree was retained.
    Trace,
    /// The node's replication role or epoch changed.
    Role,
    /// An SLO transitioned between ok and firing.
    Slo,
}

impl From<bf_obs::ClusterEventKind> for WireEventKind {
    fn from(kind: bf_obs::ClusterEventKind) -> Self {
        match kind {
            bf_obs::ClusterEventKind::Stage => WireEventKind::Stage,
            bf_obs::ClusterEventKind::Trace => WireEventKind::Trace,
            bf_obs::ClusterEventKind::Role => WireEventKind::Role,
            bf_obs::ClusterEventKind::Slo => WireEventKind::Slo,
        }
    }
}

impl From<WireEventKind> for bf_obs::ClusterEventKind {
    fn from(kind: WireEventKind) -> Self {
        match kind {
            WireEventKind::Stage => bf_obs::ClusterEventKind::Stage,
            WireEventKind::Trace => bf_obs::ClusterEventKind::Trace,
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

    /// Decodes into an engine [`Request`].
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
// Wire encoding
// ---------------------------------------------------------------------

const TAG_HELLO: u8 = 1;
const TAG_OPEN_SESSION: u8 = 2;
const TAG_SUBMIT: u8 = 3;
const TAG_SUBMIT_BATCH: u8 = 4;
const TAG_BUDGET: u8 = 5;
const TAG_GOODBYE: u8 = 6;
const TAG_STATS: u8 = 7;
const TAG_TRACES: u8 = 8;
const TAG_BUDGET_AUDIT: u8 = 9;
const TAG_LOG_CATCHUP: u8 = 10;
const TAG_REPLICATE_ACK: u8 = 11;
const TAG_PEER_STATUS: u8 = 12;
const TAG_CLUSTER_STATS: u8 = 13;
const TAG_HEALTH: u8 = 14;
const TAG_WATCH: u8 = 15;

const TAG_WELCOME: u8 = 65;
const TAG_SESSION_ATTACHED: u8 = 66;
const TAG_ANSWER: u8 = 67;
const TAG_BATCH_ANSWER: u8 = 68;
const TAG_BUDGET_REPORT: u8 = 69;
const TAG_REFUSED: u8 = 70;
const TAG_FAREWELL: u8 = 71;
const TAG_STATS_REPORT: u8 = 72;
const TAG_TRACE_REPORT: u8 = 73;
const TAG_AUDIT_REPORT: u8 = 74;
const TAG_REPLICATE: u8 = 75;
const TAG_PEER_STATUS_REPORT: u8 = 76;
const TAG_CLUSTER_STATS_REPORT: u8 = 77;
const TAG_HEALTH_REPORT: u8 = 78;
const TAG_EVENT: u8 = 79;

const EVENT_STAGE: u8 = 1;
const EVENT_TRACE: u8 = 2;
const EVENT_ROLE: u8 = 3;
const EVENT_SLO: u8 = 4;

const METRIC_COUNTER: u8 = 1;
const METRIC_GAUGE: u8 = 2;
const METRIC_HISTOGRAM: u8 = 3;

const KIND_HISTOGRAM: u8 = 1;
const KIND_CUMULATIVE: u8 = 2;
const KIND_RANGE: u8 = 3;
const KIND_LINEAR: u8 = 4;
const KIND_KMEANS: u8 = 5;

const SPEC_FULL: u8 = 1;
const SPEC_ATTRIBUTE: u8 = 2;
const SPEC_L1: u8 = 3;
const SPEC_PARTITION: u8 = 4;
const SPEC_EXACT: u8 = 5;

const RESP_HISTOGRAM: u8 = 1;
const RESP_PREFIXES: u8 = 2;
const RESP_SCALAR: u8 = 3;
const RESP_CENTROIDS: u8 = 4;

const ERR_QUEUE_FULL: u8 = 1;
const ERR_WINDOW_FULL: u8 = 2;
const ERR_BUDGET_EXHAUSTED: u8 = 3;
const ERR_BUDGET_REFUSED: u8 = 4;
const ERR_SHUTDOWN: u8 = 5;
const ERR_UNKNOWN_POLICY: u8 = 6;
const ERR_UNKNOWN_DATASET: u8 = 7;
const ERR_UNKNOWN_POINTS: u8 = 8;
const ERR_UNKNOWN_ANALYST: u8 = 9;
const ERR_SESSION_EVICTED: u8 = 10;
const ERR_INVALID_REQUEST: u8 = 11;
const ERR_PROTOCOL: u8 = 12;
const ERR_OTHER: u8 = 13;
const ERR_OVERLOADED: u8 = 14;
const ERR_DEADLINE_EXCEEDED: u8 = 15;
const ERR_NOT_LEADER: u8 = 16;
const ERR_STALE_REPLICA: u8 = 17;
const ERR_LOG_DIVERGED: u8 = 18;

const LOG_OP_OPEN_SESSION: u8 = 1;
const LOG_OP_SUBMIT: u8 = 2;

const OPT_NONE: u8 = 0;
const OPT_SOME: u8 = 1;

const SLOT_OK: u8 = 1;
const SLOT_ERR: u8 = 2;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A vector element that travels as 8 little-endian bytes: wire bits as
/// they are, an engine float as its exact bit pattern.
trait WireBits: Copy {
    fn wire_bits(self) -> u64;
}

impl WireBits for u64 {
    fn wire_bits(self) -> u64 {
        self
    }
}

impl WireBits for f64 {
    fn wire_bits(self) -> u64 {
        self.to_bits()
    }
}

/// A count, then the elements — the room for all of them made once and
/// filled as one slice.
fn put_bits_vec<T: WireBits>(out: &mut Vec<u8>, values: &[T]) {
    put_u64(out, values.len() as u64);
    let start = out.len();
    out.resize(start + 8 * values.len(), 0);
    for (bytes, value) in out[start..].chunks_exact_mut(8).zip(values) {
        bytes.copy_from_slice(&value.wire_bits().to_le_bytes());
    }
}

fn read_u16(r: &mut Reader<'_>) -> Option<u16> {
    let lo = r.u8()?;
    let hi = r.u8()?;
    Some(u16::from_le_bytes([lo, hi]))
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(OPT_NONE),
        Some(x) => {
            out.push(OPT_SOME);
            put_u64(out, x);
        }
    }
}

fn read_opt_u64(r: &mut Reader<'_>) -> Option<Option<u64>> {
    match r.u8()? {
        OPT_NONE => Some(None),
        OPT_SOME => Some(Some(r.u64()?)),
        _ => None,
    }
}

/// A count, then each item — the shape of every list on the wire but
/// the flat `u64` vectors ([`put_bits_vec`]).
fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut encode: impl FnMut(&mut Vec<u8>, &T)) {
    put_u64(out, items.len() as u64);
    for item in items {
        encode(out, item);
    }
}

/// Decodes [`put_list`] output. The count is attacker-supplied: one no
/// record could hold is malformed at once, and the `Vec` reserves only a
/// small prefix, growing with items that actually decode — a 40-byte
/// frame never commands a 100 MB allocation.
fn read_list<T>(
    r: &mut Reader<'_>,
    mut decode: impl FnMut(&mut Reader<'_>) -> Option<T>,
) -> Option<Vec<T>> {
    let n = r.u64()?;
    if n > u64::from(bf_store::MAX_RECORD_LEN) {
        return None;
    }
    let mut items = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        items.push(decode(r)?);
    }
    Some(items)
}

fn read_bits_vec(r: &mut Reader<'_>) -> Option<Vec<u64>> {
    // The elements are taken off the payload as one slice before the
    // `Vec` is sized from it: a count the bytes present cannot back is
    // malformed, never an allocation.
    let len = usize::try_from(r.u64()?).ok()?;
    let bytes = r.take(len.checked_mul(8)?)?;
    Some(
        bytes
            .as_chunks::<8>()
            .0
            .iter()
            .map(|word| u64::from_le_bytes(*word))
            .collect(),
    )
}

fn encode_trace_span(out: &mut Vec<u8>, s: &TraceSpan) {
    out.push(s.stage.index() as u8);
    put_u64(out, s.start_ns);
    put_u64(out, s.duration_ns);
    put_str(out, &s.outcome);
    put_opt_u64(out, s.link);
}

fn decode_trace_span(r: &mut Reader<'_>) -> Option<TraceSpan> {
    Some(TraceSpan {
        stage: Stage::from_index(r.u8()? as usize)?,
        start_ns: r.u64()?,
        duration_ns: r.u64()?,
        outcome: r.str()?,
        link: read_opt_u64(r)?,
    })
}

fn encode_trace_tree(out: &mut Vec<u8>, t: &TraceTree) {
    put_u64(out, t.id.0);
    put_str(out, &t.analyst);
    put_u64(out, t.total_ns);
    put_str(out, &t.outcome);
    put_list(out, &t.spans, encode_trace_span);
}

fn decode_trace_tree(r: &mut Reader<'_>) -> Option<TraceTree> {
    Some(TraceTree {
        id: TraceId(r.u64()?),
        analyst: r.str()?,
        total_ns: r.u64()?,
        outcome: r.str()?,
        spans: read_list(r, decode_trace_span)?,
    })
}

fn encode_ledger_entry(out: &mut Vec<u8>, e: &LedgerEntry) {
    put_u64(out, e.seq);
    put_u64(out, e.eps_bits);
    put_str(out, &e.label);
    put_u64(out, e.fingerprint);
}

fn decode_ledger_entry(r: &mut Reader<'_>) -> Option<LedgerEntry> {
    Some(LedgerEntry {
        seq: r.u64()?,
        eps_bits: r.u64()?,
        label: r.str()?,
        fingerprint: r.u64()?,
    })
}

fn encode_metric(out: &mut Vec<u8>, m: &WireMetric) {
    match m {
        WireMetric::Counter { name, value } => {
            out.push(METRIC_COUNTER);
            put_str(out, name);
            put_u64(out, *value);
        }
        WireMetric::Gauge { name, bits } => {
            out.push(METRIC_GAUGE);
            put_str(out, name);
            put_u64(out, *bits);
        }
        WireMetric::Histogram {
            name,
            count,
            sum,
            max,
            p50,
            p99,
            p999,
        } => {
            out.push(METRIC_HISTOGRAM);
            put_str(out, name);
            put_u64(out, *count);
            put_u64(out, *sum);
            put_u64(out, *max);
            put_u64(out, *p50);
            put_u64(out, *p99);
            put_u64(out, *p999);
        }
    }
}

fn decode_metric(r: &mut Reader<'_>) -> Option<WireMetric> {
    Some(match r.u8()? {
        METRIC_COUNTER => WireMetric::Counter {
            name: r.str()?,
            value: r.u64()?,
        },
        METRIC_GAUGE => WireMetric::Gauge {
            name: r.str()?,
            bits: r.u64()?,
        },
        METRIC_HISTOGRAM => WireMetric::Histogram {
            name: r.str()?,
            count: r.u64()?,
            sum: r.u64()?,
            max: r.u64()?,
            p50: r.u64()?,
            p99: r.u64()?,
            p999: r.u64()?,
        },
        _ => return None,
    })
}

fn encode_request(out: &mut Vec<u8>, req: &WireRequest) {
    put_str(out, &req.policy);
    put_str(out, &req.data);
    put_u64(out, req.epsilon_bits);
    match &req.kind {
        WireRequestKind::Histogram => out.push(KIND_HISTOGRAM),
        WireRequestKind::Cumulative => out.push(KIND_CUMULATIVE),
        WireRequestKind::Range { lo, hi } => {
            out.push(KIND_RANGE);
            put_u64(out, *lo);
            put_u64(out, *hi);
        }
        WireRequestKind::Linear { weight_bits } => {
            out.push(KIND_LINEAR);
            put_bits_vec(out, weight_bits);
        }
        WireRequestKind::Kmeans {
            k,
            iterations,
            spec,
        } => {
            out.push(KIND_KMEANS);
            put_u64(out, *k);
            put_u64(out, *iterations);
            match spec {
                WireKmeansSpec::Full => out.push(SPEC_FULL),
                WireKmeansSpec::Attribute => out.push(SPEC_ATTRIBUTE),
                WireKmeansSpec::L1Threshold(b) => {
                    out.push(SPEC_L1);
                    put_u64(out, *b);
                }
                WireKmeansSpec::PartitionMaxDiameter(b) => {
                    out.push(SPEC_PARTITION);
                    put_u64(out, *b);
                }
                WireKmeansSpec::Exact => out.push(SPEC_EXACT),
            }
        }
    }
}

fn decode_request(r: &mut Reader<'_>) -> Option<WireRequest> {
    let policy = r.str()?;
    let data = r.str()?;
    let epsilon_bits = r.u64()?;
    let kind = match r.u8()? {
        KIND_HISTOGRAM => WireRequestKind::Histogram,
        KIND_CUMULATIVE => WireRequestKind::Cumulative,
        KIND_RANGE => WireRequestKind::Range {
            lo: r.u64()?,
            hi: r.u64()?,
        },
        KIND_LINEAR => WireRequestKind::Linear {
            weight_bits: read_bits_vec(r)?,
        },
        KIND_KMEANS => {
            let k = r.u64()?;
            let iterations = r.u64()?;
            let spec = match r.u8()? {
                SPEC_FULL => WireKmeansSpec::Full,
                SPEC_ATTRIBUTE => WireKmeansSpec::Attribute,
                SPEC_L1 => WireKmeansSpec::L1Threshold(r.u64()?),
                SPEC_PARTITION => WireKmeansSpec::PartitionMaxDiameter(r.u64()?),
                SPEC_EXACT => WireKmeansSpec::Exact,
                _ => return None,
            };
            WireRequestKind::Kmeans {
                k,
                iterations,
                spec,
            }
        }
        _ => return None,
    };
    Some(WireRequest {
        policy,
        data,
        epsilon_bits,
        kind,
    })
}

/// The two forms an answer's body is encoded from — the wire mirror a
/// decoder produced, and the engine's own [`Response`] on the server's
/// way out — to the same bytes.
trait EncodeResponse {
    fn encode_response(&self, out: &mut Vec<u8>);
}

fn put_centroids<T: WireBits>(out: &mut Vec<u8>, centroids: &[Vec<T>]) {
    put_list(out, centroids, |out, c| put_bits_vec(out, c));
}

impl EncodeResponse for WireResponse {
    fn encode_response(&self, out: &mut Vec<u8>) {
        match self {
            WireResponse::Histogram(v) => {
                out.push(RESP_HISTOGRAM);
                put_bits_vec(out, v);
            }
            WireResponse::Prefixes(v) => {
                out.push(RESP_PREFIXES);
                put_bits_vec(out, v);
            }
            WireResponse::Scalar(b) => {
                out.push(RESP_SCALAR);
                put_u64(out, *b);
            }
            WireResponse::Centroids(cs) => {
                out.push(RESP_CENTROIDS);
                put_centroids(out, cs);
            }
        }
    }
}

impl EncodeResponse for Response {
    fn encode_response(&self, out: &mut Vec<u8>) {
        match self {
            Response::Histogram(v) => {
                out.push(RESP_HISTOGRAM);
                put_bits_vec(out, v);
            }
            Response::Prefixes(v) => {
                out.push(RESP_PREFIXES);
                put_bits_vec(out, v);
            }
            Response::Scalar(x) => {
                out.push(RESP_SCALAR);
                put_u64(out, x.to_bits());
            }
            Response::Centroids(cs) => {
                out.push(RESP_CENTROIDS);
                put_centroids(out, cs);
            }
        }
    }
}

fn encode_answer(
    out: &mut Vec<u8>,
    id: u64,
    response: &impl EncodeResponse,
    trace_id: Option<u64>,
) {
    out.push(TAG_ANSWER);
    put_u64(out, id);
    response.encode_response(out);
    put_opt_u64(out, trace_id);
}

fn encode_batch_answer<R: EncodeResponse>(
    out: &mut Vec<u8>,
    id: u64,
    slots: &[Result<R, WireError>],
) {
    out.push(TAG_BATCH_ANSWER);
    put_u64(out, id);
    put_list(out, slots, |out, slot| match slot {
        Ok(response) => {
            out.push(SLOT_OK);
            response.encode_response(out);
        }
        Err(e) => {
            out.push(SLOT_ERR);
            encode_error(out, e);
        }
    });
}

fn decode_slot(r: &mut Reader<'_>) -> Option<Result<WireResponse, WireError>> {
    Some(match r.u8()? {
        SLOT_OK => Ok(decode_response(r)?),
        SLOT_ERR => Err(decode_error(r)?),
        _ => return None,
    })
}

fn decode_response(r: &mut Reader<'_>) -> Option<WireResponse> {
    Some(match r.u8()? {
        RESP_HISTOGRAM => WireResponse::Histogram(read_bits_vec(r)?),
        RESP_PREFIXES => WireResponse::Prefixes(read_bits_vec(r)?),
        RESP_SCALAR => WireResponse::Scalar(r.u64()?),
        RESP_CENTROIDS => WireResponse::Centroids(read_list(r, read_bits_vec)?),
        _ => return None,
    })
}

fn encode_error(out: &mut Vec<u8>, e: &WireError) {
    match e {
        WireError::QueueFull { analyst, capacity } => {
            out.push(ERR_QUEUE_FULL);
            put_str(out, analyst);
            put_u64(out, *capacity);
        }
        WireError::WindowFull { capacity } => {
            out.push(ERR_WINDOW_FULL);
            put_u64(out, *capacity);
        }
        WireError::BudgetExhausted {
            analyst,
            requested_bits,
            remaining_bits,
        } => {
            out.push(ERR_BUDGET_EXHAUSTED);
            put_str(out, analyst);
            put_u64(out, *requested_bits);
            put_u64(out, *remaining_bits);
        }
        WireError::BudgetRefused {
            analyst,
            requested_bits,
            remaining_bits,
        } => {
            out.push(ERR_BUDGET_REFUSED);
            put_str(out, analyst);
            put_u64(out, *requested_bits);
            put_u64(out, *remaining_bits);
        }
        WireError::ShutDown => out.push(ERR_SHUTDOWN),
        WireError::UnknownPolicy(n) => {
            out.push(ERR_UNKNOWN_POLICY);
            put_str(out, n);
        }
        WireError::UnknownDataset(n) => {
            out.push(ERR_UNKNOWN_DATASET);
            put_str(out, n);
        }
        WireError::UnknownPoints(n) => {
            out.push(ERR_UNKNOWN_POINTS);
            put_str(out, n);
        }
        WireError::UnknownAnalyst(n) => {
            out.push(ERR_UNKNOWN_ANALYST);
            put_str(out, n);
        }
        WireError::SessionEvicted(n) => {
            out.push(ERR_SESSION_EVICTED);
            put_str(out, n);
        }
        WireError::InvalidRequest(m) => {
            out.push(ERR_INVALID_REQUEST);
            put_str(out, m);
        }
        WireError::Protocol(m) => {
            out.push(ERR_PROTOCOL);
            put_str(out, m);
        }
        WireError::Other(m) => {
            out.push(ERR_OTHER);
            put_str(out, m);
        }
        WireError::Overloaded { depth, limit } => {
            out.push(ERR_OVERLOADED);
            put_u64(out, *depth);
            put_u64(out, *limit);
        }
        WireError::DeadlineExceeded { analyst } => {
            out.push(ERR_DEADLINE_EXCEEDED);
            put_str(out, analyst);
        }
        WireError::NotLeader { leader } => {
            out.push(ERR_NOT_LEADER);
            put_str(out, leader);
        }
        WireError::StaleReplica { lag_entries } => {
            out.push(ERR_STALE_REPLICA);
            put_u64(out, *lag_entries);
        }
        WireError::LogDiverged { leader_high_water } => {
            out.push(ERR_LOG_DIVERGED);
            put_u64(out, *leader_high_water);
        }
    }
}

fn decode_error(r: &mut Reader<'_>) -> Option<WireError> {
    Some(match r.u8()? {
        ERR_QUEUE_FULL => WireError::QueueFull {
            analyst: r.str()?,
            capacity: r.u64()?,
        },
        ERR_WINDOW_FULL => WireError::WindowFull { capacity: r.u64()? },
        ERR_BUDGET_EXHAUSTED => WireError::BudgetExhausted {
            analyst: r.str()?,
            requested_bits: r.u64()?,
            remaining_bits: r.u64()?,
        },
        ERR_BUDGET_REFUSED => WireError::BudgetRefused {
            analyst: r.str()?,
            requested_bits: r.u64()?,
            remaining_bits: r.u64()?,
        },
        ERR_SHUTDOWN => WireError::ShutDown,
        ERR_UNKNOWN_POLICY => WireError::UnknownPolicy(r.str()?),
        ERR_UNKNOWN_DATASET => WireError::UnknownDataset(r.str()?),
        ERR_UNKNOWN_POINTS => WireError::UnknownPoints(r.str()?),
        ERR_UNKNOWN_ANALYST => WireError::UnknownAnalyst(r.str()?),
        ERR_SESSION_EVICTED => WireError::SessionEvicted(r.str()?),
        ERR_INVALID_REQUEST => WireError::InvalidRequest(r.str()?),
        ERR_PROTOCOL => WireError::Protocol(r.str()?),
        ERR_OTHER => WireError::Other(r.str()?),
        ERR_OVERLOADED => WireError::Overloaded {
            depth: r.u64()?,
            limit: r.u64()?,
        },
        ERR_DEADLINE_EXCEEDED => WireError::DeadlineExceeded { analyst: r.str()? },
        ERR_NOT_LEADER => WireError::NotLeader { leader: r.str()? },
        ERR_STALE_REPLICA => WireError::StaleReplica {
            lag_entries: r.u64()?,
        },
        ERR_LOG_DIVERGED => WireError::LogDiverged {
            leader_high_water: r.u64()?,
        },
        _ => return None,
    })
}

fn encode_log_op(out: &mut Vec<u8>, op: &WireLogOp) {
    match op {
        WireLogOp::OpenSession { total_bits } => {
            out.push(LOG_OP_OPEN_SESSION);
            put_u64(out, *total_bits);
        }
        WireLogOp::Submit { request } => {
            out.push(LOG_OP_SUBMIT);
            encode_request(out, request);
        }
    }
}

fn decode_log_op(r: &mut Reader<'_>) -> Option<WireLogOp> {
    Some(match r.u8()? {
        LOG_OP_OPEN_SESSION => WireLogOp::OpenSession {
            total_bits: r.u64()?,
        },
        LOG_OP_SUBMIT => WireLogOp::Submit {
            request: decode_request(r)?,
        },
        _ => return None,
    })
}

fn encode_log_entry(out: &mut Vec<u8>, e: &WireLogEntry) {
    put_u64(out, e.epoch);
    put_u64(out, e.index);
    put_str(out, &e.analyst);
    put_u64(out, e.request_id);
    encode_log_op(out, &e.op);
}

fn decode_log_entry(r: &mut Reader<'_>) -> Option<WireLogEntry> {
    Some(WireLogEntry {
        epoch: r.u64()?,
        index: r.u64()?,
        analyst: r.str()?,
        request_id: r.u64()?,
        op: decode_log_op(r)?,
    })
}

impl ClientMessage {
    /// The correlation id the reply will echo.
    pub(crate) fn id(&self) -> u64 {
        match self {
            ClientMessage::Hello { id, .. }
            | ClientMessage::OpenSession { id, .. }
            | ClientMessage::Submit { id, .. }
            | ClientMessage::SubmitBatch { id, .. }
            | ClientMessage::Budget { id, .. }
            | ClientMessage::Stats { id }
            | ClientMessage::Traces { id }
            | ClientMessage::BudgetAudit { id, .. }
            | ClientMessage::LogCatchup { id, .. }
            | ClientMessage::ReplicateAck { id, .. }
            | ClientMessage::PeerStatus { id }
            | ClientMessage::ClusterStats { id }
            | ClientMessage::Health { id }
            | ClientMessage::Watch { id }
            | ClientMessage::Goodbye { id } => *id,
        }
    }

    /// The payload bytes (no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
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
        match self {
            ClientMessage::Hello { id, version } => {
                out.push(TAG_HELLO);
                put_u64(out, *id);
                put_u16(out, *version);
            }
            ClientMessage::OpenSession {
                id,
                analyst,
                total_bits,
            } => {
                out.push(TAG_OPEN_SESSION);
                put_u64(out, *id);
                put_str(out, analyst);
                put_u64(out, *total_bits);
            }
            ClientMessage::Submit {
                id,
                analyst,
                request,
                request_id,
                deadline_micros,
                trace_id,
                token,
            } => {
                out.push(TAG_SUBMIT);
                put_u64(out, *id);
                put_str(out, analyst);
                encode_request(out, request);
                put_opt_u64(out, *request_id);
                put_opt_u64(out, *deadline_micros);
                put_opt_u64(out, *trace_id);
                put_opt_u64(out, *token);
            }
            ClientMessage::SubmitBatch {
                id,
                analyst,
                requests,
                token,
            } => {
                out.push(TAG_SUBMIT_BATCH);
                put_u64(out, *id);
                put_str(out, analyst);
                put_list(out, requests, encode_request);
                put_opt_u64(out, *token);
            }
            ClientMessage::Budget { id, analyst } => {
                out.push(TAG_BUDGET);
                put_u64(out, *id);
                put_str(out, analyst);
            }
            ClientMessage::Stats { id } => {
                out.push(TAG_STATS);
                put_u64(out, *id);
            }
            ClientMessage::Traces { id } => {
                out.push(TAG_TRACES);
                put_u64(out, *id);
            }
            ClientMessage::BudgetAudit { id, analyst, token } => {
                out.push(TAG_BUDGET_AUDIT);
                put_u64(out, *id);
                put_str(out, analyst);
                put_opt_u64(out, *token);
            }
            ClientMessage::LogCatchup {
                id,
                epoch,
                from_index,
                last_epoch,
            } => {
                out.push(TAG_LOG_CATCHUP);
                put_u64(out, *id);
                put_u64(out, *epoch);
                put_u64(out, *from_index);
                put_u64(out, *last_epoch);
            }
            ClientMessage::ReplicateAck { id, epoch, index } => {
                out.push(TAG_REPLICATE_ACK);
                put_u64(out, *id);
                put_u64(out, *epoch);
                put_u64(out, *index);
            }
            ClientMessage::PeerStatus { id } => {
                out.push(TAG_PEER_STATUS);
                put_u64(out, *id);
            }
            ClientMessage::ClusterStats { id } => {
                out.push(TAG_CLUSTER_STATS);
                put_u64(out, *id);
            }
            ClientMessage::Health { id } => {
                out.push(TAG_HEALTH);
                put_u64(out, *id);
            }
            ClientMessage::Watch { id } => {
                out.push(TAG_WATCH);
                put_u64(out, *id);
            }
            ClientMessage::Goodbye { id } => {
                out.push(TAG_GOODBYE);
                put_u64(out, *id);
            }
        }
    }

    /// Decodes a payload produced by [`ClientMessage::encode`]; `None`
    /// when the bytes are not a well-formed message (the connection must
    /// close — a framing layer that let damage through cannot be
    /// trusted).
    pub fn decode(payload: &[u8]) -> Option<ClientMessage> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => ClientMessage::Hello {
                id: r.u64()?,
                version: read_u16(&mut r)?,
            },
            TAG_OPEN_SESSION => ClientMessage::OpenSession {
                id: r.u64()?,
                analyst: r.str()?,
                total_bits: r.u64()?,
            },
            TAG_SUBMIT => ClientMessage::Submit {
                id: r.u64()?,
                analyst: r.str()?,
                request: decode_request(&mut r)?,
                request_id: read_opt_u64(&mut r)?,
                deadline_micros: read_opt_u64(&mut r)?,
                trace_id: read_opt_u64(&mut r)?,
                token: read_opt_u64(&mut r)?,
            },
            TAG_SUBMIT_BATCH => ClientMessage::SubmitBatch {
                id: r.u64()?,
                analyst: r.str()?,
                requests: read_list(&mut r, decode_request)?,
                token: read_opt_u64(&mut r)?,
            },
            TAG_BUDGET => ClientMessage::Budget {
                id: r.u64()?,
                analyst: r.str()?,
            },
            TAG_STATS => ClientMessage::Stats { id: r.u64()? },
            TAG_TRACES => ClientMessage::Traces { id: r.u64()? },
            TAG_BUDGET_AUDIT => ClientMessage::BudgetAudit {
                id: r.u64()?,
                analyst: r.str()?,
                token: read_opt_u64(&mut r)?,
            },
            TAG_LOG_CATCHUP => ClientMessage::LogCatchup {
                id: r.u64()?,
                epoch: r.u64()?,
                from_index: r.u64()?,
                last_epoch: r.u64()?,
            },
            TAG_REPLICATE_ACK => ClientMessage::ReplicateAck {
                id: r.u64()?,
                epoch: r.u64()?,
                index: r.u64()?,
            },
            TAG_PEER_STATUS => ClientMessage::PeerStatus { id: r.u64()? },
            TAG_CLUSTER_STATS => ClientMessage::ClusterStats { id: r.u64()? },
            TAG_HEALTH => ClientMessage::Health { id: r.u64()? },
            TAG_WATCH => ClientMessage::Watch { id: r.u64()? },
            TAG_GOODBYE => ClientMessage::Goodbye { id: r.u64()? },
            _ => return None,
        };
        r.done().then_some(msg)
    }

    /// [`ClientMessage::decode`] for the frozen `bfbench`, which still
    /// passes a version: any but [`PROTOCOL_VERSION`] decodes nothing.
    /// ROADMAP item 2 removes it with the next change to `bfbench/`.
    pub fn decode_for(payload: &[u8], version: u16) -> Option<ClientMessage> {
        (version == PROTOCOL_VERSION).then(|| Self::decode(payload))?
    }
}

fn encode_replica_stats(out: &mut Vec<u8>, rep: &WireReplicaStats) {
    put_str(out, &rep.node);
    out.push(rep.reachable as u8);
    put_list(out, &rep.metrics, encode_metric);
}

fn decode_replica_stats(r: &mut Reader<'_>) -> Option<WireReplicaStats> {
    Some(WireReplicaStats {
        node: r.str()?,
        reachable: match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        },
        metrics: read_list(r, decode_metric)?,
    })
}

impl ServerMessage {
    /// The correlation id of the request this replies to.
    pub(crate) fn id(&self) -> u64 {
        match self {
            ServerMessage::Welcome { id, .. }
            | ServerMessage::SessionAttached { id, .. }
            | ServerMessage::Answer { id, .. }
            | ServerMessage::BatchAnswer { id, .. }
            | ServerMessage::BudgetReport { id, .. }
            | ServerMessage::StatsReport { id, .. }
            | ServerMessage::TraceReport { id, .. }
            | ServerMessage::AuditReport { id, .. }
            | ServerMessage::Refused { id, .. }
            | ServerMessage::Replicate { id, .. }
            | ServerMessage::PeerStatusReport { id, .. }
            | ServerMessage::ClusterStatsReport { id, .. }
            | ServerMessage::HealthReport { id, .. }
            | ServerMessage::Event { id, .. }
            | ServerMessage::Farewell { id } => *id,
        }
    }

    /// The payload bytes (no frame).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
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
        match self {
            ServerMessage::Welcome { id, version } => {
                out.push(TAG_WELCOME);
                put_u64(out, *id);
                put_u16(out, *version);
            }
            ServerMessage::SessionAttached {
                id,
                remaining_bits,
                token,
            } => {
                out.push(TAG_SESSION_ATTACHED);
                put_u64(out, *id);
                put_u64(out, *remaining_bits);
                put_u64(out, *token);
            }
            ServerMessage::Answer {
                id,
                response,
                trace_id,
            } => encode_answer(out, *id, response, *trace_id),
            ServerMessage::BatchAnswer { id, slots } => encode_batch_answer(out, *id, slots),
            ServerMessage::BudgetReport {
                id,
                total_bits,
                spent_bits,
                remaining_bits,
                served,
            } => {
                out.push(TAG_BUDGET_REPORT);
                put_u64(out, *id);
                put_u64(out, *total_bits);
                put_u64(out, *spent_bits);
                put_u64(out, *remaining_bits);
                put_u64(out, *served);
            }
            ServerMessage::StatsReport { id, metrics } => {
                out.push(TAG_STATS_REPORT);
                put_u64(out, *id);
                put_list(out, metrics, encode_metric);
            }
            ServerMessage::TraceReport { id, traces } => {
                out.push(TAG_TRACE_REPORT);
                put_u64(out, *id);
                put_list(out, traces, encode_trace_tree);
            }
            ServerMessage::AuditReport { id, entries } => {
                out.push(TAG_AUDIT_REPORT);
                put_u64(out, *id);
                put_list(out, entries, encode_ledger_entry);
            }
            ServerMessage::Refused {
                id,
                error,
                trace_id,
            } => {
                out.push(TAG_REFUSED);
                put_u64(out, *id);
                encode_error(out, error);
                put_opt_u64(out, *trace_id);
            }
            ServerMessage::Replicate {
                id,
                epoch,
                commit_index,
                entries,
            } => {
                out.push(TAG_REPLICATE);
                put_u64(out, *id);
                put_u64(out, *epoch);
                put_u64(out, *commit_index);
                put_list(out, entries, encode_log_entry);
            }
            ServerMessage::PeerStatusReport {
                id,
                epoch,
                high_water,
                applied,
            } => {
                out.push(TAG_PEER_STATUS_REPORT);
                put_u64(out, *id);
                put_u64(out, *epoch);
                put_u64(out, *high_water);
                put_u64(out, *applied);
            }
            ServerMessage::ClusterStatsReport { id, replicas } => {
                out.push(TAG_CLUSTER_STATS_REPORT);
                put_u64(out, *id);
                put_list(out, replicas, encode_replica_stats);
            }
            ServerMessage::HealthReport {
                id,
                role,
                epoch,
                applied,
                lag,
                wal_segments,
                queue_depth,
                unreachable,
                firing,
            } => {
                out.push(TAG_HEALTH_REPORT);
                put_u64(out, *id);
                put_str(out, role);
                put_u64(out, *epoch);
                put_u64(out, *applied);
                put_u64(out, *lag);
                put_u64(out, *wal_segments);
                put_u64(out, *queue_depth);
                put_list(out, unreachable, |out, peer| put_str(out, peer));
                put_list(out, firing, |out, slo| put_str(out, slo));
            }
            ServerMessage::Event {
                id,
                seq,
                kind,
                detail,
                value,
            } => {
                out.push(TAG_EVENT);
                put_u64(out, *id);
                put_u64(out, *seq);
                out.push(match kind {
                    WireEventKind::Stage => EVENT_STAGE,
                    WireEventKind::Trace => EVENT_TRACE,
                    WireEventKind::Role => EVENT_ROLE,
                    WireEventKind::Slo => EVENT_SLO,
                });
                put_str(out, detail);
                put_u64(out, *value);
            }
            ServerMessage::Farewell { id } => {
                out.push(TAG_FAREWELL);
                put_u64(out, *id);
            }
        }
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
        encode_answer(out, id, response, trace_id);
    }

    /// [`ServerMessage::encode_answer_into`] for a
    /// [`ServerMessage::BatchAnswer`].
    pub(crate) fn encode_batch_answer_into(
        out: &mut Vec<u8>,
        id: u64,
        slots: &[Result<Response, WireError>],
    ) {
        encode_batch_answer(out, id, slots);
    }

    /// Decodes a payload produced by `ServerMessage::encode`; `None`
    /// for anything malformed.
    pub fn decode(payload: &[u8]) -> Option<ServerMessage> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_WELCOME => ServerMessage::Welcome {
                id: r.u64()?,
                version: read_u16(&mut r)?,
            },
            TAG_SESSION_ATTACHED => ServerMessage::SessionAttached {
                id: r.u64()?,
                remaining_bits: r.u64()?,
                token: r.u64()?,
            },
            TAG_ANSWER => ServerMessage::Answer {
                id: r.u64()?,
                response: decode_response(&mut r)?,
                trace_id: read_opt_u64(&mut r)?,
            },
            TAG_BATCH_ANSWER => ServerMessage::BatchAnswer {
                id: r.u64()?,
                slots: read_list(&mut r, decode_slot)?,
            },
            TAG_BUDGET_REPORT => ServerMessage::BudgetReport {
                id: r.u64()?,
                total_bits: r.u64()?,
                spent_bits: r.u64()?,
                remaining_bits: r.u64()?,
                served: r.u64()?,
            },
            TAG_STATS_REPORT => ServerMessage::StatsReport {
                id: r.u64()?,
                metrics: read_list(&mut r, decode_metric)?,
            },
            TAG_TRACE_REPORT => ServerMessage::TraceReport {
                id: r.u64()?,
                traces: read_list(&mut r, decode_trace_tree)?,
            },
            TAG_AUDIT_REPORT => ServerMessage::AuditReport {
                id: r.u64()?,
                entries: read_list(&mut r, decode_ledger_entry)?,
            },
            TAG_REFUSED => ServerMessage::Refused {
                id: r.u64()?,
                error: decode_error(&mut r)?,
                trace_id: read_opt_u64(&mut r)?,
            },
            TAG_REPLICATE => ServerMessage::Replicate {
                id: r.u64()?,
                epoch: r.u64()?,
                commit_index: r.u64()?,
                entries: read_list(&mut r, decode_log_entry)?,
            },
            TAG_PEER_STATUS_REPORT => ServerMessage::PeerStatusReport {
                id: r.u64()?,
                epoch: r.u64()?,
                high_water: r.u64()?,
                applied: r.u64()?,
            },
            TAG_CLUSTER_STATS_REPORT => ServerMessage::ClusterStatsReport {
                id: r.u64()?,
                replicas: read_list(&mut r, decode_replica_stats)?,
            },
            TAG_HEALTH_REPORT => ServerMessage::HealthReport {
                id: r.u64()?,
                role: r.str()?,
                epoch: r.u64()?,
                applied: r.u64()?,
                lag: r.u64()?,
                wal_segments: r.u64()?,
                queue_depth: r.u64()?,
                unreachable: read_list(&mut r, |r| r.str())?,
                firing: read_list(&mut r, |r| r.str())?,
            },
            TAG_EVENT => ServerMessage::Event {
                id: r.u64()?,
                seq: r.u64()?,
                kind: match r.u8()? {
                    EVENT_STAGE => WireEventKind::Stage,
                    EVENT_TRACE => WireEventKind::Trace,
                    EVENT_ROLE => WireEventKind::Role,
                    EVENT_SLO => WireEventKind::Slo,
                    _ => return None,
                },
                detail: r.str()?,
                value: r.u64()?,
            },
            TAG_FAREWELL => ServerMessage::Farewell { id: r.u64()? },
            _ => return None,
        };
        r.done().then_some(msg)
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
    use bf_store::{frame_bytes, frame_into, read_frame, FrameBuf, FrameRead};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn arb_string(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..12usize);
        (0..len)
            .map(|_| char::from(rng.random_range(b'a'..=b'z')))
            .collect()
    }

    fn arb_request(rng: &mut StdRng) -> WireRequest {
        let kind = match rng.random_range(0..5u32) {
            0 => WireRequestKind::Histogram,
            1 => WireRequestKind::Cumulative,
            2 => WireRequestKind::Range {
                lo: rng.random_range(0..1000u64),
                hi: rng.random_range(0..1000u64),
            },
            3 => WireRequestKind::Linear {
                weight_bits: (0..rng.random_range(0..20usize))
                    .map(|_| rng.random::<f64>().to_bits())
                    .collect(),
            },
            _ => WireRequestKind::Kmeans {
                k: rng.random_range(1..10u64),
                iterations: rng.random_range(1..10u64),
                spec: match rng.random_range(0..5u32) {
                    0 => WireKmeansSpec::Full,
                    1 => WireKmeansSpec::Attribute,
                    2 => WireKmeansSpec::L1Threshold(rng.random::<f64>().to_bits()),
                    3 => WireKmeansSpec::PartitionMaxDiameter(rng.random::<f64>().to_bits()),
                    _ => WireKmeansSpec::Exact,
                },
            },
        };
        WireRequest {
            policy: arb_string(rng),
            data: arb_string(rng),
            epsilon_bits: rng.random::<f64>().to_bits(),
            kind,
        }
    }

    fn arb_response(rng: &mut StdRng) -> WireResponse {
        match rng.random_range(0..4u32) {
            0 => WireResponse::Histogram(
                (0..rng.random_range(0..16usize))
                    .map(|_| rng.random())
                    .collect(),
            ),
            1 => WireResponse::Prefixes(
                (0..rng.random_range(0..16usize))
                    .map(|_| rng.random())
                    .collect(),
            ),
            2 => WireResponse::Scalar(rng.random()),
            _ => WireResponse::Centroids(
                (0..rng.random_range(0..4usize))
                    .map(|_| {
                        (0..rng.random_range(0..4usize))
                            .map(|_| rng.random())
                            .collect()
                    })
                    .collect(),
            ),
        }
    }

    fn arb_opt_u64(rng: &mut StdRng) -> Option<u64> {
        rng.random::<bool>().then(|| rng.random())
    }

    fn arb_error(rng: &mut StdRng) -> WireError {
        match rng.random_range(0..18u32) {
            0 => WireError::QueueFull {
                analyst: arb_string(rng),
                capacity: rng.random(),
            },
            1 => WireError::WindowFull {
                capacity: rng.random(),
            },
            2 => WireError::BudgetExhausted {
                analyst: arb_string(rng),
                requested_bits: rng.random(),
                remaining_bits: rng.random(),
            },
            3 => WireError::BudgetRefused {
                analyst: arb_string(rng),
                requested_bits: rng.random(),
                remaining_bits: rng.random(),
            },
            4 => WireError::ShutDown,
            5 => WireError::UnknownPolicy(arb_string(rng)),
            6 => WireError::UnknownDataset(arb_string(rng)),
            7 => WireError::UnknownPoints(arb_string(rng)),
            8 => WireError::UnknownAnalyst(arb_string(rng)),
            9 => WireError::SessionEvicted(arb_string(rng)),
            10 => WireError::InvalidRequest(arb_string(rng)),
            11 => WireError::Protocol(arb_string(rng)),
            12 => WireError::Overloaded {
                depth: rng.random(),
                limit: rng.random(),
            },
            13 => WireError::DeadlineExceeded {
                analyst: arb_string(rng),
            },
            14 => WireError::NotLeader {
                leader: arb_string(rng),
            },
            15 => WireError::StaleReplica {
                lag_entries: rng.random(),
            },
            16 => WireError::LogDiverged {
                leader_high_water: rng.random(),
            },
            _ => WireError::Other(arb_string(rng)),
        }
    }

    fn arb_log_entry(rng: &mut StdRng) -> WireLogEntry {
        WireLogEntry {
            epoch: rng.random(),
            index: rng.random(),
            analyst: arb_string(rng),
            request_id: rng.random(),
            op: if rng.random() {
                WireLogOp::OpenSession {
                    total_bits: rng.random(),
                }
            } else {
                WireLogOp::Submit {
                    request: arb_request(rng),
                }
            },
        }
    }

    fn arb_metric(rng: &mut StdRng) -> WireMetric {
        match rng.random_range(0..3u32) {
            0 => WireMetric::Counter {
                name: arb_string(rng),
                value: rng.random(),
            },
            1 => WireMetric::Gauge {
                name: arb_string(rng),
                bits: rng.random(),
            },
            _ => WireMetric::Histogram {
                name: arb_string(rng),
                count: rng.random(),
                sum: rng.random(),
                max: rng.random(),
                p50: rng.random(),
                p99: rng.random(),
                p999: rng.random(),
            },
        }
    }

    fn arb_trace_tree(rng: &mut StdRng) -> TraceTree {
        let spans = (0..rng.random_range(0..5usize))
            .map(|_| TraceSpan {
                stage: Stage::ALL[rng.random_range(0..Stage::ALL.len())],
                start_ns: rng.random(),
                duration_ns: rng.random(),
                outcome: arb_string(rng),
                link: arb_opt_u64(rng),
            })
            .collect();
        TraceTree {
            id: TraceId(rng.random()),
            analyst: arb_string(rng),
            total_ns: rng.random(),
            outcome: arb_string(rng),
            spans,
        }
    }

    fn arb_ledger_entry(rng: &mut StdRng) -> LedgerEntry {
        LedgerEntry {
            seq: rng.random(),
            eps_bits: rng.random(),
            label: arb_string(rng),
            fingerprint: rng.random(),
        }
    }

    fn arb_client_message(rng: &mut StdRng) -> ClientMessage {
        let id = rng.random();
        match rng.random_range(0..15u32) {
            0 => ClientMessage::Hello {
                id,
                version: rng.random::<u32>() as u16,
            },
            1 => ClientMessage::OpenSession {
                id,
                analyst: arb_string(rng),
                total_bits: rng.random(),
            },
            2 => ClientMessage::Submit {
                id,
                analyst: arb_string(rng),
                request: arb_request(rng),
                request_id: arb_opt_u64(rng),
                deadline_micros: arb_opt_u64(rng),
                trace_id: arb_opt_u64(rng),
                token: arb_opt_u64(rng),
            },
            3 => ClientMessage::SubmitBatch {
                id,
                analyst: arb_string(rng),
                requests: (0..rng.random_range(0..5usize))
                    .map(|_| arb_request(rng))
                    .collect(),
                token: arb_opt_u64(rng),
            },
            4 => ClientMessage::Budget {
                id,
                analyst: arb_string(rng),
            },
            5 => ClientMessage::Stats { id },
            6 => ClientMessage::Traces { id },
            7 => ClientMessage::BudgetAudit {
                id,
                analyst: arb_string(rng),
                token: arb_opt_u64(rng),
            },
            8 => ClientMessage::LogCatchup {
                last_epoch: rng.random(),
                id,
                epoch: rng.random(),
                from_index: rng.random(),
            },
            9 => ClientMessage::ReplicateAck {
                id,
                epoch: rng.random(),
                index: rng.random(),
            },
            10 => ClientMessage::PeerStatus { id },
            11 => ClientMessage::ClusterStats { id },
            12 => ClientMessage::Health { id },
            13 => ClientMessage::Watch { id },
            _ => ClientMessage::Goodbye { id },
        }
    }

    fn arb_replica_stats(rng: &mut StdRng) -> WireReplicaStats {
        let reachable = rng.random();
        WireReplicaStats {
            node: arb_string(rng),
            reachable,
            metrics: if reachable {
                (0..rng.random_range(0..4usize))
                    .map(|_| arb_metric(rng))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    fn arb_server_message(rng: &mut StdRng) -> ServerMessage {
        let id = rng.random();
        match rng.random_range(0..15u32) {
            0 => ServerMessage::Welcome {
                id,
                version: rng.random::<u32>() as u16,
            },
            1 => ServerMessage::SessionAttached {
                id,
                remaining_bits: rng.random(),
                token: rng.random(),
            },
            2 => ServerMessage::Answer {
                id,
                response: arb_response(rng),
                trace_id: arb_opt_u64(rng),
            },
            3 => ServerMessage::BatchAnswer {
                id,
                slots: (0..rng.random_range(0..5usize))
                    .map(|_| {
                        if rng.random() {
                            Ok(arb_response(rng))
                        } else {
                            Err(arb_error(rng))
                        }
                    })
                    .collect(),
            },
            4 => ServerMessage::BudgetReport {
                id,
                total_bits: rng.random(),
                spent_bits: rng.random(),
                remaining_bits: rng.random(),
                served: rng.random(),
            },
            5 => ServerMessage::Refused {
                id,
                error: arb_error(rng),
                trace_id: arb_opt_u64(rng),
            },
            6 => ServerMessage::StatsReport {
                id,
                metrics: (0..rng.random_range(0..6usize))
                    .map(|_| arb_metric(rng))
                    .collect(),
            },
            7 => ServerMessage::TraceReport {
                id,
                traces: (0..rng.random_range(0..4usize))
                    .map(|_| arb_trace_tree(rng))
                    .collect(),
            },
            8 => ServerMessage::AuditReport {
                id,
                entries: (0..rng.random_range(0..6usize))
                    .map(|_| arb_ledger_entry(rng))
                    .collect(),
            },
            9 => ServerMessage::Replicate {
                id,
                epoch: rng.random(),
                commit_index: rng.random(),
                entries: (0..rng.random_range(0..4usize))
                    .map(|_| arb_log_entry(rng))
                    .collect(),
            },
            10 => ServerMessage::PeerStatusReport {
                id,
                epoch: rng.random(),
                high_water: rng.random(),
                applied: rng.random(),
            },
            11 => ServerMessage::ClusterStatsReport {
                id,
                replicas: (0..rng.random_range(0..4usize))
                    .map(|_| arb_replica_stats(rng))
                    .collect(),
            },
            12 => ServerMessage::HealthReport {
                id,
                role: arb_string(rng),
                epoch: rng.random(),
                applied: rng.random(),
                lag: rng.random(),
                wal_segments: rng.random(),
                queue_depth: rng.random(),
                unreachable: (0..rng.random_range(0..3usize))
                    .map(|_| arb_string(rng))
                    .collect(),
                firing: (0..rng.random_range(0..3usize))
                    .map(|_| arb_string(rng))
                    .collect(),
            },
            13 => ServerMessage::Event {
                id,
                seq: rng.random(),
                kind: match rng.random_range(0..4u32) {
                    0 => WireEventKind::Stage,
                    1 => WireEventKind::Trace,
                    2 => WireEventKind::Role,
                    _ => WireEventKind::Slo,
                },
                detail: arb_string(rng),
                value: rng.random(),
            },
            _ => ServerMessage::Farewell { id },
        }
    }

    proptest! {
        /// Every client message round-trips encode → decode exactly.
        #[test]
        fn client_messages_round_trip(seed in 0u64..512) {
            let mut rng = StdRng::seed_from_u64(seed);
            let msg = arb_client_message(&mut rng);
            prop_assert_eq!(ClientMessage::decode(&msg.encode()), Some(msg));
        }

        /// Every server message round-trips encode → decode exactly.
        #[test]
        fn server_messages_round_trip(seed in 0u64..512) {
            let mut rng = StdRng::seed_from_u64(seed);
            let msg = arb_server_message(&mut rng);
            prop_assert_eq!(ServerMessage::decode(&msg.encode()), Some(msg));
        }

        /// Log operations round-trip standalone — the encoding a
        /// `Record::Replicated` WAL frame carries must survive recovery.
        #[test]
        fn log_ops_round_trip(seed in 0u64..256) {
            let mut rng = StdRng::seed_from_u64(seed);
            let entry = arb_log_entry(&mut rng);
            prop_assert_eq!(WireLogOp::decode(&entry.op.encode()), Some(entry.op));
        }

        /// Metric samples survive obs-snapshot → wire → obs-snapshot
        /// bit-exactly (gauges carried as raw `f64` bits).
        #[test]
        fn metric_snapshot_conversions_round_trip(seed in 0u64..256) {
            let mut rng = StdRng::seed_from_u64(seed);
            let wire = arb_metric(&mut rng);
            prop_assert_eq!(WireMetric::from_snapshot(&wire.to_snapshot()), wire);
        }

        /// Engine request/response conversions are lossless (ε, weights
        /// and answers as exact bits).
        #[test]
        fn engine_conversions_round_trip(seed in 0u64..256) {
            let mut rng = StdRng::seed_from_u64(seed);
            let wire = arb_request(&mut rng);
            if let Ok(request) = wire.to_request() {
                prop_assert_eq!(WireRequest::from_request(&request), wire);
            }
            let resp = arb_response(&mut rng);
            prop_assert_eq!(WireResponse::from_response(&resp.to_response()), resp.clone());
        }
    }

    proptest! {
        /// `encode_into` appends, to whatever the buffer already holds,
        /// exactly the bytes `encode_for` returns at the one version —
        /// both directions — and the writer's two engine-`Response`
        /// encoders produce the `Answer` / `BatchAnswer` payloads of the
        /// wire mirror they skip.
        #[test]
        fn encode_into_appends_what_encode_for_returns(seed in 0u64..512) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cm = arb_client_message(&mut rng);
            let sm = arb_server_message(&mut rng);
            let response = arb_response(&mut rng);
            let slots: Vec<Result<WireResponse, WireError>> = (0..rng.random_range(0..4usize))
                .map(|i| if i % 2 == 0 { Ok(arb_response(&mut rng)) } else { Err(arb_error(&mut rng)) })
                .collect();
            let engine_slots: Vec<Result<Response, WireError>> = slots
                .iter()
                .map(|slot| slot.as_ref().map(WireResponse::to_response).map_err(Clone::clone))
                .collect();
            let trace_id = arb_opt_u64(&mut rng);
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
                    _ if i % 2 == 0 => arb_client_message(&mut rng).encode(),
                    _ => arb_server_message(&mut rng).encode(),
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
                    'w' => put_u64(&mut p, 0),
                    _ => put_str(&mut p, ""),
                }
            }
            p.extend_from_slice(then);
            p
        };
        type Decodes = fn(&[u8]) -> bool;
        let cm: Decodes = |p| ClientMessage::decode(p).is_some();
        let sm: Decodes = |p| ServerMessage::decode(p).is_some();
        let op: Decodes = |p| WireLogOp::decode(p).is_some();
        let cases: [(&str, Vec<u8>, Decodes); 14] = [
            ("Submit", prefix(TAG_SUBMIT, "wsssw", &[KIND_LINEAR]), cm),
            ("SubmitBatch", prefix(TAG_SUBMIT_BATCH, "ws", &[]), cm),
            ("Histogram", prefix(TAG_ANSWER, "w", &[RESP_HISTOGRAM]), sm),
            ("Prefixes", prefix(TAG_ANSWER, "w", &[RESP_PREFIXES]), sm),
            ("Centroids", prefix(TAG_ANSWER, "w", &[RESP_CENTROIDS]), sm),
            ("BatchAnswer", prefix(TAG_BATCH_ANSWER, "w", &[]), sm),
            ("StatsReport", prefix(TAG_STATS_REPORT, "w", &[]), sm),
            ("TraceReport", prefix(TAG_TRACE_REPORT, "w", &[]), sm),
            ("AuditReport", prefix(TAG_AUDIT_REPORT, "w", &[]), sm),
            ("Replicate", prefix(TAG_REPLICATE, "www", &[]), sm),
            ("Cluster", prefix(TAG_CLUSTER_STATS_REPORT, "w", &[]), sm),
            ("unreachable", prefix(TAG_HEALTH_REPORT, "wswwwww", &[]), sm),
            ("firing", prefix(TAG_HEALTH_REPORT, "wswwwwww", &[]), sm),
            ("log op", prefix(LOG_OP_SUBMIT, "ssw", &[KIND_LINEAR]), op),
        ];
        for (what, prefix, decodes) in cases {
            for count in [1u64 << 40, u64::MAX] {
                let mut payload = prefix.clone();
                put_u64(&mut payload, count);
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
                arb_client_message(&mut rng).encode()
            } else {
                arb_server_message(&mut rng).encode()
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
