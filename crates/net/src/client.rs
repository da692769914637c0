//! The client library: connection handling, pipelining, reconnect.

use crate::error::NetError;
use crate::proto::{
    ClientMessage, ServerMessage, WireError, WireMetric, WireReplicaStats, WireRequest,
    PROTOCOL_VERSION,
};
use bf_engine::{Request, Response};
use bf_obs::{ClusterEvent, TraceTree};
use bf_store::{frame_into, FrameBuf, FrameRead, LedgerEntry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// An analyst's ledger as reported by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSnapshot {
    /// Total ε the session opened with.
    pub total: f64,
    /// ε spent so far (durable when the server has a store).
    pub spent: f64,
    /// ε remaining.
    pub remaining: f64,
    /// Requests served.
    pub served: u64,
}

/// One node's health as reported by [`Client::health`] — cheap enough
/// to poll from a load balancer, rich enough to decide eviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Serving role: `"leader"`, `"follower"` or `"standalone"`.
    pub role: String,
    /// Current sequencing epoch (0 when standalone).
    pub epoch: u64,
    /// Largest log index executed through the node's engine.
    pub applied: u64,
    /// Worst replication lag visible from the node, in entries
    /// (refreshed from live state at probe time).
    pub lag: u64,
    /// Durable WAL segment count (live plus archived).
    pub wal_segments: u64,
    /// Queued submissions across every analyst queue.
    pub queue_depth: u64,
    /// Peer addresses that did not answer the node's status probe.
    pub unreachable: Vec<String>,
    /// Names of SLOs currently firing on the node.
    pub firing: Vec<String>,
}

/// How hard the client tries before giving up: attempt budget plus a
/// capped exponential backoff whose jitter is **deterministic** in
/// `seed` (via [`bf_chaos::ChaosRng`]), so a chaos test replaying the
/// same seed observes the same retry cadence.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Clamped to at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling the doubling saturates at (before jitter).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0x0062_666e_6574, // "bfnet"
        }
    }
}

impl RetryPolicy {
    /// The jittered wait before retry number `attempt` (0-based).
    fn wait(&self, rng: &mut bf_chaos::ChaosRng, attempt: u32) -> Duration {
        Duration::from_micros(bf_chaos::backoff_micros(
            rng,
            self.base_backoff.as_micros() as u64,
            self.max_backoff.as_micros() as u64,
            attempt,
        ))
    }
}

/// Whether an error is worth retrying: transport failures and timeouts
/// are; typed refusals, version mismatches and protocol violations are
/// deterministic and will simply repeat.
fn transient(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Io(_)
            | NetError::ConnectionLost { .. }
            | NetError::TimedOut
            | NetError::RetriesExhausted { .. }
    )
}

/// A blocking, pipelining client for one serving process.
///
/// One `Client` owns one TCP connection. Requests are **pipelined**:
/// [`Client::submit`] sends a frame and returns its correlation id
/// immediately, so any number of requests can be outstanding;
/// [`Client::wait`] blocks for one specific answer, buffering any other
/// replies that arrive first. [`Client::call`] is the serial
/// convenience (submit + wait).
///
/// ## Reconnect and reattach
///
/// The client remembers every session it opened. After a connection
/// failure ([`NetError::Io`] / [`NetError::ConnectionLost`]),
/// [`Client::reconnect`] dials again, re-runs the handshake, and
/// reopens each remembered session through the server's recovery path
/// (`Engine::attach_session`): whether the serving process restarted
/// from its WAL or only the connection dropped, the analyst lands on
/// the same durable ledger, spent ε intact. Requests that were in
/// flight at the failure are reported lost, **not** resubmitted —
/// whether they were served (and charged) is unknowable from the
/// client, so the honest move is to surface the ids and let the caller
/// check [`Client::budget`] before retrying.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    /// Received bytes not yet handed out as frames.
    frames: FrameBuf,
    /// The frame being sent, encoded in place; reused by every send.
    out: Vec<u8>,
    next_id: u64,
    /// Correlation ids sent and not yet answered.
    pending: HashSet<u64>,
    /// Replies that arrived while waiting for a different id.
    ready: HashMap<u64, ServerMessage>,
    /// Sessions opened through this client: analyst → total ε bits
    /// (BTreeMap so reattach order is deterministic).
    sessions: BTreeMap<String, u64>,
    /// Session tokens the server issued on attach: analyst → token.
    /// Presented automatically on every `Submit` / `BudgetAudit`;
    /// refreshed whenever a session reattaches (a failed-over leader
    /// issues new tokens).
    tokens: BTreeMap<String, u64>,
    /// How long a blocking receive waits before [`NetError::TimedOut`].
    timeout: Option<Duration>,
    /// Next idempotency key. Seeded from the wall clock at connect so
    /// keys stay unique across client restarts against the same
    /// server-side reply cache.
    next_request_id: u64,
    /// Known cluster members, for redirect-on-[`WireError::NotLeader`]
    /// and dial-the-next-member failover. Empty for a single-server
    /// client.
    cluster: Vec<SocketAddr>,
    /// Index of the member `addr` currently points at.
    member: usize,
}

impl Client {
    /// Connects and runs the version handshake.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the dial fails, [`NetError::Protocol`] /
    /// [`NetError::Remote`] when the handshake is refused,
    /// [`NetError::VersionMismatch`] when the server welcomes any
    /// version but [`PROTOCOL_VERSION`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Protocol("address resolved to nothing".into()))?;
        let stream = Self::dial(addr)?;
        let next_request_id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1);
        let mut client = Client {
            addr,
            stream,
            frames: FrameBuf::new(),
            out: Vec::new(),
            next_id: 1,
            pending: HashSet::new(),
            ready: HashMap::new(),
            sessions: BTreeMap::new(),
            tokens: BTreeMap::new(),
            timeout: None,
            next_request_id,
            cluster: Vec::new(),
            member: 0,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Connects to the first reachable member of a replica cluster and
    /// remembers the full member list: a later
    /// [`WireError::NotLeader`] refusal redirects to the hinted leader
    /// (or the next member), and a dead member's dial failure rotates
    /// to the next one on reconnect. Writes still need the leader —
    /// [`Client::call_idempotent`] follows redirects automatically —
    /// while reads (`budget`, `stats`, `traces`, `audit`) are served by
    /// whichever member this client landed on.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when `addrs` resolves to nothing; the
    /// last member's connect error when none are reachable.
    pub fn connect_cluster(addrs: impl ToSocketAddrs) -> Result<Client, NetError> {
        let members: Vec<SocketAddr> = addrs.to_socket_addrs()?.collect();
        if members.is_empty() {
            return Err(NetError::Protocol("cluster resolved to nothing".into()));
        }
        let mut last = None;
        for (i, &addr) in members.iter().enumerate() {
            match Self::connect(addr) {
                Ok(mut client) => {
                    client.cluster = members;
                    client.member = i;
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one member tried"))
    }

    fn dial(addr: SocketAddr) -> Result<TcpStream, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn handshake(&mut self) -> Result<(), NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Hello {
            id,
            version: PROTOCOL_VERSION,
        })?;
        match self.recv_for(id)? {
            ServerMessage::Welcome {
                version: PROTOCOL_VERSION,
                ..
            } => Ok(()),
            ServerMessage::Welcome { version, .. } => Err(NetError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            }),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// The session token the server issued for `analyst` on attach, if
    /// any.
    pub fn session_token(&self, analyst: &str) -> Option<u64> {
        self.tokens.get(analyst).copied()
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn fresh_request_id(&mut self) -> u64 {
        let rid = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        rid
    }

    /// Caps how long a blocking receive waits before surfacing
    /// [`NetError::TimedOut`]; `None` (the default) blocks forever.
    ///
    /// A timed-out request may still be served — and charged — by the
    /// server. Retry it with the same idempotency key
    /// ([`Client::call_idempotent`] does) so the durable reply cache
    /// answers instead of a second charge.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when clearing the socket's read timeout fails.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.timeout = timeout;
        if timeout.is_none() {
            self.stream.set_read_timeout(None)?;
        }
        Ok(())
    }

    fn send(&mut self, msg: &ClientMessage) -> Result<(), NetError> {
        self.out.clear();
        frame_into(&mut self.out, |out| msg.encode_into(out));
        self.stream.write_all(&self.out)?;
        self.pending.insert(msg.id());
        Ok(())
    }

    /// Reads one message off the wire, blocking at most the configured
    /// [`Client::set_timeout`] (forever when unset).
    fn recv_message(&mut self) -> Result<ServerMessage, NetError> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        loop {
            match self.frames.next_frame() {
                FrameRead::Complete { payload, .. } => {
                    return ServerMessage::decode(payload)
                        .ok_or_else(|| NetError::Protocol("undecodable server message".into()));
                }
                FrameRead::Corrupt => {
                    return Err(NetError::Protocol("corrupt frame from server".into()))
                }
                FrameRead::Incomplete => {}
            }
            if let Some(deadline) = deadline {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(NetError::TimedOut);
                }
                self.stream.set_read_timeout(Some(remaining))?;
            }
            match self.frames.fill(&mut self.stream) {
                Ok(0) => {
                    let mut in_flight: Vec<u64> = self.pending.drain().collect();
                    in_flight.sort_unstable();
                    return Err(NetError::ConnectionLost { in_flight });
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(NetError::TimedOut)
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Blocks until the reply for `id` arrives, buffering other replies.
    fn recv_for(&mut self, id: u64) -> Result<ServerMessage, NetError> {
        loop {
            if let Some(msg) = self.ready.remove(&id) {
                self.pending.remove(&id);
                return Ok(msg);
            }
            let msg = self.recv_message()?;
            if msg.id() == id {
                self.pending.remove(&id);
                return Ok(msg);
            }
            if self.pending.contains(&msg.id()) {
                self.ready.insert(msg.id(), msg);
            } else {
                return Err(NetError::Protocol(format!(
                    "reply for unknown correlation id {}",
                    msg.id()
                )));
            }
        }
    }

    /// Opens (or reattaches) a session for `analyst` with a total ε
    /// budget, returning the remaining ε — equal to `total` for a fresh
    /// session, less for a reattached one whose ledger already spent.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for a typed refusal (total mismatch on
    /// reattach, invalid ε), transport errors otherwise.
    pub fn open_session(&mut self, analyst: &str, total: f64) -> Result<f64, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::OpenSession {
            id,
            analyst: analyst.to_owned(),
            total_bits: total.to_bits(),
        })?;
        match self.recv_for(id)? {
            ServerMessage::SessionAttached {
                remaining_bits,
                token,
                ..
            } => {
                self.sessions.insert(analyst.to_owned(), total.to_bits());
                if token != 0 {
                    self.tokens.insert(analyst.to_owned(), token);
                }
                Ok(f64::from_bits(remaining_bits))
            }
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected SessionAttached, got {other:?}"
            ))),
        }
    }

    /// Pipelines one request: sends it and returns the correlation id
    /// without waiting. Collect the answer later with [`Client::wait`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the send fails (reconnect to recover).
    pub fn submit(&mut self, analyst: &str, request: &Request) -> Result<u64, NetError> {
        self.submit_tagged(analyst, request, None, None)
    }

    /// Pipelines one request carrying an optional idempotency key and
    /// an optional server-side deadline (µs the request may wait
    /// undispatched before the scheduler refuses it, charge-free).
    ///
    /// A keyed request the server has already answered replays its
    /// durable answer bit-for-bit at zero additional ε — the primitive
    /// [`Client::call_idempotent`] builds its retry loop on.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the send fails (reconnect to recover).
    pub fn submit_tagged(
        &mut self,
        analyst: &str,
        request: &Request,
        request_id: Option<u64>,
        deadline_micros: Option<u64>,
    ) -> Result<u64, NetError> {
        self.submit_traced(analyst, request, request_id, deadline_micros, None)
    }

    /// [`Client::submit_tagged`] carrying a client-assigned trace id.
    ///
    /// A `Some(tid)` asks the server to record a request-scoped trace
    /// tree — decode, queue, schedule, coalesce, WAL-commit, release and
    /// reply spans — under that id, retrievable later via
    /// [`Client::traces`]. The id is echoed back on the `Answer` (or
    /// `Refused`) frame so replies can be matched to trace trees without
    /// extra bookkeeping. Tracing is a pure observability side channel:
    /// answers are byte-identical with or without it.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the send fails (reconnect to recover).
    pub fn submit_traced(
        &mut self,
        analyst: &str,
        request: &Request,
        request_id: Option<u64>,
        deadline_micros: Option<u64>,
        trace_id: Option<u64>,
    ) -> Result<u64, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Submit {
            id,
            analyst: analyst.to_owned(),
            request: WireRequest::from_request(request),
            request_id,
            deadline_micros,
            trace_id,
            token: self.tokens.get(analyst).copied(),
        })?;
        Ok(id)
    }

    /// Blocks for the answer to a pipelined submission.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for a typed refusal, transport errors
    /// otherwise.
    pub fn wait(&mut self, id: u64) -> Result<Response, NetError> {
        match self.recv_for(id)? {
            ServerMessage::Answer { response, .. } => Ok(response.to_response()),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected Answer, got {other:?}"
            ))),
        }
    }

    /// Serial convenience: submit one request and wait for its answer.
    ///
    /// # Errors
    ///
    /// As for [`Client::submit`] and [`Client::wait`].
    pub fn call(&mut self, analyst: &str, request: &Request) -> Result<Response, NetError> {
        let id = self.submit(analyst, request)?;
        self.wait(id)
    }

    /// An exactly-once call: stamps the request with a fresh durable
    /// idempotency key and retries transport failures
    /// ([`NetError::Io`] / [`NetError::ConnectionLost`] /
    /// [`NetError::TimedOut`]) by reconnecting, backing off
    /// (deterministic jitter from `policy.seed`), and resubmitting
    /// **the same key**. However the first attempt died — before the
    /// server saw it, after it charged but before the reply, or with
    /// the reply lost on the wire — the retry either performs the work
    /// once or replays the durable answer bit-for-bit at zero
    /// additional ε.
    ///
    /// Typed refusals ([`NetError::Remote`]) and protocol errors are
    /// deterministic and surface immediately, unretried — with one
    /// exception: [`WireError::NotLeader`] from a cluster follower
    /// redirects this client at the hinted leader (or the next known
    /// member) and retries, so callers keep exactly-once semantics
    /// across a leader failover.
    ///
    /// # Errors
    ///
    /// [`NetError::RetriesExhausted`] once `policy.max_attempts` all
    /// failed transiently; the non-transient errors above as-is.
    pub fn call_idempotent(
        &mut self,
        analyst: &str,
        request: &Request,
        policy: &RetryPolicy,
    ) -> Result<Response, NetError> {
        let rid = self.fresh_request_id();
        self.with_retries(policy, policy.seed ^ rid, transient, |client, attempt| {
            if attempt > 0 {
                client.reconnect_with(policy)?;
            }
            let id = client.submit_tagged(analyst, request, Some(rid), None)?;
            client.wait(id)
        })
    }

    /// The attempt / back-off loop behind [`Client::call_idempotent`]
    /// and [`Client::reconnect_with`]: runs `attempt` (handed its
    /// 0-based number) up to `policy.max_attempts` times, sleeping the
    /// policy's back-off — jitter stream seeded by `seed` — before each
    /// retry. A `NotLeader` refusal follows its redirect; an error
    /// `retryable` accepts rotates to the next cluster member — a dead
    /// one refuses the dial outright; anything else is deterministic,
    /// would only repeat, and surfaces at once.
    fn with_retries<T>(
        &mut self,
        policy: &RetryPolicy,
        seed: u64,
        retryable: fn(&NetError) -> bool,
        mut attempt: impl FnMut(&mut Client, u32) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let attempts = policy.max_attempts.max(1);
        let mut rng = bf_chaos::ChaosRng::new(seed);
        let mut last = None;
        for n in 0..attempts {
            if n > 0 {
                std::thread::sleep(policy.wait(&mut rng, n - 1));
            }
            match attempt(self, n) {
                Ok(done) => return Ok(done),
                Err(NetError::Remote(WireError::NotLeader { leader }))
                    if self.redirect(&leader) =>
                {
                    last = Some(NetError::Remote(WireError::NotLeader { leader }));
                }
                Err(e) if retryable(&e) => {
                    self.advance_member();
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(NetError::RetriesExhausted {
            attempts,
            last: Box::new(last.expect("at least one attempt ran")),
        })
    }

    /// Re-points the next dial at the leader a `NotLeader` refusal
    /// hinted (or, with an empty hint, at the next cluster member).
    /// `false` when there is nowhere else to go — the refusal then
    /// surfaces as-is.
    fn redirect(&mut self, leader: &str) -> bool {
        if let Ok(mut addrs) = leader.to_socket_addrs() {
            if let Some(addr) = addrs.next() {
                self.addr = addr;
                if let Some(i) = self.cluster.iter().position(|&a| a == addr) {
                    self.member = i;
                }
                return true;
            }
        }
        self.advance_member()
    }

    /// Rotates `addr` to the next cluster member (no-op without a
    /// cluster list). `true` when the target actually changed.
    fn advance_member(&mut self) -> bool {
        if self.cluster.len() > 1 {
            self.member = (self.member + 1) % self.cluster.len();
            self.addr = self.cluster[self.member];
            true
        } else {
            false
        }
    }

    /// Submits a batch answered as one correlated reply; compatible
    /// members (e.g. ranges sharing `(policy, data, ε)`) are folded into
    /// shared releases by the server's coalescing window.
    ///
    /// # Errors
    ///
    /// Transport and protocol errors; per-member refusals come back in
    /// the slots.
    pub fn call_batch(
        &mut self,
        analyst: &str,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, WireError>>, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::SubmitBatch {
            id,
            analyst: analyst.to_owned(),
            requests: requests.iter().map(WireRequest::from_request).collect(),
            token: self.tokens.get(analyst).copied(),
        })?;
        match self.recv_for(id)? {
            ServerMessage::BatchAnswer { slots, .. } => Ok(slots
                .into_iter()
                .map(|slot| slot.map(|resp| resp.to_response()))
                .collect()),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected BatchAnswer, got {other:?}"
            ))),
        }
    }

    /// Fetches an analyst's ledger snapshot.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] when the session is unknown or evicted.
    pub fn budget(&mut self, analyst: &str) -> Result<BudgetSnapshot, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Budget {
            id,
            analyst: analyst.to_owned(),
        })?;
        match self.recv_for(id)? {
            ServerMessage::BudgetReport {
                total_bits,
                spent_bits,
                remaining_bits,
                served,
                ..
            } => Ok(BudgetSnapshot {
                total: f64::from_bits(total_bits),
                spent: f64::from_bits(spent_bits),
                remaining: f64::from_bits(remaining_bits),
                served,
            }),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected BudgetReport, got {other:?}"
            ))),
        }
    }

    /// Fetches the serving process's full metrics snapshot — every
    /// counter, gauge and histogram summary across the engine, store,
    /// scheduler and TCP layers, sorted by name. Render it with
    /// `bf_obs::render_prometheus` after converting each sample via
    /// [`WireMetric::to_snapshot`].
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for a typed refusal, transport errors
    /// otherwise.
    pub fn stats(&mut self) -> Result<Vec<WireMetric>, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Stats { id })?;
        match self.recv_for(id)? {
            ServerMessage::StatsReport { metrics, .. } => Ok(metrics),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected StatsReport, got {other:?}"
            ))),
        }
    }

    /// Fetches the serving process's retained trace trees — the
    /// slowest-per-stage exemplars plus the most recent completions the
    /// server's bounded trace buffer holds. Each tree carries the
    /// client-assigned [`bf_obs::TraceId`] from
    /// [`Client::submit_traced`], the analyst, the end-to-end duration
    /// and the per-stage spans (a coalesced release span shares a link
    /// id across every waiter's tree it answered).
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for a typed refusal, transport errors
    /// otherwise.
    pub fn traces(&mut self) -> Result<Vec<TraceTree>, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Traces { id })?;
        match self.recv_for(id)? {
            ServerMessage::TraceReport { traces, .. } => Ok(traces),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected TraceReport, got {other:?}"
            ))),
        }
    }

    /// Fetches a federated scrape of the whole cluster in one call: the
    /// serving node snapshots itself and fans `Stats` probes to every
    /// configured peer over the replication peer port, reporting each
    /// member exactly once — unreachable members included, flagged
    /// rather than silently dropped. Against a standalone server the
    /// report has one member.
    ///
    /// Each member's samples come back with unqualified names; merge
    /// them into one `replica`-labeled series set with
    /// `bf_obs::merge_labeled_snapshots`:
    ///
    /// ```ignore
    /// let merged = bf_obs::merge_labeled_snapshots(
    ///     "replica",
    ///     client
    ///         .cluster_stats()?
    ///         .into_iter()
    ///         .filter(|r| r.reachable)
    ///         .map(|r| (r.node, r.metrics.iter().map(|m| m.to_snapshot()).collect()))
    ///         .collect(),
    /// );
    /// ```
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for a typed refusal, transport errors
    /// otherwise.
    pub fn cluster_stats(&mut self) -> Result<Vec<WireReplicaStats>, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::ClusterStats { id })?;
        match self.recv_for(id)? {
            ServerMessage::ClusterStatsReport { replicas, .. } => Ok(replicas),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected ClusterStatsReport, got {other:?}"
            ))),
        }
    }

    /// Probes the node's health: role, epoch, replication position and
    /// lag (refreshed from live state, not the last stream receipt),
    /// WAL depth, queue depth, unreachable peers and the firing-SLO
    /// list. Served even when reads are refused for staleness — a
    /// lagging replica must still report that it is lagging.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for a typed refusal, transport errors
    /// otherwise.
    pub fn health(&mut self) -> Result<HealthSnapshot, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Health { id })?;
        match self.recv_for(id)? {
            ServerMessage::HealthReport {
                role,
                epoch,
                applied,
                lag,
                wal_segments,
                queue_depth,
                unreachable,
                firing,
                ..
            } => Ok(HealthSnapshot {
                role,
                epoch,
                applied,
                lag,
                wal_segments,
                queue_depth,
                unreachable,
                firing,
            }),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected HealthReport, got {other:?}"
            ))),
        }
    }

    /// Subscribes this connection to the node's live event bus and
    /// returns an iterator-style handle over the pushed
    /// [`bf_obs::ClusterEvent`]s — state transitions only: replication
    /// role/epoch changes and SLO firing/ok flips. The server-side
    /// queue is bounded: a slow consumer sees
    /// gaps in the event sequence numbers, never a stalled server.
    ///
    /// The handle borrows the client exclusively; dedicate a
    /// connection to watching (the subscription lives until the
    /// connection closes). Because each server acceptor owns one
    /// connection at a time, a long-lived watch occupies an acceptor
    /// slot for its whole lifetime — the pool is eight acceptors, so
    /// watchers *plus* serving clients beyond that leave new
    /// connections waiting in the kernel backlog.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn watch(&mut self) -> Result<WatchHandle<'_>, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Watch { id })?;
        Ok(WatchHandle { client: self, id })
    }

    /// Fetches an analyst's full ε-provenance: every `Charged` and
    /// `Replied` ledger record the serving process's WAL holds for them,
    /// archived segments included, in WAL order. Each entry carries the
    /// record's global WAL sequence position, the ε amount, the charge
    /// label and a content-derived fingerprint — enough to audit where
    /// every micro-ε of the budget went and cross-check it against
    /// [`Client::budget`].
    ///
    /// The server only serves this to a connection that attached the
    /// analyst's session — call [`Client::open_session`] (or let
    /// [`Client::reconnect`] reattach) on this client first.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] when this connection never attached the
    /// analyst's session, when the serving process has no durable
    /// store, or when the scan fails; transport errors otherwise.
    pub fn audit(&mut self, analyst: &str) -> Result<Vec<LedgerEntry>, NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::BudgetAudit {
            id,
            analyst: analyst.to_owned(),
            token: self.tokens.get(analyst).copied(),
        })?;
        match self.recv_for(id)? {
            ServerMessage::AuditReport { entries, .. } => Ok(entries),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!(
                "expected AuditReport, got {other:?}"
            ))),
        }
    }

    /// Re-dials after a connection failure, re-runs the handshake, and
    /// reopens every session this client had opened — the
    /// reconnect-and-reattach path. Returns `(analyst, remaining ε)` for
    /// each reattached session. Replies that were in flight at the
    /// failure are gone; ask [`Client::budget`] what was charged before
    /// resubmitting.
    ///
    /// # Errors
    ///
    /// Transport/handshake errors after the default policy's attempts
    /// run out ([`NetError::RetriesExhausted`]); [`NetError::Remote`]
    /// when a session no longer reattaches (e.g. total mismatch).
    pub fn reconnect(&mut self) -> Result<Vec<(String, f64)>, NetError> {
        self.reconnect_with(&RetryPolicy::default())
    }

    /// [`Client::reconnect`] under an explicit policy: dials are
    /// retried with capped exponential backoff and deterministic
    /// jitter until one succeeds or `policy.max_attempts` are spent.
    /// Deterministic refusals — a typed [`NetError::Remote`] on
    /// reattach, a version mismatch — surface immediately; retrying
    /// them would only repeat the refusal.
    ///
    /// # Errors
    ///
    /// As for [`Client::reconnect`].
    pub(crate) fn reconnect_with(
        &mut self,
        policy: &RetryPolicy,
    ) -> Result<Vec<(String, f64)>, NetError> {
        // Reattaching on a follower is refused with NotLeader, which the
        // loop redirects like any other failed attempt.
        let retryable =
            |e: &NetError| !matches!(e, NetError::Remote(_) | NetError::VersionMismatch { .. });
        self.with_retries(policy, policy.seed, retryable, |client, _| {
            client.reconnect_once()
        })
    }

    /// Re-points the client at `addr` — a serving process restarted on
    /// a different port — then reconnects and reattaches as
    /// [`Client::reconnect`] does.
    ///
    /// # Errors
    ///
    /// As for [`Client::reconnect`], plus [`NetError::Protocol`] when
    /// `addr` resolves to nothing.
    pub fn reconnect_to(
        &mut self,
        addr: impl ToSocketAddrs,
    ) -> Result<Vec<(String, f64)>, NetError> {
        self.addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Protocol("address resolved to nothing".into()))?;
        self.reconnect()
    }

    fn reconnect_once(&mut self) -> Result<Vec<(String, f64)>, NetError> {
        self.stream = Self::dial(self.addr)?;
        self.frames.clear();
        self.pending.clear();
        self.ready.clear();
        self.handshake()?;
        let sessions: Vec<(String, u64)> =
            self.sessions.iter().map(|(a, &t)| (a.clone(), t)).collect();
        let mut reattached = Vec::with_capacity(sessions.len());
        for (analyst, total_bits) in sessions {
            let remaining = self.open_session(&analyst, f64::from_bits(total_bits))?;
            reattached.push((analyst, remaining));
        }
        Ok(reattached)
    }

    /// Orderly close: the server drains anything still in flight for
    /// this connection, acknowledges, and the socket shuts down.
    ///
    /// # Errors
    ///
    /// Transport errors; the connection is gone either way.
    pub fn goodbye(mut self) -> Result<(), NetError> {
        let id = self.fresh_id();
        self.send(&ClientMessage::Goodbye { id })?;
        match self.recv_for(id)? {
            ServerMessage::Farewell { .. } => Ok(()),
            other => Err(NetError::Protocol(format!(
                "expected Farewell, got {other:?}"
            ))),
        }
    }
}

/// A live event subscription opened by [`Client::watch`]: pull pushed
/// events off the connection one at a time. Dropping the handle stops
/// *reading*; the server keeps the subscription until the connection
/// closes (stray events buffered meanwhile are discarded harmlessly).
#[derive(Debug)]
pub struct WatchHandle<'a> {
    client: &'a mut Client,
    id: u64,
}

impl WatchHandle<'_> {
    /// Blocks up to `timeout` for the next pushed event. `Ok(None)`
    /// means the window elapsed quietly — poll again. Replies to
    /// requests that were in flight before the watch opened are
    /// buffered for their waiters, not dropped.
    ///
    /// # Errors
    ///
    /// Transport errors ([`NetError::ConnectionLost`] when the server
    /// goes away mid-watch); [`NetError::Protocol`] on an unexpected
    /// frame.
    pub fn next(&mut self, timeout: Duration) -> Result<Option<ClusterEvent>, NetError> {
        let deadline = Instant::now() + timeout;
        let saved = self.client.timeout;
        let outcome = loop {
            // A stray event buffered by an earlier interleaved receive.
            if let Some(msg) = self.client.ready.remove(&self.id) {
                break Self::to_event(msg);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break Ok(None);
            }
            self.client.timeout = Some(remaining);
            match self.client.recv_message() {
                Ok(msg) if msg.id() == self.id => break Self::to_event(msg),
                Ok(msg) if self.client.pending.contains(&msg.id()) => {
                    self.client.ready.insert(msg.id(), msg);
                }
                Ok(msg) => {
                    break Err(NetError::Protocol(format!(
                        "reply for unknown correlation id {}",
                        msg.id()
                    )))
                }
                Err(NetError::TimedOut) => break Ok(None),
                Err(e) => break Err(e),
            }
        };
        self.client.timeout = saved;
        outcome
    }

    fn to_event(msg: ServerMessage) -> Result<Option<ClusterEvent>, NetError> {
        match msg {
            ServerMessage::Event {
                seq,
                kind,
                detail,
                value,
                ..
            } => Ok(Some(ClusterEvent {
                seq,
                kind: kind.into(),
                detail,
                value,
            })),
            ServerMessage::Refused { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol(format!("expected Event, got {other:?}"))),
        }
    }
}
