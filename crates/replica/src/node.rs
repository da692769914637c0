//! The replica node: one process holding the whole serving stack —
//! engine, store, scheduler, net — plus the replication machinery that
//! sequences writes, ships the log, replays it deterministically, and
//! survives leader loss without losing an acked ε.
//!
//! ## Thread anatomy
//!
//! ```text
//!   client port (bf-net acceptors) ──► ReplicaHook::sequence_* ──┐
//!                                                                ▼
//!   peer port   ──► per-follower stream loop ◄── NodeState { log: Log, .. }
//!        ▲                                           │ condvar
//!        │                                           ▼
//!   follower thread (dials the leader)          applier thread
//!        └── appends entries to the WAL ──►     (engine replay, acks)
//! ```
//!
//! The log's rules — stamping, fencing, log matching, the ack clamp, the
//! commit rule, the truncation bound, the applier frontier and eviction —
//! live in one place, the pure [`Log`] (`log.rs`), which holds no lock,
//! store, socket or clock. This file is its shell: the threads, sockets,
//! condvar and fsyncs, calling [`Log`] under the one state mutex; engine
//! execution and socket I/O always happen **outside** that mutex.
//!
//! ## What a thread waits on
//!
//! Nothing here wakes up to look around: the applier, the streamers,
//! [`Replica::promote`] and an idle follower wait on the node condvar,
//! the follower and the ack readers block in `read`, the listener in
//! `accept`. So a state change `notify_all`s under the lock, a role
//! change, halt or shutdown also cuts the follower's uplink (see `WAIT`),
//! and shutdown cuts the handlers' sockets and dials the listener. What
//! an entry costs in fsyncs is in the crate docs ("Quorum acks").

use crate::log::{Log, Receive, Role};
use bf_chaos::{ReplicaFault, ReplicaPlan};
use bf_core::Epsilon;
use bf_engine::{Engine, EngineError};
use bf_net::{
    ClientMessage, NetConfig, NetServer, PeerScrape, ReplicaHealth, ReplicaHook, ServerMessage,
    ServerRole, WireError, WireLogEntry, WireLogOp, WireMetric, PROTOCOL_VERSION,
};
use bf_obs::{ClusterEventKind, Gauge, MetricSnapshot};
use bf_server::{Server, ServerConfig, ServerError, Ticket, TicketResolver};
use bf_store::{frame_into, FrameBuf, FrameRead, Record, Store, StoreError};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

// Every timed wait in this file's non-test code, one reason a line. CI
// holds the list (`ci.yml`, "Replica timer allow-list"): a new timer
// has to argue its way in here first.
//   wait_timeout_while(.., WAIT)    follower_loop: a leader that refused or is not up sends no wake-up
//   thread::sleep(ACCEPT_BACKOFF)   peer_listener_loop: nothing announces that `accept` can succeed again
//   set_read_timeout(Some(DIAL))    peer_conn: a peer that connects and says nothing must not hold a thread
//   set_read_timeout(Some(DIAL))    dial: handshakes and probes of a peer that accepts and says nothing

/// The follower's back-off before re-dialling a leader that refused it
/// or is not up — the one wait here with nothing to be woken by, and a
/// re-point or shutdown still cuts it short. Every other wait is a plain
/// condvar `wait` or a blocking read. That is sound because of one
/// ordering rule: whoever changes what a loop waits on does so **under
/// the state lock, cuts the follower's uplink, then `notify_all`s**
/// ([`Node::halt`], [`Node::cut_uplink`]). Cut after unlocking instead,
/// and a follower woken by the notify has already dialled its new leader
/// and registered that link — which the late cut then shuts.
const WAIT: Duration = Duration::from_millis(25);
/// Connect and read time-out of a peer-link handshake or probe, on both
/// the dialling and the accepting side.
const DIAL: Duration = Duration::from_millis(500);
/// Pause after a failed `accept` (out of descriptors, say).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Configuration for one [`Replica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Engine seed. **Must be identical on every replica** — release
    /// noise is a pure function of `(seed, release identity, ledger
    /// position)`,
    /// and identical seeds plus identical log order is the whole
    /// determinism argument.
    pub seed: u64,
    /// Replicas (leader included) that must hold an entry durable
    /// before the client is acked. `1` acks on local durability alone;
    /// a quorum larger than the cluster never acks (misconfiguration,
    /// not a crash).
    pub quorum: usize,
    /// How many applied entries stay in memory for peer catchup (the WAL
    /// keeps them all; catchup below them is refused). At least 1, and a
    /// leader keeps what a connected follower has not acked.
    pub log_retain: u64,
    /// Deterministic fault injection: the plan's op clock advances once
    /// per **sequenced entry**, and a due [`ReplicaFault::KillLeader`]
    /// kills this node exactly as [`Replica::kill`] would — mid-burst
    /// leader loss at a scripted log index.
    pub fault_plan: Option<Arc<ReplicaPlan>>,
    /// Client-port networking knobs (windows, SLOs). The
    /// `role` field is overwritten: the replica installs itself as
    /// the [`ServerRole::Replica`] hook.
    pub net: NetConfig,
    /// Human-readable node name used as the `replica` label on
    /// federated scrapes and in health reports. Empty means "name me
    /// after my peer address" (resolved at [`Replica::start`]).
    pub name: String,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            seed: 0,
            quorum: 1,
            log_retain: 1024,
            fault_plan: None,
            net: NetConfig::default(),
            name: String::new(),
        }
    }
}

/// Why a replica could not start or stop.
#[derive(Debug)]
pub enum ReplicaError {
    /// The WAL refused to open or append.
    Store(StoreError),
    /// A socket operation failed (peer listener bind, client port).
    Io(std::io::Error),
    /// The durable log section was undecodable or non-contiguous — the
    /// replica must stop rather than guess at history.
    Corrupt(String),
    /// [`Replica::promote_over`] found a surviving peer whose durable
    /// log is ahead of this node's — promote that peer instead, or
    /// quorum-acked entries it alone holds would be dropped.
    Behind {
        /// The peer address holding the longer log.
        peer: String,
        /// That peer's durable high-water mark.
        peer_high_water: u64,
        /// This node's durable high-water mark.
        local_high_water: u64,
    },
    /// The inner server failed to shut down cleanly.
    Server(ServerError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Store(e) => write!(f, "store: {e}"),
            ReplicaError::Io(e) => write!(f, "io: {e}"),
            ReplicaError::Corrupt(msg) => write!(f, "corrupt replica log: {msg}"),
            ReplicaError::Behind {
                peer,
                peer_high_water,
                local_high_water,
            } => write!(
                f,
                "peer {peer} holds a longer durable log ({peer_high_water} > \
                 {local_high_water}); promote that peer instead"
            ),
            ReplicaError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<StoreError> for ReplicaError {
    fn from(e: StoreError) -> Self {
        ReplicaError::Store(e)
    }
}

impl From<std::io::Error> for ReplicaError {
    fn from(e: std::io::Error) -> Self {
        ReplicaError::Io(e)
    }
}

/// A point-in-time snapshot of a replica's replication state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Is this node currently sequencing (the leader)?
    pub leader: bool,
    /// Has this node been killed (fails every request)?
    pub dead: bool,
    /// Current sequencing epoch.
    pub epoch: u64,
    /// Durable log high-water mark (largest index fsync-durable here).
    pub log_index: u64,
    /// Largest index known durable on a quorum.
    pub commit_index: u64,
    /// Largest index executed through the local engine.
    pub applied: u64,
}

/// A client waiting on an entry: resolved by the applier once the entry
/// is committed **and** executed locally. Dropping a waiter reads as
/// [`WireError::ShutDown`] on the client side, which retries elsewhere
/// with the same idempotency key — exactly-once either way.
enum Waiter {
    Submit(TicketResolver),
    Open(mpsc::Sender<Result<f64, WireError>>),
}

/// All mutable replication state, under one lock: the [`Log`] and what
/// the shell keeps beside it.
struct NodeState {
    log: Log,
    /// Client-facing address of the current leader ("" when unknown).
    leader_hint: String,
    /// This node's own client-facing address (set after bind).
    self_hint: String,
    /// The leader's peer address a follower should stream from.
    follow_target: Option<SocketAddr>,
    /// A handle on the link the follower thread is reading, registered
    /// by [`Node::follow_once`]; [`Node::cut_uplink`] ends that read.
    uplink: Option<TcpStream>,
    /// Clients parked on an index.
    waiters: HashMap<u64, Vec<Waiter>>,
    /// Moved on by [`Node::cut_uplink`] at every role change, halt and
    /// shutdown; a follower session belongs to the one it started under.
    generation: u64,
}

/// The WAL record that makes a log entry durable: its op in the bytes the
/// peer link carries it in.
fn logged(entry: &WireLogEntry) -> Record {
    Record::Replicated {
        epoch: entry.epoch,
        index: entry.index,
        analyst: entry.analyst.clone(),
        request_id: entry.request_id,
        payload: entry.op.encode(),
    }
}

/// The shared node: implements [`ReplicaHook`] for the client port and
/// is driven by the applier / streamer / follower threads.
struct Node {
    engine: Arc<Engine>,
    store: Arc<Store>,
    state: Mutex<NodeState>,
    cv: Condvar,
    dead: AtomicBool,
    closing: AtomicBool,
    fault_plan: Option<Arc<ReplicaPlan>>,
    conn_ids: AtomicU64,
    /// Peer-port connection handlers, each with a handle on its socket
    /// so that [`Replica::shutdown`] can end its blocking read.
    handlers: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
    /// The `replica` label this node reports on scrapes and health.
    name: Mutex<String>,
    /// Named peer-port addresses of the other cluster members, for
    /// federated scrape fan-out and health probes (see
    /// [`Replica::set_peers`]).
    peers: Mutex<Vec<(String, SocketAddr)>>,
    g_log_index: Gauge,
    g_cluster_lag: Gauge,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Node(..)")
    }
}

impl Node {
    /// Rebuilds replication state from the store's durable log section:
    /// the WAL's execution mark and its pending entries ([`Log::new`]).
    fn recover(
        engine: Arc<Engine>,
        store: Arc<Store>,
        cfg: &ReplicaConfig,
    ) -> Result<Node, ReplicaError> {
        // A replica's sessions are opened by log entries, not by whoever
        // is connected: a leader whose clients never saw this node
        // restart keeps shipping writes for them. So recovered sessions
        // go live at once — parked, every such write would refuse here
        // with `SessionEvicted` and this ledger fall behind its peers'.
        for analyst in engine.parked_analysts() {
            let reattached = engine
                .parked_session(&analyst)
                .and_then(|parked| Epsilon::new(parked.total).ok())
                .map(|total| engine.attach_session(&analyst, total));
            if !matches!(reattached, Some(Ok(_))) {
                return Err(ReplicaError::Corrupt(format!(
                    "recovered session {analyst:?} does not reattach: {reattached:?}"
                )));
            }
        }
        let snap = store.current_state();
        let mut log = Vec::with_capacity(snap.log_pending.len());
        for (expect, (&index, pending)) in (snap.log_applied + 1..).zip(snap.log_pending.iter()) {
            if index != expect {
                return Err(ReplicaError::Corrupt(format!(
                    "pending log skips from {} to {index}",
                    expect - 1
                )));
            }
            let op = WireLogOp::decode(&pending.payload).ok_or_else(|| {
                ReplicaError::Corrupt(format!("undecodable log payload at index {index}"))
            })?;
            log.push(WireLogEntry {
                epoch: pending.epoch,
                index,
                analyst: pending.analyst.clone(),
                request_id: pending.request_id,
                op,
            });
        }
        let obs = Arc::clone(engine.obs());
        let log = Log::new(
            snap.log_applied,
            snap.log_epoch,
            log,
            cfg.quorum,
            cfg.log_retain,
        );
        Ok(Node {
            engine,
            store,
            state: Mutex::new(NodeState {
                log,
                leader_hint: String::new(),
                self_hint: String::new(),
                follow_target: None,
                uplink: None,
                waiters: HashMap::new(),
                generation: 0,
            }),
            cv: Condvar::new(),
            dead: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            fault_plan: cfg.fault_plan.clone(),
            conn_ids: AtomicU64::new(1),
            handlers: Mutex::new(Vec::new()),
            name: Mutex::new(cfg.name.clone()),
            peers: Mutex::new(Vec::new()),
            g_log_index: obs.gauge("replica_log_index"),
            g_cluster_lag: obs.gauge("replica_cluster_lag_entries"),
        })
    }

    /// Sets the log-index gauge from the live log. Every reader of it
    /// calls this first — the local scrape, the peer-port `Stats` reply —
    /// so it never serves a value from the last role change.
    fn refresh_gauges(&self) {
        let durable = self.state.lock().unwrap().log.durable;
        self.g_log_index.set(durable as f64);
    }

    /// Announces a role transition on the cluster event bus:
    /// `detail = "{role}@{epoch}"`, `value = epoch`.
    fn publish_role(&self, role: &str, epoch: u64) {
        self.engine
            .obs()
            .bus()
            .publish(ClusterEventKind::Role, &format!("{role}@{epoch}"), epoch);
    }

    /// Retires the placement the long-lived loops were started under:
    /// moves the generation on and ends the follower thread's read of
    /// its current link, if it has one. Callers hold the state lock and
    /// notify afterwards — see [`WAIT`] for why in that order.
    fn cut_uplink(&self, st: &mut NodeState) {
        st.generation += 1;
        if let Some(link) = st.uplink.take() {
            let _ = link.shutdown(std::net::Shutdown::Both);
        }
    }

    /// The one way this node is marked dead: under the state lock, with
    /// the uplink cut and every condvar waiter woken, so no loop is left
    /// waiting on a flag nobody announced.
    fn halt(&self, st: &mut NodeState) {
        self.dead.store(true, Ordering::SeqCst);
        self.cut_uplink(st);
        self.cv.notify_all();
    }

    /// Runs the commit rule ([`Log::commit`]) unless the node is dead,
    /// waking the applier and streamers when it moves. Called by its path
    /// so that a method-call `commit` in this file is always the store's.
    fn recompute_commit(&self, st: &mut NodeState) {
        if !self.dead.load(Ordering::SeqCst) && Log::commit(&mut st.log) {
            self.cv.notify_all();
        }
    }

    /// Fences `seen_epoch` ([`Log::step_down`]). A deposed leader's
    /// waiters past the commit point are dropped (clients see `ShutDown`
    /// and retry at the new leader under the same idempotency key).
    fn fence(&self, st: &mut NodeState, seen_epoch: u64) {
        if st.log.step_down(seen_epoch) {
            st.leader_hint = String::new();
            st.follow_target = None;
            let commit = st.log.commit_index;
            st.waiters.retain(|&i, _| i <= commit);
            self.cut_uplink(st);
            self.publish_role("follower", seen_epoch);
        }
        self.cv.notify_all();
    }

    /// Carries out what [`Log::receive`] or [`Log::diverged`] decided: a
    /// durable [`Record::LogTruncated`] first (dropped entries' waiters
    /// read `ShutDown` and retry), then the append. `None` ends the link,
    /// the node halted if the log or the store said so.
    fn take<'a>(
        &'a self,
        mut st: MutexGuard<'a, NodeState>,
        step: Receive,
    ) -> Option<MutexGuard<'a, NodeState>> {
        let (truncate, entries) = match step {
            Receive::Drop => return None,
            Receive::Halt => {
                self.halt(&mut st);
                return None;
            }
            Receive::Append { truncate, entries } => (truncate, entries),
        };
        if let Some(keep) = truncate {
            if self
                .store
                .commit(&[Record::LogTruncated { index: keep }])
                .is_err()
            {
                self.halt(&mut st);
                return None;
            }
            st.log.truncate(keep);
            st.waiters.retain(|&i, _| i <= keep);
        }
        self.cv.notify_all();
        self.append(st, entries).ok()
    }

    /// Sequences one operation: stamp `(epoch, index)`, park the waiter,
    /// append the entry, and let the quorum rule ack it.
    fn sequence(
        &self,
        analyst: &str,
        request_id: Option<u64>,
        op: WireLogOp,
        waiter: Waiter,
    ) -> Result<(), WireError> {
        let mut st = self.state.lock().unwrap();
        if self.dead.load(Ordering::SeqCst) || self.closing.load(Ordering::SeqCst) {
            let leader = String::new();
            return Err(WireError::NotLeader { leader });
        }
        if st.log.role != Role::Leader {
            let leader = st.leader_hint.clone();
            return Err(WireError::NotLeader { leader });
        }
        if let Some(plan) = &self.fault_plan {
            if matches!(plan.next(), Some(ReplicaFault::KillLeader)) {
                drop(st);
                self.kill();
                return Err(WireError::NotLeader {
                    leader: String::new(),
                });
            }
        }
        let entry = st.log.stamp(analyst, request_id, op);
        st.waiters.entry(entry.index).or_default().push(waiter);
        self.append(st, vec![entry])
            .map(drop)
            .map_err(|e| WireError::Other(format!("log append failed: {e}")))
    }

    /// Appends `entries`, the leader's one or a follower's frame. Their
    /// records are staged under the lock, so the WAL is in log order and
    /// concurrent appends share one fsync, and the log — the shippers'
    /// source — takes them at once. Returns the lock, `durable` raised,
    /// once the fsync is in; or the store's error, the node halted.
    fn append<'a>(
        &'a self,
        mut st: MutexGuard<'a, NodeState>,
        entries: Vec<WireLogEntry>,
    ) -> Result<MutexGuard<'a, NodeState>, StoreError> {
        let Some(index) = entries.last().map(|e| e.index) else {
            return Ok(st);
        };
        let records: Vec<Record> = entries.iter().map(logged).collect();
        let mut synced = self.store.stage(&records);
        if synced.is_ok() {
            st.log.append(entries);
            self.cv.notify_all();
            drop(st);
            synced = self.store.commit(&[]);
            st = self.state.lock().unwrap();
        }
        if let Err(e) = synced {
            self.halt(&mut st);
            return Err(e);
        }
        st.log.synced(index);
        self.recompute_commit(&mut st);
        self.cv.notify_all();
        Ok(st)
    }

    /// Kills the node: every future write refuses `NotLeader`, every
    /// read refuses `ShutDown`, parked clients are cut loose. The
    /// process (and its WAL) stays — this models a fenced, deposed
    /// process, and tests restart from the same directory.
    fn kill(&self) {
        let mut st = self.state.lock().unwrap();
        self.halt(&mut st);
        st.waiters.clear();
        self.publish_role("dead", st.log.epoch);
    }

    // -----------------------------------------------------------------
    // The applier: executes committed entries through the engine
    // -----------------------------------------------------------------

    fn applier_loop(self: &Arc<Node>) {
        let mut st = self.state.lock().unwrap();
        loop {
            if self.closing.load(Ordering::SeqCst) {
                return;
            }
            if self.dead.load(Ordering::SeqCst) {
                st.waiters.clear();
                st = self.cv.wait(st).unwrap();
                continue;
            }
            if st.log.applied >= st.log.frontier() {
                st = self.cv.wait(st).unwrap();
                continue;
            }
            let next = st.log.applied + 1;
            let entry = match st.log.entry_at(next) {
                Some(e) => e.clone(),
                // Applied entries are only evicted past `applied`, so a
                // miss here means recovery handed us a hole; stop.
                None => {
                    self.halt(&mut st);
                    continue;
                }
            };
            let waiters = st.waiters.remove(&next).unwrap_or_default();
            drop(st);

            // Engine execution and the answers happen outside the state
            // lock. Waiters are answered only after `mark_applied`: a
            // client holding an answer finds it already counted in
            // `applied` and in the store's state (whose digest covers
            // the charge and the mark), durable or not.
            match &entry.op {
                WireLogOp::OpenSession { total_bits } => {
                    let outcome = Epsilon::new(f64::from_bits(*total_bits))
                        .map_err(|e| EngineError::InvalidRequest(e.to_string()))
                        .and_then(|eps| self.engine.attach_session(&entry.analyst, eps))
                        .map_err(|e| WireError::from_engine_error(&e));
                    self.mark_applied(next);
                    for w in waiters {
                        if let Waiter::Open(tx) = w {
                            let _ = tx.send(outcome.clone());
                        }
                    }
                }
                WireLogOp::Submit { request } => {
                    let outcome = request
                        .to_request()
                        .map_err(|e| {
                            ServerError::Engine(EngineError::InvalidRequest(e.to_string()))
                        })
                        .and_then(|req| {
                            self.engine
                                .apply_tagged(&entry.analyst, entry.request_id, &req)
                                .map_err(ServerError::Engine)
                        });
                    self.mark_applied(next);
                    for w in waiters {
                        if let Waiter::Submit(resolver) = w {
                            resolver.resolve(outcome.clone());
                        }
                    }
                }
            }
            st = self.state.lock().unwrap();
        }
    }

    /// The execution mark, *staged*: counted in `applied` and in the
    /// store's state (and its digest) before any waiter is answered, and
    /// durable with whatever this store commits next — the next entry's
    /// `Replicated`, a session open, a compaction — not with an fsync of
    /// its own. So is the entry's `Replied` / `Charged` frame, staged
    /// just before it by [`Engine::apply_tagged`]. A crash before then
    /// recovers `applied` short of `index`, and the applier runs those
    /// entries again. That is sound because the entry's input is durable
    /// and WAL loss is always a suffix: the charge precedes the mark, and
    /// the mark precedes whatever later entries book. An entry whose
    /// `Replied` survived replays from the reply cache at zero ε; one
    /// whose charge was lost, or that booked nothing (a replay, a
    /// refusal), runs against the very ledger it first ran against,
    /// because nothing after its lost frames survived either — the same
    /// ledger position, so the same noise, bytes and charge.
    fn mark_applied(&self, index: u64) {
        let staged = self.store.stage(&[Record::LogApplied { index }]);
        let mut st = self.state.lock().unwrap();
        if staged.is_err() {
            self.halt(&mut st);
        }
        st.log.mark_applied(index);
        self.cv.notify_all();
    }

    // -----------------------------------------------------------------
    // Peer port: the leader side of log shipping
    // -----------------------------------------------------------------

    /// Blocking accept; [`Replica::shutdown`] wakes it with a loopback
    /// connection of its own.
    fn peer_listener_loop(self: &Arc<Node>, listener: TcpListener) {
        loop {
            let accepted = listener.accept();
            if self.closing.load(Ordering::SeqCst) {
                return;
            }
            let Ok((stream, sock)) = accepted.and_then(|(s, _)| Ok((s.try_clone()?, s))) else {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            };
            let node = Arc::clone(self);
            let handle = std::thread::spawn(move || {
                let mut stream = stream;
                node.peer_conn(&mut stream);
                // The registered clone keeps the descriptor; end the
                // connection for the peer now.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
            let mut handlers = self.handlers.lock().unwrap();
            handlers.retain(|(_, h)| !h.is_finished());
            handlers.push((sock, handle));
        }
    }

    /// One peer-port connection: handshake, then a probe, a scrape or a
    /// follower's subscription.
    fn peer_conn(&self, stream: &mut TcpStream) {
        let _ = stream.set_nodelay(true);
        // One time-out bounds each handshake read: a peer that connects
        // and says nothing is dropped, not waited on.
        let _ = stream.set_read_timeout(Some(DIAL));
        let mut buf = FrameBuf::new();
        let mut out = Vec::new();

        // Handshake: peers always speak the current protocol.
        match read_frame(stream, &mut buf, ClientMessage::decode) {
            Some(ClientMessage::Hello {
                id,
                version: PROTOCOL_VERSION,
            }) => {
                let welcome = ServerMessage::Welcome {
                    id,
                    version: PROTOCOL_VERSION,
                };
                let _ = write_frame(stream, &mut out, |o| welcome.encode_into(o));
            }
            Some(ClientMessage::Hello { id, .. }) => {
                let error =
                    WireError::Protocol("replica peers must speak the current protocol".into());
                let _ = write_frame(stream, &mut out, |o| refused(id, error).encode_into(o));
                return;
            }
            _ => return,
        }

        // A killed node models a crashed process: it answers nothing useful.
        let dead = self.dead.load(Ordering::SeqCst);
        let reply = match read_frame(stream, &mut buf, ClientMessage::decode) {
            Some(ClientMessage::PeerStatus { id } | ClientMessage::Stats { id }) if dead => {
                refused(id, WireError::ShutDown)
            }
            // Read-only probe: the pre-promotion longest-log check.
            Some(ClientMessage::PeerStatus { id }) => {
                let log = &self.state.lock().unwrap().log;
                let (epoch, high_water, applied) = (log.epoch, log.durable, log.applied);
                ServerMessage::PeerStatusReport {
                    id,
                    epoch,
                    high_water,
                    applied,
                }
            }
            // Peer-port scrape, fanned out by a federated `ClusterStats`.
            Some(ClientMessage::Stats { id }) => {
                self.refresh_gauges();
                let snapshot = self.engine.metrics_snapshot();
                let metrics = snapshot.iter().map(WireMetric::from_snapshot).collect();
                ServerMessage::StatsReport { id, metrics }
            }
            Some(ClientMessage::LogCatchup {
                id,
                epoch,
                from_index,
                last_epoch,
            }) => {
                let conn_id = self.conn_ids.fetch_add(1, Ordering::SeqCst);
                let mut guard = self.state.lock().unwrap();
                self.fence(&mut guard, epoch);
                let st = &mut *guard;
                let leader = st.leader_hint.clone();
                let subscribed = match self.dead.load(Ordering::SeqCst) {
                    true => Err(WireError::NotLeader { leader }),
                    false => st.log.subscribe(conn_id, from_index, last_epoch, &leader),
                };
                match subscribed {
                    Ok(_) => {
                        self.recompute_commit(st);
                        drop(guard);
                        return self.stream_log(stream, buf, out, id, from_index, conn_id);
                    }
                    Err(error) => refused(id, error),
                }
            }
            _ => return,
        };
        let _ = write_frame(stream, &mut out, |o| reply.encode_into(o));
    }

    /// A subscribed follower's link: its acks get a blocking reader of
    /// their own on a clone of the socket, and the streamer waits on the
    /// condvar — nothing polls — until either side closes or this node
    /// stops leading.
    fn stream_log(
        &self,
        stream: &mut TcpStream,
        mut buf: FrameBuf,
        mut out: Vec<u8>,
        corr: u64,
        send_next: u64,
        conn_id: u64,
    ) {
        let _ = stream.set_read_timeout(None);
        let acks_ended = AtomicBool::new(false);
        if let Ok(mut ack_stream) = stream.try_clone() {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    self.ack_loop(&mut ack_stream, &mut buf, conn_id);
                    acks_ended.store(true, Ordering::SeqCst);
                    // Under the lock, so the streamer is either yet to
                    // check the flag or already waiting.
                    let _st = self.state.lock().unwrap();
                    self.cv.notify_all();
                });
                self.ship_loop(stream, &mut out, corr, send_next, &acks_ended);
                // Wakes the ack reader out of its blocking read.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
        }
        let mut st = self.state.lock().unwrap();
        st.log.follower_acks.remove(&conn_id);
    }

    /// The per-follower streamer: ships every entry from `send_next` on,
    /// and every commit advance, as the node condvar announces it.
    /// Returns when this node stops leading, dies or closes, the
    /// follower's acks end, or a write fails.
    fn ship_loop(
        &self,
        stream: &mut TcpStream,
        out: &mut Vec<u8>,
        corr: u64,
        mut send_next: u64,
        acks_ended: &AtomicBool,
    ) {
        let mut last_commit_sent = u64::MAX;
        loop {
            // Snapshot the batch under the lock; ship it outside.
            let (entries, epoch, commit) = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if self.closing.load(Ordering::SeqCst)
                        || self.dead.load(Ordering::SeqCst)
                        || acks_ended.load(Ordering::SeqCst)
                        || st.log.role != Role::Leader
                    {
                        return;
                    }
                    let log = &st.log;
                    if log.high_water() >= send_next || log.commit_index != last_commit_sent {
                        break;
                    }
                    st = self.cv.wait(st).unwrap();
                }
                let log = &st.log;
                (log.batch(send_next), log.epoch, log.commit_index)
            };
            let n = entries.len() as u64;
            let frame = ServerMessage::Replicate {
                id: corr,
                epoch,
                commit_index: commit,
                entries,
            };
            if write_frame(stream, out, |o| frame.encode_into(o)).is_err() {
                return;
            }
            send_next += n;
            last_commit_sent = commit;
        }
    }

    /// Feeds the follower's cumulative acks (blocking reads) into the
    /// commit rule, which notifies the applier and streamers. Returns on
    /// EOF, any other frame, or a fencing epoch.
    fn ack_loop(&self, stream: &mut TcpStream, buf: &mut FrameBuf, conn_id: u64) {
        while let Some(ClientMessage::ReplicateAck { epoch, index, .. }) =
            read_frame(stream, buf, ClientMessage::decode)
        {
            let mut st = self.state.lock().unwrap();
            if !st.log.ack(conn_id, epoch, index) {
                self.fence(&mut st, epoch);
                return;
            }
            self.recompute_commit(&mut st);
        }
    }

    // -----------------------------------------------------------------
    // Follower side: dial the leader, mirror the log
    // -----------------------------------------------------------------

    /// Waits on the node condvar for a leader to follow, then mirrors it
    /// one session after another for as long as that placement stands.
    fn follower_loop(&self) {
        let mut st = self.state.lock().unwrap();
        while !self.closing.load(Ordering::SeqCst) {
            let target = st
                .follow_target
                .filter(|_| !self.dead.load(Ordering::SeqCst));
            let Some(target) = target else {
                st = self.cv.wait(st).unwrap();
                continue;
            };
            let generation = st.generation;
            drop(st);
            self.follow_once(target, generation);
            // The session is over. If the placement still stands, the
            // leader refused us, went away or is not up yet, and nothing
            // will say when that changes: back off, then dial again.
            st = self.state.lock().unwrap();
            st = self
                .cv
                .wait_timeout_while(st, WAIT, |st| st.generation == generation)
                .unwrap()
                .0;
        }
    }

    /// One session against the leader at `target`, under the placement
    /// `generation` names. The link is registered as the node's uplink
    /// before its first byte, and only while that placement stands — so
    /// whatever retires the placement finds the link and cuts it.
    fn follow_once(&self, target: SocketAddr, generation: u64) {
        let Some((mut stream, link)) = dial(target).and_then(|s| Some((s.try_clone().ok()?, s)))
        else {
            return;
        };
        let catchup = {
            let mut st = self.state.lock().unwrap();
            // The catchup claims the log durable, and no truncation may
            // overtake an append: a deposed leader's appends finish first.
            while st.log.durable < st.log.high_water() && st.generation == generation {
                st = self.cv.wait(st).unwrap();
            }
            if st.generation != generation {
                return;
            }
            st.uplink = Some(link);
            ClientMessage::LogCatchup {
                id: 2,
                epoch: st.log.epoch,
                from_index: st.log.high_water() + 1,
                last_epoch: st.log.last_epoch,
            }
        };
        let _ = self.mirror(&mut stream, &catchup, generation);
        // Still this session's, unless a cut took it first.
        self.state.lock().unwrap().uplink = None;
    }

    /// The body of a follower session: subscribe with `catchup`, then
    /// append and acknowledge what the leader ships until the link ends
    /// (`None`) — by the leader's doing, a frame this node cannot take,
    /// or [`Node::cut_uplink`].
    fn mirror(
        &self,
        stream: &mut TcpStream,
        catchup: &ClientMessage,
        generation: u64,
    ) -> Option<()> {
        let mut buf = FrameBuf::new();
        let mut out = Vec::new();
        greet(stream, &mut buf, &mut out, catchup)?;
        // Past the handshake nothing is timed: the read below returns
        // with a frame or with the end of the link.
        let _ = stream.set_read_timeout(None);
        loop {
            let frame = read_frame(stream, &mut buf, ServerMessage::decode)?;
            let mut st = self.state.lock().unwrap();
            // A frame read before a cut is not this session's to act on.
            if st.generation != generation {
                return None;
            }
            let step = match frame {
                ServerMessage::Replicate {
                    epoch,
                    commit_index,
                    entries,
                    ..
                } => st.log.receive(epoch, commit_index, entries),
                // An orphan suffix: cut it, and resubscribe from there.
                ServerMessage::Refused {
                    error: WireError::LogDiverged { leader_high_water },
                    ..
                } => {
                    let step = st.log.diverged(leader_high_water);
                    let _ = self.take(st, step);
                    return None;
                }
                _ => return None,
            };
            // What the frame adds is appended in one fsync, which the ack
            // then vouches for.
            st = self.take(st, step)?;
            let (epoch, index) = (st.log.epoch, st.log.durable);
            drop(st);
            let ack = ClientMessage::ReplicateAck {
                id: 0,
                epoch,
                index,
            };
            write_frame(stream, &mut out, |o| ack.encode_into(o)).ok()?;
        }
    }

    /// Asks the peer at `addr` for its `(epoch, high_water, applied)`.
    /// `None` means unreachable, dead, or not speaking the protocol —
    /// [`Replica::promote_over`] treats all three as "not a survivor".
    fn probe_peer(&self, addr: SocketAddr) -> Option<(u64, u64, u64)> {
        match ask_peer(addr, &ClientMessage::PeerStatus { id: 2 })? {
            ServerMessage::PeerStatusReport {
                epoch,
                high_water,
                applied,
                ..
            } => Some((epoch, high_water, applied)),
            _ => None,
        }
    }

    /// Pulls the full metric snapshot off the peer at `addr` (its
    /// replication peer port). `None` means unreachable or dead — the
    /// federated scrape reports the member as such instead of failing
    /// the whole fan-out.
    fn scrape_peer(&self, addr: SocketAddr) -> Option<Vec<MetricSnapshot>> {
        match ask_peer(addr, &ClientMessage::Stats { id: 2 })? {
            ServerMessage::StatsReport { metrics, .. } => {
                Some(metrics.iter().map(WireMetric::to_snapshot).collect())
            }
            _ => None,
        }
    }
}

/// Connects to the peer port at `addr`. Connect and reads are bounded by
/// [`DIAL`]; a caller that goes on to stream lifts the read time-out.
fn dial(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, DIAL).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(DIAL));
    Some(stream)
}

/// What every dialled link opens with: `Hello`, the peer's `Welcome`,
/// then the `request` the link is for.
fn greet(
    stream: &mut TcpStream,
    buf: &mut FrameBuf,
    out: &mut Vec<u8>,
    request: &ClientMessage,
) -> Option<()> {
    let hello = ClientMessage::Hello {
        id: 1,
        version: PROTOCOL_VERSION,
    };
    write_frame(stream, out, |o| hello.encode_into(o)).ok()?;
    match read_frame(stream, buf, ServerMessage::decode)? {
        ServerMessage::Welcome {
            version: PROTOCOL_VERSION,
            ..
        } => write_frame(stream, out, |o| request.encode_into(o)).ok(),
        _ => None,
    }
}

/// One request and its reply on a link of their own.
fn ask_peer(addr: SocketAddr, request: &ClientMessage) -> Option<ServerMessage> {
    let mut stream = dial(addr)?;
    let mut buf = FrameBuf::new();
    greet(&mut stream, &mut buf, &mut Vec::new(), request)?;
    read_frame(&mut stream, &mut buf, ServerMessage::decode)
}

/// Reads one frame off a peer link, blocking until it is whole. The
/// link's end, its read time-out if it has one, and a corrupt or
/// undecodable frame all read as `None`.
fn read_frame<M>(
    stream: &mut TcpStream,
    buf: &mut FrameBuf,
    decode: fn(&[u8]) -> Option<M>,
) -> Option<M> {
    loop {
        match buf.next_frame() {
            FrameRead::Complete { payload, .. } => return decode(payload),
            FrameRead::Corrupt => return None,
            FrameRead::Incomplete => {}
        }
        if buf.fill(stream).ok()? == 0 {
            return None;
        }
    }
}

impl ReplicaHook for Node {
    fn sequence_submit(
        &self,
        analyst: &str,
        request_id: Option<u64>,
        request: bf_engine::Request,
    ) -> Result<Ticket, WireError> {
        let (resolver, ticket) = Ticket::pair();
        self.sequence(
            analyst,
            request_id,
            WireLogOp::Submit {
                request: bf_net::proto::WireRequest::from_request(&request),
            },
            Waiter::Submit(resolver),
        )?;
        Ok(ticket)
    }

    fn sequence_open(&self, analyst: &str, total_bits: u64) -> Result<f64, WireError> {
        // Validate before burning a log slot on garbage.
        Epsilon::new(f64::from_bits(total_bits)).map_err(|e| {
            WireError::from_engine_error(&EngineError::InvalidRequest(e.to_string()))
        })?;
        let (tx, rx) = mpsc::channel();
        self.sequence(
            analyst,
            None,
            WireLogOp::OpenSession { total_bits },
            Waiter::Open(tx),
        )?;
        rx.recv().map_err(|_| WireError::ShutDown)?
    }

    fn refuse_read(&self) -> Option<WireError> {
        self.dead
            .load(Ordering::SeqCst)
            .then_some(WireError::ShutDown)
    }

    fn refresh_observability(&self) {
        self.refresh_gauges();
    }

    fn node_name(&self) -> String {
        self.name.lock().unwrap().clone()
    }

    fn scrape_peers(&self) -> Vec<PeerScrape> {
        let peers = self.peers.lock().unwrap().clone();
        peers
            .into_iter()
            .map(|(node, addr)| {
                let metrics = self.scrape_peer(addr);
                PeerScrape {
                    node,
                    reachable: metrics.is_some(),
                    metrics: metrics.unwrap_or_default(),
                }
            })
            .collect()
    }

    fn health(&self) -> Option<ReplicaHealth> {
        let (role, epoch, applied, high_water, mut lag) = {
            let log = &self.state.lock().unwrap().log;
            let role = if self.dead.load(Ordering::SeqCst) {
                "dead"
            } else if log.role == Role::Leader {
                "leader"
            } else {
                "follower"
            };
            (
                role.to_string(),
                log.epoch,
                log.applied,
                log.durable,
                log.commit_index.saturating_sub(log.applied),
            )
        };
        self.g_log_index.set(high_water as f64);
        // Probe the fleet *outside* the state lock: cluster lag is the
        // worst distance any member (this one included) sits behind
        // the durable high-water mark. An unreachable peer counts as
        // maximally behind — it can confirm nothing.
        let peers = self.peers.lock().unwrap().clone();
        let mut unreachable = Vec::new();
        for (node, addr) in peers {
            match self.probe_peer(addr) {
                Some((_, _, peer_applied)) => {
                    lag = lag.max(high_water.saturating_sub(peer_applied));
                }
                None => {
                    lag = lag.max(high_water);
                    unreachable.push(node);
                }
            }
        }
        self.g_cluster_lag.set(lag as f64);
        Some(ReplicaHealth {
            role,
            epoch,
            applied,
            lag,
            unreachable,
        })
    }
}

/// The refusal a peer-port request is answered with.
fn refused(id: u64, error: WireError) -> ServerMessage {
    ServerMessage::Refused {
        id,
        error,
        trace_id: None,
    }
}

/// Sends one frame, `encode`d in place in `out` — the connection's send
/// buffer, reused from frame to frame.
fn write_frame(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    out.clear();
    frame_into(out, encode);
    stream.write_all(out)
}

/// One replica process: WAL + engine + scheduler + client port + peer
/// port + the replication threads. See the crate docs for the model.
#[derive(Debug)]
pub struct Replica {
    node: Arc<Node>,
    net: NetServer,
    peer_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Replica {
    /// Opens (or recovers) the WAL at `dir`, builds the deterministic
    /// engine on it, runs `setup` to register policies and datasets —
    /// **`setup` must be identical on every replica**, exactly like the
    /// seed — and starts serving: the client port at `client_addr`, the
    /// replication peer port at `peer_addr` (port 0 picks free ports).
    ///
    /// A fresh replica starts as a follower with no stream target:
    /// call [`Replica::lead`] or [`Replica::follow`] to place it.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Store`] when the WAL refuses to open,
    /// [`ReplicaError::Corrupt`] when its log section is undecodable,
    /// [`ReplicaError::Io`] when either port cannot bind.
    pub fn start(
        dir: impl Into<PathBuf>,
        client_addr: impl ToSocketAddrs,
        peer_addr: impl ToSocketAddrs,
        cfg: ReplicaConfig,
        setup: impl FnOnce(&Engine),
    ) -> Result<Replica, ReplicaError> {
        Self::start_on(
            Arc::new(Store::open(dir)?),
            client_addr,
            peer_addr,
            cfg,
            setup,
        )
    }

    /// [`Replica::start`] on a store the caller opened (with a fault
    /// plan, say), failing as that does once the store is open.
    pub fn start_on(
        store: Arc<Store>,
        client_addr: impl ToSocketAddrs,
        peer_addr: impl ToSocketAddrs,
        cfg: ReplicaConfig,
        setup: impl FnOnce(&Engine),
    ) -> Result<Replica, ReplicaError> {
        let engine = Arc::new(Engine::with_store(cfg.seed, Arc::clone(&store)));
        setup(&engine);
        let node = Arc::new(Node::recover(engine, store, &cfg)?);

        let peer_listener = TcpListener::bind(peer_addr)?;
        let peer_addr = peer_listener.local_addr()?;

        let server = Arc::new(Server::new(
            Arc::clone(&node.engine),
            ServerConfig::default(),
        ));
        let net = NetServer::bind(
            client_addr,
            server,
            NetConfig {
                role: ServerRole::Replica(Arc::clone(&node) as Arc<dyn ReplicaHook>),
                ..cfg.net
            },
        )?;
        node.state.lock().unwrap().self_hint = net.local_addr().to_string();
        {
            // An unnamed node labels its scrapes after the peer port —
            // unique per cluster member by construction.
            let mut name = node.name.lock().unwrap();
            if name.is_empty() {
                *name = peer_addr.to_string();
            }
        }

        let mut threads = Vec::new();
        let applier = Arc::clone(&node);
        threads.push(std::thread::spawn(move || applier.applier_loop()));
        let follower = Arc::clone(&node);
        threads.push(std::thread::spawn(move || follower.follower_loop()));
        let listener_node = Arc::clone(&node);
        threads.push(std::thread::spawn(move || {
            listener_node.peer_listener_loop(peer_listener)
        }));

        Ok(Replica {
            node,
            net,
            peer_addr,
            threads,
        })
    }

    /// The client-facing address (full `bf-net` protocol).
    pub fn client_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// The replica-to-replica log-shipping address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// The local engine (read-side introspection; tests compare ledgers
    /// across replicas through it).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.node.engine
    }

    /// Makes this replica the leader of a **fresh** cluster (epoch
    /// unchanged). For taking over from a dead leader use
    /// `Replica::promote`, which fences the old epoch.
    pub fn lead(&self) {
        let mut st = self.node.state.lock().unwrap();
        st.log.lead();
        st.leader_hint = st.self_hint.clone();
        st.follow_target = None;
        self.node.cut_uplink(&mut st);
        self.node.publish_role("leader", st.log.epoch);
        self.node.recompute_commit(&mut st);
        self.node.cv.notify_all();
    }

    /// Registers the other cluster members' replication peer ports,
    /// each under the `replica` label it scrapes as. Feeds the
    /// federated [`bf_net::Client::cluster_stats`] fan-out and the
    /// health probe's reachability / cluster-lag computation. Replaces
    /// any previous peer set (idempotent; call again after membership
    /// changes).
    pub fn set_peers(&self, peers: &[(String, SocketAddr)]) {
        *self.node.peers.lock().unwrap() = peers.to_vec();
    }

    /// Makes this replica a follower streaming from `leader_peer`,
    /// redirecting write clients to `leader_hint` (the leader's
    /// client-facing address).
    pub fn follow(&self, leader_peer: SocketAddr, leader_hint: &str) {
        let mut st = self.node.state.lock().unwrap();
        st.log.follow();
        st.follow_target = Some(leader_peer);
        st.leader_hint = leader_hint.to_string();
        self.node.cut_uplink(&mut st);
        self.node.publish_role("follower", st.log.epoch);
        self.node.cv.notify_all();
    }

    /// Promotes this follower to leader **unconditionally**: stop
    /// streaming, bump the epoch (fencing every message from the old
    /// one), commit and finish replaying every durable log entry, then
    /// start sequencing. Blocks until replay completes, so a client
    /// redirected here immediately sees every charge the old leader
    /// acked — the ε-lossless failover guarantee.
    ///
    /// That guarantee holds only if this node's durable log is the
    /// longest among the survivors: a quorum-acked entry lives on
    /// `quorum - 1` followers, so *some* survivor holds it, but nothing
    /// here checks that it is this one. Use [`Replica::promote_over`],
    /// which probes the surviving peers first, unless outside knowledge
    /// already picked the longest log. Promote exactly one node per
    /// failover — two promotions to the same epoch fork the sequence.
    /// Survivors with an orphan suffix reconcile when they re-follow (see
    /// the crate docs, "Divergence reconciliation").
    pub(crate) fn promote(&self) {
        let mut st = self.node.state.lock().unwrap();
        st.log.promote();
        st.follow_target = None;
        self.node.cut_uplink(&mut st);
        self.node.cv.notify_all();
        while st.log.applied < st.log.commit_index
            && !self.node.closing.load(Ordering::SeqCst)
            && !self.node.dead.load(Ordering::SeqCst)
        {
            st = self.node.cv.wait(st).unwrap();
        }
        st.log.lead();
        st.leader_hint = st.self_hint.clone();
        self.node.publish_role("leader", st.log.epoch);
        self.node.cv.notify_all();
    }

    /// `Replica::promote`, guarded: probes every address in `peers`
    /// (their replication peer ports) with [`ClientMessage::PeerStatus`]
    /// and only promotes if no reachable survivor holds a longer
    /// durable log. Unreachable or dead peers are skipped — they are
    /// the failure being failed over.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Behind`] names the first peer whose log is ahead
    /// of this node's; promote that peer instead (this node is left
    /// untouched, still a follower).
    pub fn promote_over(&self, peers: &[SocketAddr]) -> Result<(), ReplicaError> {
        let local = self.node.state.lock().unwrap().log.durable;
        for &peer in peers {
            if let Some((_, high_water, _)) = self.node.probe_peer(peer) {
                if high_water > local {
                    return Err(ReplicaError::Behind {
                        peer: peer.to_string(),
                        peer_high_water: high_water,
                        local_high_water: local,
                    });
                }
            }
        }
        self.promote();
        Ok(())
    }

    /// Kills the node (see [`ReplicaHook`] refusals) without tearing the
    /// process down — the chaos path. Parked clients read `ShutDown`.
    pub fn kill(&self) {
        self.node.kill();
    }

    /// A snapshot of the replication state.
    pub fn status(&self) -> ReplicaStatus {
        let log = &self.node.state.lock().unwrap().log;
        let dead = self.node.dead.load(Ordering::SeqCst);
        ReplicaStatus {
            leader: log.role == Role::Leader && !dead,
            dead,
            epoch: log.epoch,
            log_index: log.durable,
            commit_index: log.commit_index,
            applied: log.applied,
        }
    }

    /// Stops every thread, closes both ports, and returns once the
    /// node is fully quiesced.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Server`] when the inner server's drain fails.
    pub fn shutdown(self) -> Result<(), ReplicaError> {
        self.node.closing.store(true, Ordering::SeqCst);
        {
            // The lock orders the flag against every check-then-wait.
            // Parked clients read `ShutDown`: the applier that would
            // have answered them is about to be joined.
            let mut st = self.node.state.lock().unwrap();
            st.waiters.clear();
            self.node.cut_uplink(&mut st);
            self.node.cv.notify_all();
        }
        bf_net::wake_acceptor(self.peer_addr);
        for t in self.threads {
            let _ = t.join();
        }
        // The listener is joined, so this is every handler there will be.
        let handlers = std::mem::take(&mut *self.node.handlers.lock().unwrap());
        for (sock, h) in handlers {
            let _ = sock.shutdown(std::net::Shutdown::Both);
            let _ = h.join();
        }
        self.net.shutdown().map_err(ReplicaError::Server)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::BATCH;
    use bf_core::Policy;
    use bf_domain::{Dataset, Domain};
    use bf_engine::Request;
    use bf_net::proto::RESERVED_REQUEST_ID_BASE;
    use bf_net::Client;
    use bf_store::scratch_dir;
    use std::path::Path;
    use std::time::Instant;

    /// How often the deadline loops below look at a status again.
    const POLL: Duration = Duration::from_millis(2);

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn setup(engine: &Engine) {
        let domain = Domain::line(32).unwrap();
        engine
            .register_policy("pol", Policy::distance_threshold(domain.clone(), 2))
            .unwrap();
        let rows: Vec<usize> = (0..320).map(|i| (i * 11) % 32).collect();
        engine
            .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
            .unwrap();
    }

    fn replica(tag: &str, cfg: ReplicaConfig) -> Replica {
        start_at(&scratch_dir(tag), cfg)
    }

    /// A replica on the WAL directory `dir`, fresh or recovered.
    fn start_at(dir: &Path, cfg: ReplicaConfig) -> Replica {
        Replica::start(dir, "127.0.0.1:0", "127.0.0.1:0", cfg, setup).unwrap()
    }

    /// `[lo, hi]` on the fixture's dataset, at `e`.
    fn range(e: f64, lo: usize, hi: usize) -> Request {
        Request::range("pol", "ds", eps(e), lo, hi)
    }

    /// Submit under an explicit idempotency key and wait for the answer.
    fn call_tagged(
        client: &mut Client,
        analyst: &str,
        rid: u64,
        request: &Request,
    ) -> Result<bf_engine::Response, bf_net::NetError> {
        let id = client.submit_tagged(analyst, request, Some(rid), None)?;
        client.wait(id)
    }

    /// Builds the divergence scenario every reconciliation test needs:
    /// `a` led entries 1–2 onto `b` and `c`, died, and `b` kept an
    /// orphan entry 3 from the dead epoch that `a` never committed.
    /// Returns the cluster with `c` already promoted to epoch 1.
    fn diverged_cluster(tag: &str) -> (Replica, Replica, Replica, PathBuf) {
        let cfg = || ReplicaConfig {
            seed: 26,
            ..ReplicaConfig::default()
        };
        let a = replica(&format!("{tag}-a"), cfg());
        let b_dir = scratch_dir(&format!("{tag}-b"));
        let b = start_at(&b_dir, cfg());
        let c = replica(&format!("{tag}-c"), cfg());
        a.lead();
        let hint = a.client_addr().to_string();
        b.follow(a.peer_addr(), &hint);
        c.follow(a.peer_addr(), &hint);
        let mut client = Client::connect(a.client_addr()).unwrap();
        client.open_session("g", 4.0).unwrap();
        call_tagged(&mut client, "g", 11, &range(0.5, 0, 8)).unwrap();
        drain_to(&b, 2);
        drain_to(&c, 2);
        a.kill();

        // The orphan: `a` logged entry 3 and shipped it to `b` alone,
        // then died before any commit. Injected directly (durably and
        // in memory), exactly as `follow_once` would have left it.
        let orphan = WireLogEntry {
            epoch: 0,
            index: 3,
            analyst: "ghost".into(),
            request_id: RESERVED_REQUEST_ID_BASE | 3,
            op: WireLogOp::OpenSession {
                total_bits: 1.0f64.to_bits(),
            },
        };
        b.node.store.commit(&[logged(&orphan)]).unwrap();
        {
            let log = &mut b.node.state.lock().unwrap().log;
            log.append(vec![orphan]);
            log.synced(3);
        }
        assert_eq!(b.status().log_index, 3);

        c.promote();
        assert_eq!(c.status().epoch, 1);
        (a, b, c, b_dir)
    }

    #[test]
    fn diverged_follower_truncates_the_orphan_suffix_and_reconverges() {
        let (a, b, c, b_dir) = diverged_cluster("replica-div");
        // The new leader already sequenced its own entry 3 before `b`
        // resubscribes: the catchup log-matching check (same length,
        // different last epoch) must catch the conflict.
        let mut client = Client::connect(c.client_addr()).unwrap();
        client.open_session("h", 1.0).unwrap(); // entry 3, epoch 1
        assert_eq!(c.status().log_index, 3);

        b.follow(c.peer_addr(), &c.client_addr().to_string());
        drain_to(&b, 3);
        let status = b.status();
        assert!(!status.dead, "reconciliation must not kill the node");
        assert_eq!(status.applied, 3);
        assert_eq!(status.log_index, 3);
        {
            let log = &b.node.state.lock().unwrap().log;
            assert_eq!(
                log.entry_at(3).unwrap().epoch,
                1,
                "the orphan gave way to the leader's entry"
            );
            assert_eq!(log.last_epoch, 1);
        }
        // The orphan's ghost session never executed; the real one did.
        assert!(b.engine().session_snapshot("ghost").is_err());
        assert!(b.engine().session_snapshot("h").is_ok());
        b.shutdown().unwrap();

        // Truncation is durable (`Record::LogTruncated` in the WAL): a
        // restart recovers the reconciled log, not the orphan.
        let b2 = start_at(
            &b_dir,
            ReplicaConfig {
                seed: 26,
                ..ReplicaConfig::default()
            },
        );
        let status = b2.status();
        assert_eq!(status.log_index, 3);
        assert_eq!(status.applied, 3);
        // Recovered sessions are live at once: "g" comes back with its
        // charge, and the ghost never existed at all (an attach with a
        // total its orphan OpenSession never carried succeeds as a
        // fresh create instead of refusing).
        assert!((b2.engine().attach_session("g", eps(4.0)).unwrap() - 3.5).abs() < 1e-12);
        assert!((b2.engine().attach_session("ghost", eps(9.0)).unwrap() - 9.0).abs() < 1e-12);
        b2.shutdown().unwrap();
        c.shutdown().unwrap();
        a.shutdown().unwrap();
    }

    #[test]
    fn applied_entries_are_evicted_but_serving_and_recovery_survive() {
        let dir = scratch_dir("replica-evict");
        let cfg = || ReplicaConfig {
            seed: 28,
            log_retain: 1,
            ..ReplicaConfig::default()
        };
        {
            let r = start_at(&dir, cfg());
            r.lead();
            let mut client = Client::connect(r.client_addr()).unwrap();
            client.open_session("j", 8.0).unwrap(); // entry 1
            for i in 0..6 {
                call_tagged(&mut client, "j", 200 + i, &range(0.25, 0, 16)).unwrap();
                // entries 2..=7
            }
            drain_to(&r, 7);
            {
                let log = &r.node.state.lock().unwrap().log;
                assert_eq!(log.applied, 7);
                assert_eq!(log.high_water(), 7, "eviction never moves the high water");
                assert_eq!(log.log_start, 7, "entries below applied - retain are gone");
                assert_eq!(log.entries.len(), 1);
            }
            // Serving continues across the evicted prefix, and the
            // reply cache (WAL-backed, not log-backed) still dedups.
            let first = call_tagged(&mut client, "j", 200, &range(0.25, 0, 16)).unwrap();
            assert!(first.scalar().unwrap().is_finite());
            r.shutdown().unwrap();
        }
        // Recovery rebuilds from the WAL, which eviction never touched.
        let r = start_at(&dir, cfg());
        let status = r.status();
        assert_eq!(status.applied, 8);
        assert_eq!(status.log_index, 8);
        // 6 distinct charges of 0.25; the cache-hit resubmission was
        // free — reattaching lands on the recovered ledger.
        assert!((r.engine().attach_session("j", eps(8.0)).unwrap() - 6.5).abs() < 1e-12);
        r.shutdown().unwrap();
    }

    /// A scripted leader's end of one follower link: the test sends the
    /// `Replicate` frames it wants and reads the acks they earn.
    struct Link {
        stream: TcpStream,
        buf: FrameBuf,
        out: Vec<u8>,
        /// Where the follower's `LogCatchup` subscribed from.
        from_index: u64,
    }

    impl Link {
        /// Accepts the follower's next dial and answers its handshake.
        fn accept(listener: &TcpListener) -> Link {
            let (stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut link = Link {
                stream,
                buf: FrameBuf::new(),
                out: Vec::new(),
                from_index: 0,
            };
            let Some(ClientMessage::Hello { id, .. }) = link.read() else {
                panic!("a follower link opens with Hello");
            };
            let welcome = ServerMessage::Welcome {
                id,
                version: PROTOCOL_VERSION,
            };
            write_frame(&mut link.stream, &mut link.out, |o| welcome.encode_into(o)).unwrap();
            let Some(ClientMessage::LogCatchup { from_index, .. }) = link.read() else {
                panic!("a follower subscribes with LogCatchup");
            };
            link.from_index = from_index;
            link
        }

        fn read(&mut self) -> Option<ClientMessage> {
            loop {
                match self.buf.next_frame() {
                    FrameRead::Complete { payload, .. } => return ClientMessage::decode(payload),
                    FrameRead::Corrupt => return None,
                    FrameRead::Incomplete => {}
                }
                if self.buf.fill(&mut self.stream).ok()? == 0 {
                    return None;
                }
            }
        }

        /// Ships entries `(index, epoch)` in one frame, each opening a
        /// session `n{index}`.
        fn ship(&mut self, epoch: u64, commit_index: u64, entries: &[(u64, u64)]) {
            let entries = entries
                .iter()
                .map(|&(index, epoch)| WireLogEntry {
                    epoch,
                    index,
                    analyst: format!("n{index}"),
                    request_id: RESERVED_REQUEST_ID_BASE | index,
                    op: WireLogOp::OpenSession {
                        total_bits: 1.0f64.to_bits(),
                    },
                })
                .collect();
            let frame = ServerMessage::Replicate {
                id: 2,
                epoch,
                commit_index,
                entries,
            };
            write_frame(&mut self.stream, &mut self.out, |o| frame.encode_into(o)).unwrap();
        }

        /// The next cumulative ack's index; `None` once the follower has
        /// dropped the link.
        fn ack(&mut self) -> Option<u64> {
            match self.read()? {
                ClientMessage::ReplicateAck { index, .. } => Some(index),
                other => panic!("expected an ack, got {other:?}"),
            }
        }
    }

    /// A follower dialling a scripted leader, linked and subscribed.
    fn scripted_follower(tag: &str) -> (Replica, TcpListener, Link) {
        script_leader_for(replica(tag, ReplicaConfig::default()))
    }

    fn script_leader_for(follower: Replica) -> (Replica, TcpListener, Link) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        follower.follow(listener.local_addr().unwrap(), "scripted");
        let link = Link::accept(&listener);
        (follower, listener, link)
    }

    fn syncs(r: &Replica) -> u64 {
        r.node.store.stats().syncs
    }

    /// Copies a live node's WAL directory — what a crash at this instant
    /// would leave on disk (the `LOCK` file is the dead process's).
    fn crash_image(r: &Replica, tag: &str) -> PathBuf {
        let image = scratch_dir(tag);
        for entry in std::fs::read_dir(r.node.store.dir()).unwrap() {
            let entry = entry.unwrap();
            if entry.file_name() != "LOCK" {
                std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
            }
        }
        image
    }

    #[test]
    fn a_replicate_frame_is_appended_in_one_sync_and_acked_once() {
        let (follower, _listener, mut link) = scripted_follower("replica-batch-one");
        assert_eq!(link.from_index, 1);
        let before = syncs(&follower);
        let frame: Vec<(u64, u64)> = (1..=BATCH as u64).map(|i| (i, 0)).collect();
        link.ship(0, 0, &frame);
        // One ack, at the frame's high water, after one fsync.
        assert_eq!(link.ack(), Some(BATCH as u64));
        assert_eq!(syncs(&follower), before + 1);
        assert_eq!(follower.status().log_index, BATCH as u64);
        assert_eq!(follower.status().applied, 0, "nothing committed yet");

        // A frame whose first entries the log already holds: those are
        // skipped, the rest appended — again one fsync, one ack.
        link.ship(0, 0, &[(63, 0), (64, 0), (65, 0), (66, 0)]);
        assert_eq!(link.ack(), Some(66));
        assert_eq!(syncs(&follower), before + 2);
        // A pure resend appends nothing and syncs nothing.
        link.ship(0, 0, &[(65, 0), (66, 0)]);
        assert_eq!(link.ack(), Some(66));
        assert_eq!(syncs(&follower), before + 2);
        assert_eq!(follower.node.store.current_state().log_pending.len(), 66);
        follower.shutdown().unwrap();
    }

    #[test]
    fn a_frame_diverging_midway_truncates_then_appends_the_rest() {
        let (follower, _listener, mut link) = scripted_follower("replica-batch-div");
        link.ship(0, 0, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        assert_eq!(link.ack(), Some(4));
        let before = syncs(&follower);
        // Epoch 1's leader holds 1–3 as we do, and its own 4–6.
        link.ship(1, 0, &[(3, 0), (4, 1), (5, 1), (6, 1)]);
        assert_eq!(link.ack(), Some(6));
        // The truncation is one commit, the three fresh entries another.
        assert_eq!(syncs(&follower), before + 2);
        let pending = follower.node.store.current_state().log_pending;
        let epochs: Vec<u64> = pending.values().map(|e| e.epoch).collect();
        assert_eq!(epochs, [0, 0, 0, 1, 1, 1]);
        {
            let log = &follower.node.state.lock().unwrap().log;
            assert_eq!(log.high_water(), 6);
            assert_eq!(log.last_epoch, 1);
            assert_eq!(log.entry_at(4).unwrap().epoch, 1);
        }
        // Having seen epoch 1, it takes nothing more from epoch 0.
        link.ship(0, 0, &[(7, 0)]);
        assert_eq!(link.ack(), None, "the stale leader's link is dropped");
        assert_eq!(follower.status().log_index, 6);
        assert_eq!(syncs(&follower), before + 2);
        assert!(!follower.status().dead);
        follower.shutdown().unwrap();
    }

    /// A `LogDiverged` refusal read before a promote and handled after it
    /// belongs to the retired session: it neither halts the new leader
    /// nor truncates the suffix its promote just committed.
    #[test]
    fn a_divergence_refusal_read_before_a_promote_is_dropped() {
        let (follower, _listener, mut link) = scripted_follower("replica-stale-refusal");
        link.ship(0, 1, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(link.ack(), Some(3));
        drain_to(&follower, 1);
        {
            let mut st = follower.node.state.lock().unwrap();
            let refused = ServerMessage::Refused {
                id: 2,
                error: WireError::LogDiverged {
                    leader_high_water: 1,
                },
                trace_id: None,
            };
            write_frame(&mut link.stream, &mut link.out, |o| refused.encode_into(o)).unwrap();
            // What `promote` does under the lock, bar the socket cut, so
            // the refusal is read whenever it lands; it is handled only
            // after the lock is released, under the bumped generation.
            st.log.promote();
            st.follow_target = None;
            st.generation += 1;
        }
        assert_eq!(link.ack(), None, "the stale session ends");
        assert!(!follower.status().dead);
        assert_eq!(follower.node.state.lock().unwrap().log.high_water(), 3);
        follower.shutdown().unwrap();
    }

    /// Parks on the node condvar the way `promote`, the applier and the
    /// streamers do — a plain `wait`, no heartbeat — until the node is
    /// dead. The first message says it is parked (sent under the lock a
    /// halt needs, so the halt comes after the `wait` began); the second,
    /// that the halt's notify reached it. A flag set without a notify
    /// leaves it parked for ever.
    fn parked_until_dead(r: &Replica) -> mpsc::Receiver<()> {
        let node = Arc::clone(&r.node);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut st = node.state.lock().unwrap();
            tx.send(()).unwrap();
            while !node.dead.load(Ordering::SeqCst) {
                st = node.cv.wait(st).unwrap();
            }
            tx.send(()).unwrap();
        });
        rx.recv().unwrap();
        rx
    }

    fn assert_woken(parked: &mpsc::Receiver<()>) {
        parked
            .recv_timeout(Duration::from_secs(5))
            .expect("the halt notified nobody");
    }

    /// A scripted follower on a store that fails its `nth` write after
    /// start-up's own — counted on a dry run, start-up being
    /// deterministic.
    fn scripted_follower_failing_at(
        tag: &str,
        nth: u64,
        fault: bf_chaos::StoreFault,
    ) -> (Replica, TcpListener, Link) {
        use bf_chaos::StorePlan;
        let start = |tag: &str, plan: StorePlan| {
            let plan = Arc::new(plan);
            let config = bf_store::StoreConfig {
                fault_plan: Some(Arc::clone(&plan)),
                ..bf_store::StoreConfig::default()
            };
            let store = Arc::new(Store::open_with(scratch_dir(tag), config).unwrap());
            let cfg = ReplicaConfig::default();
            let r = Replica::start_on(store, "127.0.0.1:0", "127.0.0.1:0", cfg, setup).unwrap();
            (r, plan)
        };
        let (dry, idle) = start(&format!("{tag}-dry"), StorePlan::none());
        let startup = idle.ops();
        dry.shutdown().unwrap();
        script_leader_for(start(tag, StorePlan::scripted([(startup + nth, fault)])).0)
    }

    /// Halt site: a frame that would cut below the commit point.
    #[test]
    fn a_halt_by_truncation_wakes_what_is_parked_on_the_condvar() {
        let (follower, _listener, mut link) = scripted_follower("replica-halt-trunc");
        link.ship(0, 2, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(link.ack(), Some(3));
        drain_to(&follower, 2);
        let parked = parked_until_dead(&follower);
        // Entry 2 is quorum-durable; a leader that contradicts it was
        // promoted over a stale log. Nothing of its frame is appended.
        let before = syncs(&follower);
        link.ship(1, 2, &[(2, 1), (3, 1), (4, 1)]);
        assert_woken(&parked);
        assert_eq!(link.ack(), None, "the halt cut the uplink");
        assert!(follower.status().dead);
        assert_eq!(follower.status().log_index, 3);
        assert_eq!(syncs(&follower), before);
        assert_eq!(follower.node.store.current_state().log_index, 3);
        follower.shutdown().unwrap();
    }

    /// Halt site: the follower's append fails.
    #[test]
    fn a_halt_by_a_failed_follower_append_wakes_what_is_parked() {
        let (follower, _listener, mut link) =
            scripted_follower_failing_at("replica-halt-append", 1, bf_chaos::StoreFault::FailWrite);
        let parked = parked_until_dead(&follower);
        link.ship(0, 0, &[(1, 0), (2, 0)]);
        assert_woken(&parked);
        assert_eq!(link.ack(), None, "nothing durable, nothing acked");
        assert!(follower.status().dead);
        assert_eq!(follower.status().log_index, 0);
        // Every thread joins; the drain reports the poisoned store.
        assert!(matches!(follower.shutdown(), Err(ReplicaError::Server(_))));
    }

    /// Halt site: `mark_applied` cannot stage its mark — the store was
    /// poisoned by the failed commit of the entry's own session open —
    /// while `promote` is parked on the replay that will now never
    /// finish.
    #[test]
    fn a_halt_by_a_failed_stage_returns_a_parked_promote() {
        let (follower, _listener, mut link) =
            scripted_follower_failing_at("replica-halt-stage", 2, bf_chaos::StoreFault::FailSync);
        link.ship(0, 0, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(link.ack(), Some(3));
        let parked = parked_until_dead(&follower);
        follower.promote(); // returns: a hang here is the failure
        assert_woken(&parked);
        let status = follower.status();
        assert!(status.dead && !status.leader);
        assert!(status.applied < 3, "replay stopped at the fault");
        assert!(matches!(follower.shutdown(), Err(ReplicaError::Server(_))));
    }

    /// A connection to the peer port that never sends `Hello` is dropped
    /// after one handshake time-out, leaves no handler thread behind, and
    /// one still inside that time-out does not hold `shutdown` up.
    #[test]
    fn a_silent_peer_is_dropped_holds_no_thread_and_delays_no_shutdown() {
        use std::io::Read;
        let r = replica("replica-silent", ReplicaConfig::default());
        r.lead();
        let mut silent = TcpStream::connect(r.peer_addr()).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let read = silent.read(&mut [0u8; 1]);
        assert!(matches!(read, Ok(0)), "still connected after 1 s: {read:?}");
        let deadline = Instant::now() + Duration::from_secs(1);
        let running = || {
            let handlers = r.node.handlers.lock().unwrap();
            handlers.iter().filter(|(_, h)| !h.is_finished()).count()
        };
        while running() > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
        assert_eq!(running(), 0, "the silent peer still holds a thread");

        let _mid_handshake = TcpStream::connect(r.peer_addr()).unwrap();
        let started = Instant::now();
        r.shutdown().unwrap();
        assert!(
            started.elapsed() < DIAL / 2,
            "shutdown waited {:?} on a silent peer",
            started.elapsed()
        );
    }

    /// The write's ticket resolves after the entry's one sync, its
    /// append: the applier stages the charge and the mark, which are in
    /// the store's state before the answer and on disk after the node's
    /// next commit.
    #[test]
    fn a_replicated_write_is_acknowledged_after_its_one_sync() {
        let store = slow_store("replica-ack-order", 100_000);
        let r = Replica::start_on(
            Arc::clone(&store),
            "127.0.0.1:0",
            "127.0.0.1:0",
            ReplicaConfig::default(),
            setup,
        )
        .unwrap();
        r.lead();
        let mut client = Client::connect(r.client_addr()).unwrap();
        client.open_session("k", 2.0).unwrap();
        let before = store.stats();

        // Returns once the entry's own append is durable …
        let request = range(0.5, 0, 8);
        let ticket = r
            .node
            .sequence_submit("k", Some(9), request.clone())
            .unwrap();
        assert_eq!(store.stats().syncs, before.syncs + 1);
        // … and the answer waits on nothing more.
        let answer = ticket.wait().unwrap();
        let after = store.stats();
        assert_eq!(after.syncs, before.syncs + 1, "one sync for the entry");
        assert_eq!(
            after.commits,
            before.commits + 1,
            "the applier commits nothing"
        );
        // The charge, its answer and the mark were counted first.
        assert_eq!(r.status().applied, 2);
        let live = store.current_state();
        assert_eq!(live.log_applied, 2);
        assert_eq!(live.sessions["k"].spent, 0.5);
        assert_eq!(
            live.cached_reply("k", 9).unwrap().payload,
            answer.to_bytes()
        );
        let image = |tag| {
            Store::open(crash_image(&r, tag))
                .unwrap()
                .recovered_state()
                .clone()
        };
        let staged = image("replica-ack-order-a");
        assert_eq!((staged.log_applied, staged.sessions["k"].spent), (1, 0.0));
        assert!(staged.cached_reply("k", 9).is_none());

        // The next commit — here the next entry's append — writes both.
        let next = r.node.sequence_submit("k", Some(10), request).unwrap();
        next.wait().unwrap();
        let written = image("replica-ack-order-b");
        assert_eq!((written.log_applied, written.sessions["k"].spent), (2, 0.5));
        assert_eq!(
            written.cached_reply("k", 9).unwrap().payload,
            answer.to_bytes()
        );
        client.goodbye().unwrap();
        r.shutdown().unwrap();
    }

    /// A store whose every fsync first sleeps `micros`.
    fn slow_store(tag: &str, micros: u64) -> Arc<Store> {
        use bf_chaos::{StoreFault, StorePlan};
        let slow = StorePlan::every_kth(1, StoreFault::DelaySyncMicros(micros));
        let config = bf_store::StoreConfig {
            fault_plan: Some(Arc::new(slow)),
            ..bf_store::StoreConfig::default()
        };
        Arc::new(Store::open_with(scratch_dir(tag), config).unwrap())
    }

    /// Starts a named 3-replica cluster (alpha leading, beta and gamma
    /// following) with the leader's peer list registered, optionally
    /// with SLOs on the leader's client port.
    fn named_trio(tag: &str, seed: u64, slos: Vec<bf_obs::SloSpec>) -> (Replica, Replica, Replica) {
        let cfg = |name: &str, slos: Vec<bf_obs::SloSpec>| ReplicaConfig {
            seed,
            quorum: 2,
            name: name.into(),
            net: NetConfig {
                slos,
                ..NetConfig::default()
            },
            ..ReplicaConfig::default()
        };
        let leader = replica(&format!("{tag}-alpha"), cfg("alpha", slos));
        let beta = replica(&format!("{tag}-beta"), cfg("beta", Vec::new()));
        let gamma = replica(&format!("{tag}-gamma"), cfg("gamma", Vec::new()));
        leader.lead();
        let hint = leader.client_addr().to_string();
        beta.follow(leader.peer_addr(), &hint);
        gamma.follow(leader.peer_addr(), &hint);
        leader.set_peers(&[
            ("beta".into(), beta.peer_addr()),
            ("gamma".into(), gamma.peer_addr()),
        ]);
        (leader, beta, gamma)
    }

    fn drain_to(r: &Replica, applied: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.status().applied < applied && Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
        assert_eq!(r.status().applied, applied, "replay never drained");
    }

    #[test]
    fn federated_scrape_covers_every_replica_exactly_once() {
        let (leader, beta, gamma) = named_trio("replica-scrape", 31, Vec::new());
        let mut client = Client::connect(leader.client_addr()).unwrap();
        client.open_session("s", 4.0).unwrap();
        call_tagged(&mut client, "s", 11, &range(0.5, 0, 8)).unwrap();
        drain_to(&beta, 2);
        drain_to(&gamma, 2);
        // A follower refuses writes, naming the leader.
        match Client::connect(beta.client_addr())
            .unwrap()
            .open_session("c", 1.0)
        {
            Err(bf_net::NetError::Remote(WireError::NotLeader { leader: hint })) => {
                assert_eq!(hint, leader.client_addr().to_string())
            }
            other => panic!("expected NotLeader, got {other:?}"),
        }

        let replicas = client.cluster_stats().unwrap();
        let mut names: Vec<&str> = replicas.iter().map(|r| r.node.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["alpha", "beta", "gamma"],
            "each member exactly once"
        );
        for rep in &replicas {
            assert!(rep.reachable, "{} must be reachable", rep.node);
            assert!(
                rep.metrics.iter().any(|m| m.name() == "replica_log_index"),
                "{} scrape must carry replication gauges",
                rep.node
            );
        }
        // Peer scrapes refresh at source: every member reports the
        // same durable position, not a stale gauge from its last role
        // change.
        for rep in &replicas {
            let log_index = rep
                .metrics
                .iter()
                .find_map(|m| match m {
                    bf_net::WireMetric::Gauge { name, bits } if name == "replica_log_index" => {
                        Some(f64::from_bits(*bits))
                    }
                    _ => None,
                })
                .unwrap();
            assert_eq!(log_index, 2.0, "{} reports a stale log index", rep.node);
        }
        client.goodbye().unwrap();
        gamma.shutdown().unwrap();
        beta.shutdown().unwrap();
        leader.shutdown().unwrap();
    }

    #[test]
    fn follower_kill_flips_health_fires_slo_and_streams_the_event() {
        let slos = vec![bf_obs::SloSpec {
            name: "cluster-lag".into(),
            objective: bf_obs::SloObjective::ReplicationLagUnder {
                metric: "replica_cluster_lag_entries".into(),
                max_entries: 1.0,
            },
        }];
        let (leader, beta, gamma) = named_trio("replica-kill-health", 32, slos);
        let mut client = Client::connect(leader.client_addr()).unwrap();
        client.open_session("k", 4.0).unwrap();
        for i in 0..3 {
            call_tagged(&mut client, "k", 20 + i, &range(0.25, 0, 8)).unwrap();
        }
        drain_to(&beta, 4);
        drain_to(&gamma, 4);

        // Healthy fleet: leader role, nobody unreachable, SLO quiet.
        let health = client.health().unwrap();
        assert_eq!(health.role, "leader");
        assert_eq!(health.epoch, 0);
        assert_eq!(health.applied, 4);
        assert_eq!(health.lag, 0);
        assert!(health.unreachable.is_empty());
        assert!(health.firing.is_empty());

        // Subscribe *before* the failure so the transition is pushed —
        // and see a first event, which is what proves the server has
        // registered the watch (a kill and a probe can beat the frame).
        let mut watcher = Client::connect(leader.client_addr()).unwrap();
        let mut watch = watcher.watch().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "the watch never went live");
            let bus = leader.engine().obs().bus();
            bus.publish(bf_obs::ClusterEventKind::Role, "watch is live", 0);
            if watch.next(Duration::from_millis(20)).unwrap().is_some() {
                break;
            }
        }

        gamma.kill();

        // The next health probe sees the dead follower: unreachable,
        // counted as maximally lagged, and the lag SLO fires.
        let health = client.health().unwrap();
        assert_eq!(health.unreachable, vec!["gamma".to_string()]);
        assert_eq!(health.lag, 4, "a dead peer confirms nothing");
        assert_eq!(health.firing, vec!["cluster-lag".to_string()]);

        // The firing transition reached the open watch as an event.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut fired = None;
        while fired.is_none() && Instant::now() < deadline {
            match watch.next(Duration::from_millis(100)).unwrap() {
                Some(ev) if ev.kind == bf_obs::ClusterEventKind::Slo => fired = Some(ev),
                Some(_) | None => {}
            }
        }
        let ev = fired.expect("slo transition never reached the watcher");
        assert_eq!(ev.detail, "cluster-lag");
        assert_eq!(ev.value, 1, "value 1 encodes firing=true");

        // The federated scrape now reports the member as unreachable —
        // still exactly once.
        let replicas = client.cluster_stats().unwrap();
        assert_eq!(replicas.len(), 3);
        let dead = replicas.iter().find(|r| r.node == "gamma").unwrap();
        assert!(!dead.reachable);
        assert!(dead.metrics.is_empty());
        assert!(replicas
            .iter()
            .filter(|r| r.node != "gamma")
            .all(|r| r.reachable));

        client.goodbye().unwrap();
        gamma.shutdown().unwrap();
        beta.shutdown().unwrap();
        leader.shutdown().unwrap();
    }

    /// Cluster-plane traffic (scrapes, health probes, SLO evaluation, a
    /// live watch) is a side channel: same-seed clusters with and without
    /// it end with byte-identical ledgers and cached answers.
    #[test]
    fn observability_plane_never_perturbs_the_noise_sequence() {
        let run = |tag: &str, plane: bool| {
            let lag = bf_obs::SloSpec {
                name: "lag".into(),
                objective: bf_obs::SloObjective::ReplicationLagUnder {
                    metric: "replica_cluster_lag_entries".into(),
                    max_entries: 1000.0,
                },
            };
            let (leader, beta, gamma) =
                named_trio(tag, 33, plane.then_some(lag).into_iter().collect());
            let mut client = Client::connect(leader.client_addr()).unwrap();
            let mut watcher = Client::connect(leader.client_addr()).unwrap();
            let mut watch = plane.then(|| watcher.watch().unwrap());
            client.open_session("d", 8.0).unwrap();
            for i in 0..6 {
                if let Some(w) = watch.as_mut() {
                    let _ = w.next(Duration::from_millis(1));
                }
                call_tagged(&mut client, "d", 50 + i as u64, &range(0.25, i, 8 + i)).unwrap();
                if plane {
                    client.cluster_stats().unwrap();
                    client.health().unwrap();
                }
            }
            drain_to(&beta, 7);
            drain_to(&gamma, 7);
            let ledger = |r: &Replica| -> Vec<(String, u64)> {
                let history = r.engine().ledger_history("d").unwrap();
                history.into_iter().map(|e| (e.label, e.eps_bits)).collect()
            };
            assert_eq!(ledger(&leader), ledger(&beta), "a follower diverged");
            let replies: Vec<_> = (50..56)
                .map(|rid| leader.engine().cached_reply("d", rid))
                .collect();
            let seen = (ledger(&leader), replies);
            client.goodbye().unwrap();
            for r in [gamma, beta, leader] {
                r.shutdown().unwrap();
            }
            seen
        };
        assert_eq!(
            run("replica-plane-off", false),
            run("replica-plane-on", true)
        );
    }
}
