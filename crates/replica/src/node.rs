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
//!   peer port   ──► per-follower stream loop ◄── NodeState {log, commit}
//!        ▲                                           │ condvar
//!        │                                           ▼
//!   follower thread (dials the leader)          applier thread
//!        └── appends entries to the WAL ──►     (engine replay, acks)
//! ```
//!
//! Every mutation of the shared [`NodeState`] happens under one mutex;
//! engine execution and socket I/O always happen **outside** it.
//!
//! ## What a thread waits on
//!
//! Nothing here wakes up to look around. The applier, the streamers,
//! [`Replica::promote`] and a follower between sessions wait on the
//! node condvar; the follower and the ack readers block in `read`; the
//! listener blocks in `accept`. So every change they care about has to
//! reach them: state changes `notify_all` under the lock, a role change,
//! halt or shutdown also cuts the follower's uplink (`Node::cut_uplink`,
//! before the notify — see `WAIT`), and shutdown cuts the handlers'
//! sockets and dials the listener. The timed waits that remain — one
//! re-dial back-off, the handshake read time-outs — are listed above
//! `WAIT`, and CI holds that list.
//!
//! ## What an entry costs in fsyncs
//!
//! One per node: the `Replicated` append (the leader's in `sequence`, a
//! follower's once per `Replicate` frame however many entries it
//! carries). What the applier books when it executes the entry — the
//! `Replied` / `Charged` frame ([`Engine::apply_tagged`]) and the
//! `LogApplied` mark — is staged ([`Store::stage`]) and rides the
//! node's next commit, normally the next entry's append. The leader
//! ships an entry before its own append is durable ([`Node::append`]),
//! so a quorum write waits on about one fsync, not two in series, and
//! the cluster pays about three; the leader counts itself toward the
//! quorum, and applies, only up to its durable index (Ongaro, "Consensus:
//! Bridging Theory and Practice", §10.2.1). Only the input has to be
//! durable before the answer: the log replays every effect, the charge
//! included (see [`Node::mark_applied`]).

use bf_chaos::{ReplicaFault, ReplicaPlan};
use bf_core::Epsilon;
use bf_engine::{Engine, EngineError};
use bf_net::proto::RESERVED_REQUEST_ID_BASE;
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
/// Max log entries per [`ServerMessage::Replicate`] frame.
const BATCH: usize = 64;

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
    /// Refuse follower reads with [`WireError::StaleReplica`] when
    /// more than this many committed entries await local replay.
    /// `None` always serves (reads may trail the leader).
    pub stale_bound: Option<u64>,
    /// How many applied entries stay resident in the in-memory log for
    /// peer catchup before being evicted (the WAL keeps them all; only
    /// catchup below the retained window is refused, pointing at
    /// snapshot transfer). Clamped to at least 1 — the newest entry
    /// always stays resident, anchoring the catchup log-matching check.
    /// On a leader, entries a connected follower has not yet acked are
    /// never evicted regardless of this bound.
    pub log_retain: u64,
    /// Deterministic fault injection: the plan's op clock advances once
    /// per **sequenced entry**, and a due [`ReplicaFault::KillLeader`]
    /// kills this node exactly as [`Replica::kill`] would — mid-burst
    /// leader loss at a scripted log index.
    pub fault_plan: Option<Arc<ReplicaPlan>>,
    /// Client-port networking knobs (acceptors, windows, SLOs). The
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
            stale_bound: None,
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

/// Which side of the log this node is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Leader,
    Follower,
}

/// A client waiting on an entry: resolved by the applier once the entry
/// is committed **and** executed locally. Dropping a waiter reads as
/// [`WireError::ShutDown`] on the client side, which retries elsewhere
/// with the same idempotency key — exactly-once either way.
enum Waiter {
    Submit(TicketResolver),
    Open(mpsc::Sender<Result<f64, WireError>>),
}

/// All mutable replication state, under one lock.
struct NodeState {
    role: Role,
    epoch: u64,
    /// Index of `log[0]`; entries below it are applied and were evicted
    /// from memory by [`Node::evict_applied`] (the WAL still holds them).
    log_start: u64,
    /// The in-memory log, entries as the peer link ships them (the WAL
    /// holds each one's durable twin, [`logged`]).
    log: Vec<WireLogEntry>,
    /// Epoch of the log's last entry (0 when nothing was ever logged).
    /// Epochs are non-decreasing in index, so this is also the largest
    /// epoch any entry carries. Sent in `LogCatchup` for the leader's
    /// log-matching check; survives eviction of the entry itself.
    last_epoch: u64,
    /// Largest index whose `Replicated` record is fsync-durable here, at
    /// most [`NodeState::high_water`]. Nothing above it is applied.
    durable: u64,
    commit_index: u64,
    applied: u64,
    /// Client-facing address of the current leader ("" when unknown).
    leader_hint: String,
    /// This node's own client-facing address (set after bind).
    self_hint: String,
    /// The leader's peer address a follower should stream from.
    follow_target: Option<SocketAddr>,
    /// A handle on the link the follower thread is reading, registered
    /// by [`Node::follow_once`]; [`Node::cut_uplink`] ends that read.
    uplink: Option<TcpStream>,
    /// Durable high-water mark per connected follower (by conn id).
    follower_acks: HashMap<u64, u64>,
    /// Clients parked on an index.
    waiters: HashMap<u64, Vec<Waiter>>,
    /// Moved on by [`Node::cut_uplink`] at every role change, halt and
    /// shutdown; a follower session belongs to the one it started under.
    generation: u64,
}

impl NodeState {
    /// Largest log index, durable or in its fsync (0 when the log is empty).
    fn high_water(&self) -> u64 {
        self.log_start + self.log.len() as u64 - 1
    }

    fn next_index(&self) -> u64 {
        self.log_start + self.log.len() as u64
    }

    fn entry_at(&self, index: u64) -> Option<&WireLogEntry> {
        index
            .checked_sub(self.log_start)
            .and_then(|i| self.log.get(i as usize))
    }
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
    quorum: usize,
    stale_bound: Option<u64>,
    log_retain: u64,
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
    /// applied = the WAL's execution mark, the in-memory log = the
    /// pending (logged-but-unapplied) entries, commit = applied
    /// (conservative: quorum knowledge is not durable, and re-earning
    /// it is harmless).
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
        // The last entry's epoch is the max epoch on disk (epochs are
        // non-decreasing in index); pending entries refine it.
        let last_epoch = log.last().map_or(snap.log_epoch, |e| e.epoch);
        let node = Node {
            engine,
            store,
            state: Mutex::new(NodeState {
                role: Role::Follower,
                epoch: snap.log_epoch,
                log_start: snap.log_applied + 1,
                durable: snap.log_applied + log.len() as u64,
                log,
                last_epoch,
                commit_index: snap.log_applied,
                applied: snap.log_applied,
                leader_hint: String::new(),
                self_hint: String::new(),
                follow_target: None,
                uplink: None,
                follower_acks: HashMap::new(),
                waiters: HashMap::new(),
                generation: 0,
            }),
            cv: Condvar::new(),
            dead: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            quorum: cfg.quorum.max(1),
            stale_bound: cfg.stale_bound,
            log_retain: cfg.log_retain.max(1),
            fault_plan: cfg.fault_plan.clone(),
            conn_ids: AtomicU64::new(1),
            handlers: Mutex::new(Vec::new()),
            name: Mutex::new(cfg.name.clone()),
            peers: Mutex::new(Vec::new()),
            g_log_index: obs.gauge("replica_log_index"),
            g_cluster_lag: obs.gauge("replica_cluster_lag_entries"),
        };
        node.update_gauges(&node.state.lock().unwrap());
        Ok(node)
    }

    fn update_gauges(&self, st: &NodeState) {
        self.g_log_index.set(st.durable as f64);
    }

    /// Re-derives the log-index gauge from the live [`NodeState`].
    /// Called at scrape time so `replica_log_index` never serves a value
    /// from the last role change instead of the present.
    fn refresh_gauges(&self) {
        let st = self.state.lock().unwrap();
        self.update_gauges(&st);
    }

    /// Announces a role transition on the cluster event bus:
    /// `detail = "{role}@{epoch}"`, `value = epoch`. Deliberately
    /// *not* wired into [`Node::update_gauges`] — that runs once per
    /// applied entry and would flood every watcher.
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

    /// Leader-side commit rule: the quorum-th largest durable high-water
    /// mark among {`durable`} ∪ followers. With fewer acking members than
    /// the quorum nothing commits — never "commit with whoever showed up".
    fn recompute_commit(&self, st: &mut NodeState) {
        if st.role != Role::Leader || self.dead.load(Ordering::SeqCst) {
            return;
        }
        let mut highs: Vec<u64> = st.follower_acks.values().copied().collect();
        highs.push(st.durable);
        highs.sort_unstable_by(|a, b| b.cmp(a));
        if highs.len() < self.quorum {
            return;
        }
        let commit = highs[self.quorum - 1];
        if commit > st.commit_index {
            st.commit_index = commit;
            self.update_gauges(st);
            self.cv.notify_all();
        }
    }

    /// Fencing: adopting a higher epoch deposes a leader. Waiters past
    /// the commit point are dropped (clients see `ShutDown` and retry at
    /// the new leader under the same idempotency key).
    fn step_down(&self, st: &mut NodeState, seen_epoch: u64) {
        if seen_epoch <= st.epoch {
            return;
        }
        st.epoch = seen_epoch;
        if st.role == Role::Leader {
            st.role = Role::Follower;
            st.leader_hint = String::new();
            st.follow_target = None;
            st.follower_acks.clear();
            let commit = st.commit_index;
            st.waiters.retain(|&i, _| i <= commit);
            self.cut_uplink(st);
            self.publish_role("follower", seen_epoch);
        }
        self.update_gauges(st);
        self.cv.notify_all();
    }

    /// Discards every log entry above `keep` — in memory and durably,
    /// via an appended [`Record::LogTruncated`] (the WAL is append-only;
    /// recovery replays the truncation). Dropped entries' waiters read
    /// `ShutDown` and retry at the new leader under the same key.
    ///
    /// Returns `false` — after marking the node dead — when `keep` is
    /// below the local commit point: entries up to `commit_index` are
    /// quorum-durable, so a leader that contradicts them was promoted
    /// over a stale log, and halting beats serving a forked ledger.
    fn truncate_suffix(&self, st: &mut NodeState, keep: u64) -> bool {
        if keep >= st.high_water() {
            return true;
        }
        if keep < st.commit_index
            || self
                .store
                .commit(&[Record::LogTruncated { index: keep }])
                .is_err()
        {
            self.halt(st);
            return false;
        }
        // keep >= commit >= applied >= log_start - 1, and eviction keeps
        // log_start <= applied, so the surviving log is non-empty.
        st.log.truncate((keep + 1 - st.log_start) as usize);
        st.durable = keep; // the commit covered everything staged
        st.last_epoch = st.entry_at(keep).map_or(st.last_epoch, |e| e.epoch);
        st.waiters.retain(|&i, _| i <= keep);
        self.update_gauges(st);
        self.cv.notify_all();
        true
    }

    /// Evicts applied entries older than the retention window from the
    /// in-memory log, advancing `log_start`. The WAL keeps every entry
    /// (recovery and the reply cache are unaffected); only peer catchup
    /// below `log_start` is refused, pointing at snapshot transfer. The
    /// newest entry always stays resident (`log_retain >= 1`), and a
    /// leader never evicts past a connected follower's ack.
    fn evict_applied(&self, st: &mut NodeState) {
        let mut bound = st.applied.saturating_sub(self.log_retain);
        if st.role == Role::Leader {
            for &ack in st.follower_acks.values() {
                bound = bound.min(ack);
            }
        }
        if bound >= st.log_start {
            st.log.drain(..(bound + 1 - st.log_start) as usize);
            st.log_start = bound + 1;
        }
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
            return Err(WireError::NotLeader {
                leader: String::new(),
            });
        }
        if st.role != Role::Leader {
            return Err(WireError::NotLeader {
                leader: st.leader_hint.clone(),
            });
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
        let index = st.next_index();
        // Entries without a client idempotency key still need one —
        // every replica must execute under the same tag. Derive it from
        // the log position, in the reserved range the wire boundary
        // refuses to client-supplied keys (`RESERVED_REQUEST_ID_BASE`).
        let request_id = request_id.unwrap_or(RESERVED_REQUEST_ID_BASE | index);
        let entry = WireLogEntry {
            epoch: st.epoch,
            index,
            analyst: analyst.to_string(),
            request_id,
            op,
        };
        st.waiters.entry(index).or_default().push(waiter);
        self.append(st, vec![entry])
            .map(drop)
            .map_err(|e| WireError::Other(format!("log append failed: {e}")))
    }

    /// Appends `entries`, the leader's one or a follower's frame. Their
    /// records are staged under the lock, so the WAL is in log order and
    /// concurrent appends share one fsync, and `st.log` — the shippers'
    /// source — takes them at once. Returns the lock, `durable` raised,
    /// once the fsync is in; or the store's error, the node halted.
    fn append<'a>(
        &'a self,
        mut st: MutexGuard<'a, NodeState>,
        entries: Vec<WireLogEntry>,
    ) -> Result<MutexGuard<'a, NodeState>, StoreError> {
        let Some(&WireLogEntry { index, epoch, .. }) = entries.last() else {
            return Ok(st);
        };
        let records: Vec<Record> = entries.iter().map(logged).collect();
        let mut synced = self.store.stage(&records);
        if synced.is_ok() {
            st.log.extend(entries);
            st.last_epoch = epoch;
            self.cv.notify_all();
            drop(st);
            synced = self.store.commit(&[]);
            st = self.state.lock().unwrap();
        }
        if let Err(e) = synced {
            self.halt(&mut st);
            return Err(e);
        }
        st.durable = st.durable.max(index);
        self.update_gauges(&st);
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
        self.publish_role("dead", st.epoch);
        self.update_gauges(&st);
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
            // At quorum 2 of 3 the followers can commit an entry before
            // this node's own append of it is durable.
            let frontier = st.commit_index.min(st.durable);
            if st.applied >= frontier {
                st = self.cv.wait(st).unwrap();
                continue;
            }
            let next = st.applied + 1;
            let entry = match st.entry_at(next) {
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
                        .map_err(|e| {
                            WireError::from_engine_error(&EngineError::InvalidRequest(
                                e.to_string(),
                            ))
                        })
                        .and_then(|eps| {
                            self.engine
                                .attach_session(&entry.analyst, eps)
                                .map_err(|e| WireError::from_engine_error(&e))
                        });
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
        st.applied = st.applied.max(index);
        self.evict_applied(&mut st);
        self.update_gauges(&st);
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

    /// One follower's connection: handshake, catchup registration, then
    /// the stream loop until either side closes or this node stops
    /// leading.
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

        let (corr, send_next) = match read_frame(stream, &mut buf, ClientMessage::decode) {
            Some(ClientMessage::PeerStatus { id }) => {
                // Read-only probe (the pre-promotion longest-log check):
                // report the durable position and close. A killed node
                // models a crashed process and answers nothing useful.
                let reply = if self.dead.load(Ordering::SeqCst) {
                    refused(id, WireError::ShutDown)
                } else {
                    let st = self.state.lock().unwrap();
                    ServerMessage::PeerStatusReport {
                        id,
                        epoch: st.epoch,
                        high_water: st.durable,
                        applied: st.applied,
                    }
                };
                let _ = write_frame(stream, &mut out, |o| reply.encode_into(o));
                return;
            }
            Some(ClientMessage::Stats { id }) => {
                // Peer-port scrape: the serving node fanning a
                // federated `ClusterStats` out to the fleet. Refresh
                // the replication gauges first so the snapshot carries
                // this instant, not the last role change; a killed
                // node models a crashed process and reports nothing.
                let reply = if self.dead.load(Ordering::SeqCst) {
                    refused(id, WireError::ShutDown)
                } else {
                    self.refresh_gauges();
                    ServerMessage::StatsReport {
                        id,
                        metrics: self
                            .engine
                            .metrics_snapshot()
                            .iter()
                            .map(WireMetric::from_snapshot)
                            .collect(),
                    }
                };
                let _ = write_frame(stream, &mut out, |o| reply.encode_into(o));
                return;
            }
            Some(ClientMessage::LogCatchup {
                id,
                epoch,
                from_index,
                last_epoch,
            }) => {
                let refusal = {
                    let mut st = self.state.lock().unwrap();
                    self.step_down(&mut st, epoch);
                    // Log-matching check (the Raft consistency argument).
                    // A follower ahead of this leader, or one whose entry
                    // just below the subscription point carries a
                    // different epoch, holds an orphan suffix from a dead
                    // epoch: refuse with our high water so it truncates
                    // back to its commit point and resubscribes. Acking
                    // such a follower would count entries this leader
                    // never sequenced toward the quorum.
                    let diverged = from_index > st.high_water() + 1
                        || from_index
                            .checked_sub(1)
                            .and_then(|i| st.entry_at(i))
                            .is_some_and(|prev| prev.epoch != last_epoch);
                    if st.role != Role::Leader || self.dead.load(Ordering::SeqCst) {
                        Some(WireError::NotLeader {
                            leader: st.leader_hint.clone(),
                        })
                    } else if from_index < st.log_start {
                        // The entries before log_start are applied and
                        // evicted; serving them would need snapshot
                        // transfer, which this crate does not implement —
                        // a new member starts from a mirrored WAL instead.
                        Some(WireError::Protocol(format!(
                            "catchup from {from_index} predates retained log start {}",
                            st.log_start
                        )))
                    } else if diverged {
                        Some(WireError::LogDiverged {
                            leader_high_water: st.high_water(),
                        })
                    } else {
                        None
                    }
                };
                if let Some(error) = refusal {
                    let _ = write_frame(stream, &mut out, |o| refused(id, error).encode_into(o));
                    return;
                }
                (id, from_index)
            }
            _ => return,
        };

        let conn_id = self.conn_ids.fetch_add(1, Ordering::SeqCst);
        {
            let mut st = self.state.lock().unwrap();
            // from_index <= high_water + 1 was just checked, so this
            // records at most our own log's end as the follower's.
            let ack = (send_next - 1).min(st.high_water());
            st.follower_acks.insert(conn_id, ack);
            self.recompute_commit(&mut st);
        }

        // From here on nothing polls: acks get a blocking reader of their
        // own on a clone of the socket; the streamer waits on the condvar.
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
        st.follower_acks.remove(&conn_id);
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
                        || st.role != Role::Leader
                    {
                        return;
                    }
                    if st.high_water() >= send_next || st.commit_index != last_commit_sent {
                        break;
                    }
                    st = self.cv.wait(st).unwrap();
                }
                let batch: Vec<WireLogEntry> = (send_next..=st.high_water())
                    .take(BATCH)
                    .map_while(|index| st.entry_at(index).cloned())
                    .collect();
                (batch, st.epoch, st.commit_index)
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
            if epoch > st.epoch {
                self.step_down(&mut st, epoch);
                return;
            }
            // Clamp to our own log's end: an ack above it covers
            // entries we never sequenced and must not count toward any
            // quorum.
            let hw = st.high_water();
            let ack = st.follower_acks.entry(conn_id).or_insert(0);
            *ack = (*ack).max(index.min(hw));
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
            while st.durable < st.high_water() && st.generation == generation {
                st = self.cv.wait(st).unwrap();
            }
            if st.generation != generation {
                return;
            }
            st.uplink = Some(link);
            ClientMessage::LogCatchup {
                id: 2,
                epoch: st.epoch,
                from_index: st.high_water() + 1,
                last_epoch: st.last_epoch,
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
            match read_frame(stream, &mut buf, ServerMessage::decode)? {
                ServerMessage::Replicate {
                    epoch,
                    commit_index,
                    entries,
                    ..
                } => {
                    let ack = {
                        let mut st = self.state.lock().unwrap();
                        // A frame read before a cut, or a stale leader's.
                        if st.generation != generation || epoch < st.epoch {
                            return None;
                        }
                        st.epoch = st.epoch.max(epoch);
                        // Check the whole frame against the local log
                        // first; what it adds is appended below in one
                        // fsync, which the ack then vouches for.
                        let mut fresh: Vec<WireLogEntry> = Vec::new();
                        for e in entries {
                            let next = st.next_index() + fresh.len() as u64;
                            if e.index < next {
                                // Overlap with the local log: the same
                                // index must hold the same entry. A
                                // different epoch is a divergent suffix
                                // from a dead epoch — cut it off and
                                // take the leader's entry instead.
                                let same = st
                                    .entry_at(e.index)
                                    .is_none_or(|local| local.epoch == e.epoch);
                                if same {
                                    continue; // duplicate resend
                                }
                                // A leader's frame ascends, so a conflict
                                // comes before anything fresh; and one at
                                // the commit point halts the node.
                                if !fresh.is_empty() || !self.truncate_suffix(&mut st, e.index - 1)
                                {
                                    return None;
                                }
                            } else if e.index > next {
                                return None; // gap: resubscribe
                            }
                            fresh.push(e);
                        }
                        let last = fresh.last().map_or(st.high_water(), |e| e.index);
                        st.commit_index = st.commit_index.max(commit_index.min(last));
                        self.cv.notify_all();
                        let st = self.append(st, fresh).ok()?;
                        (st.epoch, st.durable)
                    };
                    let ack = ClientMessage::ReplicateAck {
                        id: 0,
                        epoch: ack.0,
                        index: ack.1,
                    };
                    write_frame(stream, &mut out, |o| ack.encode_into(o)).ok()?;
                }
                ServerMessage::Refused {
                    error: WireError::LogDiverged { leader_high_water },
                    ..
                } => {
                    // Our log carries an orphan suffix the leader never
                    // sequenced. Everything above the commit point is
                    // suspect (un-acked by any quorum), so truncate back
                    // to it and resubscribe from there; the leader
                    // re-streams whatever was legitimately ours. If even
                    // the commit point exceeds the leader's log, a stale
                    // node was promoted — truncate_suffix halts us.
                    let mut st = self.state.lock().unwrap();
                    if st.generation != generation {
                        return None; // read before a cut: not ours to act on
                    }
                    let keep = leader_high_water.min(st.commit_index);
                    let _ = self.truncate_suffix(&mut st, keep);
                    return None; // resubscribe from the new high water
                }
                _ => return None,
            }
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
        if self.dead.load(Ordering::SeqCst) {
            return Some(WireError::ShutDown);
        }
        let bound = self.stale_bound?;
        let st = self.state.lock().unwrap();
        let lag = st.commit_index.saturating_sub(st.applied);
        (lag > bound).then_some(WireError::StaleReplica { lag_entries: lag })
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
            let st = self.state.lock().unwrap();
            self.update_gauges(&st);
            let role = if self.dead.load(Ordering::SeqCst) {
                "dead"
            } else if st.role == Role::Leader {
                "leader"
            } else {
                "follower"
            };
            (
                role.to_string(),
                st.epoch,
                st.applied,
                st.durable,
                st.commit_index.saturating_sub(st.applied),
            )
        };
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
        st.role = Role::Leader;
        st.leader_hint = st.self_hint.clone();
        st.follow_target = None;
        self.node.cut_uplink(&mut st);
        self.node.publish_role("leader", st.epoch);
        self.node.update_gauges(&st);
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
        st.role = Role::Follower;
        st.follow_target = Some(leader_peer);
        st.leader_hint = leader_hint.to_string();
        st.follower_acks.clear();
        self.node.cut_uplink(&mut st);
        self.node.publish_role("follower", st.epoch);
        self.node.update_gauges(&st);
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
    ///
    /// Survivors that kept an orphan suffix the old leader never
    /// committed reconcile when they re-follow: the new leader's
    /// log-matching check refuses their catchup with
    /// [`WireError::LogDiverged`], they truncate back to their commit
    /// point (durably, via `Record::LogTruncated`), and resubscribe.
    /// Orphans were never acked to any client, so dropping them is
    /// exactly-once under client retry.
    pub(crate) fn promote(&self) {
        let mut st = self.node.state.lock().unwrap();
        st.epoch += 1;
        st.follow_target = None;
        self.node.cut_uplink(&mut st);
        st.commit_index = st.commit_index.max(st.durable);
        self.node.cv.notify_all();
        while st.applied < st.commit_index
            && !self.node.closing.load(Ordering::SeqCst)
            && !self.node.dead.load(Ordering::SeqCst)
        {
            st = self.node.cv.wait(st).unwrap();
        }
        st.role = Role::Leader;
        st.leader_hint = st.self_hint.clone();
        st.follower_acks.clear();
        self.node.publish_role("leader", st.epoch);
        self.node.update_gauges(&st);
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
        let local = self.node.state.lock().unwrap().durable;
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
        let st = self.node.state.lock().unwrap();
        ReplicaStatus {
            leader: st.role == Role::Leader && !self.node.dead.load(Ordering::SeqCst),
            dead: self.node.dead.load(Ordering::SeqCst),
            epoch: st.epoch,
            log_index: st.durable,
            commit_index: st.commit_index,
            applied: st.applied,
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
    use bf_core::Policy;
    use bf_domain::{Dataset, Domain};
    use bf_engine::Request;
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
            let mut st = b.node.state.lock().unwrap();
            st.log.push(orphan);
            st.durable = 3;
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
            let st = b.node.state.lock().unwrap();
            assert_eq!(
                st.entry_at(3).unwrap().epoch,
                1,
                "the orphan gave way to the leader's entry"
            );
            assert_eq!(st.last_epoch, 1);
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
    fn follower_ahead_of_the_new_leader_truncates_to_its_high_water() {
        let (a, b, c, _b_dir) = diverged_cluster("replica-ahead");
        // `c` has sequenced nothing yet: `b`'s catchup from index 4 is
        // past `c`'s high water 2 — the from-ahead refusal path.
        b.follow(c.peer_addr(), &c.client_addr().to_string());
        await_state(&b, |st| st.high_water() == 2); // the orphan truncated
        assert!(!b.status().dead);

        // Convergence after the truncation: a fresh write on `c`
        // reaches `b` at the index the orphan vacated.
        let mut client = Client::connect(c.client_addr()).unwrap();
        client.open_session("h", 1.0).unwrap(); // entry 3, epoch 1
        drain_to(&b, 3);
        assert_eq!(b.node.state.lock().unwrap().entry_at(3).unwrap().epoch, 1);
        assert!(b.engine().session_snapshot("ghost").is_err());
        b.shutdown().unwrap();
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
                let st = r.node.state.lock().unwrap();
                assert_eq!(st.applied, 7);
                assert_eq!(st.high_water(), 7, "eviction never moves the high water");
                assert_eq!(st.log_start, 7, "entries below applied - retain are gone");
                assert_eq!(st.log.len(), 1);
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
            self.send(epoch, commit_index, entries);
        }

        fn send(&mut self, epoch: u64, commit_index: u64, entries: Vec<WireLogEntry>) {
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
            let st = follower.node.state.lock().unwrap();
            assert_eq!(st.high_water(), 6);
            assert_eq!(st.last_epoch, 1);
            assert_eq!(st.entry_at(4).unwrap().epoch, 1);
        }
        assert!(!follower.status().dead);
        follower.shutdown().unwrap();
    }

    #[test]
    fn a_conflict_at_the_commit_point_halts_the_follower() {
        let (follower, _listener, mut link) = scripted_follower("replica-batch-halt");
        link.ship(0, 2, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(link.ack(), Some(3));
        drain_to(&follower, 2);
        // Entry 2 is quorum-durable; a leader that contradicts it was
        // promoted over a stale log. Nothing of its frame is appended.
        let before = syncs(&follower);
        link.ship(1, 2, &[(2, 1), (3, 1), (4, 1)]);
        assert_eq!(link.ack(), None, "the link is dropped, unacked");
        assert!(follower.status().dead);
        assert_eq!(follower.status().log_index, 3);
        assert_eq!(syncs(&follower), before);
        assert_eq!(follower.node.store.current_state().log_index, 3);
        follower.shutdown().unwrap();
    }

    /// Entries up to the commit point are quorum-durable whether or not
    /// this node has applied them: a truncation below it halts the node.
    #[test]
    fn a_truncation_below_an_unapplied_commit_point_halts() {
        let (follower, _listener, mut link) = scripted_follower("replica-halt-unapplied");
        link.ship(0, 0, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(link.ack(), Some(3));
        let mut st = follower.node.state.lock().unwrap();
        st.commit_index = 2; // learned, not yet applied
        assert_eq!(st.applied, 0);
        assert!(!follower.node.truncate_suffix(&mut st, 1));
        assert_eq!(st.high_water(), 3);
        drop(st);
        assert!(follower.status().dead);
        follower.shutdown().unwrap();
    }

    /// A follower that has seen epoch 1 takes nothing more from epoch 0.
    #[test]
    fn a_frame_from_an_epoch_the_follower_left_is_dropped_unacked() {
        let (follower, _listener, mut link) = scripted_follower("replica-stale-epoch");
        link.ship(1, 0, &[(1, 1)]);
        assert_eq!(link.ack(), Some(1));
        link.ship(0, 0, &[(2, 0)]);
        assert_eq!(link.ack(), None, "the stale leader's link is dropped");
        assert_eq!(follower.status().log_index, 1);
        follower.shutdown().unwrap();
    }

    /// A follower's ack past the leader's own log confirms nothing beyond
    /// it: the leader counts it at its high water.
    #[test]
    fn an_ack_past_the_leaders_log_counts_at_its_high_water() {
        let leader = replica("replica-ack-clamp", ReplicaConfig::default());
        leader.lead();
        assert_eq!(leader.node.sequence_open("a", 2.0f64.to_bits()), Ok(2.0));
        let mut link = dial(leader.peer_addr()).unwrap();
        let catchup = ClientMessage::LogCatchup {
            id: 2,
            epoch: 0,
            from_index: 1,
            last_epoch: 0,
        };
        greet(&mut link, &mut FrameBuf::new(), &mut Vec::new(), &catchup).unwrap();
        let ack = ClientMessage::ReplicateAck {
            id: 0,
            epoch: 0,
            index: 5,
        };
        write_frame(&mut link, &mut Vec::new(), |o| ack.encode_into(o)).unwrap();
        await_state(&leader, |st| st.follower_acks.values().any(|&a| a > 0));
        let st = leader.node.state.lock().unwrap();
        assert!(st.follower_acks.values().all(|&a| a == 1));
        assert_eq!((st.high_water(), st.commit_index), (1, 1));
        drop(st);
        drop(link);
        leader.shutdown().unwrap();
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
            st.epoch += 1;
            st.follow_target = None;
            st.generation += 1;
            st.commit_index = st.commit_index.max(st.durable);
        }
        assert_eq!(link.ack(), None, "the stale session ends");
        assert!(!follower.status().dead);
        assert_eq!(follower.node.state.lock().unwrap().high_water(), 3);
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

    /// Halt site: `truncate_suffix` below the commit point.
    #[test]
    fn a_halt_by_truncation_wakes_what_is_parked_on_the_condvar() {
        let (follower, _listener, mut link) = scripted_follower("replica-halt-trunc");
        link.ship(0, 2, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(link.ack(), Some(3));
        drain_to(&follower, 2);
        let parked = parked_until_dead(&follower);
        link.ship(1, 2, &[(2, 1)]);
        assert_woken(&parked);
        assert_eq!(link.ack(), None, "the halt cut the uplink");
        assert!(follower.status().dead);
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

    /// Spins until `done` holds of the node's state (5 s at most).
    fn await_state(r: &Replica, done: impl Fn(&NodeState) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(&r.node.state.lock().unwrap()) {
            assert!(Instant::now() < deadline, "state never arrived");
            std::thread::sleep(POLL);
        }
    }

    /// The leader ships an entry before its own append is durable, and
    /// counts itself toward the quorum — and answers — only once it is.
    #[test]
    fn a_leader_ships_before_its_own_sync_and_answers_after_it() {
        let cfg = ReplicaConfig {
            quorum: 2,
            ..ReplicaConfig::default()
        };
        let leader = Replica::start_on(
            slow_store("replica-ship-first", 200_000),
            "127.0.0.1:0",
            "127.0.0.1:0",
            cfg,
            setup,
        )
        .unwrap();
        leader.lead();
        // This test is the follower: subscribed from the first index.
        let mut link = dial(leader.peer_addr()).unwrap();
        let mut buf = FrameBuf::new();
        let catchup = ClientMessage::LogCatchup {
            id: 2,
            epoch: 0,
            from_index: 1,
            last_epoch: 0,
        };
        greet(&mut link, &mut buf, &mut Vec::new(), &catchup).unwrap();
        link.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let before = syncs(&leader);

        let node = Arc::clone(&leader.node);
        let opened = std::thread::spawn(move || node.sequence_open("a", 2.0f64.to_bits()));
        // The first frame may only carry the commit index.
        let entries = loop {
            match read_frame(&mut link, &mut buf, ServerMessage::decode) {
                Some(ServerMessage::Replicate { entries, .. }) if entries.is_empty() => {}
                Some(ServerMessage::Replicate { entries, .. }) => break entries,
                other => panic!("the entry is shipped, got {other:?}"),
            }
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].index, 1);
        assert_eq!(syncs(&leader), before, "shipped before the leader's sync");

        // The follower's ack alone does not commit: the leader counts
        // itself at its durable index, still 0.
        let ack = ClientMessage::ReplicateAck {
            id: 0,
            epoch: 0,
            index: 1,
        };
        write_frame(&mut link, &mut Vec::new(), |o| ack.encode_into(o)).unwrap();
        await_state(&leader, |st| st.follower_acks.values().any(|&a| a == 1));
        {
            let st = leader.node.state.lock().unwrap();
            assert_eq!(syncs(&leader), before, "the sync is still in its delay");
            assert_eq!((st.durable, st.commit_index, st.applied), (0, 0, 0));
            assert!(!opened.is_finished(), "answered before the leader's sync");
        }
        assert_eq!(opened.join().unwrap(), Ok(2.0));
        assert!(syncs(&leader) > before);
        let status = leader.status();
        assert_eq!((status.log_index, status.applied), (1, 1));
        drop(link);
        leader.shutdown().unwrap();
    }

    /// A follower applies nothing of a frame — even one whose commit
    /// index covers its own entries — before the frame's fsync returns,
    /// and acks the index that fsync made durable.
    #[test]
    fn a_follower_applies_and_acks_a_frame_only_after_its_sync() {
        let follower = Replica::start_on(
            slow_store("replica-apply-durable", 200_000),
            "127.0.0.1:0",
            "127.0.0.1:0",
            ReplicaConfig::default(),
            setup,
        )
        .unwrap();
        let (follower, _listener, mut link) = script_leader_for(follower);
        link.ship(0, 1, &[(1, 0)]);
        assert_eq!(link.ack(), Some(1));
        drain_to(&follower, 1);
        let before = syncs(&follower);

        // A write for `n1` that the applier would only stage, in a frame
        // that commits it.
        let request = range(0.5, 0, 8);
        let write = WireLogEntry {
            epoch: 0,
            index: 2,
            analyst: "n1".into(),
            request_id: 7,
            op: WireLogOp::Submit {
                request: bf_net::proto::WireRequest::from_request(&request),
            },
        };
        link.send(0, 2, vec![write]);
        await_state(&follower, |st| st.high_water() == 2);
        let window = Instant::now() + Duration::from_millis(20);
        while Instant::now() < window {
            let st = follower.node.state.lock().unwrap();
            assert_eq!((st.durable, st.commit_index, st.applied), (1, 2, 1));
            drop(st);
            std::thread::sleep(POLL);
        }
        assert_eq!(syncs(&follower), before, "the sync is still in its delay");
        assert_eq!(link.ack(), Some(2));
        assert_eq!(syncs(&follower), before + 1);
        drain_to(&follower, 2);
        follower.shutdown().unwrap();
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
