//! The TCP front-end: accept, decode, bridge into `bf-server` tickets.

use crate::proto::{
    ClientMessage, ServerMessage, WireError, WireEventKind, WireMetric, WireReplicaStats,
    PROTOCOL_VERSION,
};
use bf_obs::{
    BusSubscriber, ClusterEventKind, Counter, Histogram, Lap, MetricSnapshot, Registry, SloEngine,
    SloSpec, Stage, TraceContext, TraceId,
};
use bf_server::{DriverHandle, Server, ServerError, ServerStats, Ticket};
use bf_store::{fnv1a, frame_into, FrameBuf, FrameRead};
use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The `replica` label a standalone node's samples carry in a
/// `ClusterStats` report, and the role its `Health` reports.
const STANDALONE: &str = "standalone";

/// Size of the acceptor pool. Each acceptor owns one connection at a
/// time, so this bounds the number of concurrently **served**
/// connections; further clients queue in the kernel backlog until an
/// acceptor frees up.
const ACCEPTORS: usize = 8;

/// The replication layer's interposition points. One trait (held behind
/// a stable `Arc` in [`ServerRole::Replica`]) so a replica can change
/// behaviour — follower refusing writes, then promoting to leader and
/// sequencing them — without the net layer re-wiring anything: the hook
/// decides per call.
pub trait ReplicaHook: Send + Sync {
    /// Sequences a write into the replicated log, returning a ticket
    /// that resolves once the entry is quorum-durable **and** executed
    /// locally. A follower refuses with [`WireError::NotLeader`].
    ///
    /// Client deadlines are ignored under replication: a deadline is
    /// wall-clock dependent, and a charge that one replica drops on
    /// timeout while another executes it would fork the ledgers.
    fn sequence_submit(
        &self,
        analyst: &str,
        request_id: Option<u64>,
        request: bf_engine::Request,
    ) -> Result<Ticket, WireError>;

    /// Sequences a session open/reattach. Session totals go through the
    /// log too — every replica must agree on each analyst's budget, so
    /// an open is an ordered log entry like any charge. Blocks until
    /// the entry is quorum-durable and applied locally, returning the
    /// remaining ε; rare enough (once per analyst per connection) that
    /// blocking an acceptor is acceptable.
    fn sequence_open(&self, analyst: &str, total_bits: u64) -> Result<f64, WireError>;

    /// `Some(error)` when local reads must be refused right now —
    /// [`WireError::ShutDown`] once the replica is dead. `None`
    /// serves `Budget` / `Stats` / `Traces` / `BudgetAudit` from the
    /// local engine, which is how followers scale reads out.
    fn refuse_read(&self) -> Option<WireError>;

    /// Refreshes hook-owned gauges (log index, lag, epoch, role) from
    /// live node state. Called at scrape and health-probe time so the
    /// reported values are current rather than whatever the last
    /// replication-stream receipt left behind. Default: no-op.
    fn refresh_observability(&self) {}

    /// This node's stable identity — the `replica` label its samples
    /// carry in a federated scrape (conventionally the replication
    /// peer address). Only consulted under [`ServerRole::Replica`];
    /// standalone nodes are labeled `"standalone"`.
    fn node_name(&self) -> String {
        "replica".into()
    }

    /// Scrapes every configured peer's metrics over the replication
    /// peer port: one entry per peer, in configured order, with
    /// unreachable peers reported (`reachable: false`, no samples)
    /// rather than silently dropped. Default: no peers.
    fn scrape_peers(&self) -> Vec<PeerScrape> {
        Vec::new()
    }

    /// Role, epoch, replication position and peer reachability for a
    /// `Health` probe. Probing may refresh cluster-level gauges (the
    /// fleet lag gauge an SLO reads), so the caller snapshots metrics
    /// *after* this. `None` (the default) reports a standalone node.
    fn health(&self) -> Option<ReplicaHealth> {
        None
    }
}

/// One cluster member's slice of a federated scrape, as returned by
/// [`ReplicaHook::scrape_peers`].
#[derive(Debug, Clone)]
pub struct PeerScrape {
    /// The member's node label (its replication peer address).
    pub node: String,
    /// Whether the member answered the probe.
    pub reachable: bool,
    /// The member's metric snapshot — unqualified names; the wire
    /// layer adds no label, the *client* merges with
    /// `bf_obs::merge_labeled_snapshots`. Empty when unreachable.
    pub metrics: Vec<MetricSnapshot>,
}

/// Replication-side identity and position for a `Health` probe, as
/// returned by [`ReplicaHook::health`].
#[derive(Debug, Clone)]
pub struct ReplicaHealth {
    /// `"leader"` or `"follower"`.
    pub role: String,
    /// Current sequencing epoch.
    pub epoch: u64,
    /// Largest log index executed through the local engine.
    pub applied: u64,
    /// Worst replication lag visible from this node, in entries: the
    /// local commit-to-apply gap, or (on a node with configured peers)
    /// the largest durable-high-water-to-peer-applied gap, with an
    /// unreachable peer counted as applied 0.
    pub lag: u64,
    /// Peer addresses that did not answer a status probe.
    pub unreachable: Vec<String>,
}

/// How this process's client port routes work.
#[derive(Clone, Default)]
pub enum ServerRole {
    /// Single-node serving: submissions feed the in-process scheduler
    /// directly. The default.
    #[default]
    Standalone,
    /// Member of a replicated cluster: writes are sequenced through the
    /// hook (refused with [`WireError::NotLeader`] on a follower),
    /// reads are gated on replication lag via
    /// [`ReplicaHook::refuse_read`].
    Replica(Arc<dyn ReplicaHook>),
}

impl std::fmt::Debug for ServerRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerRole::Standalone => f.write_str("Standalone"),
            ServerRole::Replica(_) => f.write_str("Replica(..)"),
        }
    }
}

/// Tuning knobs for the TCP front-end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-connection bound on outstanding requests (pipelining window).
    /// A submit past the window is refused over the wire with
    /// [`WireError::WindowFull`] — per-connection backpressure layered
    /// on top of the server's per-analyst `QueueFull`.
    pub max_in_flight: usize,
    /// Kept for source compatibility and **ignored**. It was the time
    /// unit of the scheduler's coalescing window, handed to
    /// [`Server::start_driver`]; a scheduler tick is now an epoch —
    /// everything queued when the last WAL commit returned — so the
    /// commit is the window and there is no interval to set.
    pub tick_interval: Duration,
    /// Deterministic fault injection for the reply path: each **answer
    /// frame** (`Answer` / `BatchAnswer`) advances the plan's op clock,
    /// and a due fault drops the connection, truncates the frame
    /// mid-write, or delays it — the failure modes a client's retry
    /// logic must survive. The answers of one writer pass leave in one
    /// write; a fault addresses one frame of it all the same — the
    /// frames before it arrive whole, then the fault happens.
    /// Injections count into `faults_injected{layer="net"}`. `None`
    /// (the default) injects nothing.
    pub fault_plan: Option<Arc<bf_chaos::NetPlan>>,
    /// Routing for writes and reads: [`ServerRole::Standalone`] (the
    /// default) feeds the scheduler directly; [`ServerRole::Replica`]
    /// interposes the replication layer's [`ReplicaHook`].
    pub role: ServerRole,
    /// Declarative SLOs evaluated at every `Stats` / `ClusterStats` /
    /// `Health` scrape — passive, no background thread: each scrape
    /// feeds one sample into the sliding window, updates the `slo_firing`
    /// gauges, and publishes firing/ok flips on the live event bus.
    /// Empty (the default) skips evaluation entirely.
    pub slos: Vec<SloSpec>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            tick_interval: Duration::from_micros(500),
            fault_plan: None,
            role: ServerRole::Standalone,
            slos: Vec::new(),
        }
    }
}

/// TCP-layer instruments, registered on the engine's shared registry so
/// one `StatsReport` covers every layer. Pure side channel: nothing here
/// feeds scheduling, admission or noise.
#[derive(Debug)]
struct NetCounters {
    obs: Arc<Registry>,
    frames_in: Counter,
    frames_out: Counter,
    protocol_errors: Counter,
    window_refusals: Counter,
    disconnects_mid_request: Counter,
    /// Chaos-plan faults fired on the reply path (same label-in-name
    /// convention as the store's `faults_injected{layer="store"}`).
    faults_injected: Counter,
    /// Submit-to-reply-flushed wall time per request, as observed by the
    /// wire layer (queue wait + schedule + release + encode included).
    request_ns: Histogram,
}

impl NetCounters {
    fn new(obs: Arc<Registry>) -> Self {
        Self {
            frames_in: obs.counter("net_frames_in_total"),
            frames_out: obs.counter("net_frames_out_total"),
            protocol_errors: obs.counter("net_protocol_errors_total"),
            window_refusals: obs.counter("net_window_refusals_total"),
            disconnects_mid_request: obs.counter("net_disconnects_mid_request_total"),
            faults_injected: obs.counter("faults_injected{layer=\"net\"}"),
            request_ns: obs.histogram("net_request_ns"),
            obs,
        }
    }
}

/// Counter snapshot for the TCP layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Frames decoded from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Connections killed for protocol violations (corrupt frames,
    /// undecodable messages, handshake misuse).
    pub protocol_errors: u64,
    /// Submissions refused because the connection's in-flight window was
    /// full.
    pub window_refusals: u64,
    /// Connections that dropped with requests still in flight (their
    /// tickets were released — undispatched work cancels without an ε
    /// charge).
    pub disconnects_mid_request: u64,
}

/// The serving process's network face: a `TcpListener` whose accepted
/// connections speak the [`crate::proto`] protocol and feed the
/// [`Server`]'s submission queues, so every fairness, coalescing,
/// admission and durability guarantee of the in-process stack applies
/// unchanged to remote analysts.
///
/// ```text
/// client processes ──TCP──► acceptor pool ──decode──► Server::submit ──► tickets ──encode──► replies
/// ```
///
/// A fixed pool of acceptor threads each serve one connection at a time
/// (bounded concurrency). A connection is two threads and no polling: a
/// reader blocked in `read` that decodes, dispatches and submits, and a
/// writer — the socket's only writer — that owns the outstanding tickets
/// and parks until a ticket's waker or the reader unparks it, so any
/// number of pipelined requests per connection make progress without an
/// executor; an answer leaves as soon as its ticket resolves. Dropping a
/// connection mid-request releases its tickets: work not yet dispatched
/// is cancelled by the scheduler's sweep — no queue-slot leak, no ε
/// charge for answers nobody can read.
pub struct NetServer {
    server: Arc<Server>,
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    acceptors: Vec<std::thread::JoinHandle<()>>,
    /// One slot per acceptor: a clone of the connection it is serving,
    /// kept so shutdown can wake a reader blocked in `read`.
    live: Arc<Vec<Mutex<Option<TcpStream>>>>,
    driver: Option<DriverHandle>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port, then
    /// [`NetServer::local_addr`]), spawns the acceptor pool and a
    /// background driver ticking `server`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the listener cannot bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Arc<Server>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let closing = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::new(Arc::clone(server.engine().obs())));
        // Token seed: wall clock ⊕ pid. Tokens are an authentication
        // side channel — they never feed answers, noise or ordering, so
        // nondeterminism here cannot fork replicated ledgers.
        let token_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x626c_6f77_6669_7368)
            ^ u64::from(std::process::id());
        // Session tokens issued by this process: analyst → token. Shared
        // across connections so a token survives reconnects (stable for
        // the process lifetime), per-process so a failover's new leader
        // issues fresh ones on reattach.
        let tokens: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        // One shared SLO engine per serving process (scrapes from every
        // connection feed the same sliding window). Absent entirely
        // when no SLOs are configured — the common path pays nothing.
        let slo: Option<Arc<Mutex<SloEngine>>> = (!config.slos.is_empty()).then(|| {
            Arc::new(Mutex::new(SloEngine::new(
                server.engine().obs(),
                config.slos.clone(),
            )))
        });
        let driver = server.start_driver(config.tick_interval);
        let live: Arc<Vec<Mutex<Option<TcpStream>>>> =
            Arc::new((0..ACCEPTORS).map(|_| Mutex::new(None)).collect());
        let acceptors = (0..ACCEPTORS)
            .map(|i| {
                let listener = listener.try_clone().expect("clone listener");
                let shared = AcceptorShared {
                    server: Arc::clone(&server),
                    config: config.clone(),
                    closing: Arc::clone(&closing),
                    counters: Arc::clone(&counters),
                    tokens: Arc::clone(&tokens),
                    token_seed,
                    slo: slo.clone(),
                };
                let live = Arc::clone(&live);
                std::thread::Builder::new()
                    .name(format!("bf-net-acceptor-{i}"))
                    .spawn(move || {
                        // Blocking accept: shutdown wakes it with a
                        // loopback connection of its own.
                        while let Ok((stream, _)) = listener.accept() {
                            if shared.closing.load(Ordering::SeqCst) {
                                return;
                            }
                            serve_connection(stream, &shared, &live[i]);
                        }
                    })
                    .expect("spawn acceptor")
            })
            .collect();
        Ok(NetServer {
            server,
            addr,
            closing,
            counters,
            acceptors,
            live,
            driver: Some(driver),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The inner scheduler the connections feed.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Network-layer counters — a thin shim over the shared `bf-obs`
    /// registry (the same counters a wire `StatsReport` carries).
    pub fn stats(&self) -> NetStats {
        NetStats {
            frames_in: self.counters.frames_in.get(),
            frames_out: self.counters.frames_out.get(),
            protocol_errors: self.counters.protocol_errors.get(),
            window_refusals: self.counters.window_refusals.get(),
            disconnects_mid_request: self.counters.disconnects_mid_request.get(),
        }
    }

    /// Graceful shutdown: stop accepting, let every live connection
    /// drain its in-flight tickets (new submissions refuse with
    /// [`WireError::ShutDown`]) and close, then stop the driver and shut
    /// the inner server down (which drains, flushes and compacts the
    /// engine's store).
    ///
    /// # Errors
    ///
    /// [`ServerError`] when the inner server's final compaction fails;
    /// the network side is down either way.
    pub fn shutdown(mut self) -> Result<ServerStats, ServerError> {
        self.stop_network();
        if let Some(driver) = self.driver.take() {
            driver.stop();
        }
        self.server.shutdown()
    }

    /// Stops accepting and joins the acceptor pool. Blocked readers
    /// wake on a shutdown of their read half (their writers still drain
    /// what is in flight), blocked acceptors on a loopback connection.
    fn stop_network(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        for slot in self.live.iter() {
            if let Some(stream) = slot.lock().expect("live slot poisoned").as_ref() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for _ in 0..ACCEPTORS {
            wake_acceptor(self.addr);
        }
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Unblocks one thread blocked in `accept` on a listener bound at
/// `addr` with a throwaway loopback connection, so it sees its flag.
pub fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_network();
        // The driver handle (if still present) stops itself on drop.
    }
}

/// One outstanding single submit. `started` feeds the `net_request_ns`
/// histogram only — it never influences ordering or scheduling.
struct Outstanding {
    id: u64,
    ticket: Ticket,
    started: Instant,
    /// The client-assigned trace id, echoed on the reply frame.
    trace_id: Option<u64>,
    /// The request's trace context — the net layer's clone records the
    /// Reply span and finishes the tree when the answer flushes.
    trace: TraceContext,
}

/// One outstanding batch: slots resolve independently, the reply goes
/// out once all are done.
struct OutstandingBatch {
    id: u64,
    slots: Vec<BatchSlot>,
    started: Instant,
}

/// One member of a batch: a resolved ticket hands its answer over once,
/// by move, so the slot keeps it until the whole batch is done.
enum BatchSlot {
    Waiting(Ticket),
    Done(Result<bf_engine::Response, WireError>),
}

/// The reply off a resolved ticket or finished batch, held as the engine
/// delivered it until its release encodes it straight into the
/// connection's output buffer.
enum Reply {
    Answer {
        id: u64,
        response: bf_engine::Response,
        trace_id: Option<u64>,
    },
    Batch {
        id: u64,
        slots: Vec<Result<bf_engine::Response, WireError>>,
    },
    /// A `Refused` for a ticket that resolved to an error.
    Refused(ServerMessage),
}

/// What a connection's reader hands its writer, in order.
enum Outgoing {
    /// A direct reply (Welcome, Budget, Stats, a refusal, …).
    Reply(ServerMessage),
    Single(Outstanding),
    Batch(OutstandingBatch),
    /// A `Watch` subscription whose events the writer streams out.
    Watch(u64, BusSubscriber),
    /// Snapshot taken by the writer, so sealed traces of written answers
    /// are in it.
    Traces(u64),
    /// The client said `Goodbye`: drain, then `Farewell` as last frame.
    Goodbye(u64),
}

/// The process-shared state every connection on an acceptor borrows:
/// built once per acceptor thread, lent to each connection it serves in
/// turn.
struct AcceptorShared {
    server: Arc<Server>,
    config: NetConfig,
    closing: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    tokens: Arc<Mutex<HashMap<String, u64>>>,
    token_seed: u64,
    slo: Option<Arc<Mutex<SloEngine>>>,
}

/// What a connection's reader and writer share.
struct ConnShared {
    /// Outstanding **requests** (batch members each count — a
    /// thousand-member batch is a thousand queue slots, not one): the
    /// reader adds at admission, the writer subtracts at completion.
    in_flight: AtomicUsize,
}

/// Unparks the connection's writer when one of its tickets resolves.
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Serves one accepted connection to completion: the calling acceptor
/// thread reads, one scoped thread writes. `live` holds a clone of the
/// socket meanwhile so [`NetServer::stop_network`] can wake the reader.
fn serve_connection(stream: TcpStream, shared: &AcceptorShared, live: &Mutex<Option<TcpStream>>) {
    let _ = stream.set_nodelay(true);
    // A client that stops READING would otherwise wedge the writer in
    // write_all (and shutdown on the join): a stall this long is a dead peer.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let (Ok(write_half), Ok(kept)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    *live.lock().expect("live slot poisoned") = Some(kept);
    // A shutdown that ran before the slot was filled is seen here.
    if shared.closing.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let conn = ConnShared {
        in_flight: AtomicUsize::new(0),
    };
    // Bounded, so a client that reads slower than it asks back-pressures
    // the reader instead of growing the hand-over queue.
    let (tx, rx) = mpsc::sync_channel(shared.config.max_in_flight.max(1));
    std::thread::scope(|scope| {
        let writer = Writer {
            stream: write_half,
            rx,
            conn: &conn,
            counters: &shared.counters,
            shared,
            reader_gone: false,
            singles: Vec::new(),
            batches: Vec::new(),
            watch: None,
            goodbye: None,
            out: Vec::new(),
        };
        let writer = scope.spawn(move || writer.run());
        Connection {
            stream,
            shared,
            conn: &conn,
            tx,
            writer: Waker::from(Arc::new(Unpark(writer.thread().clone()))),
            frames: FrameBuf::new(),
            hello_done: false,
            attached: HashSet::new(),
        }
        .run();
        // The reader's end of the channel is gone; the writer finishes.
        writer.thread().unpark();
    });
    *live.lock().expect("live slot poisoned") = None;
}

/// The connection's reader: decodes and dispatches frames, handing
/// every reply or ticket to the writer.
struct Connection<'a> {
    stream: TcpStream,
    shared: &'a AcceptorShared,
    conn: &'a ConnShared,
    tx: mpsc::SyncSender<Outgoing>,
    /// Wakes the writer: after every hand-over, and after every event
    /// the bus queues on this connection's `Watch`.
    writer: Waker,
    frames: FrameBuf,
    hello_done: bool,
    /// Analysts whose sessions this connection attached via
    /// `OpenSession`. `BudgetAudit` — per-record labels and exact ε
    /// charges, a materially larger disclosure than the aggregate
    /// `Budget` snapshot — is served only for analysts in this set.
    attached: HashSet<String>,
}

/// Per-subscriber event-queue bound for `Watch` connections. A watcher
/// that falls further behind than this loses events (visible as gaps
/// in the sequence numbers) instead of growing server memory.
const WATCH_QUEUE_CAPACITY: usize = 256;
/// Max events flushed per writer pass, so a hot bus cannot starve
/// replies on the same connection.
const WATCH_BATCH: usize = 64;
/// Direct replies (no ticket, no release) framed in one writer pass are
/// flushed once they add up to this much, however many more are queued.
const DIRECT_REPLY_HIGH_WATER: usize = 256 * 1024;

impl Connection<'_> {
    /// Reads and dispatches frames until `Goodbye`, EOF (client gone, or
    /// server shutdown closing the read half) or a protocol violation.
    /// Blocks in `read` with no time-out: completions are the writer's.
    fn run(mut self) {
        let counters = &*self.shared.counters;
        loop {
            match self.frames.fill(&mut self.stream) {
                // EOF (client gone or shutdown) or a dead socket.
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            loop {
                let protocol_error = match self.frames.next_frame() {
                    FrameRead::Incomplete => break,
                    FrameRead::Corrupt => "corrupt frame",
                    FrameRead::Complete { payload, .. } => {
                        counters.frames_in.inc();
                        let mut clock = counters.obs.clock([]);
                        let msg = ClientMessage::decode(payload);
                        let decoded = clock.lap(Stage::Decode);
                        match msg {
                            Some(msg) => {
                                if !self.dispatch(msg, decoded) {
                                    return;
                                }
                                continue;
                            }
                            None => "undecodable message",
                        }
                    }
                };
                counters.protocol_errors.inc();
                self.refuse(0, WireError::Protocol(protocol_error.into()), None);
                return;
            }
        }
    }

    /// Hands `out` to the writer and wakes it. `false` when the writer
    /// is gone (dead peer) and the connection must close.
    fn send(&self, out: Outgoing) -> bool {
        let sent = self.tx.send(out).is_ok();
        self.writer.wake_by_ref();
        sent
    }

    /// Queues a direct reply frame behind whatever the writer already
    /// holds.
    fn reply(&self, msg: ServerMessage) -> bool {
        self.send(Outgoing::Reply(msg))
    }

    fn refuse(&self, id: u64, error: WireError, trace_id: Option<u64>) -> bool {
        self.reply(ServerMessage::Refused {
            id,
            error,
            trace_id,
        })
    }

    /// Handles one decoded message. Returns `false` when the connection
    /// must close (fatal protocol violation). `decoded` is the frame's
    /// Decode lap — a traced submit records it as the trace's Decode
    /// span.
    fn dispatch(&mut self, msg: ClientMessage, decoded: Lap) -> bool {
        let id = msg.id();
        if !self.hello_done && !matches!(msg, ClientMessage::Hello { .. }) {
            self.shared.counters.protocol_errors.inc();
            self.refuse(
                id,
                WireError::Protocol("first frame must be Hello".into()),
                None,
            );
            return false;
        }
        match msg {
            ClientMessage::Hello { id, version } => {
                if self.hello_done {
                    self.shared.counters.protocol_errors.inc();
                    self.refuse(id, WireError::Protocol("duplicate Hello".into()), None);
                    return false;
                }
                if version != PROTOCOL_VERSION {
                    self.refuse(
                        id,
                        WireError::Protocol(format!(
                            "version mismatch: server speaks {PROTOCOL_VERSION}, client {version}"
                        )),
                        None,
                    );
                    return false;
                }
                self.hello_done = true;
                self.reply(ServerMessage::Welcome { id, version })
            }
            ClientMessage::OpenSession {
                id,
                analyst,
                total_bits,
            } => {
                let reply = match bf_core::Epsilon::new(f64::from_bits(total_bits)) {
                    Err(e) => ServerMessage::Refused {
                        id,
                        error: WireError::InvalidRequest(e.to_string()),
                        trace_id: None,
                    },
                    Ok(total) => {
                        // Under replication the open itself is a log
                        // entry — every replica must agree on the
                        // analyst's total before any charge sequences
                        // after it.
                        let attached = match &self.shared.config.role {
                            ServerRole::Standalone => self
                                .shared
                                .server
                                .engine()
                                .attach_session(&analyst, total)
                                .map_err(|e| WireError::from_engine_error(&e)),
                            ServerRole::Replica(hook) => hook.sequence_open(&analyst, total_bits),
                        };
                        match attached {
                            Ok(remaining) => {
                                self.attached.insert(analyst.clone());
                                ServerMessage::SessionAttached {
                                    id,
                                    remaining_bits: remaining.to_bits(),
                                    token: self.issue_token(&analyst),
                                }
                            }
                            Err(error) => ServerMessage::Refused {
                                id,
                                error,
                                trace_id: None,
                            },
                        }
                    }
                };
                self.reply(reply)
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
                if let Some(error) = self.token_refusal(&analyst, token) {
                    return self.refuse(id, error, trace_id);
                }
                if let Some(refusal) = self.window_refusal(1) {
                    return self.refuse(id, refusal, trace_id);
                }
                // A traced submit mints the request's travelling context
                // here, at the wire boundary, and records the Decode lap
                // the frame just paid.
                let trace = match trace_id {
                    Some(tid) => self.shared.counters.obs.begin_trace(TraceId(tid), &analyst),
                    None => TraceContext::inert(),
                };
                decoded.record([&trace], "ok");
                match self.submit_one(&analyst, &request, request_id, deadline_micros, &trace) {
                    Ok(ticket) => self.admit(
                        1,
                        Outgoing::Single(Outstanding {
                            id,
                            ticket,
                            started: Instant::now(),
                            trace_id,
                            trace,
                        }),
                    ),
                    Err(error) => {
                        trace.finish("refused");
                        self.refuse(id, error, trace_id)
                    }
                }
            }
            ClientMessage::SubmitBatch {
                id,
                analyst,
                requests,
                token,
            } => {
                // The batch path charges the same ε budget as single
                // submits, so it passes the same session-token gate.
                if let Some(refusal) = self.token_refusal(&analyst, token) {
                    return self.refuse(id, refusal, None);
                }
                if let Some(refusal) = self.window_refusal(requests.len()) {
                    return self.refuse(id, refusal, None);
                }
                // Each member submits independently — a refused member
                // fails only its own slot — but no tick may drain between
                // them: compatible members land in the same epoch and
                // share releases.
                let slots: Vec<BatchSlot> = self
                    .submit_batch(&analyst, &requests)
                    .into_iter()
                    .map(|slot| match slot {
                        Ok(ticket) => BatchSlot::Waiting(ticket),
                        Err(refusal) => BatchSlot::Done(Err(refusal)),
                    })
                    .collect();
                self.admit(
                    slots.len(),
                    Outgoing::Batch(OutstandingBatch {
                        id,
                        slots,
                        started: Instant::now(),
                    }),
                )
            }
            ClientMessage::Budget { id, analyst } => {
                if let Some(error) = self.read_refusal() {
                    return self.refuse(id, error, None);
                }
                let reply = match self.shared.server.engine().session_snapshot(&analyst) {
                    Ok(snap) => ServerMessage::BudgetReport {
                        id,
                        total_bits: snap.total().value().to_bits(),
                        spent_bits: snap.spent().to_bits(),
                        remaining_bits: snap.remaining().to_bits(),
                        served: snap.served(),
                    },
                    Err(e) => ServerMessage::Refused {
                        id,
                        error: WireError::from_engine_error(&e),
                        trace_id: None,
                    },
                };
                self.reply(reply)
            }
            ClientMessage::Stats { id } => {
                if let Some(error) = self.read_refusal() {
                    return self.refuse(id, error, None);
                }
                // One merged snapshot covering every layer: engine,
                // store, server and net metrics all live on the two
                // registries `Engine::metrics_snapshot` folds together.
                let metrics = self
                    .scrape_local()
                    .iter()
                    .map(WireMetric::from_snapshot)
                    .collect();
                self.reply(ServerMessage::StatsReport { id, metrics })
            }
            ClientMessage::ClusterStats { id } => {
                if let Some(error) = self.read_refusal() {
                    return self.refuse(id, error, None);
                }
                // The serving node's own slice first, then one entry
                // per configured peer (scraped over the replication
                // peer port) — every reachable member exactly once,
                // unreachable members reported rather than dropped.
                // Samples go out with unqualified names; the client
                // qualifies each source with its `replica` label.
                let local = self
                    .scrape_local()
                    .iter()
                    .map(WireMetric::from_snapshot)
                    .collect();
                let node = match &self.shared.config.role {
                    ServerRole::Replica(hook) => hook.node_name(),
                    ServerRole::Standalone => STANDALONE.to_owned(),
                };
                let mut replicas = vec![WireReplicaStats {
                    node,
                    reachable: true,
                    metrics: local,
                }];
                if let ServerRole::Replica(hook) = &self.shared.config.role {
                    for peer in hook.scrape_peers() {
                        replicas.push(WireReplicaStats {
                            node: peer.node,
                            reachable: peer.reachable,
                            metrics: peer.metrics.iter().map(WireMetric::from_snapshot).collect(),
                        });
                    }
                }
                self.reply(ServerMessage::ClusterStatsReport { id, replicas })
            }
            ClientMessage::Health { id } => {
                // No read-refusal gate: a lagging or fenced replica
                // must still report *that* it is lagging — health is
                // what a load balancer decides eviction by.
                let health = match &self.shared.config.role {
                    ServerRole::Replica(hook) => hook.health(),
                    ServerRole::Standalone => None,
                };
                // Snapshot after the hook's peer probes: they refresh
                // the cluster-lag gauge the SLO evaluation reads.
                let snaps = self.shared.server.engine().metrics_snapshot();
                let firing = self.observe_slos(&snaps);
                let gauge_sum = |prefix: &str| {
                    snaps
                        .iter()
                        .filter(|s| s.name().starts_with(prefix))
                        .map(|s| match s {
                            MetricSnapshot::Gauge { value, .. } => *value,
                            _ => 0.0,
                        })
                        .sum::<f64>()
                };
                let wal_segments =
                    gauge_sum("store_live_wal_segments") + gauge_sum("store_archived_wal_segments");
                let queue_depth = gauge_sum("server_queue_depth{");
                let (role, epoch, applied, lag, unreachable) = match health {
                    Some(h) => (h.role, h.epoch, h.applied, h.lag, h.unreachable),
                    None => (STANDALONE.to_owned(), 0, 0, 0, Vec::new()),
                };
                self.reply(ServerMessage::HealthReport {
                    id,
                    role,
                    epoch,
                    applied,
                    lag,
                    wal_segments: wal_segments as u64,
                    queue_depth: queue_depth as u64,
                    unreachable,
                    firing,
                })
            }
            ClientMessage::Watch { id } => {
                // Attach a bounded bus subscription that wakes the
                // writer, which pumps its events out as `Event` frames
                // echoing this id. One watch per connection: a second
                // Watch replaces the first (whose queued events are
                // dropped with it).
                let sub = self
                    .shared
                    .counters
                    .obs
                    .bus()
                    .subscribe(WATCH_QUEUE_CAPACITY, self.writer.clone());
                self.send(Outgoing::Watch(id, sub))
            }
            ClientMessage::Traces { id } => {
                if let Some(error) = self.read_refusal() {
                    return self.refuse(id, error, None);
                }
                self.send(Outgoing::Traces(id))
            }
            ClientMessage::BudgetAudit { id, analyst, token } => {
                if let Some(error) = self.read_refusal() {
                    return self.refuse(id, error, None);
                }
                // Per-record provenance (exact labels and ε per query)
                // is only served to a connection that attached the
                // analyst's session — reattaching requires the
                // session's original ε total, so a stranger on the
                // same port cannot walk another analyst's history —
                // and that presented the session token the attach
                // handed back.
                let reply = if !self.attached.contains(&analyst) {
                    ServerMessage::Refused {
                        id,
                        error: WireError::InvalidRequest(format!(
                            "audit for {analyst:?} requires a session \
                             attached on this connection"
                        )),
                        trace_id: None,
                    }
                } else if let Some(error) = self.token_refusal(&analyst, token) {
                    ServerMessage::Refused {
                        id,
                        error,
                        trace_id: None,
                    }
                } else {
                    match self.shared.server.engine().ledger_history(&analyst) {
                        Ok(entries) => ServerMessage::AuditReport { id, entries },
                        Err(e) => ServerMessage::Refused {
                            id,
                            error: WireError::from_engine_error(&e),
                            trace_id: None,
                        },
                    }
                };
                self.reply(reply)
            }
            ClientMessage::LogCatchup { id, .. }
            | ClientMessage::ReplicateAck { id, .. }
            | ClientMessage::PeerStatus { id } => {
                // Replication frames travel replica-to-replica on the
                // peer port; a client sending one here is confused or
                // probing.
                self.shared.counters.protocol_errors.inc();
                self.refuse(
                    id,
                    WireError::Protocol(
                        "replication frames are peer-to-peer, not served on the client port".into(),
                    ),
                    None,
                )
            }
            ClientMessage::Goodbye { id } => {
                // Ends reading: nothing after a Goodbye is served, so
                // the writer's Farewell stays the last frame.
                self.send(Outgoing::Goodbye(id));
                false
            }
        }
    }

    /// Gets-or-derives the session token for `analyst`. Tokens are
    /// process-stable: a reconnecting client reattaching the same
    /// session gets the same token back.
    fn issue_token(&self, analyst: &str) -> u64 {
        let mut book = self.shared.tokens.lock().expect("token book poisoned");
        *book.entry(analyst.to_owned()).or_insert_with(|| {
            let mut bytes = self.shared.token_seed.to_le_bytes().to_vec();
            bytes.extend_from_slice(analyst.as_bytes());
            // Zero means "no token" on the wire, so never issue it.
            fnv1a(&bytes).max(1)
        })
    }

    /// Refuses a request that should have presented `analyst`'s session
    /// token but didn't (or presented a stale/forged one) — on every
    /// connection, once a wire `OpenSession` issued a token for the
    /// analyst; sessions opened in-process are exempt.
    fn token_refusal(&self, analyst: &str, presented: Option<u64>) -> Option<WireError> {
        let expected = self
            .shared
            .tokens
            .lock()
            .expect("token book poisoned")
            .get(analyst)
            .copied()?;
        if presented == Some(expected) {
            None
        } else {
            Some(WireError::InvalidRequest(format!(
                "missing or invalid session token for {analyst:?}; \
                 reattach the session to obtain one"
            )))
        }
    }

    /// The replication layer's veto on serving reads locally (`None`
    /// under [`ServerRole::Standalone`]).
    fn read_refusal(&self) -> Option<WireError> {
        match &self.shared.config.role {
            ServerRole::Standalone => None,
            ServerRole::Replica(hook) => hook.refuse_read(),
        }
    }

    /// The local scrape path shared by `Stats` and `ClusterStats`:
    /// refresh hook-owned gauges from live node state, feed one sample
    /// through the SLO engine, and return a snapshot that includes the
    /// updated `slo_firing` gauges. Without configured SLOs this is one
    /// snapshot and nothing else.
    fn scrape_local(&self) -> Vec<MetricSnapshot> {
        if let ServerRole::Replica(hook) = &self.shared.config.role {
            hook.refresh_observability();
        }
        let snaps = self.shared.server.engine().metrics_snapshot();
        if self.shared.slo.is_none() {
            return snaps;
        }
        self.observe_slos(&snaps);
        // Re-read so the reply carries the slo_firing gauges this very
        // scrape just updated (scrapes are rare; the second pass is
        // cheaper than serving stale SLO state).
        self.shared.server.engine().metrics_snapshot()
    }

    /// Feeds one scrape sample through the SLO engine (no-op without
    /// configured SLOs): updates the `slo_firing` gauges, publishes
    /// firing/ok flips on the live event bus, and returns the names
    /// currently firing.
    fn observe_slos(&self, snaps: &[MetricSnapshot]) -> Vec<String> {
        let Some(slo) = self.shared.slo.as_ref() else {
            return Vec::new();
        };
        let mut slo = slo.lock().expect("slo engine poisoned");
        for flip in slo.observe(snaps) {
            self.shared.counters.obs.bus().publish(
                ClusterEventKind::Slo,
                &flip.slo,
                u64::from(flip.firing),
            );
        }
        slo.firing()
    }

    /// Counts `n` admitted requests against the window and hands their
    /// tickets to the writer.
    fn admit(&self, n: usize, out: Outgoing) -> bool {
        self.conn.in_flight.fetch_add(n, Ordering::SeqCst);
        self.send(out)
    }

    /// Refuses when admitting `incoming` more requests would overflow
    /// the connection's window.
    fn window_refusal(&self, incoming: usize) -> Option<WireError> {
        let in_flight = self.conn.in_flight.load(Ordering::SeqCst);
        if in_flight + incoming > self.shared.config.max_in_flight {
            self.shared.counters.window_refusals.inc();
            Some(WireError::WindowFull {
                capacity: self.shared.config.max_in_flight as u64,
            })
        } else {
            None
        }
    }

    /// One slot per batch member, in order. Standalone, the members that
    /// decode enqueue under one hold of the scheduler lock.
    fn submit_batch(
        &self,
        analyst: &str,
        requests: &[crate::proto::WireRequest],
    ) -> Vec<Result<Ticket, WireError>> {
        let inert = TraceContext::inert();
        if !matches!(self.shared.config.role, ServerRole::Standalone)
            || self.shared.closing.load(Ordering::Acquire)
        {
            return requests
                .iter()
                .map(|request| self.submit_one(analyst, request, None, None, &inert))
                .collect();
        }
        let mut sound = Vec::with_capacity(requests.len());
        let decoded: Vec<_> = requests
            .iter()
            .map(|request| request.to_request().map(|r| sound.push(r)))
            .collect();
        let mut tickets = self.shared.server.submit_many(analyst, sound).into_iter();
        decoded
            .into_iter()
            .map(|decoded| {
                decoded?;
                let ticket = tickets.next().expect("one ticket per decoded member");
                ticket.map_err(|e| WireError::from_server_error(&e))
            })
            .collect()
    }

    fn submit_one(
        &self,
        analyst: &str,
        request: &crate::proto::WireRequest,
        request_id: Option<u64>,
        deadline_micros: Option<u64>,
        trace: &TraceContext,
    ) -> Result<Ticket, WireError> {
        if self.shared.closing.load(Ordering::Acquire) {
            return Err(WireError::ShutDown);
        }
        // The top quarter of the id space is reserved for log-position-
        // derived idempotency keys (see `RESERVED_REQUEST_ID_BASE`);
        // letting a client key land there could alias another request's
        // cached reply.
        if request_id.is_some_and(|rid| rid >= crate::proto::RESERVED_REQUEST_ID_BASE) {
            return Err(WireError::InvalidRequest(format!(
                "request_id {} is in the reserved range (>= 2^62); \
                 pick an id below {}",
                request_id.unwrap_or(0),
                crate::proto::RESERVED_REQUEST_ID_BASE,
            )));
        }
        let request = request.to_request()?;
        match &self.shared.config.role {
            ServerRole::Standalone => self
                .shared
                .server
                .submit_traced(
                    analyst,
                    request,
                    request_id,
                    deadline_micros.map(Duration::from_micros),
                    trace.clone(),
                )
                .map_err(|e| WireError::from_server_error(&e)),
            // Replicated writes sequence through the log instead of the
            // local scheduler; the deadline is dropped (wall-clock
            // dependent — see [`ReplicaHook::sequence_submit`]).
            ServerRole::Replica(hook) => hook.sequence_submit(analyst, request_id, request),
        }
    }
}

/// The connection's writer — the socket's **only** writer, so frames
/// never interleave and the chaos op clock counts answers in write
/// order. Owns the outstanding tickets; dropping them (client gone) lets
/// the scheduler's sweep cancel their work before any charge.
struct Writer<'a> {
    stream: TcpStream,
    rx: mpsc::Receiver<Outgoing>,
    conn: &'a ConnShared,
    shared: &'a AcceptorShared,
    counters: &'a NetCounters,
    /// The reader exited (its end of `rx` is gone).
    reader_gone: bool,
    singles: Vec<Outstanding>,
    batches: Vec<OutstandingBatch>,
    /// The live `Watch` subscription, if any: its correlation id and the
    /// bus subscription whose events go out as `Event` frames.
    watch: Option<(u64, BusSubscriber)>,
    goodbye: Option<u64>,
    /// Frames encoded and not yet written. Every frame is encoded in
    /// place here ([`Writer::frame`]) and leaves in [`Writer::flush`], so
    /// a pass is one `write_all` however many answers it carries.
    out: Vec<u8>,
}

impl Writer<'_> {
    /// Writes until the connection's ending, parking whenever there is
    /// nothing to write, with no time-out: a ticket's waker, the reader
    /// or a `Watch` event unparks it. Each pass re-checks all state
    /// before parking, so the park token keeps a wake-up that lands in
    /// between.
    fn run(mut self) {
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        while let Ok(written) = self.pass(&waker) {
            let in_flight = self.conn.in_flight.load(Ordering::SeqCst);
            let done = match self.goodbye {
                // Orderly ending: everything owed is answered.
                Some(id) => {
                    in_flight == 0 && {
                        self.frame_message(&ServerMessage::Farewell { id });
                        let _ = self.flush();
                        true
                    }
                }
                // Reader EOF: a server shutdown still owes what is in
                // flight; a gone client's tickets drop with `self`.
                None => {
                    self.reader_gone
                        && (in_flight == 0 || !self.shared.closing.load(Ordering::SeqCst))
                }
            };
            if done {
                break;
            }
            if written == 0 {
                std::thread::park();
            }
        }
        if self.conn.in_flight.load(Ordering::SeqCst) > 0 {
            self.counters.disconnects_mid_request.inc();
        }
        // Also wakes a reader still blocked in `read`.
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// One pass over everything that can produce a frame, returning how
    /// many were written (an error means the peer is dead).
    fn pass(&mut self, waker: &Waker) -> std::io::Result<usize> {
        let mut written = 0;
        loop {
            match self.rx.try_recv() {
                Ok(Outgoing::Reply(msg)) => {
                    self.frame_message(&msg);
                    written += 1;
                    // A reader that keeps this loop fed must not grow
                    // the buffer without bound.
                    if self.out.len() >= DIRECT_REPLY_HIGH_WATER {
                        self.flush()?;
                    }
                }
                Ok(Outgoing::Traces(id)) => {
                    let traces = self.counters.obs.trace_buffer().snapshot();
                    self.frame_message(&ServerMessage::TraceReport { id, traces });
                    written += 1;
                }
                Ok(Outgoing::Single(o)) => self.singles.push(o),
                Ok(Outgoing::Batch(b)) => self.batches.push(b),
                Ok(Outgoing::Watch(id, sub)) => self.watch = Some((id, sub)),
                Ok(Outgoing::Goodbye(id)) => self.goodbye = Some(id),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.reader_gone = true;
                    break;
                }
            }
        }
        written += self.flush_completions(waker)?;
        // Watch events are suspended once a Goodbye starts draining, so
        // the Farewell is the last frame.
        if self.goodbye.is_none() {
            written += self.pump_watch();
        }
        self.flush()?;
        Ok(written)
    }

    /// Frames every event queued on the connection's `Watch`
    /// subscription (bounded per pass), returning how many there were.
    fn pump_watch(&mut self) -> usize {
        let (watch_id, events) = match &self.watch {
            Some((id, sub)) => (*id, sub.drain(WATCH_BATCH)),
            None => return 0,
        };
        for event in &events {
            self.frame_message(&ServerMessage::Event {
                id: watch_id,
                seq: event.seq,
                kind: WireEventKind::from(event.kind),
                detail: event.detail.clone(),
                value: event.value,
            });
        }
        events.len()
    }

    /// Collects the reply of every resolved ticket and completed batch
    /// and writes them, returning how many went out. Polling with `waker`
    /// is what arms each still-pending ticket to unpark this thread when
    /// it resolves.
    fn flush_completions(&mut self, waker: &Waker) -> std::io::Result<usize> {
        let mut cx = Context::from_waker(waker);
        let metrics_on = self.counters.obs.is_enabled();
        let request_ns = &self.counters.request_ns;
        let mut replies = Vec::new();
        let mut answered = 0;
        self.singles
            .retain_mut(|o| match Pin::new(&mut o.ticket).poll(&mut cx) {
                Poll::Pending => true,
                Poll::Ready(result) => {
                    if metrics_on {
                        request_ns.record_duration(o.started.elapsed());
                    }
                    let (reply, outcome) = match result {
                        Ok(response) => (
                            Reply::Answer {
                                id: o.id,
                                response,
                                trace_id: o.trace_id,
                            },
                            "ok",
                        ),
                        Err(e) => (
                            Reply::Refused(ServerMessage::Refused {
                                id: o.id,
                                error: WireError::from_server_error(&e),
                                trace_id: o.trace_id,
                            }),
                            "refused",
                        ),
                    };
                    replies.push((reply, o.trace.clone(), outcome));
                    answered += 1;
                    false
                }
            });
        let mut finished: Vec<usize> = Vec::new();
        for (i, batch) in self.batches.iter_mut().enumerate() {
            let done = batch.slots.iter_mut().all(|slot| {
                if let BatchSlot::Waiting(ticket) = slot {
                    match Pin::new(ticket).poll(&mut cx) {
                        Poll::Pending => return false,
                        Poll::Ready(result) => {
                            *slot = BatchSlot::Done(
                                result.map_err(|e| WireError::from_server_error(&e)),
                            );
                        }
                    }
                }
                true
            });
            if done {
                finished.push(i);
            }
        }
        for i in finished.into_iter().rev() {
            let batch = self.batches.swap_remove(i);
            answered += batch.slots.len();
            if metrics_on {
                // One sample per member: a batch of n occupied n window
                // slots for its whole flight.
                for _ in 0..batch.slots.len() {
                    request_ns.record_duration(batch.started.elapsed());
                }
            }
            let slots = batch
                .slots
                .into_iter()
                .map(|slot| match slot {
                    BatchSlot::Done(result) => result,
                    BatchSlot::Waiting(_) => unreachable!("every slot resolved above"),
                })
                .collect();
            replies.push((
                Reply::Batch {
                    id: batch.id,
                    slots,
                },
                TraceContext::inert(),
                "ok",
            ));
        }
        if replies.is_empty() {
            return Ok(0);
        }
        self.conn.in_flight.fetch_sub(answered, Ordering::SeqCst);
        let mut clock = self.counters.obs.clock(replies.iter().map(|(_, t, _)| t));
        for (reply, _, _) in &replies {
            match reply {
                Reply::Answer {
                    id,
                    response,
                    trace_id,
                } => self.frame_answer(|out| {
                    ServerMessage::encode_answer_into(out, *id, response, *trace_id)
                })?,
                Reply::Batch { id, slots } => self
                    .frame_answer(|out| ServerMessage::encode_batch_answer_into(out, *id, slots))?,
                Reply::Refused(refusal) => self.frame_message(refusal),
            }
        }
        self.flush()?;
        let reply = clock.lap(Stage::Reply);
        // Close out every traced request that just flushed: record its
        // Reply span and seal the tree into the trace buffer.
        for (_, trace, outcome) in &replies {
            reply.record([trace], outcome);
            trace.finish(outcome);
        }
        Ok(replies.len())
    }

    /// Encodes one frame onto the end of the output buffer;
    /// [`Writer::flush`] sends it.
    fn frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.counters.frames_out.inc();
        frame_into(&mut self.out, encode);
    }

    fn frame_message(&mut self, msg: &ServerMessage) {
        self.frame(|out| msg.encode_into(out));
    }

    /// [`Writer::frame`] for an **answer** frame (`Answer` /
    /// `BatchAnswer`), the unit the chaos plan's op clock counts — so a
    /// scripted schedule addresses "the 3rd answer" no matter how many
    /// handshake or stats frames interleave, or how many answers share a
    /// write: a due fault cuts the buffer at this frame's boundary, and
    /// what was framed before it is written whole first.
    fn frame_answer(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        let fault = self.shared.config.fault_plan.as_ref();
        let Some(fault) = fault.and_then(|plan| plan.next()) else {
            self.frame(encode);
            return Ok(());
        };
        self.counters.faults_injected.inc();
        self.flush()?;
        let ending = match fault {
            bf_chaos::NetFault::DelayReplyMicros(us) => {
                std::thread::sleep(Duration::from_micros(us));
                self.frame(encode);
                return Ok(());
            }
            bf_chaos::NetFault::DropConnection => "chaos: connection dropped before reply",
            bf_chaos::NetFault::TruncateReply => {
                // Alone in the buffer since the flush above.
                self.frame(encode);
                self.out.truncate(self.out.len() / 2);
                let _ = self.flush();
                "chaos: reply frame truncated mid-write"
            }
        };
        let _ = self.stream.shutdown(Shutdown::Both);
        Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            ending,
        ))
    }

    /// Sends everything framed since the last flush in one `write_all`.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.out);
        self.out.clear();
        sent
    }
}
