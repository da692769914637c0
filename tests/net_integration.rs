//! End-to-end tests of the network stack, every `NetServer` and `Client`
//! test in one place: real sockets — a `Client`, or a raw socket that
//! sends hand-made frames — against the TCP front-end, over the async
//! server, over an engine that is WAL-backed where a test needs a ledger
//! on disk. Request tracing over the wire and the ε-provenance audit
//! (`Client::audit` replaying the WAL's ledger history) are tested here
//! too.

use blowfish::chaos::{NetFault, NetPlan, StoreFault, StorePlan};
use blowfish::net::proto::{WireRequest, RESERVED_REQUEST_ID_BASE};
use blowfish::net::{ClientMessage, ReplicaHook, ServerMessage, ServerRole, WireMetric};
use blowfish::obs::{ClusterEventKind, Stage};
use blowfish::prelude::*;
use blowfish::store::{frame_bytes, read_frame, scratch_dir, FrameRead};
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// A range over `ds` under `pol`.
fn range(epsilon: f64, lo: usize, hi: usize) -> Request {
    Request::range("pol", "ds", eps(epsilon), lo, hi)
}

/// An engine with `pol` (θ = 2 on a 64-cell line), `ds` (640 rows) and
/// `pts` (two pairs of points in a 10 × 10 box), on `store` when given.
fn engine(seed: u64, store: Option<Arc<Store>>) -> Arc<Engine> {
    let engine = match store {
        Some(store) => Engine::with_store(seed, store),
        None => Engine::with_seed(seed),
    };
    let domain = Domain::line(64).unwrap();
    engine
        .register_policy("pol", Policy::distance_threshold(domain.clone(), 2))
        .unwrap();
    let rows: Vec<usize> = (0..640).map(|i| (i * 7) % 64).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    let points = vec![
        vec![1.0, 1.0],
        vec![1.2, 0.8],
        vec![9.0, 9.0],
        vec![8.8, 9.1],
    ];
    let bbox = BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]);
    engine
        .register_points("pts", PointSet::new(points, bbox))
        .unwrap();
    Arc::new(engine)
}

fn bind(engine: Arc<Engine>, server_config: ServerConfig, net_config: NetConfig) -> NetServer {
    let server = Arc::new(Server::new(engine, server_config));
    NetServer::bind("127.0.0.1:0", server, net_config).unwrap()
}

fn net_with(seed: u64, net_config: NetConfig) -> NetServer {
    bind(engine(seed, None), ServerConfig::default(), net_config)
}

fn net(seed: u64) -> NetServer {
    net_with(seed, NetConfig::default())
}

/// A client of `net` with `analyst`'s session open at `total` ε.
fn client(net: &NetServer, analyst: &str, total: f64) -> Client {
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session(analyst, total).unwrap();
    client
}

/// A wire fault on the `at`-th answer frame.
fn chaos(at: u64, fault: NetFault) -> NetConfig {
    NetConfig {
        fault_plan: Some(Arc::new(NetPlan::scripted([(at, fault)]))),
        ..NetConfig::default()
    }
}

/// How long [`held_store`]'s commits take: long against a loopback
/// round trip, short against a test.
const HOLD: Duration = Duration::from_millis(100);

/// A store in a fresh scratch directory (returned for the test to
/// remove) whose every commit takes at least [`HOLD`]. The commit is the
/// scheduler's window, so whatever a test sends while one request's
/// epoch commits is still queued when it returns, and is served together
/// as the next epoch.
fn held_store(tag: &str) -> (Arc<Store>, std::path::PathBuf) {
    let dir = scratch_dir(tag);
    let fault = StoreFault::DelaySyncMicros(HOLD.as_micros() as u64);
    let config = StoreConfig {
        fault_plan: Some(Arc::new(StorePlan::every_kth(1, fault))),
        ..StoreConfig::default()
    };
    (Arc::new(Store::open_with(&dir, config).unwrap()), dir)
}

/// Submits a primer request for `analyst` and returns once its epoch is
/// drained — that is, while its (held) commit is in flight.
fn prime(net: &NetServer, client: &mut Client, analyst: &str) -> u64 {
    let ticks = net.server().stats().ticks;
    let id = client.submit(analyst, &range(0.01, 1, 2)).unwrap();
    while net.server().stats().ticks == ticks {
        std::thread::yield_now();
    }
    id
}

/// A raw socket that sends exactly the frames a test hands it — no
/// tokens presented for it, no retries.
struct Raw {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Raw {
    fn dial(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Raw {
            stream,
            buf: Vec::new(),
        }
    }

    /// Dials `addr` and says `Hello` in the server's version.
    fn hello(addr: SocketAddr) -> Raw {
        let mut raw = Raw::dial(addr);
        let version = blowfish::net::PROTOCOL_VERSION;
        let welcome = raw.call(ClientMessage::Hello { id: 1, version });
        assert!(
            matches!(welcome, ServerMessage::Welcome { version: v, .. } if v == version),
            "expected Welcome, got {welcome:?}"
        );
        raw
    }

    fn send(&mut self, messages: impl IntoIterator<Item = ClientMessage>) {
        let bytes: Vec<u8> = messages
            .into_iter()
            .flat_map(|message| frame_bytes(&message.encode()))
            .collect();
        self.stream.write_all(&bytes).unwrap();
    }

    /// Reads until `count` replies have arrived, the server closes the
    /// connection, or it has said nothing for five seconds: the replies,
    /// and whether it closed with no partial frame left unread.
    fn read(&mut self, count: usize) -> (Vec<ServerMessage>, bool) {
        let mut replies = Vec::new();
        let mut chunk = [0u8; 4096];
        while replies.len() < count {
            if let FrameRead::Complete { payload, consumed } = read_frame(&self.buf) {
                replies.push(ServerMessage::decode(payload).expect("a whole reply"));
                self.buf.drain(..consumed);
                continue;
            }
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), TimedOut | WouldBlock) => break,
                _ => return (replies, self.buf.is_empty()),
            }
        }
        (replies, false)
    }

    fn call(&mut self, message: ClientMessage) -> ServerMessage {
        self.send([message]);
        let (mut replies, _) = self.read(1);
        replies.pop().expect("the server closed mid-call")
    }

    /// Opens `analyst`'s session at `total` ε and returns its token.
    fn open(&mut self, analyst: &str, total: f64) -> u64 {
        let (analyst, total_bits) = (analyst.into(), total.to_bits());
        let open = ClientMessage::OpenSession {
            id: 2,
            analyst,
            total_bits,
        };
        match self.call(open) {
            ServerMessage::SessionAttached { token, .. } => token,
            other => panic!("expected SessionAttached, got {other:?}"),
        }
    }
}

fn submit(id: u64, analyst: &str, request: &Request, token: Option<u64>) -> ClientMessage {
    ClientMessage::Submit {
        id,
        analyst: analyst.into(),
        request: WireRequest::from_request(request),
        request_id: None,
        deadline_micros: None,
        trace_id: None,
        token,
    }
}

#[test]
fn pipelined_submissions_answer_out_of_order_waits() {
    let net = net(12);
    let mut client = client(&net, "p", 10.0);
    let ids: Vec<u64> = (0..16)
        .map(|i| client.submit("p", &range(0.1, i, i + 20)).unwrap())
        .collect();
    // Wait newest-first: the client buffers replies for other ids.
    for &id in ids.iter().rev() {
        assert!(client.wait(id).unwrap().scalar().unwrap().is_finite());
    }
    assert_eq!(net.server().stats().answered, 16);
    net.shutdown().unwrap();
}

/// The window bounds requests, not frames: with two in flight a third
/// submit is refused, and so is a batch of three with nothing else
/// outstanding. Commits are held, so the first answer cannot race the
/// third submit.
#[test]
fn in_flight_window_refuses_over_the_wire() {
    let (store, dir) = held_store("net-window");
    let window = NetConfig {
        max_in_flight: 2,
        ..NetConfig::default()
    };
    let net = bind(engine(13, Some(store)), ServerConfig::default(), window);
    let mut client = client(&net, "w", 10.0);
    let ids: Vec<u64> = (10..13)
        .map(|hi| client.submit("w", &range(0.1, 0, hi)).unwrap())
        .collect();
    match client.wait(ids[2]) {
        Err(NetError::Remote(WireError::WindowFull { capacity })) => assert_eq!(capacity, 2),
        other => panic!("expected WindowFull, got {other:?}"),
    }
    assert!(client.wait(ids[0]).is_ok());
    assert!(client.wait(ids[1]).is_ok());
    assert_eq!(net.stats().window_refusals, 1);
    let requests: Vec<Request> = (0..3).map(|i| range(0.1, i, i + 10)).collect();
    match client.call_batch("w", &requests) {
        Err(NetError::Remote(WireError::WindowFull { capacity })) => assert_eq!(capacity, 2),
        other => panic!("expected WindowFull, got {other:?}"),
    }
    // A fitting batch goes through.
    assert!(client.call_batch("w", &requests[..2]).is_ok());
    net.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_over_the_wire_folds_ranges_into_shared_releases() {
    // The batch arrives in one frame and is submitted under one hold of
    // the scheduler lock, so no tick can split it: all six members ride
    // one epoch, whatever the load on the test host.
    let net = net(14);
    let mut client = client(&net, "b", 10.0);
    let requests: Vec<Request> = (0..6).map(|i| range(0.5, i, i + 30)).collect();
    let slots = client.call_batch("b", &requests).unwrap();
    assert_eq!(slots.len(), 6);
    for slot in &slots {
        assert!(slot.as_ref().unwrap().scalar().is_some());
    }
    let stats = net.server().stats();
    assert_eq!(stats.answered, 6);
    assert_eq!(
        (stats.releases, stats.batched_range_answers),
        (1, 6),
        "same-(policy, data, ε) ranges share one Ordered release"
    );
    // One charge per shared release, not one per slot.
    let snap = net.server().engine().session_snapshot("b").unwrap();
    assert!(snap.spent() < 6.0 * 0.5 - 1e-9, "spent {}", snap.spent());
    net.shutdown().unwrap();
}

#[test]
fn typed_errors_cross_the_wire() {
    let net = net(15);
    let mut client = Client::connect(net.local_addr()).unwrap();
    // Unknown analyst refuses at submit.
    let id = client.submit("ghost", &range(0.1, 0, 5)).unwrap();
    assert!(matches!(
        client.wait(id),
        Err(NetError::Remote(WireError::UnknownAnalyst(a))) if a == "ghost"
    ));
    // Admission control: over-budget ε refuses with exact bits.
    client.open_session("tiny", 0.25).unwrap();
    let id = client.submit("tiny", &range(0.5, 0, 5)).unwrap();
    match client.wait(id) {
        Err(NetError::Remote(WireError::BudgetExhausted {
            requested_bits,
            remaining_bits,
            ..
        })) => {
            assert_eq!(f64::from_bits(requested_bits), 0.5);
            assert_eq!(f64::from_bits(remaining_bits), 0.25);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // Unknown policy fails the ticket, not the connection.
    let id = client
        .submit("tiny", &Request::range("nope", "ds", eps(0.1), 0, 5))
        .unwrap();
    assert!(matches!(
        client.wait(id),
        Err(NetError::Remote(WireError::UnknownPolicy(_)))
    ));
    // The connection still serves.
    assert!(client.call("tiny", &range(0.1, 0, 5)).is_ok());
    net.shutdown().unwrap();
}

#[test]
fn reconnect_reattaches_sessions_on_the_same_ledger() {
    let net = net(17);
    let mut client = client(&net, "r", 2.0);
    client.call("r", &range(0.75, 4, 40)).unwrap();
    let reattached = client.reconnect().unwrap();
    assert_eq!(reattached.len(), 1);
    assert_eq!(reattached[0].0, "r");
    assert!((reattached[0].1 - 1.25).abs() < 1e-12, "spent ε survives");
    // The reattached session keeps serving on the same ledger.
    client.call("r", &range(0.25, 4, 40)).unwrap();
    assert!((client.budget("r").unwrap().remaining - 1.0).abs() < 1e-12);
    net.shutdown().unwrap();
}

#[test]
fn kmeans_crosses_the_wire_with_its_spec() {
    let net = net(31);
    let mut client = client(&net, "km", 5.0);
    let spec = KmeansSecretSpec::L1Threshold(1.0);
    let response = client
        .call("km", &Request::kmeans("pol", "pts", eps(2.0), 2, 3, spec))
        .unwrap();
    let centroids = response.centroids().unwrap();
    assert_eq!(centroids.len(), 2);
    assert!(centroids.iter().all(|c| c.len() == 2));
    assert!((client.budget("km").unwrap().remaining - 3.0).abs() < 1e-12);
    net.shutdown().unwrap();
}

#[test]
fn invalid_kmeans_spec_is_an_error_reply_not_a_dead_driver() {
    // The spec's f64 bits and the iteration count cross the wire
    // unchecked; each of these used to panic the scheduler driver (or
    // pin it), taking every later request on the server with it.
    let net = net(43);
    let mut client = client(&net, "km", 5.0);
    let bad = [
        (3, KmeansSecretSpec::L1Threshold(0.0)),
        (3, KmeansSecretSpec::L1Threshold(-1.0)),
        (3, KmeansSecretSpec::L1Threshold(f64::NAN)),
        (3, KmeansSecretSpec::PartitionMaxDiameter(-1.0)),
        (3, KmeansSecretSpec::PartitionMaxDiameter(f64::NAN)),
        (1 << 40, KmeansSecretSpec::Full),
    ];
    for (iterations, spec) in bad {
        let kmeans = Request::kmeans("pol", "pts", eps(2.0), 2, iterations, spec);
        let reply = client.call("km", &kmeans);
        assert!(
            matches!(reply, Err(NetError::Remote(WireError::InvalidRequest(_)))),
            "{iterations} iterations of {spec:?}: {reply:?}"
        );
        assert_eq!(client.budget("km").unwrap().remaining, 5.0);
    }
    // The same connection, and the driver behind it, still serve.
    let ok = Request::kmeans("pol", "pts", eps(2.0), 2, 3, KmeansSecretSpec::Full);
    assert_eq!(
        client.call("km", &ok).unwrap().centroids().unwrap().len(),
        2
    );
    assert_eq!(client.budget("km").unwrap().remaining, 3.0);
    net.shutdown().unwrap();
}

/// One writer per socket: 64 pipelined submits and a `Goodbye` sent
/// without reading anything come back as exactly one answer per id,
/// then `Farewell` as the last frame, then EOF. Goodbye drains the work
/// in flight, a raw socket's or a `Client`'s; it does not drop it.
#[test]
fn goodbye_drains_in_flight_work_before_closing() {
    let net = net(31);
    let mut raw = Raw::hello(net.local_addr());
    let token = raw.open("p", 100.0);
    let submits = (0..64u64).map(|i| {
        let lo = i as usize % 40;
        submit(100 + i, "p", &range(0.01, lo, lo + 20), Some(token))
    });
    raw.send(submits.chain([ClientMessage::Goodbye { id: 999 }]));
    let (replies, closed) = raw.read(usize::MAX);
    let (last, answers) = replies.split_last().expect("a reply before EOF");
    let mut answered = std::collections::BTreeSet::new();
    for reply in answers {
        match reply {
            ServerMessage::Answer { id, .. } => assert!(answered.insert(*id), "id {id} twice"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(
        answered.into_iter().collect::<Vec<_>>(),
        (100..164).collect::<Vec<_>>()
    );
    assert!(
        matches!(last, ServerMessage::Farewell { id: 999 }) && closed,
        "Farewell must be the last frame, then EOF: {last:?}"
    );
    let mut polite = client(&net, "polite", 1.0);
    for i in 0..4 {
        polite.submit("polite", &range(0.1, i, i + 10)).unwrap();
    }
    polite.goodbye().unwrap();
    let stats = net.server().stats();
    assert_eq!((stats.submitted, stats.cancelled), (68, 0));
    assert_eq!(stats.answered, 68, "goodbye must drain, not drop");
    assert_eq!(net.stats().disconnects_mid_request, 0);
    net.shutdown().unwrap();
}

/// Shutdown wakes a reader blocked in `read` and acceptors blocked in
/// `accept`; it does not wait for a connected client to hang up. After
/// it, the old connection is gone and new dials refuse.
#[test]
fn net_shutdown_refuses_new_submissions_over_the_wire() {
    let net = net(34);
    let addr = net.local_addr();
    let mut client = client(&net, "late", 1.0);
    client.call("late", &range(0.1, 0, 10)).unwrap();
    let started = Instant::now();
    net.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    let result = client.call("late", &range(0.1, 0, 10));
    assert!(
        matches!(
            result,
            Err(NetError::Io(_)) | Err(NetError::ConnectionLost { .. })
        ),
        "got {result:?}"
    );
    assert!(client.budget("late").is_err(), "the connection is closed");
    assert!(Client::connect(addr).is_err(), "listener must be closed");
}

/// A client that vanishes with a request queued behind a held commit:
/// its handler sees EOF and releases the ticket, the next sweep cancels
/// the work before any ε is charged, and no queue slot leaks.
#[test]
fn mid_stream_disconnect_is_a_regression_guard_at_the_facade() {
    let (store, dir) = held_store("net-mid-stream");
    let queue = ServerConfig {
        queue_capacity: 8,
        ..ServerConfig::default()
    };
    let net = bind(engine(36, Some(store)), queue, NetConfig::default());
    let mut steady = client(&net, "steady", 1.0);
    {
        let mut flaky = client(&net, "flaky", 1.0);
        // Queued behind the primer's commit when the connection drops.
        let primer = prime(&net, &mut steady, "steady");
        flaky.submit("flaky", &range(0.9, 0, 30)).unwrap();
        drop(flaky); // dropped mid-request
        steady.wait(primer).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.server().stats().cancelled == 0 {
        let stats = net.server().stats();
        assert!(Instant::now() < deadline, "no cancellation seen: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(net.stats().disconnects_mid_request, 1);
    // No ε was charged for the abandoned request: the full budget
    // survives for the reconnecting analyst …
    let remaining = net.server().engine().session_remaining("flaky").unwrap();
    assert_eq!(remaining, 1.0, "cancelled request must not charge");
    let mut client = Client::connect(net.local_addr()).unwrap();
    let remaining = client.open_session("flaky", 1.0).unwrap();
    assert_eq!(remaining, 1.0, "abandoned request must not charge");
    // … and no queue slot leaked: it can fill the queue to capacity and
    // drain it.
    let ids: Vec<u64> = (0..8)
        .map(|i| client.submit("flaky", &range(0.01, i, i + 5)).unwrap())
        .collect();
    for id in ids {
        assert!(client.wait(id).is_ok());
    }
    client.call("flaky", &range(0.9, 0, 30)).unwrap();
    net.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A request never waits on a timer: `tick_interval` is ignored (five
/// seconds here), and an answer leaves as soon as its ticket resolves —
/// arrivals wake the driver, completions wake the connection's writer.
/// The first 50 serial calls take under 2 s, the median of 200 round
/// trips sits well under 625 µs (a median, so one descheduled call
/// cannot fail it), and frames that carry no answer are not held either.
#[test]
fn serial_calls_never_wait_on_the_tick_interval() {
    let net = net_with(
        33,
        NetConfig {
            tick_interval: Duration::from_secs(5),
            ..NetConfig::default()
        },
    );
    let mut client = client(&net, "serial", 10.0);
    let mut round_trips: Vec<Duration> = (0..200)
        .map(|i| {
            let started = Instant::now();
            client
                .call("serial", &range(0.01, i % 40, i % 40 + 20))
                .unwrap();
            started.elapsed()
        })
        .collect();
    let first_50: Duration = round_trips[..50].iter().sum();
    assert!(
        first_50 < Duration::from_secs(2),
        "50 serial calls took {first_50:?}"
    );
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_micros(625),
        "median serial round trip {median:?}"
    );
    let started = Instant::now();
    for _ in 0..2000 {
        client.budget("serial").unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_millis(2500),
        "2000 budget reads took {:?}",
        started.elapsed()
    );
    client.goodbye().unwrap();
    net.shutdown().unwrap();
}

/// Registers `wide`, a policy and dataset on a 65 536-cell line: each
/// histogram answer is 512 KiB, so a few of them fill a loopback
/// socket's buffers.
fn register_wide(engine: &Engine) {
    let wide = Domain::line(1 << 16).unwrap();
    engine
        .register_policy("wide", Policy::distance_threshold(wide.clone(), 1))
        .unwrap();
    let rows = (0..1000).map(|i| i * 61).collect();
    engine
        .register_dataset("wide", Dataset::from_rows(wide, rows).unwrap())
        .unwrap();
}

/// A client that submits and never reads wedges its own connection's
/// writer in `write_all`, and its reader stays blocked in `read`
/// between frames. Neither may be what the next epoch waits on: the
/// same client's later requests are still answered. (A design where
/// the connection's threads lead epochs fails exactly this.)
#[test]
fn a_non_reading_clients_later_requests_are_still_served() {
    let net = net(53);
    register_wide(net.server().engine());
    let mut stuck = client(&net, "stuck", 100.0);
    let histogram = Request::histogram("wide", "wide", eps(1.0));
    let answered = || net.server().stats().answered;
    for _ in 0..24 {
        stuck.submit("stuck", &histogram).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while answered() < 24 {
        assert!(Instant::now() < deadline, "{:?}", net.server().stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    // Answered, so the writer is woken: it frames the 12 MiB and wedges
    // in `write_all` on a client that never reads.
    std::thread::sleep(Duration::from_millis(100));

    for _ in 0..24 {
        stuck.submit("stuck", &histogram).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while answered() < 48 {
        assert!(Instant::now() < deadline, "{:?}", net.server().stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    // Closing the socket unwedges the writer.
    drop(stuck);
    net.shutdown().unwrap();
}

/// Publishes `detail` on the bus and reads `watch` until that event
/// arrives (it may take a few publishes while the watch's queue is full),
/// returning every event read on the way.
fn hear(
    watch: &mut blowfish::net::WatchHandle<'_>,
    bus: &blowfish::obs::EventBus,
    detail: &str,
) -> Vec<blowfish::obs::ClusterEvent> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut heard = Vec::new();
    loop {
        assert!(Instant::now() < deadline, "{detail:?} never arrived");
        bus.publish(ClusterEventKind::Role, detail, 0);
        while let Some(event) = watch.next(Duration::from_millis(20)).unwrap() {
            let done = event.detail == detail;
            heard.push(event);
            if done {
                return heard;
            }
        }
    }
}

/// A watcher that never reads slows nobody down. Its writer wedges on a
/// full socket (48 histogram answers of 512 KiB asked for and never
/// read, far past what two socket buffers hold), so its bounded event
/// queue (`WATCH_QUEUE_CAPACITY` = 256) overflows under twice that many
/// events — and meanwhile every write is served, a second watcher still
/// hears the bus, and once the stuck one reads it finds the gap the
/// dropped events left.
#[test]
fn a_watcher_that_never_reads_blocks_no_write_and_no_other_watcher() {
    const WATCH_QUEUE_CAPACITY: u64 = 256;
    let net = net(47);
    let engine = Arc::clone(net.server().engine());
    register_wide(&engine);
    let bus = engine.obs().bus();

    let mut stuck = client(&net, "stuck", 100.0);
    let histogram = Request::histogram("wide", "wide", eps(1.0));
    for _ in 0..48 {
        stuck.submit("stuck", &histogram).unwrap();
    }
    let mut stuck_watch = stuck.watch().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !bus.has_subscribers() || net.server().stats().answered < 48 {
        assert!(Instant::now() < deadline, "{:?}", net.server().stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    // Answered, so the writer is woken; within a few milliseconds it has
    // framed the 24 MiB and is wedged in `write_all`.
    std::thread::sleep(Duration::from_millis(10));

    let mut live = Client::connect(net.local_addr()).unwrap();
    let mut live_watch = live.watch().unwrap();
    hear(&mut live_watch, bus, "live watch is subscribed");
    for _ in 0..2 * WATCH_QUEUE_CAPACITY {
        bus.publish(ClusterEventKind::Role, "overflow", 0);
    }
    let mut writer = client(&net, "writer", 10.0);
    for lo in 0..20 {
        writer.call("writer", &range(0.01, lo, lo + 20)).unwrap();
    }
    assert_eq!(engine.session_snapshot("writer").unwrap().served(), 20);
    hear(&mut live_watch, bus, "the live watch still hears");

    let seqs: Vec<u64> = hear(&mut stuck_watch, bus, "the stuck watch reads at last")
        .iter()
        .map(|event| event.seq)
        .collect();
    let dropped: u64 = seqs.windows(2).map(|pair| pair[1] - pair[0] - 1).sum();
    assert!(
        dropped >= WATCH_QUEUE_CAPACITY,
        "the stuck watch lost only {dropped} events"
    );
    writer.goodbye().unwrap();
    net.shutdown().unwrap();
}

/// The commit is the window: requests from two connections that arrive
/// while one (held) commit is in flight come back from exactly one epoch
/// — one tick, hence one `serve_groups` call; one fsync; one folded
/// release — with each analyst charged once.
#[test]
fn requests_arriving_during_one_commit_are_served_as_one_epoch() {
    let (store, dir) = held_store("net-commit-window");
    let net = bind(
        engine(45, Some(Arc::clone(&store))),
        ServerConfig::default(),
        NetConfig::default(),
    );
    let mut ann = client(&net, "ann", 2.0);
    let mut bee = client(&net, "bee", 2.0);
    let (before, syncs_before) = (net.server().stats(), store.stats().syncs);

    let primer = prime(&net, &mut ann, "ann");
    let per_connection = 12;
    let burst = |client: &mut Client, analyst: &str, width: usize| -> Vec<u64> {
        (0..per_connection)
            .map(|i| client.submit(analyst, &range(0.25, i, i + width)).unwrap())
            .collect()
    };
    let ids_ann = burst(&mut ann, "ann", 30);
    let ids_bee = burst(&mut bee, "bee", 20);
    let sent = 1 + 2 * per_connection as u64;
    while net.server().stats().submitted < before.submitted + sent {
        std::thread::yield_now();
    }
    assert_eq!(
        net.server().stats().ticks,
        before.ticks + 1,
        "the whole burst must be queued inside the primer's commit"
    );
    ann.wait(primer).unwrap();
    for id in ids_ann {
        ann.wait(id).unwrap();
    }
    for id in ids_bee {
        bee.wait(id).unwrap();
    }

    let after = net.server().stats();
    assert_eq!(
        after.ticks,
        before.ticks + 2,
        "the primer's epoch, then ONE"
    );
    assert_eq!(
        store.stats().syncs,
        syncs_before + 2,
        "one fsync for the primer, one for the whole burst"
    );
    assert_eq!(after.releases, before.releases + 2, "the burst is one fold");
    assert_eq!(after.batched_range_answers, 2 * per_connection as u64);
    let widths = net
        .server()
        .engine()
        .obs()
        .histogram("server_epoch_requests")
        .summary();
    assert_eq!((widths.count, widths.sum, widths.max), (2, sent, sent - 1));
    // Each analyst pays for the shared release once.
    let engine = net.server().engine();
    let ledger = |who: &str| engine.session_snapshot(who).unwrap().ledger().len();
    assert_eq!((ledger("ann"), ledger("bee")), (2, 1));
    assert!((engine.session_snapshot("bee").unwrap().spent() - 0.25).abs() < 1e-12);
    net.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The chaos plan addresses one **answer frame**, however many answers
/// share a release. Eight identical requests sent while a primer's epoch
/// commits form one group of the next epoch, so one tick resolves all
/// eight tickets and the writer holds their answers together; the plan's
/// fault is on the 5th of them (the 6th answer frame, after the
/// primer's). The client must decode answers 1–4 whole, then lose the
/// connection with exactly the other four still owed — and the counters
/// read as if each frame had been written alone: one fault; handshake +
/// attach + the primer's answer + four answers, plus the truncated frame
/// (counted when its first half leaves) or not the dropped one (never
/// framed).
#[test]
fn a_fault_on_the_fifth_answer_of_one_release_loses_exactly_the_last_four() {
    for (fault, frames_out) in [(NetFault::TruncateReply, 8), (NetFault::DropConnection, 7)] {
        let (store, dir) = held_store("net-fifth-answer");
        let config = NetConfig {
            max_in_flight: 9,
            ..chaos(6, fault)
        };
        let net = bind(engine(44, Some(store)), ServerConfig::default(), config);
        let mut client = client(&net, "burst", 1.0);
        let primer = prime(&net, &mut client, "burst");
        let ids: Vec<u64> = (0..8)
            .map(|_| client.submit("burst", &range(0.1, 3, 33)).unwrap())
            .collect();
        client.wait(primer).unwrap();
        let answers: Vec<Response> = ids[..4]
            .iter()
            .map(|&id| {
                client
                    .wait(id)
                    .expect("answers before the fault arrive whole")
            })
            .collect();
        assert!(
            answers.iter().all(|a| a == &answers[0]),
            "one shared release"
        );
        match client.wait(ids[4]) {
            Err(NetError::ConnectionLost { in_flight }) => {
                assert_eq!(in_flight, ids[4..], "{fault:?}")
            }
            other => panic!("{fault:?}: expected ConnectionLost, got {other:?}"),
        }
        let faults = net
            .server()
            .engine()
            .obs()
            .counter("faults_injected{layer=\"net\"}");
        assert_eq!(faults.get(), 1, "{fault:?}");
        // The writer counts a frame before its bytes leave, so by the
        // time the client saw EOF this is final.
        assert_eq!(net.stats().frames_out, frames_out, "{fault:?}");
        net.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The third acknowledged-crash point of the exactly-once story: the
/// charge is durable, the answer is computed, and the reply frame dies
/// on the wire. A resubmission under the same idempotency key must
/// replay the durable answer — bit-identically, at zero additional ε.
#[test]
fn dropped_reply_frame_replays_without_recharging() {
    let net = net_with(40, chaos(1, NetFault::DropConnection));
    let mut client = client(&net, "retry", 1.0);
    let request = range(0.4, 2, 22);
    // First delivery: the server serves (and durably charges), then the
    // chaos plan kills the connection instead of writing the answer.
    let id = client
        .submit_tagged("retry", &request, Some(7), None)
        .unwrap();
    let lost = client.wait(id);
    assert!(
        matches!(
            lost,
            Err(NetError::ConnectionLost { .. }) | Err(NetError::Io(_))
        ),
        "got {lost:?}"
    );
    // Reconnect and resubmit the same key, twice: both replays come from
    // the durable reply cache and must agree byte for byte.
    client.reconnect().unwrap();
    let id = client
        .submit_tagged("retry", &request, Some(7), None)
        .unwrap();
    let first = client.wait(id).unwrap();
    let id = client
        .submit_tagged("retry", &request, Some(7), None)
        .unwrap();
    let second = client.wait(id).unwrap();
    assert_eq!(first, second, "replays must be bit-identical");
    let budget = client.budget("retry").unwrap();
    assert!(
        (budget.spent - 0.4).abs() < 1e-12,
        "charged exactly once, spent {}",
        budget.spent
    );
    net.shutdown().unwrap();
}

/// The hands-off variant: [`Client::call_idempotent`] owns the
/// reconnect-backoff-resubmit loop and still charges exactly once.
#[test]
fn call_idempotent_retries_through_a_dropped_reply() {
    let net = net_with(41, chaos(1, NetFault::DropConnection));
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.open_session("idem", 1.0).unwrap();
    let response = client
        .call_idempotent("idem", &range(0.3, 0, 10), &RetryPolicy::default())
        .unwrap();
    assert!(response.scalar().is_some());
    let budget = client.budget("idem").unwrap();
    assert!(
        (budget.spent - 0.3).abs() < 1e-12,
        "charged exactly once, spent {}",
        budget.spent
    );
    let stats = net.server().stats();
    assert!(stats.retries >= 1, "the replay must count as a retry");
    net.shutdown().unwrap();
}

/// A session's token gates everything that charges or reveals its
/// ledger. A raw connection omitting or forging it is refused `Submit`,
/// `SubmitBatch` and `BudgetAudit`; per-record provenance also needs the
/// session attached on the connection, while aggregate frames stay open
/// to every client (the documented trusted-curator model).
#[test]
fn session_tokens_gate_submit_batch_and_audit() {
    let dir = scratch_dir("net-tokens");
    let store = Arc::new(Store::open(&dir).unwrap());
    let net = bind(
        engine(24, Some(store)),
        ServerConfig::default(),
        NetConfig::default(),
    );

    // A full client attaches, learns its token, and serves normally
    // (tokens ride along invisibly).
    let mut alice = client(&net, "alice", 4.0);
    let token = alice.session_token("alice").unwrap();
    assert_ne!(token, 0);
    let request = range(0.25, 4, 40);
    alice.call("alice", &request).unwrap();
    assert!(!alice.audit("alice").unwrap().is_empty());

    // A client that never attached the session is refused its audit, but
    // not its budget.
    let mut stranger = Client::connect(net.local_addr()).unwrap();
    let err = stranger.audit("alice").unwrap_err();
    assert!(
        matches!(err, NetError::Remote(WireError::InvalidRequest(_))),
        "unattached connection must be refused, got {err:?}"
    );
    assert!(stranger.budget("alice").is_ok());

    let refused = |reply: ServerMessage, why: &str| match reply {
        ServerMessage::Refused {
            error: WireError::InvalidRequest(msg),
            ..
        } => assert!(msg.contains(why), "got {msg}"),
        other => panic!("expected a {why} refusal, got {other:?}"),
    };
    let mut raw = Raw::hello(net.local_addr());
    refused(raw.call(submit(10, "alice", &request, None)), "token");
    refused(
        raw.call(submit(11, "alice", &request, Some(token ^ 1))),
        "token",
    );
    // Audit needs attach *and* the token.
    assert_eq!(raw.open("alice", 4.0), token, "tokens are process-stable");
    let audit = |id, token| ClientMessage::BudgetAudit {
        id,
        analyst: "alice".into(),
        token,
    };
    refused(raw.call(audit(13, None)), "token");
    // The right token serves both.
    let reply = raw.call(submit(14, "alice", &request, Some(token)));
    assert!(
        matches!(reply, ServerMessage::Answer { .. }),
        "got {reply:?}"
    );
    match raw.call(audit(15, Some(token))) {
        ServerMessage::AuditReport { entries, .. } => assert!(!entries.is_empty()),
        other => panic!("expected AuditReport, got {other:?}"),
    }
    // Batches charge the same budget, so they pass the same gate — a
    // tokenless batch must not sidestep what Submit enforces.
    let batch = |id, token| ClientMessage::SubmitBatch {
        id,
        analyst: "alice".into(),
        requests: vec![WireRequest::from_request(&request)],
        token,
    };
    refused(raw.call(batch(16, None)), "token");
    match raw.call(batch(17, Some(token))) {
        ServerMessage::BatchAnswer { slots, .. } => assert!(matches!(slots[..], [Ok(_)])),
        other => panic!("expected BatchAnswer, got {other:?}"),
    }
    // Client-supplied idempotency keys must stay out of the range
    // reserved for log-position-derived ones.
    let mut reserved = submit(18, "alice", &request, Some(token));
    if let ClientMessage::Submit { request_id, .. } = &mut reserved {
        *request_id = Some(RESERVED_REQUEST_ID_BASE);
    }
    refused(raw.call(reserved), "reserved");

    // Reattaching with the session's original ε total — the capability
    // the gate checks — unlocks the stranger's audit.
    stranger.open_session("alice", 4.0).unwrap();
    assert_eq!(
        stranger.audit("alice").unwrap(),
        alice.audit("alice").unwrap()
    );
    net.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One dialect, and no way round the session token: a `Hello` for any
/// version but the server's — the old v2–v4 dialects included — gets one
/// `Refused { Protocol }` and a closed connection, and nothing it sends
/// reaches a ledger. First the exact old attack: `Hello` v3, then a v3
/// `Submit` for alice with no token — v3 had no token field, so a v3
/// connection was exempt from presenting one and the submit was served
/// and charged to alice.
#[test]
fn no_hello_but_the_one_version_is_welcomed_so_no_submit_skips_the_token() {
    let net = net(46);
    let request = range(0.25, 4, 40);
    let mut alice = client(&net, "alice", 4.0);
    alice.call("alice", &request).unwrap();
    assert!(alice.session_token("alice").is_some());
    let ledger = || {
        let snap = net.server().engine().session_snapshot("alice").unwrap();
        (snap.spent().to_bits(), snap.served())
    };
    let (before, protocol_errors) = (ledger(), net.stats().protocol_errors);

    let hello = |version| frame_bytes(&ClientMessage::Hello { id: 1, version }.encode());
    let mut submit_v3 = submit(2, "alice", &request, None).encode();
    // A v3 `Submit` is this one without the trailing token option.
    assert_eq!(submit_v3.pop(), Some(0), "an absent token is one zero byte");
    let attack = [hello(3), frame_bytes(&submit_v3)].concat();
    let probes = std::iter::once(("Hello v3 + tokenless v3 Submit".to_owned(), attack))
        .chain([0, 2, 3, 4, 6, u16::MAX].map(|v| (format!("Hello v{v}"), hello(v))));
    for (what, bytes) in probes {
        let mut raw = Raw::dial(net.local_addr());
        raw.stream.write_all(&bytes).unwrap();
        let (replies, closed) = raw.read(usize::MAX);
        assert!(
            matches!(
                replies.as_slice(),
                [ServerMessage::Refused { error: WireError::Protocol(msg), .. }]
                    if msg.contains("version mismatch")
            ),
            "{what}: got {replies:?}; alice (spent bits, served) {:?}, was {before:?}",
            ledger()
        );
        assert!(closed, "{what}: the connection stayed open");
    }
    assert_eq!(ledger(), before, "nothing reached alice's ledger");
    assert_eq!(
        net.stats().protocol_errors,
        protocol_errors,
        "a version refusal is not a protocol error"
    );
    alice.goodbye().unwrap();
    net.shutdown().unwrap();
}

/// A scripted [`ReplicaHook`]: with an engine, a "leader" that executes
/// sequenced writes straight through it; without, a "follower" that
/// refuses writes with `leader_hint`, and reads too while `stale` is set.
#[derive(Default)]
struct TestHook {
    engine: Option<Arc<Engine>>,
    leader_hint: String,
    stale: Option<u64>,
    next_rid: AtomicU64,
}

impl TestHook {
    fn leader(&self) -> Result<&Engine, WireError> {
        self.engine.as_deref().ok_or_else(|| WireError::NotLeader {
            leader: self.leader_hint.clone(),
        })
    }

    fn role(self) -> NetConfig {
        NetConfig {
            role: ServerRole::Replica(Arc::new(self)),
            ..NetConfig::default()
        }
    }
}

impl ReplicaHook for TestHook {
    fn sequence_submit(
        &self,
        analyst: &str,
        request_id: Option<u64>,
        request: Request,
    ) -> Result<Ticket, WireError> {
        let engine = self.leader()?;
        let rid = request_id.unwrap_or_else(|| {
            RESERVED_REQUEST_ID_BASE | self.next_rid.fetch_add(1, Ordering::Relaxed)
        });
        let (resolver, ticket) = Ticket::pair();
        resolver.resolve(
            engine
                .serve_tagged(analyst, rid, &request)
                .map_err(ServerError::Engine),
        );
        Ok(ticket)
    }

    fn sequence_open(&self, analyst: &str, total_bits: u64) -> Result<f64, WireError> {
        let engine = self.leader()?;
        let total = Epsilon::new(f64::from_bits(total_bits))
            .map_err(|e| WireError::InvalidRequest(e.to_string()))?;
        engine
            .attach_session(analyst, total)
            .map_err(|e| WireError::from_engine_error(&e))
    }

    fn refuse_read(&self) -> Option<WireError> {
        self.stale
            .map(|lag_entries| WireError::StaleReplica { lag_entries })
    }
}

#[test]
fn replica_role_routes_writes_through_the_hook() {
    let engine = engine(25, None);
    let hook = TestHook {
        engine: Some(Arc::clone(&engine)),
        ..TestHook::default()
    };
    let net = bind(engine, ServerConfig::default(), hook.role());
    let mut client = Client::connect(net.local_addr()).unwrap();
    // OpenSession sequences through the hook…
    assert_eq!(client.open_session("h", 2.0).unwrap(), 2.0);
    // …and so do submits: the answer comes from the hook's engine
    // execution, not the local scheduler.
    let resp = client.call("h", &range(0.5, 4, 40)).unwrap();
    assert!(resp.scalar().unwrap().is_finite());
    assert_eq!(net.server().stats().answered, 0, "scheduler bypassed");
    // Reads serve locally when the hook does not object.
    assert!((client.budget("h").unwrap().spent - 0.5).abs() < 1e-12);
    net.shutdown().unwrap();
}

#[test]
fn follower_refuses_writes_and_stale_reads() {
    let hook = TestHook {
        leader_hint: "10.0.0.9:4040".into(),
        stale: Some(7),
        ..TestHook::default()
    };
    let net = net_with(26, hook.role());
    let mut client = Client::connect(net.local_addr()).unwrap();
    assert!(matches!(
        client.open_session("f", 1.0),
        Err(NetError::Remote(WireError::NotLeader { leader })) if leader == "10.0.0.9:4040"
    ));
    assert!(matches!(
        client.budget("f"),
        Err(NetError::Remote(WireError::StaleReplica { lag_entries: 7 }))
    ));
    assert!(matches!(
        client.stats(),
        Err(NetError::Remote(WireError::StaleReplica { .. }))
    ));
    net.shutdown().unwrap();
}

#[test]
fn not_leader_redirects_call_idempotent_to_the_hinted_leader() {
    // The "leader": a standalone server whose engine already has the
    // session (opened in-process, so no token gate applies).
    let leader = net(27);
    leader
        .server()
        .engine()
        .attach_session("redir", eps(2.0))
        .unwrap();
    // The "follower" refuses writes, hinting at the leader.
    let hook = TestHook {
        leader_hint: leader.local_addr().to_string(),
        ..TestHook::default()
    };
    let follower = net_with(27, hook.role());
    let mut client = Client::connect(follower.local_addr()).unwrap();
    let request = range(0.5, 4, 40);
    let resp = client
        .call_idempotent("redir", &request, &RetryPolicy::default())
        .unwrap();
    assert!(resp.scalar().unwrap().is_finite());
    // The client followed the hint and stays on the leader: its
    // scheduler answers this call and the next.
    client.call("redir", &request).unwrap();
    let answered = |net: &NetServer| net.server().stats().answered;
    assert_eq!((answered(&leader), answered(&follower)), (2, 0));
    follower.shutdown().unwrap();
    leader.shutdown().unwrap();
}

#[test]
fn connect_cluster_skips_unreachable_members() {
    // A member that refuses the dial: bind, learn the port, drop.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let net = net(28);
    let mut client = Client::connect_cluster(&[dead, net.local_addr()][..]).unwrap();
    client.open_session("c", 1.0).unwrap();
    assert!(client.call("c", &range(0.25, 4, 40)).is_ok());
    assert_eq!(net.server().stats().answered, 1, "the live member served");
    net.shutdown().unwrap();
}

/// One `StatsReport` spans the TCP, scheduler, engine and span layers,
/// and carries the robustness counters — fault injection, retries,
/// replay hits, deadline refusals and load shedding — beside them.
#[test]
fn stats_report_exposes_the_chaos_and_retry_counters() {
    let net = net(22);
    let mut client = client(&net, "s", 10.0);
    for i in 0..8 {
        client.call("s", &range(0.25, i, i + 16)).unwrap();
    }
    let metrics = client.stats().unwrap();
    let find = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name() == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    match find("net_frames_in_total") {
        WireMetric::Counter { value, .. } => assert!(*value >= 10),
        other => panic!("expected counter, got {other:?}"),
    }
    match find("server_answered_total") {
        WireMetric::Counter { value, .. } => assert_eq!(*value, 8),
        other => panic!("expected counter, got {other:?}"),
    }
    match find("net_request_ns") {
        WireMetric::Histogram { count, p99, .. } => {
            assert_eq!(*count, 8);
            assert!(*p99 > 0, "p99 must be reported");
        }
        other => panic!("expected histogram, got {other:?}"),
    }
    find("engine_cache_hits_total");
    find("engine_epsilon_spent{analyst=\"s\"}");
    find("span_stage_ns{stage=\"decode\"}");
    find("span_stage_ns{stage=\"reply\"}");
    find("span_stage_ns{stage=\"release\"}");
    for needle in [
        "faults_injected",
        "retries",
        "replay_cache_hits",
        "deadline_refusals",
        "shed_requests",
    ] {
        assert!(
            metrics.iter().any(|m| m.name().contains(needle)),
            "missing {needle} in {metrics:?}"
        );
    }
    // The poll-loop histograms went with the poll loop.
    assert!(!metrics.iter().any(|m| m.name().starts_with("net_tick_")));
    // And the samples render through bf-obs unchanged.
    let snaps: Vec<blowfish::obs::MetricSnapshot> =
        metrics.iter().map(WireMetric::to_snapshot).collect();
    let text = blowfish::obs::render_prometheus(&snaps);
    assert!(text.contains("net_request_ns{quantile=\"0.99\"}"));
    assert!(text.contains("server_answered_total 8"));
    net.shutdown().unwrap();
}

#[test]
fn standalone_cluster_stats_health_and_watch() {
    let net = net_with(
        30,
        NetConfig {
            slos: vec![blowfish::obs::SloSpec {
                name: "w-burn".into(),
                objective: blowfish::obs::SloObjective::BudgetBurnUnder {
                    analyst: "w".into(),
                    max_eps_per_scrape: 0.01,
                },
            }],
            ..NetConfig::default()
        },
    );

    // A watcher subscribed before any traffic flows.
    let mut watcher = Client::connect(net.local_addr()).unwrap();
    let mut watch = watcher.watch().unwrap();
    let bus = net.server().engine().obs().bus();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !bus.has_subscribers() {
        assert!(Instant::now() < deadline, "the watch never subscribed");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut client = client(&net, "w", 4.0);
    client.call("w", &range(0.5, 0, 16)).unwrap();

    // Federated scrape of a fleet of one: exactly the local node,
    // labeled "standalone", carrying real metrics.
    let replicas = client.cluster_stats().unwrap();
    assert_eq!(replicas.len(), 1);
    assert_eq!(replicas[0].node, "standalone");
    assert!(replicas[0].reachable);
    assert!(replicas[0]
        .metrics
        .iter()
        .any(|m| m.name() == "server_answered_total"));
    // The merge helper qualifies every series with the source.
    let merged = blowfish::obs::merge_labeled_snapshots(
        "replica",
        replicas
            .iter()
            .map(|r| {
                let metrics = r.metrics.iter().map(WireMetric::to_snapshot).collect();
                (r.node.clone(), metrics)
            })
            .collect(),
    );
    assert!(merged
        .iter()
        .any(|m| m.name() == "server_answered_total{replica=\"standalone\"}"));

    // Health: cheap, role-bearing, nothing firing while the burn
    // window has seen no spend.
    let health = client.health().unwrap();
    assert_eq!(health.role, "standalone");
    assert!(health.firing.is_empty());
    assert!(health.unreachable.is_empty());

    // A second charge between scrapes burns past the bound: the
    // next probe fires the SLO ...
    client.call("w", &range(0.5, 0, 16)).unwrap();
    assert_eq!(client.health().unwrap().firing, vec!["w-burn".to_string()]);

    // ... and the flip reaches the open watch as a pushed event.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut fired = None;
    while fired.is_none() && Instant::now() < deadline {
        match watch.next(Duration::from_millis(100)).unwrap() {
            Some(ev) if ev.kind == ClusterEventKind::Slo => fired = Some(ev),
            Some(_) | None => {}
        }
    }
    let fired = fired.expect("the SLO flip never reached the watcher");
    assert_eq!((fired.detail.as_str(), fired.value), ("w-burn", 1));

    client.goodbye().unwrap();
    net.shutdown().unwrap();
}

/// Two analysts submit the identical range request with trace ids while
/// a primer's (held) commit is in flight, so one epoch takes both and
/// serves them from one release. Both trace trees must cover all seven
/// stages end to end, and their release spans must carry the same link
/// id — amplification readable off either trace alone.
#[test]
fn traced_request_covers_all_seven_stages_with_linked_coalesced_release() {
    let (store, dir) = held_store("trace-seven-stages");
    let net = bind(
        engine(51, Some(store)),
        ServerConfig::default(),
        NetConfig::default(),
    );
    let mut client = client(&net, "ann", 4.0);
    client.open_session("bee", 4.0).unwrap();
    let primer = prime(&net, &mut client, "ann");
    // Identical requests within one commit: one shared release.
    let req = range(0.5, 8, 40);
    let a = client
        .submit_traced("ann", &req, None, None, Some(0xA11CE))
        .unwrap();
    let b = client
        .submit_traced("bee", &req, None, None, Some(0xB0B))
        .unwrap();
    client.wait(primer).unwrap();
    assert!(client.wait(a).unwrap().scalar().is_some());
    assert!(client.wait(b).unwrap().scalar().is_some());

    let traces = client.traces().unwrap();
    let find = |id: u64| {
        traces
            .iter()
            .find(|t| t.id.0 == id)
            .unwrap_or_else(|| panic!("trace {id:#x} not retained in {traces:?}"))
    };
    let ann = find(0xA11CE);
    let bee = find(0xB0B);
    assert_eq!(ann.analyst, "ann");
    assert_eq!(bee.analyst, "bee");
    for tree in [ann, bee] {
        assert_eq!(tree.outcome, "ok");
        assert!(
            tree.covers(&Stage::ALL),
            "trace {} must cover all seven stages: {:?}",
            tree.id,
            tree.spans
        );
        assert!(tree.total_ns > 0);
    }
    // The shared release is linked across both waiters' traces.
    let link_of = |tree: &TraceTree| {
        tree.spans
            .iter()
            .find(|s| s.stage == Stage::Release)
            .and_then(|s| s.link)
    };
    let la = link_of(ann);
    let lb = link_of(bee);
    assert!(la.is_some(), "coalesced release span must carry a link id");
    assert_eq!(la, lb, "both waiters must share the release's link id");
    // Exactly one release (after the primer's) backed both answers.
    assert_eq!(net.server().stats().releases, 2);
    net.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An untraced request produces no tree; a refused traced request
/// finishes with a non-"ok" outcome and echoes the trace id on the
/// refusal frame.
#[test]
fn refused_traced_request_lands_with_refusal_outcome() {
    let net = net(52);
    let mut client = client(&net, "tiny", 0.25);
    // Untraced baseline: no tree appears for it.
    client.call("tiny", &range(0.1, 0, 10)).unwrap();
    // Over budget: admission control refuses after the trace began.
    let id = client
        .submit_traced("tiny", &range(5.0, 0, 10), None, None, Some(77))
        .unwrap();
    assert!(client.wait(id).is_err());
    let traces = client.traces().unwrap();
    let refused = traces.iter().find(|t| t.id.0 == 77).unwrap();
    assert_ne!(refused.outcome, "ok");
    assert_eq!(traces.len(), 1, "the untraced call must leave no tree");
    net.shutdown().unwrap();
}

/// The answers to eight ranges of one analyst at `seed` over TCP: with
/// every other request traced (and the trees retained) when `traced`,
/// with the whole observability layer disabled otherwise.
fn wire_answers(seed: u64, traced: bool) -> Vec<u64> {
    let net = net(seed);
    net.server().engine().obs().set_enabled(traced);
    let mut client = client(&net, "twin", 10.0);
    let answers = (0..8)
        .map(|i| {
            let trace_id = (traced && i % 2 == 0).then_some(1000 + i as u64);
            let id = client
                .submit_traced("twin", &range(0.25, i, i + 16), None, None, trace_id)
                .unwrap();
            client.wait(id).unwrap().scalar().unwrap().to_bits()
        })
        .collect();
    if traced {
        let traces = client.traces().unwrap();
        assert!(!traces.is_empty(), "traced run must retain trees");
    }
    net.shutdown().unwrap();
    answers
}

/// Tracing is a pure side channel: the same seed and the same request
/// stream give byte-identical answers whether requests are traced or the
/// whole observability layer is disabled.
#[test]
fn same_seed_answers_identical_tracing_on_and_off() {
    assert_eq!(wire_answers(35, true), wire_answers(35, false));
}

/// The same seed and the same per-analyst stream give byte-identical
/// answers over TCP and in process: the wire layer adds transport, never
/// perturbs the release stream. With the test above, traced wire answers
/// equal the in-process ones too.
#[test]
fn wire_and_in_process_serving_agree_bit_for_bit() {
    let engine = engine(35, None);
    engine.open_session("twin", eps(10.0)).unwrap();
    let in_process: Vec<u64> = (0..8)
        .map(|i| {
            let answer = engine.serve("twin", &range(0.25, i, i + 16)).unwrap();
            answer.scalar().unwrap().to_bits()
        })
        .collect();
    assert_eq!(wire_answers(35, false), in_process);
}

/// `Client::audit` replays the analyst's WAL ledger history bit for bit:
/// it agrees with the engine's own scan, survives compaction into
/// `archive/`, and sums to the spend the wire reports; a fresh process
/// recovering the directory finds the same entries and the same spend.
/// The charges are not dyadic, so a rounding slip anywhere shows.
#[test]
fn audit_over_the_wire_matches_recovered_ledger_bit_for_bit() {
    let dir = scratch_dir("net-audit-ledger");
    let config = StoreConfig {
        archive_replayed_segments: true,
        ..StoreConfig::default()
    };
    let charges = [0.1, 0.2, 0.3, 0.4];
    let (entries, observed) = {
        let store = Arc::new(Store::open_with(&dir, config.clone()).unwrap());
        let net = bind(
            engine(32, Some(Arc::clone(&store))),
            ServerConfig::default(),
            NetConfig::default(),
        );
        let mut client = client(&net, "aud", 4.0);
        for (i, &epsilon) in charges[..3].iter().enumerate() {
            client.call("aud", &range(epsilon, i, i + 20)).unwrap();
        }
        // Compact mid-history: the charges above move to archive/, and
        // the audit must keep seeing them.
        store.compact().unwrap();
        // Tagged requests additionally write Replied records.
        let id = client
            .submit_tagged("aud", &range(charges[3], 30, 50), Some(9), None)
            .unwrap();
        client.wait(id).unwrap();
        let entries = client.audit("aud").unwrap();
        // The wire report agrees with the engine's own scan exactly…
        let direct = net.server().engine().ledger_history("aud").unwrap();
        assert_eq!(entries, direct);
        // …and its ε sums to the wire-reported ledger bit for bit.
        let booked: f64 = entries.iter().map(|e| e.epsilon()).sum();
        let spent = client.budget("aud").unwrap().spent;
        assert_eq!(
            booked.to_bits(),
            spent.to_bits(),
            "Σε {booked} vs spent {spent}"
        );
        client.goodbye().unwrap();
        net.shutdown().unwrap();
        (entries, spent)
    };
    assert!(
        entries.len() >= 4,
        "3 charges + 1 tagged charge at minimum, got {entries:?}"
    );
    assert!(
        entries.windows(2).all(|w| w[0].seq < w[1].seq),
        "seq must be strictly increasing in WAL order"
    );
    // Each charge books its request's ε (the replay-carry convention
    // books 0 ε on records that ride a coalesced charge).
    let booked: Vec<f64> = entries.iter().map(|e| e.epsilon()).collect();
    assert!(
        booked.iter().filter(|&&e| e != 0.0).eq(&charges),
        "{booked:?}"
    );
    // Each entry's fingerprint is recomputable from its label alone.
    assert!(entries
        .iter()
        .all(|e| e.fingerprint == blowfish::store::fnv1a(e.label.as_bytes())));
    // A brand-new process scanning the same directory reproduces the
    // identical entries and spend — the audit is a property of the bytes
    // on disk.
    let fresh = Store::open_with(&dir, config).unwrap();
    assert_eq!(fresh.ledger_history("aud").unwrap(), entries);
    let recovered = &fresh.recovered_state().sessions["aud"];
    assert_eq!(recovered.spent.to_bits(), observed.to_bits());
    assert_eq!(recovered.served, 4);
    drop(fresh);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Without audit or compaction: five plain calls, and the WAL a fresh
/// process recovers holds exactly the spend the wire reported.
#[test]
fn wal_recovered_spend_equals_wire_observed_spend() {
    let dir = scratch_dir("net-facade-ledger");
    let observed = {
        let store = Arc::new(Store::open(&dir).unwrap());
        let net = bind(
            engine(32, Some(store)),
            ServerConfig::default(),
            NetConfig::default(),
        );
        let mut client = client(&net, "audit", 2.0);
        for i in 0..5 {
            client
                .call("audit", &range(0.1 * (i + 1) as f64, i, i + 20))
                .unwrap();
        }
        let spent = client.budget("audit").unwrap().spent;
        client.goodbye().unwrap();
        net.shutdown().unwrap();
        spent
    };
    let store = Store::open(&dir).unwrap();
    let recovered = &store.recovered_state().sessions["audit"];
    assert_eq!(recovered.spent.to_bits(), observed.to_bits());
    assert_eq!(recovered.served, 5);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
