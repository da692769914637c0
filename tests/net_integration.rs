//! End-to-end tests of the network stack through the `blowfish` facade:
//! a WAL-backed engine behind the async server behind the TCP
//! front-end, exercised by real sockets.

use blowfish::net::{Client, NetConfig, NetError, NetServer, RetryPolicy, WireError};
use blowfish::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn build_net(
    seed: u64,
    store_dir: Option<&std::path::Path>,
    server_config: ServerConfig,
    net_config: NetConfig,
) -> NetServer {
    let store = store_dir.map(|dir| Arc::new(Store::open(dir).unwrap()));
    build_net_on(seed, store, server_config, net_config)
}

/// How long [`held_store`]'s commits take: long against a loopback
/// round trip, short against a test.
const HOLD: Duration = Duration::from_millis(100);

/// A store whose every commit takes at least [`HOLD`]. The commit is the
/// scheduler's window, so whatever a test sends while one request's
/// epoch commits is still queued when it returns, and is served together
/// as the next epoch.
fn held_store(dir: &std::path::Path) -> Arc<Store> {
    use blowfish::chaos::{StoreFault, StorePlan};
    let fault = StoreFault::DelaySyncMicros(HOLD.as_micros() as u64);
    let config = StoreConfig {
        fault_plan: Some(Arc::new(StorePlan::every_kth(1, fault))),
        ..StoreConfig::default()
    };
    Arc::new(Store::open_with(dir, config).unwrap())
}

/// Submits a primer request for `analyst` and returns once its epoch is
/// drained — that is, while its (held) commit is in flight.
fn prime(net: &NetServer, client: &mut Client, analyst: &str) -> u64 {
    let ticks = net.server().stats().ticks;
    let id = client
        .submit(analyst, &Request::range("pol", "ds", eps(0.01), 1, 2))
        .unwrap();
    while net.server().stats().ticks == ticks {
        std::thread::yield_now();
    }
    id
}

fn build_net_on(
    seed: u64,
    store: Option<Arc<Store>>,
    server_config: ServerConfig,
    net_config: NetConfig,
) -> NetServer {
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
    let points = PointSet::new(
        vec![
            vec![1.0, 1.0],
            vec![1.2, 0.8],
            vec![9.0, 9.0],
            vec![8.8, 9.1],
        ],
        BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]),
    );
    engine.register_points("pts", points).unwrap();
    let server = Arc::new(Server::new(Arc::new(engine), server_config));
    NetServer::bind("127.0.0.1:0", server, net_config).unwrap()
}

#[test]
fn kmeans_crosses_the_wire_with_its_spec() {
    let net = build_net(31, None, ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("km", 5.0).unwrap();
    let response = client
        .call(
            "km",
            &Request::kmeans(
                "pol",
                "pts",
                eps(2.0),
                2,
                3,
                KmeansSecretSpec::L1Threshold(1.0),
            ),
        )
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
    let net = build_net(43, None, ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("km", 5.0).unwrap();
    let bad = [
        (3, KmeansSecretSpec::L1Threshold(0.0)),
        (3, KmeansSecretSpec::L1Threshold(-1.0)),
        (3, KmeansSecretSpec::L1Threshold(f64::NAN)),
        (3, KmeansSecretSpec::PartitionMaxDiameter(-1.0)),
        (3, KmeansSecretSpec::PartitionMaxDiameter(f64::NAN)),
        (1 << 40, KmeansSecretSpec::Full),
    ];
    for (iterations, spec) in bad {
        let reply = client.call(
            "km",
            &Request::kmeans("pol", "pts", eps(2.0), 2, iterations, spec),
        );
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

#[test]
fn wal_recovered_spend_equals_wire_observed_spend() {
    let dir = blowfish::store::scratch_dir("net-facade-ledger");
    let observed = {
        let net = build_net(
            32,
            Some(&dir),
            ServerConfig::default(),
            NetConfig::default(),
        );
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("audit", 2.0).unwrap();
        for i in 0..5 {
            client
                .call(
                    "audit",
                    &Request::range("pol", "ds", eps(0.1 * (i + 1) as f64), i, i + 20),
                )
                .unwrap();
        }
        let spent = client.budget("audit").unwrap().spent;
        client.goodbye().unwrap();
        net.shutdown().unwrap();
        spent
    };
    // The WAL must hold exactly what the wire reported — bit for bit.
    let store = Store::open(&dir).unwrap();
    let recovered = &store.recovered_state().sessions["audit"];
    assert_eq!(recovered.spent.to_bits(), observed.to_bits());
    assert_eq!(recovered.served, 5);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn goodbye_drains_in_flight_work_before_closing() {
    let net = build_net(33, None, ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("polite", 1.0).unwrap();
    for i in 0..4 {
        client
            .submit("polite", &Request::range("pol", "ds", eps(0.1), i, i + 10))
            .unwrap();
    }
    // Goodbye immediately: the server must answer everything in flight
    // before the Farewell.
    client.goodbye().unwrap();
    let stats = net.server().stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.answered, 4, "goodbye must drain, not drop");
    assert_eq!(stats.cancelled, 0);
    net.shutdown().unwrap();
}

#[test]
fn net_shutdown_refuses_new_submissions_over_the_wire() {
    let net = build_net(34, None, ServerConfig::default(), NetConfig::default());
    let addr = net.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.open_session("late", 1.0).unwrap();
    client
        .call("late", &Request::range("pol", "ds", eps(0.1), 0, 10))
        .unwrap();
    net.shutdown().unwrap();
    // The old connection is gone; new dials refuse.
    let result = client.call("late", &Request::range("pol", "ds", eps(0.1), 0, 10));
    assert!(
        matches!(
            result,
            Err(NetError::Io(_)) | Err(NetError::ConnectionLost { .. })
        ),
        "got {result:?}"
    );
    assert!(Client::connect(addr).is_err(), "listener must be closed");
}

#[test]
fn wire_and_in_process_serving_agree_bit_for_bit() {
    // The same seed and the same per-analyst stream, once over TCP and
    // once in process: answers must be byte-identical — the wire layer
    // adds transport, never perturbs the release stream.
    let over_wire: Vec<u64> = {
        let net = build_net(35, None, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("twin", 10.0).unwrap();
        let answers = (0..6)
            .map(|i| {
                client
                    .call("twin", &Request::range("pol", "ds", eps(0.25), i, i + 16))
                    .unwrap()
                    .scalar()
                    .unwrap()
                    .to_bits()
            })
            .collect();
        net.shutdown().unwrap();
        answers
    };
    let in_process: Vec<u64> = {
        let net = build_net(35, None, ServerConfig::default(), NetConfig::default());
        let engine = Arc::clone(net.server().engine());
        engine.open_session("twin", eps(10.0)).unwrap();
        let answers = (0..6)
            .map(|i| {
                engine
                    .serve("twin", &Request::range("pol", "ds", eps(0.25), i, i + 16))
                    .unwrap()
                    .scalar()
                    .unwrap()
                    .to_bits()
            })
            .collect();
        net.shutdown().unwrap();
        answers
    };
    assert_eq!(over_wire, in_process);
}

/// The third acknowledged-crash point of the exactly-once story: the
/// charge is durable, the answer is computed, and the reply frame dies
/// on the wire. A resubmission under the same idempotency key must
/// replay the durable answer — bit-identically, at zero additional ε.
#[test]
fn dropped_reply_frame_replays_without_recharging() {
    use blowfish::chaos::{NetFault, NetPlan};
    let net = build_net(
        40,
        None,
        ServerConfig::default(),
        NetConfig {
            fault_plan: Some(Arc::new(NetPlan::scripted([(1, NetFault::DropConnection)]))),
            ..NetConfig::default()
        },
    );
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("retry", 1.0).unwrap();
    let request = Request::range("pol", "ds", eps(0.4), 2, 22);
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
    use blowfish::chaos::{NetFault, NetPlan};
    let net = build_net(
        41,
        None,
        ServerConfig::default(),
        NetConfig {
            fault_plan: Some(Arc::new(NetPlan::scripted([(1, NetFault::DropConnection)]))),
            ..NetConfig::default()
        },
    );
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.open_session("idem", 1.0).unwrap();
    let response = client
        .call_idempotent(
            "idem",
            &Request::range("pol", "ds", eps(0.3), 0, 10),
            &RetryPolicy::default(),
        )
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
    use blowfish::chaos::{NetFault, NetPlan};
    for (fault, frames_out) in [(NetFault::TruncateReply, 8), (NetFault::DropConnection, 7)] {
        let dir = blowfish::store::scratch_dir("net-fifth-answer");
        let net = build_net_on(
            44,
            Some(held_store(&dir)),
            ServerConfig::default(),
            NetConfig {
                max_in_flight: 9,
                fault_plan: Some(Arc::new(NetPlan::scripted([(6, fault)]))),
                ..NetConfig::default()
            },
        );
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("burst", 1.0).unwrap();
        let primer = prime(&net, &mut client, "burst");
        let request = Request::range("pol", "ds", eps(0.1), 3, 33);
        let ids: Vec<u64> = (0..8)
            .map(|_| client.submit("burst", &request).unwrap())
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

/// The commit is the window: requests from two connections that arrive
/// while one (held) commit is in flight come back from exactly one epoch
/// — one tick, hence one `serve_groups` call; one fsync; one folded
/// release — with each analyst charged once.
#[test]
fn requests_arriving_during_one_commit_are_served_as_one_epoch() {
    let dir = blowfish::store::scratch_dir("net-commit-window");
    let store = held_store(&dir);
    let net = build_net_on(
        45,
        Some(Arc::clone(&store)),
        ServerConfig::default(),
        NetConfig::default(),
    );
    let mut ann = Client::connect(net.local_addr()).unwrap();
    let mut bee = Client::connect(net.local_addr()).unwrap();
    ann.open_session("ann", 2.0).unwrap();
    bee.open_session("bee", 2.0).unwrap();
    let (before, syncs_before) = (net.server().stats(), store.stats().syncs);

    let primer = prime(&net, &mut ann, "ann");
    let per_connection = 12;
    let burst = |client: &mut Client, analyst: &str, width: usize| -> Vec<u64> {
        (0..per_connection)
            .map(|i| {
                let r = Request::range("pol", "ds", eps(0.25), i, i + width);
                client.submit(analyst, &r).unwrap()
            })
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

/// The robustness counters ride the ordinary stats scrape: one
/// `StatsReport` covers fault injection, retries, replay hits, deadline
/// refusals and load shedding alongside the engine and store metrics.
#[test]
fn stats_report_exposes_the_chaos_and_retry_counters() {
    let net = build_net(42, None, ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).unwrap();
    let names: Vec<String> = client
        .stats()
        .unwrap()
        .iter()
        .map(|m| m.name().to_owned())
        .collect();
    for needle in [
        "faults_injected",
        "retries",
        "replay_cache_hits",
        "deadline_refusals",
        "shed_requests",
    ] {
        assert!(
            names.iter().any(|n| n.contains(needle)),
            "missing {needle} in {names:?}"
        );
    }
    net.shutdown().unwrap();
}

#[test]
fn mid_stream_disconnect_is_a_regression_guard_at_the_facade() {
    let dir = blowfish::store::scratch_dir("net-mid-stream");
    let net = build_net_on(
        36,
        Some(held_store(&dir)),
        ServerConfig::default(),
        NetConfig::default(),
    );
    let addr = net.local_addr();
    let mut steady = Client::connect(addr).unwrap();
    steady.open_session("steady", 1.0).unwrap();
    {
        let mut client = Client::connect(addr).unwrap();
        client.open_session("flaky", 1.0).unwrap();
        // Queued behind the primer's commit when the connection drops.
        let primer = prime(&net, &mut steady, "steady");
        client
            .submit("flaky", &Request::range("pol", "ds", eps(0.9), 0, 30))
            .unwrap();
        drop(client); // dropped mid-request
        steady.wait(primer).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while net.server().stats().cancelled == 0 {
        assert!(std::time::Instant::now() < deadline, "no cancellation seen");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The full budget survives for the reconnecting analyst.
    let mut client = Client::connect(addr).unwrap();
    let remaining = client.open_session("flaky", 1.0).unwrap();
    assert_eq!(remaining, 1.0, "abandoned request must not charge");
    client
        .call("flaky", &Request::range("pol", "ds", eps(0.9), 0, 30))
        .unwrap();
    net.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A request never waits on a timer: `tick_interval` is ignored (five
/// seconds here), and a serial analyst's answer leaves as soon as its
/// epoch commits — arrivals wake the driver, completions wake the
/// connection's writer.
#[test]
fn serial_calls_never_wait_on_the_tick_interval() {
    let net = build_net(
        37,
        None,
        ServerConfig::default(),
        NetConfig {
            tick_interval: Duration::from_secs(5),
            ..NetConfig::default()
        },
    );
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("serial", 10.0).unwrap();
    let started = std::time::Instant::now();
    for i in 0..50 {
        client
            .call(
                "serial",
                &Request::range("pol", "ds", eps(0.01), i % 30, i % 30 + 20),
            )
            .unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "50 serial calls took {:?}",
        started.elapsed()
    );
    client.goodbye().unwrap();
    net.shutdown().unwrap();
}

/// Reads a raw connection until the server closes it, or until it has
/// said nothing for `patience`: every reply, and whether it closed.
fn read_until_closed(
    stream: &mut std::net::TcpStream,
    patience: Duration,
) -> (Vec<blowfish::net::ServerMessage>, bool) {
    use blowfish::store::{FrameBuf, FrameRead};
    stream.set_read_timeout(Some(patience)).unwrap();
    let mut frames = FrameBuf::new();
    let mut replies = Vec::new();
    loop {
        while let FrameRead::Complete { payload, .. } = frames.next_frame() {
            replies.push(blowfish::net::ServerMessage::decode(payload).expect("a whole reply"));
        }
        match frames.fill(stream) {
            Ok(0) => return (replies, true),
            Ok(_) => {}
            Err(e) => {
                use std::io::ErrorKind::{TimedOut, WouldBlock};
                return (replies, !matches!(e.kind(), TimedOut | WouldBlock));
            }
        }
    }
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
    use blowfish::net::{proto::WireRequest, ClientMessage, ServerMessage};
    use blowfish::store::frame_bytes;
    use std::io::Write;
    let net = build_net(46, None, ServerConfig::default(), NetConfig::default());
    let request = Request::range("pol", "ds", eps(0.25), 4, 40);
    let mut alice = Client::connect(net.local_addr()).unwrap();
    alice.open_session("alice", 4.0).unwrap();
    alice.call("alice", &request).unwrap();
    assert!(alice.session_token("alice").is_some());
    let ledger = || {
        let snap = net.server().engine().session_snapshot("alice").unwrap();
        (snap.spent().to_bits(), snap.served())
    };
    let (before, protocol_errors) = (ledger(), net.stats().protocol_errors);

    let hello = |version| frame_bytes(&ClientMessage::Hello { id: 1, version }.encode());
    let mut submit_v3 = ClientMessage::Submit {
        id: 2,
        analyst: "alice".into(),
        request: WireRequest::from_request(&request),
        request_id: None,
        deadline_micros: None,
        trace_id: None,
        token: None,
    }
    .encode();
    // A v3 `Submit` is this one without the trailing token option.
    assert_eq!(submit_v3.pop(), Some(0), "an absent token is one zero byte");
    let attack = [hello(3), frame_bytes(&submit_v3)].concat();
    let probes = std::iter::once(("Hello v3 + tokenless v3 Submit".to_owned(), attack))
        .chain([0, 2, 3, 4, 6, u16::MAX].map(|v| (format!("Hello v{v}"), hello(v))));
    for (what, bytes) in probes {
        let mut raw = std::net::TcpStream::connect(net.local_addr()).unwrap();
        raw.write_all(&bytes).unwrap();
        let (replies, closed) = read_until_closed(&mut raw, Duration::from_secs(5));
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
        bus.publish(blowfish::obs::ClusterEventKind::Role, detail, 0);
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
    let net = build_net(47, None, ServerConfig::default(), NetConfig::default());
    let engine = Arc::clone(net.server().engine());
    let wide = Domain::line(1 << 16).unwrap();
    engine
        .register_policy("wide", Policy::distance_threshold(wide.clone(), 1))
        .unwrap();
    let rows = (0..1000).map(|i| i * 61).collect();
    engine
        .register_dataset("wide", Dataset::from_rows(wide, rows).unwrap())
        .unwrap();
    let bus = engine.obs().bus();

    let mut stuck = Client::connect(net.local_addr()).unwrap();
    stuck.open_session("stuck", 100.0).unwrap();
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
        bus.publish(blowfish::obs::ClusterEventKind::Role, "overflow", 0);
    }
    let mut writer = Client::connect(net.local_addr()).unwrap();
    writer.open_session("writer", 10.0).unwrap();
    for lo in 0..20 {
        let range = Request::range("pol", "ds", eps(0.01), lo, lo + 20);
        writer.call("writer", &range).unwrap();
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

/// A client that submits and never reads wedges its own connection's
/// writer in `write_all`, and its reader stays blocked in `read`
/// between frames. Neither may be what the next epoch waits on: the
/// same client's later requests are still answered. (A design where
/// the connection's threads lead epochs fails exactly this.)
#[test]
fn a_non_reading_clients_later_requests_are_still_served() {
    let net = build_net(53, None, ServerConfig::default(), NetConfig::default());
    let engine = Arc::clone(net.server().engine());
    // 65 536 cells: each histogram answer is 512 KiB, so a few of them
    // fill the loopback socket's buffers.
    let wide = Domain::line(1 << 16).unwrap();
    engine
        .register_policy("wide", Policy::distance_threshold(wide.clone(), 1))
        .unwrap();
    let rows = (0..1000).map(|i| i * 61).collect();
    engine
        .register_dataset("wide", Dataset::from_rows(wide, rows).unwrap())
        .unwrap();

    let mut stuck = Client::connect(net.local_addr()).unwrap();
    stuck.open_session("stuck", 100.0).unwrap();
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
