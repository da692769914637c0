//! # bf-net — wire protocol, TCP front-end and client library
//!
//! Everything below this crate serves callers in the same process; this
//! crate puts the Blowfish serving stack on a socket, so **multiple
//! client processes** can hammer one serving process and still get every
//! guarantee the in-process stack makes:
//!
//! ```text
//!  client proc ──┐
//!  client proc ──┼─TCP─► NetServer ─► Server (fairness, coalescing) ─► Engine ─► Store (WAL)
//!  client proc ──┘        (bf-net)     (bf-server)                      (bf-engine) (bf-store)
//! ```
//!
//! * **One protocol, one framing.** [`proto`] defines one
//!   length-prefixed, XXH64-checksummed binary protocol reusing the
//!   WAL's record-framing discipline (`bf_store::frame_into` /
//!   `bf_store::read_frame` / `bf_store::FrameBuf`; a peer still sealing
//!   frames with byte-wise FNV-1a is refused at its first frame), with
//!   typed error replies mirroring `ServerError` / `EngineError` and
//!   every ε as exact `f64` bits.
//! * **The scheduler is reused, not reimplemented.** [`NetServer`]
//!   decodes frames into `Server::submit` tickets: per-analyst fair
//!   queues, cross-analyst coalescing, same-`(policy, data, ε)` range
//!   folding, admission control and durable charging all apply to
//!   remote analysts unchanged.
//! * **Backpressure is layered and typed.** A connection has a bounded
//!   in-flight window ([`proto::WireError::WindowFull`]); an analyst
//!   has a bounded queue (`QueueFull`), surfaced over the wire.
//! * **Disconnects don't leak.** A client that vanishes mid-request
//!   releases its tickets; the scheduler cancels not-yet-dispatched
//!   work before any ε is charged.
//! * **Reconnect is reattach.** [`Client::reconnect`] re-dials and
//!   reopens its sessions through `Engine::attach_session` — the same
//!   recovery path a crash-restarted serving process exposes — so a
//!   client lands on its durable ledger whether the socket dropped or
//!   the whole server was killed and recovered from its WAL.
//! * **Multi-process runs are reproducible.** Release noise is a pure
//!   function of `(engine seed, release identity, ledger position)`
//!   — the position counts the payer's earlier charges — so concurrent client processes with disjoint query
//!   streams observe byte-identical answers across same-seed runs no
//!   matter how the network interleaves them
//!   (`examples/remote_analysts.rs` asserts this end to end).

#![deny(missing_docs)]

mod client;
mod error;
pub mod proto;
mod server;

pub use client::{BudgetSnapshot, Client, HealthSnapshot, RetryPolicy, WatchHandle};
pub use error::NetError;
pub use proto::{
    ClientMessage, ServerMessage, WireError, WireLogEntry, WireLogOp, WireMetric, PROTOCOL_VERSION,
};
pub use server::{
    wake_acceptor, NetConfig, NetServer, NetStats, PeerScrape, ReplicaHealth, ReplicaHook,
    ServerRole,
};

#[cfg(test)]
mod tests {
    use super::*;
    use bf_core::{Epsilon, Policy};
    use bf_domain::{Dataset, Domain};
    use bf_engine::{Engine, Request};
    use bf_server::{Server, ServerConfig};
    use std::sync::Arc;
    use std::time::Duration;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// `pol` and `ds` on a 64-cell line, on a WAL when `store` is given.
    fn engine(seed: u64, store: Option<Arc<bf_engine::Store>>) -> Arc<Engine> {
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
        Arc::new(engine)
    }

    fn net_server(seed: u64, server_config: ServerConfig, net_config: NetConfig) -> NetServer {
        let server = Arc::new(Server::new(engine(seed, None), server_config));
        NetServer::bind("127.0.0.1:0", server, net_config).unwrap()
    }

    /// How long [`held_net_server`]'s commits take: long against a
    /// loopback round trip, short against a test.
    const HOLD: Duration = Duration::from_millis(60);

    /// A WAL-backed server whose every commit takes at least [`HOLD`]
    /// (`StoreFault::DelaySyncMicros`). The commit is the scheduler's
    /// window, so whatever a test sends while one request's epoch
    /// commits is still queued when it returns, and is served together
    /// as the next epoch. Returns the WAL directory for the test to
    /// remove.
    fn held_net_server(
        seed: u64,
        server_config: ServerConfig,
        net_config: NetConfig,
    ) -> (NetServer, std::path::PathBuf) {
        use bf_chaos::{StoreFault, StorePlan};
        let dir = bf_store::scratch_dir(&format!("net-held-{seed}"));
        let fault = StoreFault::DelaySyncMicros(HOLD.as_micros() as u64);
        let config = bf_store::StoreConfig {
            fault_plan: Some(Arc::new(StorePlan::every_kth(1, fault))),
            ..bf_store::StoreConfig::default()
        };
        let store = Arc::new(bf_engine::Store::open_with(&dir, config).unwrap());
        let server = Arc::new(Server::new(engine(seed, Some(store)), server_config));
        let net = NetServer::bind("127.0.0.1:0", server, net_config).unwrap();
        (net, dir)
    }

    #[test]
    fn pipelined_submissions_answer_out_of_order_waits() {
        let net = net_server(12, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("p", 10.0).unwrap();
        let ids: Vec<u64> = (0..16)
            .map(|i| {
                client
                    .submit("p", &Request::range("pol", "ds", eps(0.1), i, i + 20))
                    .unwrap()
            })
            .collect();
        assert_eq!(client.in_flight(), 16);
        // Wait newest-first: the client buffers replies for other ids.
        for &id in ids.iter().rev() {
            assert!(client.wait(id).unwrap().scalar().unwrap().is_finite());
        }
        assert_eq!(client.in_flight(), 0);
        net.shutdown().unwrap();
    }

    #[test]
    fn in_flight_window_refuses_over_the_wire() {
        // Slow commits, so the first answer cannot race the third
        // submit.
        let (net, dir) = held_net_server(
            13,
            ServerConfig::default(),
            NetConfig {
                max_in_flight: 2,
                ..NetConfig::default()
            },
        );
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("w", 10.0).unwrap();
        let a = client
            .submit("w", &Request::range("pol", "ds", eps(0.1), 0, 10))
            .unwrap();
        let b = client
            .submit("w", &Request::range("pol", "ds", eps(0.1), 0, 11))
            .unwrap();
        let c = client
            .submit("w", &Request::range("pol", "ds", eps(0.1), 0, 12))
            .unwrap();
        match client.wait(c) {
            Err(NetError::Remote(WireError::WindowFull { capacity })) => {
                assert_eq!(capacity, 2)
            }
            other => panic!("expected WindowFull, got {other:?}"),
        }
        assert!(client.wait(a).is_ok());
        assert!(client.wait(b).is_ok());
        assert_eq!(net.stats().window_refusals, 1);
        net.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_over_the_wire_folds_ranges_into_shared_releases() {
        // The batch arrives in one frame and is submitted under one
        // hold of the scheduler lock, so no tick can split it: all six
        // members ride one epoch, whatever the load on the test host.
        let net = net_server(14, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("b", 10.0).unwrap();
        let requests: Vec<Request> = (0..6)
            .map(|i| Request::range("pol", "ds", eps(0.5), i, i + 30))
            .collect();
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
    fn batch_members_count_against_the_window() {
        let net = net_server(
            20,
            ServerConfig::default(),
            NetConfig {
                max_in_flight: 4,
                ..NetConfig::default()
            },
        );
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("bw", 10.0).unwrap();
        // A 5-member batch overflows a window of 4 even with nothing
        // else outstanding — the window bounds requests, not frames.
        let requests: Vec<Request> = (0..5)
            .map(|i| Request::range("pol", "ds", eps(0.1), i, i + 10))
            .collect();
        match client.call_batch("bw", &requests) {
            Err(NetError::Remote(WireError::WindowFull { capacity })) => {
                assert_eq!(capacity, 4)
            }
            other => panic!("expected WindowFull, got {other:?}"),
        }
        // A fitting batch goes through.
        assert!(client.call_batch("bw", &requests[..4]).is_ok());
        net.shutdown().unwrap();
    }

    #[test]
    fn typed_errors_cross_the_wire() {
        let net = net_server(15, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        // Unknown analyst refuses at submit.
        let id = client
            .submit("ghost", &Request::range("pol", "ds", eps(0.1), 0, 5))
            .unwrap();
        assert!(matches!(
            client.wait(id),
            Err(NetError::Remote(WireError::UnknownAnalyst(a))) if a == "ghost"
        ));
        // Admission control: over-budget ε refuses with exact bits.
        client.open_session("tiny", 0.25).unwrap();
        let id = client
            .submit("tiny", &Request::range("pol", "ds", eps(0.5), 0, 5))
            .unwrap();
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
        assert!(client
            .call("tiny", &Request::range("pol", "ds", eps(0.1), 0, 5))
            .is_ok());
        net.shutdown().unwrap();
    }

    #[test]
    fn reconnect_reattaches_sessions_on_the_same_ledger() {
        let net = net_server(17, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("r", 2.0).unwrap();
        client
            .call("r", &Request::range("pol", "ds", eps(0.75), 4, 40))
            .unwrap();
        let reattached = client.reconnect().unwrap();
        assert_eq!(reattached.len(), 1);
        assert_eq!(reattached[0].0, "r");
        assert!((reattached[0].1 - 1.25).abs() < 1e-12, "spent ε survives");
        // The reattached session keeps serving on the same ledger.
        client
            .call("r", &Request::range("pol", "ds", eps(0.25), 4, 40))
            .unwrap();
        assert!((client.budget("r").unwrap().remaining - 1.0).abs() < 1e-12);
        net.shutdown().unwrap();
    }

    #[test]
    fn disconnect_mid_request_cancels_without_charges_or_leaks() {
        // Slow commits, and a primer request whose epoch is committing,
        // so the request is still queued when the client vanishes.
        let (net, dir) = held_net_server(
            18,
            ServerConfig {
                queue_capacity: 8,
                ..ServerConfig::default()
            },
            NetConfig::default(),
        );
        let addr = net.local_addr();
        let mut primer = Client::connect(addr).unwrap();
        primer.open_session("primer", 1.0).unwrap();
        {
            let mut client = Client::connect(addr).unwrap();
            client.open_session("gone", 1.0).unwrap();
            let primed = primer
                .submit("primer", &Request::range("pol", "ds", eps(0.5), 0, 10))
                .unwrap();
            while net.server().stats().ticks == 0 {
                std::thread::yield_now();
            }
            client
                .submit("gone", &Request::range("pol", "ds", eps(0.5), 0, 10))
                .unwrap();
            // Dropped here: the socket closes with the request in flight.
            drop(client);
            primer.wait(primed).unwrap();
        }
        // The handler notices EOF, releases the ticket, and the next
        // sweep cancels the undispatched work.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while net.server().stats().cancelled == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "cancellation never observed: {:?}",
                net.server().stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(net.stats().disconnects_mid_request, 1);
        // No ε was charged for the abandoned request …
        assert!(
            (net.server().engine().session_remaining("gone").unwrap() - 1.0).abs() < 1e-12,
            "cancelled request must not charge"
        );
        // … and no queue slot leaked: a reconnecting client can fill the
        // queue to capacity and drain it.
        let mut client = Client::connect(addr).unwrap();
        client.open_session("gone", 1.0).unwrap();
        let ids: Vec<u64> = (0..8)
            .map(|i| {
                client
                    .submit("gone", &Request::range("pol", "ds", eps(0.01), i, i + 5))
                    .unwrap()
            })
            .collect();
        for id in ids {
            assert!(client.wait(id).is_ok());
        }
        net.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One writer per socket: 64 pipelined submits and a `Goodbye` sent
    /// without reading anything come back as exactly one answer per id,
    /// then `Farewell` as the last frame, then EOF.
    #[test]
    fn pipelined_goodbye_answers_each_id_once_and_farewell_is_last() {
        let net = net_server(31, ServerConfig::default(), NetConfig::default());
        let mut raw = RawClient::connect(net.local_addr());
        let token = match raw.call(&ClientMessage::OpenSession {
            id: 2,
            analyst: "p".into(),
            total_bits: 100.0f64.to_bits(),
        }) {
            ServerMessage::SessionAttached { token, .. } => token,
            other => panic!("expected SessionAttached, got {other:?}"),
        };
        let mut frames = Vec::new();
        for i in 0..64u64 {
            let request = Request::range(
                "pol",
                "ds",
                eps(0.01),
                i as usize % 40,
                i as usize % 40 + 20,
            );
            frames.extend(bf_store::frame_bytes(
                &ClientMessage::Submit {
                    id: 100 + i,
                    analyst: "p".into(),
                    request: proto::WireRequest::from_request(&request),
                    request_id: None,
                    deadline_micros: None,
                    trace_id: None,
                    token: Some(token),
                }
                .encode(),
            ));
        }
        frames.extend(bf_store::frame_bytes(
            &ClientMessage::Goodbye { id: 999 }.encode(),
        ));
        std::io::Write::write_all(&mut raw.stream, &frames).unwrap();
        let mut answered = std::collections::BTreeSet::new();
        loop {
            match raw.read_reply() {
                ServerMessage::Answer { id, .. } => assert!(answered.insert(id), "id {id} twice"),
                ServerMessage::Farewell { id } => {
                    assert_eq!(id, 999);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(
            answered.into_iter().collect::<Vec<_>>(),
            (100..164).collect::<Vec<_>>()
        );
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut raw.stream, &mut rest).unwrap();
        assert!(
            raw.buf.is_empty() && rest.is_empty(),
            "Farewell must be the last frame"
        );
        assert_eq!(net.stats().disconnects_mid_request, 0);
        net.shutdown().unwrap();
    }

    /// Shutdown wakes a reader blocked in `read` and acceptors blocked in
    /// `accept`; it does not wait for the client to hang up.
    #[test]
    fn shutdown_with_an_idle_connected_client_returns_promptly() {
        let net = net_server(32, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("idle", 1.0).unwrap();
        let started = std::time::Instant::now();
        net.shutdown().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert!(client.budget("idle").is_err(), "the connection is closed");
    }

    /// An answer leaves when its ticket resolves, not on a schedule: the
    /// median serial round trip sits well under 625 µs (a median, so one
    /// descheduled call cannot fail it), and frames that carry no answer
    /// are not held either.
    #[test]
    fn answers_leave_when_resolved() {
        let net = net_server(33, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("serial", 10.0).unwrap();
        let mut round_trips: Vec<Duration> = (0..200)
            .map(|i| {
                let range = Request::range("pol", "ds", eps(0.01), i % 40, i % 40 + 20);
                let started = std::time::Instant::now();
                client.call("serial", &range).unwrap();
                started.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_micros(625),
            "median serial round trip {median:?}"
        );
        let started = std::time::Instant::now();
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

    /// A raw socket that sends exactly the frames a test hands it — no
    /// tokens presented for it, no retries.
    struct RawClient {
        stream: std::net::TcpStream,
        buf: Vec<u8>,
    }

    impl RawClient {
        fn connect(addr: std::net::SocketAddr) -> RawClient {
            let mut raw = RawClient {
                stream: std::net::TcpStream::connect(addr).unwrap(),
                buf: Vec::new(),
            };
            let hello = ClientMessage::Hello {
                id: 1,
                version: PROTOCOL_VERSION,
            };
            match raw.call(&hello) {
                ServerMessage::Welcome { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
                other => panic!("expected Welcome, got {other:?}"),
            }
            raw
        }

        fn call(&mut self, msg: &ClientMessage) -> ServerMessage {
            use std::io::Write;
            self.stream
                .write_all(&bf_store::frame_bytes(&msg.encode()))
                .unwrap();
            self.read_reply()
        }

        fn read_reply(&mut self) -> ServerMessage {
            use std::io::Read;
            let mut chunk = [0u8; 4096];
            loop {
                if let bf_store::FrameRead::Complete { payload, consumed } =
                    bf_store::read_frame(&self.buf)
                {
                    let reply = ServerMessage::decode(payload).unwrap();
                    self.buf.drain(..consumed);
                    return reply;
                }
                let n = self.stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed mid-call");
                self.buf.extend_from_slice(&chunk[..n]);
            }
        }
    }

    #[test]
    fn session_tokens_gate_submit_batch_and_audit() {
        let dir = bf_store::scratch_dir("net-tokens");
        let store = Arc::new(bf_engine::Store::open(&dir).unwrap());
        let server = Arc::new(Server::with_defaults(engine(24, Some(store))));
        let net = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).unwrap();

        // A full client attaches, learns its token, and serves normally
        // (tokens ride along invisibly).
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("alice", 4.0).unwrap();
        let token = client.session_token("alice").unwrap();
        assert_ne!(token, 0);
        client
            .call("alice", &Request::range("pol", "ds", eps(0.25), 4, 40))
            .unwrap();
        assert!(!client.audit("alice").unwrap().is_empty());

        // A connection omitting or forging the token is refused.
        let mut raw = RawClient::connect(net.local_addr());
        let submit = |token: Option<u64>, id: u64| ClientMessage::Submit {
            id,
            analyst: "alice".into(),
            request: crate::proto::WireRequest::from_request(&Request::range(
                "pol",
                "ds",
                eps(0.25),
                4,
                40,
            )),
            request_id: None,
            deadline_micros: None,
            trace_id: None,
            token,
        };
        match raw.call(&submit(None, 10)) {
            ServerMessage::Refused {
                error: WireError::InvalidRequest(msg),
                ..
            } => assert!(msg.contains("token"), "got {msg}"),
            other => panic!("expected token refusal, got {other:?}"),
        }
        match raw.call(&submit(Some(token ^ 1), 11)) {
            ServerMessage::Refused {
                error: WireError::InvalidRequest(_),
                ..
            } => {}
            other => panic!("expected token refusal, got {other:?}"),
        }
        // Audit needs attach *and* the token.
        match raw.call(&ClientMessage::OpenSession {
            id: 12,
            analyst: "alice".into(),
            total_bits: 4.0f64.to_bits(),
        }) {
            ServerMessage::SessionAttached { token: issued, .. } => {
                assert_eq!(issued, token, "tokens are process-stable");
            }
            other => panic!("expected SessionAttached, got {other:?}"),
        }
        match raw.call(&ClientMessage::BudgetAudit {
            id: 13,
            analyst: "alice".into(),
            token: None,
        }) {
            ServerMessage::Refused {
                error: WireError::InvalidRequest(msg),
                ..
            } => assert!(msg.contains("token"), "got {msg}"),
            other => panic!("expected token refusal, got {other:?}"),
        }
        // The right token serves both.
        match raw.call(&submit(Some(token), 14)) {
            ServerMessage::Answer { .. } => {}
            other => panic!("expected Answer, got {other:?}"),
        }
        match raw.call(&ClientMessage::BudgetAudit {
            id: 15,
            analyst: "alice".into(),
            token: Some(token),
        }) {
            ServerMessage::AuditReport { entries, .. } => assert!(!entries.is_empty()),
            other => panic!("expected AuditReport, got {other:?}"),
        }
        // Batches charge the same budget, so they pass the same gate —
        // a tokenless batch must not sidestep what Submit enforces.
        let batch = |token: Option<u64>, id: u64| ClientMessage::SubmitBatch {
            id,
            analyst: "alice".into(),
            requests: vec![crate::proto::WireRequest::from_request(&Request::range(
                "pol",
                "ds",
                eps(0.25),
                4,
                40,
            ))],
            token,
        };
        match raw.call(&batch(None, 16)) {
            ServerMessage::Refused {
                error: WireError::InvalidRequest(msg),
                ..
            } => assert!(msg.contains("token"), "got {msg}"),
            other => panic!("expected token refusal, got {other:?}"),
        }
        match raw.call(&batch(Some(token), 17)) {
            ServerMessage::BatchAnswer { slots, .. } => {
                assert_eq!(slots.len(), 1);
                assert!(slots[0].is_ok());
            }
            other => panic!("expected BatchAnswer, got {other:?}"),
        }
        // Client-supplied idempotency keys must stay out of the range
        // reserved for log-position-derived ones.
        match raw.call(&ClientMessage::Submit {
            id: 18,
            analyst: "alice".into(),
            request: crate::proto::WireRequest::from_request(&Request::range(
                "pol",
                "ds",
                eps(0.25),
                4,
                40,
            )),
            request_id: Some(crate::proto::RESERVED_REQUEST_ID_BASE),
            deadline_micros: None,
            trace_id: None,
            token: Some(token),
        }) {
            ServerMessage::Refused {
                error: WireError::InvalidRequest(msg),
                ..
            } => assert!(msg.contains("reserved"), "got {msg}"),
            other => panic!("expected reserved-range refusal, got {other:?}"),
        }
        net.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A scripted [`ReplicaHook`]: either a "leader" that executes
    /// sequenced writes straight through an engine, or a "follower"
    /// that refuses writes with a leader hint and optionally reports
    /// itself stale for reads.
    struct TestHook {
        engine: Option<Arc<Engine>>,
        leader_hint: String,
        stale: Option<u64>,
        next_rid: std::sync::atomic::AtomicU64,
    }

    impl ReplicaHook for TestHook {
        fn sequence_submit(
            &self,
            analyst: &str,
            request_id: Option<u64>,
            request: Request,
        ) -> Result<bf_server::Ticket, WireError> {
            let Some(engine) = &self.engine else {
                return Err(WireError::NotLeader {
                    leader: self.leader_hint.clone(),
                });
            };
            let rid = request_id.unwrap_or_else(|| {
                (1 << 62)
                    | self
                        .next_rid
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            });
            let (resolver, ticket) = bf_server::Ticket::pair();
            resolver.resolve(
                engine
                    .serve_tagged(analyst, rid, &request)
                    .map_err(bf_server::ServerError::Engine),
            );
            Ok(ticket)
        }

        fn sequence_open(&self, analyst: &str, total_bits: u64) -> Result<f64, WireError> {
            let Some(engine) = &self.engine else {
                return Err(WireError::NotLeader {
                    leader: self.leader_hint.clone(),
                });
            };
            let total = bf_core::Epsilon::new(f64::from_bits(total_bits))
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
        let server = Arc::new(Server::with_defaults(Arc::clone(&engine)));
        let hook = Arc::new(TestHook {
            engine: Some(Arc::clone(&engine)),
            leader_hint: String::new(),
            stale: None,
            next_rid: std::sync::atomic::AtomicU64::new(1),
        });
        let net = NetServer::bind(
            "127.0.0.1:0",
            server,
            NetConfig {
                role: ServerRole::Replica(hook),
                ..NetConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(net.local_addr()).unwrap();
        // OpenSession sequences through the hook…
        assert_eq!(client.open_session("h", 2.0).unwrap(), 2.0);
        // …and so do submits: the answer comes from the hook's engine
        // execution, not the local scheduler.
        let resp = client
            .call("h", &Request::range("pol", "ds", eps(0.5), 4, 40))
            .unwrap();
        assert!(resp.scalar().unwrap().is_finite());
        assert_eq!(net.server().stats().answered, 0, "scheduler bypassed");
        // Reads serve locally when the hook does not object.
        assert!((client.budget("h").unwrap().spent - 0.5).abs() < 1e-12);
        net.shutdown().unwrap();
    }

    #[test]
    fn follower_refuses_writes_and_stale_reads() {
        let net = net_server(
            26,
            ServerConfig::default(),
            NetConfig {
                role: ServerRole::Replica(Arc::new(TestHook {
                    engine: None,
                    leader_hint: "10.0.0.9:4040".into(),
                    stale: Some(7),
                    next_rid: std::sync::atomic::AtomicU64::new(1),
                })),
                ..NetConfig::default()
            },
        );
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
        let leader = net_server(27, ServerConfig::default(), NetConfig::default());
        leader
            .server()
            .engine()
            .attach_session("redir", eps(2.0))
            .unwrap();
        // The "follower" refuses writes, hinting at the leader.
        let follower = net_server(
            27,
            ServerConfig::default(),
            NetConfig {
                role: ServerRole::Replica(Arc::new(TestHook {
                    engine: None,
                    leader_hint: leader.local_addr().to_string(),
                    stale: None,
                    next_rid: std::sync::atomic::AtomicU64::new(1),
                })),
                ..NetConfig::default()
            },
        );
        let mut client = Client::connect(follower.local_addr()).unwrap();
        let resp = client
            .call_idempotent(
                "redir",
                &Request::range("pol", "ds", eps(0.5), 4, 40),
                &RetryPolicy::default(),
            )
            .unwrap();
        assert!(resp.scalar().unwrap().is_finite());
        assert_eq!(
            client.addr(),
            leader.local_addr(),
            "client followed the hint"
        );
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
        let net = net_server(28, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect_cluster(&[dead, net.local_addr()][..]).unwrap();
        assert_eq!(client.addr(), net.local_addr());
        client.open_session("c", 1.0).unwrap();
        assert!(client
            .call("c", &Request::range("pol", "ds", eps(0.25), 4, 40))
            .is_ok());
        net.shutdown().unwrap();
    }

    #[test]
    fn stats_over_the_wire_cover_every_layer() {
        let net = net_server(22, ServerConfig::default(), NetConfig::default());
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("s", 10.0).unwrap();
        for i in 0..8 {
            client
                .call("s", &Request::range("pol", "ds", eps(0.25), i, i + 16))
                .unwrap();
        }
        let metrics = client.stats().unwrap();
        let find = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name() == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        // One report spans the TCP, scheduler, engine and span layers.
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
        // The poll-loop histograms went with the poll loop.
        assert!(!metrics.iter().any(|m| m.name().starts_with("net_tick_")));
        // And the samples render through bf-obs unchanged.
        let snaps: Vec<bf_obs::MetricSnapshot> =
            metrics.iter().map(WireMetric::to_snapshot).collect();
        let text = bf_obs::render_prometheus(&snaps);
        assert!(text.contains("net_request_ns{quantile=\"0.99\"}"));
        assert!(text.contains("server_answered_total 8"));
        net.shutdown().unwrap();
    }

    #[test]
    fn standalone_cluster_stats_health_and_watch() {
        let net = net_server(
            30,
            ServerConfig::default(),
            NetConfig {
                slos: vec![bf_obs::SloSpec {
                    name: "w-burn".into(),
                    objective: bf_obs::SloObjective::BudgetBurnUnder {
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
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !bus.has_subscribers() {
            assert!(
                std::time::Instant::now() < deadline,
                "the watch never subscribed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("w", 4.0).unwrap();
        let range = Request::range("pol", "ds", eps(0.5), 0, 16);
        client.call("w", &range).unwrap();

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
        let merged = bf_obs::merge_labeled_snapshots(
            "replica",
            replicas
                .iter()
                .map(|r| {
                    (
                        r.node.clone(),
                        r.metrics.iter().map(WireMetric::to_snapshot).collect(),
                    )
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
        client.call("w", &range).unwrap();
        assert_eq!(client.health().unwrap().firing, vec!["w-burn".to_string()]);

        // ... and the flip reaches the open watch as a pushed event.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut fired = None;
        while fired.is_none() && std::time::Instant::now() < deadline {
            match watch.next(Duration::from_millis(100)).unwrap() {
                Some(ev) if ev.kind == bf_obs::ClusterEventKind::Slo => fired = Some(ev),
                Some(_) | None => {}
            }
        }
        let fired = fired.expect("the SLO flip never reached the watcher");
        assert_eq!((fired.detail.as_str(), fired.value), ("w-burn", 1));

        client.goodbye().unwrap();
        net.shutdown().unwrap();
    }
}
