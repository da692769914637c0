//! End-to-end tests of PR 8's observability surface: request-scoped
//! distributed tracing over the wire (client-assigned trace ids, span
//! trees covering every pipeline stage, linked coalesced-release spans)
//! and the ε-provenance audit API (`Client::audit` replaying the WAL's
//! ledger history bit-for-bit, archived segments included).

use blowfish::net::{Client, NetConfig, NetError, NetServer, WireError};
use blowfish::obs::Stage;
use blowfish::prelude::*;
use blowfish::store::StoreConfig;
use std::sync::Arc;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn build_net(
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
    let server = Arc::new(Server::new(Arc::new(engine), server_config));
    NetServer::bind("127.0.0.1:0", server, net_config).unwrap()
}

/// Two analysts submit the identical range request with trace ids while
/// a primer's (slow) commit is in flight, so one epoch takes both and
/// serves them from one release. Both trace trees must cover all seven
/// stages end to end, and their release spans must carry the same link
/// id — amplification readable off either trace alone.
#[test]
fn traced_request_covers_all_seven_stages_with_linked_coalesced_release() {
    use blowfish::chaos::{StoreFault, StorePlan};
    let dir = blowfish::store::scratch_dir("trace-seven-stages");
    let slow_commits = StoreConfig {
        fault_plan: Some(Arc::new(StorePlan::every_kth(
            1,
            StoreFault::DelaySyncMicros(100_000),
        ))),
        ..StoreConfig::default()
    };
    let store = Arc::new(Store::open_with(&dir, slow_commits).unwrap());
    let net = build_net(
        51,
        Some(store),
        ServerConfig::default(),
        NetConfig::default(),
    );
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("ann", 4.0).unwrap();
    client.open_session("bee", 4.0).unwrap();
    let primer = client
        .submit("ann", &Request::histogram("pol", "ds", eps(0.5)))
        .unwrap();
    while net.server().stats().ticks == 0 {
        std::thread::yield_now();
    }
    // Identical requests within one commit: one shared release.
    let req = Request::range("pol", "ds", eps(0.5), 8, 40);
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
    let link_of = |tree: &blowfish::obs::TraceTree| {
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
    let net = build_net(52, None, ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("tiny", 0.25).unwrap();
    // Untraced baseline: no tree appears for it.
    client
        .call("tiny", &Request::range("pol", "ds", eps(0.1), 0, 10))
        .unwrap();
    // Over budget: admission control refuses after the trace began.
    let id = client
        .submit_traced(
            "tiny",
            &Request::range("pol", "ds", eps(5.0), 0, 10),
            None,
            None,
            Some(77),
        )
        .unwrap();
    assert!(client.wait(id).is_err());
    let traces = client.traces().unwrap();
    let refused = traces.iter().find(|t| t.id.0 == 77).unwrap();
    assert_ne!(refused.outcome, "ok");
    assert_eq!(traces.len(), 1, "the untraced call must leave no tree");
    net.shutdown().unwrap();
}

/// `Client::audit` must replay the analyst's WAL ledger history
/// bit-for-bit — agreeing with the store's own scan, surviving
/// compaction into `archive/`, and agreeing again after a fresh
/// process recovers from disk.
#[test]
fn audit_over_the_wire_matches_recovered_ledger_bit_for_bit() {
    let dir = blowfish::store::scratch_dir("trace-audit-ledger");
    let config = StoreConfig {
        archive_replayed_segments: true,
        ..StoreConfig::default()
    };
    let wire_entries = {
        let store = Arc::new(Store::open_with(&dir, config.clone()).unwrap());
        let net = build_net(
            53,
            Some(Arc::clone(&store)),
            ServerConfig::default(),
            NetConfig::default(),
        );
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("aud", 4.0).unwrap();
        for i in 0..3 {
            client
                .call("aud", &Request::range("pol", "ds", eps(0.25), i, i + 20))
                .unwrap();
        }
        // Compact mid-history: the charges above move to archive/, and
        // the audit must keep seeing them.
        store.compact().unwrap();
        // Tagged requests additionally write Replied records.
        let id = client
            .submit_tagged(
                "aud",
                &Request::range("pol", "ds", eps(0.25), 30, 50),
                Some(9),
                None,
            )
            .unwrap();
        client.wait(id).unwrap();
        let entries = client.audit("aud").unwrap();
        // The wire report agrees with the engine's own scan exactly.
        let direct = net.server().engine().ledger_history("aud").unwrap();
        assert_eq!(entries, direct);
        client.goodbye().unwrap();
        net.shutdown().unwrap();
        entries
    };
    assert!(
        wire_entries.len() >= 4,
        "3 charges + 1 tagged charge at minimum, got {wire_entries:?}"
    );
    assert!(
        wire_entries.windows(2).all(|w| w[0].seq < w[1].seq),
        "seq must be strictly increasing in WAL order"
    );
    // Every charge in this workload was for ε = 0.25 (the replay-carry
    // convention books 0 ε on records that ride a coalesced charge).
    assert!(wire_entries
        .iter()
        .all(|e| e.epsilon() == 0.0 || (e.epsilon() - 0.25).abs() < 1e-12));
    // Each entry's fingerprint is recomputable from its label alone.
    assert!(wire_entries
        .iter()
        .all(|e| e.fingerprint == blowfish::store::fnv1a(e.label.as_bytes())));
    // A brand-new process scanning the same directory reproduces the
    // identical entries — the audit is a property of the bytes on disk.
    let fresh = Store::open_with(&dir, config).unwrap();
    assert_eq!(fresh.ledger_history("aud").unwrap(), wire_entries);
    drop(fresh);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Per-record provenance is gated: a connection that never attached the
/// analyst's session is refused `BudgetAudit` (aggregate frames stay
/// open to every client — the documented trusted-curator model), and
/// reattaching with the session's original ε total unlocks it.
#[test]
fn audit_requires_an_attached_session_on_the_connection() {
    let dir = blowfish::store::scratch_dir("trace-audit-gate");
    let store = Arc::new(Store::open(&dir).unwrap());
    let net = build_net(
        55,
        Some(store),
        ServerConfig::default(),
        NetConfig::default(),
    );
    let mut owner = Client::connect(net.local_addr()).unwrap();
    owner.open_session("aud", 4.0).unwrap();
    owner
        .call("aud", &Request::range("pol", "ds", eps(0.25), 0, 20))
        .unwrap();

    let mut stranger = Client::connect(net.local_addr()).unwrap();
    let err = stranger.audit("aud").unwrap_err();
    assert!(
        matches!(err, NetError::Remote(WireError::InvalidRequest(_))),
        "unattached connection must be refused, got {err:?}"
    );
    // The aggregate snapshot is still open to any client.
    assert!(stranger.budget("aud").is_ok());
    // Reattaching needs the session's original ε total — that is the
    // capability the gate checks — and then the audit serves.
    stranger.open_session("aud", 4.0).unwrap();
    assert_eq!(stranger.audit("aud").unwrap(), owner.audit("aud").unwrap());
    net.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tracing is a pure side channel: the same seed and the same request
/// stream produce byte-identical answers whether every request is
/// traced or the whole observability layer is disabled.
#[test]
fn same_seed_answers_identical_tracing_on_and_off() {
    let run = |traced: bool| -> Vec<u64> {
        let net = build_net(54, None, ServerConfig::default(), NetConfig::default());
        if !traced {
            net.server().engine().obs().set_enabled(false);
        }
        let mut client = Client::connect(net.local_addr()).unwrap();
        client.open_session("d", 10.0).unwrap();
        let answers = (0..8u64)
            .map(|i| {
                let trace_id = traced.then_some(1000 + i);
                let id = client
                    .submit_traced(
                        "d",
                        &Request::range("pol", "ds", eps(0.25), i as usize, i as usize + 16),
                        None,
                        None,
                        trace_id,
                    )
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
    };
    assert_eq!(run(true), run(false));
}
