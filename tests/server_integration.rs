//! End-to-end tests of the async serving front-end through its public
//! API: epochs (a tick takes everything queued; one engine call, one
//! commit), deterministic cross-analyst coalescing, the range fold
//! across two registrations of one policy, fairness at the epoch bound,
//! admission, cancellation, deadlines, exactly-once retries, the
//! background driver, session TTLs and shutdown, a multi-thread
//! scheduler stress, and a property test pinning coalesced answers to
//! sequential `Engine::serve` answers.

use blowfish::prelude::*;
use blowfish::server::EPOCH_MAX_REQUESTS;
use proptest::prelude::*;
use std::sync::Arc;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn engine_with(seed: u64, size: usize, theta: u64) -> Arc<Engine> {
    let engine = Engine::with_seed(seed);
    let domain = Domain::line(size).unwrap();
    engine
        .register_policy("pol", Policy::distance_threshold(domain.clone(), theta))
        .unwrap();
    let rows: Vec<usize> = (0..size * 5).map(|i| (i * 11) % size).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    Arc::new(engine)
}

/// The 64-cell, θ = 2 fixture most single-behaviour tests share.
fn engine_with64(seed: u64) -> Arc<Engine> {
    engine_with(seed, 64, 2)
}

/// N waiters from N different sessions, one release, N independent ε
/// charges — and the whole run is deterministic: same seed + same
/// submission order ⇒ byte-identical answers.
#[test]
fn same_seed_coalescing_is_deterministic() {
    let run = || -> (Vec<u64>, ServerStats) {
        let engine = engine_with(42, 128, 3);
        let n = 6;
        for i in 0..n {
            engine
                .open_session(format!("analyst-{i}"), eps(2.0))
                .unwrap();
        }
        let server = Server::with_defaults(Arc::clone(&engine));
        let tickets: Vec<Ticket> = (0..n)
            .map(|i| {
                server
                    .submit(
                        &format!("analyst-{i}"),
                        Request::range("pol", "ds", eps(0.25), 16, 63),
                    )
                    .unwrap()
            })
            .collect();
        server.pump_until_idle();
        let bits: Vec<u64> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().scalar().unwrap().to_bits())
            .collect();
        // N independent ε charges, one per answered waiter.
        for i in 0..n {
            let snap = engine.session_snapshot(&format!("analyst-{i}")).unwrap();
            assert!((snap.spent() - 0.25).abs() < 1e-12);
            assert_eq!(snap.ledger().len(), 1);
        }
        (bits, server.stats())
    };
    let (bits_a, stats_a) = run();
    let (bits_b, stats_b) = run();
    assert_eq!(bits_a, bits_b, "same-seed runs must be byte-identical");
    // All six answers share one release's noise.
    assert!(bits_a.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(stats_a.releases, 1);
    assert_eq!(stats_a.answered, 6);
    assert_eq!(stats_a, stats_b);
}

/// The fold rule lives in one place and keys on what a policy *is*: two
/// range requests naming two registrations of one structurally equal
/// policy that meet in one tick fold into one Ordered release, exactly
/// as if both had named the same registration. (The scheduler and the
/// engine used to disagree on this, and both requests came back
/// `InvalidRequest`.)
#[test]
fn structurally_equal_policies_fold_into_one_release() {
    let engine = Engine::with_seed(19);
    let domain = Domain::line(64).unwrap();
    for name in ["pol_a", "pol_b"] {
        engine
            .register_policy(name, Policy::distance_threshold(domain.clone(), 3))
            .unwrap();
    }
    let rows: Vec<usize> = (0..320).map(|i| (i * 11) % 64).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    let engine = Arc::new(engine);
    engine.open_session("alice", eps(1.0)).unwrap();
    engine.open_session("bob", eps(1.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    let alice = server
        .submit("alice", Request::range("pol_a", "ds", eps(0.25), 3, 20))
        .unwrap();
    let bob = server
        .submit("bob", Request::range("pol_b", "ds", eps(0.25), 5, 30))
        .unwrap();
    server.pump_until_idle();
    assert!(alice.wait().unwrap().scalar().unwrap().is_finite());
    assert!(bob.wait().unwrap().scalar().unwrap().is_finite());
    for analyst in ["alice", "bob"] {
        let snap = engine.session_snapshot(analyst).unwrap();
        assert!((snap.spent() - 0.25).abs() < 1e-12, "{analyst} pays ε once");
        assert_eq!(snap.ledger().len(), 1);
    }
    let stats = server.stats();
    assert_eq!(stats.releases, 1);
    assert_eq!(stats.batched_range_answers, 2);
}

/// Same seed + same submission order + same tick boundaries ⇒
/// byte-identical answers and ledgers, across several epochs of mixed
/// traffic — and each burst, however deep, is ONE epoch: 40 requests
/// from two analysts resolve on the single tick that drains them.
#[test]
fn same_seed_same_ticks_reproduce_answers_and_ledgers() {
    type Ledgers = Vec<Vec<(String, f64)>>;
    let run = || -> (Vec<Vec<u8>>, Ledgers, ServerStats) {
        let engine = engine_with(77, 128, 3);
        let analysts = ["ann", "bee", "cat"];
        for a in analysts {
            engine.open_session(a, eps(1e3)).unwrap();
        }
        let server = Server::with_defaults(Arc::clone(&engine));
        let mut answers = Vec::new();
        for epoch in 0..3 {
            let mut tickets = Vec::new();
            for i in 0..20 {
                for who in &analysts[..2] {
                    let lo = (epoch * 7 + i) % 60;
                    let r = Request::range("pol", "ds", eps(0.25), lo, lo + 40);
                    tickets.push(server.submit(who, r).unwrap());
                }
            }
            let extras = [
                Request::histogram("pol", "ds", eps(0.5)),
                Request::cumulative_histogram("pol", "ds", eps(0.5)),
                Request::range("pol", "ds", eps(0.125), 3, 99),
            ];
            tickets.extend(extras.map(|r| server.submit("cat", r).unwrap()));
            assert_eq!(server.tick(), 43, "one tick takes the whole burst");
            answers.extend(tickets.iter().map(|t| {
                t.try_take()
                    .expect("resolved by its tick")
                    .unwrap()
                    .to_bytes()
            }));
        }
        let ledgers = analysts
            .iter()
            .map(|a| engine.session_snapshot(a).unwrap().ledger().to_vec())
            .collect();
        (answers, ledgers, server.stats())
    };
    let (answers_a, ledgers_a, stats_a) = run();
    let (answers_b, ledgers_b, stats_b) = run();
    assert_eq!(answers_a, answers_b, "same-seed answers, byte for byte");
    assert_eq!(ledgers_a, ledgers_b, "same-seed ledgers, entry for entry");
    assert_eq!(stats_a, stats_b);
    assert_eq!(stats_a.ticks, 3);
    // Per epoch: the 40 same-ε ranges fold into one Ordered release; the
    // histogram, the cumulative histogram and the lone ε = 0.125 range
    // are one release each.
    assert_eq!(stats_a.releases, 3 * 4);
    assert_eq!(stats_a.batched_range_answers, 3 * 40);
}

/// An epoch of one is a request's whole path: a lone request resolves
/// on the tick that drains it, every time (`server.ticks_per_request`
/// is 1.0), and the epoch-width histogram says so.
#[test]
fn a_lone_request_resolves_on_the_tick_that_drains_it() {
    let engine = engine_with64(21);
    engine.open_session("a", eps(10.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    for i in 0..10 {
        let t = server
            .submit("a", Request::range("pol", "ds", eps(0.1), i, i + 9))
            .unwrap();
        assert_eq!(server.tick(), 1);
        assert!(t.try_take().is_some(), "idle traffic must not wait");
    }
    let stats = server.stats();
    assert_eq!((stats.ticks, stats.answered, stats.releases), (10, 10, 10));
    let widths = engine.obs().histogram("server_epoch_requests").summary();
    assert_eq!((widths.count, widths.sum, widths.max), (10, 10, 1));
}

/// Fairness at the epoch bound. A flooder queued past
/// [`EPOCH_MAX_REQUESTS`] cannot starve a light analyst: whole rounds
/// hand each backlogged analyst `quantum` requests, so the light
/// analyst's whole backlog rides the first epoch, the flooder gets the
/// rest of it, and a light request that arrives behind a still-deeper
/// flood is late by exactly one epoch.
#[test]
fn fairness_under_a_flooding_analyst() {
    let engine = engine_with(7, 256, 2);
    engine.open_session("flooder", eps(1e9)).unwrap();
    engine.open_session("light", eps(1e9)).unwrap();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 4096,
            quantum: 4,
            ..ServerConfig::default()
        },
    );
    let flood = |n: usize| -> Vec<Ticket> {
        (0..n)
            .map(|i| {
                let r = Request::range("pol", "ds", eps(1e-6), i % 200, i % 200 + 19);
                server.submit("flooder", r).unwrap()
            })
            .collect()
    };
    let done = |tickets: &[Ticket]| tickets.iter().filter(|t| t.try_take().is_some()).count();
    // 400 distinct flooder requests, then 12 light ones behind them.
    let mut flooded = flood(400);
    let light: Vec<Ticket> = (0..12)
        .map(|i| {
            let r = Request::range("pol", "ds", eps(1e-6), i * 3, i * 3 + 50);
            server.submit("light", r).unwrap()
        })
        .collect();
    // Epoch 1: three rounds of 4 + 4 empty the light queue, then
    // flooder-only rounds of 4 run to the bound.
    assert_eq!(server.tick(), EPOCH_MAX_REQUESTS);
    assert_eq!(done(&light), 12, "light analyst fully served in one epoch");
    assert_eq!(
        done(&flooded),
        EPOCH_MAX_REQUESTS - 12,
        "the flooder gets exactly the rest of the epoch"
    );
    // The flood deepens past the bound again; a late light request
    // still rides the very next epoch.
    flooded.extend(flood(300));
    let late = server
        .submit("light", Request::range("pol", "ds", eps(1e-6), 7, 70))
        .unwrap();
    server.tick();
    assert!(late.try_take().is_some(), "delayed by at most one epoch");
    assert!(
        done(&flooded) < flooded.len(),
        "the flooder is still backlogged"
    );
    server.pump_until_idle();
    assert_eq!(done(&flooded), flooded.len());
}

/// Served shares follow the weights: with both analysts backlogged past
/// the bound, every round hands `heavy` three requests for `light`'s
/// one, so each epoch — and any run of epochs — splits 3 : 1.
#[test]
fn weighted_analysts_share_epochs_in_proportion() {
    let engine = engine_with64(8);
    engine.open_session("heavy", eps(1e6)).unwrap();
    engine.open_session("light", eps(1e6)).unwrap();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            quantum: 1,
            queue_capacity: 1024,
            ..ServerConfig::default()
        },
    );
    server.set_weight("heavy", 3);
    let mut heavy = Vec::new();
    let mut light = Vec::new();
    for i in 0..600 {
        let r = |w| Request::range("pol", "ds", eps(0.001), i % 40, i % 40 + w);
        heavy.push(server.submit("heavy", r(3)).unwrap());
        light.push(server.submit("light", r(17)).unwrap());
    }
    let done = |tickets: &[Ticket]| tickets.iter().filter(|t| t.try_take().is_some()).count();
    for k in 1..=3 {
        assert_eq!(server.tick(), EPOCH_MAX_REQUESTS);
        assert_eq!(done(&heavy), k * EPOCH_MAX_REQUESTS * 3 / 4);
        assert_eq!(done(&light), k * EPOCH_MAX_REQUESTS / 4);
    }
    server.pump_until_idle();
}

#[test]
fn coalesces_identical_requests_into_one_release() {
    let engine = engine_with64(1);
    for i in 0..4 {
        engine.open_session(format!("a{i}"), eps(1.0)).unwrap();
    }
    let server = Server::with_defaults(Arc::clone(&engine));
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| {
            server
                .submit(
                    &format!("a{i}"),
                    Request::range("pol", "ds", eps(0.5), 8, 24),
                )
                .unwrap()
        })
        .collect();
    server.pump_until_idle();
    let answers: Vec<f64> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().scalar().unwrap())
        .collect();
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "shared release");
    let stats = server.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.answered, 4);
    assert_eq!(stats.releases, 1, "4 requests, 1 release");
    assert_eq!(stats.coalesced_answers, 4);
    assert!((stats.amplification() - 4.0).abs() < 1e-12);
    // Each analyst charged once, on their own ledger.
    for i in 0..4 {
        let snap = engine.session_snapshot(&format!("a{i}")).unwrap();
        assert!((snap.spent() - 0.5).abs() < 1e-12);
        assert_eq!(snap.served(), 1);
    }
}

#[test]
fn distinct_requests_do_not_coalesce() {
    let engine = engine_with64(2);
    engine.open_session("a", eps(2.0)).unwrap();
    engine.open_session("b", eps(2.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    // Different ε: neither identical-request coalescing nor the
    // same-(policy, data, ε) range fold applies.
    let t1 = server
        .submit("a", Request::range("pol", "ds", eps(0.5), 0, 10))
        .unwrap();
    let t2 = server
        .submit("b", Request::range("pol", "ds", eps(0.25), 0, 11))
        .unwrap();
    server.pump_until_idle();
    assert!(t1.wait().is_ok());
    assert!(t2.wait().is_ok());
    assert_eq!(server.stats().releases, 2);
    assert_eq!(server.stats().coalesced_answers, 0);
    assert_eq!(server.stats().batched_range_answers, 0);
}

#[test]
fn same_budget_ranges_with_different_endpoints_share_one_release() {
    let engine = engine_with64(2);
    engine.open_session("a", eps(2.0)).unwrap();
    engine.open_session("b", eps(2.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    // Same (policy, data, ε), different endpoints, one epoch: the
    // engine folds both groups into a single Ordered release.
    let t1 = server
        .submit("a", Request::range("pol", "ds", eps(0.5), 0, 10))
        .unwrap();
    let t2 = server
        .submit("b", Request::range("pol", "ds", eps(0.5), 0, 11))
        .unwrap();
    server.pump_until_idle();
    let a = t1.wait().unwrap().scalar().unwrap();
    let b = t2.wait().unwrap().scalar().unwrap();
    let stats = server.stats();
    assert_eq!(stats.releases, 1, "two endpoint groups, one release");
    assert_eq!(stats.batched_range_answers, 2);
    assert_eq!(stats.coalesced_answers, 2);
    // Both ranges read the SAME noisy cumulative: [0,11] minus
    // [0,10] is exactly the release's cell-11 estimate, so the two
    // answers are consistent, not independently noisy.
    assert!(a.is_finite() && b.is_finite());
    // Each analyst paid the full ε on their own ledger.
    for who in ["a", "b"] {
        let snap = engine.session_snapshot(who).unwrap();
        assert!((snap.spent() - 0.5).abs() < 1e-12);
    }
}

#[test]
fn dropped_tickets_cancel_before_charging() {
    let engine = engine_with64(2);
    engine.open_session("a", eps(1.0)).unwrap();
    engine.open_session("b", eps(1.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    // a's ticket is dropped before any tick — the client vanished.
    let ta = server
        .submit("a", Request::range("pol", "ds", eps(0.5), 0, 10))
        .unwrap();
    drop(ta);
    let tb = server
        .submit("b", Request::range("pol", "ds", eps(0.25), 0, 20))
        .unwrap();
    server.pump_until_idle();
    assert!(tb.wait().is_ok());
    let stats = server.stats();
    assert_eq!(stats.cancelled, 1, "a's request dropped, not served");
    assert_eq!(stats.answered, 1);
    // The cancelled request charged nothing …
    assert!((engine.session_remaining("a").unwrap() - 1.0).abs() < 1e-12);
    // … and leaked no queue slot: the analyst can fill the queue to
    // capacity again.
    for i in 0..server.config().queue_capacity {
        server
            .submit("a", Request::range("pol", "ds", eps(0.0001), 0, i % 32))
            .unwrap();
    }
    server.pump_until_idle();
}

#[test]
fn queue_full_backpressure() {
    let engine = engine_with64(3);
    engine.open_session("a", eps(1e6)).unwrap();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 4,
            ..ServerConfig::default()
        },
    );
    let mut ok = 0;
    let mut full = 0;
    let mut tickets = Vec::new();
    for i in 0..10 {
        match server.submit("a", Request::range("pol", "ds", eps(0.001), i, i + 5)) {
            Ok(t) => {
                ok += 1;
                tickets.push(t);
            }
            Err(ServerError::QueueFull { capacity, .. }) => {
                assert_eq!(capacity, 4);
                full += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(ok, 4);
    assert_eq!(full, 6);
    assert_eq!(server.stats().refused_queue_full, 6);
    server.pump_until_idle();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
}

#[test]
fn admission_refuses_over_budget_requests() {
    let engine = engine_with64(4);
    engine.open_session("a", eps(0.3)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    let err = server
        .submit("a", Request::range("pol", "ds", eps(0.5), 0, 5))
        .unwrap_err();
    assert!(matches!(
        err,
        ServerError::BudgetExhausted { requested, remaining, .. }
            if (requested - 0.5).abs() < 1e-12 && (remaining - 0.3).abs() < 1e-12
    ));
    assert_eq!(server.stats().refused_admission, 1);
    // Unknown analysts refuse at submit too.
    assert!(matches!(
        server.submit("ghost", Request::range("pol", "ds", eps(0.1), 0, 5)),
        Err(ServerError::Engine(EngineError::UnknownAnalyst(_)))
    ));
}

#[test]
fn unknown_policy_fails_the_ticket_not_the_server() {
    let engine = engine_with64(5);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    let t = server
        .submit("a", Request::range("nope", "ds", eps(0.1), 0, 5))
        .unwrap();
    server.pump_until_idle();
    assert!(matches!(
        t.wait(),
        Err(ServerError::Engine(EngineError::UnknownPolicy(_)))
    ));
    assert_eq!(server.stats().failed, 1);
}

#[test]
fn dropped_server_resolves_tickets_as_shutdown() {
    let engine = engine_with64(6);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Server::with_defaults(engine);
    let t = server
        .submit("a", Request::range("pol", "ds", eps(0.1), 0, 5))
        .unwrap();
    drop(server); // never ticked
    assert_eq!(t.wait().unwrap_err(), ServerError::ShutDown);
}

#[test]
fn background_driver_answers_without_manual_ticks() {
    let engine = engine_with64(7);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Arc::new(Server::with_defaults(engine));
    let driver = server.start_driver(std::time::Duration::from_millis(1));
    let t = server
        .submit("a", Request::histogram("pol", "ds", eps(0.2)))
        .unwrap();
    let answer = t.wait().unwrap();
    assert!(matches!(answer, Response::Histogram(_)));
    driver.stop();
}

/// The driver is arrival-driven: no ticks while idle, and a stop
/// that does not wait out the interval.
#[test]
fn idle_driver_does_not_tick_and_stops_promptly() {
    let engine = engine_with64(8);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Arc::new(Server::with_defaults(engine));
    let driver = server.start_driver(std::time::Duration::from_secs(10));
    let t = server
        .submit("a", Request::range("pol", "ds", eps(0.2), 0, 9))
        .unwrap();
    assert!(
        t.wait().is_ok(),
        "answered without waiting out the interval"
    );
    let ticks = server.stats().ticks;
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert_eq!(server.stats().ticks, ticks, "an idle driver must not tick");
    let stopping = std::time::Instant::now();
    driver.stop();
    assert!(stopping.elapsed() < std::time::Duration::from_millis(100));
}

/// A `submit_many` batch goes in under one hold of the scheduler
/// lock, so a racing driver cannot split it: even with a driver
/// awake and ticking back-to-back, both ranges share one release.
#[test]
fn submit_many_is_never_split_across_ticks() {
    for seed in 0..20 {
        let engine = engine_with64(seed);
        engine.open_session("a", eps(1.0)).unwrap();
        let server = Arc::new(Server::with_defaults(engine));
        let driver = server.start_driver(std::time::Duration::from_millis(1));
        let tickets = server.submit_many(
            "a",
            vec![
                Request::range("pol", "ds", eps(0.1), 0, 9),
                Request::range("pol", "ds", eps(2.0), 0, 9),
                Request::range("pol", "ds", eps(0.1), 5, 20),
            ],
        );
        let [first, refused, second] = <[_; 3]>::try_from(tickets).unwrap();
        assert!(matches!(refused, Err(ServerError::BudgetExhausted { .. })));
        assert!(first.unwrap().wait().is_ok());
        assert!(second.unwrap().wait().is_ok());
        driver.stop();
        let stats = server.stats();
        assert_eq!((stats.releases, stats.batched_range_answers), (1, 2));
    }
}

/// The TTL sweep used to ride on the tick count; a driver that does
/// not tick while idle must still evict the idle sessions.
#[test]
fn idle_driver_still_sweeps_expired_sessions() {
    let engine = engine_with64(10);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Arc::new(Server::new(
        Arc::clone(&engine),
        ServerConfig {
            session_ttl: Some(std::time::Duration::from_millis(20)),
            ..ServerConfig::default()
        },
    ));
    let driver = server.start_driver(std::time::Duration::from_millis(1));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    // The counter moves last in a sweep, after the session is parked.
    while server.stats().evicted_sessions == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle session never swept: {:?}",
            server.stats()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(engine.parked_session("a").is_some());
    let stats = server.stats();
    assert_eq!((stats.submitted, stats.ticks), (0, 0));
    assert_eq!(stats.evicted_sessions, 1);
    driver.stop();
}

#[test]
fn zero_quantum_is_clamped_and_pump_terminates() {
    let engine = engine_with64(9);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            quantum: 0, // rounds would drain nothing, unclamped
            ..ServerConfig::default()
        },
    );
    assert_eq!(server.config().quantum, 1);
    let t = server
        .submit("a", Request::range("pol", "ds", eps(0.1), 0, 9))
        .unwrap();
    server.pump_until_idle(); // must terminate
    assert!(t.wait().is_ok());
}

#[test]
fn ttl_eviction_parks_sessions_and_reattach_resumes() {
    let engine = engine_with64(23);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            session_ttl: Some(std::time::Duration::ZERO),
            ..ServerConfig::default()
        },
    );
    let t = server
        .submit("a", Request::range("pol", "ds", eps(0.25), 0, 9))
        .unwrap();
    server.tick(); // serves the request, then sweeps the idle session
    assert!(t.wait().is_ok());
    assert_eq!(server.stats().evicted_sessions, 1);
    // The parked session refuses at the door until reattached.
    assert!(matches!(
        server.submit("a", Request::range("pol", "ds", eps(0.1), 0, 9)),
        Err(ServerError::Engine(EngineError::SessionEvicted(_)))
    ));
    let parked = engine.parked_session("a").unwrap();
    assert!((parked.spent - 0.25).abs() < 1e-12);
    engine.open_session("a", eps(1.0)).unwrap();
    assert!((engine.session_remaining("a").unwrap() - 0.75).abs() < 1e-12);
    let t = server
        .submit("a", Request::range("pol", "ds", eps(0.1), 0, 9))
        .unwrap();
    server.pump_until_idle();
    assert!(t.wait().is_ok());
}

#[test]
fn shutdown_drains_then_refuses_and_checkpoints() {
    let dir = blowfish::store::scratch_dir("server-shutdown");
    {
        let store = Arc::new(Store::open(&dir).unwrap());
        let engine = {
            let engine = Engine::with_store(31, Arc::clone(&store));
            let domain = Domain::line(64).unwrap();
            engine
                .register_policy("pol", Policy::distance_threshold(domain.clone(), 2))
                .unwrap();
            let rows: Vec<usize> = (0..640).map(|i| (i * 7) % 64).collect();
            engine
                .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
                .unwrap();
            Arc::new(engine)
        };
        engine.open_session("a", eps(1.0)).unwrap();
        let server = Server::with_defaults(Arc::clone(&engine));
        let t = server
            .submit("a", Request::range("pol", "ds", eps(0.25), 0, 9))
            .unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.answered, 1, "queued work answered before close");
        assert!(t.wait().is_ok());
        assert!(matches!(
            server.submit("a", Request::range("pol", "ds", eps(0.1), 0, 9)),
            Err(ServerError::ShutDown)
        ));
        // The live store refuses a second open (directory lock) …
        assert!(matches!(Store::open(&dir), Err(StoreError::Io { .. })));
        assert_eq!(store.stats().compactions, 1);
    }
    // … and once dropped, a reopening process recovers from the
    // snapshot the checkpoint wrote.
    let reopened = Store::open(&dir).unwrap();
    assert!(reopened.recovery_report().snapshot_segment.is_some());
    let s = &reopened.recovered_state().sessions["a"];
    assert!((s.spent - 0.25).abs() < 1e-12);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shed_gate_refuses_on_total_backlog() {
    let engine = engine_with64(40);
    engine.open_session("a", eps(1e6)).unwrap();
    engine.open_session("b", eps(1e6)).unwrap();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            shed_depth: Some(3),
            queue_capacity: 128, // per-analyst bound alone would admit all
            ..ServerConfig::default()
        },
    );
    let mut tickets = Vec::new();
    // 2 from a + 1 from b fill the aggregate budget …
    for (who, i) in [("a", 0), ("a", 1), ("b", 2)] {
        tickets.push(
            server
                .submit(who, Request::range("pol", "ds", eps(0.001), i, i + 3))
                .unwrap(),
        );
    }
    // … so the 4th submission sheds, whoever sends it.
    let err = server
        .submit("b", Request::range("pol", "ds", eps(0.001), 9, 12))
        .unwrap_err();
    assert!(matches!(
        err,
        ServerError::Overloaded { depth: 3, limit: 3 }
    ));
    assert_eq!(server.stats().shed_requests, 1);
    // Draining reopens the door.
    server.pump_until_idle();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    assert!(server
        .submit("b", Request::range("pol", "ds", eps(0.001), 9, 12))
        .is_ok());
    server.pump_until_idle();
}

#[test]
fn expired_deadlines_refuse_before_any_charge() {
    let engine = engine_with64(41);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    // A zero deadline refuses synchronously at the door.
    let err = server
        .submit_tagged(
            "a",
            Request::range("pol", "ds", eps(0.5), 0, 9),
            None,
            Some(std::time::Duration::ZERO),
        )
        .unwrap_err();
    assert!(matches!(err, ServerError::DeadlineExceeded { .. }));
    // A deadline that lapses while queued refuses at dispatch.
    let t = server
        .submit_tagged(
            "a",
            Request::range("pol", "ds", eps(0.5), 0, 9),
            None,
            Some(std::time::Duration::from_nanos(1)),
        )
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(2));
    server.pump_until_idle();
    assert!(matches!(
        t.wait(),
        Err(ServerError::DeadlineExceeded { analyst }) if analyst == "a"
    ));
    assert_eq!(server.stats().deadline_refusals, 2);
    // Neither refusal touched the ledger.
    assert!((engine.session_remaining("a").unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn tagged_resubmission_replays_without_recharging() {
    let engine = engine_with64(42);
    engine.open_session("a", eps(1.0)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    let req = || Request::range("pol", "ds", eps(0.5), 0, 9);
    let t1 = server.submit_tagged("a", req(), Some(7), None).unwrap();
    server.pump_until_idle();
    let first = t1.wait().unwrap();
    assert!((engine.session_remaining("a").unwrap() - 0.5).abs() < 1e-12);
    // Same id again: resolved from the reply cache at submit time —
    // identical bytes, no tick needed, no further charge. The
    // remaining budget (0.5) could not cover a fresh 0.5 release
    // AND this one; exactly-once is what keeps the ledger at 0.5.
    let t2 = server.submit_tagged("a", req(), Some(7), None).unwrap();
    let second = t2.wait().unwrap();
    assert_eq!(first.to_bytes(), second.to_bytes(), "bit-identical replay");
    assert!((engine.session_remaining("a").unwrap() - 0.5).abs() < 1e-12);
    // A fresh id is a fresh request with a fresh charge.
    let t3 = server.submit_tagged("a", req(), Some(8), None).unwrap();
    server.pump_until_idle();
    let third = t3.wait().unwrap();
    assert_ne!(first.to_bytes(), third.to_bytes());
    assert!(engine.session_remaining("a").unwrap().abs() < 1e-12);
}

#[test]
fn tagged_replay_survives_an_exhausted_ledger() {
    let engine = engine_with64(43);
    engine.open_session("a", eps(0.5)).unwrap();
    let server = Server::with_defaults(Arc::clone(&engine));
    let req = || Request::range("pol", "ds", eps(0.5), 3, 20);
    let t1 = server.submit_tagged("a", req(), Some(1), None).unwrap();
    server.pump_until_idle();
    let first = t1.wait().unwrap();
    assert!(engine.session_remaining("a").unwrap().abs() < 1e-12);
    // Admission control would refuse a fresh 0.5 request outright —
    // but the retry of the already-paid request must still answer.
    let t2 = server.submit_tagged("a", req(), Some(1), None).unwrap();
    assert_eq!(first.to_bytes(), t2.wait().unwrap().to_bytes());
    assert!(matches!(
        server.submit_tagged("a", req(), Some(2), None),
        Err(ServerError::BudgetExhausted { .. })
    ));
}

/// Many threads submitting concurrently while a background driver ticks:
/// every ticket resolves, the books balance, and each analyst's ledger
/// was charged exactly once per answered request.
#[test]
fn multi_thread_scheduler_stress() {
    let engine = engine_with(99, 64, 2);
    let threads = 8;
    let per_thread = 40;
    for t in 0..threads {
        engine.open_session(format!("t{t}"), eps(1e6)).unwrap();
    }
    let server = Arc::new(Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 4096,
            ..ServerConfig::default()
        },
    ));
    let driver = server.start_driver(std::time::Duration::from_micros(200));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let analyst = format!("t{t}");
                let mut answered = 0u64;
                for i in 0..per_thread {
                    // A mix of coalescible (same range) and unique work.
                    let req = if i % 2 == 0 {
                        Request::range("pol", "ds", eps(0.001), 10, 40)
                    } else {
                        Request::range(
                            "pol",
                            "ds",
                            eps(0.001),
                            (t * 5 + i) % 32,
                            (t * 5 + i) % 32 + 8,
                        )
                    };
                    let ticket = server.submit(&analyst, req).unwrap();
                    if ticket.wait().is_ok() {
                        answered += 1;
                    }
                }
                answered
            })
        })
        .collect();
    let answered: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    driver.stop();
    assert_eq!(answered, (threads * per_thread) as u64);
    let stats = server.stats();
    assert_eq!(stats.submitted, answered);
    assert_eq!(stats.answered, answered);
    assert_eq!(stats.failed, 0);
    // The shared even-iteration range coalesces across threads, so the
    // engine released strictly fewer times than it answered.
    assert!(
        stats.releases < stats.answered,
        "coalescing must amplify: {} releases for {} answers",
        stats.releases,
        stats.answered
    );
    for t in 0..threads {
        let snap = engine.session_snapshot(&format!("t{t}")).unwrap();
        assert_eq!(snap.served(), per_thread as u64, "one charge per answer");
        assert!((snap.spent() - per_thread as f64 * 0.001).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coalesced serving is pinned to sequential serving: on same-seed
    /// engines, the answer a waiter gets from a coalesced group equals
    /// the answer `Engine::serve` gives the same first request.
    #[test]
    fn coalesced_answers_match_sequential_serve(
        seed in 0u64..500,
        size_pow in 4u32..8,
        theta in 1u64..5,
        lo_frac in 0usize..50,
        width in 1usize..40,
        waiters in 1usize..6,
    ) {
        let size = 1usize << size_pow;
        let lo = (lo_frac * size / 100).min(size - 1);
        let hi = (lo + width).min(size - 1);
        let request = Request::range("pol", "ds", eps(0.5), lo, hi);

        // Sequential reference: one analyst, plain serve.
        let sequential = {
            let engine = engine_with(seed, size, theta);
            engine.open_session("a0", eps(1.0)).unwrap();
            engine.serve("a0", &request).unwrap().scalar().unwrap()
        };

        // Coalesced: N analysts through the server, same seed.
        let engine = engine_with(seed, size, theta);
        for i in 0..waiters {
            engine.open_session(format!("a{i}"), eps(1.0)).unwrap();
        }
        let server = Server::with_defaults(Arc::clone(&engine));
        let tickets: Vec<Ticket> = (0..waiters)
            .map(|i| server.submit(&format!("a{i}"), request.clone()).unwrap())
            .collect();
        server.pump_until_idle();
        for t in tickets {
            let coalesced = t.wait().unwrap().scalar().unwrap();
            prop_assert_eq!(
                coalesced.to_bits(),
                sequential.to_bits(),
                "coalesced answer diverged from sequential serve"
            );
        }
        prop_assert_eq!(server.stats().releases, 1);
    }
}
