//! End-to-end tests of the async serving front-end: deterministic
//! cross-analyst coalescing, the range fold across two registrations of
//! one policy, fairness under a flooding analyst, a multi-thread
//! scheduler stress, and a property test pinning coalesced answers to
//! sequential `Engine::serve` answers.

use blowfish::prelude::*;
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

/// A flooding analyst cannot starve a light one: the light analyst's
/// requests all resolve while the flooder still has a backlog.
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
            coalesce_window: 0,
            admission_control: true,
            ..ServerConfig::default()
        },
    );
    // 400 distinct flooder requests, then 12 light ones behind them.
    let flood: Vec<Ticket> = (0..400)
        .map(|i| {
            server
                .submit(
                    "flooder",
                    Request::range("pol", "ds", eps(1e-6), i % 200, i % 200 + 19),
                )
                .unwrap()
        })
        .collect();
    let light: Vec<Ticket> = (0..12)
        .map(|i| {
            server
                .submit(
                    "light",
                    Request::range("pol", "ds", eps(1e-6), i * 3, i * 3 + 50),
                )
                .unwrap()
        })
        .collect();
    // 3 ticks × quantum 4 drain 12 requests per analyst.
    for _ in 0..3 {
        server.tick();
    }
    assert!(
        light.iter().all(|t| t.try_take().is_some()),
        "light analyst fully served in 3 ticks"
    );
    let flood_done = flood.iter().filter(|t| t.try_take().is_some()).count();
    assert_eq!(flood_done, 12, "flooder got exactly its fair share so far");
    server.pump_until_idle();
    assert!(flood.iter().all(|t| t.try_take().is_some()));
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
            quantum: 8,
            coalesce_window: 1,
            admission_control: true,
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
