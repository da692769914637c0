//! # bf-server — the asynchronous Blowfish serving front-end
//!
//! `bf-engine` answers one call at a time; this crate puts a traffic
//! layer in front of it so one process can absorb heavy multi-analyst
//! load:
//!
//! ```text
//!            ┌────────────────────────── Server ─────────────────────────┐
//!  analyst ──┤ submit ─► per-analyst queue ─┐                            │
//!  analyst ──┤ submit ─► per-analyst queue ─┼─ DRR drain ─► coalescing ──┼─► Engine
//!  analyst ──┤ submit ─► per-analyst queue ─┘   (fair)       window      │   (1 release,
//!            └───────────────────────────────────────────────────────────┘    N tickets)
//! ```
//!
//! * **Submission is asynchronous.** [`Server::submit`] enqueues and
//!   returns a [`Ticket`] — a `Future` for the answer. Await tickets on
//!   the vendored `futures_lite::Executor`, poll them with
//!   [`Ticket::try_take`], or block with [`Ticket::wait`].
//! * **Scheduling is fair.** Queues drain under weighted
//!   deficit-round-robin: a flooding analyst saturates *their own*
//!   bounded queue (and gets [`ServerError::QueueFull`] backpressure)
//!   while every other analyst keeps draining `weight × quantum`
//!   requests per tick.
//! * **Identical work coalesces across sessions.** Requests with equal
//!   `(policy cache key, dataset, ε, query class)` arriving within the
//!   coalescing window — from *different* analysts — are served from
//!   **one** engine release fanned out to every waiter, each waiter
//!   still charged the full ε on their own ledger. Under homogeneous
//!   traffic the engine performs far fewer releases than it answers
//!   requests ([`ServerStats::amplification`]).
//! * **Admission control is typed.** Full queues and exhausted budgets
//!   refuse at the door with [`ServerError`]s instead of occupying
//!   scheduler state.
//! * **The window adapts to load.** With
//!   [`ServerConfig::adaptive_window`] (the default) the coalescing
//!   window scales with queue depth — zero ticks when idle (minimum
//!   latency), up to `coalesce_window` ticks under burst (maximum
//!   one-release-many-answers amplification).
//! * **Wake-ups, not timers.** The background driver
//!   ([`Server::start_driver`]) sleeps on a condvar until a submission
//!   arrives and ticks back-to-back while work is queued; its interval
//!   is only the time unit of a held-open window.
//! * **Sessions and processes have lifecycles.**
//!   [`ServerConfig::session_ttl`] sweeps idle engine sessions into the
//!   parked state (spent ε preserved, reattach on reopen);
//!   [`Server::shutdown`] closes the doors, drains every queued ticket,
//!   and flushes + compacts the engine's durable store so the next
//!   process recovers instantly from a snapshot.
//!
//! Determinism: queues drain in analyst-name order, groups dispatch in
//! creation order, and the engine assigns release ordinals sequentially
//! at charge time — so a same-seed engine behind a same-order submission
//! stream produces byte-identical answers, scheduler threads or not.

mod error;
mod scheduler;
mod server;
mod ticket;

pub use error::ServerError;
pub use server::{
    adaptive_window_ticks, DriverHandle, Server, ServerConfig, ServerStats, EVICT_CHECK_EVERY,
};
pub use ticket::{Ticket, TicketResolver};

#[cfg(test)]
mod tests {
    use super::*;
    use bf_core::{Epsilon, Policy};
    use bf_domain::{Dataset, Domain};
    use bf_engine::{Engine, EngineError, Request, Response};
    use std::sync::Arc;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn engine(seed: u64) -> Arc<Engine> {
        let engine = Engine::with_seed(seed);
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

    #[test]
    fn coalesces_identical_requests_into_one_release() {
        let engine = engine(1);
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
        let engine = engine(2);
        engine.open_session("a", eps(2.0)).unwrap();
        engine.open_session("b", eps(2.0)).unwrap();
        let server = Server::with_defaults(Arc::clone(&engine));
        // Different ε: neither the identical-request window nor the
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
        let engine = engine(2);
        engine.open_session("a", eps(2.0)).unwrap();
        engine.open_session("b", eps(2.0)).unwrap();
        let server = Server::with_defaults(Arc::clone(&engine));
        // Same (policy, data, ε), different endpoints, one window: the
        // dispatcher folds both groups into a single Ordered release.
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
        let engine = engine(2);
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
        let engine = engine(3);
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
        let engine = engine(4);
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
        let engine = engine(5);
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
        let engine = engine(6);
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
        let engine = engine(7);
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
        let engine = engine(8);
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
            let engine = engine(seed);
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
        let engine = engine(10);
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
        while engine.parked_session("a").is_none() {
            assert!(
                std::time::Instant::now() < deadline,
                "idle session never parked: {:?}",
                server.stats()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.ticks), (0, 0));
        assert_eq!(stats.evicted_sessions, 1);
        driver.stop();
    }

    #[test]
    fn zero_quantum_is_clamped_and_pump_terminates() {
        let engine = engine(9);
        engine.open_session("a", eps(1.0)).unwrap();
        let server = Server::new(
            Arc::clone(&engine),
            ServerConfig {
                quantum: 0, // would drain nothing per tick unclamped
                coalesce_window: 0,
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
    fn adaptive_window_dispatches_idle_traffic_immediately() {
        // Fixed window 4: a lone request waits the full window.
        let fixed = {
            let engine = engine(21);
            engine.open_session("a", eps(1.0)).unwrap();
            let server = Server::new(
                Arc::clone(&engine),
                ServerConfig {
                    coalesce_window: 4,
                    adaptive_window: false,
                    ..ServerConfig::default()
                },
            );
            let t = server
                .submit("a", Request::range("pol", "ds", eps(0.1), 0, 9))
                .unwrap();
            let mut ticks = 0;
            while t.try_take().is_none() {
                server.tick();
                ticks += 1;
                assert!(ticks < 100);
            }
            ticks
        };
        // Adaptive: the backlog (1 request < quantum) yields window 0 —
        // answered on the first tick.
        let adaptive = {
            let engine = engine(21);
            engine.open_session("a", eps(1.0)).unwrap();
            let server = Server::new(
                Arc::clone(&engine),
                ServerConfig {
                    coalesce_window: 4,
                    adaptive_window: true,
                    ..ServerConfig::default()
                },
            );
            let t = server
                .submit("a", Request::range("pol", "ds", eps(0.1), 0, 9))
                .unwrap();
            server.tick();
            assert!(t.try_take().is_some(), "idle traffic must not wait");
            1
        };
        assert!(adaptive < fixed, "adaptive {adaptive} vs fixed {fixed}");
    }

    #[test]
    fn adaptive_window_grows_under_burst_and_coalesces_across_ticks() {
        let engine = engine(22);
        engine.open_session("a", eps(1.0)).unwrap();
        engine.open_session("b", eps(1.0)).unwrap();
        let server = Server::new(
            Arc::clone(&engine),
            ServerConfig {
                coalesce_window: 8,
                adaptive_window: true,
                quantum: 1,
                ..ServerConfig::default()
            },
        );
        let req = || Request::range("pol", "ds", eps(0.5), 8, 24);
        // a's request drains at tick 1 with depth 1 ≥ quantum → window 1:
        // the group stays open long enough for b's later arrival.
        let ta = server.submit("a", req()).unwrap();
        server.tick();
        assert!(ta.try_take().is_none(), "group must wait for the window");
        let tb = server.submit("b", req()).unwrap();
        server.pump_until_idle();
        let a = ta.wait().unwrap().scalar().unwrap();
        let b = tb.wait().unwrap().scalar().unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "one release served both");
        let stats = server.stats();
        assert_eq!(stats.releases, 1, "cross-tick arrivals coalesced");
        assert_eq!(stats.coalesced_answers, 2);
    }

    #[test]
    fn adaptive_window_formula_is_monotone_and_capped() {
        assert_eq!(adaptive_window_ticks(0, 8, 6), 0);
        assert_eq!(adaptive_window_ticks(7, 8, 6), 0);
        assert_eq!(adaptive_window_ticks(8, 8, 6), 1);
        assert_eq!(adaptive_window_ticks(16, 8, 6), 2);
        assert_eq!(adaptive_window_ticks(usize::MAX, 8, 6), 6, "capped");
        assert_eq!(adaptive_window_ticks(100, 0, 6), 6, "quantum clamped");
        let mut last = 0;
        for depth in 0..4096 {
            let w = adaptive_window_ticks(depth, 4, 10);
            assert!(w >= last, "monotone in depth");
            last = w;
        }
    }

    #[test]
    fn ttl_eviction_parks_sessions_and_reattach_resumes() {
        let engine = engine(23);
        engine.open_session("a", eps(1.0)).unwrap();
        let server = Server::new(
            Arc::clone(&engine),
            ServerConfig {
                coalesce_window: 0,
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
        let dir = bf_store::scratch_dir("server-shutdown");
        {
            let store = Arc::new(bf_engine::Store::open(&dir).unwrap());
            let engine = {
                let engine = bf_engine::Engine::with_store(31, Arc::clone(&store));
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
            assert!(matches!(
                bf_engine::Store::open(&dir),
                Err(bf_engine::StoreError::Io { .. })
            ));
            assert_eq!(store.stats().compactions, 1);
        }
        // … and once dropped, a reopening process recovers from the
        // snapshot the checkpoint wrote.
        let reopened = bf_engine::Store::open(&dir).unwrap();
        assert!(reopened.recovery_report().snapshot_segment.is_some());
        let s = &reopened.recovered_state().sessions["a"];
        assert!((s.spent - 0.25).abs() < 1e-12);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shed_gate_refuses_on_total_backlog() {
        let engine = engine(40);
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
        let engine = engine(41);
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
        let engine = engine(42);
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
        let engine = engine(43);
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

    #[test]
    fn weighted_analysts_drain_proportionally() {
        let engine = engine(8);
        engine.open_session("heavy", eps(1e6)).unwrap();
        engine.open_session("light", eps(1e6)).unwrap();
        let server = Server::new(
            Arc::clone(&engine),
            ServerConfig {
                quantum: 1,
                coalesce_window: 0,
                queue_capacity: 1024,
                ..ServerConfig::default()
            },
        );
        server.set_weight("heavy", 3);
        // Distinct ranges per analyst & index: nothing coalesces.
        let mut heavy = Vec::new();
        let mut light = Vec::new();
        for i in 0..30 {
            heavy.push(
                server
                    .submit("heavy", Request::range("pol", "ds", eps(0.001), i, i + 3))
                    .unwrap(),
            );
            light.push(
                server
                    .submit("light", Request::range("pol", "ds", eps(0.001), i, i + 17))
                    .unwrap(),
            );
        }
        // After 5 ticks: heavy drained 15 (3/tick), light 5 (1/tick).
        for _ in 0..5 {
            server.tick();
        }
        let heavy_done = heavy.iter().filter(|t| t.try_take().is_some()).count();
        let light_done = light.iter().filter(|t| t.try_take().is_some()).count();
        assert_eq!(heavy_done, 15);
        assert_eq!(light_done, 5);
        server.pump_until_idle();
    }
}
