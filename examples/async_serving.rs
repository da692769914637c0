//! Async serving: the front-end end-to-end.
//!
//! Eight epidemiology teams hit one Blowfish server with the *same*
//! monthly length-of-stay dashboard queries at the same time. A
//! scheduler tick is an **epoch** — everything queued when the last WAL
//! commit returned — so the commit is the coalescing window: whatever
//! arrives while one epoch's charges are being made durable is served
//! together as the next. Identical `(policy, data, ε, range)` requests
//! from different sessions share a group, and since the twelve monthly
//! ranges also share `(policy, data, ε)`, the engine folds THEM into one
//! Ordered release (serve_batch's grouping, applied cross-analyst) — one
//! release and one fsync answer ~a hundred requests, every team pays ε
//! once per release it was answered from on its own ledger, and fair
//! rounds keep any one team from starving the rest.
//!
//! 1. build a WAL-backed engine (policy + dataset) on a disk that takes
//!    50 ms to sync — scripted with the chaos plan, so the example reads
//!    the same on any machine — and one session per team,
//! 2. start the server with a background driver thread,
//! 3. send one warm-up request; while its commit is in flight, spawn one
//!    async task per team on the vendored executor; each task submits
//!    its dashboard and awaits the tickets,
//! 4. read the epoch widths and the coalescing amplification off the
//!    server's metrics.
//!
//! Run with `cargo run --release --example async_serving`.

use blowfish::chaos::{StoreFault, StorePlan};
use blowfish::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Engine: one policy, one dataset, eight sessions, a slow disk ──
    let dir = blowfish::store::scratch_dir("async-serving");
    let slow_disk = StoreConfig {
        fault_plan: Some(Arc::new(StorePlan::every_kth(
            1,
            StoreFault::DelaySyncMicros(50_000),
        ))),
        ..StoreConfig::default()
    };
    let store = Arc::new(Store::open_with(&dir, slow_disk)?);
    let domain = Domain::line(365)?;
    let engine = Arc::new(Engine::with_store(2014, store));
    engine.register_policy("los", Policy::distance_threshold(domain.clone(), 14))?;
    let rows: Vec<usize> = (0..50_000)
        .map(|i| (((i * 37) % 97) * ((i * 13) % 11)) % 365)
        .collect();
    engine.register_dataset("admissions", Dataset::from_rows(domain, rows)?)?;

    let teams: Vec<String> = (1..=8).map(|i| format!("team-{i}")).collect();
    for team in &teams {
        engine.open_session(team, Epsilon::new(2.0)?)?;
    }
    engine.open_session("warm-up", Epsilon::new(1.0)?)?;

    // ── Server: fair scheduling, one clock (the interval is ignored) ──
    let server = Arc::new(Server::with_defaults(Arc::clone(&engine)));
    let driver = server.start_driver(Duration::ZERO);

    // One request opens the window: its epoch is drained at once and
    // spends the next 50 ms committing.
    let executor = Executor::new(4);
    let eps = Epsilon::new(0.1)?;
    let warm_up = server.submit("warm-up", Request::histogram("los", "admissions", eps))?;
    while server.stats().ticks == 0 {
        std::thread::yield_now();
    }

    // ── Clients: one async task per team on the vendored executor ─────
    let handles: Vec<_> = teams
        .iter()
        .map(|team| {
            let server = Arc::clone(&server);
            let team = team.clone();
            executor.spawn(async move {
                // The shared dashboard: every team asks for the same 12
                // monthly counts — prime coalescing fodder.
                let tickets: Vec<Ticket> = (0..12)
                    .map(|m| {
                        server
                            .submit(
                                &team,
                                Request::range("los", "admissions", eps, m * 30, m * 30 + 29),
                            )
                            .expect("submission accepted")
                    })
                    .collect();
                let mut monthly = Vec::with_capacity(12);
                for t in tickets {
                    monthly.push(t.await.expect("answered").scalar().unwrap());
                }
                (team, monthly)
            })
        })
        .collect();

    let mut results: Vec<(String, Vec<f64>)> = handles
        .into_iter()
        .map(|h| h.join().expect("task completed"))
        .collect();
    results.sort_by(|a, b| a.0.cmp(&b.0));
    warm_up.wait()?;
    driver.stop();

    for (team, monthly) in &results {
        let total: f64 = monthly.iter().sum();
        println!(
            "{team}: 12 monthly counts (total ≈ {total:.0}, first quarter {:.0?})",
            &monthly[..3]
        );
    }

    // Identical queries got identical (shared-release) answers…
    let first = &results[0].1;
    assert!(
        results.iter().all(|(_, m)| m == first),
        "identical coalesced queries must share answers"
    );
    // …but every team paid from its own ledger: ε per shared release it
    // was answered from — at most one charge per request, usually far
    // fewer (the 12 same-ε monthly ranges ride shared Ordered releases).
    for team in &teams {
        let snap = engine.session_snapshot(team)?;
        assert!(
            snap.spent() <= 1.2 + 1e-9 && snap.spent() >= 0.1 - 1e-12,
            "between one charge total and one per request, got {}",
            snap.spent()
        );
        assert!(
            (snap.spent() - snap.served() as f64 * 0.1).abs() < 1e-9,
            "every charge is exactly ε=0.1"
        );
        println!(
            "{team}: spent ε={:.1} of 2.0 across {} shared releases",
            snap.spent(),
            snap.served()
        );
    }

    // ── The clock: the commit was the window ─────────────────────────
    let widths = engine.obs().histogram("server_epoch_requests").summary();
    println!(
        "epochs: {} (server_epoch_requests: widest {}, {} requests in all)",
        widths.count, widths.max, widths.sum
    );
    assert_eq!(
        (widths.count, widths.max),
        (2, 96),
        "everything that arrived during the warm-up's commit is ONE epoch"
    );

    // ── The amplification: releases ≪ requests ────────────────────────
    let stats = server.stats();
    println!(
        "server: {} requests answered from {} mechanism releases \
         ({:.1}× coalescing amplification, {} ticks)",
        stats.answered,
        stats.releases,
        stats.amplification(),
        stats.ticks
    );
    assert_eq!(stats.answered, 97);
    assert!(
        stats.releases < stats.answered,
        "coalescing must perform fewer releases than requests"
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
