//! Async serving: the front-end end-to-end.
//!
//! Eight epidemiology teams hit one Blowfish server with the *same*
//! monthly length-of-stay dashboard queries at the same time. The
//! server's coalescing window folds the identical `(policy, data, ε,
//! range)` requests from different sessions together, and since the
//! twelve monthly ranges also share `(policy, data, ε)`, the dispatcher
//! folds THEM into shared Ordered releases (serve_batch's grouping,
//! applied cross-analyst) — a handful of releases answer ~a hundred
//! requests, every team pays ε once per release it was answered from on
//! its own ledger, and the deficit-round-robin scheduler keeps any one
//! team from starving the rest.
//!
//! 1. build the engine (policy + dataset) and one session per team,
//! 2. start the server with a background driver thread,
//! 3. spawn one async task per team on the vendored executor; each task
//!    submits its dashboard and awaits the tickets,
//! 4. read the coalescing amplification off the server stats.
//!
//! Run with `cargo run --release --example async_serving`.

use blowfish::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Engine: one policy, one dataset, eight sessions ───────────────
    let domain = Domain::line(365)?;
    let engine = Arc::new(Engine::with_seed(2014));
    engine.register_policy("los", Policy::distance_threshold(domain.clone(), 14))?;
    let rows: Vec<usize> = (0..50_000)
        .map(|i| (((i * 37) % 97) * ((i * 13) % 11)) % 365)
        .collect();
    engine.register_dataset("admissions", Dataset::from_rows(domain, rows)?)?;

    let teams: Vec<String> = (1..=8).map(|i| format!("team-{i}")).collect();
    for team in &teams {
        engine.open_session(team, Epsilon::new(2.0)?)?;
    }

    // ── Server: fair scheduling + a 2-tick coalescing window ──────────
    let server = Arc::new(Server::new(
        Arc::clone(&engine),
        ServerConfig {
            coalesce_window: 2,
            adaptive_window: false,
            ..ServerConfig::default()
        },
    ));
    let driver = server.start_driver(Duration::from_millis(1));

    // ── Clients: one async task per team on the vendored executor ─────
    let executor = Executor::new(4);
    let eps = Epsilon::new(0.1)?;
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
    assert_eq!(stats.answered, 96);
    assert!(
        stats.releases < stats.answered,
        "coalescing must perform fewer releases than requests"
    );
    Ok(())
}
