//! Kill-and-restart demo of the durable ε-budget ledger.
//!
//! Run in two phases against the same store directory:
//!
//! ```text
//! cargo run --release --example crash_recovery -- crash    # aborts mid-serving
//! cargo run --release --example crash_recovery -- recover  # resumes the ledger
//! ```
//!
//! The `crash` phase registers a policy and dataset, opens a session
//! with ε = 1.0, acknowledges charges worth 0.7, and then calls
//! `std::process::abort()` — no destructors, no flush, the hardest
//! software crash available. The `recover` phase reopens the store,
//! reattaches the session, and shows the ledger refusing exactly what
//! the pre-crash ledger would have refused.

use blowfish::engine::{Engine, EngineError, Request, Store};
use blowfish::prelude::*;
use std::sync::Arc;

const STORE_DIR: &str = "target/crash-recovery-demo";

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn build_engine(store: Arc<Store>) -> Engine {
    let engine = Engine::with_store(0xC0FFEE, store);
    let domain = Domain::line(128).expect("domain");
    engine
        .register_policy("salaries", Policy::distance_threshold(domain.clone(), 8))
        .expect("policy");
    let rows: Vec<usize> = (0..5_000).map(|i| (i * 37) % 128).collect();
    engine
        .register_dataset("payroll", Dataset::from_rows(domain, rows).expect("rows"))
        .expect("dataset");
    engine
}

fn crash() {
    // A fresh run: clear any previous demo state.
    let _ = std::fs::remove_dir_all(STORE_DIR);
    let store = Arc::new(Store::open(STORE_DIR).expect("open store"));
    let engine = build_engine(store);
    engine.open_session("alice", eps(1.0)).expect("session");
    // Partial ranges only: a whole-domain count is zero-sensitivity
    // under Blowfish neighbors and would be served free.
    for (e, lo, hi) in [(0.3, 10, 40), (0.25, 20, 90), (0.15, 0, 63)] {
        engine
            .serve(
                "alice",
                &Request::range("salaries", "payroll", eps(e), lo, hi),
            )
            .expect("serve");
    }
    println!(
        "crash phase: acknowledged 3 charges (ε = 0.70 of 1.00), remaining {:.2} — aborting now",
        engine.session_remaining("alice").expect("remaining")
    );
    // No drop, no flush, no snapshot. The WAL already has everything.
    std::process::abort();
}

fn recover() {
    let store = Arc::new(Store::open(STORE_DIR).expect("open store"));
    let report = store.recovery_report();
    let recovered = store.recovered_state().sessions["alice"];
    println!(
        "recover phase: replayed {} records from {} segment(s){}",
        report.records_applied,
        report.segments_replayed,
        if report.tail_skipped {
            " (torn tail skipped)"
        } else {
            ""
        }
    );
    assert!(
        (recovered.spent - 0.70).abs() < 1e-12,
        "ledger must survive"
    );

    let engine = build_engine(store);
    engine.open_session("alice", eps(1.0)).expect("reattach");
    let remaining = engine.session_remaining("alice").expect("remaining");
    println!("reattached alice: spent 0.70, remaining {remaining:.2}");

    // The recovered ledger refuses what the pre-crash ledger would have.
    let refused = engine
        .serve(
            "alice",
            &Request::range("salaries", "payroll", eps(0.5), 5, 15),
        )
        .expect_err("0.5 > 0.3 remaining must refuse");
    assert!(matches!(refused, EngineError::BudgetRefused { .. }));
    println!("over-budget request (ε = 0.50 > 0.30): refused ✓");
    engine
        .serve(
            "alice",
            &Request::range("salaries", "payroll", eps(0.3), 5, 15),
        )
        .expect("0.3 fits");
    println!("fitting request (ε = 0.30): served ✓");
    engine.compact().expect("compact");
    println!("compacted: next recovery loads the snapshot. OK");
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("crash") => crash(),
        Some("recover") => recover(),
        _ => {
            // Self-contained mode for `cargo run --example`: crash in a
            // child process (true abort), then recover in this one.
            let exe = std::env::current_exe().expect("current exe");
            let status = std::process::Command::new(&exe)
                .arg("crash")
                .status()
                .expect("spawn crash phase");
            assert!(!status.success(), "crash phase must die by abort");
            println!("child crashed as intended (status {status})");
            recover();
        }
    }
}
