//! End-to-end observability: trace a serving stack, scrape it over the
//! wire, and prove the instrumentation never touches the answers.
//!
//! ```text
//! cargo run --release --example observe
//! ```
//!
//! The example builds a WAL-backed engine behind the TCP front-end,
//! drives a mixed workload (singles, batches, coalescing collisions from
//! two analysts), then:
//!
//! 1. **Scrapes over the wire.** `Client::stats()` fetches one
//!    `StatsReport` frame carrying every counter, gauge and histogram
//!    summary across all four layers (net → server → engine → store) and
//!    renders it Prometheus-style.
//! 2. **Walks the span journal.** The engine-side journal records each
//!    request's stage timings (decode → queue → schedule → coalesce →
//!    wal_commit → release → reply); the example prints the per-stage
//!    latency summaries.
//! 3. **Proves the side-channel claim.** The same workload runs twice
//!    from the same seed — once with metrics enabled, once fully
//!    disabled — and the answer digests must be byte-identical:
//!    instrumentation reads clocks and bumps atomics, but never touches
//!    RNG derivation, charge ordering or scheduling.

use blowfish::net::{Client, NetConfig, NetServer, WireMetric};
use blowfish::obs::{render_prometheus, MetricSnapshot};
use blowfish::prelude::*;
use blowfish::store::fnv1a;
use std::sync::Arc;

const SEED: u64 = 0x0B5E_59AB;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Builds the full stack on loopback and runs the workload; returns the
/// per-analyst answer digest plus (on the metrics-on run) the scraped
/// report.
fn run(metrics_on: bool, dir: &std::path::Path) -> (u64, Vec<WireMetric>) {
    let store = Arc::new(Store::open(dir).unwrap());
    store.obs().set_enabled(metrics_on);
    let engine = Engine::with_store(SEED, store);
    engine.obs().set_enabled(metrics_on);
    let domain = Domain::line(64).unwrap();
    engine
        .register_policy("salary", Policy::distance_threshold(domain.clone(), 4))
        .unwrap();
    let rows: Vec<usize> = (0..2_000).map(|i| (i * 13) % 64).collect();
    engine
        .register_dataset("payroll", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    let server = Arc::new(Server::new(Arc::new(engine), ServerConfig::default()));
    let net = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).unwrap();

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    let mut fold = |bits: u64| digest = fnv1a(&[digest.to_le_bytes(), bits.to_le_bytes()].concat());

    // Two analysts: overlapping ranges collide in the coalescing window,
    // a batch exercises the shared-release fold, singles exercise the
    // plain path.
    let mut alice = Client::connect(net.local_addr()).unwrap();
    let mut bob = Client::connect(net.local_addr()).unwrap();
    alice.open_session("alice", 8.0).unwrap();
    bob.open_session("bob", 8.0).unwrap();
    for i in 0..6 {
        let req = Request::range("salary", "payroll", eps(0.25), i, i + 20);
        fold(
            alice
                .call("alice", &req)
                .unwrap()
                .scalar()
                .unwrap()
                .to_bits(),
        );
        fold(bob.call("bob", &req).unwrap().scalar().unwrap().to_bits());
    }
    let batch: Vec<Request> = (0..5)
        .map(|i| Request::range("salary", "payroll", eps(0.5), i * 3, i * 3 + 30))
        .collect();
    for slot in alice.call_batch("alice", &batch).unwrap() {
        fold(slot.unwrap().scalar().unwrap().to_bits());
    }
    fold(
        alice
            .call("alice", &Request::histogram("salary", "payroll", eps(0.5)))
            .unwrap()
            .vector()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .fold(0u64, |acc, b| acc ^ b),
    );

    let report = alice.stats().unwrap();
    alice.goodbye().unwrap();
    bob.goodbye().unwrap();
    net.shutdown().unwrap();
    (digest, report)
}

fn main() {
    println!("=== run 1: metrics ENABLED ===");
    let dir_on = blowfish::store::scratch_dir("observe-on");
    let (digest_on, report) = run(true, &dir_on);

    // 1. The wire-scraped report, rendered Prometheus-style.
    let snaps: Vec<MetricSnapshot> = report.iter().map(WireMetric::to_snapshot).collect();
    let text = render_prometheus(&snaps);
    println!("-- scraped {} metrics over the wire --", report.len());
    for line in text.lines().filter(|l| {
        l.starts_with("net_request_ns")
            || l.starts_with("server_answered_total")
            || l.starts_with("server_releases_total")
            || l.starts_with("engine_epsilon_spent")
            || l.starts_with("store_commits_total")
    }) {
        println!("   {line}");
    }

    // 2. Per-stage latency summaries from the span histograms.
    println!("-- request stages (ns) --");
    for m in &report {
        if let WireMetric::Histogram {
            name,
            count,
            p50,
            p99,
            ..
        } = m
        {
            if name.starts_with("span_stage_ns") && *count > 0 {
                println!("   {name:<34} count={count:<4} p50={p50:<9} p99={p99}");
            }
        }
    }

    // 3. Same seed on a fresh WAL, metrics off: byte-identical answers.
    println!("=== run 2: metrics DISABLED ===");
    let dir_off = blowfish::store::scratch_dir("observe-off");
    let (digest_off, _) = run(false, &dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
    println!("digest on  = {digest_on:#018x}");
    println!("digest off = {digest_off:#018x}");
    assert_eq!(
        digest_on, digest_off,
        "instrumentation must be a pure side channel"
    );
    println!("byte-identical: observability changed nothing about the answers.");
}
