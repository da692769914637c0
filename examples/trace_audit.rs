//! Request-scoped distributed tracing and ε-provenance audit, end to
//! end over TCP:
//!
//! ```text
//! cargo run --release --example trace_audit
//! ```
//!
//! The example builds a WAL-backed engine behind the TCP front-end and
//! then:
//!
//! 1. **Traces requests over the wire.** Two analysts submit identical
//!    range queries stamped with client-assigned trace ids while a
//!    primer request's (scripted-slow) commit is in flight, so one
//!    scheduler epoch takes both and serves them from one mechanism
//!    release.
//!    `Client::traces()` fetches the retained trace trees and the
//!    example prints each request's span waterfall — decode → queue →
//!    schedule → coalesce → wal_commit → release → reply — with the
//!    shared-release link id visible on both traces.
//! 2. **Audits the ε ledger.** `Client::audit()` replays every charge
//!    booked for an analyst straight out of the WAL (archived segments
//!    included), and the example cross-checks the per-record sum
//!    against the ledger the wire reports via `Client::budget()`.
//! 3. **Proves the side-channel claim.** The same seeded workload runs
//!    again with observability disabled entirely; answer digests must
//!    be byte-identical — tracing reads clocks and appends spans, but
//!    never touches noise, charging or scheduling.

use blowfish::chaos::{StoreFault, StorePlan};
use blowfish::net::{Client, NetConfig, NetServer};
use blowfish::obs::Stage;
use blowfish::prelude::*;
use blowfish::store::{fnv1a, StoreConfig};
use std::sync::Arc;

const SEED: u64 = 0x7EAC_E0DE;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Builds the full stack on loopback, runs the traced workload, and
/// returns the answer digest plus (on the traced run) the retained
/// trace trees and the audit entries for "ann".
fn run(
    tracing_on: bool,
    dir: &std::path::Path,
) -> (
    u64,
    Vec<blowfish::obs::TraceTree>,
    Vec<blowfish::store::LedgerEntry>,
) {
    let store = Arc::new(
        Store::open_with(
            dir,
            StoreConfig {
                archive_replayed_segments: true,
                // Every commit takes 30 ms: the commit is the scheduler's
                // coalescing window, and a scripted one makes both runs
                // group their requests identically on any machine.
                fault_plan: Some(Arc::new(StorePlan::every_kth(
                    1,
                    StoreFault::DelaySyncMicros(30_000),
                ))),
            },
        )
        .unwrap(),
    );
    store.obs().set_enabled(tracing_on);
    let engine = Engine::with_store(SEED, Arc::clone(&store));
    engine.obs().set_enabled(tracing_on);
    let domain = Domain::line(64).unwrap();
    engine
        .register_policy("salary", Policy::distance_threshold(domain.clone(), 4))
        .unwrap();
    let rows: Vec<usize> = (0..2_000).map(|i| (i * 13) % 64).collect();
    engine
        .register_dataset("payroll", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    let server = Arc::new(Server::with_defaults(Arc::new(engine)));
    let net = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).unwrap();

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    let mut fold = |bits: u64| digest = fnv1a(&[digest.to_le_bytes(), bits.to_le_bytes()].concat());

    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("ann", 8.0).unwrap();
    client.open_session("bee", 8.0).unwrap();
    client.open_session("primer", 8.0).unwrap();
    // Identical traced requests from two analysts, sent while a primer's
    // epoch commits: the next epoch takes both and serves them from one
    // release, linked across both trace trees.
    for round in 0..4u64 {
        // The primer is charged (in memory) the moment its epoch is
        // drained; its commit then takes 30 ms. The ledger is the one
        // signal that also moves with observability switched off.
        let spent = client.budget("primer").unwrap().spent;
        let primer = client
            .submit(
                "primer",
                &Request::histogram("salary", "payroll", eps(0.25)),
            )
            .unwrap();
        while client.budget("primer").unwrap().spent == spent {
            std::thread::yield_now();
        }
        let req = Request::range(
            "salary",
            "payroll",
            eps(0.25),
            round as usize * 3,
            round as usize * 3 + 24,
        );
        let trace = |tag: u64| (round * 2 + tag).checked_add(0x100);
        let a = client
            .submit_traced("ann", &req, None, None, trace(0))
            .unwrap();
        let b = client
            .submit_traced("bee", &req, None, None, trace(1))
            .unwrap();
        client.wait(primer).unwrap();
        fold(client.wait(a).unwrap().scalar().unwrap().to_bits());
        fold(client.wait(b).unwrap().scalar().unwrap().to_bits());
    }
    // Compact mid-run so part of the history lives in archive/ — the
    // audit must keep seeing it.
    store.compact().unwrap();
    let id = client
        .submit_tagged(
            "ann",
            &Request::range("salary", "payroll", eps(0.5), 10, 50),
            Some(1),
            None,
        )
        .unwrap();
    fold(client.wait(id).unwrap().scalar().unwrap().to_bits());

    let traces = client.traces().unwrap();
    let audit = client.audit("ann").unwrap();
    // Per-record provenance must sum to exactly what the ledger says.
    let booked: f64 = audit.iter().map(|e| e.epsilon()).sum();
    let spent = client.budget("ann").unwrap().spent;
    assert_eq!(
        booked.to_bits(),
        spent.to_bits(),
        "audit entries must sum to the ledger bit-for-bit"
    );
    client.goodbye().unwrap();
    net.shutdown().unwrap();
    (digest, traces, audit)
}

fn main() {
    println!("=== run 1: tracing ENABLED ===");
    let dir_on = blowfish::store::scratch_dir("trace-audit-on");
    let (digest_on, traces, audit) = run(true, &dir_on);

    // 1. Span waterfalls for the first coalesced pair.
    println!("-- {} trace trees retained --", traces.len());
    for tree in traces.iter().filter(|t| t.id.0 < 0x102) {
        println!(
            "   trace {} analyst={} outcome={} total={}µs",
            tree.id,
            tree.analyst,
            tree.outcome,
            tree.total_ns / 1_000
        );
        for span in &tree.spans {
            let link = span.link.map(|l| format!(" link={l}")).unwrap_or_default();
            println!(
                "      {:<10} +{:>7}µs {:>7}µs {}{}",
                span.stage.as_str(),
                span.start_ns / 1_000,
                span.duration_ns / 1_000,
                span.outcome,
                link
            );
        }
        assert!(
            tree.covers(&Stage::ALL),
            "every traced request covers all seven stages"
        );
    }

    // 2. The ε-provenance audit for "ann".
    println!("-- audit: {} ledger records for ann --", audit.len());
    for e in &audit {
        println!(
            "   seq={:<4} ε={:<8} fp={:016x} {}",
            e.seq,
            e.epsilon(),
            e.fingerprint,
            e.label
        );
    }

    // 3. Same seed on a fresh WAL, observability off: identical bytes.
    println!("=== run 2: tracing DISABLED ===");
    let dir_off = blowfish::store::scratch_dir("trace-audit-off");
    let (digest_off, no_traces, _) = run(false, &dir_off);
    assert!(no_traces.is_empty(), "disabled run must retain no traces");
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
    println!("digest on  = {digest_on:#018x}");
    println!("digest off = {digest_off:#018x}");
    assert_eq!(digest_on, digest_off, "tracing must be a pure side channel");
    println!("byte-identical: tracing changed nothing about the answers.");
}
