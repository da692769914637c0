//! The signal census: README's signal table is the catalogue of one
//! scrape. Every metric base name a WAL-backed `NetServer` and a replica
//! report is a row of the table, with its kind, and every row is
//! reported — a metric registered without a row, or a row whose metric
//! was deleted, fails here.

use blowfish::net::{Client, NetConfig, NetServer, WireMetric};
use blowfish::obs::{SloObjective, SloSpec};
use blowfish::prelude::*;
use blowfish::replica::{Replica, ReplicaConfig};
use blowfish::store::scratch_dir;
use std::collections::BTreeSet;
use std::sync::Arc;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn setup(engine: &Engine) {
    let domain = Domain::line(64).unwrap();
    engine
        .register_policy("pol", Policy::distance_threshold(domain.clone(), 2))
        .unwrap();
    let rows: Vec<usize> = (0..640).map(|i| (i * 7) % 64).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
}

/// `(base name, kind)` of every metric in a scrape.
fn census(scrape: &[WireMetric]) -> BTreeSet<(String, String)> {
    scrape
        .iter()
        .map(|m| {
            let kind = match m {
                WireMetric::Counter { .. } => "counter",
                WireMetric::Gauge { .. } => "gauge",
                WireMetric::Histogram { .. } => "histogram",
            };
            let base = m.name().split('{').next().unwrap_or_default();
            (base.to_owned(), kind.to_owned())
        })
        .collect()
}

/// Singles of three kinds, a batch, and a tagged resubmission, then
/// one scrape.
fn mixed_workload_scrape(client: &mut Client) -> Vec<WireMetric> {
    client.open_session("alice", 8.0).unwrap();
    client
        .call("alice", &Request::range("pol", "ds", eps(0.25), 3, 30))
        .unwrap();
    client
        .call("alice", &Request::histogram("pol", "ds", eps(0.25)))
        .unwrap();
    client
        .call(
            "alice",
            &Request::cumulative_histogram("pol", "ds", eps(0.25)),
        )
        .unwrap();
    let batch: Vec<Request> = (0..4)
        .map(|i| Request::range("pol", "ds", eps(0.25), i, i + 20))
        .collect();
    for slot in client.call_batch("alice", &batch).unwrap() {
        slot.unwrap();
    }
    let tagged = Request::range("pol", "ds", eps(0.25), 5, 9);
    for _ in 0..2 {
        let id = client
            .submit_tagged("alice", &tagged, Some(7), None)
            .unwrap();
        client.wait(id).unwrap();
    }
    client.stats().unwrap()
}

#[test]
fn the_readme_signal_table_is_the_live_scrape() {
    let readme = include_str!("../README.md");
    let rows: BTreeSet<(String, String)> = readme
        .lines()
        .skip_while(|line| !line.starts_with("**Signals.**"))
        .skip_while(|line| !line.starts_with("| signal |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let signal = cells[1].trim_matches('`');
            let base = signal.split('{').next().unwrap_or_default();
            (base.to_owned(), cells[2].to_owned())
        })
        .collect();
    assert!(!rows.is_empty(), "README has no signal table");

    // A WAL-backed server with an SLO configured.
    let dir = scratch_dir("signal-census-net");
    let engine = Engine::with_store(11, Arc::new(Store::open(&dir).unwrap()));
    setup(&engine);
    let server = Arc::new(Server::new(Arc::new(engine), ServerConfig::default()));
    let config = NetConfig {
        slos: vec![SloSpec {
            name: "alice-burn".into(),
            objective: SloObjective::BudgetBurnUnder {
                analyst: "alice".into(),
                max_eps_per_scrape: 1.0,
            },
        }],
        ..NetConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", server, config).unwrap();
    let mut client = Client::connect(net.local_addr()).unwrap();
    let mut scraped = census(&mixed_workload_scrape(&mut client));
    client.goodbye().unwrap();
    net.shutdown().unwrap();

    // One replica leading a cluster of one.
    let replica_dir = scratch_dir("signal-census-replica");
    let replica = Replica::start(
        &replica_dir,
        "127.0.0.1:0",
        "127.0.0.1:0",
        ReplicaConfig {
            seed: 11,
            quorum: 1,
            ..ReplicaConfig::default()
        },
        setup,
    )
    .unwrap();
    replica.lead();
    let mut client = Client::connect(replica.client_addr()).unwrap();
    scraped.extend(census(&mixed_workload_scrape(&mut client)));
    client.goodbye().unwrap();
    replica.shutdown().unwrap();

    let unlisted: Vec<_> = scraped.difference(&rows).collect();
    let unscraped: Vec<_> = rows.difference(&scraped).collect();
    assert!(
        unlisted.is_empty() && unscraped.is_empty(),
        "scraped but not in README's signal table: {unlisted:?}; \
         in the table but not scraped: {unscraped:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&replica_dir).unwrap();
}
