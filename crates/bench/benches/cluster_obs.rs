//! PR 10 cluster-observability-plane trajectory (custom harness, run
//! via `cargo bench -p bf-bench --bench cluster_obs`, `-- --quick` for
//! the CI smoke run).
//!
//! Three measurements over a real loopback three-replica cluster, all
//! asserted so regressions fail the bench:
//!
//! 1. **Plane overhead** — the same quorum-2 write stream with the
//!    observability plane off (no SLOs, no watchers, no scrapes) and
//!    on (SLO engine evaluating, a live watch subscribed through every
//!    burst, a monitor federating `ClusterStats` + `Health` around
//!    each burst). The plane is a pure side channel, so the median
//!    on/off ratio of alternating paired bursts must stay within 15%.
//! 2. **Federated scrape coverage** — one `ClusterStats` call against
//!    the serving node must return every cluster member exactly once,
//!    each under its own `replica` label, and complete quickly enough
//!    for a scrape loop.
//! 3. **Watch never blocks the serving path** — a subscriber that
//!    stops reading (the slow-consumer failure mode) must not stall
//!    writes: its bounded queue drops with a counter while the full
//!    burst is served and a second, live subscriber still receives
//!    events.
//!
//! Results are written to `BENCH_PR10.json` at the repo root.

use bf_core::{Epsilon, Policy};
use bf_domain::{Dataset, Domain};
use bf_engine::{Engine, Request};
use bf_net::{Client, NetConfig};
use bf_obs::{ClusterEventKind, SloObjective, SloSpec};
use bf_replica::{Replica, ReplicaConfig};
use bf_store::scratch_dir;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const DOMAIN: usize = 512;
const WRITES: usize = 32;
const TRIALS: usize = 3;
/// Paired off/on bursts in the plane-overhead measurement.
const ROUNDS: usize = 31;
const PER_QUERY_EPS: f64 = 1.0 / 8192.0;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn setup(engine: &Engine) {
    let domain = Domain::line(DOMAIN).unwrap();
    engine
        .register_policy("dist", Policy::distance_threshold(domain.clone(), 4))
        .unwrap();
    let rows: Vec<usize> = (0..10_000).map(|i| (i * 131) % DOMAIN).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
}

fn spawn(tag: &str, name: &str, slos: Vec<SloSpec>) -> Replica {
    Replica::start(
        scratch_dir(tag),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ReplicaConfig {
            seed: 10,
            quorum: 2,
            name: name.into(),
            net: NetConfig {
                tick_interval: Duration::from_millis(5),
                // Default-size acceptor pool: a watch holds its
                // acceptor slot for the connection's lifetime, and the
                // overhead phase runs watcher + monitor + writer
                // concurrently — a pool of 2 would starve the third
                // connection in the kernel backlog forever.
                slos,
                ..NetConfig::default()
            },
            ..ReplicaConfig::default()
        },
        setup,
    )
    .unwrap()
}

fn cluster(tag: &str, slos: Vec<SloSpec>) -> (Replica, Replica, Replica) {
    let leader = spawn(&format!("{tag}-l"), "alpha", slos);
    let f1 = spawn(&format!("{tag}-f1"), "beta", Vec::new());
    let f2 = spawn(&format!("{tag}-f2"), "gamma", Vec::new());
    leader.lead();
    let hint = leader.client_addr().to_string();
    f1.follow(leader.peer_addr(), &hint);
    f2.follow(leader.peer_addr(), &hint);
    leader.set_peers(&[
        ("beta".into(), f1.peer_addr()),
        ("gamma".into(), f2.peer_addr()),
    ]);
    (leader, f1, f2)
}

fn query(i: u64) -> Request {
    let lo = (i as usize * 61) % (DOMAIN - 128);
    Request::range("dist", "ds", eps(PER_QUERY_EPS), lo, lo + 100)
}

fn lag_slo() -> Vec<SloSpec> {
    vec![SloSpec {
        name: "cluster-lag".into(),
        objective: SloObjective::ReplicationLagUnder {
            metric: "replica_cluster_lag_entries".into(),
            max_entries: 1000.0,
        },
    }]
}

/// One timed burst of `WRITES` serial quorum writes, keys offset from
/// `start` so reruns sequence fresh entries. Returns writes/second.
fn timed_burst(client: &mut Client, start: u64) -> f64 {
    let t = Instant::now();
    for i in 0..WRITES as u64 {
        let id = client
            .submit_tagged("w", &query(start + i), Some(start + i + 1), None)
            .unwrap();
        client.wait(id).unwrap();
    }
    WRITES as f64 / t.elapsed().as_secs_f64()
}

fn bench_plane_overhead(json: &mut String) {
    // Plane off: a bare cluster, nothing scraping, nobody subscribed.
    let (off_leader, off_f1, off_f2) = cluster("bench-plane-off", Vec::new());
    let mut off_client = Client::connect(off_leader.client_addr()).unwrap();
    off_client.open_session("w", 1e6).unwrap();

    // Plane on: SLO engine attached, a live watch subscribed for the
    // whole run (every request stage inside the timed bursts becomes a
    // published, pumped event — the per-request plane tax), and a
    // monitor connection federating `ClusterStats` + `Health` before
    // every burst — a monitoring stack that is actually on, not merely
    // configured. The scrape sits between bursts, not beside them: a
    // free-running scrape thread on a single-core host measures the
    // kernel scheduler, not the plane.
    let (leader, f1, f2) = cluster("bench-plane-on", lag_slo());
    let mut watcher = Client::connect(leader.client_addr()).unwrap();
    let mut watch = watcher.watch().unwrap();
    let mut monitor = Client::connect(leader.client_addr()).unwrap();
    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("w", 1e6).unwrap();

    // Both clusters stay up and bursts alternate between them (order
    // flipping each round): a write is three serial fsyncs, and fsync
    // latency on a shared disk drifts by tens of percent over seconds,
    // so only back-to-back bursts are comparable. The MEDIAN of the
    // per-round ratios is the estimate.
    let (mut off_rps, mut on_rps) = (f64::MIN, f64::MIN);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let start = (round * WRITES) as u64;
        let mut burst = |plane_on: bool| {
            if plane_on {
                monitor.cluster_stats().unwrap();
                monitor.health().unwrap();
                timed_burst(&mut client, start)
            } else {
                timed_burst(&mut off_client, start)
            }
        };
        let (off, on) = if round % 2 == 0 {
            let off = burst(false);
            (off, burst(true))
        } else {
            let on = burst(true);
            (burst(false), on)
        };
        off_rps = off_rps.max(off);
        on_rps = on_rps.max(on);
        ratios.push(on / off);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ratio = ratios[ROUNDS / 2];

    off_client.goodbye().unwrap();
    off_f2.shutdown().unwrap();
    off_f1.shutdown().unwrap();
    off_leader.shutdown().unwrap();
    monitor.goodbye().unwrap();
    // The watch really was live: drain what the burst published. The
    // bus streams continuously on a running cluster (every scheduler
    // tick records a schedule stage), so drain for a bounded window
    // rather than waiting for silence that never comes.
    let mut events = 0usize;
    let drain_until = Instant::now() + Duration::from_millis(500);
    while Instant::now() < drain_until {
        match watch.next(Duration::from_millis(10)).unwrap() {
            Some(_) => events += 1,
            None => break,
        }
    }
    assert!(events > 0, "live watch observed none of the burst");
    client.goodbye().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();

    println!(
        "cluster_obs/plane-overhead: best plane off {off_rps:.0} w/s, plane on {on_rps:.0} w/s \
         — median paired ratio {ratio:.3}× over {ROUNDS} rounds ({events} events streamed)"
    );
    // Measured 0.96–1.07× run to run (three fsyncs a write, two WAL
    // directories): the bound is what this measurement can resolve.
    assert!(
        ratio >= 0.85,
        "observability plane must cost < 15% of write throughput (got {ratio:.3}×)"
    );
    writeln!(
        json,
        "  \"plane_overhead\": {{\"writes\": {WRITES}, \"trials\": {ROUNDS}, \
         \"plane_off_rps\": {off_rps:.0}, \"plane_on_rps\": {on_rps:.0}, \
         \"ratio\": {ratio:.3}, \"events_streamed\": {events}, \
         \"cluster_plane_overhead_under_15pct\": true}},"
    )
    .unwrap();
}

fn bench_federated_scrape(json: &mut String) {
    let (leader, f1, f2) = cluster("bench-fedscrape", Vec::new());
    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("w", 1e6).unwrap();
    for i in 0..4u64 {
        let id = client
            .submit_tagged("w", &query(i), Some(i + 1), None)
            .unwrap();
        client.wait(id).unwrap();
    }

    let mut best_ms = f64::MAX;
    let mut members = 0usize;
    for _ in 0..TRIALS {
        let t = Instant::now();
        let replicas = client.cluster_stats().unwrap();
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let mut names: Vec<String> = replicas.iter().map(|r| r.node.clone()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["alpha", "beta", "gamma"],
            "one scrape must cover every member exactly once"
        );
        assert!(replicas
            .iter()
            .all(|r| r.reachable && !r.metrics.is_empty()));
        members = replicas.len();
    }
    client.goodbye().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();

    println!("cluster_obs/federated-scrape: {members} members in one call, best {best_ms:.1}ms");
    writeln!(
        json,
        "  \"federated_scrape\": {{\"members\": {members}, \"best_ms\": {best_ms:.2}, \
         \"federated_scrape_covers_all_replicas\": true}},"
    )
    .unwrap();
}

fn bench_watch_nonblocking(json: &mut String) {
    let (leader, f1, f2) = cluster("bench-watchblock", Vec::new());

    // The pathological subscriber: opens a watch and never reads.
    // Its per-connection queue is bounded; once full, events drop
    // with a counter instead of back-pressuring the serving path.
    let mut stuck = Client::connect(leader.client_addr()).unwrap();
    let _stuck_watch = stuck.watch().unwrap();

    // A healthy subscriber alongside it.
    let mut live = Client::connect(leader.client_addr()).unwrap();
    let mut live_watch = live.watch().unwrap();

    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("w", 1e6).unwrap();
    let t = Instant::now();
    for i in 0..WRITES as u64 {
        let id = client
            .submit_tagged("w", &query(i), Some(i + 1), None)
            .unwrap();
        client.wait(id).unwrap();
    }
    let rps = WRITES as f64 / t.elapsed().as_secs_f64();

    // Every write was served while one subscriber sat stuck.
    let served = leader.engine().session_snapshot("w").unwrap().served();
    assert_eq!(served as usize, WRITES, "stuck watcher stalled the burst");

    // The live subscriber still saw the traffic.
    let mut delivered = 0usize;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match live_watch.next(Duration::from_millis(50)).unwrap() {
            Some(ev) => {
                assert!(matches!(
                    ev.kind,
                    ClusterEventKind::Stage
                        | ClusterEventKind::Trace
                        | ClusterEventKind::Role
                        | ClusterEventKind::Slo
                ));
                delivered += 1;
            }
            None => break,
        }
    }
    assert!(delivered > 0, "live watcher starved by the stuck one");

    client.goodbye().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();

    println!(
        "cluster_obs/watch-nonblocking: {WRITES} writes at {rps:.0} w/s with a wedged \
         subscriber attached; live subscriber got {delivered} events"
    );
    writeln!(
        json,
        "  \"watch_nonblocking\": {{\"writes\": {WRITES}, \"rps\": {rps:.0}, \
         \"delivered_to_live_watcher\": {delivered}, \
         \"watch_delivers_without_blocking\": true}}"
    )
    .unwrap();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `--quick` is accepted for CI symmetry; the workload is already
    // smoke-sized, so both modes run the same thing.
    let quick = args.iter().any(|a| a == "--quick");
    let mut json = String::from("{\n");
    writeln!(json, "  \"pr\": 10,").unwrap();
    writeln!(json, "  \"quick\": {quick},").unwrap();

    bench_plane_overhead(&mut json);
    bench_federated_scrape(&mut json);
    bench_watch_nonblocking(&mut json);
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR10.json");
    std::fs::write(path, &json).expect("write BENCH_PR10.json");
    println!("cluster_obs: OK → {path}");
}
