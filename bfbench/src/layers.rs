//! The traced run: the latency ladder (the same requests served at six
//! depths of the stack) and one microbenchmark per layer, each timing
//! calls into the layer's public functions from outside.

use crate::fixture::{
    budget, cluster_points, cumulative_request, draw, engine_seed, eps, histogram_request,
    kmeans_request, range_request, start_replica, Cluster, LineData, WireStack, ANALYST, BATCH,
    BUDGET, EPS, POINTS, WIRE,
};
use crate::spans::{ladder_rungs, Span, ROOT};
use crate::stats::{median_f64, percentile};
use crate::workloads::{exchange_messages, window_rps, Outcome, Run};
use bf_constraints::{sparse::DEFAULT_SCAN_CAP, Marginal, PolicyGraph};
use bf_core::sample_laplace;
use bf_core::sensitivity::{cumulative_histogram_sensitivity, histogram_sensitivity};
use bf_data::seeded_rng;
use bf_domain::Domain;
use bf_engine::{Engine, Request, Response, Store};
use bf_graph::SecretGraph;
use bf_mechanisms::kmeans::{init_random, KmeansSecretSpec, PrivateKmeans};
use bf_mechanisms::{
    isotonic_regression, HierarchicalMechanism, HistogramMechanism, OrderedHierarchicalMechanism,
    OrderedMechanism,
};
use bf_net::{Client, ClientMessage, NetConfig, ServerMessage, WireMetric, PROTOCOL_VERSION};
use bf_obs::Stage;
use bf_server::{Server, ServerConfig};
use bf_store::Record;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests served at ladder depths 1–5, and at depth 6 (the replicated
/// rung pays a quorum round per request).
const LADDER_REQUESTS: u64 = 400;
const LADDER_REPLICATED: u64 = 150;

/// Span names of the six depths, shallowest first.
const DEPTHS: [&str; 6] = [
    "engine.serve",
    "engine.serve+store",
    "server.submit+tick",
    "server.driver+wait",
    "client.call",
    "replica.write",
];

/// Per-layer metric values, set by name. Every name of [`crate::PER_LAYER`]
/// is set exactly once per traced run.
pub struct Layers {
    values: Vec<Option<f64>>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: vec![None; crate::PER_LAYER.len()],
        }
    }

    fn slot(name: &str) -> usize {
        crate::PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = Self::slot(name);
        assert!(
            self.values[slot].replace(value).is_none(),
            "{name} measured twice"
        );
    }

    /// A value measured earlier in this run.
    pub fn get(&self, name: &str) -> f64 {
        self.values[Self::slot(name)].unwrap_or_else(|| panic!("{name} was not measured yet"))
    }

    pub fn finish(self) -> Vec<(crate::Metric, f64)> {
        crate::PER_LAYER
            .iter()
            .zip(self.values)
            .map(|(metric, value)| {
                let value = value.unwrap_or_else(|| panic!("{} was never measured", metric.0));
                (*metric, value)
            })
            .collect()
    }
}

/// Nanoseconds one call of `f` takes.
fn time_ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

fn p50_us(samples_ns: &mut [u64]) -> f64 {
    samples_ns.sort_unstable();
    percentile(samples_ns, 0.5) as f64 / 1e3
}

/// Median over `batches` of the mean nanoseconds one call of `f` takes
/// within a batch of `iters`.
fn bench_ns(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f64(&per_call)
}

/// The ladder: request `i` of one stream served at six depths, each
/// depth on a fresh stack with the same engine seed — so every depth
/// must return the same bytes.
fn ladder(run: &Run<'_>, layers: &mut Layers, out: &mut Outcome) {
    let seed = draw(run.seed, 0x1A, 0);
    let data = LineData::generate(run.seed, &WIRE);
    let requests: Vec<Request> = (0..LADDER_REQUESTS)
        .map(|i| data.range(seed, 0, i).1)
        .collect();
    // (start, end) per request per depth, and the answers' bytes.
    let mut timings: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut answers: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut serve = |count: u64, call: &mut dyn FnMut(u64, &Request) -> Response| {
        let now_ns = || run.epoch.elapsed().as_nanos() as u64;
        let (spans, bytes) = requests
            .iter()
            .take(count as usize)
            .enumerate()
            .map(|(i, request)| {
                let start = now_ns();
                let response = call(i as u64, request);
                ((start, now_ns()), response.to_bytes())
            })
            .unzip();
        timings.push(spans);
        answers.push(bytes);
    };

    // Depth 1: the engine alone.
    {
        let engine = Engine::with_seed(engine_seed(seed));
        data.register(&engine);
        engine
            .open_session(ANALYST, budget())
            .expect("open session");
        serve(LADDER_REQUESTS, &mut |_, r| {
            engine.serve(ANALYST, r).expect("serve")
        });
    }
    // Depth 2: the engine charging through a WAL.
    let stored_engine = || {
        let store = Arc::new(Store::open(run.dirs.fresh("ladder")).expect("open store"));
        let engine = Arc::new(Engine::with_store(engine_seed(seed), store));
        data.register(&engine);
        engine
            .open_session(ANALYST, budget())
            .expect("open session");
        engine
    };
    {
        let engine = stored_engine();
        serve(LADDER_REQUESTS, &mut |_, r| {
            engine.serve(ANALYST, r).expect("serve")
        });
    }
    // Depth 3: the scheduler, ticked by hand until the ticket resolves.
    {
        let server = Server::new(stored_engine(), ServerConfig::default());
        let ticks0 = server.stats().ticks;
        serve(LADDER_REQUESTS, &mut |_, r| {
            let ticket = server.submit(ANALYST, r.clone()).expect("submit");
            loop {
                server.tick();
                if let Some(answer) = ticket.try_take() {
                    return answer.expect("answer");
                }
            }
        });
        let ticks = server.stats().ticks - ticks0;
        layers.set(
            "server.ticks_per_request",
            ticks as f64 / LADDER_REQUESTS as f64,
        );
    }
    // Depth 4: the scheduler under its background driver at the
    // default tick interval.
    {
        let server = Arc::new(Server::new(stored_engine(), ServerConfig::default()));
        let driver = server.start_driver(NetConfig::default().tick_interval);
        serve(LADDER_REQUESTS, &mut |_, r| {
            let ticket = server.submit(ANALYST, r.clone()).expect("submit");
            ticket.wait().expect("answer")
        });
        driver.stop();
    }
    // Depth 5: over loopback TCP.
    {
        let stack = WireStack::start(&data, seed, run.dirs.fresh("ladder"));
        let mut client = stack.client(ANALYST);
        serve(LADDER_REQUESTS, &mut |_, r| {
            client.call(ANALYST, r).expect("call")
        });
        wire_floor(&mut client, layers);
        client.goodbye().expect("goodbye");
        stack.net.shutdown().expect("shutdown");
    }
    // Depth 6: through a three-replica quorum.
    {
        let cluster = Cluster::start(&data, seed, run.dirs);
        let mut client = Client::connect(cluster.leader.client_addr()).expect("connect leader");
        client.open_session(ANALYST, BUDGET).expect("open session");
        serve(LADDER_REPLICATED, &mut |i, r| {
            let id = client
                .submit_tagged(ANALYST, r, Some(i + 1), None)
                .expect("submit");
            client.wait(id).expect("answer")
        });
        client.goodbye().expect("goodbye");
        cluster.shutdown();
    }

    for depth in 1..answers.len() {
        let n = answers[depth].len();
        if answers[depth][..] != answers[0][..n] {
            out.failures.push(format!(
                "ladder: {} returned different bytes than {}",
                DEPTHS[depth], DEPTHS[0]
            ));
        }
    }
    let medians: Vec<f64> = timings
        .iter()
        .map(|spans| {
            let mut d: Vec<u64> = spans.iter().map(|(s, e)| e - s).collect();
            p50_us(&mut d)
        })
        .collect();
    let rungs = ladder_rungs(&medians);
    for (name, rung) in [
        "ladder.engine_self_us",
        "ladder.store_self_us",
        "ladder.server_self_us",
        "ladder.driver_wait_us",
        "ladder.net_self_us",
        "ladder.replica_self_us",
    ]
    .into_iter()
    .zip(&rungs)
    {
        layers.set(name, *rung);
        if *rung < 0.0 {
            println!("  note: {name} is negative ({rung:.1} us): the deeper stack measured faster");
        }
    }
    layers.set("server.queue_wait_us", medians[3]);
    // What the server's own seven stage histograms leave unexplained of
    // the wire median the caller saw.
    let staged_us: f64 = Stage::ALL
        .iter()
        .map(|s| layers.get(&format!("obs.stage_ns.{}", s.as_str())) / 1e3)
        .sum();
    layers.set("obs.unattributed_frac", 1.0 - staged_us / medians[4]);

    // Request i's span at depth k is the parent of its span at depth
    // k − 1; the deepest span a request has is its root.
    let base = out.spans.len() as u32;
    let offsets: Vec<u32> = timings
        .iter()
        .scan(base, |at, spans| {
            let here = *at;
            *at += spans.len() as u32;
            Some(here)
        })
        .collect();
    for (depth, spans) in timings.iter().enumerate() {
        for (i, (start, end)) in spans.iter().enumerate() {
            let parent = match timings.get(depth + 1) {
                Some(deeper) if i < deeper.len() => offsets[depth + 1] + i as u32,
                _ => ROOT,
            };
            out.spans.push(Span {
                name: DEPTHS[depth],
                request: i as u64,
                depth: depth as u8 + 1,
                start_ns: *start,
                end_ns: *end,
                parent,
            });
        }
    }
}

/// On the depth-5 stack, after its ladder pass: the socket + poll floor
/// (`budget` touches neither scheduler nor WAL), the metrics scrape, and
/// the server's own stage histograms read back over the wire.
fn wire_floor(client: &mut Client, layers: &mut Layers) {
    let mut rtt: Vec<u64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            client.budget(ANALYST).expect("budget");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    layers.set("net.rtt_us", p50_us(&mut rtt));
    let mut report = Vec::new();
    let mut scrape: Vec<u64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            report = client.stats().expect("stats");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    layers.set("obs.scrape_ms", p50_us(&mut scrape) / 1e3);
    for stage in Stage::ALL {
        let name = format!("span_stage_ns{{stage=\"{}\"}}", stage.as_str());
        let p50 = report
            .iter()
            .find_map(|m| match m {
                WireMetric::Histogram { name: n, p50, .. } if *n == name => Some(*p50 as f64),
                _ => None,
            })
            .unwrap_or(0.0);
        layers.set(&format!("obs.stage_ns.{}", stage.as_str()), p50);
    }
}

/// `ClientMessage`/`ServerMessage` encode and decode on the workloads'
/// own frames: a range exchange (scalar reply) and a histogram exchange
/// (4096-cell reply).
fn codec(data: &LineData, layers: &mut Layers) {
    let cells: Vec<f64> = (0..data.size()).map(|x| data.true_count(x) + 0.5).collect();
    for (suffix, request, response, iters) in [
        ("scalar", range_request(7), Response::Scalar(1234.5), 2_000),
        (
            "vector",
            histogram_request(),
            Response::Histogram(cells),
            100,
        ),
    ] {
        let (submit, answer) = exchange_messages(ANALYST, &request, &response);
        let encode = bench_ns(9, iters, || {
            black_box(black_box(&submit).encode_for(PROTOCOL_VERSION));
            black_box(black_box(&answer).encode_for(PROTOCOL_VERSION));
        });
        let (sent, replied) = (
            submit.encode_for(PROTOCOL_VERSION),
            answer.encode_for(PROTOCOL_VERSION),
        );
        let decode = bench_ns(9, iters, || {
            black_box(ClientMessage::decode_for(
                black_box(&sent),
                PROTOCOL_VERSION,
            ));
            black_box(ServerMessage::decode_for(
                black_box(&replied),
                PROTOCOL_VERSION,
            ));
        });
        // Two frames per exchange.
        layers.set(&format!("net.encode_ns_per_frame.{suffix}"), encode / 2.0);
        layers.set(&format!("net.decode_ns_per_frame.{suffix}"), decode / 2.0);
    }
}

/// `Server::submit` and `Server::tick` over a 128-deep queue, driver
/// off.
fn scheduler(run: &Run<'_>, data: &LineData, layers: &mut Layers) {
    let seed = draw(run.seed, 0x5C, 0);
    let engine = Arc::new(Engine::with_seed(engine_seed(seed)));
    data.register(&engine);
    engine
        .open_session(ANALYST, budget())
        .expect("open session");
    let server = Server::new(engine, ServerConfig::default());
    let depth = ServerConfig::default().queue_capacity as u64;
    let mut submit_ns = Vec::new();
    let mut tick_us = Vec::new();
    for rep in 0..9u64 {
        let tickets: Vec<_> = (0..depth)
            .map(|i| {
                let request = data.range(seed, rep, i).1;
                let t = Instant::now();
                let ticket = server.submit(ANALYST, request).expect("submit");
                submit_ns.push(t.elapsed().as_nanos() as u64);
                ticket
            })
            .collect();
        let ticks0 = server.stats().ticks;
        let t = Instant::now();
        server.pump_until_idle();
        let took = t.elapsed();
        tick_us.push(took.as_secs_f64() * 1e6 / (server.stats().ticks - ticks0) as f64);
        for ticket in tickets {
            ticket.wait().expect("answer");
        }
    }
    submit_ns.sort_unstable();
    layers.set("server.submit_ns", percentile(&submit_ns, 0.5) as f64);
    layers.set("server.tick_us", median_f64(&tick_us));
}

/// `Engine::serve*` per request kind on the `engine_batch` fixture, the
/// mechanisms called directly on the same data, and the closed-form
/// sensitivities of its policy.
fn engine_and_below(run: &Run<'_>, layers: &mut Layers) {
    let seed = draw(run.seed, 0x6D, 0);
    let data = LineData::generate(run.seed, &BATCH);
    let points = cluster_points(run.seed);
    let engine = Engine::with_seed(engine_seed(seed));
    data.register(&engine);
    engine
        .register_points(POINTS, points.clone())
        .expect("register points");
    engine
        .open_session(ANALYST, budget())
        .expect("open session");

    let mut serve_kind = |name: &str, request: Request, rounds: usize| {
        let mut ns: Vec<u64> = (0..rounds)
            .map(|_| {
                time_ns(|| {
                    black_box(engine.serve(ANALYST, &request).expect("serve"));
                })
            })
            .collect();
        layers.set(name, p50_us(&mut ns));
    };
    serve_kind("engine.serve_us.histogram", histogram_request(), 15);
    serve_kind("engine.serve_us.cumulative", cumulative_request(), 15);
    serve_kind("engine.serve_us.kmeans", kmeans_request(), 15);
    // Ranges: the first serve of a range computes its sensitivity (an
    // edge scan); the second finds it cached.
    let ranges: Vec<Request> = (0..64).map(|i| data.range(seed, 0, i).1).collect();
    engine.clear_sensitivity_cache();
    let pass = || -> Vec<u64> {
        ranges
            .iter()
            .map(|r| {
                time_ns(|| {
                    black_box(engine.serve(ANALYST, r).expect("serve"));
                })
            })
            .collect()
    };
    let (mut cold, mut warm) = (pass(), pass());
    layers.set("engine.cold_serve_us", p50_us(&mut cold));
    layers.set("engine.serve_us.range", p50_us(&mut warm));
    let mut batch: Vec<u64> = (0..15)
        .map(|_| {
            time_ns(|| {
                black_box(engine.serve_batch(ANALYST, &ranges));
            })
        })
        .collect();
    layers.set("engine.serve_us.range_batch64", p50_us(&mut batch));

    // Mechanisms, directly, on the same 65 536 cells / 20 000 points.
    let histogram = data.dataset.histogram();
    let counts = histogram.counts();
    let cumulative = histogram.cumulative();
    let cells = counts.len() as f64;
    let mut rng = seeded_rng(seed);
    let theta = cumulative_histogram_sensitivity(&data.policy) as usize;
    let mech = HistogramMechanism::for_policy(&data.policy, eps()).expect("histogram mechanism");
    layers.set(
        "mechanisms.histogram_ns_per_cell",
        bench_ns(7, 1, || {
            black_box(mech.release_counts(counts, &mut rng));
        }) / cells,
    );
    let mech = OrderedMechanism::for_policy(&data.policy, eps());
    layers.set(
        "mechanisms.ordered_ns_per_cell",
        bench_ns(7, 1, || {
            black_box(
                mech.release(&cumulative, &mut rng)
                    .expect("ordered release"),
            );
        }) / cells,
    );
    let noisy: Vec<f64> = cumulative
        .prefixes()
        .iter()
        .map(|p| p + sample_laplace(&mut rng, theta as f64 / EPS))
        .collect();
    layers.set(
        "mechanisms.isotonic_ns_per_cell",
        bench_ns(7, 1, || {
            black_box(isotonic_regression(&noisy));
        }) / cells,
    );
    let mech = HierarchicalMechanism::new(16, eps());
    layers.set(
        "mechanisms.hierarchical_ns_per_cell",
        bench_ns(7, 1, || {
            black_box(mech.release(counts, &mut rng));
        }) / cells,
    );
    let mech = OrderedHierarchicalMechanism::new(eps(), theta, 16);
    layers.set(
        "mechanisms.ordered_hierarchical_ns_per_cell",
        bench_ns(7, 1, || {
            black_box(mech.release(counts, &mut rng));
        }) / cells,
    );
    let kmeans = PrivateKmeans::new(4, 10, eps(), KmeansSecretSpec::L1Threshold(0.1));
    let initial = init_random(&points, 4, &mut rng);
    layers.set(
        "mechanisms.kmeans_us_per_iteration",
        bench_ns(7, 1, || {
            black_box(kmeans.run(&points, &initial, &mut rng));
        }) / 1e3
            / 10.0,
    );

    // Core: the closed forms the sensitivity cache memoizes.
    let policy = &data.policy;
    layers.set(
        "core.sensitivity_us.histogram",
        bench_ns(7, 100, || {
            black_box(histogram_sensitivity(black_box(policy)));
        }) / 1e3,
    );
    layers.set(
        "core.sensitivity_us.cumulative",
        bench_ns(7, 100, || {
            black_box(cumulative_histogram_sensitivity(black_box(policy)));
        }) / 1e3,
    );
    // A range's closed form scans edges up to the first that crosses
    // the range, so its cost grows with `lo`: time the same 64 ranges
    // the cold serves above paid for.
    let mut range_ns: Vec<u64> = ranges
        .iter()
        .map(|r| {
            let class = r.query_class().expect("a range has a query class");
            time_ns(|| {
                black_box(class.sensitivity(black_box(policy)));
            })
        })
        .collect();
    layers.set("core.sensitivity_us.range", p50_us(&mut range_ns));
    layers.set(
        "core.laplace_ns_per_sample",
        bench_ns(7, 100_000, || {
            black_box(sample_laplace(&mut rng, 2.0 / EPS));
        }),
    );
    let mut edges = 0u64;
    let scan = bench_ns(7, 1, || {
        edges = 0;
        policy.graph().for_each_edge(policy.domain(), |x, y| {
            edges += 1;
            black_box((x, y));
        });
    });
    layers.set("graph.edge_scan_ns_per_edge", scan / edges as f64);

    // Constraints: the policy graph of one marginal on a 64 × 64 grid.
    let grid = Domain::from_cardinalities(&[64, 64]).expect("grid domain");
    let queries = Marginal::new(vec![0]).queries(&grid);
    layers.set(
        "constraints.policy_graph_build_ms",
        bench_ns(5, 1, || {
            black_box(
                PolicyGraph::build(&grid, &SecretGraph::Attribute, &queries, DEFAULT_SCAN_CAP)
                    .expect("a single marginal is sparse"),
            );
        }) / 1e6,
    );
}

/// `Store::commit` against the device ceiling (the same bytes appended
/// and `sync_data`ed on a plain file beside it), recovery and
/// compaction; and the engine's reply-cache replay.
fn store_and_replay(run: &Run<'_>, data: &LineData, layers: &mut Layers) {
    let record = || Record::charged(ANALYST, "range@pol/ds", EPS);
    let dir = run.dirs.fresh("store");
    let store = Store::open(&dir).expect("open store");
    store
        .commit(&[Record::session_opened(ANALYST, BUDGET)])
        .expect("commit");
    let mut commit: Vec<u64> = (0..200)
        .map(|_| {
            let records = [record()];
            let t = Instant::now();
            store.commit(&records).expect("commit");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let frame = record().frame();
    let mut raw_file =
        std::fs::File::create(run.dirs.fresh("raw").join("raw.log")).expect("create raw file");
    let mut raw: Vec<u64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            raw_file.write_all(&frame).expect("append");
            raw_file.sync_data().expect("sync");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let (commit_us, raw_us) = (p50_us(&mut commit), p50_us(&mut raw));
    layers.set("store.commit_us", commit_us);
    layers.set("store.raw_fsync_us", raw_us);
    layers.set("store.commit_over_raw", commit_us / raw_us);

    // Recovery replays a WAL of group-committed charges.
    let batch: Vec<Record> = (0..20).map(|_| record()).collect();
    for _ in 0..100 {
        store.commit(&batch).expect("commit");
    }
    drop(store);
    let t = Instant::now();
    let store = Store::open(&dir).expect("reopen store");
    let replay = t.elapsed();
    layers.set(
        "store.recover_us_per_record",
        replay.as_secs_f64() * 1e6 / store.recovery_report().records_applied as f64,
    );
    let t = Instant::now();
    store.compact().expect("compact");
    layers.set("store.compact_ms", t.elapsed().as_secs_f64() * 1e3);

    // An already-acknowledged request id replays from the reply cache.
    let seed = draw(run.seed, 0x7E, 0);
    let engine = Engine::with_store(
        engine_seed(seed),
        Arc::new(Store::open(run.dirs.fresh("replay")).expect("open store")),
    );
    data.register(&engine);
    engine
        .open_session(ANALYST, budget())
        .expect("open session");
    let request = range_request(11);
    let first = engine.serve_tagged(ANALYST, 1, &request).expect("serve");
    layers.set(
        "engine.replay_ns",
        bench_ns(9, 1_000, || {
            let again = engine.serve_tagged(ANALYST, 1, &request).expect("replay");
            debug_assert_eq!(again, first);
            black_box(again);
        }),
    );
}

/// A follower is stopped, 256 entries commit on the remaining quorum,
/// and the follower restarts: how long until it has applied them all.
fn catch_up(run: &Run<'_>, data: &LineData, layers: &mut Layers, out: &mut Outcome) {
    let seed = draw(run.seed, 0x8F, 0);
    let Cluster {
        leader,
        followers: [kept, stopped],
    } = Cluster::start(data, seed, run.dirs);
    let mut client = Client::connect(leader.client_addr()).expect("connect leader");
    client.open_session(ANALYST, BUDGET).expect("open session");
    let mut write = |i: u64| {
        let id = client
            .submit_tagged(ANALYST, &data.range(seed, 0, i).1, Some(i + 1), None)
            .expect("submit");
        client.wait(id).expect("answer");
    };
    (0..8).for_each(&mut write);
    let dir = stopped
        .engine()
        .store()
        .expect("replicas are store-backed")
        .dir()
        .to_path_buf();
    stopped.shutdown().expect("follower shutdown");
    (8..8 + 256).for_each(&mut write);
    let head = leader.status().log_index;
    let t = Instant::now();
    let restarted = start_replica(data, seed, dir);
    restarted.follow(leader.peer_addr(), &leader.client_addr().to_string());
    while restarted.status().applied < head && t.elapsed() < Duration::from_secs(20) {
        std::thread::sleep(Duration::from_millis(1));
    }
    layers.set("replica.catchup_ms", t.elapsed().as_secs_f64() * 1e3);
    if restarted.status().applied < head {
        out.failures.push(format!(
            "restarted follower applied {} of {head} entries in 20 s",
            restarted.status().applied
        ));
    }
    client.goodbye().expect("goodbye");
    restarted.shutdown().expect("follower shutdown");
    kept.shutdown().expect("follower shutdown");
    leader.shutdown().expect("leader shutdown");
}

/// Pipelined throughput with the observability registry switched off
/// and on, interleaved on one stack.
fn obs_overhead(run: &Run<'_>, data: &LineData, layers: &mut Layers) {
    let seed = draw(run.seed, 0x90, 0);
    let stack = WireStack::start(data, seed, run.dirs.fresh("obs"));
    let mut client = stack.client(ANALYST);
    let slice = Duration::from_millis(600);
    window_rps(&mut client, ANALYST, data, seed, 99, slice);
    let ratios: Vec<f64> = (0..3u64)
        .map(|pair| {
            stack.engine.obs().set_enabled(false);
            let off = window_rps(&mut client, ANALYST, data, seed, 2 * pair, slice);
            stack.engine.obs().set_enabled(true);
            let on = window_rps(&mut client, ANALYST, data, seed, 2 * pair + 1, slice);
            on / off
        })
        .collect();
    layers.set("obs.overhead_frac", 1.0 - median_f64(&ratios));
    client.goodbye().expect("goodbye");
    stack.net.shutdown().expect("shutdown");
}

/// The counters the traced workload run collected at layer boundaries.
fn workload_counters(traced: &Outcome, layers: &mut Layers) {
    let c = &traced.counters;
    let answered: u64 = traced.incarnations.iter().map(|i| i.answered()).sum();
    let per_request = |n: u64| n as f64 / answered as f64;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    layers.set("net.bytes_per_request", per_request(c.wire_bytes));
    layers.set("net.frames_in", c.frames_in as f64);
    layers.set("net.frames_out", c.frames_out as f64);
    layers.set("net.protocol_errors", c.protocol_errors as f64);
    layers.set("net.window_refusals", c.window_refusals as f64);
    layers.set(
        "server.releases_per_request",
        ratio(c.server_releases, c.server_answered),
    );
    layers.set(
        "server.coalesced_frac",
        ratio(c.server_coalesced, c.server_answered),
    );
    layers.set("server.refused", c.server_refused as f64);
    layers.set("server.cancelled", c.server_cancelled as f64);
    layers.set("server.shed", c.server_shed as f64);
    layers.set(
        "engine.cache_hit_rate",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    layers.set("store.fsyncs_per_request", per_request(c.store_syncs));
    layers.set(
        "store.records_per_fsync",
        ratio(c.store_records, c.store_syncs),
    );
    layers.set("store.wal_bytes_per_request", per_request(c.wal_bytes));
    layers.set(
        "replica.fsyncs_per_write",
        ratio(c.replica_syncs, c.replica_writes),
    );
    let mut reads = c.follower_read_ns.clone();
    layers.set(
        "replica.follower_read_us",
        if reads.is_empty() {
            0.0
        } else {
            p50_us(&mut reads)
        },
    );
    layers.set("replica.follower_lag_entries", c.follower_lag_max as f64);
    // Share of replica clusters that locked into the slow phase: median
    // latency beyond 1.5× the fastest incarnation's.
    let medians: Vec<f64> = traced
        .incarnations
        .iter()
        .map(|i| {
            let mut l = i.latencies_ns.clone();
            p50_us(&mut l)
        })
        .collect();
    let fastest = medians.iter().copied().fold(f64::INFINITY, f64::min);
    let slow = medians.iter().filter(|m| **m > 1.5 * fastest).count();
    layers.set(
        "replica.slow_phase_frac",
        if c.replica_writes == 0 {
            0.0
        } else {
            slow as f64 / medians.len() as f64
        },
    );
}

/// Runs the ladder and every layer microbenchmark, and folds in the
/// traced workload's counters.
pub fn measure(run: &Run<'_>, traced: &mut Outcome, layers: &mut Layers) {
    workload_counters(traced, layers);
    ladder(run, layers, traced);
    let data = LineData::generate(run.seed, &WIRE);
    codec(&data, layers);
    scheduler(run, &data, layers);
    engine_and_below(run, layers);
    store_and_replay(run, &data, layers);
    catch_up(run, &data, layers, traced);
    obs_overhead(run, &data, layers);
}
