//! The four workloads. Every one is a closed loop (a caller waits for
//! its reply before it adapts the next query) run as several
//! incarnations — a fresh stack and WAL directory each — whose samples
//! are pooled, because a stack keeps the timer phase it started in.

use crate::fixture::{
    budget, cluster_points, cumulative_request, dir_bytes, draw, engine_seed, histogram_request,
    kmeans_request, range_request, Cluster, LineData, RunDir, WireStack, ANALYST, BATCH, BUDGET,
    EPS, POINTS, RANGE_SPAN, WARMUP, WIRE,
};
use crate::spans::{Span, SpanLog, ROOT};
use crate::stats::{clock_factors, clock_probe, median_f64, process_cpu};
use bf_core::QueryClass;
use bf_engine::{Engine, Request, Response, Store};
use bf_net::proto::{WireRequest, WireResponse};
use bf_net::{Client, ClientMessage, ServerMessage, PROTOCOL_VERSION};
use bf_store::frame_bytes;
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = [
    "wire_serial",
    "wire_pipelined",
    "engine_batch",
    "replicated_write",
];

const PIPELINE_THREADS: usize = 2;
const PIPELINE_WINDOW: usize = 32;
const BATCH_RANGES: usize = 64;

/// Threads the load generator runs, per workload.
pub fn generator_threads(workload: &str) -> usize {
    if workload == "wire_pipelined" {
        PIPELINE_THREADS
    } else {
        1
    }
}

/// Fresh stacks per run, per workload. Replica clusters get the most:
/// they are the ones that lock into a fast or a slow phase at start-up.
pub fn incarnations(workload: &str) -> usize {
    match workload {
        "replicated_write" => 16,
        "engine_batch" => 3,
        _ => 4,
    }
}

/// What one run of a workload needs to know.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    pub seed: u64,
    pub dirs: &'a RunDir,
    /// Record spans around every call into the stack.
    pub trace: bool,
    /// The clock spans are recorded on.
    pub epoch: Instant,
}

impl Run<'_> {
    /// A span log for one generator thread, when tracing.
    fn span_log(&self) -> Option<SpanLog> {
        self.trace.then(|| SpanLog::new(self.epoch))
    }
}

/// One incarnation's measurements. A latency is one answered request,
/// submit to answer as the caller saw it. `engine_batch`, the one
/// workload whose time is all CPU, states `setup`, `wall` and
/// `latencies_ns` on the reference clock (see `clock_probe`).
#[derive(Debug, Default)]
pub struct Incarnation {
    /// Wall time outside the measured phase: data generation,
    /// registration, `Store::open`, bind, connect, open session,
    /// warm-up, shutdown.
    pub setup: Duration,
    pub wall: Duration,
    pub cpu: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub latencies_ns: Vec<u64>,
    /// The latencies as this host's clock read them, where
    /// `latencies_ns` is rescaled; empty elsewhere.
    pub raw_latencies_ns: Vec<u64>,
    /// Median host clock factor of the measured phase, where times are
    /// rescaled by it.
    pub clock_factor: Option<f64>,
}

impl Incarnation {
    pub fn answered(&self) -> u64 {
        self.latencies_ns.len() as u64
    }
}

/// Work counted at the layer boundaries during the measured phases,
/// summed over incarnations. A layer the workload bypasses stays 0.
#[derive(Debug, Default)]
pub struct Counters {
    pub frames_in: u64,
    pub frames_out: u64,
    pub protocol_errors: u64,
    pub window_refusals: u64,
    /// Request + reply frame bytes, computed by encoding the workload's
    /// own messages (traced runs only).
    pub wire_bytes: u64,
    pub server_answered: u64,
    pub server_releases: u64,
    pub server_coalesced: u64,
    pub server_refused: u64,
    pub server_cancelled: u64,
    pub server_shed: u64,
    pub store_syncs: u64,
    pub store_records: u64,
    pub wal_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub replica_writes: u64,
    pub replica_syncs: u64,
    pub follower_read_ns: Vec<u64>,
    pub follower_lag_max: u64,
}

/// Running sums over checked answers.
#[derive(Debug, Default)]
pub struct Answers {
    /// Σ |answer − true range count| and how many range answers.
    pub range_abs_err: f64,
    pub ranges: u64,
    /// Σ |released cell − true cell| over histogram answers.
    pub cell_abs_noise: f64,
    pub cells: u64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub incarnations: Vec<Incarnation>,
    pub counters: Counters,
    pub answers: Answers,
    /// Correctness-gate failures; empty means the gate passed.
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        // The first few say what broke; a broken run would otherwise
        // hold one line per request.
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}

/// What a request asked, kept beside it until its answer arrives.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Range(usize),
    Histogram,
    Cumulative,
    KMeans,
}

impl Kind {
    fn request(self) -> Request {
        match self {
            Kind::Range(lo) => range_request(lo),
            Kind::Histogram => histogram_request(),
            Kind::Cumulative => cumulative_request(),
            Kind::KMeans => kmeans_request(),
        }
    }
}

/// One generator thread's tallies. Every answer is checked against the
/// truth the benchmark computes from the dataset itself.
struct Tally<'a> {
    data: &'a LineData,
    answers: Answers,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    wire_bytes: u64,
    spans: Option<SpanLog>,
}

impl<'a> Tally<'a> {
    /// A tally that records spans into `spans`, if given.
    fn new(data: &'a LineData, spans: Option<SpanLog>) -> Self {
        Tally {
            data,
            answers: Answers::default(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            latencies_ns: Vec::new(),
            wire_bytes: 0,
            spans,
        }
    }

    fn error(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    fn now_ns(&self) -> u64 {
        self.spans.as_ref().map_or(0, SpanLog::now_ns)
    }

    fn check(&mut self, kind: Kind, response: &Response) {
        let size = self.data.size();
        match (kind, response) {
            (Kind::Range(lo), Response::Scalar(v)) if v.is_finite() => {
                let truth = self.data.true_range(lo, lo + RANGE_SPAN);
                self.answers.range_abs_err += (v - truth).abs();
                self.answers.ranges += 1;
            }
            (Kind::Histogram, Response::Histogram(cells)) if cells.len() == size => {
                self.answers.cell_abs_noise += cells
                    .iter()
                    .enumerate()
                    .map(|(x, v)| (v - self.data.true_count(x)).abs())
                    .sum::<f64>();
                self.answers.cells += size as u64;
            }
            (Kind::Cumulative, Response::Prefixes(p)) if p.len() == size => {
                // The last prefix is the record count plus noise of
                // scale θ/ε; 40 scales out is e⁻⁴⁰.
                let scale = QueryClass::CumulativeHistogram.sensitivity(&self.data.policy) / EPS;
                let off = (p[size - 1] - self.data.true_prefix(size - 1)).abs();
                if off.is_nan() || off > 40.0 * scale {
                    self.failures.push(format!("cumulative total off by {off}"));
                }
            }
            (Kind::KMeans, Response::Centroids(c))
                if c.len() == 4
                    && c.iter()
                        .all(|p| p.len() == 4 && p.iter().all(|x| x.is_finite())) => {}
            (kind, other) => {
                let shape = match other {
                    Response::Scalar(v) => format!("scalar {v}"),
                    Response::Histogram(v) => format!("histogram of {}", v.len()),
                    Response::Prefixes(v) => format!("prefixes of {}", v.len()),
                    Response::Centroids(v) => format!("{} centroids", v.len()),
                };
                self.failures
                    .push(format!("{kind:?} answered with {shape}"));
            }
        }
    }

    /// Folds this thread's tallies into the run's.
    fn merge_into(self, inc: &mut Incarnation, out: &mut Outcome) {
        inc.attempted += self.attempted;
        inc.failed += self.failed;
        inc.latencies_ns.extend(self.latencies_ns);
        out.answers.range_abs_err += self.answers.range_abs_err;
        out.answers.ranges += self.answers.ranges;
        out.answers.cell_abs_noise += self.answers.cell_abs_noise;
        out.answers.cells += self.answers.cells;
        out.counters.wire_bytes += self.wire_bytes;
        for f in self.failures {
            out.fail(f);
        }
        if let Some(log) = self.spans {
            crate::spans::append(&mut out.spans, log.spans);
        }
    }
}

/// The `Submit` and `Answer` messages of one exchange, as the client
/// and server put them on the wire.
pub fn exchange_messages(
    analyst: &str,
    request: &Request,
    response: &Response,
) -> (ClientMessage, ServerMessage) {
    let submit = ClientMessage::Submit {
        id: 0,
        analyst: analyst.to_owned(),
        request: WireRequest::from_request(request),
        request_id: None,
        deadline_micros: None,
        trace_id: None,
        token: Some(0),
    };
    let answer = ServerMessage::Answer {
        id: 0,
        response: WireResponse::from_response(response),
        trace_id: None,
    };
    (submit, answer)
}

/// Bytes of the request and reply frames of one exchange at the current
/// protocol version.
fn exchange_bytes(analyst: &str, request: &Request, response: &Response) -> u64 {
    let (submit, answer) = exchange_messages(analyst, request, response);
    (frame_bytes(&submit.encode_for(PROTOCOL_VERSION)).len()
        + frame_bytes(&answer.encode_for(PROTOCOL_VERSION)).len()) as u64
}

/// A submitted request awaiting its answer.
struct InFlight {
    /// Correlation id on the connection.
    id: u64,
    /// Position in the request stream.
    index: u64,
    kind: Kind,
    sent: Instant,
    /// Start and end of the `submit` call on the span clock.
    submit_ns: (u64, u64),
}

/// Keeps `window` requests in flight on one connection while `more(i)`
/// admits request `i`, then drains. `window == 1` is the serial analyst
/// (`Client::call` is exactly submit-then-wait).
fn drive(
    client: &mut Client,
    analyst: &str,
    window: usize,
    mut more: impl FnMut(u64) -> bool,
    mut kinds: impl FnMut(u64) -> Kind,
    tally: &mut Tally<'_>,
) {
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0u64;
    loop {
        while outstanding.len() < window && more(next) {
            let kind = kinds(next);
            let request = kind.request();
            let start_ns = tally.now_ns();
            let sent = Instant::now();
            tally.attempted += 1;
            match client.submit(analyst, &request) {
                Ok(id) => outstanding.push_back(InFlight {
                    id,
                    index: next,
                    kind,
                    sent,
                    submit_ns: (start_ns, tally.now_ns()),
                }),
                Err(e) => tally.error(format!("submit: {e}")),
            }
            next += 1;
        }
        let Some(InFlight {
            id,
            index,
            kind,
            sent,
            submit_ns: submit,
        }) = outstanding.pop_front()
        else {
            return;
        };
        let wait_ns = tally.now_ns();
        match client.wait(id) {
            Ok(response) => {
                tally.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                if let Some(log) = &mut tally.spans {
                    // The request is the root span; the two calls that
                    // bracket it are its children.
                    let end = log.now_ns();
                    let root = log.push("request", index, 0, submit.0, end, ROOT);
                    log.push("client.submit", index, 1, submit.0, submit.1, root);
                    log.push("client.wait", index, 1, wait_ns, end, root);
                    tally.wire_bytes += exchange_bytes(analyst, &kind.request(), &response);
                }
                tally.check(kind, &response);
            }
            Err(e) => tally.error(format!("wait: {e}")),
        }
    }
}

/// Requests per second one connection sustains with the pipelined
/// window full of range queries for `duration`.
pub fn window_rps(
    client: &mut Client,
    analyst: &str,
    data: &LineData,
    seed: u64,
    stream: u64,
    duration: Duration,
) -> f64 {
    let start = Instant::now();
    let mut tally = Tally::new(data, None);
    let deadline = start + duration;
    drive(
        client,
        analyst,
        PIPELINE_WINDOW,
        |_| Instant::now() < deadline,
        |i| Kind::Range(data.range(seed, stream, i).0),
        &mut tally,
    );
    assert!(tally.failures.is_empty(), "{:?}", tally.failures);
    tally.latencies_ns.len() as f64 / start.elapsed().as_secs_f64()
}

/// Per analyst: the ledger the client reads over the wire, the engine's
/// own, and `served × ε` agree bit for bit. Returns what was
/// acknowledged.
fn check_ledger(
    out: &mut Outcome,
    client: &mut Client,
    engine: &Engine,
    analyst: &str,
) -> Option<(String, u64, f64)> {
    let wire = match client.budget(analyst) {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("{analyst}: budget read: {e}"));
            return None;
        }
    };
    let own = engine
        .session_snapshot(analyst)
        .expect("session exists after serving");
    let expected = wire.served as f64 * EPS;
    if wire.spent.to_bits() != own.spent().to_bits() || wire.spent.to_bits() != expected.to_bits() {
        out.fail(format!(
            "{analyst}: ledgers disagree: wire {} engine {} served×ε {expected}",
            wire.spent,
            own.spent()
        ));
    }
    Some((analyst.to_owned(), wire.served, wire.spent))
}

/// Durability: what was acknowledged is what a fresh `Store::open` of
/// the same directory recovers.
fn check_recovery(out: &mut Outcome, dir: &Path, acked: &[(String, u64, f64)]) {
    let store = match Store::open(dir) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("reopen {}: {e}", dir.display()));
            return;
        }
    };
    for (analyst, served, spent) in acked {
        match store.recovered_state().sessions.get(analyst) {
            Some(s) if s.served == *served && s.spent.to_bits() == spent.to_bits() => {}
            other => out.fail(format!(
                "{analyst}: acknowledged served {served} spent {spent}, recovered {other:?}"
            )),
        }
    }
}

fn wire_incarnation(pipelined: bool, index: u64, seconds: f64, run: &Run<'_>, out: &mut Outcome) {
    let began = Instant::now();
    // Per-incarnation seed: fresh requests and fresh noise, so pooled
    // answers are independent samples.
    let seed = draw(run.seed, 0x1C, index);
    let data = LineData::generate(run.seed, &WIRE);
    let stack = WireStack::start(&data, seed, run.dirs.fresh("wire"));
    let threads = if pipelined { PIPELINE_THREADS } else { 1 };
    let window = if pipelined { PIPELINE_WINDOW } else { 1 };
    let analysts: Vec<String> = (0..threads).map(|t| format!("analyst-{t}")).collect();
    let mut clients: Vec<Client> = analysts.iter().map(|a| stack.client(a)).collect();
    // Request `i` of stream `t` is a pure function of (seed, t, i):
    // all ranges when serial, 80/10/10 range/histogram/cumulative when
    // pipelined.
    let kinds = |t: u64| {
        let data = &data;
        move |i: u64| match (pipelined, draw(seed, 0x31 ^ t, i) % 10) {
            (true, 0) => Kind::Histogram,
            (true, 1) => Kind::Cumulative,
            _ => Kind::Range(data.range(seed, t, i).0),
        }
    };
    let mut inc = Incarnation::default();
    for (t, client) in clients.iter_mut().enumerate() {
        let mut warm = Tally::new(&data, None);
        let stream = 1_000 + t as u64;
        drive(
            client,
            &analysts[t],
            1,
            |i| i < WARMUP,
            kinds(stream),
            &mut warm,
        );
        for f in warm.failures {
            out.fail(format!("warm-up: {f}"));
        }
    }

    let net0 = stack.net.stats();
    let server0 = stack.net.server().stats();
    let store0 = stack.store.stats();
    let cache0 = stack.engine.cache_stats();
    let bytes0 = dir_bytes(&stack.dir);
    let setup = began.elapsed();
    let cpu0 = process_cpu();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&analysts)
            .enumerate()
            .map(|(t, (client, analyst))| {
                let mut tally = Tally::new(&data, run.span_log());
                let kinds = kinds(t as u64);
                scope.spawn(move || {
                    drive(
                        client,
                        analyst,
                        window,
                        |_| Instant::now() < deadline,
                        kinds,
                        &mut tally,
                    );
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    inc.wall = start.elapsed();
    inc.cpu = process_cpu() - cpu0;

    let tearing = Instant::now();
    let net1 = stack.net.stats();
    let server1 = stack.net.server().stats();
    let store1 = stack.store.stats();
    let cache1 = stack.engine.cache_stats();
    let c = &mut out.counters;
    c.frames_in += net1.frames_in - net0.frames_in;
    c.frames_out += net1.frames_out - net0.frames_out;
    c.protocol_errors += net1.protocol_errors - net0.protocol_errors;
    c.window_refusals += net1.window_refusals - net0.window_refusals;
    c.server_answered += server1.answered - server0.answered;
    c.server_releases += server1.releases - server0.releases;
    c.server_coalesced += server1.coalesced_answers - server0.coalesced_answers;
    c.server_refused +=
        (server1.refused_queue_full + server1.refused_admission + server1.deadline_refusals)
            - (server0.refused_queue_full + server0.refused_admission + server0.deadline_refusals);
    c.server_cancelled += server1.cancelled - server0.cancelled;
    c.server_shed += server1.shed_requests - server0.shed_requests;
    c.store_syncs += store1.syncs - store0.syncs;
    c.store_records += store1.appended_records - store0.appended_records;
    c.wal_bytes += dir_bytes(&stack.dir) - bytes0;
    c.cache_hits += cache1.hits - cache0.hits;
    c.cache_misses += cache1.misses - cache0.misses;

    let mut acked = Vec::new();
    for (client, analyst) in clients.iter_mut().zip(&analysts) {
        acked.extend(check_ledger(out, client, &stack.engine, analyst));
    }
    for client in clients {
        if let Err(e) = client.goodbye() {
            out.fail(format!("goodbye: {e}"));
        }
    }
    let WireStack {
        store,
        engine,
        net,
        dir,
    } = stack;
    if let Err(e) = net.shutdown() {
        out.fail(format!("shutdown: {e}"));
    }
    // The directory lock frees with the last handle on the store.
    drop(engine);
    drop(store);
    inc.setup = setup + tearing.elapsed();
    check_recovery(out, &dir, &acked);

    for tally in tallies {
        tally.merge_into(&mut inc, out);
    }
    out.incarnations.push(inc);
}

fn engine_incarnation(index: u64, seconds: f64, run: &Run<'_>, out: &mut Outcome) {
    let began = Instant::now();
    let seed = draw(run.seed, 0x2E, index);
    let data = LineData::generate(run.seed, &BATCH);
    let engine = Engine::with_seed(engine_seed(seed));
    data.register(&engine);
    engine
        .register_points(POINTS, cluster_points(run.seed))
        .expect("register points");
    let analyst = ANALYST;
    engine
        .open_session(analyst, budget())
        .expect("open session");

    let mut tally = Tally::new(&data, run.span_log());
    // One round: the three whole-domain releases one at a time, then 64
    // ranges as one batch (one Ordered release answers them all).
    let round = |n: u64, tally: &mut Tally<'_>| {
        if n.is_multiple_of(8) {
            // One round in eight pays the cold sensitivity path.
            engine.clear_sensitivity_cache();
        }
        let round_ns = tally.now_ns();
        let mut children: Vec<(&'static str, u64, u64)> = Vec::new();
        for (name, kind) in [
            ("engine.serve.histogram", Kind::Histogram),
            ("engine.serve.cumulative", Kind::Cumulative),
            ("engine.serve.kmeans", Kind::KMeans),
        ] {
            let request = kind.request();
            let start_ns = tally.now_ns();
            let sent = Instant::now();
            tally.attempted += 1;
            match engine.serve(analyst, &request) {
                Ok(response) => {
                    tally.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                    children.push((name, start_ns, tally.now_ns()));
                    tally.check(kind, &response);
                }
                Err(e) => tally.error(format!("serve: {e}")),
            }
        }
        let los: Vec<usize> = (0..BATCH_RANGES as u64)
            .map(|j| data.range(seed, 0, n * BATCH_RANGES as u64 + j).0)
            .collect();
        let requests: Vec<Request> = los.iter().map(|&lo| range_request(lo)).collect();
        let start_ns = tally.now_ns();
        let sent = Instant::now();
        tally.attempted += BATCH_RANGES as u64;
        let slots = engine.serve_batch(analyst, &requests);
        let took = sent.elapsed().as_nanos() as u64;
        children.push(("engine.serve_batch", start_ns, tally.now_ns()));
        for (lo, slot) in los.into_iter().zip(slots) {
            match slot {
                Ok(response) => {
                    // Each of the 64 callers waited for the whole batch.
                    tally.latencies_ns.push(took);
                    tally.check(Kind::Range(lo), &response);
                }
                Err(e) => tally.error(format!("serve_batch: {e}")),
            }
        }
        if let Some(log) = &mut tally.spans {
            let end = log.now_ns();
            let root = log.push("round", n, 0, round_ns, end, ROOT);
            for (name, s, e) in children {
                log.push(name, n, 1, s, e, root);
            }
        }
    };

    let mut warm = Tally::new(&data, None);
    round(u64::MAX / 128, &mut warm);
    for f in warm.failures {
        out.fail(format!("warm-up: {f}"));
    }
    let cache0 = engine.cache_stats();
    let mut inc = Incarnation {
        setup: began.elapsed(),
        ..Incarnation::default()
    };
    let cpu0 = process_cpu();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Per round: where its latencies end, its wall time, and the clock
    // probe timed right after it (outside every measured time).
    let mut marks: Vec<(usize, u64)> = Vec::new();
    let mut probes_ns: Vec<u64> = Vec::new();
    let mut probe_state = seed;
    let mut rounds = 0u64;
    loop {
        let round_began = Instant::now();
        round(rounds, &mut tally);
        marks.push((
            tally.latencies_ns.len(),
            round_began.elapsed().as_nanos() as u64,
        ));
        probes_ns.push(clock_probe(&mut probe_state));
        rounds += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let probing = Duration::from_nanos(probes_ns.iter().sum());
    inc.cpu = (process_cpu() - cpu0).saturating_sub(probing);

    // Everything here is CPU time, which the host's clock multiplies:
    // each round is restated on the reference clock by the factor
    // measured beside it, set-up by the factor of the first window.
    let factors = clock_factors(&probes_ns);
    inc.raw_latencies_ns = tally.latencies_ns.clone();
    let (mut from, mut wall_ns) = (0, 0.0);
    for (&(until, round_ns), factor) in marks.iter().zip(&factors) {
        for ns in &mut tally.latencies_ns[from..until] {
            *ns = (*ns as f64 / factor).round() as u64;
        }
        wall_ns += round_ns as f64 / factor;
        from = until;
    }
    inc.wall = Duration::from_secs_f64(wall_ns / 1e9);
    inc.clock_factor = Some(median_f64(&factors));
    let setup_factor = factors[0];

    let cache1 = engine.cache_stats();
    out.counters.cache_hits += cache1.hits - cache0.hits;
    out.counters.cache_misses += cache1.misses - cache0.misses;
    // Four charges a round (the batch's one Ordered release is charged
    // once), warm-up round included.
    let snap = engine
        .session_snapshot(analyst)
        .expect("session exists after serving");
    let expected = snap.served() as f64 * EPS;
    if snap.served() != 4 * (rounds + 1) || snap.spent().to_bits() != expected.to_bits() {
        out.fail(format!(
            "{analyst}: {rounds} rounds, served {} spent {} (served×ε {expected})",
            snap.served(),
            snap.spent()
        ));
    }
    let tearing = Instant::now();
    drop(engine);
    inc.setup = (inc.setup + tearing.elapsed()).div_f64(setup_factor);
    tally.merge_into(&mut inc, out);
    out.incarnations.push(inc);
}

/// How long a follower may take to apply what the leader acknowledged
/// before the replicas count as diverged.
const CATCH_UP: Duration = Duration::from_secs(5);

/// Waits (at most [`CATCH_UP`]) until both followers have applied
/// everything in the leader's log.
fn await_followers(cluster: &Cluster) {
    let head = cluster.leader.status().log_index;
    let waited = Instant::now();
    while cluster.followers.iter().any(|f| f.status().applied < head) && waited.elapsed() < CATCH_UP
    {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn replicated_incarnation(index: u64, seconds: f64, run: &Run<'_>, out: &mut Outcome) {
    let began = Instant::now();
    let seed = draw(run.seed, 0x3A, index);
    let data = LineData::generate(run.seed, &WIRE);
    let cluster = Cluster::start(&data, seed, run.dirs);
    let analyst = ANALYST;
    let mut writer = Client::connect(cluster.leader.client_addr()).expect("connect leader");
    writer.open_session(analyst, BUDGET).expect("open session");
    // A follower can answer for the analyst only once it has applied the
    // session's opening entry; quorum 2 lets one of them trail.
    await_followers(&cluster);
    let mut reader = Client::connect(cluster.followers[0].client_addr()).expect("connect follower");

    let mut tally = Tally::new(&data, run.span_log());
    // Acknowledged writes a later op may re-submit: (request id, lo,
    // answer bytes).
    let mut acked: VecDeque<(u64, usize, Vec<u8>)> = VecDeque::new();
    let mut writes = 0u64;
    let mut reads_ns: Vec<u64> = Vec::new();
    let mut lag_max = 0u64;
    // One op: a tagged write; every 4th also reads the budget on a
    // follower; every 16th also re-submits an acknowledged request id,
    // which must replay the same bytes and charge nothing.
    let mut op = |n: u64, tally: &mut Tally<'_>, measured: bool| {
        let op_ns = tally.now_ns();
        let mut children: Vec<(&'static str, u64, u64)> = Vec::new();
        let (lo, request) = data.range(seed, if measured { 0 } else { 1_000 }, n);
        let rid = if measured { n + 1 } else { (1 << 40) + n };
        let start_ns = tally.now_ns();
        let sent = Instant::now();
        tally.attempted += 1;
        match writer
            .submit_tagged(analyst, &request, Some(rid), None)
            .and_then(|id| writer.wait(id))
        {
            Ok(response) => {
                tally.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                children.push(("replica.write", start_ns, tally.now_ns()));
                if tally.spans.is_some() {
                    tally.wire_bytes += exchange_bytes(analyst, &request, &response);
                }
                tally.check(Kind::Range(lo), &response);
                writes += 1;
                acked.push_back((rid, lo, response.to_bytes()));
                if acked.len() > 16 {
                    acked.pop_front();
                }
            }
            Err(e) => tally.error(format!("write: {e}")),
        }
        if n % 4 == 3 {
            let start_ns = tally.now_ns();
            let sent = Instant::now();
            tally.attempted += 1;
            match reader.budget(analyst) {
                Ok(b) if b.spent <= writes as f64 * EPS => {
                    let took = sent.elapsed().as_nanos() as u64;
                    tally.latencies_ns.push(took);
                    children.push(("replica.follower_read", start_ns, tally.now_ns()));
                    if measured {
                        reads_ns.push(took);
                    }
                }
                Ok(b) => tally.error(format!(
                    "follower reports {} spent, ahead of the leader",
                    b.spent
                )),
                Err(e) => tally.error(format!("follower read: {e}")),
            }
        }
        if n % 16 == 15 {
            let (rid, lo, bytes) = acked.front().cloned().expect("an acknowledged write");
            let start_ns = tally.now_ns();
            let sent = Instant::now();
            tally.attempted += 1;
            match writer
                .submit_tagged(analyst, &range_request(lo), Some(rid), None)
                .and_then(|id| writer.wait(id))
            {
                Ok(response) if response.to_bytes() == bytes => {
                    tally.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                    children.push(("replica.replay", start_ns, tally.now_ns()));
                }
                Ok(_) => tally.error(format!("request id {rid} replayed different bytes")),
                Err(e) => tally.error(format!("replay: {e}")),
            }
        }
        if n % 64 == 63 {
            let head = cluster.leader.status().log_index;
            for f in &cluster.followers {
                lag_max = lag_max.max(head.saturating_sub(f.status().applied));
            }
        }
        if let Some(log) = &mut tally.spans {
            let end = log.now_ns();
            let root = log.push("op", n, 0, op_ns, end, ROOT);
            for (name, s, e) in children {
                log.push(name, n, 1, s, e, root);
            }
        }
    };

    let mut warm = Tally::new(&data, None);
    for n in 0..WARMUP {
        op(n, &mut warm, false);
    }
    for f in warm.failures {
        out.fail(format!("warm-up: {f}"));
    }
    let syncs0 = cluster.syncs();
    let leader_store = cluster
        .leader
        .engine()
        .store()
        .expect("replicas are store-backed");
    let (store0, bytes0) = (leader_store.stats(), dir_bytes(leader_store.dir()));
    // A replica keeps its `NetServer` to itself; the same counters are
    // on the engine's registry under their `bf-obs` names.
    let leader_frames = || {
        let obs = cluster.leader.engine().obs();
        [
            "net_frames_in_total",
            "net_frames_out_total",
            "net_protocol_errors_total",
            "net_window_refusals_total",
        ]
        .map(|name| obs.counter(name).get())
    };
    let frames0 = leader_frames();
    let mut inc = Incarnation {
        setup: began.elapsed(),
        ..Incarnation::default()
    };
    let cpu0 = process_cpu();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut n = 0u64;
    while Instant::now() < deadline {
        op(n, &mut tally, true);
        n += 1;
    }
    inc.wall = start.elapsed();
    inc.cpu = process_cpu() - cpu0;

    let tearing = Instant::now();
    let measured_writes = writes - WARMUP;
    out.counters.replica_writes += measured_writes;
    out.counters.replica_syncs += cluster.syncs() - syncs0;
    // The net and store counters are the leader's: what one node pays.
    let frames1 = leader_frames();
    out.counters.frames_in += frames1[0] - frames0[0];
    out.counters.frames_out += frames1[1] - frames0[1];
    out.counters.protocol_errors += frames1[2] - frames0[2];
    out.counters.window_refusals += frames1[3] - frames0[3];
    let store1 = leader_store.stats();
    out.counters.store_syncs += store1.syncs - store0.syncs;
    out.counters.store_records += store1.appended_records - store0.appended_records;
    out.counters.wal_bytes += dir_bytes(leader_store.dir()) - bytes0;
    out.counters.follower_read_ns.extend(reads_ns);
    out.counters.follower_lag_max = out.counters.follower_lag_max.max(lag_max);
    // Replays charged nothing: the leader's ledger is exactly one ε per
    // distinct write, over the wire and in the engine.
    if let Some((_, served, _)) = check_ledger(out, &mut writer, cluster.leader.engine(), analyst) {
        if served != writes {
            out.fail(format!("{writes} writes acknowledged, {served} charged"));
        }
    }
    // The three replicas end byte-identical.
    await_followers(&cluster);
    let digests: Vec<(u64, u64)> = cluster
        .replicas()
        .iter()
        .map(|r| {
            let digest = r
                .engine()
                .store()
                .expect("replicas are store-backed")
                .current_state()
                .digest();
            (r.status().applied, digest)
        })
        .collect();
    if digests.iter().any(|d| *d != digests[0]) {
        out.fail(format!(
            "replicas diverged: (applied, digest) = {digests:?}"
        ));
    }
    for client in [writer, reader] {
        if let Err(e) = client.goodbye() {
            out.fail(format!("goodbye: {e}"));
        }
    }
    cluster.shutdown();
    inc.setup += tearing.elapsed();
    tally.merge_into(&mut inc, out);
    out.incarnations.push(inc);
}

/// The statistical half of the gate: the noise the answers carry is
/// the noise the policy's sensitivity calls for.
fn check_noise(workload: &str, out: &mut Outcome) {
    let policy = if workload == "engine_batch" {
        BATCH.policy()
    } else {
        WIRE.policy()
    };
    // Theorem 5.1: a histogram cell carries Laplace noise of scale
    // S(h, P)/ε, whose mean magnitude is that scale.
    if out.answers.cells >= 100_000 {
        let expected = QueryClass::Histogram.sensitivity(&policy) / EPS;
        let realised = out.answers.cell_abs_noise / out.answers.cells as f64;
        if (realised / expected - 1.0).abs() > 0.05 {
            out.fail(format!(
                "mean |noise| per histogram cell {realised}, Theorem 5.1 expects {expected}"
            ));
        }
    }
    // A serial range is one Laplace count at the range's own
    // sensitivity; five standard errors of the mean magnitude.
    let serial = matches!(workload, "wire_serial" | "replicated_write");
    if serial && out.answers.ranges >= 100 {
        let class = QueryClass::Range {
            lo: 0,
            hi: RANGE_SPAN,
        };
        let expected = class.sensitivity(&policy) / EPS;
        let realised = out.answers.range_abs_err / out.answers.ranges as f64;
        let tolerance = 5.0 / (out.answers.ranges as f64).sqrt();
        if (realised / expected - 1.0).abs() > tolerance {
            out.fail(format!(
                "mean range error {realised} over {} answers, expected {expected}",
                out.answers.ranges
            ));
        }
    }
}

/// Runs `workload` for `seconds` of measured time, split evenly over
/// its incarnations, and applies the correctness gate.
pub fn run(workload: &str, seconds: f64, run: &Run<'_>) -> Outcome {
    let mut out = Outcome::default();
    let n = incarnations(workload);
    let each = seconds / n as f64;
    for index in 0..n as u64 {
        match workload {
            "wire_serial" => wire_incarnation(false, index, each, run, &mut out),
            "wire_pipelined" => wire_incarnation(true, index, each, run, &mut out),
            "engine_batch" => engine_incarnation(index, each, run, &mut out),
            "replicated_write" => replicated_incarnation(index, each, run, &mut out),
            other => panic!("unknown workload {other}"),
        }
    }
    check_noise(workload, &mut out);
    let failed: u64 = out.incarnations.iter().map(|i| i.failed).sum();
    if failed > 0 {
        out.fail(format!(
            "{failed} requests failed, were refused or stayed unanswered"
        ));
    }
    out
}
