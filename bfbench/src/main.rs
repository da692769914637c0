//! `bfbench` — one harness for the blowfish serving stack: four
//! closed-loop workloads measured end to end with tracing off, and a
//! separate traced run that attributes a request's time layer by layer.
//! `README.md` beside this crate is the glossary.

mod fixture;
mod layers;
mod spans;
mod stats;
mod workloads;

use fixture::RunDir;
use stats::{
    host_ticks, incarnation_spread, median_f64, percentile, pooled_rps, steal_frac, tail_quantile,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Outcome, Run};

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// The end-to-end metrics, the same on every workload, measured with
/// tracing off. `failed` of the result line is the fifth: no request
/// may fail, be refused, time out or stay unanswered.
pub const END_TO_END: [Metric; 4] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("range_abs_error", "count"),
];

/// The per-layer metrics of the traced run; the layer is the crate name
/// without `bf-`. README.md says what each times or counts and which
/// end-to-end metric it should move.
pub const PER_LAYER: [Metric; 78] = [
    ("ladder.engine_self_us", "us"),
    ("ladder.store_self_us", "us"),
    ("ladder.server_self_us", "us"),
    ("ladder.driver_wait_us", "us"),
    ("ladder.net_self_us", "us"),
    ("ladder.replica_self_us", "us"),
    ("net.encode_ns_per_frame.scalar", "ns"),
    ("net.encode_ns_per_frame.vector", "ns"),
    ("net.decode_ns_per_frame.scalar", "ns"),
    ("net.decode_ns_per_frame.vector", "ns"),
    ("net.bytes_per_request", "bytes"),
    ("net.rtt_us", "us"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.protocol_errors", "count"),
    ("net.window_refusals", "count"),
    ("server.submit_ns", "ns"),
    ("server.tick_us", "us"),
    ("server.ticks_per_request", "count"),
    ("server.queue_wait_us", "us"),
    ("server.releases_per_request", "ratio"),
    ("server.coalesced_frac", "ratio"),
    ("server.refused", "count"),
    ("server.cancelled", "count"),
    ("server.shed", "count"),
    ("engine.serve_us.range", "us"),
    ("engine.serve_us.histogram", "us"),
    ("engine.serve_us.cumulative", "us"),
    ("engine.serve_us.kmeans", "us"),
    ("engine.serve_us.range_batch64", "us"),
    ("engine.cold_serve_us", "us"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.replay_ns", "ns"),
    ("mechanisms.histogram_ns_per_cell", "ns"),
    ("mechanisms.ordered_ns_per_cell", "ns"),
    ("mechanisms.isotonic_ns_per_cell", "ns"),
    ("mechanisms.hierarchical_ns_per_cell", "ns"),
    ("mechanisms.ordered_hierarchical_ns_per_cell", "ns"),
    ("mechanisms.kmeans_us_per_iteration", "us"),
    ("core.sensitivity_us.histogram", "us"),
    ("core.sensitivity_us.cumulative", "us"),
    ("core.sensitivity_us.range", "us"),
    ("core.laplace_ns_per_sample", "ns"),
    ("graph.edge_scan_ns_per_edge", "ns"),
    ("constraints.policy_graph_build_ms", "ms"),
    ("store.commit_us", "us"),
    ("store.raw_fsync_us", "us"),
    ("store.commit_over_raw", "ratio"),
    ("store.fsyncs_per_request", "ratio"),
    ("store.records_per_fsync", "ratio"),
    ("store.wal_bytes_per_request", "bytes"),
    ("store.recover_us_per_record", "us"),
    ("store.compact_ms", "ms"),
    ("replica.slow_phase_frac", "ratio"),
    ("replica.follower_read_us", "us"),
    ("replica.follower_lag_entries", "count"),
    ("replica.fsyncs_per_write", "ratio"),
    ("replica.catchup_ms", "ms"),
    ("obs.scrape_ms", "ms"),
    ("obs.stage_ns.decode", "ns"),
    ("obs.stage_ns.queue", "ns"),
    ("obs.stage_ns.schedule", "ns"),
    ("obs.stage_ns.coalesce", "ns"),
    ("obs.stage_ns.wal_commit", "ns"),
    ("obs.stage_ns.release", "ns"),
    ("obs.stage_ns.reply", "ns"),
    ("obs.unattributed_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("workload.latency_p50_us", "us"),
    ("workload.latency_tail_us", "us"),
    ("workload.latency_tail_quantile", "ratio"),
    ("workload.cpu_us_per_request", "us"),
    ("workload.incarnation_spread", "ratio"),
    ("workload.root_self_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("host.steal_frac", "ratio"),
    ("host.nproc", "count"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The pooled view of a workload's incarnations.
struct Pooled {
    runs: Vec<(u64, Duration)>,
    /// Every answered request's latency, ascending.
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    cpu: Duration,
}

impl Pooled {
    fn of(out: &Outcome) -> Pooled {
        let mut latencies_ns: Vec<u64> = out
            .incarnations
            .iter()
            .flat_map(|i| i.latencies_ns.iter().copied())
            .collect();
        latencies_ns.sort_unstable();
        Pooled {
            runs: out
                .incarnations
                .iter()
                .map(|i| (i.answered(), i.wall))
                .collect(),
            latencies_ns,
            attempted: out.incarnations.iter().map(|i| i.attempted).sum(),
            failed: out.incarnations.iter().map(|i| i.failed).sum(),
            cpu: out.incarnations.iter().map(|i| i.cpu).sum(),
        }
    }

    fn p50_us(&self) -> f64 {
        percentile(&self.latencies_ns, 0.5) as f64 / 1e3
    }

    /// Process CPU spent in the measured phases per answered request.
    fn cpu_us_per_request(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.latencies_ns.len() as f64
    }

    /// The highest percentile with at least ten samples beyond it.
    fn tail(&self) -> (f64, f64) {
        let q = tail_quantile(self.latencies_ns.len()).unwrap_or(0.5);
        (q, percentile(&self.latencies_ns, q) as f64 / 1e3)
    }
}

/// One workload's end-to-end numbers from its pooled incarnations.
fn end_to_end(out: &Outcome, pooled: &Pooled) -> Vec<(Metric, f64)> {
    let setups: Vec<f64> = out
        .incarnations
        .iter()
        .map(|i| i.setup.as_secs_f64())
        .collect();
    let values = [
        median_f64(&setups),
        pooled_rps(&pooled.runs),
        pooled.p50_us(),
        out.answers.range_abs_err / out.answers.ranges as f64,
    ];
    END_TO_END.into_iter().zip(values).collect()
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Metric, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, ((name, unit), value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    line.push_str("}}");
    line
}

/// Runs one workload and prints its report; the JSON result is the last
/// line. Returns whether the correctness gate passed.
fn run_workload(name: &str, args: &Args, dirs: &RunDir) -> bool {
    let run = Run {
        seed: args.seed,
        dirs,
        trace: false,
        epoch: Instant::now(),
    };
    println!(
        "workload {name}: seed {} seconds {} trace {} nproc {} generator_threads {} wal_fs disk",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        workloads::generator_threads(name),
    );
    let ticks0 = host_ticks();
    let (out, layer_metrics) = if args.trace {
        let (out, metrics) = traced_run(name, args.seconds, &run, ticks0);
        (out, Some(metrics))
    } else {
        (workloads::run(name, args.seconds, &run), None)
    };
    let steal = steal_frac(ticks0, host_ticks());
    let pooled = Pooled::of(&out);
    let metrics = layer_metrics.unwrap_or_else(|| end_to_end(&out, &pooled));

    println!(
        "  incarnations {} incarnation_spread {:.3} steal_frac {:.4} disturbed {}",
        pooled.runs.len(),
        incarnation_spread(&pooled.runs),
        steal,
        steal > 0.05
    );
    let rates: Vec<String> = pooled
        .runs
        .iter()
        .map(|(n, wall)| format!("{:.1}", *n as f64 / wall.as_secs_f64()))
        .collect();
    println!("  incarnation_rps {}", rates.join(" "));
    for ((metric, unit), value) in &metrics {
        println!("  {metric:<44} {value:>14.4} {unit}");
    }
    let (q, tail_us) = pooled.tail();
    println!(
        "  not bounded: latency p{} {tail_us:.1} us over {} samples, cpu_us_per_request {:.1}",
        q * 100.0,
        pooled.latencies_ns.len(),
        pooled.cpu_us_per_request()
    );
    let factors: Vec<f64> = out
        .incarnations
        .iter()
        .filter_map(|i| i.clock_factor)
        .collect();
    if !factors.is_empty() {
        let mut raw: Vec<u64> = out
            .incarnations
            .iter()
            .flat_map(|i| i.raw_latencies_ns.iter().copied())
            .collect();
        raw.sort_unstable();
        println!(
            "  reference clock: this workload's set-up, round times and latencies are divided by \
             host_clock_factor {:.4} (clock probe {:.1} us, reference {:.1} us); latency p50 as \
             this host's clock read it {:.1} us",
            median_f64(&factors),
            median_f64(&factors) * stats::CLOCK_REF_NS / 1e3,
            stats::CLOCK_REF_NS / 1e3,
            percentile(&raw, 0.5) as f64 / 1e3
        );
    }
    for f in &out.failures {
        println!("  GATE FAILED: {f}");
    }
    for ((metric, _), value) in &metrics {
        if !value.is_finite() {
            println!("  GATE FAILED: {metric} is {value}");
        }
    }
    let correct = out.failures.is_empty() && metrics.iter().all(|(_, v)| v.is_finite());
    println!(
        "{}",
        result_line(correct, pooled.attempted, pooled.failed, &metrics)
    );
    correct
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The traced run: the workload once untraced and once with spans on
/// (half the time each — their medians' ratio is the tracing overhead),
/// then the ladder and the layer microbenchmarks. Writes `trace.json`.
fn traced_run(
    name: &str,
    seconds: f64,
    run: &Run<'_>,
    ticks0: (u64, u64),
) -> (Outcome, Vec<(Metric, f64)>) {
    let untraced = workloads::run(name, seconds / 2.0, run);
    let mut traced = workloads::run(
        name,
        seconds / 2.0,
        &Run {
            trace: true,
            ..*run
        },
    );
    let mut layers = layers::Layers::new();
    let (plain, spanned) = (Pooled::of(&untraced), Pooled::of(&traced));
    layers.set(
        "trace.overhead_frac",
        spanned.p50_us() / plain.p50_us() - 1.0,
    );
    layers.set("workload.latency_p50_us", spanned.p50_us());
    let (q, tail_us) = spanned.tail();
    layers.set("workload.latency_tail_us", tail_us);
    layers.set("workload.latency_tail_quantile", q);
    layers.set("workload.cpu_us_per_request", spanned.cpu_us_per_request());
    layers.set(
        "workload.incarnation_spread",
        incarnation_spread(&spanned.runs),
    );
    // The part of a request (round, op) its caller spent outside calls
    // into the stack — for a pipelined window, the time the request sat
    // in flight while the caller served others.
    let own = spans::self_times(&traced.spans);
    let roots: Vec<f64> = traced
        .spans
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.parent == spans::ROOT)
        .map(|(_, own)| *own as f64 / 1e3)
        .collect();
    layers.set("workload.root_self_us", median_f64(&roots));
    layers::measure(run, &mut traced, &mut layers);
    layers.set("trace.spans", traced.spans.len() as f64);
    layers.set("host.steal_frac", steal_frac(ticks0, host_ticks()));
    layers.set("host.nproc", nproc() as f64);

    let path = RunDir::trace_path();
    match spans::write_trace(&path, &traced.spans, 200_000) {
        Ok(()) => println!(
            "  {} spans recorded, trace written to {}",
            traced.spans.len(),
            path.display()
        ),
        Err(e) => traced
            .failures
            .push(format!("write {}: {e}", path.display())),
    }
    // The result line counts both passes.
    traced.failures.extend(untraced.failures);
    traced.incarnations.extend(untraced.incarnations);
    (traced, layers.finish())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bfbench: {e}");
            eprintln!(
                "usage: bfbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let dirs = RunDir::create().expect("create run directory under the current directory");
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut correct = true;
    for name in names {
        correct &= run_workload(name, &args, &dirs);
    }
    // `exit` skips destructors; the WAL directories go first.
    drop(dirs);
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for name in workloads::NAMES {
            assert!(well_formed(name) && seen.insert(name), "{name}");
        }
    }

    /// The `"name": "…"` values inside the array that follows `"key":`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let from = json.find(&format!("\"{key}\"")).expect("key present");
        let open = from + json[from..].find('[').expect("an array follows");
        let close = open + json[open..].find(']').expect("the array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let emitted = |table: &[Metric]| -> Vec<String> {
            table.iter().map(|(n, _)| (*n).to_owned()).collect()
        };
        assert_eq!(names_under(&json, "workloads"), workloads::NAMES);
        assert_eq!(names_under(&json, "end_to_end"), emitted(&END_TO_END));
        assert_eq!(names_under(&json, "per_layer"), emitted(&PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[(("setup_s", "s"), 0.25), (("x.y", "us"), 3.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x.y\": {\"value\": 3, \"unit\": \"us\"}}}"
        );
    }
}
