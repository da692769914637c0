//! Sample summaries and the host-noise probes: percentiles, pooled
//! throughput, `/proc/stat` steal, process CPU time and the clock probe.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, or `None` below 20 samples (the median is all
/// such a sample supports).
pub fn tail_quantile(n: usize) -> Option<f64> {
    // q = 1 − 1/d leaves n/d samples beyond it.
    [10_000usize, 1_000, 100, 10]
        .into_iter()
        .find(|d| n / d >= 10)
        .map(|d| 1.0 - 1.0 / d as f64)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Throughput of several incarnations pooled: all answers over all
/// measured wall time, so a slow incarnation weighs by the time it took
/// rather than as one vote.
pub fn pooled_rps(incarnations: &[(u64, Duration)]) -> f64 {
    let answered: u64 = incarnations.iter().map(|(n, _)| n).sum();
    let wall: f64 = incarnations.iter().map(|(_, d)| d.as_secs_f64()).sum();
    answered as f64 / wall
}

/// `max ÷ min` of the incarnations' own throughputs.
pub fn incarnation_spread(incarnations: &[(u64, Duration)]) -> f64 {
    let rates = incarnations
        .iter()
        .map(|(n, d)| *n as f64 / d.as_secs_f64());
    let (lo, hi) = rates.fold((f64::INFINITY, 0.0f64), |(lo, hi), r| {
        (lo.min(r), hi.max(r))
    });
    hi / lo
}

/// The aggregate `cpu` line of `/proc/stat`: `(steal, total)` in ticks.
pub fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user, so the sum stops at steal.
    let ticks: Vec<u64> = fields.take(8).map_while(|f| f.parse().ok()).collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// `(steal, total)` ticks of the whole host since boot; zeros where
/// `/proc/stat` is absent.
pub fn host_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(parse_cpu_line))
        .unwrap_or((0, 0))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// utime + stime of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name may hold spaces, so fields count from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// User + system CPU this process has used, every thread included,
/// live or exited. The kernel's per-process CPU clock counts run time to
/// the nanosecond; `/proc/self/stat` only samples at its 100 Hz tick,
/// which misjudges threads that wake for microseconds, so it is the
/// fallback where the clock is not known to have this layout.
pub fn process_cpu() -> Duration {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` through
        // the pointer; on 64-bit Linux that is two 64-bit integers,
        // which is `Timespec`'s `repr(C)` layout, and `ts` outlives the
        // call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32);
        }
    }
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Steps of xorshift64 one [`clock_probe`] runs; each is six shift/xor
/// operations that wait for one another.
const CLOCK_PROBE_STEPS: u64 = 60_000;

/// What [`clock_probe`] takes on the reference clock, one that retires
/// three dependent integer operations a nanosecond: the slowest of the
/// levels (86, 90, 100, 109, 120 µs) this host's turbo moves between.
pub const CLOCK_REF_NS: f64 = (CLOCK_PROBE_STEPS * 6) as f64 / 3.0;

/// Probes that share one clock factor: eight rounds of `engine_batch`,
/// about 90 ms, so one interrupted probe does not set a factor.
pub const CLOCK_WINDOW: usize = 8;

/// Times a fixed chain of dependent integer operations, in ns. The chain
/// touches no memory and cannot be reordered, so its time moves with the
/// core's clock and with nothing the repository's code does.
pub fn clock_probe(state: &mut u64) -> u64 {
    let began = Instant::now();
    let mut x = *state | 1;
    for _ in 0..CLOCK_PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    *state = std::hint::black_box(x);
    began.elapsed().as_nanos() as u64
}

/// The host's clock factor beside each probe: the median probe of its
/// window of [`CLOCK_WINDOW`] over [`CLOCK_REF_NS`]. A time divided by
/// its factor is that time on the reference clock.
pub fn clock_factors(probes_ns: &[u64]) -> Vec<f64> {
    probes_ns
        .chunks(CLOCK_WINDOW)
        .flat_map(|window| {
            let ns: Vec<f64> = window.iter().map(|&p| p as f64).collect();
            let factor = median_f64(&ns) / CLOCK_REF_NS;
            std::iter::repeat_n(factor, window.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(3_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(250_000), Some(0.9999));
    }

    #[test]
    fn pooling_weighs_incarnations_by_time() {
        let runs = [(100, Duration::from_secs(1)), (100, Duration::from_secs(3))];
        assert_eq!(pooled_rps(&runs), 50.0);
        assert_eq!(incarnation_spread(&runs), 3.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn clock_factors_take_each_window_median() {
        let slow = CLOCK_REF_NS as u64;
        // One interrupted probe in the first window changes nothing; the
        // second window (two probes) runs a quarter faster.
        let mut probes = vec![slow; CLOCK_WINDOW];
        probes[3] = 40 * slow;
        probes.extend([slow * 3 / 4; 2]);
        let factors = clock_factors(&probes);
        assert_eq!(factors.len(), CLOCK_WINDOW + 2);
        assert!(factors[..CLOCK_WINDOW].iter().all(|&f| f == 1.0));
        assert!(factors[CLOCK_WINDOW..].iter().all(|&f| f == 0.75));
        assert!(clock_factors(&[]).is_empty());
    }

    #[test]
    fn clock_probe_advances_its_state_and_takes_time() {
        let mut state = 7;
        assert!(clock_probe(&mut state) > 0);
        assert_ne!(state, 7);
    }

    #[test]
    fn steal_parser_reads_the_eighth_field() {
        let line = "cpu  21496 0 15230 335464 10339 0 947 30320 0 0";
        let (steal, total) = parse_cpu_line(line).unwrap();
        assert_eq!(steal, 30320);
        assert_eq!(total, 21496 + 15230 + 335464 + 10339 + 947 + 30320);
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
        assert_eq!(steal_frac((10, 100), (35, 200)), 0.25);
        assert_eq!(steal_frac((10, 100), (10, 100)), 0.0);
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let mut x = 1u64;
        while process_cpu() - before < Duration::from_millis(2) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu() > before);
    }

    #[test]
    fn stat_parser_survives_spaces_in_the_command_name() {
        let stat = "42 (bf bench) S 1 42 42 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(22));
    }
}
