//! The three instrument kinds and their lock-free cores.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counter increments are spread across this many cache-line-padded
/// slots, indexed by a per-thread slot id, so threads hammering the same
/// counter never bounce one cache line between cores. Must be a power of
/// two.
const COUNTER_SHARDS: usize = 8;

/// One atomic on its own cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// The slot a thread's counter increments land in: threads get distinct
/// slots round-robin on first use, wrapping at [`COUNTER_SHARDS`].
fn shard_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s) & (COUNTER_SHARDS - 1)
}

#[derive(Debug)]
struct CounterCore {
    shards: [PaddedU64; COUNTER_SHARDS],
    enabled: Arc<AtomicBool>,
}

/// A monotonically increasing count, sharded for contention-free
/// concurrent increments. Cloning shares the underlying instrument.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    pub(crate) fn with_switch(enabled: Arc<AtomicBool>) -> Self {
        Self(Arc::new(CounterCore {
            shards: Default::default(),
            enabled,
        }))
    }

    /// A counter attached to no registry, always enabled — for types
    /// that count standalone but can also be constructed registry-backed.
    pub fn detached() -> Self {
        Self::with_switch(Arc::new(AtomicBool::new(true)))
    }

    /// Adds `n`. A single relaxed load + relaxed add; a no-op when the
    /// owning registry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.shards[shard_slot()]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[derive(Debug)]
struct GaugeCore {
    bits: AtomicU64,
    enabled: Arc<AtomicBool>,
}

/// A point-in-time value (queue depth, ε remaining), stored as `f64`
/// bits in one atomic. Cloning shares the underlying instrument.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    pub(crate) fn with_switch(enabled: Arc<AtomicBool>) -> Self {
        Self(Arc::new(GaugeCore {
            bits: AtomicU64::new(0f64.to_bits()),
            enabled,
        }))
    }

    /// Sets the gauge; a no-op when the owning registry is disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }
}

/// Bucket count of the log-bucketed histogram: values 0–15 get exact
/// buckets, larger values get 8 sub-buckets per power-of-two octave
/// (≈12.5% relative resolution) up to `u64::MAX`.
const BUCKETS: usize = 16 + 60 * 8;

/// The bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // ≥ 4
    let sub = ((v >> (octave - 3)) & 7) as usize;
    16 + (octave - 4) * 8 + sub
}

/// The smallest value mapping to bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let octave = 4 + (i - 16) / 8;
    let sub = ((i - 16) % 8) as u64;
    (8 + sub) << (octave - 3)
}

/// The midpoint a bucket reports as its representative value.
fn bucket_mid(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let lo = bucket_lower(i);
    let hi = if i + 1 < BUCKETS {
        bucket_lower(i + 1)
    } else {
        u64::MAX
    };
    lo + (hi - lo) / 2
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    enabled: Arc<AtomicBool>,
}

/// A log-bucketed distribution of `u64` observations (conventionally
/// nanoseconds), with quantile readout. Recording is three relaxed
/// atomic adds plus one `fetch_max`; cloning shares the instrument.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// A point-in-time digest of a [`Histogram`] — what snapshots carry and
/// the wire `StatsReport` ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Median (bucket-midpoint estimate, ≈12.5% resolution).
    pub p50: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// 99.9th percentile estimate.
    pub p999: u64,
}

impl Histogram {
    pub(crate) fn with_switch(enabled: Arc<AtomicBool>) -> Self {
        Self(Arc::new(HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            enabled,
        }))
    }

    /// Records one observation; a no-op when the owning registry is
    /// disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        let core = &*self.0;
        if !core.enabled.load(Ordering::Relaxed) {
            return;
        }
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub(crate) fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket-midpoint estimate;
    /// 0 when nothing was recorded.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        self.0.max.load(Ordering::Relaxed)
    }

    /// The current digest (count, sum, max, p50/p99/p999).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for i in 0..BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Monotone: a larger value never lands in an earlier bucket.
        let mut v = 1u64;
        let mut prev = bucket_index(0);
        while v < u64::MAX / 3 {
            let b = bucket_index(v);
            assert!(b >= prev);
            prev = b;
            v = v * 3 / 2 + 1;
        }
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::detached();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn gauge_roundtrips_floats() {
        let g = Gauge::with_switch(Arc::new(AtomicBool::new(true)));
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_right() {
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // 12.5% bucket resolution: estimates within ~15% of truth.
        assert!((s.p50 as f64 - 500.0).abs() / 500.0 < 0.15, "p50={}", s.p50);
        assert!((s.p99 as f64 - 990.0).abs() / 990.0 < 0.15, "p99={}", s.p99);
        assert!(s.p999 <= s.max.max(bucket_mid(bucket_index(1000))));
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        for _ in 0..100 {
            h.record(7);
        }
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.999), 7);
    }

    #[test]
    fn disabled_switch_freezes_all_instruments() {
        let switch = Arc::new(AtomicBool::new(false));
        let c = Counter::with_switch(Arc::clone(&switch));
        let g = Gauge::with_switch(Arc::clone(&switch));
        let h = Histogram::with_switch(Arc::clone(&switch));
        c.inc();
        g.set(9.0);
        h.record(5);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        switch.store(true, Ordering::Relaxed);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
