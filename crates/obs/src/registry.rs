//! The named instrument catalog.

use crate::bus::EventBus;
use crate::clock::{Clock, Stage};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary};
use crate::trace::{TraceBuffer, TraceContext, TraceId, TRACE_EXEMPLARS_PER_STAGE};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named catalog of [`Counter`]s, [`Gauge`]s and [`Histogram`]s, plus
/// the seven per-[`Stage`] latency histograms, the request-trace
/// buffer and the event bus.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a lock;
/// *recording* through the returned handles never does. Names follow
/// the labels-in-name convention — `engine_epsilon_spent{analyst="a"}`
/// is one metric whose base name the renderer splits at `{`.
///
/// One switch ([`Registry::set_enabled`]) freezes every instrument
/// minted from the registry: recording degrades to a single relaxed
/// load and no clocks are read, which is how instrumentation overhead
/// is measured and bounded.
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    enabled: Arc<AtomicBool>,
    stages: Vec<Histogram>,
    traces: TraceBuffer,
    bus: EventBus,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An enabled registry with empty instruments for all seven stages.
    pub fn new() -> Self {
        let enabled = Arc::new(AtomicBool::new(true));
        let mut metrics = BTreeMap::new();
        let mut stages = Vec::with_capacity(Stage::ALL.len());
        for stage in Stage::ALL {
            let h = Histogram::with_switch(Arc::clone(&enabled));
            metrics.insert(
                format!("span_stage_ns{{stage=\"{}\"}}", stage.as_str()),
                Metric::Histogram(h.clone()),
            );
            stages.push(h);
        }
        Self {
            metrics: Mutex::new(metrics),
            stages,
            traces: TraceBuffer::with_switch(TRACE_EXEMPLARS_PER_STAGE, Arc::clone(&enabled)),
            bus: EventBus::with_switch(Arc::clone(&enabled)),
            enabled,
        }
    }

    /// Turns every instrument minted from this registry on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether instruments are currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.metrics.lock().expect("registry poisoned");
        match g
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::with_switch(Arc::clone(&self.enabled))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.metrics.lock().expect("registry poisoned");
        match g
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::with_switch(Arc::clone(&self.enabled))))
        {
            Metric::Gauge(h) => h.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.metrics.lock().expect("registry poisoned");
        match g
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::with_switch(Arc::clone(&self.enabled))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Starts the [`Clock`] for a region whose laps are recorded into
    /// `traces`. The time is read only when the registry is enabled or
    /// one of `traces` is active.
    #[inline]
    pub fn clock<'a>(&self, traces: impl IntoIterator<Item = &'a TraceContext>) -> Clock<'_> {
        Clock {
            stages: &self.stages,
            last: self.timed(traces).then(Instant::now),
        }
    }

    /// [`Registry::clock`] for a region that began at `start` (a
    /// request's submit instant): no clock is read until the lap.
    #[inline]
    pub fn clock_since<'a>(
        &self,
        start: Instant,
        traces: impl IntoIterator<Item = &'a TraceContext>,
    ) -> Clock<'_> {
        Clock {
            stages: &self.stages,
            last: self.timed(traces).then_some(start),
        }
    }

    fn timed<'a>(&self, traces: impl IntoIterator<Item = &'a TraceContext>) -> bool {
        self.is_enabled() || traces.into_iter().any(TraceContext::is_active)
    }

    /// The bounded buffer completed request traces land in.
    pub fn trace_buffer(&self) -> &TraceBuffer {
        &self.traces
    }

    /// The live event bus the layers publish state transitions on
    /// (replication role changes, SLO flips).
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Unregisters `name`, so later snapshots no longer carry it.
    /// Returns whether it was registered. Handles already cloned out
    /// keep recording into thin air — a re-registration under the same
    /// name mints a fresh instrument — which is exactly the lifecycle
    /// an evicted session's per-analyst gauges need: the series
    /// disappears from scrapes instead of reporting its last value
    /// forever.
    pub fn remove(&self, name: &str) -> bool {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .remove(name)
            .is_some()
    }

    /// Begins a request trace for a client-assigned id — inert (no
    /// allocation, no clock read) when the registry is disabled, so
    /// tracing stays a pure side channel.
    pub fn begin_trace(&self, id: TraceId, analyst: &str) -> TraceContext {
        self.traces.begin(id, analyst)
    }

    /// A point-in-time dump of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => MetricSnapshot::Counter {
                    name: name.clone(),
                    value: c.get(),
                },
                Metric::Gauge(h) => MetricSnapshot::Gauge {
                    name: name.clone(),
                    value: h.get(),
                },
                Metric::Histogram(h) => MetricSnapshot::Histogram {
                    name: name.clone(),
                    summary: h.summary(),
                },
            })
            .collect()
    }
}

/// One metric's value at snapshot time — the unit of exposition and of
/// the wire-level `StatsReport`.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// A counter's total.
    Counter {
        /// Metric name (labels-in-name convention).
        name: String,
        /// Total count.
        value: u64,
    },
    /// A gauge's current value.
    Gauge {
        /// Metric name (labels-in-name convention).
        name: String,
        /// Current value.
        value: f64,
    },
    /// A histogram's digest.
    Histogram {
        /// Metric name (labels-in-name convention).
        name: String,
        /// Count, sum, max and quantile estimates.
        summary: HistogramSummary,
    },
}

impl MetricSnapshot {
    /// The metric's full name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. } => name,
        }
    }

    /// This sample with `key="value"` appended to its label section
    /// (see [`label_metric_name`]).
    pub(crate) fn with_label(mut self, key: &str, value: &str) -> MetricSnapshot {
        let name = match &mut self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. } => name,
        };
        *name = label_metric_name(name, key, value);
        self
    }
}

/// Appends `key="value"` to a labels-in-name metric name: `foo`
/// becomes `foo{key="value"}` and `foo{a="b"}` becomes
/// `foo{a="b",key="value"}`, so same-named metrics from different
/// sources stay distinct series after a merge. The value is injected
/// **raw**, like every `format!`-built name in the workspace — escaping
/// happens exactly once, in [`render_prometheus`], so a quoted or
/// backslashed value is never double-escaped on exposition.
///
/// [`render_prometheus`]: crate::render_prometheus
pub(crate) fn label_metric_name(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(head) => format!("{head},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Merges snapshot sets from several registries (e.g. the engine's and
/// the store's) into one name-sorted catalog. Duplicate names keep the
/// first occurrence.
pub fn merge_snapshots(sets: Vec<Vec<MetricSnapshot>>) -> Vec<MetricSnapshot> {
    let mut merged: BTreeMap<String, MetricSnapshot> = BTreeMap::new();
    for set in sets {
        for snap in set {
            merged.entry(snap.name().to_owned()).or_insert(snap);
        }
    }
    merged.into_values().collect()
}

/// Label-qualified merging for federated scrapes: every sample in each
/// set gains a `key="<source>"` label before the merge, so same-named
/// metrics from different sources survive as distinct series instead of
/// first-occurrence-wins collapsing a fleet into one process's numbers.
/// The result is name-sorted like [`merge_snapshots`]'s.
pub fn merge_labeled_snapshots(
    key: &str,
    sets: Vec<(String, Vec<MetricSnapshot>)>,
) -> Vec<MetricSnapshot> {
    merge_snapshots(
        sets.into_iter()
            .map(|(source, set)| {
                set.into_iter()
                    .map(|snap| snap.with_label(key, &source))
                    .collect()
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_instrument() {
        let r = Registry::new();
        r.counter("requests").add(2);
        r.counter("requests").add(3);
        assert_eq!(r.counter("requests").get(), 5);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("depth");
        r.counter("depth");
    }

    #[test]
    fn snapshot_contains_stage_histograms_and_is_sorted() {
        let r = Registry::new();
        r.clock([]).lap(Stage::Release);
        let snaps = r.snapshot();
        assert_eq!(snaps.len(), Stage::ALL.len());
        let names: Vec<&str> = snaps.iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let release = snaps
            .iter()
            .find(|s| s.name() == "span_stage_ns{stage=\"release\"}")
            .unwrap();
        match release {
            MetricSnapshot::Histogram { summary, .. } => assert_eq!(summary.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn clock_laps_feed_stage_histograms() {
        let r = Registry::new();
        let mut clock = r.clock([]);
        assert!(clock.last.is_some());
        let decode = clock.lap(Stage::Decode);
        let reply = clock.lap(Stage::Reply);
        assert_eq!(r.stages[Stage::Decode.index()].count(), 1);
        assert_eq!(r.stages[Stage::Reply.index()].count(), 1);
        // Consecutive laps share their boundary instant.
        assert_eq!(decode.at.unwrap().1, reply.at.unwrap().0);
    }

    #[test]
    fn disabled_registry_clocks_read_no_time() {
        let r = Registry::new();
        r.set_enabled(false);
        let mut clock = r.clock([&TraceContext::inert()]);
        assert!(clock.last.is_none());
        assert!(clock.lap(Stage::Decode).at.is_none());
        let since = r.clock_since(Instant::now(), [&TraceContext::inert()]);
        assert!(since.last.is_none());
        assert_eq!(r.stages[Stage::Decode.index()].count(), 0);
    }

    #[test]
    fn a_laps_histogram_sample_is_each_active_traces_span() {
        let r = Registry::new();
        let a = r.begin_trace(TraceId(1), "a");
        let b = r.begin_trace(TraceId(2), "b");
        let mut clock = r.clock([&a, &b]);
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock
            .lap(Stage::Release)
            .linked(Some(7))
            .record([&a, &TraceContext::inert(), &b], "ok");
        a.finish("ok");
        b.finish("ok");
        let sum = r.stages[Stage::Release.index()].summary().sum;
        assert!(sum >= 1_000_000);
        for id in [TraceId(1), TraceId(2)] {
            let tree = r.trace_buffer().find(id).unwrap();
            assert_eq!(tree.spans.len(), 1);
            assert_eq!(tree.spans[0].duration_ns, sum);
            assert_eq!(tree.spans[0].link, Some(7));
        }
    }

    #[test]
    fn an_active_trace_gets_its_span_with_the_registry_disabled() {
        let r = Registry::new();
        r.set_enabled(false);
        let buf = TraceBuffer::detached(4);
        let live = buf.begin(TraceId(3), "a");
        let mut clock = r.clock_since(Instant::now(), [&live]);
        clock.lap(Stage::Queue).record([&live], "drained");
        live.finish("ok");
        assert_eq!(r.stages[Stage::Queue.index()].count(), 0);
        let tree = buf.find(TraceId(3)).unwrap();
        assert_eq!(tree.spans.len(), 1);
        assert_eq!(tree.spans[0].stage, Stage::Queue);
        assert_eq!(tree.spans[0].outcome, "drained");
    }

    #[test]
    fn merge_prefers_first_and_sorts() {
        let a = vec![MetricSnapshot::Counter {
            name: "x".into(),
            value: 1,
        }];
        let b = vec![
            MetricSnapshot::Counter {
                name: "x".into(),
                value: 99,
            },
            MetricSnapshot::Gauge {
                name: "a".into(),
                value: 2.0,
            },
        ];
        let merged = merge_snapshots(vec![a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name(), "a");
        match &merged[1] {
            MetricSnapshot::Counter { value, .. } => assert_eq!(*value, 1),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn remove_drops_the_series_and_reregistration_starts_fresh() {
        let r = Registry::new();
        let g = r.gauge("server_queue_depth{analyst=\"alice\"}");
        g.set(7.0);
        assert!(r.remove("server_queue_depth{analyst=\"alice\"}"));
        assert!(!r.remove("server_queue_depth{analyst=\"alice\"}"));
        assert!(!r
            .snapshot()
            .iter()
            .any(|s| s.name().starts_with("server_queue_depth")));
        // The orphaned handle still works but reaches no scrape …
        g.set(9.0);
        assert!(!r
            .snapshot()
            .iter()
            .any(|s| s.name().starts_with("server_queue_depth")));
        // … and re-registering mints a fresh series from zero.
        let g2 = r.gauge("server_queue_depth{analyst=\"alice\"}");
        assert_eq!(g2.get(), 0.0);
    }

    #[test]
    fn label_metric_name_appends_or_creates_the_label_section() {
        assert_eq!(
            label_metric_name("net_requests_total", "replica", "n1"),
            "net_requests_total{replica=\"n1\"}"
        );
        assert_eq!(
            label_metric_name("eps{analyst=\"a\"}", "replica", "n1"),
            "eps{analyst=\"a\",replica=\"n1\"}"
        );
    }

    #[test]
    fn labeled_merge_keeps_every_source_distinct() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("net_requests_total").add(3);
        b.counter("net_requests_total").add(5);
        let merged = merge_labeled_snapshots(
            "replica",
            vec![
                ("n1".to_owned(), a.snapshot()),
                ("n2".to_owned(), b.snapshot()),
            ],
        );
        let value = |name: &str| match merged.iter().find(|s| s.name() == name).unwrap() {
            MetricSnapshot::Counter { value, .. } => *value,
            other => panic!("expected counter, got {other:?}"),
        };
        assert_eq!(value("net_requests_total{replica=\"n1\"}"), 3);
        assert_eq!(value("net_requests_total{replica=\"n2\"}"), 5);
        // Pre-labeled series compose: the replica label lands last.
        assert!(merged
            .iter()
            .any(|s| s.name() == "span_stage_ns{stage=\"decode\",replica=\"n1\"}"));
        // Nothing first-wins-collapsed: both sources contribute every
        // series.
        assert_eq!(merged.len(), a.snapshot().len() + b.snapshot().len());
        let names: Vec<&str> = merged.iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn merge_with_overlapping_histogram_buckets_keeps_first_digest() {
        // Two registries record the same-named histogram with
        // observations landing in overlapping log buckets; the merge
        // must keep the first registry's digest intact rather than mix
        // bucket counts across sources.
        let a = Registry::new();
        let b = Registry::new();
        for v in [100u64, 150, 1000] {
            a.histogram("io_ns").record(v);
        }
        for v in [120u64, 900, 1_000_000] {
            b.histogram("io_ns").record(v);
        }
        let merged = merge_snapshots(vec![a.snapshot(), b.snapshot()]);
        let io = merged.iter().find(|s| s.name() == "io_ns").unwrap();
        match io {
            MetricSnapshot::Histogram { summary, .. } => {
                assert_eq!(summary.count, 3);
                assert_eq!(summary.sum, 1250);
                assert_eq!(summary.max, 1000);
                assert_eq!(*summary, a.histogram("io_ns").summary());
                assert_ne!(*summary, b.histogram("io_ns").summary());
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Non-overlapping names from both sources all survive.
        a.counter("only_a").add(1);
        b.counter("only_b").add(2);
        let merged = merge_snapshots(vec![a.snapshot(), b.snapshot()]);
        assert!(merged.iter().any(|s| s.name() == "only_a"));
        assert!(merged.iter().any(|s| s.name() == "only_b"));
        let names: Vec<&str> = merged.iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
