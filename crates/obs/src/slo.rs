//! Declarative service-level objectives evaluated over metric
//! snapshots.
//!
//! An [`SloSpec`] names one objective over the instruments the stack
//! already records — a latency quantile bound, an error-rate bound, a
//! replication-lag bound, or a per-analyst ε-budget **burn rate** (the
//! Blowfish ledger makes budget drain a first-class operational signal,
//! not an afterthought). The [`SloEngine`] evaluates every spec against
//! each successive snapshot, keeping a bounded sliding window of
//! scrape-to-scrape deltas for the rate objectives, and drives a
//! firing/ok state machine per spec:
//!
//! * each evaluation publishes `slo_value{slo="<name>"}` (the measured
//!   quantity) and `slo_firing{slo="<name>"}` (1/0) gauges into the
//!   registry it was built over, so SLO state rides every scrape;
//! * [`SloEngine::observe`] returns only the **transitions** — specs
//!   that flipped between ok and firing — which is what feeds the live
//!   event bus.
//!
//! Evaluation is windowed in *scrapes*, not wall time: the engine never
//! reads a clock, so same-seed serving runs stay byte-identical with
//! SLO evaluation on or off (the side-channel guarantee every other
//! instrument in this crate obeys).

use crate::registry::{MetricSnapshot, Registry};
use std::collections::{BTreeMap, VecDeque};

/// Which estimated quantile of a histogram an objective bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloQuantile {
    /// The median.
    P50,
    /// The 99th percentile.
    P99,
    /// The 99.9th percentile.
    P999,
}

/// One declarative objective.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// A latency histogram's quantile must stay under a bound
    /// (nanoseconds). Fires while `quantile(metric) > max_ns`.
    LatencyQuantileUnder {
        /// The histogram's registered name.
        metric: String,
        /// Which quantile estimate to bound.
        quantile: SloQuantile,
        /// The bound, in the histogram's unit (conventionally ns).
        max_ns: u64,
    },
    /// The ratio of two counters' growth over the sliding window must
    /// stay under a bound. Fires while
    /// `Δerrors / Δrequests > max_ratio` (totals are used until the
    /// window has two samples; a window with no request growth never
    /// fires).
    ErrorRateUnder {
        /// The error counter's registered name.
        errors: String,
        /// The request counter's registered name.
        requests: String,
        /// Largest acceptable error fraction (`0.0 ..= 1.0`).
        max_ratio: f64,
    },
    /// A replication-lag gauge must stay under a bound, in log entries.
    /// Fires while `metric > max_entries`.
    ReplicationLagUnder {
        /// The lag gauge's registered name (conventionally
        /// `replica_cluster_lag_entries` for fleet lag or
        /// `replica_lag_entries` for local commit-to-apply lag).
        metric: String,
        /// Largest acceptable lag, in entries.
        max_entries: f64,
    },
    /// One analyst's ε spend may not **burn** faster than a bound,
    /// averaged over the sliding window of scrape deltas:
    /// `(spent_newest − spent_oldest) / (samples − 1) > max_eps_per_scrape`
    /// fires. Needs at least two samples; a freshly observed analyst
    /// never fires on its first scrape.
    BudgetBurnUnder {
        /// Whose ledger to watch.
        analyst: String,
        /// Largest acceptable average ε spent per scrape interval.
        max_eps_per_scrape: f64,
    },
}

impl SloObjective {
    /// The metric names this objective reads from each snapshot.
    fn tracked(&self) -> Vec<String> {
        match self {
            SloObjective::LatencyQuantileUnder { metric, .. } => vec![metric.clone()],
            SloObjective::ErrorRateUnder {
                errors, requests, ..
            } => vec![errors.clone(), requests.clone()],
            SloObjective::ReplicationLagUnder { metric, .. } => vec![metric.clone()],
            SloObjective::BudgetBurnUnder { analyst, .. } => {
                vec![budget_spent_metric(analyst)]
            }
        }
    }
}

/// The registered name of one analyst's ε-spent gauge (the engine's
/// labels-in-name convention).
pub(crate) fn budget_spent_metric(analyst: &str) -> String {
    format!("engine_epsilon_spent{{analyst={analyst:?}}}")
}

/// One named objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The SLO's name — what `slo_*` gauges, health reports and fired
    /// events carry.
    pub name: String,
    /// The objective to hold.
    pub objective: SloObjective,
}

/// One firing/ok flip reported by [`SloEngine::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloTransition {
    /// The spec's name.
    pub slo: String,
    /// The new state: `true` means the objective is now violated.
    pub firing: bool,
    /// The measured value that decided the flip.
    pub value: f64,
}

struct SloState {
    firing: bool,
    value_gauge: crate::metrics::Gauge,
    firing_gauge: crate::metrics::Gauge,
}

/// Evaluates a fixed set of [`SloSpec`]s against successive metric
/// snapshots (see the module docs).
pub struct SloEngine {
    specs: Vec<SloSpec>,
    states: Vec<SloState>,
    /// Last `window` samples of every tracked metric, oldest first.
    history: VecDeque<BTreeMap<String, f64>>,
    window: usize,
    tracked: Vec<String>,
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("specs", &self.specs.len())
            .field("window", &self.window)
            .field("samples", &self.history.len())
            .finish()
    }
}

/// The scalar a snapshot entry contributes to rate windows (counters
/// and gauges; histograms contribute their count).
fn scalar(snap: &MetricSnapshot) -> f64 {
    match snap {
        MetricSnapshot::Counter { value, .. } => *value as f64,
        MetricSnapshot::Gauge { value, .. } => *value,
        MetricSnapshot::Histogram { summary, .. } => summary.count as f64,
    }
}

impl SloEngine {
    /// An engine evaluating `specs` over a sliding window of `window`
    /// scrapes (minimum 2), with its `slo_*` gauges registered on
    /// `registry`.
    pub fn new(registry: &Registry, specs: Vec<SloSpec>, window: usize) -> Self {
        let states = specs
            .iter()
            .map(|s| SloState {
                firing: false,
                value_gauge: registry.gauge(&format!("slo_value{{slo={:?}}}", s.name)),
                firing_gauge: registry.gauge(&format!("slo_firing{{slo={:?}}}", s.name)),
            })
            .collect();
        let mut tracked: Vec<String> = specs.iter().flat_map(|s| s.objective.tracked()).collect();
        tracked.sort();
        tracked.dedup();
        Self {
            specs,
            states,
            history: VecDeque::new(),
            window: window.max(2),
            tracked,
        }
    }

    /// Names of every spec currently firing, in spec order.
    pub fn firing(&self) -> Vec<String> {
        self.specs
            .iter()
            .zip(&self.states)
            .filter(|(_, st)| st.firing)
            .map(|(s, _)| s.name.clone())
            .collect()
    }

    /// Feeds one scrape's snapshot through every spec: updates the
    /// `slo_*` gauges and returns the specs that flipped state.
    pub fn observe(&mut self, snapshot: &[MetricSnapshot]) -> Vec<SloTransition> {
        let sample: BTreeMap<String, f64> = snapshot
            .iter()
            .filter(|s| self.tracked.iter().any(|t| t == s.name()))
            .map(|s| (s.name().to_owned(), scalar(s)))
            .collect();
        self.history.push_back(sample);
        while self.history.len() > self.window {
            self.history.pop_front();
        }

        let mut transitions = Vec::new();
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            let (value, firing) = evaluate(&spec.objective, snapshot, &self.history);
            state.value_gauge.set(value);
            state.firing_gauge.set(if firing { 1.0 } else { 0.0 });
            if firing != state.firing {
                state.firing = firing;
                transitions.push(SloTransition {
                    slo: spec.name.clone(),
                    firing,
                    value,
                });
            }
        }
        transitions
    }
}

/// The newest-minus-oldest growth of one tracked metric across the
/// window, and the number of samples that actually carried it.
fn window_delta(history: &VecDeque<BTreeMap<String, f64>>, name: &str) -> (f64, usize) {
    let mut first = None;
    let mut last = None;
    let mut samples = 0usize;
    for sample in history {
        if let Some(v) = sample.get(name) {
            if first.is_none() {
                first = Some(*v);
            }
            last = Some(*v);
            samples += 1;
        }
    }
    match (first, last) {
        (Some(a), Some(b)) => (b - a, samples),
        _ => (0.0, 0),
    }
}

fn evaluate(
    objective: &SloObjective,
    snapshot: &[MetricSnapshot],
    history: &VecDeque<BTreeMap<String, f64>>,
) -> (f64, bool) {
    match objective {
        SloObjective::LatencyQuantileUnder {
            metric,
            quantile,
            max_ns,
        } => {
            let measured = snapshot
                .iter()
                .find(|s| s.name() == metric)
                .and_then(|s| match s {
                    MetricSnapshot::Histogram { summary, .. } => Some(match quantile {
                        SloQuantile::P50 => summary.p50,
                        SloQuantile::P99 => summary.p99,
                        SloQuantile::P999 => summary.p999,
                    }),
                    _ => None,
                })
                .unwrap_or(0);
            (measured as f64, measured > *max_ns)
        }
        SloObjective::ErrorRateUnder {
            errors,
            requests,
            max_ratio,
        } => {
            let (de, ne) = window_delta(history, errors);
            let (dr, nr) = window_delta(history, requests);
            // Until the window holds two samples the deltas are zero;
            // fall back to totals so a cold engine still sees a
            // long-running process's accumulated rate.
            let (err, req) = if ne >= 2 && nr >= 2 {
                (de, dr)
            } else {
                let total = |name: &str| {
                    history
                        .back()
                        .and_then(|s| s.get(name).copied())
                        .unwrap_or(0.0)
                };
                (total(errors), total(requests))
            };
            let ratio = if req > 0.0 { err / req } else { 0.0 };
            (ratio, ratio > *max_ratio)
        }
        SloObjective::ReplicationLagUnder {
            metric,
            max_entries,
        } => {
            let lag = snapshot
                .iter()
                .find(|s| s.name() == metric)
                .map(scalar)
                .unwrap_or(0.0);
            (lag, lag > *max_entries)
        }
        SloObjective::BudgetBurnUnder {
            analyst,
            max_eps_per_scrape,
        } => {
            let name = budget_spent_metric(analyst);
            let (spent, samples) = window_delta(history, &name);
            let burn = if samples >= 2 {
                spent / (samples - 1) as f64
            } else {
                0.0
            };
            (burn, burn > *max_eps_per_scrape)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn gauge_value(r: &Registry, name: &str) -> f64 {
        r.snapshot()
            .iter()
            .find(|s| s.name() == name)
            .map(|s| match s {
                MetricSnapshot::Gauge { value, .. } => *value,
                other => panic!("expected gauge, got {other:?}"),
            })
            .unwrap_or_else(|| panic!("no gauge {name}"))
    }

    #[test]
    fn latency_quantile_slo_fires_and_resolves_nothing_without_data() {
        let r = Registry::new();
        let mut engine = SloEngine::new(
            &r,
            vec![SloSpec {
                name: "decode-p99".into(),
                objective: SloObjective::LatencyQuantileUnder {
                    metric: "span_stage_ns{stage=\"decode\"}".into(),
                    quantile: SloQuantile::P99,
                    max_ns: 1_000_000,
                },
            }],
            8,
        );
        assert!(engine.observe(&r.snapshot()).is_empty());
        assert!(engine.firing().is_empty());
        // Blow the bound: a 10ms decode.
        r.record_stage(crate::span::Stage::Decode, Duration::from_millis(10));
        let flips = engine.observe(&r.snapshot());
        assert_eq!(flips.len(), 1);
        assert!(flips[0].firing);
        assert_eq!(flips[0].slo, "decode-p99");
        assert_eq!(engine.firing(), vec!["decode-p99".to_string()]);
        assert_eq!(gauge_value(&r, "slo_firing{slo=\"decode-p99\"}"), 1.0);
        assert!(gauge_value(&r, "slo_value{slo=\"decode-p99\"}") > 1e6);
        // Still firing: no new transition.
        assert!(engine.observe(&r.snapshot()).is_empty());
    }

    #[test]
    fn error_rate_slo_uses_window_deltas() {
        let r = Registry::new();
        let errors = r.counter("net_refused_total");
        let requests = r.counter("net_requests_total");
        let mut engine = SloEngine::new(
            &r,
            vec![SloSpec {
                name: "errors".into(),
                objective: SloObjective::ErrorRateUnder {
                    errors: "net_refused_total".into(),
                    requests: "net_requests_total".into(),
                    max_ratio: 0.1,
                },
            }],
            4,
        );
        // A bad history: 50% errors over the first scrape (totals path).
        errors.add(5);
        requests.add(10);
        let flips = engine.observe(&r.snapshot());
        assert_eq!(flips.len(), 1);
        assert!(flips[0].firing);
        // Then a long clean stretch: the window forgets the bad past.
        for _ in 0..4 {
            requests.add(100);
            engine.observe(&r.snapshot());
        }
        assert!(engine.firing().is_empty());
        assert!(gauge_value(&r, "slo_value{slo=\"errors\"}") < 0.01);
    }

    #[test]
    fn replication_lag_slo_reads_the_gauge_directly() {
        let r = Registry::new();
        let lag = r.gauge("replica_cluster_lag_entries");
        let mut engine = SloEngine::new(
            &r,
            vec![SloSpec {
                name: "lag".into(),
                objective: SloObjective::ReplicationLagUnder {
                    metric: "replica_cluster_lag_entries".into(),
                    max_entries: 16.0,
                },
            }],
            4,
        );
        lag.set(3.0);
        assert!(engine.observe(&r.snapshot()).is_empty());
        lag.set(40.0);
        let flips = engine.observe(&r.snapshot());
        assert_eq!(flips.len(), 1);
        assert!(flips[0].firing);
        assert_eq!(flips[0].value, 40.0);
        lag.set(0.0);
        let flips = engine.observe(&r.snapshot());
        assert_eq!(flips.len(), 1);
        assert!(!flips[0].firing);
    }

    #[test]
    fn budget_burn_slo_averages_spend_over_the_window() {
        let r = Registry::new();
        let spent = r.gauge(&budget_spent_metric("alice"));
        let mut engine = SloEngine::new(
            &r,
            vec![SloSpec {
                name: "alice-burn".into(),
                objective: SloObjective::BudgetBurnUnder {
                    analyst: "alice".into(),
                    max_eps_per_scrape: 0.5,
                },
            }],
            4,
        );
        // First scrape: no window yet, never fires.
        spent.set(0.0);
        assert!(engine.observe(&r.snapshot()).is_empty());
        // Burn 1.0 ε per scrape — twice the bound.
        for i in 1..=3u32 {
            spent.set(f64::from(i));
            engine.observe(&r.snapshot());
        }
        assert_eq!(engine.firing(), vec!["alice-burn".to_string()]);
        // Stop spending: the window slides clean and the SLO resolves.
        for _ in 0..4 {
            engine.observe(&r.snapshot());
        }
        assert!(engine.firing().is_empty());
        assert_eq!(gauge_value(&r, "slo_firing{slo=\"alice-burn\"}"), 0.0);
    }
}
