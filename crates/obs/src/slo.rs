//! Declarative service-level objectives evaluated over metric
//! snapshots.
//!
//! An [`SloSpec`] names one objective over the instruments the stack
//! already records — a replication-lag bound, or a per-analyst ε-budget
//! **burn rate** (the Blowfish ledger makes budget drain a first-class
//! operational signal, not an afterthought). The [`SloEngine`]
//! evaluates every spec against each successive snapshot, keeping a
//! sliding window of the last [`WINDOW`] scrapes for the burn rate, and
//! drives a firing/ok state machine per spec:
//!
//! * each evaluation sets the `slo_firing{slo="<name>"}` (1/0) gauge in
//!   the registry it was built over, so SLO state rides every scrape;
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

/// Scrapes the burn-rate window spans.
const WINDOW: usize = 8;

/// One declarative objective.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// A replication-lag gauge must stay under a bound, in log entries.
    /// Fires while `metric > max_entries`.
    ReplicationLagUnder {
        /// The lag gauge's registered name (conventionally
        /// `replica_cluster_lag_entries`).
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

/// The registered name of one analyst's ε-spent gauge (the engine's
/// labels-in-name convention).
pub(crate) fn budget_spent_metric(analyst: &str) -> String {
    format!("engine_epsilon_spent{{analyst={analyst:?}}}")
}

/// One named objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The SLO's name — what `slo_firing` gauges, health reports and
    /// fired events carry.
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
}

struct SloState {
    firing: bool,
    firing_gauge: crate::metrics::Gauge,
}

/// Evaluates a fixed set of [`SloSpec`]s against successive metric
/// snapshots (see the module docs).
pub struct SloEngine {
    specs: Vec<SloSpec>,
    states: Vec<SloState>,
    /// Every burn-rate objective's ε-spent gauge in the last [`WINDOW`]
    /// scrapes, oldest first.
    history: VecDeque<BTreeMap<String, f64>>,
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("specs", &self.specs.len())
            .field("samples", &self.history.len())
            .finish()
    }
}

/// The scalar a counter or gauge snapshot carries (a histogram
/// contributes its count).
fn scalar(snap: &MetricSnapshot) -> f64 {
    match snap {
        MetricSnapshot::Counter { value, .. } => *value as f64,
        MetricSnapshot::Gauge { value, .. } => *value,
        MetricSnapshot::Histogram { summary, .. } => summary.count as f64,
    }
}

impl SloEngine {
    /// An engine evaluating `specs`, with its `slo_firing` gauges
    /// registered on `registry`.
    pub fn new(registry: &Registry, specs: Vec<SloSpec>) -> Self {
        let states = specs
            .iter()
            .map(|s| SloState {
                firing: false,
                firing_gauge: registry.gauge(&format!("slo_firing{{slo={:?}}}", s.name)),
            })
            .collect();
        Self {
            specs,
            states,
            history: VecDeque::new(),
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
    /// `slo_firing` gauges and returns the specs that flipped state.
    pub fn observe(&mut self, snapshot: &[MetricSnapshot]) -> Vec<SloTransition> {
        let spent: Vec<String> = self
            .specs
            .iter()
            .filter_map(|s| match &s.objective {
                SloObjective::BudgetBurnUnder { analyst, .. } => Some(budget_spent_metric(analyst)),
                SloObjective::ReplicationLagUnder { .. } => None,
            })
            .collect();
        let sample: BTreeMap<String, f64> = snapshot
            .iter()
            .filter(|s| spent.iter().any(|t| t == s.name()))
            .map(|s| (s.name().to_owned(), scalar(s)))
            .collect();
        self.history.push_back(sample);
        while self.history.len() > WINDOW {
            self.history.pop_front();
        }

        let mut transitions = Vec::new();
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            let firing = violated(&spec.objective, snapshot, &self.history);
            state.firing_gauge.set(if firing { 1.0 } else { 0.0 });
            if firing != state.firing {
                state.firing = firing;
                transitions.push(SloTransition {
                    slo: spec.name.clone(),
                    firing,
                });
            }
        }
        transitions
    }
}

/// Whether `objective` is violated by this scrape and the window behind
/// it.
fn violated(
    objective: &SloObjective,
    snapshot: &[MetricSnapshot],
    history: &VecDeque<BTreeMap<String, f64>>,
) -> bool {
    match objective {
        SloObjective::ReplicationLagUnder {
            metric,
            max_entries,
        } => {
            let lag = snapshot
                .iter()
                .find(|s| s.name() == metric)
                .map(scalar)
                .unwrap_or(0.0);
            lag > *max_entries
        }
        SloObjective::BudgetBurnUnder {
            analyst,
            max_eps_per_scrape,
        } => {
            // Newest minus oldest over the scrapes that carried the
            // gauge, averaged per scrape interval.
            let name = budget_spent_metric(analyst);
            let seen: Vec<f64> = history
                .iter()
                .filter_map(|s| s.get(&name).copied())
                .collect();
            match (seen.first(), seen.last()) {
                (Some(first), Some(last)) if seen.len() >= 2 => {
                    (last - first) / (seen.len() - 1) as f64 > *max_eps_per_scrape
                }
                _ => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        );
        lag.set(3.0);
        assert!(engine.observe(&r.snapshot()).is_empty());
        lag.set(40.0);
        let flips = engine.observe(&r.snapshot());
        assert_eq!(flips.len(), 1);
        assert!(flips[0].firing);
        assert_eq!(gauge_value(&r, "slo_firing{slo=\"lag\"}"), 1.0);
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
        assert_eq!(gauge_value(&r, "slo_firing{slo=\"alice-burn\"}"), 1.0);
        // Stop spending: the window slides clean and the SLO resolves.
        for _ in 0..WINDOW {
            engine.observe(&r.snapshot());
        }
        assert!(engine.firing().is_empty());
        assert_eq!(gauge_value(&r, "slo_firing{slo=\"alice-burn\"}"), 0.0);
    }
}
