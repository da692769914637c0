//! Query workloads with their policy-specific sensitivities.
//!
//! Each query type knows how to evaluate itself exactly on a dataset and
//! how to compute its policy-specific global sensitivity for
//! constraint-free policies, so `LaplaceMechanism::new(ε, q.sensitivity(P))`
//! is always correctly calibrated (Theorem 5.1).

use crate::constraint::Predicate;
use crate::policy::Policy;
use crate::sensitivity;
use bf_domain::{Dataset, DomainError, Partition};
use bf_graph::SecretGraph;

/// The complete (or partitioned) histogram query `h_P` (Section 2).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramQuery {
    /// `None` → the complete histogram `h_T`; `Some` → counts per block.
    pub partition: Option<Partition>,
}

impl HistogramQuery {
    /// The complete histogram `h_T`.
    pub fn complete() -> Self {
        Self { partition: None }
    }

    /// Histogram over a partition `h_P`.
    pub fn over(partition: Partition) -> Self {
        Self {
            partition: Some(partition),
        }
    }

    /// Exact evaluation.
    pub fn eval(&self, dataset: &Dataset) -> Vec<f64> {
        let h = dataset.histogram();
        match &self.partition {
            None => h.counts().to_vec(),
            Some(p) => h
                .coarsen(p)
                .expect("partition validated against the domain")
                .counts()
                .to_vec(),
        }
    }

    /// Output dimensionality.
    pub fn dimension(&self, domain_size: usize) -> usize {
        self.partition
            .as_ref()
            .map_or(domain_size, Partition::num_blocks)
    }

    /// Policy-specific sensitivity for constraint-free policies.
    pub fn sensitivity(&self, policy: &Policy) -> f64 {
        match &self.partition {
            None => sensitivity::histogram_sensitivity(policy),
            Some(p) => sensitivity::partition_histogram_sensitivity(policy, p),
        }
    }
}

/// The cumulative histogram query `S_T` (Definition 7.1); domain must be
/// totally ordered (we use index order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CumulativeHistogramQuery;

impl CumulativeHistogramQuery {
    /// Exact evaluation: prefix counts.
    pub fn eval(&self, dataset: &Dataset) -> Vec<f64> {
        dataset.histogram().cumulative().prefixes().to_vec()
    }

    /// Output dimensionality `|T|`.
    pub fn dimension(&self, domain_size: usize) -> usize {
        domain_size
    }

    /// Policy-specific sensitivity: `max_{(x,y)∈E} |x − y|` (θ for
    /// `G^{L1,θ}`, `|T|−1` for the full graph).
    pub fn sensitivity(&self, policy: &Policy) -> f64 {
        sensitivity::cumulative_histogram_sensitivity(policy)
    }
}

/// A range count query `q[lo, hi]` over a totally ordered domain
/// (Definition 7.2; inclusive 0-based endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeQuery {
    /// Inclusive lower endpoint.
    pub lo: usize,
    /// Inclusive upper endpoint.
    pub hi: usize,
}

impl RangeQuery {
    /// Builds `q[lo, hi]`, validating against a domain size.
    ///
    /// # Errors
    ///
    /// [`DomainError::InvalidRange`] for empty or out-of-bounds ranges.
    pub fn new(lo: usize, hi: usize, domain_size: usize) -> Result<Self, DomainError> {
        if lo > hi || hi >= domain_size {
            return Err(DomainError::InvalidRange {
                lo,
                hi,
                size: domain_size,
            });
        }
        Ok(Self { lo, hi })
    }

    /// Exact evaluation.
    pub fn eval(&self, dataset: &Dataset) -> f64 {
        dataset
            .histogram()
            .range_count(self.lo, self.hi)
            .expect("validated range")
    }

    /// Range width in values.
    pub fn width(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// Policy-specific sensitivity as a standalone count release: a single
    /// move changes the count by at most 1 (the tuple either enters or
    /// leaves the range), so the sensitivity is 1 when some secret edge
    /// crosses the range boundary and 0 when none does. A *connected*
    /// graph — `G^full`, `G^attr`, and `G^{L1,θ}` with θ ≥ 1, on any
    /// domain — has such an edge exactly when the range meets the domain
    /// in a non-empty proper subset, which is `O(1)` to decide; the other
    /// graphs enumerate their actual edges and stop at the first crossing
    /// (`O(|E|)` worst case).
    pub fn sensitivity(&self, policy: &Policy) -> f64 {
        let domain = policy.domain();
        let inside = |x: usize| self.lo <= x && x <= self.hi;
        let crossing = match policy.graph() {
            SecretGraph::Full
            | SecretGraph::Attribute
            | SecretGraph::L1Threshold { theta: 1.. } => {
                // Stated on `inside ∩ T` so raw (unvalidated) endpoints
                // past the domain or inverted degrade exactly like the
                // edge scan does.
                let n = domain.size();
                self.lo <= self.hi && self.lo < n && (self.lo > 0 || self.hi < n - 1)
            }
            graph => graph
                .find_edge(domain, |x, y| inside(x) != inside(y))
                .is_some(),
        };
        if crossing {
            1.0
        } else {
            0.0
        }
    }
}

/// A count query `q_φ` (Section 8) as a releasable query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountQuery {
    /// The predicate `φ`.
    pub predicate: Predicate,
}

impl CountQuery {
    /// Wraps a predicate.
    pub fn new(predicate: Predicate) -> Self {
        Self { predicate }
    }

    /// Exact evaluation.
    pub fn eval(&self, dataset: &Dataset) -> f64 {
        self.predicate.count(dataset) as f64
    }

    /// Policy-specific sensitivity for constraint-free policies: 1 when
    /// some secret edge crosses the predicate boundary, else 0. The
    /// crossing check enumerates actual edges with early exit; for the
    /// complete graph it reduces to "is the predicate non-constant".
    pub fn sensitivity(&self, policy: &Policy) -> f64 {
        let domain = policy.domain();
        assert_eq!(self.predicate.domain_size(), domain.size());
        let crossing = match policy.graph() {
            SecretGraph::Full => {
                domain.indices().any(|x| self.predicate.eval(x))
                    && domain.indices().any(|x| !self.predicate.eval(x))
            }
            graph => graph
                .find_edge(domain, |x, y| {
                    self.predicate.eval(x) != self.predicate.eval(y)
                })
                .is_some(),
        };
        if crossing {
            1.0
        } else {
            0.0
        }
    }
}

/// A linear query `f_w(D) = Σ_x w(x) · c(x)` with one weight per domain
/// value (Section 5's linear sum example in histogram form).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearQuery {
    /// Weight per domain value.
    pub weights: Vec<f64>,
}

impl LinearQuery {
    /// Wraps a weight vector.
    pub fn new(weights: Vec<f64>) -> Self {
        Self { weights }
    }

    /// Exact evaluation.
    pub fn eval(&self, dataset: &Dataset) -> f64 {
        assert_eq!(self.weights.len(), dataset.domain().size());
        dataset.rows().iter().map(|&r| self.weights[r]).sum()
    }

    /// Policy-specific sensitivity: `max_{(x,y)∈E} |w(x) − w(y)|`.
    pub fn sensitivity(&self, policy: &Policy) -> f64 {
        sensitivity::linear_query_sensitivity(policy, &self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::brute_force_sensitivity;
    use bf_domain::Domain;

    const CAP: f64 = 2e6;

    fn line_ds() -> Dataset {
        let d = Domain::line(5).unwrap();
        Dataset::from_rows(d, vec![0, 1, 1, 4]).unwrap()
    }

    #[test]
    fn histogram_query_eval() {
        let q = HistogramQuery::complete();
        assert_eq!(q.eval(&line_ds()), vec![1.0, 2.0, 0.0, 0.0, 1.0]);
        assert_eq!(q.dimension(5), 5);
        let part = Partition::intervals(5, 2);
        let qp = HistogramQuery::over(part);
        assert_eq!(qp.eval(&line_ds()), vec![3.0, 0.0, 1.0]);
        assert_eq!(qp.dimension(5), 3);
    }

    #[test]
    fn cumulative_query_eval() {
        let q = CumulativeHistogramQuery;
        assert_eq!(q.eval(&line_ds()), vec![1.0, 3.0, 3.0, 3.0, 4.0]);
    }

    #[test]
    fn range_query_eval_and_sensitivity() {
        let q = RangeQuery::new(1, 3, 5).unwrap();
        assert_eq!(q.eval(&line_ds()), 2.0);
        assert_eq!(q.width(), 3);
        assert!(RangeQuery::new(3, 1, 5).is_err());

        let p1 = Policy::distance_threshold(Domain::line(5).unwrap(), 1);
        assert_eq!(q.sensitivity(&p1), 1.0);

        // A policy partitioned so no edge crosses the boundary of [0,1]:
        let part = Partition::intervals(5, 2); // {0,1},{2,3},{4}
        let pp = Policy::partitioned(Domain::line(5).unwrap(), part);
        let q01 = RangeQuery::new(0, 1, 5).unwrap();
        assert_eq!(q01.sensitivity(&pp), 0.0);
    }

    #[test]
    fn range_sensitivity_full_graph_with_unvalidated_endpoints() {
        // RangeQuery's fields are public (and QueryClass::Range builds
        // one without RangeQuery::new), so the Full-graph short-circuit
        // must match the edge scan even for endpoints outside the domain
        // or inverted.
        let n = 10;
        let full = Policy::differential_privacy(Domain::line(n).unwrap());
        let scan = |lo: usize, hi: usize| {
            let inside = |x: usize| lo <= x && x <= hi;
            let crossing = (0..n).any(|x| (0..n).any(|y| x != y && inside(x) != inside(y)));
            if crossing {
                1.0
            } else {
                0.0
            }
        };
        for (lo, hi) in [
            (5, 20),  // straddles the upper domain edge → crossing
            (12, 13), // entirely past the domain → empty inside-set
            (0, 20),  // covers the whole domain → no crossing
            (0, 9),   // exactly the domain → no crossing
            (7, 3),   // inverted → empty inside-set
            (3, 5),   // ordinary interior range
            (0, 0),   // prefix of one value
            (9, 9),   // suffix of one value
        ] {
            let q = RangeQuery { lo, hi };
            assert_eq!(
                q.sensitivity(&full),
                scan(lo, hi),
                "full-graph range [{lo}, {hi}] on |T|={n}"
            );
        }
    }

    #[test]
    fn range_closed_form_agrees_with_the_edge_scan() {
        // Every (lo, hi) — inverted and past-the-end ones included — under
        // every graph the closed form answers (and θ = 0, which it leaves
        // to the scan), on lines and on multi-attribute domains.
        let mut domains: Vec<Domain> = (1..=12).map(|n| Domain::line(n).unwrap()).collect();
        for cards in [&[2, 2][..], &[4, 3], &[1, 3], &[2, 1, 2], &[4, 3, 2]] {
            domains.push(Domain::from_cardinalities(cards).unwrap());
        }
        for domain in domains {
            let n = domain.size();
            let graphs = (0..=5)
                .map(|theta| SecretGraph::L1Threshold { theta })
                .chain([SecretGraph::Attribute, SecretGraph::Full]);
            for graph in graphs {
                let policy = Policy::new(domain.clone(), graph.clone());
                for lo in 0..n + 3 {
                    for hi in 0..n + 3 {
                        let inside = |x: usize| lo <= x && x <= hi;
                        let scan = graph
                            .find_edge(&domain, |x, y| inside(x) != inside(y))
                            .is_some();
                        assert_eq!(
                            RangeQuery { lo, hi }.sensitivity(&policy),
                            if scan { 1.0 } else { 0.0 },
                            "{} range [{lo}, {hi}] on {domain:?}",
                            graph.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_sensitivity_matches_brute_force() {
        let p = Policy::distance_threshold(Domain::line(4).unwrap(), 1);
        let q = RangeQuery::new(1, 2, 4).unwrap();
        let wrapped = move |d: &Dataset| vec![q.eval(d)];
        let bf = brute_force_sensitivity(&p, 2, &wrapped, CAP).unwrap();
        assert_eq!(bf, q.sensitivity(&p));
    }

    #[test]
    fn count_query_sensitivity() {
        let p = Policy::distance_threshold(Domain::line(4).unwrap(), 1);
        // Predicate {0,1}: edge (1,2) crosses → 1.
        let q = CountQuery::new(Predicate::of_values(4, &[0, 1]));
        assert_eq!(q.sensitivity(&p), 1.0);
        // Predicate covering everything: nothing crosses → 0.
        let q_all = CountQuery::new(Predicate::of_values(4, &[0, 1, 2, 3]));
        assert_eq!(q_all.sensitivity(&p), 0.0);
        assert_eq!(
            q.eval(&Dataset::from_rows(p.domain().clone(), vec![0, 2]).unwrap()),
            1.0
        );
    }

    #[test]
    fn linear_query_eval_and_sensitivity() {
        let d = Domain::line(3).unwrap();
        let ds = Dataset::from_rows(d.clone(), vec![0, 2, 2]).unwrap();
        let q = LinearQuery::new(vec![1.0, 5.0, 10.0]);
        assert_eq!(q.eval(&ds), 21.0);
        let dp = Policy::differential_privacy(d.clone());
        assert_eq!(q.sensitivity(&dp), 9.0);
        let near = Policy::distance_threshold(d, 1);
        assert_eq!(q.sensitivity(&near), 5.0);
    }

    #[test]
    fn linear_sensitivity_matches_brute_force() {
        let d = Domain::line(3).unwrap();
        let q = LinearQuery::new(vec![1.0, 5.0, 10.0]);
        for policy in [
            Policy::differential_privacy(d.clone()),
            Policy::distance_threshold(d.clone(), 1),
        ] {
            let q2 = q.clone();
            let wrapped = move |ds: &Dataset| vec![q2.eval(ds)];
            let bf = brute_force_sensitivity(&policy, 2, &wrapped, CAP).unwrap();
            assert_eq!(bf, q.sensitivity(&policy), "{}", policy.label());
        }
    }
}
