//! Policies: `P = (T, G, I_Q)` (Definition 3.1).

use crate::constraint::CountConstraint;
use crate::error::CoreError;
use bf_domain::{Dataset, Domain, Partition};
use bf_graph::SecretGraph;

/// A Blowfish policy: the domain, the discriminative secret graph, and the
/// publicly known constraints whose satisfying set is `I_Q`.
///
/// `Policy::differential_privacy(domain)` recovers ordinary ε-differential
/// privacy: the complete secret graph and no constraints (Section 4.2).
///
/// # Examples
///
/// ```
/// use bf_core::Policy;
/// use bf_domain::Domain;
///
/// let domain = Domain::line(100).unwrap();
/// // Adversaries may not distinguish values within 5 positions.
/// let policy = Policy::distance_threshold(domain, 5);
/// assert!(policy.graph().is_edge(policy.domain(), 10, 15));
/// assert!(!policy.graph().is_edge(policy.domain(), 10, 16));
/// assert_eq!(policy.label(), "blowfish|5");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    domain: Domain,
    graph: SecretGraph,
    constraints: Vec<CountConstraint>,
}

impl Policy {
    /// A constraint-free policy `(T, G, I_n)`.
    pub fn new(domain: Domain, graph: SecretGraph) -> Self {
        Self {
            domain,
            graph,
            constraints: Vec::new(),
        }
    }

    /// The policy equivalent to ε-differential privacy:
    /// `(T, K_|T|, I_n)`.
    pub fn differential_privacy(domain: Domain) -> Self {
        Self::new(domain, SecretGraph::Full)
    }

    /// The distance-threshold policy `(T, G^{L1,θ}, I_n)`.
    pub fn distance_threshold(domain: Domain, theta: u64) -> Self {
        assert!(theta >= 1, "theta must be at least 1");
        Self::new(domain, SecretGraph::L1Threshold { theta })
    }

    /// The attribute policy `(T, G^attr, I_n)`.
    pub fn attribute(domain: Domain) -> Self {
        Self::new(domain, SecretGraph::Attribute)
    }

    /// The partitioned policy `(T, G^P, I_n)`.
    pub fn partitioned(domain: Domain, partition: Partition) -> Self {
        assert_eq!(
            partition.domain_size(),
            domain.size(),
            "partition must cover the domain"
        );
        Self::new(domain, SecretGraph::Partition(partition))
    }

    /// A policy with constraints `(T, G, I_Q)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::PredicateSizeMismatch`] when a constraint predicate does
    /// not cover the domain.
    pub fn with_constraints(
        domain: Domain,
        graph: SecretGraph,
        constraints: Vec<CountConstraint>,
    ) -> Result<Self, CoreError> {
        for c in &constraints {
            c.check_domain(domain.size())?;
        }
        Ok(Self {
            domain,
            graph,
            constraints,
        })
    }

    /// The domain `T`.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The discriminative secret graph `G`.
    pub fn graph(&self) -> &SecretGraph {
        &self.graph
    }

    /// The constraints `Q` (empty ⇒ `I_Q = I_n`).
    pub fn constraints(&self) -> &[CountConstraint] {
        &self.constraints
    }

    /// Whether the policy has constraints.
    pub fn has_constraints(&self) -> bool {
        !self.constraints.is_empty()
    }

    /// Whether a dataset lies in `I_Q` (always true without constraints).
    pub fn satisfies_constraints(&self, dataset: &Dataset) -> bool {
        self.constraints.iter().all(|c| c.holds(dataset))
    }

    /// Checks membership in `I_Q`, reporting the violated constraint.
    ///
    /// # Errors
    ///
    /// [`CoreError::ConstraintViolated`] naming the first failing
    /// constraint.
    pub fn check_constraints(&self, dataset: &Dataset) -> Result<(), CoreError> {
        for (i, c) in self.constraints.iter().enumerate() {
            if !c.holds(dataset) {
                return Err(CoreError::ConstraintViolated { constraint: i });
            }
        }
        Ok(())
    }

    /// Whether `(x, y)` is a discriminative pair (per individual) — an edge
    /// of `G`.
    pub(crate) fn is_secret_pair(&self, x: usize, y: usize) -> bool {
        self.graph.is_edge(&self.domain, x, y)
    }

    /// A stable identity string for sensitivity caching: the graph label,
    /// constraints, and the domain's attribute cardinalities.
    ///
    /// Two policies with equal cache keys have the same domain shape, a
    /// secret graph on which every closed-form sensitivity in
    /// [`crate::sensitivity`] agrees, and the same constraint set (so
    /// Section 8 policy-graph bounds agree too). The label alone is not
    /// enough for the graph families with free structure —
    /// `partition|{n}` says how many blocks, not which values share one,
    /// and `custom` says nothing — so for those the key also hashes the
    /// block assignment / edge list; likewise `+{n}q` says how many
    /// constraints, not which, so constrained policies hash every
    /// predicate and declared answer into the key.
    pub fn cache_key(&self) -> String {
        let cards: Vec<usize> = self
            .domain
            .attributes()
            .iter()
            .map(|a| a.cardinality())
            .collect();
        let mut key = match &self.graph {
            SecretGraph::Custom(g) => {
                let mut edges = g.edges().to_vec();
                edges.sort_unstable();
                let h = fnv1a_u64s(edges.iter().flat_map(|&(u, v)| [u as u64, v as u64]));
                format!("{}#{h:016x}@{cards:?}", self.label())
            }
            SecretGraph::Partition(p) => {
                let h = fnv1a_u64s((0..p.domain_size()).map(|x| p.block_of(x) as u64));
                format!("{}#{h:016x}@{cards:?}", self.label())
            }
            _ => format!("{}@{cards:?}", self.label()),
        };
        if self.has_constraints() {
            let h = fnv1a_u64s(self.constraints.iter().flat_map(|c| {
                std::iter::once(c.answer()).chain(
                    (0..c.predicate().domain_size()).map(|x| u64::from(c.predicate().eval(x))),
                )
            }));
            key.push_str(&format!("+Q#{h:016x}"));
        }
        key
    }

    /// Figure-legend style label, e.g. `full`, `blowfish|64`,
    /// `partition|100`.
    pub fn label(&self) -> String {
        let mut label = self.graph.label();
        if self.has_constraints() {
            label.push_str(&format!("+{}q", self.constraints.len()));
        }
        label
    }
}

/// FNV-1a over a word stream (canonical fingerprint for cache keys).
fn fnv1a_u64s(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Predicate;

    fn domain() -> Domain {
        Domain::from_cardinalities(&[2, 3]).unwrap()
    }

    #[test]
    fn dp_policy_is_full_graph() {
        let p = Policy::differential_privacy(domain());
        assert!(p.is_secret_pair(0, 5));
        assert!(!p.has_constraints());
        assert_eq!(p.label(), "full");
    }

    #[test]
    fn distance_threshold_policy() {
        let p = Policy::distance_threshold(Domain::line(10).unwrap(), 3);
        assert!(p.is_secret_pair(0, 3));
        assert!(!p.is_secret_pair(0, 4));
        assert_eq!(p.label(), "blowfish|3");
    }

    #[test]
    fn constrained_policy_membership() {
        let d = domain();
        let ds = Dataset::from_rows(d.clone(), vec![0, 1, 5]).unwrap();
        let c = CountConstraint::observed(Predicate::of_values(6, &[0, 1]), &ds);
        let p = Policy::with_constraints(d, SecretGraph::Full, vec![c]).unwrap();
        assert!(p.satisfies_constraints(&ds));
        assert!(p.check_constraints(&ds).is_ok());
        let ds2 = ds.with_row(0, 5).unwrap();
        assert!(!p.satisfies_constraints(&ds2));
        assert_eq!(
            p.check_constraints(&ds2),
            Err(CoreError::ConstraintViolated { constraint: 0 })
        );
        assert_eq!(p.label(), "full+1q");
    }

    #[test]
    fn constraint_size_validated() {
        let d = domain();
        let c = CountConstraint::new(Predicate::of_values(5, &[0]), 1);
        assert!(Policy::with_constraints(d, SecretGraph::Full, vec![c]).is_err());
    }

    #[test]
    fn cache_keys_separate_equal_block_count_partitions() {
        // Same domain, same number of blocks, different assignments —
        // labels collide ("partition|2") but cache keys must not: their
        // cumulative-histogram sensitivities differ (3 vs 7).
        let d = Domain::line(8).unwrap();
        let contiguous = Policy::partitioned(d.clone(), Partition::intervals(8, 4));
        let interleaved = Policy::partitioned(
            d.clone(),
            Partition::new(vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap(),
        );
        assert_eq!(contiguous.label(), interleaved.label());
        assert_ne!(contiguous.cache_key(), interleaved.cache_key());
        // Same assignment → same key.
        let again = Policy::partitioned(d, Partition::intervals(8, 4));
        assert_eq!(contiguous.cache_key(), again.cache_key());
    }

    #[test]
    fn cache_keys_include_domain_and_graph_parameters() {
        let a = Policy::distance_threshold(Domain::line(8).unwrap(), 2);
        let b = Policy::distance_threshold(Domain::line(8).unwrap(), 3);
        let c = Policy::distance_threshold(Domain::line(9).unwrap(), 2);
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_eq!(
            a.cache_key(),
            Policy::distance_threshold(Domain::line(8).unwrap(), 2).cache_key()
        );
    }

    #[test]
    fn cache_keys_separate_constraint_sets() {
        // Same domain, same graph, same constraint COUNT — labels and
        // pre-constraint keys collide, but the policy-graph bounds can
        // differ, so the keys must not: a serving layer coalescing on
        // the key would otherwise share one release across policies
        // calibrated differently.
        let d = Domain::line(6).unwrap();
        let narrow = Policy::with_constraints(
            d.clone(),
            SecretGraph::Full,
            vec![CountConstraint::new(Predicate::of_values(6, &[0]), 1)],
        )
        .unwrap();
        let wide = Policy::with_constraints(
            d.clone(),
            SecretGraph::Full,
            vec![CountConstraint::new(Predicate::of_values(6, &[0, 1, 2]), 1)],
        )
        .unwrap();
        let different_answer = Policy::with_constraints(
            d.clone(),
            SecretGraph::Full,
            vec![CountConstraint::new(Predicate::of_values(6, &[0]), 3)],
        )
        .unwrap();
        assert_eq!(narrow.label(), wide.label());
        assert_ne!(narrow.cache_key(), wide.cache_key());
        assert_ne!(narrow.cache_key(), different_answer.cache_key());
        // Constrained vs constraint-free never collide either.
        assert_ne!(
            narrow.cache_key(),
            Policy::differential_privacy(d.clone()).cache_key()
        );
        // Identical constraint sets agree.
        let again = Policy::with_constraints(
            d,
            SecretGraph::Full,
            vec![CountConstraint::new(Predicate::of_values(6, &[0]), 1)],
        )
        .unwrap();
        assert_eq!(narrow.cache_key(), again.cache_key());
    }

    #[test]
    fn partitioned_policy() {
        let d = Domain::line(6).unwrap();
        let p = Policy::partitioned(d, Partition::intervals(6, 2));
        assert!(p.is_secret_pair(0, 1));
        assert!(!p.is_secret_pair(1, 2));
    }
}
