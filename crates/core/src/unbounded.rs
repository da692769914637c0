//! The ⊥ extension: Blowfish without a publicly known cardinality
//! (sketched at the end of Section 3.1 and deferred to future work by
//! the paper).
//!
//! The paper's model fixes the set of individuals, so neighbors only
//! *change* tuples. To also protect membership ("individual i is not in
//! the dataset"), add a distinguished value ⊥ to the domain and secrets
//! `s^i_⊥`; edges `(⊥, x)` in the extended secret graph make presence
//! with value `x` indistinguishable from absence. We implement this as a
//! wrapper around a base [`Policy`]:
//!
//! * [`UnboundedDataset`] stores `Option<usize>` rows (`None` = absent),
//! * [`BotEdges`] selects which values are connected to ⊥
//!   (none / all / a predicate — e.g. only "low-risk" values may be
//!   plausibly absent),
//! * neighbor enumeration covers value changes *and* insertions/deletions
//!   along ⊥ edges,
//! * closed-form histogram and cumulative-histogram sensitivities adjust
//!   accordingly (an insertion/deletion moves one unit of count instead
//!   of two).

use crate::policy::Policy;
use bf_domain::{DomainError, Histogram};

/// Which domain values have a secret edge to ⊥ (may be plausibly
/// absent).
#[derive(Debug, Clone, PartialEq)]
pub enum BotEdges {
    /// No membership protection: the classical fixed-cardinality model.
    None,
    /// Every value is connected to ⊥ — full membership protection, the
    /// usual unbounded-DP analogue.
    All,
    /// Only values satisfying the mask are connected to ⊥.
    Values(Vec<bool>),
}

impl BotEdges {
    /// Whether value `x` has an edge to ⊥.
    pub(crate) fn connects(&self, x: usize) -> bool {
        match self {
            BotEdges::None => false,
            BotEdges::All => true,
            BotEdges::Values(mask) => mask[x],
        }
    }

    /// Whether any value connects to ⊥.
    pub(crate) fn any(&self, domain_size: usize) -> bool {
        match self {
            BotEdges::None => false,
            BotEdges::All => domain_size > 0,
            BotEdges::Values(mask) => mask.iter().any(|&b| b),
        }
    }
}

/// A policy extended with ⊥ membership secrets.
#[derive(Debug, Clone, PartialEq)]
pub struct UnboundedPolicy {
    base: Policy,
    bot: BotEdges,
}

impl UnboundedPolicy {
    /// Extends a constraint-free base policy with ⊥ edges.
    ///
    /// # Panics
    ///
    /// Panics when the base policy has constraints (the ⊥ extension with
    /// constraints is out of scope, as in the paper) or when a `Values`
    /// mask has the wrong length.
    pub fn new(base: Policy, bot: BotEdges) -> Self {
        assert!(
            !base.has_constraints(),
            "⊥ extension is defined for constraint-free policies"
        );
        if let BotEdges::Values(mask) = &bot {
            assert_eq!(
                mask.len(),
                base.domain().size(),
                "mask must cover the domain"
            );
        }
        Self { base, bot }
    }

    /// The base policy.
    pub(crate) fn base(&self) -> &Policy {
        &self.base
    }

    /// Whether two optional values form a discriminative pair: both
    /// present and an edge of the base graph, or one absent and the
    /// present value connected to ⊥.
    pub(crate) fn is_secret_pair(&self, a: Option<usize>, b: Option<usize>) -> bool {
        match (a, b) {
            (Some(x), Some(y)) => self.base.is_secret_pair(x, y),
            (Some(x), None) | (None, Some(x)) => self.bot.connects(x),
            (None, None) => false,
        }
    }

    /// Closed-form sensitivity of the complete histogram: a value change
    /// moves a unit between two cells (L1 = 2); an insertion/deletion
    /// changes one cell (L1 = 1). The max over allowed moves.
    pub fn histogram_sensitivity(&self) -> f64 {
        let base = crate::sensitivity::histogram_sensitivity(&self.base);
        let bot = if self.bot.any(self.base.domain().size()) {
            1.0
        } else {
            0.0
        };
        base.max(bot)
    }

    /// Closed-form sensitivity of the cumulative histogram over a 1-D
    /// ordered domain: a change spanning `k` positions shifts `k` prefix
    /// counts; inserting/deleting value `x` shifts all prefixes from `x`
    /// on — `|T| − x` of them. With `BotEdges::All` this is `|T|`
    /// (dominated by inserting the smallest value).
    pub fn cumulative_histogram_sensitivity(&self) -> f64 {
        let size = self.base.domain().size();
        let base = crate::sensitivity::cumulative_histogram_sensitivity(&self.base);
        let bot = match &self.bot {
            BotEdges::None => 0.0,
            BotEdges::All => size as f64,
            BotEdges::Values(mask) => mask
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(x, _)| (size - x) as f64)
                .fold(0.0, f64::max),
        };
        base.max(bot)
    }
}

/// A dataset whose individuals may be absent (`None` rows).
#[derive(Debug, Clone, PartialEq)]
pub struct UnboundedDataset {
    domain_size: usize,
    rows: Vec<Option<usize>>,
}

impl UnboundedDataset {
    /// Builds from optional rows.
    ///
    /// # Errors
    ///
    /// [`DomainError::IndexOutOfRange`] for out-of-domain values.
    pub fn new(domain_size: usize, rows: Vec<Option<usize>>) -> Result<Self, DomainError> {
        if let Some(&Some(bad)) = rows
            .iter()
            .find(|r| matches!(r, Some(v) if *v >= domain_size))
        {
            return Err(DomainError::IndexOutOfRange {
                index: bad,
                size: domain_size,
            });
        }
        Ok(Self { domain_size, rows })
    }

    /// Number of potential individuals (present + absent).
    pub fn universe_size(&self) -> usize {
        self.rows.len()
    }

    /// Number of present rows `|D|`.
    pub fn present_count(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Histogram over present rows only.
    pub fn histogram(&self) -> Histogram {
        let mut counts = vec![0.0; self.domain_size];
        for row in self.rows.iter().flatten() {
            counts[*row] += 1.0;
        }
        Histogram::from_counts(counts)
    }

    /// Returns a copy with individual `id` set to `value`
    /// (`None` = absent).
    pub(crate) fn with_row(&self, id: usize, value: Option<usize>) -> Result<Self, DomainError> {
        if let Some(v) = value {
            if v >= self.domain_size {
                return Err(DomainError::IndexOutOfRange {
                    index: v,
                    size: self.domain_size,
                });
            }
        }
        let mut rows = self.rows.clone();
        rows[id] = value;
        Ok(Self {
            domain_size: self.domain_size,
            rows,
        })
    }

    /// All neighbors under an unbounded policy: one individual changes
    /// value along a base edge, is inserted along a ⊥ edge, or is deleted
    /// along a ⊥ edge.
    pub fn neighbors(&self, policy: &UnboundedPolicy) -> Vec<UnboundedDataset> {
        assert_eq!(policy.base().domain().size(), self.domain_size);
        let mut out = Vec::new();
        for id in 0..self.rows.len() {
            let current = self.rows[id];
            // Moves to every other present value.
            for y in 0..self.domain_size {
                if current != Some(y) && policy.is_secret_pair(current, Some(y)) {
                    out.push(self.with_row(id, Some(y)).expect("in-domain value"));
                }
            }
            // Deletion.
            if current.is_some() && policy.is_secret_pair(current, None) {
                out.push(self.with_row(id, None).expect("absence is always valid"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::Epsilon;
    use crate::laplace::LaplaceMechanism;
    use bf_domain::Domain;

    fn policy(bot: BotEdges) -> UnboundedPolicy {
        let base = Policy::distance_threshold(Domain::line(5).unwrap(), 1);
        UnboundedPolicy::new(base, bot)
    }

    #[test]
    fn secret_pairs_cover_membership() {
        let p = policy(BotEdges::All);
        assert!(p.is_secret_pair(Some(2), Some(3)));
        assert!(!p.is_secret_pair(Some(0), Some(4)));
        assert!(p.is_secret_pair(Some(4), None));
        assert!(p.is_secret_pair(None, Some(0)));
        assert!(!p.is_secret_pair(None, None));

        let masked = policy(BotEdges::Values(vec![true, false, false, false, false]));
        assert!(masked.is_secret_pair(Some(0), None));
        assert!(!masked.is_secret_pair(Some(3), None));
    }

    #[test]
    fn neighbor_enumeration_includes_insertions_and_deletions() {
        let p = policy(BotEdges::All);
        let ds = UnboundedDataset::new(5, vec![Some(2), None]).unwrap();
        let nbrs = ds.neighbors(&p);
        // id 0: moves to 1 and 3 (θ=1), deletion. id 1: insertion at any
        // of the 5 values.
        assert_eq!(nbrs.len(), 2 + 1 + 5);
        assert!(nbrs.contains(&UnboundedDataset::new(5, vec![None, None]).unwrap()));
        assert!(nbrs.contains(&UnboundedDataset::new(5, vec![Some(2), Some(4)]).unwrap()));
    }

    #[test]
    fn no_bot_edges_recovers_bounded_model() {
        let p = policy(BotEdges::None);
        let ds = UnboundedDataset::new(5, vec![Some(2), None]).unwrap();
        let nbrs = ds.neighbors(&p);
        assert_eq!(nbrs.len(), 2); // only the value moves
        assert_eq!(p.histogram_sensitivity(), 2.0);
    }

    #[test]
    fn sensitivities() {
        assert_eq!(policy(BotEdges::All).histogram_sensitivity(), 2.0);
        assert_eq!(
            policy(BotEdges::All).cumulative_histogram_sensitivity(),
            5.0
        );
        assert_eq!(
            policy(BotEdges::None).cumulative_histogram_sensitivity(),
            1.0
        );
        // Only the largest value may be absent: inserting it shifts one
        // prefix count.
        let masked = policy(BotEdges::Values(vec![false, false, false, false, true]));
        assert_eq!(masked.cumulative_histogram_sensitivity(), 1.0);
    }

    /// Brute-force check: the closed-form histogram sensitivity bounds
    /// the L1 histogram distance over every enumerated neighbor.
    #[test]
    fn sensitivity_bounds_all_neighbors() {
        for bot in [
            BotEdges::None,
            BotEdges::All,
            BotEdges::Values(vec![true, false, true, false, false]),
        ] {
            let p = policy(bot);
            let ds = UnboundedDataset::new(5, vec![Some(0), Some(2), None]).unwrap();
            let h = ds.histogram();
            let s_hist = p.histogram_sensitivity();
            let s_cum = p.cumulative_histogram_sensitivity();
            for n in ds.neighbors(&p) {
                let hn = n.histogram();
                assert!(h.l1_distance(&hn) <= s_hist + 1e-9);
                let c: f64 = h
                    .cumulative()
                    .prefixes()
                    .iter()
                    .zip(hn.cumulative().prefixes())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(c <= s_cum + 1e-9);
            }
        }
    }

    #[test]
    fn membership_release_pipeline() {
        // Laplace histogram release calibrated to the unbounded
        // sensitivity still runs end to end.
        let p = policy(BotEdges::All);
        let ds = UnboundedDataset::new(5, vec![Some(0), Some(0), Some(3), None]).unwrap();
        let mech =
            LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), p.histogram_sensitivity()).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let out = mech.release(ds.histogram().counts(), &mut rng);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn invalid_rows_rejected() {
        assert!(UnboundedDataset::new(3, vec![Some(3)]).is_err());
        let ds = UnboundedDataset::new(3, vec![Some(1)]).unwrap();
        assert!(ds.with_row(0, Some(9)).is_err());
        assert_eq!(ds.present_count(), 1);
        assert_eq!(ds.universe_size(), 1);
    }
}
