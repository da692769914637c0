//! The adult-capital-loss-like ordinal dataset (Section 7.3, Figure 2b).
//!
//! The paper's experiment: the `capital-loss` attribute of the 48,842-row
//! UCI Adult census dataset, an ordinal domain of size 4,357. The real
//! attribute is extremely sparse: ~95.3% of rows are exactly 0 and the
//! remainder concentrates on a few dozen distinct values, mostly between
//! 1,400 and 2,600 (specific deduction amounts). That sparsity
//! (`p ≪ |T|` distinct cumulative counts) is what Figure 2(b) exercises.

use bf_domain::{Dataset, Domain};
use rand::Rng;

/// Rows in the UCI Adult dataset.
pub const ADULT_N: usize = 48_842;

/// Domain size of the capital-loss attribute.
pub(crate) const ADULT_DOMAIN: usize = 4_357;

/// Fraction of rows with capital-loss = 0 in the real data.
pub(crate) const ZERO_FRACTION: f64 = 0.953;

/// Arbitrary-size variant for quick runs and tests.
pub fn adult_capital_loss_like_sized(n: usize, rng: &mut impl Rng) -> Dataset {
    // ~70 spike positions concentrated in [1400, 2600] with a few
    // outliers, weighted by a Zipf-like law — mirroring the real
    // attribute's support.
    let mut spikes: Vec<usize> = Vec::new();
    let mut cursor = 1400usize;
    while cursor < 2600 && spikes.len() < 64 {
        spikes.push(cursor);
        cursor += 12 + rng.random_range(0..25usize);
    }
    // A handful of small and large outliers.
    for s in [155, 213, 323, 625, 2824, 3004, 3683, 3900, 4356] {
        spikes.push(s);
    }
    let weights: Vec<f64> = (1..=spikes.len())
        .map(|r| 1.0 / (r as f64).powf(1.05))
        .collect();
    let total: f64 = weights.iter().sum();

    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.random::<f64>() < ZERO_FRACTION {
            rows.push(0);
            continue;
        }
        let mut pick = rng.random::<f64>() * total;
        let mut idx = spikes.len() - 1;
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                idx = i;
                break;
            }
            pick -= w;
        }
        rows.push(spikes[idx]);
    }
    let domain = Domain::line(ADULT_DOMAIN).expect("static domain");
    Dataset::from_rows(domain, rows).expect("spikes lie in the domain")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn shape() {
        let mut rng = seeded_rng(31);
        let ds = adult_capital_loss_like_sized(10_000, &mut rng);
        assert_eq!(ds.len(), 10_000);
        assert_eq!(ds.domain().size(), ADULT_DOMAIN);
    }

    #[test]
    fn sparsity_matches_real_attribute() {
        let mut rng = seeded_rng(32);
        let ds = adult_capital_loss_like_sized(40_000, &mut rng);
        let h = ds.histogram();
        let zeros = h.count(0);
        assert!(
            (zeros / 40_000.0 - ZERO_FRACTION).abs() < 0.01,
            "zero fraction {}",
            zeros / 40_000.0
        );
        // Support is tiny relative to the domain.
        assert!(h.support_size() < 100, "support {}", h.support_size());
        // Distinct cumulative counts p << |T| — the ordered mechanism's
        // friend.
        let p = h.cumulative().distinct_count();
        assert!(p < 110, "p = {p}");
    }

    #[test]
    fn mass_concentrates_in_deduction_band() {
        let mut rng = seeded_rng(33);
        let ds = adult_capital_loss_like_sized(40_000, &mut rng);
        let h = ds.histogram();
        let band: f64 = (1400..2600).map(|i| h.count(i)).sum();
        let nonzero = 40_000.0 - h.count(0);
        assert!(band / nonzero > 0.8, "band share {}", band / nonzero);
    }
}
