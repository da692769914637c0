//! One categorical draw over fixed weights, shared by every generator.
//!
//! A draw consumes one word, `rng.random::<f64>() * total`, and finds the
//! candidate index by binary search over the weights' prefix sums. The
//! candidate is returned only when the pick lies more than a margin from
//! both neighbouring prefix sums; otherwise the subtractive scan the
//! generators always used decides. The margin, `4·S·f64::EPSILON·total`
//! for `S` weights, is four times the sum of the prefix sums' and the
//! scan's worst rounding (each at most `S·2⁻⁵³·total`, Higham 1993), so
//! outside it the two agree and every generator emits the rows it always
//! did.

use rand::Rng;

/// `1/rᵉ` for ranks `r = 1..=s`.
pub(crate) fn zipf_weights(s: usize, exponent: f64) -> Vec<f64> {
    (1..=s).map(|r| 1.0 / (r as f64).powf(exponent)).collect()
}

/// Draws an index in `0..weights.len()` with probability proportional
/// to its weight.
pub(crate) struct WeightedDraw {
    weights: Vec<f64>,
    /// `prefix[i]` is `weights[..i]` summed left to right, so the last
    /// entry is the total `Iterator::sum` gives.
    prefix: Vec<f64>,
    margin: f64,
}

impl WeightedDraw {
    pub(crate) fn new(weights: Vec<f64>) -> Self {
        let mut prefix = vec![0.0];
        prefix.extend(weights.iter().scan(0.0, |sum, &w| {
            *sum += w;
            Some(*sum)
        }));
        let total = prefix[weights.len()];
        assert!(total > 0.0, "weights must have a positive total");
        let margin = 4.0 * weights.len() as f64 * f64::EPSILON * total;
        Self {
            weights,
            prefix,
            margin,
        }
    }

    pub(crate) fn sample(&self, rng: &mut impl Rng) -> usize {
        self.index(rng.random::<f64>() * self.total())
    }

    fn total(&self) -> f64 {
        self.prefix[self.weights.len()]
    }

    fn index(&self, pick: f64) -> usize {
        self.certified(pick).unwrap_or_else(|| self.scan(pick))
    }

    /// The searched index, when `pick` is clear of both its bounds.
    fn certified(&self, pick: f64) -> Option<usize> {
        let last = self.weights.len() - 1;
        let i = self.prefix[1..].partition_point(|&p| p <= pick).min(last);
        (pick - self.prefix[i] > self.margin && self.prefix[i + 1] - pick > self.margin)
            .then_some(i)
    }

    fn scan(&self, mut pick: f64) -> usize {
        for (i, &w) in self.weights.iter().enumerate() {
            if pick < w {
                return i;
            }
            pick -= w;
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    /// The tables the generators draw from: the bench's two Zipf
    /// shapes, the adult spikes at their largest count, and the twitter
    /// metros.
    fn tables() -> Vec<Vec<f64>> {
        vec![
            zipf_weights(2_000, 1.1),
            zipf_weights(400, 1.1),
            zipf_weights(73, 1.05),
            crate::twitter::metros().iter().map(|c| c.weight).collect(),
        ]
    }

    #[test]
    fn seeded_picks_rank_as_the_scan_does() {
        for (t, weights) in tables().into_iter().enumerate() {
            let draw = WeightedDraw::new(weights);
            let total = draw.total();
            let mut rng = seeded_rng(t as u64);
            for _ in 0..if cfg!(debug_assertions) {
                100_000
            } else {
                1_000_000
            } {
                let pick = rng.random::<f64>() * total;
                assert_eq!(
                    draw.index(pick),
                    draw.scan(pick),
                    "table {t}, pick {pick:e}"
                );
            }
        }
    }

    #[test]
    fn picks_beside_every_prefix_sum_fall_back_to_the_scan() {
        for (t, weights) in tables().into_iter().enumerate() {
            let draw = WeightedDraw::new(weights);
            let total = draw.total();
            let mut fell_back = 0;
            for &p in &draw.prefix {
                for ulps in -64i64..=64 {
                    let pick = f64::from_bits(p.to_bits().wrapping_add_signed(ulps));
                    if !(0.0..=total).contains(&pick) {
                        continue;
                    }
                    // Only the metros (S = 8) have prefix sums whose 64
                    // ulps reach past the margin.
                    match draw.certified(pick) {
                        Some(i) => {
                            assert!((pick - p).abs() > draw.margin, "table {t}, pick {pick:e}");
                            assert_eq!(i, draw.scan(pick), "table {t}, pick {pick:e}");
                        }
                        None => fell_back += 1,
                    }
                }
            }
            assert!(
                fell_back > 64 * draw.weights.len(),
                "table {t}: {fell_back} fell back"
            );
        }
    }
}
