//! Cache-friendly sensitivity entry points.
//!
//! A serving layer that answers many requests against the same policy
//! wants to pay for each policy-specific sensitivity `S(f, P)`
//! (Definition 5.1) once, not per request: the closed forms for range and
//! linear queries scan all candidate secret-graph edges — `O(|T|²)` edge
//! checks on implicit graphs — which dwarfs the per-request Laplace
//! sampling. [`QueryClass`] names each query shape the serving layer
//! routes, computes its sensitivity through the module's closed forms,
//! and produces a stable [`QueryClass::fingerprint`] so `(policy cache
//! key, class fingerprint)` can key a memo table.

use crate::policy::Policy;
use crate::sensitivity;
use bf_domain::Partition;

/// The query shapes a serving layer computes policy sensitivities for,
/// carrying exactly the parameters the sensitivity depends on.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryClass {
    /// The complete histogram `h_T`.
    Histogram,
    /// The histogram over a partition `h_P`.
    PartitionHistogram(Partition),
    /// The cumulative histogram `S_T` over the index order.
    CumulativeHistogram,
    /// A single range count `q[lo, hi]` released stand-alone.
    Range {
        /// Inclusive lower endpoint.
        lo: usize,
        /// Inclusive upper endpoint.
        hi: usize,
    },
    /// A linear query `f_w` with one weight per domain value.
    Linear {
        /// Weight vector of length `|T|`.
        weights: Vec<f64>,
    },
    /// The k-means sum query `q_sum` in the discrete ordinal embedding
    /// (Lemma 6.1), in cell units.
    KmeansSumCells,
}

impl QueryClass {
    /// The policy-specific sensitivity `S(f, P)` of this query class for a
    /// constraint-free policy, via the module's closed forms.
    ///
    /// This is the **cold path** a sensitivity cache memoizes: for
    /// [`QueryClass::Range`] and [`QueryClass::Linear`] on implicit secret
    /// graphs it scans all `O(|T|²)` candidate edges.
    pub fn sensitivity(&self, policy: &Policy) -> f64 {
        match self {
            QueryClass::Histogram => sensitivity::histogram_sensitivity(policy),
            QueryClass::PartitionHistogram(p) => {
                sensitivity::partition_histogram_sensitivity(policy, p)
            }
            QueryClass::CumulativeHistogram => {
                sensitivity::cumulative_histogram_sensitivity(policy)
            }
            QueryClass::Range { lo, hi } => sensitivity::range_sensitivity(policy, *lo, *hi),
            QueryClass::Linear { weights } => {
                sensitivity::linear_query_sensitivity(policy, weights)
            }
            QueryClass::KmeansSumCells => sensitivity::qsum_sensitivity_cells(policy),
        }
    }

    /// A stable 64-bit fingerprint of the class and every parameter its
    /// sensitivity depends on (FNV-1a over a canonical byte encoding).
    /// Equal classes have equal fingerprints, so `(Policy::cache_key,
    /// fingerprint)` is a sound memo-table key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            QueryClass::Histogram => h.byte(1),
            QueryClass::PartitionHistogram(p) => {
                h.byte(2);
                // block_of determines the partition up to relabeling, and
                // block ids are dense and ordered by first occurrence, so
                // hashing them is canonical.
                h.usize(p.domain_size());
                for x in 0..p.domain_size() {
                    h.usize(p.block_of(x) as usize);
                }
            }
            QueryClass::CumulativeHistogram => h.byte(3),
            QueryClass::Range { lo, hi } => {
                h.byte(4);
                h.usize(*lo);
                h.usize(*hi);
            }
            QueryClass::Linear { weights } => {
                h.byte(5);
                h.usize(weights.len());
                for w in weights {
                    h.u64(w.to_bits());
                }
            }
            QueryClass::KmeansSumCells => h.byte(6),
        }
        h.finish()
    }

    /// Short label for ledgers and logs.
    pub fn label(&self) -> &'static str {
        match self {
            QueryClass::Histogram => "histogram",
            QueryClass::PartitionHistogram(_) => "partition-histogram",
            QueryClass::CumulativeHistogram => "cumulative-histogram",
            QueryClass::Range { .. } => "range",
            QueryClass::Linear { .. } => "linear",
            QueryClass::KmeansSumCells => "kmeans-sum",
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::Domain;

    fn policy() -> Policy {
        Policy::distance_threshold(Domain::line(16).unwrap(), 3)
    }

    #[test]
    fn dispatch_matches_direct_closed_forms() {
        let p = policy();
        assert_eq!(
            QueryClass::Histogram.sensitivity(&p),
            sensitivity::histogram_sensitivity(&p)
        );
        assert_eq!(QueryClass::CumulativeHistogram.sensitivity(&p), 3.0);
        let w: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(
            QueryClass::Linear { weights: w.clone() }.sensitivity(&p),
            sensitivity::linear_query_sensitivity(&p, &w)
        );
        assert_eq!(QueryClass::Range { lo: 2, hi: 9 }.sensitivity(&p), 1.0);
        assert_eq!(QueryClass::KmeansSumCells.sensitivity(&p), 6.0);
    }

    #[test]
    fn fingerprints_separate_parameters() {
        let a = QueryClass::Range { lo: 0, hi: 4 };
        let b = QueryClass::Range { lo: 0, hi: 5 };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            QueryClass::Range { lo: 0, hi: 4 }.fingerprint()
        );

        let w1 = QueryClass::Linear {
            weights: vec![1.0, 2.0],
        };
        let w2 = QueryClass::Linear {
            weights: vec![1.0, 2.5],
        };
        assert_ne!(w1.fingerprint(), w2.fingerprint());
        assert_ne!(
            QueryClass::Histogram.fingerprint(),
            QueryClass::CumulativeHistogram.fingerprint()
        );
        assert_ne!(
            QueryClass::PartitionHistogram(Partition::intervals(6, 2)).fingerprint(),
            QueryClass::PartitionHistogram(Partition::intervals(6, 3)).fingerprint()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(QueryClass::Histogram.label(), "histogram");
        assert_eq!(QueryClass::Range { lo: 0, hi: 1 }.label(), "range");
    }
}
