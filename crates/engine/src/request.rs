//! Typed requests and responses.
//!
//! A [`Request`] names a registered policy and data object, carries the ε
//! the analyst is willing to spend, and a [`RequestKind`] saying which of
//! the paper's query families to run. The engine routes each kind to the
//! mechanism the paper prescribes for it (see `crate::engine`).
//!
//! [`ADMISSIBLE`] declares, once, the set every field of a request must
//! lie in. The engine runs it on every request before anything is
//! charged, so a request that is charged is one its mechanism can serve.

use crate::error::EngineError;
use bf_core::{Epsilon, Policy, QueryClass};
use bf_domain::{Dataset, PointSet};
use bf_mechanisms::kmeans::KmeansSecretSpec;
use KmeansSecretSpec::{L1Threshold, PartitionMaxDiameter};
use RequestKind::{CumulativeHistogram, KMeans, Linear, Range};

/// One query against the engine.
#[derive(Debug, Clone)]
pub struct Request {
    /// Name of the registered policy to serve under.
    pub policy: String,
    /// Name of the registered dataset (or point set, for k-means).
    pub data: String,
    /// Privacy budget this request spends from the analyst's ledger.
    pub epsilon: Epsilon,
    /// The query itself.
    pub kind: RequestKind,
}

/// The query families the engine serves.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// The complete histogram `h_T`, Laplace-perturbed (Theorem 5.1).
    Histogram,
    /// The cumulative histogram `S_T` via the Ordered Mechanism
    /// (Section 7.1), boosted with constrained inference.
    CumulativeHistogram,
    /// A stand-alone range count `q[lo, hi]`, released as a single
    /// Laplace count calibrated to the range's own policy sensitivity.
    Range {
        /// Inclusive lower endpoint.
        lo: usize,
        /// Inclusive upper endpoint.
        hi: usize,
    },
    /// A linear query `f_w(D) = Σ_x w(x)·c(x)`.
    Linear {
        /// One weight per domain value.
        weights: Vec<f64>,
    },
    /// SuLQ-style private k-means (Section 6) over a registered point
    /// set.
    KMeans {
        /// Number of clusters.
        k: usize,
        /// Lloyd iterations (the paper uses 10).
        iterations: usize,
        /// Sensitive-information spec in the points' physical units.
        spec: KmeansSecretSpec,
    },
}

impl Request {
    /// A complete-histogram request.
    pub fn histogram(policy: impl Into<String>, data: impl Into<String>, epsilon: Epsilon) -> Self {
        Self {
            policy: policy.into(),
            data: data.into(),
            epsilon,
            kind: RequestKind::Histogram,
        }
    }

    /// A cumulative-histogram request.
    pub fn cumulative_histogram(
        policy: impl Into<String>,
        data: impl Into<String>,
        epsilon: Epsilon,
    ) -> Self {
        Self {
            policy: policy.into(),
            data: data.into(),
            epsilon,
            kind: RequestKind::CumulativeHistogram,
        }
    }

    /// A range-count request `q[lo, hi]` (inclusive).
    pub fn range(
        policy: impl Into<String>,
        data: impl Into<String>,
        epsilon: Epsilon,
        lo: usize,
        hi: usize,
    ) -> Self {
        Self {
            policy: policy.into(),
            data: data.into(),
            epsilon,
            kind: RequestKind::Range { lo, hi },
        }
    }

    /// A linear-query request.
    pub fn linear(
        policy: impl Into<String>,
        data: impl Into<String>,
        epsilon: Epsilon,
        weights: Vec<f64>,
    ) -> Self {
        Self {
            policy: policy.into(),
            data: data.into(),
            epsilon,
            kind: RequestKind::Linear { weights },
        }
    }

    /// A private k-means request.
    pub fn kmeans(
        policy: impl Into<String>,
        data: impl Into<String>,
        epsilon: Epsilon,
        k: usize,
        iterations: usize,
        spec: KmeansSecretSpec,
    ) -> Self {
        Self {
            policy: policy.into(),
            data: data.into(),
            epsilon,
            kind: RequestKind::KMeans {
                k,
                iterations,
                spec,
            },
        }
    }

    /// The [`QueryClass`] whose policy sensitivity calibrates this
    /// request, or `None` for kinds whose sensitivity does not come from
    /// the secret-graph closed forms (k-means uses its physical-unit
    /// spec).
    pub fn query_class(&self) -> Option<QueryClass> {
        match &self.kind {
            RequestKind::Histogram => Some(QueryClass::Histogram),
            RequestKind::CumulativeHistogram => Some(QueryClass::CumulativeHistogram),
            RequestKind::Range { lo, hi } => Some(QueryClass::Range { lo: *lo, hi: *hi }),
            RequestKind::Linear { weights } => Some(QueryClass::Linear {
                weights: weights.clone(),
            }),
            RequestKind::KMeans { .. } => None,
        }
    }

    /// Ledger label, e.g. `histogram@census/adult`.
    pub(crate) fn label(&self) -> String {
        let kind = match &self.kind {
            RequestKind::Histogram => "histogram",
            RequestKind::CumulativeHistogram => "cumulative",
            RequestKind::Range { .. } => "range",
            RequestKind::Linear { .. } => "linear",
            RequestKind::KMeans { .. } => "kmeans",
        };
        format!("{kind}@{}/{}", self.policy, self.data)
    }
}

/// The data object a request names.
pub(crate) enum Data<'a> {
    /// A dataset, and the release's `S(f, P)`, computed on first call —
    /// which only the ε row makes, once the rows above hold (the closed
    /// forms assert on what they refuse). `None` while a fold asks
    /// whether a range may join it: the ε row waits for calibration.
    Table(&'a Dataset, Option<&'a dyn Fn() -> f64>),
    Points(&'a PointSet),
}

/// One row of [`ADMISSIBLE`]: a field, its admissible set, the refusal of
/// a request outside it, and the test for outside — given the request,
/// its policy and the data object it names.
pub(crate) struct Admissible {
    pub(crate) field: &'static str,
    pub(crate) set: &'static str,
    pub(crate) refusal: &'static str,
    outside: fn(&Request, &Policy, &Data<'_>) -> bool,
}

macro_rules! admissible {
    ($($field:literal: $set:literal, $refusal:literal, $outside:expr;)*) => {
        /// The admissible-value table, in the order it is checked: the ε
        /// row needs the rest to hold. README's "Admissible requests" is
        /// this table.
        pub(crate) const ADMISSIBLE: &[Admissible] = &[$(
            Admissible { field: $field, set: $set, refusal: $refusal, outside: $outside },
        )*];
    };
}

admissible! {
    "policy": "constraint-free for cumulative and k-means requests",
        "the Theorem 8.2 bound calibrates histogram, range and linear releases only",
        |r, p, _| p.has_constraints() && matches!(r.kind, CumulativeHistogram | KMeans { .. });
    "data": "a dataset's domain is the policy's domain", "the dataset's domain is not the policy's",
        |_, p, data| matches!(data, Data::Table(d, _) if d.domain() != p.domain());
    "lo, hi": "lo ≤ hi < |T|", "range outside the domain",
        |r, p, _| matches!(r.kind, Range { lo, hi } if lo > hi || hi >= p.domain().size());
    // n is public under Blowfish's bounded neighbours, so refusing on
    // max|w|·n depends on nothing secret. It keeps the exact answer
    // finite where the ε row cannot: equal weights have sensitivity 0.
    "weights": "length |T|, every weight finite, max|w|·n finite",
        "linear-query weights out of range",
        |r, p, data| match (&r.kind, data) {
            (Linear { weights }, Data::Table(d, _)) => {
                let max = weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
                weights.len() != p.domain().size()
                    || !weights.iter().all(|w| w.is_finite())
                    || !(max * d.len() as f64).is_finite()
            }
            _ => false,
        };
    "k": "1 ≤ k ≤ n", "k-means needs 1 ≤ k ≤ n",
        |r, _, data| match (&r.kind, data) {
            (KMeans { k, .. }, Data::Points(points)) => *k == 0 || *k > points.len(),
            _ => false,
        };
    // The paper uses 10, and ε/(2·iterations) leaves only noise long
    // before 1 000; the bound caps what one request costs in CPU.
    "iterations": "1 ≤ iterations ≤ 1 000", "k-means needs 1 ≤ iterations ≤ 1 000",
        |r, _, _| matches!(r.kind, KMeans { iterations, .. } if !(1..=1_000).contains(&iterations));
    "spec": "θ finite and > 0; block diameter finite and ≥ 0",
        "k-means needs a finite θ > 0 or a finite block diameter ≥ 0",
        |r, _, _| match r.kind {
            KMeans { spec: L1Threshold(theta), .. } => !(theta.is_finite() && theta > 0.0),
            KMeans { spec: PartitionMaxDiameter(d), .. } => !(d.is_finite() && d >= 0.0),
            _ => false,
        };
    // One check on the noise scale catches a subnormal ε, an overflowing
    // weight span or constrained bound × max|w|, and a k-means ε that
    // underflows when `PrivateKmeans::run` splits it across iterations
    // and its two queries. A scale of 0 is an exact release.
    "epsilon": "S(f, P)/ε finite; for k-means, both scales at ε/(2·iterations)",
        "the noise scale S(f, P)/ε is not finite",
        |r, _, data| {
            let epsilon = r.epsilon.value();
            let scales = match (&r.kind, data) {
                (KMeans { iterations, spec, .. }, Data::Points(points)) => {
                    let per_query = epsilon / (2.0 * *iterations as f64);
                    let sum = spec.qsum_sensitivity(points.bbox());
                    [spec.qsize_sensitivity() / per_query, sum / per_query]
                }
                (_, Data::Table(_, Some(sensitivity))) => [sensitivity() / epsilon; 2],
                _ => return false,
            };
            !scales.iter().all(|s| (0.0..f64::INFINITY).contains(s))
        };
}

/// Runs [`ADMISSIBLE`] on one request: the first row it falls outside
/// refuses it.
pub(crate) fn admit(request: &Request, policy: &Policy, data: Data<'_>) -> Result<(), EngineError> {
    match ADMISSIBLE
        .iter()
        .find(|row| (row.outside)(request, policy, &data))
    {
        Some(row) => Err(EngineError::InvalidRequest(format!(
            "{} ({}: admissible {})",
            row.refusal, row.field, row.set
        ))),
        None => Ok(()),
    }
}

bf_store::wire_enum! {
    /// A served answer. Its bytes are the field codec's — every `f64` as
    /// its raw bit pattern — and the same bytes a wire `Answer` carries:
    /// a durable `Replied` ledger frame holds them, so a retried request
    /// replays the **identical** answer — same noise, same bits — instead
    /// of drawing a fresh release.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Noisy per-value counts.
        1 => Histogram(counts: Vec<f64>),
        /// Noisy (inference-boosted) prefix counts.
        2 => Prefixes(prefixes: Vec<f64>),
        /// A single noisy number (range or linear query).
        3 => Scalar(value: f64),
        /// Final k-means centroids.
        4 => Centroids(centroids: Vec<Vec<f64>>),
    }
}

impl Response {
    /// The answer's bytes (see [`Response`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        bf_store::codec::encode(self)
    }

    /// The scalar payload, if this is a scalar answer.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            Response::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// The vector payload, if this is a histogram or prefix answer.
    pub fn vector(&self) -> Option<&[f64]> {
        match self {
            Response::Histogram(v) | Response::Prefixes(v) => Some(v),
            _ => None,
        }
    }

    /// The centroid payload, if this is a k-means answer.
    pub fn centroids(&self) -> Option<&[Vec<f64>]> {
        match self {
            Response::Centroids(c) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps() -> Epsilon {
        Epsilon::new(0.5).unwrap()
    }

    #[test]
    fn constructors_fill_fields() {
        let r = Request::range("pol", "ds", eps(), 3, 9);
        assert_eq!(r.policy, "pol");
        assert_eq!(r.data, "ds");
        assert!(matches!(r.kind, RequestKind::Range { lo: 3, hi: 9 }));
        assert_eq!(r.label(), "range@pol/ds");
        assert_eq!(r.query_class(), Some(QueryClass::Range { lo: 3, hi: 9 }));
    }

    #[test]
    fn kmeans_has_no_cached_class() {
        let r = Request::kmeans("pol", "pts", eps(), 3, 5, KmeansSecretSpec::Full);
        assert!(r.query_class().is_none());
        assert_eq!(r.label(), "kmeans@pol/pts");
    }

    /// README's "Admissible requests" lists exactly the table's rows, in
    /// the order they are checked.
    #[test]
    fn the_readme_table_is_the_admissible_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let rows: Vec<[String; 3]> = readme
            .lines()
            .skip_while(|line| *line != "### Admissible requests")
            .skip_while(|line| !line.starts_with("| field |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                // `\|` is a pipe inside a cell.
                let cells: Vec<String> = line
                    .replace("\\|", "\0")
                    .split('|')
                    .map(|cell| cell.trim().replace('\0', "|"))
                    .collect();
                [cells[1].clone(), cells[2].clone(), cells[3].clone()]
            })
            .collect();
        let table: Vec<[String; 3]> = ADMISSIBLE
            .iter()
            .map(|row| [row.field, row.set, row.refusal].map(String::from))
            .collect();
        assert_eq!(rows, table);
    }

    /// Every generated answer decodes from its bytes to the same bytes;
    /// a cut, an unknown tag or a trailing byte decodes to nothing.
    #[test]
    fn response_bytes_round_trip_bit_exactly() {
        use bf_store::codec::{decode, Arb};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x2E5);
        for _ in 0..512 {
            let bytes = Response::arb(&mut rng).to_bytes();
            let back: Response = decode(&bytes).expect("round trip");
            assert_eq!(back.to_bytes(), bytes);
            assert!(decode::<Response>(&bytes[..bytes.len() - 1]).is_none());
            let mut trailing = bytes;
            trailing.push(0);
            assert!(decode::<Response>(&trailing).is_none());
        }
        assert!(decode::<Response>(&[]).is_none());
        assert!(decode::<Response>(&[9]).is_none(), "unknown tag");
    }

    #[test]
    fn response_accessors() {
        assert_eq!(Response::Scalar(4.0).scalar(), Some(4.0));
        assert_eq!(Response::Scalar(4.0).vector(), None);
        let h = Response::Histogram(vec![1.0, 2.0]);
        assert_eq!(h.vector().unwrap().len(), 2);
        let c = Response::Centroids(vec![vec![0.0]]);
        assert_eq!(c.centroids().unwrap().len(), 1);
        assert_eq!(c.scalar(), None);
    }
}
