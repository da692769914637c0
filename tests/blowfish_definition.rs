//! Integration tests verifying the Blowfish *definition* end-to-end:
//! neighbor semantics, the equivalence with differential privacy for the
//! complete graph (Section 4.2), the Eq. 9 distance-damped disclosure
//! bound, and empirical likelihood-ratio checks on real mechanism output.

use blowfish::core::neighbors::enumerate_neighbors;
use blowfish::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

const CAP: f64 = 2e6;

/// Differential privacy is exactly Blowfish with the complete graph: the
/// neighbor sets coincide (Section 4.2).
#[test]
fn dp_equals_blowfish_with_complete_graph() {
    let domain = Domain::from_cardinalities(&[2, 3]).unwrap();
    let dp = Policy::differential_privacy(domain.clone());
    let ds = Dataset::from_rows(domain.clone(), vec![0, 4]).unwrap();
    let nbrs = enumerate_neighbors(&dp, &ds, CAP).unwrap();
    // Classic DP neighbors with fixed n: every single-tuple change.
    // 2 rows × 5 alternative values each.
    assert_eq!(nbrs.len(), 10);
    for n in &nbrs {
        assert_eq!(ds.differing_ids(n).len(), 1);
    }
}

/// Under `G^{L1,θ}` neighbors only move a tuple within θ; farther moves
/// are *not* neighbors but are still damped through intermediate steps
/// (Eq. 9: likelihood ratio ≤ e^{ε·d_G(x,y)}).
#[test]
fn distance_threshold_neighbor_structure() {
    let domain = Domain::line(10).unwrap();
    let policy = Policy::distance_threshold(domain.clone(), 2);
    let ds = Dataset::from_rows(domain.clone(), vec![5]).unwrap();
    let nbrs = enumerate_neighbors(&policy, &ds, CAP).unwrap();
    let values: Vec<usize> = nbrs.iter().map(|n| n.row(0)).collect();
    assert_eq!(values, vec![3, 4, 6, 7]);
}

/// Empirical likelihood-ratio check: the policy-calibrated Laplace
/// histogram release satisfies the (ε, P) inequality on a neighbor pair,
/// and the privacy degrades with graph distance exactly as Eq. 9 allows.
#[test]
fn empirical_privacy_inequality_on_histogram_release() {
    let domain = Domain::line(8).unwrap();
    let policy = Policy::distance_threshold(domain.clone(), 1);
    let eps = 0.8;
    let mechanism = HistogramMechanism::for_policy(&policy, Epsilon::new(eps).unwrap()).unwrap();

    let d1 = Dataset::from_rows(domain.clone(), vec![3, 3, 3]).unwrap();
    let d2 = d1.with_row(0, 4).unwrap(); // neighbor (adjacent move)
    let d_far = d1.with_row(0, 7).unwrap(); // d_G = 4, not a neighbor

    let mut rng = StdRng::seed_from_u64(17);
    let trials = 120_000;
    // Discretize the first two histogram cells' outputs coarsely.
    let key = |h: &Histogram| {
        (
            (h.count(3) / 2.0).floor() as i64,
            (h.count(4) / 2.0).floor() as i64,
        )
    };
    let mut c1: HashMap<(i64, i64), u64> = HashMap::new();
    let mut c2: HashMap<(i64, i64), u64> = HashMap::new();
    let mut cf: HashMap<(i64, i64), u64> = HashMap::new();
    for _ in 0..trials {
        *c1.entry(key(&mechanism.release(&d1, &mut rng)))
            .or_insert(0) += 1;
        *c2.entry(key(&mechanism.release(&d2, &mut rng)))
            .or_insert(0) += 1;
        *cf.entry(key(&mechanism.release(&d_far, &mut rng)))
            .or_insert(0) += 1;
    }
    let bound_neighbor = eps.exp() * 1.25; // sampling slack
    let bound_far = (4.0 * eps).exp() * 1.6;
    for (k, &a) in &c1 {
        if a < 800 {
            continue;
        }
        if let Some(&b) = c2.get(k) {
            if b >= 800 {
                let ratio = a as f64 / b as f64;
                assert!(
                    ratio < bound_neighbor && 1.0 / ratio < bound_neighbor,
                    "neighbor ratio {ratio} at {k:?}"
                );
            }
        }
        if let Some(&b) = cf.get(k) {
            if b >= 800 {
                let ratio = a as f64 / b as f64;
                assert!(
                    ratio < bound_far && 1.0 / ratio < bound_far,
                    "far ratio {ratio} at {k:?}"
                );
            }
        }
    }
}

/// Sequential composition accounting (Theorem 4.1) through the budget
/// accountant, and parallel composition (Theorem 4.2) as max.
#[test]
fn composition_accounting() {
    use blowfish::core::{parallel_epsilon, sequential_epsilon};
    let parts = vec![
        Epsilon::new(0.2).unwrap(),
        Epsilon::new(0.3).unwrap(),
        Epsilon::new(0.5).unwrap(),
    ];
    assert!((sequential_epsilon(&parts).unwrap().value() - 1.0).abs() < 1e-12);
    assert_eq!(parallel_epsilon(&parts).unwrap().value(), 0.5);

    let mut acct = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
    for (i, e) in parts.iter().enumerate() {
        acct.spend(format!("step{i}"), *e).unwrap();
    }
    assert!(acct.remaining() < 1e-9);
    assert!(acct.spend("extra", Epsilon::new(0.1).unwrap()).is_err());
}

/// Lemma 5.2: any ε-DP mechanism also satisfies (ε, P)-Blowfish for every
/// constraint-free policy — the Blowfish neighbor set is a subset of the
/// DP neighbor set.
#[test]
fn blowfish_neighbors_subset_of_dp_neighbors() {
    let domain = Domain::from_cardinalities(&[3, 3]).unwrap();
    let ds = Dataset::from_rows(domain.clone(), vec![0, 8]).unwrap();
    let dp = Policy::differential_privacy(domain.clone());
    let dp_neighbors: Vec<Vec<usize>> = enumerate_neighbors(&dp, &ds, CAP)
        .unwrap()
        .into_iter()
        .map(|d| d.rows().to_vec())
        .collect();
    for policy in [
        Policy::attribute(domain.clone()),
        Policy::distance_threshold(domain.clone(), 2),
        Policy::partitioned(domain.clone(), Partition::intervals(9, 3)),
    ] {
        for n in enumerate_neighbors(&policy, &ds, CAP).unwrap() {
            assert!(
                dp_neighbors.contains(&n.rows().to_vec()),
                "{} produced a non-DP neighbor",
                policy.label()
            );
        }
    }
}

/// Parallel composition example from Section 4.1: disconnected components
/// with matching count constraints have no critical secret pairs, so
/// per-component releases compose at max ε. We verify the structural
/// precondition: neighbors never cross components.
#[test]
fn aligned_constraints_keep_neighbors_within_components() {
    let domain = Domain::line(4).unwrap();
    let part = Partition::intervals(4, 2); // components {0,1}, {2,3}
    let graph = SecretGraph::Partition(part);
    let seed = Dataset::from_rows(domain.clone(), vec![0, 2]).unwrap();
    let q_s = CountConstraint::observed(Predicate::of_values(4, &[0, 1]), &seed);
    let q_t = CountConstraint::observed(Predicate::of_values(4, &[2, 3]), &seed);
    let policy = Policy::with_constraints(domain, graph, vec![q_s, q_t]).unwrap();
    let nbrs = enumerate_neighbors(&policy, &seed, CAP).unwrap();
    assert!(!nbrs.is_empty());
    for n in nbrs {
        // Every neighbor changes exactly one tuple within its component.
        let diffs = seed.differing_ids(&n);
        assert_eq!(diffs.len(), 1);
        let id = diffs[0];
        let (old, new) = (seed.row(id), n.row(id));
        assert_eq!(old / 2, new / 2, "move crossed a component");
    }
}

/// The audit API flags a mechanism calibrated to the *wrong* policy: an
/// ordered release calibrated for θ=1 run against a θ=4 neighbor pair
/// (prefix gap 4) leaks more than ε; the correctly calibrated θ=4
/// mechanism passes.
#[test]
fn audit_flags_miscalibrated_policy() {
    use blowfish::core::estimate_max_log_ratio;
    let eps = 0.8;
    let epsilon = Epsilon::new(eps).unwrap();
    let mut rng = StdRng::seed_from_u64(41);

    // Two cumulative histograms whose prefixes differ by 1 in 4 positions
    // — a θ=4 neighbor pair on a line domain.
    let domain = Domain::line(12).unwrap();
    let d1 = Dataset::from_rows(domain.clone(), vec![8, 3]).unwrap();
    let d2 = d1.with_row(0, 4).unwrap();
    let c1 = d1.histogram().cumulative();
    let c2 = d2.histogram().cumulative();

    let wrong = OrderedMechanism::with_theta(epsilon, 1).without_inference();
    let right = OrderedMechanism::with_theta(epsilon, 4).without_inference();

    // Observe the joint shift: the sum of the four prefixes that differ
    // between the two databases (each by 1). Under the correct θ=4
    // calibration the ratio on any post-processed statistic stays ≤ e^ε;
    // the θ=1 calibration leaks across the four coordinates.
    let bucket = |r: &blowfish::mechanisms::OrderedRelease| {
        let s = r.prefix(4) + r.prefix(5) + r.prefix(6) + r.prefix(7);
        ((s / 2.0).floor() as i64).clamp(-60, 60)
    };
    let report_wrong = estimate_max_log_ratio(
        &mut rng,
        |r| wrong.release(&c1, r).unwrap(),
        |r| wrong.release(&c2, r).unwrap(),
        bucket,
        120_000,
        800,
    );
    let report_right = estimate_max_log_ratio(
        &mut rng,
        |r| right.release(&c1, r).unwrap(),
        |r| right.release(&c2, r).unwrap(),
        bucket,
        120_000,
        800,
    );
    assert!(
        report_wrong.max_log_ratio > eps * 1.5,
        "θ=1 calibration should leak > ε on a θ=4 pair: {}",
        report_wrong.max_log_ratio
    );
    assert!(
        report_right.max_log_ratio < eps * 1.25,
        "θ=4 calibration should satisfy ε: {}",
        report_right.max_log_ratio
    );
}

/// Served k-means starts from centroids that do not depend on the data,
/// as SuLQ k-means requires: a centroid whose noisy count never reaches 1
/// is released as it started, and an outlier's exact coordinates in a
/// release have probability 0 under the neighbour where it moved. So no
/// release may carry a registered point. The points sit off the box's
/// boundary, where a centroid clamped onto a corner could equal a point
/// without any leak.
#[test]
fn served_kmeans_never_releases_a_registered_point() {
    let bbox = BoundingBox::new(vec![0.0; 2], vec![100.0; 2]);
    for (n, epsilon, iterations) in [(50, 1.0, 1), (50, 1.0, 5), (200, 1.0, 5), (50, 4.0, 5)] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut points: Vec<Vec<f64>> = (1..n)
            .map(|_| {
                vec![
                    20.0 + 10.0 * rng.random::<f64>(),
                    20.0 + 10.0 * rng.random::<f64>(),
                ]
            })
            .collect();
        points.push(vec![93.7, 88.1]);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let registered: HashSet<_> = points.iter().map(|p| bits(p)).collect();

        let engine = Engine::with_seed(n as u64);
        let policy = Policy::differential_privacy(Domain::line(2).unwrap());
        engine.register_policy("pol", policy).unwrap();
        engine
            .register_points("pts", PointSet::new(points, bbox.clone()))
            .unwrap();
        engine
            .open_session("alice", Epsilon::new(1e9).unwrap())
            .unwrap();
        let epsilon = Epsilon::new(epsilon).unwrap();
        let request = Request::kmeans("pol", "pts", epsilon, 4, iterations, KmeansSecretSpec::Full);
        let leaks = (0..500)
            .filter(|_| {
                let answer = engine.serve("alice", &request).unwrap();
                let centroids = answer.centroids().unwrap();
                centroids.iter().any(|c| registered.contains(&bits(c)))
            })
            .count();
        assert_eq!(leaks, 0, "n={n} ε={epsilon:?} iterations={iterations}");
    }
}
