//! Integration tests pinning every sensitivity theorem to the exact
//! brute-force value computed from Definitions 4.1 + 5.1 on small
//! domains.

use blowfish::constraints::grid_constraints::{rectangle_predicates, thm_8_6_sensitivity};
use blowfish::constraints::marginal::{thm_8_4_sensitivity, thm_8_5_sensitivity};
use blowfish::constraints::policy_graph::PolicyGraph;
use blowfish::constraints::sparse::DEFAULT_SCAN_CAP;
use blowfish::constraints::Marginal;
use blowfish::core::sensitivity::{
    brute_force_sensitivity, brute_force_sensitivity_with, cumulative_histogram_sensitivity,
    histogram_sensitivity, qsum_sensitivity_cells,
};
use blowfish::core::NeighborSemantics;
use blowfish::domain::grid::Rectangle;
use blowfish::prelude::*;

const CAP: f64 = 3e6;

fn hist(d: &Dataset) -> Vec<f64> {
    d.histogram().counts().to_vec()
}

fn cumulative(d: &Dataset) -> Vec<f64> {
    d.histogram().cumulative().prefixes().to_vec()
}

/// The discrete q_sum on a 1-D line domain: sum of values.
fn qsum_line(d: &Dataset) -> Vec<f64> {
    vec![d.rows().iter().map(|&r| r as f64).sum()]
}

#[test]
fn unconstrained_closed_forms_match_brute_force() {
    let domain = Domain::line(5).unwrap();
    for policy in [
        Policy::differential_privacy(domain.clone()),
        Policy::distance_threshold(domain.clone(), 1),
        Policy::distance_threshold(domain.clone(), 3),
        Policy::partitioned(domain.clone(), Partition::intervals(5, 2)),
    ] {
        assert_eq!(
            brute_force_sensitivity(&policy, 2, &hist, CAP).unwrap(),
            histogram_sensitivity(&policy),
            "histogram, {}",
            policy.label()
        );
        assert_eq!(
            brute_force_sensitivity(&policy, 2, &cumulative, CAP).unwrap(),
            cumulative_histogram_sensitivity(&policy),
            "cumulative, {}",
            policy.label()
        );
    }
}

/// One graph of every `SecretGraph` variant on `domain`: full,
/// attribute, `G^{L1,1}`, `G^{L1,2}`, a partition whose blocks straddle
/// the rows of a grid, and a custom graph with a long and a short edge.
fn every_graph_variant(domain: &Domain) -> Vec<Policy> {
    let size = domain.size();
    let blocks: Vec<u32> = (0..size).map(|x| (x % 3) as u32).collect();
    let mut custom = blowfish::graph::Graph::new(size);
    custom.add_edge(1, size - 2);
    custom.add_edge(0, 1);
    vec![
        Policy::differential_privacy(domain.clone()),
        Policy::attribute(domain.clone()),
        Policy::distance_threshold(domain.clone(), 1),
        Policy::distance_threshold(domain.clone(), 2),
        Policy::partitioned(domain.clone(), Partition::new(blocks).unwrap()),
        Policy::new(domain.clone(), SecretGraph::Custom(custom)),
    ]
}

/// The cumulative histogram's sensitivity is an edge's *index span*, which
/// is its L1 length on one attribute only: on grids the closed form used
/// to return the L1 length (1 for `G^{L1,1}` on 3 × 4, where a step of the
/// first attribute moves 4 prefixes) and under-calibrated every Ordered
/// release there.
#[test]
fn cumulative_sensitivity_is_the_index_span_on_grids() {
    for cards in [vec![3, 4], vec![2, 2, 3]] {
        let domain = Domain::from_cardinalities(&cards).unwrap();
        for policy in every_graph_variant(&domain) {
            // One row is the whole definition for a counting query: a
            // neighbour moves one tuple along one edge.
            assert_eq!(
                brute_force_sensitivity(&policy, 1, &cumulative, CAP).unwrap(),
                cumulative_histogram_sensitivity(&policy),
                "{} on {cards:?}",
                policy.label()
            );
        }
    }
    let grid = Domain::from_cardinalities(&[3, 4]).unwrap();
    let on_grid = |p: Policy| cumulative_histogram_sensitivity(&p);
    assert_eq!(on_grid(Policy::distance_threshold(grid.clone(), 1)), 4.0);
    assert_eq!(on_grid(Policy::attribute(grid.clone())), 8.0);
    assert_eq!(on_grid(Policy::differential_privacy(grid)), 11.0);
}

/// On one attribute nothing moved: every variant still returns the L1
/// closed form, so every existing release is calibrated as before.
#[test]
fn cumulative_sensitivity_on_a_line_is_the_l1_closed_form() {
    for size in [4, 7, 64] {
        let domain = Domain::line(size).unwrap();
        for policy in every_graph_variant(&domain) {
            assert_eq!(
                cumulative_histogram_sensitivity(&policy),
                policy.graph().max_edge_l1(&domain) as f64,
                "{} on a line of {size}",
                policy.label()
            );
        }
    }
}

/// `W·x` for the class's query matrix `W` and a signed histogram `x`,
/// written from each query's definition — none of `bf-core`'s closed
/// forms is consulted.
fn apply(class: &QueryClass, domain: &Domain, x: &[f64]) -> Vec<f64> {
    match class {
        QueryClass::Histogram => x.to_vec(),
        QueryClass::PartitionHistogram(blocks) => {
            let mut out = vec![0.0; blocks.num_blocks()];
            for (i, v) in x.iter().enumerate() {
                out[blocks.block_of(i) as usize] += v;
            }
            out
        }
        QueryClass::CumulativeHistogram => x
            .iter()
            .scan(0.0, |prefix, v| {
                *prefix += v;
                Some(*prefix)
            })
            .collect(),
        QueryClass::Range { lo, hi } => vec![x[*lo..=*hi].iter().sum()],
        QueryClass::Linear { weights } => vec![weights.iter().zip(x).map(|(w, v)| w * v).sum()],
        // The per-attribute coordinate sums, entered once for the cluster
        // a moved tuple leaves and once for the one it joins — Lemma
        // 6.1's accounting (on the raw sum the factor is 1, see below).
        QueryClass::KmeansSumCells => {
            let sums: Vec<f64> = (0..domain.arity())
                .map(|a| {
                    let coordinate = |i| f64::from(domain.attribute_value(i, a));
                    x.iter().enumerate().map(|(i, v)| v * coordinate(i)).sum()
                })
                .collect();
            [sums.clone(), sums].concat()
        }
    }
}

/// Definition 4.1 for a linear query, in one line: the largest
/// `‖W(e_u − e_v)‖₁` over the policy's secret edges `(u, v)`.
fn edge_oracle(class: &QueryClass, policy: &Policy) -> f64 {
    let domain = policy.domain();
    let mut worst = 0.0f64;
    policy.graph().for_each_edge(domain, |u, v| {
        let mut x = vec![0.0; domain.size()];
        (x[u], x[v]) = (1.0, -1.0);
        worst = worst.max(apply(class, domain, &x).iter().map(|y| y.abs()).sum());
    });
    worst
}

/// ROADMAP 6a, first slice: every unconstrained `QueryClass` on every
/// secret-graph variant, on a line, a grid and a cube, calibrates to
/// exactly what the definition says. (Against PR 22's `sensitivity.rs`
/// this fails at once — `CumulativeHistogram` under full on 3 × 4, 5
/// where the oracle says 11 — the bug PR 23 found by reading.)
#[test]
fn every_unconstrained_query_class_matches_the_edge_oracle() {
    for cards in [vec![16], vec![3, 4], vec![2, 2, 3]] {
        let domain = Domain::from_cardinalities(&cards).unwrap();
        let n = domain.size();
        let mut rng = blowfish::chaos::ChaosRng::new(0x6a ^ n as u64);
        let mut classes = vec![
            QueryClass::Histogram,
            QueryClass::CumulativeHistogram,
            QueryClass::KmeansSumCells,
            QueryClass::PartitionHistogram(Partition::intervals(n, 3)),
            QueryClass::PartitionHistogram(Partition::singletons(n)),
            QueryClass::PartitionHistogram(Partition::single_block(n)),
        ];
        classes.extend((0..n).flat_map(|lo| (lo..n).map(move |hi| QueryClass::Range { lo, hi })));
        for _ in 0..8 {
            // Eighths in [-125, 125], and signs: differences are exact.
            let eighths = (0..n).map(|_| (rng.next_below(2001) as f64 - 1000.0) / 8.0);
            classes.push(QueryClass::Linear {
                weights: eighths.collect(),
            });
            let signs = (0..n).map(|_| if rng.next_below(2) == 0 { 1.0 } else { -1.0 });
            classes.push(QueryClass::Linear {
                weights: signs.collect(),
            });
        }
        for policy in every_graph_variant(&domain) {
            for class in &classes {
                assert_eq!(
                    class.sensitivity(&policy),
                    edge_oracle(class, &policy),
                    "{class:?} under {} on {cards:?}",
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn qsum_lemma_6_1_on_line_domain() {
    let domain = Domain::line(6).unwrap();
    // Brute-force sensitivity of Σ values is max edge length; Lemma 6.1's
    // 2·max-edge applies to the per-cluster sum vector (a point moves out
    // of one cluster and into another). On the raw sum the factor is 1.
    for (policy, expected) in [
        (Policy::differential_privacy(domain.clone()), 5.0),
        (Policy::distance_threshold(domain.clone(), 2), 2.0),
        (Policy::attribute(domain.clone()), 5.0),
    ] {
        assert_eq!(
            brute_force_sensitivity(&policy, 2, &qsum_line, CAP).unwrap(),
            expected,
            "{}",
            policy.label()
        );
        assert_eq!(qsum_sensitivity_cells(&policy), 2.0 * expected);
    }
}

#[test]
fn thm_8_4_exact_on_small_domain() {
    // One marginal over A1, full-domain secrets, T = 2×3: closed form
    // 2·size(C) = 4 must equal both the policy-graph bound and the
    // aligned brute force at n = 3 (n ≥ 2 tuples needed to realize the
    // swap).
    let domain = Domain::from_cardinalities(&[2, 3]).unwrap();
    let marginal = Marginal::new(vec![0]);
    let closed = thm_8_4_sensitivity(&domain, &marginal).unwrap();
    assert_eq!(closed, 4.0);

    let queries = marginal.queries(&domain);
    let gp = PolicyGraph::build(&domain, &SecretGraph::Full, &queries, DEFAULT_SCAN_CAP).unwrap();
    assert_eq!(gp.sensitivity_bound(), closed);

    let seed = Dataset::from_rows(domain.clone(), vec![0, 3]).unwrap();
    let policy =
        Policy::with_constraints(domain, SecretGraph::Full, marginal.constraints(&seed)).unwrap();
    // Full graph: literal and aligned semantics coincide.
    for sem in [NeighborSemantics::Aligned, NeighborSemantics::Literal] {
        assert_eq!(
            brute_force_sensitivity_with(&policy, 2, &hist, sem, CAP).unwrap(),
            closed,
            "{sem:?}"
        );
    }
}

#[test]
fn thm_8_5_aligned_brute_force_within_closed_form() {
    let domain = Domain::from_cardinalities(&[2, 2, 2]).unwrap();
    let m1 = Marginal::new(vec![0]);
    let m2 = Marginal::new(vec![1]);
    let closed = thm_8_5_sensitivity(&domain, &[m1.clone(), m2.clone()]).unwrap();
    assert_eq!(closed, 4.0);
    let seed = Dataset::from_rows(domain.clone(), vec![0, 3, 5]).unwrap();
    let mut constraints = m1.constraints(&seed);
    constraints.extend(m2.constraints(&seed));
    let policy = Policy::with_constraints(domain, SecretGraph::Attribute, constraints).unwrap();
    let aligned =
        brute_force_sensitivity_with(&policy, 3, &hist, NeighborSemantics::Aligned, CAP).unwrap();
    assert!(
        aligned <= closed,
        "aligned {aligned} exceeds closed {closed}"
    );
    // The literal reading can exceed the closed form (documented witness).
    let literal =
        brute_force_sensitivity_with(&policy, 3, &hist, NeighborSemantics::Literal, CAP).unwrap();
    assert!(literal >= aligned);
    assert_eq!(literal, 6.0, "the EXPERIMENTS.md witness");
}

#[test]
fn thm_8_5_aligned_equality_with_pair_swap() {
    // A cleaner instance where the aligned brute force achieves the
    // closed form: one marginal {A1} on T = 2×2 with attribute secrets.
    let domain = Domain::from_cardinalities(&[2, 2]).unwrap();
    let m = Marginal::new(vec![0]);
    let closed = thm_8_5_sensitivity(&domain, std::slice::from_ref(&m)).unwrap();
    assert_eq!(closed, 4.0);
    let seed = Dataset::from_rows(domain.clone(), vec![0, 2]).unwrap();
    let policy =
        Policy::with_constraints(domain, SecretGraph::Attribute, m.constraints(&seed)).unwrap();
    let aligned =
        brute_force_sensitivity_with(&policy, 2, &hist, NeighborSemantics::Aligned, CAP).unwrap();
    assert_eq!(aligned, closed);
}

#[test]
fn thm_8_6_bound_respected_on_grid() {
    // 5×1 grid, two disjoint non-point rectangles, θ = 2.
    let grid = GridDomain::new(vec![5, 1]).unwrap();
    let rects = vec![
        Rectangle::new(vec![0, 0], vec![1, 0]).unwrap(),
        Rectangle::new(vec![3, 0], vec![4, 0]).unwrap(),
    ];
    let theta = 2u64;
    let (closed, exact) = thm_8_6_sensitivity(&grid, &rects, theta).unwrap();
    assert!(exact);
    assert_eq!(closed, 2.0 * (2.0 + 1.0)); // maxcomp = 2 (gap 1 ≤ θ)

    let preds = rectangle_predicates(&grid, &rects);
    let gp = PolicyGraph::build(
        grid.domain(),
        &SecretGraph::L1Threshold { theta },
        &preds,
        DEFAULT_SCAN_CAP,
    )
    .unwrap();
    assert_eq!(gp.sensitivity_bound(), closed);

    let seed = Dataset::from_rows(grid.domain().clone(), vec![0, 3]).unwrap();
    let constraints: Vec<CountConstraint> = preds
        .iter()
        .map(|p| CountConstraint::observed(p.clone(), &seed))
        .collect();
    let policy = Policy::with_constraints(
        grid.domain().clone(),
        SecretGraph::L1Threshold { theta },
        constraints,
    )
    .unwrap();
    let aligned =
        brute_force_sensitivity_with(&policy, 3, &hist, NeighborSemantics::Aligned, CAP).unwrap();
    assert!(aligned <= closed, "aligned {aligned} > closed {closed}");
}

#[test]
fn constrained_sensitivity_never_below_unconstrained_histogram_changes() {
    // Sanity: with constraints, when a single in-support move exists the
    // brute force still reports ≥ 2 (one tuple leaving/entering cells),
    // unless the constraints freeze everything.
    let domain = Domain::line(4).unwrap();
    let seed = Dataset::from_rows(domain.clone(), vec![0, 2]).unwrap();
    let q = CountConstraint::observed(Predicate::of_values(4, &[0, 1]), &seed);
    let policy = Policy::with_constraints(domain, SecretGraph::Full, vec![q]).unwrap();
    let v = brute_force_sensitivity(&policy, 2, &hist, CAP).unwrap();
    assert!(v >= 2.0);
}
