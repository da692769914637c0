//! Property-based tests (proptest) on the core data structures and
//! invariants.

use blowfish::core::sensitivity::brute_force_sensitivity;
use blowfish::mechanisms::hierarchical::IntervalTree;
use blowfish::mechanisms::isotonic::{isotonic_regression, isotonic_regression_weighted};
use blowfish::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Domain encode/decode is a bijection on valid tuples.
    #[test]
    fn domain_codec_round_trip(cards in proptest::collection::vec(1usize..6, 1..4)) {
        let domain = Domain::from_cardinalities(&cards).unwrap();
        for idx in domain.indices() {
            let vals = domain.decode(idx).unwrap();
            prop_assert_eq!(domain.encode(&vals).unwrap(), idx);
            for (a, &v) in vals.iter().enumerate() {
                prop_assert_eq!(domain.attribute_value(idx, a), v);
            }
        }
    }

    /// Cumulative histogram and differencing are inverse operations, and
    /// range counts agree between the two representations.
    #[test]
    fn cumulative_round_trip(counts in proptest::collection::vec(0u32..50, 1..40)) {
        let h = Histogram::from_counts(counts.iter().map(|&c| c as f64).collect());
        let cum = h.cumulative();
        prop_assert_eq!(cum.to_histogram(), h.clone());
        prop_assert!(cum.is_sorted());
        let n = h.len();
        for lo in 0..n.min(6) {
            for hi in lo..n {
                prop_assert_eq!(
                    h.range_count(lo, hi).unwrap(),
                    cum.range_count(lo, hi).unwrap()
                );
            }
        }
    }

    /// Isotonic regression returns a sequence that is non-decreasing with
    /// no tolerance, preserves the weighted sum, never does worse (L2)
    /// than the best constant sequence, and satisfies the projection's
    /// KKT conditions block by block — on up to 20 000 cells (the unit
    /// entry pre-pools in chunks of 16, so this reaches every stage of
    /// it) of magnitude up to 10¹², with and without weights, with and
    /// without a trend under the noise.
    #[test]
    fn isotonic_invariants(
        unit in proptest::collection::vec(-1.0f64..1.0, 1..20_001),
        weights in proptest::option::of(proptest::collection::vec(0.001f64..1000.0, 20_000)),
        exponent in 0i32..13,
        trend in 0.0f64..0.01,
    ) {
        let values: Vec<f64> = unit
            .iter()
            .enumerate()
            .map(|(i, u)| (u + trend * i as f64) * 10f64.powi(exponent))
            .collect();
        let weights = weights.as_deref().map(|w| &w[..values.len()]);
        let z = isotonic_regression_weighted(&values, weights);
        prop_assert_eq!(z.len(), values.len());
        prop_assert!(z.windows(2).all(|w| w[0] <= w[1]));
        let weight = |i: usize| weights.map_or(1.0, |w| w[i]);
        let weighted = |v: &[f64]| -> f64 { v.iter().enumerate().map(|(i, x)| weight(i) * x).sum() };
        let (sum_in, sum_out) = (weighted(&values), weighted(&z));
        let total: f64 = values.iter().enumerate().map(|(i, x)| (weight(i) * x).abs()).sum();
        prop_assert!((sum_in - sum_out).abs() <= 1e-9 * total.max(1.0));
        // Optimality vs the constant-mean competitor (always monotone).
        let mean = sum_in / (0..values.len()).map(weight).sum::<f64>();
        let cost = |c: &[f64]| -> f64 {
            c.iter().zip(&values).enumerate().map(|(i, (a, b))| weight(i) * (a - b) * (a - b)).sum()
        };
        prop_assert!(cost(&z) <= cost(&vec![mean; values.len()]) * (1.0 + 1e-9));
        // KKT, which the constant competitor cannot see: a block (a
        // maximal run of one fitted value) takes its own weighted mean,
        // and no prefix of it has a smaller one — else splitting the
        // block there would be monotone and cheaper.
        let tolerance = 1e-9 * values.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let mut start = 0;
        while start < z.len() {
            let (mut sum, mut mass) = (0.0, 0.0);
            let mut lowest_prefix_mean = f64::INFINITY;
            let mut end = start;
            while end < z.len() && z[end] == z[start] {
                sum += weight(end) * values[end];
                mass += weight(end);
                lowest_prefix_mean = lowest_prefix_mean.min(sum / mass);
                end += 1;
            }
            let block_mean = sum / mass;
            prop_assert!(
                (z[start] - block_mean).abs() <= tolerance,
                "block {start}..{end}: fitted {} but its mean is {block_mean}", z[start]
            );
            prop_assert!(
                lowest_prefix_mean >= block_mean - tolerance,
                "block {start}..{end}: a prefix mean {lowest_prefix_mean} is below the block mean {block_mean}"
            );
            start = end;
        }
    }

    /// Weighted isotonic regression with uniform weights equals the
    /// unweighted projection.
    #[test]
    fn weighted_isotonic_uniform_matches(values in proptest::collection::vec(-50.0f64..50.0, 1..30)) {
        let w = vec![2.5; values.len()];
        let a = isotonic_regression(&values);
        let b = isotonic_regression_weighted(&values, Some(&w));
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Interval-tree range decomposition exactly covers the requested
    /// range (sums match brute-force sums) for arbitrary fanouts/sizes.
    #[test]
    fn interval_tree_decomposition_exact(
        size in 1usize..80,
        fanout in 2usize..8,
        seed in 0u64..1000,
    ) {
        let tree = IntervalTree::build(size, fanout);
        let counts: Vec<f64> = (0..size).map(|i| ((i as u64 * seed) % 17) as f64).collect();
        let node_counts = tree.exact_counts(&counts);
        let lo = (seed as usize * 7) % size;
        let hi = lo + ((seed as usize * 13) % (size - lo));
        let expect: f64 = counts[lo..=hi].iter().sum();
        let got: f64 = tree.decompose(lo, hi).into_iter().map(|id| node_counts[id]).sum();
        prop_assert!((expect - got).abs() < 1e-9);
    }

    /// Secret-graph closed-form distances always match BFS on the
    /// materialized graph for random small domains.
    #[test]
    fn secret_graph_distances_match_bfs(
        c1 in 2usize..5,
        c2 in 2usize..5,
        theta in 1u64..5,
    ) {
        let domain = Domain::from_cardinalities(&[c1, c2]).unwrap();
        for graph in [
            SecretGraph::Full,
            SecretGraph::Attribute,
            SecretGraph::L1Threshold { theta },
        ] {
            let explicit = graph.materialize(&domain);
            for x in domain.indices() {
                for y in domain.indices() {
                    prop_assert_eq!(
                        graph.distance(&domain, x, y),
                        explicit.distance(x, y),
                        "{} ({}, {})", graph.label(), x, y
                    );
                }
            }
        }
    }

    /// Policy-specific sensitivity never exceeds the differential-privacy
    /// (complete graph) sensitivity — Lemma 5.2's utility direction — for
    /// random queries.
    #[test]
    fn policy_sensitivity_never_exceeds_dp(
        weights in proptest::collection::vec(-10.0f64..10.0, 4),
        theta in 1u64..4,
    ) {
        let domain = Domain::line(4).unwrap();
        let dp = Policy::differential_privacy(domain.clone());
        let bf = Policy::distance_threshold(domain, theta);
        let w = weights.clone();
        let q = move |d: &Dataset| vec![d.rows().iter().map(|&r| w[r]).sum::<f64>()];
        let s_dp = brute_force_sensitivity(&dp, 2, &q, 1e6).unwrap();
        let s_bf = brute_force_sensitivity(&bf, 2, &q, 1e6).unwrap();
        prop_assert!(s_bf <= s_dp + 1e-9);
    }

    /// Partitions built from intervals always refine correctly and block
    /// ids stay dense.
    #[test]
    fn interval_partitions_valid(size in 1usize..60, width in 1usize..20) {
        let p = Partition::intervals(size, width);
        prop_assert_eq!(p.domain_size(), size);
        let sizes = p.block_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), size);
        prop_assert!(sizes.iter().all(|&s| s >= 1 && s <= width));
        // Coarser always refines finer singletons.
        prop_assert!(p.refines(&Partition::singletons(size)));
    }

    /// Laplace release of an all-zero vector has empirical mean near zero
    /// (unbiasedness smoke test, small n for speed).
    #[test]
    fn laplace_unbiased_smoke(seed in 0u64..50) {
        use rand::SeedableRng;
        let mech = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = mech.release(&vec![0.0; 2000], &mut rng);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        prop_assert!(mean.abs() < 0.25, "mean {}", mean);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sensitivities served from the engine's cache always equal freshly
    /// computed closed forms, for random policies and query classes —
    /// both on the first (miss) and second (hit) lookup.
    #[test]
    fn cached_sensitivities_match_fresh(
        size in 2usize..40,
        theta in 1u64..8,
        family in 0u32..3,
        lo_frac in 0.0f64..1.0,
        width_frac in 0.0f64..1.0,
        weights in proptest::collection::vec(-20.0f64..20.0, 40),
    ) {
        use blowfish::engine::SensitivityCache;
        let domain = Domain::line(size).unwrap();
        let policy = match family {
            0 => Policy::differential_privacy(domain),
            1 => Policy::distance_threshold(domain, theta),
            _ => {
                let width = (theta as usize).clamp(1, size);
                Policy::partitioned(domain, Partition::intervals(size, width))
            }
        };
        let lo = ((size - 1) as f64 * lo_frac) as usize;
        let hi = (lo + (((size - 1 - lo) as f64) * width_frac) as usize).min(size - 1);
        let classes = [
            QueryClass::Histogram,
            QueryClass::CumulativeHistogram,
            QueryClass::Range { lo, hi },
            QueryClass::Linear { weights: weights[..size].to_vec() },
            QueryClass::KmeansSumCells,
        ];
        let cache = SensitivityCache::new();
        for class in &classes {
            let fresh = class.sensitivity(&policy);
            let miss = cache.sensitivity(&policy, class);
            let hit = cache.sensitivity(&policy, class);
            prop_assert_eq!(miss, fresh, "miss diverged for {}", class.label());
            prop_assert_eq!(hit, fresh, "hit diverged for {}", class.label());
        }
        prop_assert_eq!(cache.stats().entries, classes.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Ordered Mechanism's released prefixes are always sorted after
    /// inference, for arbitrary sparse histograms.
    #[test]
    fn ordered_release_always_sorted(
        counts in proptest::collection::vec(0u32..30, 2..64),
        seed in 0u64..100,
    ) {
        use rand::SeedableRng;
        let h = Histogram::from_counts(counts.iter().map(|&c| c as f64).collect());
        let mech = OrderedMechanism::line_graph(Epsilon::new(0.2).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let release = mech.release(&h.cumulative(), &mut rng).unwrap();
        prop_assert!(release.prefixes().windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    /// OH releases answer every prefix finitely for arbitrary θ, fanout
    /// and domain size (structure correctness under odd alignments).
    #[test]
    fn oh_release_all_prefixes_finite(
        size in 2usize..120,
        theta in 1usize..40,
        fanout in 2usize..6,
        seed in 0u64..50,
    ) {
        use rand::SeedableRng;
        let counts: Vec<f64> = (0..size).map(|i| (i % 5) as f64).collect();
        let mech = OrderedHierarchicalMechanism::new(
            Epsilon::new(1.0).unwrap(),
            theta,
            fanout,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let release = mech.release(&counts, &mut rng);
        for i in 0..size {
            prop_assert!(release.prefix(i).is_finite(), "prefix {} of {}", i, size);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corollary 8.3 invariants on random interval constraint families
    /// over line-graph secrets: the policy graph always builds (interval
    /// constraints are sparse w.r.t. the line graph), and
    /// `2 ≤ bound ≤ 2·max(|Q|, 1)` with `α ≤ |Q|` and `ξ ≤ |Q| + 1`.
    #[test]
    fn policy_graph_invariants_on_random_intervals(
        sizes in proptest::collection::vec(1usize..6, 1..6),
    ) {
        use blowfish::constraints::policy_graph::PolicyGraph;
        use blowfish::constraints::sparse::DEFAULT_SCAN_CAP;
        let domain_size: usize = sizes.iter().sum();
        let domain = Domain::line(domain_size).unwrap();
        // Contiguous disjoint intervals covering the domain.
        let mut queries = Vec::new();
        let mut start = 0usize;
        for &w in &sizes {
            let vals: Vec<usize> = (start..start + w).collect();
            queries.push(Predicate::of_values(domain_size, &vals));
            start += w;
        }
        let gp = PolicyGraph::build(&domain, &SecretGraph::line(), &queries, DEFAULT_SCAN_CAP)
            .unwrap();
        let q = queries.len();
        prop_assert!(gp.alpha() <= q);
        prop_assert!(gp.xi() <= q + 1);
        let bound = gp.sensitivity_bound();
        prop_assert!(bound >= 2.0);
        prop_assert!(bound <= 2.0 * q.max(1) as f64);
    }

    /// Marginal queries always partition the domain: every value
    /// satisfies exactly one cell, and size(C) matches the query count.
    #[test]
    fn marginal_queries_partition_domain(
        cards in proptest::collection::vec(2usize..5, 2..4),
        attr_mask in proptest::collection::vec(proptest::bool::ANY, 2..4),
    ) {
        use blowfish::constraints::Marginal;
        let domain = Domain::from_cardinalities(&cards).unwrap();
        let attrs: Vec<usize> = attr_mask
            .iter()
            .take(cards.len())
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        prop_assume!(!attrs.is_empty());
        let m = Marginal::new(attrs);
        let queries = m.queries(&domain);
        prop_assert_eq!(queries.len(), m.size(&domain));
        for x in domain.indices() {
            let hits = queries.iter().filter(|q| q.eval(x)).count();
            prop_assert_eq!(hits, 1, "value {} in {} cells", x, hits);
        }
    }

    /// The ⊥ extension's closed-form sensitivities bound every enumerated
    /// neighbor, for random masks and datasets.
    #[test]
    fn unbounded_sensitivity_bounds_neighbors(
        mask in proptest::collection::vec(proptest::bool::ANY, 4..8),
        present in proptest::collection::vec(proptest::option::of(0usize..4), 1..5),
        theta in 1u64..3,
    ) {
        use blowfish::core::unbounded::{BotEdges, UnboundedDataset, UnboundedPolicy};
        let size = mask.len();
        let rows: Vec<Option<usize>> = present
            .iter()
            .map(|o| o.map(|v| v % size))
            .collect();
        let base = Policy::distance_threshold(Domain::line(size).unwrap(), theta);
        let policy = UnboundedPolicy::new(base, BotEdges::Values(mask));
        let ds = UnboundedDataset::new(size, rows).unwrap();
        let h = ds.histogram();
        let s_hist = policy.histogram_sensitivity();
        let s_cum = policy.cumulative_histogram_sensitivity();
        for n in ds.neighbors(&policy) {
            let hn = n.histogram();
            prop_assert!(h.l1_distance(&hn) <= s_hist + 1e-9);
            let c: f64 = h
                .cumulative()
                .prefixes()
                .iter()
                .zip(hn.cumulative().prefixes())
                .map(|(a, b)| (a - b).abs())
                .sum();
            prop_assert!(c <= s_cum + 1e-9);
        }
    }

    /// Wavelet reconstruction with negligible noise is exact for every
    /// size (padding correctness).
    #[test]
    fn wavelet_round_trip(counts in proptest::collection::vec(0u32..40, 1..70)) {
        use blowfish::mechanisms::WaveletMechanism;
        use rand::SeedableRng;
        let h: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let m = WaveletMechanism::new(Epsilon::new(1e12).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = m.release(&h, &mut rng);
        for (a, b) in r.histogram().iter().zip(&h) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }
}
