//! Integration tests for the serving engine: budget isolation across
//! analysts, batch semantics, and cache behavior through the public
//! facade.

use blowfish::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn build_engine(size: usize, theta: u64, seed: u64) -> Engine {
    let engine = Engine::with_seed(seed);
    let domain = Domain::line(size).unwrap();
    engine
        .register_policy("pol", Policy::distance_threshold(domain.clone(), theta))
        .unwrap();
    let rows: Vec<usize> = (0..20 * size).map(|i| (i * 11) % size).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    engine
}

/// Two analysts drain separate budgets with randomized request streams;
/// neither ledger ever exceeds its total, refusals leave ledgers
/// untouched, and one analyst's spending never appears in the other's
/// ledger.
#[test]
fn two_analysts_never_exceed_their_epsilon_totals() {
    let engine = build_engine(64, 3, 99);
    let totals = [("alice", 1.0f64), ("bob", 0.35f64)];
    for (name, total) in totals {
        engine.open_session(name, eps(total)).unwrap();
    }

    let mut rng = StdRng::seed_from_u64(7);
    let mut refused = [0u32; 2];
    for step in 0..200 {
        let (who, idx) = if step % 2 == 0 {
            ("alice", 0)
        } else {
            ("bob", 1)
        };
        let e = eps(rng.random_range(0.01..0.08));
        let request = match rng.random_range(0..4u32) {
            0 => Request::histogram("pol", "ds", e),
            1 => Request::cumulative_histogram("pol", "ds", e),
            2 => {
                let lo = rng.random_range(0..32usize);
                Request::range("pol", "ds", e, lo, lo + rng.random_range(0..32usize))
            }
            _ => {
                let w: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64).collect();
                Request::linear("pol", "ds", e, w)
            }
        };
        match engine.serve(who, &request) {
            Ok(_) => {}
            Err(EngineError::BudgetRefused { analyst, .. }) => {
                assert_eq!(analyst, who);
                refused[idx] += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }

        // Invariant after every step: spent ≤ total (+fp dust) for BOTH.
        for (name, total) in totals {
            let snap = engine.session_snapshot(name).unwrap();
            assert!(
                snap.spent() <= total + 1e-9,
                "{name} exceeded budget: {} > {total}",
                snap.spent()
            );
            let ledger_sum: f64 = snap.ledger().iter().map(|(_, e)| e).sum();
            assert!((ledger_sum - snap.spent()).abs() < 1e-9);
        }
    }

    // With 100 requests each at ε ≥ 0.01 against totals of 1.0 and 0.35,
    // both analysts must eventually have been refused.
    assert!(refused[0] > 0, "alice was never refused");
    assert!(refused[1] > 0, "bob was never refused");
    // And bob's small budget refused more often than alice's.
    assert!(refused[1] > refused[0]);
}

/// The batch path spends once per group and matches the corresponding
/// single-range semantics (finite noisy counts near the truth).
#[test]
fn batched_ranges_spend_once_and_answer_all() {
    let engine = build_engine(256, 2, 5);
    engine.open_session("carol", eps(1.0)).unwrap();
    let e = eps(0.8);
    let requests: Vec<Request> = (0..16)
        .map(|i| Request::range("pol", "ds", e, i * 16, i * 16 + 15))
        .collect();
    let answers = engine.serve_batch("carol", &requests);
    let dataset = engine.dataset("ds").unwrap();
    let hist = dataset.histogram();
    for (req, ans) in requests.iter().zip(&answers) {
        let noisy = ans.as_ref().unwrap().scalar().unwrap();
        assert!(noisy.is_finite());
        if let RequestKind::Range { lo, hi } = req.kind {
            let truth = hist.range_count(lo, hi).unwrap();
            // θ/ε noise on two prefixes: far inside ±200 with overwhelming
            // probability at these scales.
            assert!((noisy - truth).abs() < 200.0, "{noisy} vs {truth}");
        }
    }
    let snap = engine.session_snapshot("carol").unwrap();
    assert!((snap.spent() - 0.8).abs() < 1e-12, "batch must spend once");
}

/// On a multi-attribute domain a cumulative release — asked for by name,
/// or as the shared release under a fold of ranges — is calibrated at the
/// largest *index span* of a secret edge, not its L1 length: on 3 × 4
/// cells under `G^{L1,1}` that is 4 (one step of the first attribute),
/// where the closed form used to say 1 and the release went out with a
/// quarter of the noise the policy needs. Read statistically: the
/// prefixes are 1 000 apart, so inference never moves them and the last
/// prefix (and a range from cell 0) carries one `Lap(4/ε)` draw, whose
/// mean magnitude is 4/ε.
#[test]
fn cumulative_releases_on_a_grid_are_calibrated_at_the_index_span() {
    let engine = Engine::with_seed(41);
    let domain = Domain::from_cardinalities(&[3, 4]).unwrap();
    engine
        .register_policy("grid", Policy::distance_threshold(domain.clone(), 1))
        .unwrap();
    let rows: Vec<usize> = (0..12_000).map(|i| i % 12).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    let releases = 2_000;
    engine
        .open_session("dana", eps(2.0 * releases as f64))
        .unwrap();
    let e = eps(1.0);
    let (mut direct, mut folded) = (0.0, 0.0);
    for _ in 0..releases {
        let response = engine
            .serve("dana", &Request::cumulative_histogram("grid", "ds", e))
            .unwrap();
        let Response::Prefixes(prefixes) = response else {
            panic!("a cumulative request answers with prefixes");
        };
        direct += (prefixes[11] - 12_000.0).abs();
        let fold = [
            Request::range("grid", "ds", e, 0, 5),
            Request::range("grid", "ds", e, 0, 11),
        ];
        let answers = engine.serve_batch("dana", &fold);
        folded += (answers[1].as_ref().unwrap().scalar().unwrap() - 12_000.0).abs();
    }
    for (what, sum) in [("cumulative request", direct), ("2-range fold", folded)] {
        let mean = sum / releases as f64;
        assert!(
            (mean - 4.0).abs() < 0.4,
            "{what}: mean |noise| {mean}, expected 4/ε = 4"
        );
    }
}

/// Serving through the facade fills the shared cache: a new analyst
/// asking an already-served class is a pure cache hit.
#[test]
fn cache_is_shared_across_analysts() {
    let engine = build_engine(128, 4, 12);
    engine.open_session("alice", eps(1.0)).unwrap();
    engine.open_session("bob", eps(1.0)).unwrap();
    engine
        .serve("alice", &Request::range("pol", "ds", eps(0.1), 10, 90))
        .unwrap();
    let misses_before = engine.cache_stats().misses;
    engine
        .serve("bob", &Request::range("pol", "ds", eps(0.1), 10, 90))
        .unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, misses_before, "bob's request must not miss");
    assert!(stats.hits >= 1);
}

/// One `serve_groups` call carrying several release plans returns, plan
/// for plan, the bytes `serve` returns one request at a time on a
/// same-seed engine — and the same ledgers: generators are drawn at
/// charge time, in plan order, so how the releases then execute (one
/// after another on the calling thread) cannot change a byte.
#[test]
fn a_call_of_several_plans_matches_serving_them_one_by_one() {
    use blowfish::engine::{Group, Waiter};
    let build = || {
        let engine = build_engine(128, 3, 2024);
        let points = PointSet::new(
            (0..60)
                .map(|i| vec![f64::from(i % 10), f64::from(i / 10)])
                .collect(),
            BoundingBox::new(vec![0.0, 0.0], vec![10.0, 6.0]),
        );
        engine.register_points("pts", points).unwrap();
        engine.open_session("alice", eps(10.0)).unwrap();
        engine.open_session("bob", eps(10.0)).unwrap();
        engine
    };
    let weights: Vec<f64> = (0..128).map(|i| ((i * 5) % 11) as f64).collect();
    let requests = [
        Request::histogram("pol", "ds", eps(0.5)),
        Request::cumulative_histogram("pol", "ds", eps(0.25)),
        Request::range("pol", "ds", eps(0.125), 9, 77),
        Request::linear("pol", "ds", eps(0.5), weights),
        Request::kmeans("pol", "pts", eps(1.0), 3, 4, KmeansSecretSpec::Full),
        Request::cumulative_histogram("pol", "ds", eps(0.25)),
    ];
    let who = |i: usize| ["alice", "bob"][i % 2];

    let one_by_one = build();
    let expected: Vec<Response> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| one_by_one.serve(who(i), r).unwrap())
        .collect();

    let together = build();
    let trace = TraceContext::inert();
    let waiters: Vec<[Waiter<'_>; 1]> = (0..requests.len())
        .map(|i| {
            [Waiter {
                analyst: who(i),
                tag: None,
                trace: &trace,
            }]
        })
        .collect();
    let groups: Vec<Group<'_>> = requests
        .iter()
        .zip(&waiters)
        .map(|(request, waiters)| Group { request, waiters })
        .collect();
    let served = together.serve_groups(&groups);
    assert_eq!(
        served.releases.len(),
        requests.len(),
        "one plan per request"
    );
    let answers: Vec<Response> = served
        .slots
        .into_iter()
        .map(|slot| slot.into_iter().next().unwrap().unwrap())
        .collect();
    assert_eq!(answers, expected, "plan for plan, byte for byte");
    for analyst in ["alice", "bob"] {
        assert_eq!(
            together.session_snapshot(analyst).unwrap().ledger(),
            one_by_one.session_snapshot(analyst).unwrap().ledger()
        );
    }
}
