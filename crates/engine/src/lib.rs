//! # bf-engine — a concurrent Blowfish query-serving engine
//!
//! The rest of the workspace is one-shot library calls: build a policy,
//! run a mechanism, get an answer. This crate turns it into a
//! **multi-tenant serving layer** shaped like
//!
//! ```text
//!  analysts ──► sessions (ε-ledgers) ──► router ──► sensitivity cache ──► mechanisms
//! ```
//!
//! * [`Engine`] registers policies, datasets and point sets under names
//!   and routes typed [`Request`]s — histogram, cumulative histogram,
//!   range, linear, k-means — to the mechanism the paper prescribes.
//! * [`SensitivityCache`] memoizes policy-specific sensitivities
//!   `S(f, P)` keyed by `(Policy::cache_key, QueryClass::fingerprint)`.
//!   Sensitivities depend only on the **public** policy and query shape,
//!   never on data, so sharing the cache across analysts is free of
//!   privacy cost — and it removes the secret-graph edge scans from the
//!   hot path entirely (`bfbench --trace 1`: `engine.cold_serve_us`,
//!   `engine.cache_hit_rate`). Entries are **single-flight**: N threads
//!   stampeding one cold key run the closed form exactly once.
//! * [`AnalystSession`] wraps `bf_core::BudgetAccountant`: every analyst
//!   spends from their own ε-ledger under sequential composition
//!   (Theorem 4.1) and is refused — before any data is touched — once
//!   the ledger cannot cover a request. Zero-sensitivity releases are
//!   recorded at ε = 0 (Section 5: they are exact and free).
//! * **One serve pipeline.** What an analyst is charged (sequential
//!   composition) and which release answers them (a lone Laplace count
//!   or a shared Ordered release, Section 7.1) *is* the Blowfish
//!   guarantee as served, so the engine decides it in exactly one
//!   place. [`Engine::serve`], [`Engine::serve_tagged`],
//!   [`Engine::apply_tagged`], [`Engine::serve_batch`] and
//!   [`Engine::serve_groups`] are
//!   front-ends a few lines long over one private pipeline that runs a
//!   list of release plans in one order: *replay* cached tagged retries
//!   → *resolve, admit, calibrate* → *charge* each distinct analyst
//!   once → *draw* the release's generator → *execute* → one WAL frame
//!   per charged analyst → **one** group commit → *acknowledge*. Plans
//!   charge, then execute, in one order on the calling thread, so
//!   same-seed runs are reproducible.
//! * [`Engine::serve_batch`] answers N compatible range queries from
//!   **one** Ordered Mechanism release (Section 7.1) instead of N
//!   independent releases: one ε spend, one noise draw, N two-prefix
//!   reads.
//! * [`Engine::serve_groups`] answers **identical** requests from
//!   *different* analysts out of one release: every waiter's analyst is
//!   charged on their own ledger, then a single mechanism release fans
//!   out to all of them — and range groups that differ only in
//!   endpoints fold further, into one Ordered release, by the same rule
//!   `serve_batch` folds by. This is the entry point the `bf-server`
//!   front-end drains everything due in a tick into: one call, one WAL
//!   group commit.
//! * Policies **with constraints** register through the
//!   `bf-constraints` policy graph: the Theorem 8.2 bound is computed
//!   once at registration and calibrates histogram / range / linear
//!   releases (cumulative and k-means are refused — no sound
//!   constrained calibration exists for them).
//! * **Durability** ([`Engine::with_store`]): with a `bf-store` WAL
//!   attached, every charge is committed durably *before* it is
//!   acknowledged (acknowledge-after-durable), sessions recovered after a
//!   crash resume with their spent ε intact, and re-registration after
//!   recovery is fingerprint-checked so a swapped policy or dataset
//!   cannot inherit the original's ledgers. A replica applying a log
//!   entry whose input is already durable books through
//!   [`Engine::apply_tagged`] instead, which stages the frame for the
//!   store's next commit: recovery runs the entry again to the same
//!   charge.
//! * **Exactly-once retries** ([`Engine::serve_tagged`]): a request
//!   stamped with a durable idempotency key `(analyst, request_id)`
//!   commits its charge and its encoded answer in **one atomic WAL
//!   frame** after the release executes; a retry — in-process or after
//!   a crash — replays the identical bytes from the bounded reply cache
//!   at zero additional ε. A [`Waiter`] of a coalesced group carries
//!   the same tag.
//! * **Lifecycle**: idle sessions can be evicted
//!   ([`Engine::evict_idle_sessions_except`]) — their ledgers park and
//!   reattach on the next `open_session`, so eviction never forgets
//!   spent budget.
//!
//! The engine is `Send + Sync`; wrap it in an `Arc` and serve from as
//! many threads as you like. The four registries are 16-way sharded by
//! key hash so serve-path lookups and registrations contend on
//! different locks. Each release derives its own noise generator from
//! the engine seed, the release's fingerprint and its first charged
//! analyst's ledger position — the count of that analyst's earlier
//! charges, which the WAL replays — so no lock is held while a mechanism
//! runs, single-threaded serving is fully reproducible, and a restarted
//! engine or a replica draws what an uninterrupted one would.

mod cache;
mod engine;
mod error;
mod request;
mod session;
mod shard;

pub use cache::{CacheStats, SensitivityCache};
pub use engine::{Engine, Group, ParkedSession, Served, Waiter};
pub use error::EngineError;
pub use request::{Request, RequestKind, Response};
pub use session::AnalystSession;

// The durable-ledger types engine callers need to attach persistence.
pub use bf_store::{Store, StoreConfig, StoreError, StoreStats};

#[cfg(test)]
mod tests {
    use super::*;
    use bf_core::{Epsilon, Policy};
    use bf_domain::{Dataset, Domain};
    use std::sync::Arc;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// A coalesced group in owned form: `(analyst, tag)` waiters sharing
    /// one request.
    type OwnedGroup<'a> = (Vec<(&'a str, Option<u64>)>, &'a Request);

    /// `(analysts, request) → group`: one untagged waiter per analyst.
    fn group<'a>(analysts: &[&'a str], request: &'a Request) -> OwnedGroup<'a> {
        (analysts.iter().map(|&a| (a, None)).collect(), request)
    }

    /// [`Engine::serve_groups`] over owned groups, untraced.
    fn serve_groups(engine: &Engine, groups: &[OwnedGroup<'_>]) -> Served {
        let trace = bf_obs::TraceContext::inert();
        let waiters: Vec<Vec<Waiter<'_>>> = groups
            .iter()
            .map(|(waiters, _)| {
                let waiter = |&(analyst, tag)| Waiter {
                    analyst,
                    tag,
                    trace: &trace,
                };
                waiters.iter().map(waiter).collect()
            })
            .collect();
        let groups: Vec<Group<'_>> = groups
            .iter()
            .zip(&waiters)
            .map(|(&(_, request), waiters)| Group { request, waiters })
            .collect();
        engine.serve_groups(&groups)
    }

    fn engine_with_line_policy(size: usize, theta: u64) -> Engine {
        with_line_policy(Engine::with_seed(42), size, theta)
    }

    /// Registers `pol`, θ-distance on a line of `size` cells, and `ds`,
    /// ten rows a cell, on `engine`.
    fn with_line_policy(engine: Engine, size: usize, theta: u64) -> Engine {
        let domain = Domain::line(size).unwrap();
        engine
            .register_policy("pol", Policy::distance_threshold(domain.clone(), theta))
            .unwrap();
        let rows: Vec<usize> = (0..10 * size).map(|i| (i * 7) % size).collect();
        engine
            .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
            .unwrap();
        engine
    }

    /// One violating request per row of the admissible-value table, each
    /// refused with `InvalidRequest` before the charge — the ledger's
    /// position and the store's committed records do not move (a
    /// subnormal charge would not show in `session_remaining`:
    /// 1e9 − 5e-324 == 1e9) — and each row's boundary values served with
    /// finite answers.
    #[test]
    fn every_admissible_row_refuses_before_the_charge() {
        use bf_core::{CountConstraint, Predicate};
        use bf_domain::{BoundingBox, PointSet};
        use bf_graph::SecretGraph;
        use bf_mechanisms::kmeans::KmeansSecretSpec::*;
        let dir = bf_store::scratch_dir("engine-admissible");
        let engine = Engine::with_store(3, Arc::new(Store::open(&dir).unwrap()));
        let line = Domain::line(64).unwrap();
        let dp = Policy::differential_privacy(line.clone());
        engine.register_policy("pol", dp).unwrap();
        let fenced = CountConstraint::new(Predicate::of_values(64, &[0, 1, 2, 3]), 2);
        let constrained =
            Policy::with_constraints(line.clone(), SecretGraph::Full, vec![fenced]).unwrap();
        engine.register_policy("cpol", constrained).unwrap();
        let rows: Vec<usize> = (0..1_000).map(|i| (i * 7) % 64).collect();
        let datasets = [
            ("ds", Dataset::from_rows(line.clone(), rows).unwrap()),
            // One row: the overflows only the ε row sees.
            ("one", Dataset::from_rows(line, vec![3]).unwrap()),
            // 64 cells again, in another shape.
            (
                "grid",
                Dataset::from_rows(Domain::from_cardinalities(&[8, 8]).unwrap(), vec![0]).unwrap(),
            ),
        ];
        for (name, dataset) in datasets {
            engine.register_dataset(name, dataset).unwrap();
        }
        let points = |hi: f64| {
            PointSet::new(
                vec![
                    vec![1.0, 1.0],
                    vec![1.2, 0.8],
                    vec![9.0, 9.0],
                    vec![8.8, 9.1],
                ],
                BoundingBox::new(vec![-hi, -hi], vec![hi, hi]),
            )
        };
        engine.register_points("pts", points(10.0)).unwrap();
        // A bounding box whose L1 diameter overflows.
        engine.register_points("huge", points(1e308)).unwrap();
        engine.open_session("alice", eps(1e9)).unwrap();

        let e = eps(0.5);
        let kmeans = |k, iterations, spec| Request::kmeans("pol", "pts", e, k, iterations, spec);
        let weights = |w: &[f64]| [w, &vec![0.0; 64 - w.len()]].concat();
        let mut bad = vec![
            // policy
            Request::cumulative_histogram("cpol", "ds", e),
            Request::kmeans("cpol", "pts", e, 2, 3, Full),
            // data
            Request::histogram("pol", "grid", e),
            // lo, hi
            Request::range("pol", "ds", e, 5, 4),
            Request::range("pol", "ds", e, 0, 64),
            // weights: length, finiteness, max|w|·n
            Request::linear("pol", "ds", e, vec![1.0; 63]),
            Request::linear("pol", "ds", e, weights(&[f64::NAN])),
            Request::linear("pol", "ds", e, weights(&[f64::NEG_INFINITY])),
            Request::linear("pol", "ds", e, vec![1e307; 64]),
            // k
            kmeans(0, 3, Full),
            kmeans(5, 3, Full),
            // iterations
            kmeans(2, 0, Full),
            kmeans(2, 1_001, Full),
            kmeans(2, 1 << 40, Full),
            // spec
            kmeans(2, 3, L1Threshold(0.0)),
            kmeans(2, 3, L1Threshold(-1.0)),
            kmeans(2, 3, L1Threshold(f64::NAN)),
            kmeans(2, 3, L1Threshold(f64::INFINITY)),
            kmeans(2, 3, PartitionMaxDiameter(-1.0)),
            kmeans(2, 3, PartitionMaxDiameter(f64::NAN)),
            kmeans(2, 3, PartitionMaxDiameter(f64::INFINITY)),
            // ε: the span of the weights, a constrained bound × max|w|,
            // the point set's diameter and the per-iteration split
            Request::linear("pol", "one", e, weights(&[1e308, -1e308])),
            Request::linear("cpol", "one", e, weights(&[1e308])),
            Request::kmeans("pol", "huge", e, 2, 3, Full),
            Request::kmeans("pol", "pts", eps(1e-320), 2, 1_000, L1Threshold(1.0)),
            Request::kmeans("pol", "pts", eps(5e-324), 2, 1, Exact),
        ];
        for epsilon in [5e-324, 1e-320, 1e-310].map(eps) {
            let w: Vec<f64> = (0..64).map(f64::from).collect();
            bad.extend([
                Request::range("pol", "ds", epsilon, 3, 40),
                Request::histogram("pol", "ds", epsilon),
                Request::cumulative_histogram("pol", "ds", epsilon),
                Request::linear("pol", "ds", epsilon, w),
                Request::kmeans("pol", "pts", epsilon, 2, 10, L1Threshold(1.0)),
            ]);
        }
        let committed = || engine.ledger_history("alice").unwrap().len();
        for request in &bad {
            let served = engine.session_snapshot("alice").unwrap().served();
            let records = committed();
            let err = engine.serve("alice", request).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidRequest(_)),
                "{request:?}: {err:?}"
            );
            // Folded into a batch with an admissible range, it still
            // fails alone.
            let fellow = Request::range("pol", "ds", request.epsilon, 1, 2);
            let out = engine.serve_batch("alice", &[request.clone(), fellow]);
            assert!(matches!(out[0], Err(EngineError::InvalidRequest(_))));
            let after = engine.session_snapshot("alice").unwrap().served();
            assert_eq!(after, served + u64::from(out[1].is_ok()), "{request:?}");
            assert_eq!(committed(), records + after as usize - served as usize);
        }

        // Each row's boundary values are served, with finite answers.
        let good = [
            Request::histogram("cpol", "ds", e),
            Request::histogram("pol", "one", e),
            Request::range("pol", "ds", e, 0, 63),
            Request::range("pol", "ds", e, 7, 7),
            Request::linear("pol", "ds", e, vec![1e305; 64]),
            Request::linear("pol", "one", e, weights(&[1e306, -1e306])),
            kmeans(1, 1, Full),
            kmeans(4, 1_000, L1Threshold(f64::MIN_POSITIVE)),
            kmeans(2, 3, PartitionMaxDiameter(0.0)),
            Request::kmeans("pol", "pts", eps(1e-320), 2, 1_000, Exact),
            Request::histogram("pol", "ds", eps(1e-300)),
        ];
        for request in &good {
            let answer = engine.serve("alice", request).unwrap();
            let values: Vec<f64> = match answer {
                Response::Scalar(x) => vec![x],
                Response::Histogram(v) | Response::Prefixes(v) => v,
                Response::Centroids(c) => c.concat(),
            };
            assert!(values.iter().all(|v| v.is_finite()), "{request:?}");
        }
        let answer = engine.serve("alice", &kmeans(2, 3, Full)).unwrap();
        let centroids = answer.centroids().unwrap();
        assert!(centroids.len() == 2 && centroids.iter().all(|c| c.len() == 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessions_are_isolated_per_analyst() {
        let engine = engine_with_line_policy(16, 1);
        engine.open_session("alice", eps(1.0)).unwrap();
        engine.open_session("bob", eps(0.5)).unwrap();
        engine
            .serve("alice", &Request::histogram("pol", "ds", eps(0.9)))
            .unwrap();
        // Alice's spend does not touch Bob's ledger.
        assert!((engine.session_remaining("bob").unwrap() - 0.5).abs() < 1e-12);
        assert!(engine
            .serve("bob", &Request::histogram("pol", "ds", eps(0.4)))
            .is_ok());
        // Reopening is refused.
        assert!(matches!(
            engine.open_session("alice", eps(9.0)),
            Err(EngineError::SessionExists(_))
        ));
    }

    /// Repeats of one range class miss once, then hit; under eight threads
    /// every request is one hit or one miss, and each class is computed once.
    #[test]
    fn the_release_cache_counts_every_request_once() {
        let engine = &engine_with_line_policy(64, 2);
        engine.open_session("alice", eps(1000.0)).unwrap();
        let range = |lo| Request::range("pol", "ds", eps(0.01), lo, lo + 16);
        for _ in 0..5 {
            engine.serve("alice", &range(0)).unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 4));
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(move || {
                    for i in 0..25 {
                        engine.serve("alice", &range((t * 7 + i) % 32)).unwrap();
                    }
                });
            }
        });
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, 5 + 8 * 25);
        assert!(stats.entries <= 32 && stats.computes == stats.entries as u64);
    }

    #[test]
    fn zero_sensitivity_requests_are_free() {
        use bf_domain::Partition;
        let engine = Engine::with_seed(1);
        let domain = Domain::line(8).unwrap();
        // Singleton partition: no secret edges at all → every release is
        // exact and free.
        engine
            .register_policy(
                "pol",
                Policy::partitioned(domain.clone(), Partition::singletons(8)),
            )
            .unwrap();
        let ds = Dataset::from_rows(domain, vec![0, 1, 1, 7]).unwrap();
        let truth = ds.histogram().counts().to_vec();
        engine.register_dataset("ds", ds).unwrap();
        engine.open_session("alice", eps(0.1)).unwrap();
        for _ in 0..10 {
            let h = engine
                .serve("alice", &Request::histogram("pol", "ds", eps(1.0)))
                .unwrap();
            assert_eq!(h.vector().unwrap(), truth.as_slice());
        }
        assert_eq!(engine.session_snapshot("alice").unwrap().spent(), 0.0);
    }

    #[test]
    fn unknown_names_are_reported() {
        let engine = engine_with_line_policy(8, 1);
        engine.open_session("alice", eps(1.0)).unwrap();
        assert!(matches!(
            engine.serve("alice", &Request::histogram("pol", "nope", eps(0.1))),
            Err(EngineError::UnknownDataset(_))
        ));
        let dp = Policy::differential_privacy(Domain::line(2).unwrap());
        let duplicate = engine.register_policy("pol", dp);
        assert!(matches!(duplicate, Err(EngineError::DuplicateName(_))));
    }

    #[test]
    fn batch_refusal_reports_every_member_and_spends_nothing() {
        let engine = engine_with_line_policy(64, 1);
        engine.open_session("alice", eps(0.1)).unwrap();
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request::range("pol", "ds", eps(0.5), i, i + 1))
            .collect();
        let answers = engine.serve_batch("alice", &reqs);
        assert!(answers
            .iter()
            .all(|a| matches!(a, Err(EngineError::BudgetRefused { .. }))));
        assert_eq!(engine.session_snapshot("alice").unwrap().spent(), 0.0);
    }

    /// A Section-8-style constrained workload is servable: the marginal
    /// constraints of Example 8.2 register through the policy-graph
    /// bound and calibrate histogram / range / linear releases.
    #[test]
    fn constrained_policies_serve_through_the_policy_graph_bound() {
        use bf_core::{CountConstraint, Predicate};
        use bf_graph::SecretGraph;
        let engine = Engine::with_seed(82);
        let domain = Domain::from_cardinalities(&[2, 2, 3]).unwrap();
        // The {A1, A2} marginal of Example 8.2: four published counts.
        let constraints: Vec<CountConstraint> = (0..2u32)
            .flat_map(|a1| (0..2u32).map(move |a2| (a1, a2)))
            .map(|(a1, a2)| {
                let d = domain.clone();
                CountConstraint::new(
                    Predicate::from_fn(12, move |x| {
                        d.attribute_value(x, 0) == a1 && d.attribute_value(x, 1) == a2
                    }),
                    3,
                )
            })
            .collect();
        let policy =
            Policy::with_constraints(domain.clone(), SecretGraph::Full, constraints).unwrap();
        engine.register_policy("census", policy).unwrap();
        let rows: Vec<usize> = (0..120).map(|i| i % 12).collect();
        engine
            .register_dataset("people", Dataset::from_rows(domain, rows).unwrap())
            .unwrap();
        engine.open_session("alice", eps(10.0)).unwrap();

        let h = engine
            .serve("alice", &Request::histogram("census", "people", eps(1.0)))
            .unwrap();
        assert_eq!(h.vector().unwrap().len(), 12);
        let r = engine
            .serve("alice", &Request::range("census", "people", eps(1.0), 2, 7))
            .unwrap();
        assert!(r.scalar().unwrap().is_finite());
        let w: Vec<f64> = (0..12).map(|i| (i % 5) as f64).collect();
        let l = engine
            .serve("alice", &Request::linear("census", "people", eps(1.0), w))
            .unwrap();
        assert!(l.scalar().unwrap().is_finite());
        // The cumulative release has no sound constrained calibration.
        assert!(matches!(
            engine.serve(
                "alice",
                &Request::cumulative_histogram("census", "people", eps(1.0))
            ),
            Err(EngineError::InvalidRequest(_))
        ));
        // All three served releases charged the ledger.
        let snap = engine.session_snapshot("alice").unwrap();
        assert_eq!(snap.served(), 3);
        assert!((snap.spent() - 3.0).abs() < 1e-12);
    }

    /// Non-sparse constraint sets are still refused — now with the typed
    /// constraint error from the Section 8 machinery.
    #[test]
    fn non_sparse_constrained_policies_are_refused() {
        use bf_core::{CountConstraint, Predicate};
        use bf_graph::SecretGraph;
        let engine = Engine::default();
        let d = Domain::line(4).unwrap();
        // Overlapping predicates: one edge lifts two queries at once.
        let c1 = CountConstraint::new(Predicate::of_values(4, &[0, 1]), 1);
        let c2 = CountConstraint::new(Predicate::of_values(4, &[0, 1, 2]), 2);
        let p = Policy::with_constraints(d, SecretGraph::Full, vec![c1, c2]).unwrap();
        assert!(matches!(
            engine.register_policy("q", p),
            Err(EngineError::Constraint(_))
        ));
    }

    /// Constrained ranges skip the shared-release grouping and are still
    /// answered (individually Laplace-calibrated) by serve_batch.
    #[test]
    fn constrained_ranges_fall_through_batch_grouping() {
        use bf_core::{CountConstraint, Predicate};
        use bf_graph::SecretGraph;
        let engine = Engine::with_seed(9);
        let d = Domain::line(8).unwrap();
        let c = CountConstraint::new(Predicate::of_values(8, &[0, 1, 2, 3]), 2);
        let p = Policy::with_constraints(d.clone(), SecretGraph::Full, vec![c]).unwrap();
        engine.register_policy("pol", p).unwrap();
        engine
            .register_dataset("ds", Dataset::from_rows(d, vec![0, 1, 5, 6]).unwrap())
            .unwrap();
        engine.open_session("alice", eps(10.0)).unwrap();
        let reqs: Vec<Request> = (0..3)
            .map(|i| Request::range("pol", "ds", eps(0.5), i, i + 2))
            .collect();
        let out = engine.serve_batch("alice", &reqs);
        assert!(out.iter().all(|r| r.is_ok()));
        // Three individual spends, not one group spend.
        let snap = engine.session_snapshot("alice").unwrap();
        assert!((snap.spent() - 1.5).abs() < 1e-12);
    }

    /// An all-refused group performs no release and takes no ledger
    /// position: the next request matches a fresh engine's first.
    #[test]
    fn all_refused_coalesced_group_takes_no_ledger_position() {
        let probe = Request::range("pol", "ds", eps(0.2), 5, 25);
        let with_refusal = {
            let engine = engine_with_line_policy(64, 2);
            engine.open_session("broke", eps(0.01)).unwrap();
            engine.open_session("alice", eps(1.0)).unwrap();
            let out = serve_groups(&engine, &[group(&["broke"], &probe)])
                .slots
                .remove(0);
            assert!(matches!(out[0], Err(EngineError::BudgetRefused { .. })));
            engine.serve("alice", &probe).unwrap().scalar().unwrap()
        };
        let fresh = {
            let engine = engine_with_line_policy(64, 2);
            engine.open_session("alice", eps(1.0)).unwrap();
            engine.serve("alice", &probe).unwrap().scalar().unwrap()
        };
        assert_eq!(with_refusal.to_bits(), fresh.to_bits());
    }

    /// Two constrained policies with the same graph/domain but different
    /// constraint sets can carry different Theorem 8.2 bounds — their
    /// requests must never coalesce into one release, or one analyst
    /// would receive noise calibrated for the other's policy.
    #[test]
    fn constrained_policies_with_different_constraints_never_coalesce() {
        use bf_core::{CountConstraint, Predicate};
        use bf_graph::SecretGraph;
        let engine = Engine::with_seed(4);
        let d = Domain::line(8).unwrap();
        let narrow = Policy::with_constraints(
            d.clone(),
            SecretGraph::Full,
            vec![CountConstraint::new(Predicate::of_values(8, &[0]), 1)],
        )
        .unwrap();
        let wide = Policy::with_constraints(
            d.clone(),
            SecretGraph::Full,
            vec![CountConstraint::new(
                Predicate::of_values(8, &[0, 1, 2, 3]),
                2,
            )],
        )
        .unwrap();
        engine.register_policy("narrow", narrow).unwrap();
        engine.register_policy("wide", wide).unwrap();
        engine
            .register_dataset("ds", Dataset::from_rows(d, vec![0, 2, 5]).unwrap())
            .unwrap();
        let ka = engine
            .coalesce_key(&Request::range("narrow", "ds", eps(0.5), 1, 6))
            .unwrap()
            .unwrap();
        let kb = engine
            .coalesce_key(&Request::range("wide", "ds", eps(0.5), 1, 6))
            .unwrap()
            .unwrap();
        assert_ne!(ka, kb, "different constraint sets must key apart");
    }

    #[test]
    fn coalesce_keys_group_identical_requests_only() {
        let engine = engine_with_line_policy(32, 1);
        let k1 = engine
            .coalesce_key(&Request::range("pol", "ds", eps(0.5), 1, 9))
            .unwrap()
            .unwrap();
        let k2 = engine
            .coalesce_key(&Request::range("pol", "ds", eps(0.5), 1, 9))
            .unwrap()
            .unwrap();
        let other_range = engine
            .coalesce_key(&Request::range("pol", "ds", eps(0.5), 1, 10))
            .unwrap()
            .unwrap();
        let other_eps = engine
            .coalesce_key(&Request::range("pol", "ds", eps(0.6), 1, 9))
            .unwrap()
            .unwrap();
        assert_eq!(k1, k2);
        assert_ne!(k1, other_range);
        assert_ne!(k1, other_eps);
        assert!(matches!(
            engine.coalesce_key(&Request::histogram("nope", "ds", eps(0.1))),
            Err(EngineError::UnknownPolicy(_))
        ));
        use bf_mechanisms::kmeans::KmeansSecretSpec;
        assert_eq!(
            engine
                .coalesce_key(&Request::kmeans(
                    "pol",
                    "pts",
                    eps(0.1),
                    2,
                    3,
                    KmeansSecretSpec::Full
                ))
                .unwrap(),
            None
        );
    }

    #[test]
    fn eviction_parks_and_reattaches_without_forgetting() {
        let engine = engine_with_line_policy(32, 2);
        engine.open_session("alice", eps(1.0)).unwrap();
        engine
            .serve("alice", &Request::range("pol", "ds", eps(0.6), 2, 9))
            .unwrap();
        // Grab the live handle first so the stale-handle path is tested.
        let req = Request::range("pol", "ds", eps(0.1), 0, 5);
        let evicted = engine.evict_idle_sessions_except(std::time::Duration::ZERO, &[]);
        assert_eq!(evicted, vec!["alice".to_owned()]);
        assert!(matches!(
            engine.serve("alice", &req),
            Err(EngineError::SessionEvicted(_))
        ));
        assert!(matches!(
            engine.evict_session("alice"),
            Err(EngineError::SessionEvicted(_))
        ));
        assert_eq!(engine.parked_analysts(), vec!["alice".to_owned()]);
        // Reattach: spent ε survives the round trip.
        engine.open_session("alice", eps(1.0)).unwrap();
        assert!((engine.session_remaining("alice").unwrap() - 0.4).abs() < 1e-12);
        assert!(engine.parked_analysts().is_empty());
        let snap = engine.session_snapshot("alice").unwrap();
        assert_eq!(snap.served(), 1);
        assert_eq!(snap.ledger(), &[("recovered".to_owned(), 0.6)]);
        engine.serve("alice", &req).unwrap();
        // A session that was never opened is still "unknown", not
        // "evicted".
        assert!(matches!(
            engine.evict_session("nobody"),
            Err(EngineError::UnknownAnalyst(_))
        ));
    }

    #[test]
    fn recovered_registrations_are_fingerprint_checked() {
        let dir = bf_store::scratch_dir("engine-fingerprint");
        let domain = Domain::line(16).unwrap();
        let honest = Dataset::from_rows(domain.clone(), vec![1, 2, 3, 3]).unwrap();
        let swapped = Dataset::from_rows(domain.clone(), vec![9, 9, 9, 9]).unwrap();
        {
            let store = Arc::new(Store::open(&dir).unwrap());
            let engine = Engine::with_store(7, store);
            engine
                .register_policy("pol", Policy::distance_threshold(domain.clone(), 2))
                .unwrap();
            engine.register_dataset("ds", honest.clone()).unwrap();
        }
        let store = Arc::new(Store::open(&dir).unwrap());
        let engine = Engine::with_store(7, store);
        // A swapped dataset under the recovered name is refused…
        assert!(matches!(
            engine.register_dataset("ds", swapped.clone()),
            Err(EngineError::RegistrationMismatch {
                kind: "dataset",
                ..
            })
        ));
        // …a different policy too…
        assert!(matches!(
            engine.register_policy("pol", Policy::differential_privacy(domain.clone())),
            Err(EngineError::RegistrationMismatch { kind: "policy", .. })
        ));
        // …while the honest objects reattach cleanly.
        engine
            .register_policy("pol", Policy::distance_threshold(domain, 2))
            .unwrap();
        engine.register_dataset("ds", honest).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesced_fanout_charges_are_durable() {
        let dir = bf_store::scratch_dir("engine-coalesced");
        {
            let store = Arc::new(Store::open(&dir).unwrap());
            let engine = with_line_policy(Engine::with_store(9, store), 64, 2);
            let analysts: Vec<String> = (0..5).map(|i| format!("a{i}")).collect();
            for a in &analysts {
                engine.open_session(a, eps(1.0)).unwrap();
            }
            let req = Request::range("pol", "ds", eps(0.25), 5, 30);
            let names: Vec<&str> = analysts.iter().map(String::as_str).collect();
            let out = serve_groups(&engine, &[group(&names, &req)])
                .slots
                .remove(0);
            assert!(out.iter().all(|r| r.is_ok()));
            let stats = engine.store().unwrap().stats();
            // 5 opens + 5 fan-out charges + 2 registrations appended; the
            // 5 fan-out charges rode in ONE commit.
            assert_eq!(stats.appended_records, 12);
            assert_eq!(stats.commits, 8);
        }
        let store = Store::open(&dir).unwrap();
        for i in 0..5 {
            let s = &store.recovered_state().sessions[&format!("a{i}")];
            assert!((s.spent - 0.25).abs() < 1e-12, "analyst a{i}: {}", s.spent);
            assert_eq!(s.served, 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attach_session_is_idempotent_across_live_parked_and_fresh() {
        let engine = engine_with_line_policy(32, 2);
        // Fresh: opens and returns the full budget.
        assert!((engine.attach_session("alice", eps(1.0)).unwrap() - 1.0).abs() < 1e-12);
        engine
            .serve("alice", &Request::range("pol", "ds", eps(0.25), 4, 20))
            .unwrap();
        // Live: a reconnect lands on the same ledger.
        assert!((engine.attach_session("alice", eps(1.0)).unwrap() - 0.75).abs() < 1e-12);
        // Live with a different total would mint budget: refused.
        assert!(matches!(
            engine.attach_session("alice", eps(2.0)),
            Err(EngineError::InvalidRequest(_))
        ));
        // Parked: eviction then attach reattaches with spent intact.
        engine.evict_session("alice").unwrap();
        assert!((engine.attach_session("alice", eps(1.0)).unwrap() - 0.75).abs() < 1e-12);
        engine
            .serve("alice", &Request::range("pol", "ds", eps(0.25), 4, 20))
            .unwrap();
        assert!((engine.session_remaining("alice").unwrap() - 0.5).abs() < 1e-12);
    }

    /// The fold rule, asserted on what it does: which pairs of requests
    /// ride one Ordered release (one plan, one `batch:2xrange` charge)
    /// and which stay two releases.
    #[test]
    fn range_group_key_discriminates_kinds_policies_and_bounds() {
        let engine = engine_with_line_policy(32, 2);
        engine.open_session("alice", eps(100.0)).unwrap();
        let pair = |a: &Request, b: &Request| {
            let before = engine.session_snapshot("alice").unwrap().ledger().len();
            let served = serve_groups(&engine, &[group(&["alice"], a), group(&["alice"], b)]);
            let ledger = engine.session_snapshot("alice").unwrap().ledger()[before..].to_vec();
            (served, ledger)
        };
        let base = Request::range("pol", "ds", eps(0.5), 2, 10);

        let (served, ledger) = pair(&base, &Request::range("pol", "ds", eps(0.5), 5, 20));
        assert_eq!(served.releases, [[0, 1]], "endpoints do not split the fold");
        assert_eq!(ledger.len(), 1, "one release, one charge");
        assert!(ledger[0].0.starts_with("batch:2xrange@pol/ds"));
        assert!(served.slots.iter().all(|s| s[0].is_ok()));

        let (served, ledger) = pair(&base, &Request::range("pol", "ds", eps(0.25), 2, 10));
        assert_eq!(
            served.releases,
            [[0], [1]],
            "a different \u{03b5} does split"
        );
        assert_eq!(ledger.len(), 2);

        let (served, _) = pair(&base, &Request::histogram("pol", "ds", eps(0.5)));
        assert_eq!(served.releases, [[0], [1]], "only ranges fold");

        let (served, ledger) = pair(&base, &Request::range("pol", "ds", eps(0.5), 30, 40));
        assert_eq!(served.releases, [[0], [1]]);
        assert!(served.slots[0][0].is_ok());
        assert!(
            matches!(served.slots[1][0], Err(EngineError::InvalidRequest(_))),
            "out-of-bounds ranges fail individually"
        );
        assert_eq!(ledger.len(), 1, "and charge nothing");

        let (served, _) = pair(&Request::range("nope", "ds", eps(0.5), 2, 10), &base);
        assert_eq!(served.releases, [[0], [1]]);
        assert!(matches!(
            served.slots[0][0],
            Err(EngineError::UnknownPolicy(_))
        ));
        assert!(served.slots[1][0].is_ok());
    }

    #[test]
    fn range_groups_share_one_ordered_release_across_analysts() {
        let run = || {
            let engine = engine_with_line_policy(64, 2);
            for a in ["a", "b", "c"] {
                engine.open_session(a, eps(1.0)).unwrap();
            }
            let wide = Request::range("pol", "ds", eps(0.5), 8, 24);
            let wider = Request::range("pol", "ds", eps(0.5), 2, 30);
            let groups = [group(&["a", "b"], &wide), group(&["c"], &wider)];
            let slots = serve_groups(&engine, &groups).slots;
            let answers: Vec<Vec<f64>> = slots
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|s| s.as_ref().unwrap().scalar().unwrap())
                        .collect()
                })
                .collect();
            // Every analyst paid once, on their own ledger.
            for a in ["a", "b", "c"] {
                let snap = engine.session_snapshot(a).unwrap();
                assert!((snap.spent() - 0.5).abs() < 1e-12);
                assert_eq!(snap.served(), 1);
            }
            answers
        };
        let answers = run();
        // Identical endpoints share one value; the shared release keeps
        // both ranges consistent (prefix reads of one noisy cumulative).
        assert_eq!(answers[0][0].to_bits(), answers[0][1].to_bits());
        // Same-seed runs are byte-identical.
        let again = run();
        assert_eq!(
            answers
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            again
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_groups_refuse_only_the_broke_analyst() {
        let engine = engine_with_line_policy(64, 2);
        engine.open_session("rich", eps(1.0)).unwrap();
        engine.open_session("poor", eps(0.1)).unwrap();
        let request = Request::range("pol", "ds", eps(0.5), 8, 24);
        let slots = serve_groups(&engine, &[group(&["rich", "poor", "ghost"], &request)]).slots;
        assert!(slots[0][0].is_ok());
        assert!(matches!(
            slots[0][1],
            Err(EngineError::BudgetRefused { .. })
        ));
        assert!(matches!(slots[0][2], Err(EngineError::UnknownAnalyst(_))));
        assert!((engine.session_remaining("poor").unwrap() - 0.1).abs() < 1e-12);
    }

    /// A release's noise depends only on (seed, what is released, the
    /// payer's ledger position) — never on how OTHER analysts' releases
    /// interleave. Two same-seed engines serving the same per-analyst
    /// streams in different global orders produce byte-identical answers.
    #[test]
    fn noise_is_independent_of_cross_key_arrival_order() {
        let build = || {
            let engine = engine_with_line_policy(64, 2);
            engine.open_session("a", eps(10.0)).unwrap();
            engine.open_session("b", eps(10.0)).unwrap();
            engine
        };
        let req_a = Request::range("pol", "ds", eps(0.5), 8, 24);
        let req_b = Request::histogram("pol", "ds", eps(0.25));
        let e1 = build();
        let r1a = e1.serve("a", &req_a).unwrap();
        let r1b = e1.serve("b", &req_b).unwrap();
        let e2 = build();
        let r2b = e2.serve("b", &req_b).unwrap(); // reversed order
        let r2a = e2.serve("a", &req_a).unwrap();
        assert_eq!(r1a, r2a, "range noise unaffected by the histogram");
        assert_eq!(r1b, r2b, "histogram noise unaffected by the range");
        // Repeats of one identity still draw fresh noise.
        let r3a = e1.serve("a", &req_a).unwrap();
        assert_ne!(r1a, r3a, "the ledger position advances");
    }

    /// The charge-per-release discipline is path-independent: an
    /// analyst with several waiter slots on one coalesced release pays
    /// ε once — exactly what a batch or a fold of ranges charges —
    /// so a ledger never depends on which dispatch path unrelated
    /// traffic routed the request through.
    #[test]
    fn duplicate_waiters_of_one_release_are_charged_once() {
        let engine = engine_with_line_policy(32, 2);
        engine.open_session("dup", eps(1.0)).unwrap();
        let request = Request::range("pol", "ds", eps(0.4), 4, 20);
        let slots = serve_groups(&engine, &[group(&["dup", "dup"], &request)])
            .slots
            .remove(0);
        assert_eq!(slots.len(), 2);
        assert!(slots.iter().all(|s| s.is_ok()));
        let snap = engine.session_snapshot("dup").unwrap();
        assert_eq!(snap.served(), 1, "one release, one charge");
        assert!((snap.spent() - 0.4).abs() < 1e-12);
    }

    /// The PR 6 side-channel guarantee, engine-level: a fully
    /// instrumented run (metrics and spans enabled) and a
    /// metrics-off run over the same seed produce bit-identical answers
    /// and byte-identical durable ledgers.
    #[test]
    fn instrumentation_never_perturbs_noise_or_ledgers() {
        let run = |tag: &str, metrics_on: bool| {
            let dir = bf_store::scratch_dir(tag);
            let store = Arc::new(Store::open(&dir).unwrap());
            let engine = Engine::with_store(42, store);
            engine.obs().set_enabled(metrics_on);
            engine.store().unwrap().obs().set_enabled(metrics_on);
            let engine = with_line_policy(engine, 64, 3);
            engine.open_session("alice", eps(10.0)).unwrap();
            engine.open_session("bob", eps(10.0)).unwrap();
            let mut answers = Vec::new();
            for lo in 0..8 {
                let range = Request::range("pol", "ds", eps(0.1), lo, lo + 20);
                answers.push(engine.serve("alice", &range).unwrap());
                let histogram = Request::histogram("pol", "ds", eps(0.05));
                answers.push(engine.serve("bob", &histogram).unwrap());
            }
            let batch = (0..6).map(|i| Request::range("pol", "ds", eps(0.02), i, i + 10));
            for r in engine.serve_batch("alice", &batch.collect::<Vec<_>>()) {
                answers.push(r.unwrap());
            }
            engine.compact().unwrap();
            let digest = engine.store().unwrap().current_state().digest();
            std::fs::remove_dir_all(&dir).unwrap();
            (answers, digest)
        };
        let (on_answers, on_digest) = run("engine-obs-on", true);
        let (off_answers, off_digest) = run("engine-obs-off", false);
        assert_eq!(on_answers, off_answers, "answers must not see the metrics");
        assert_eq!(on_digest, off_digest, "ledgers must not see the metrics");
    }

    /// The WAL commit is one lap: its histogram sample and one
    /// `WalCommit` span in every active trace of the call, inert traces
    /// recording nothing — and the commit is the same either way.
    #[test]
    fn the_wal_commit_lap_records_spans_for_active_traces() {
        let dir = bf_store::scratch_dir("engine-commit-lap");
        let store = Arc::new(Store::open(&dir).unwrap());
        let engine = with_line_policy(Engine::with_store(42, store), 32, 2);
        engine.open_session("a", eps(1.0)).unwrap();
        let buf = bf_obs::TraceBuffer::detached(4);
        let live = buf.begin(bf_obs::TraceId(1), "a");
        let inert = bf_obs::TraceContext::inert();
        let request = Request::range("pol", "ds", eps(0.25), 1, 9);
        let serve = |trace| {
            let waiters = [Waiter {
                analyst: "a",
                tag: None,
                trace,
            }];
            let served = engine.serve_groups(&[Group {
                request: &request,
                waiters: &waiters,
            }]);
            assert!(served.slots[0][0].is_ok());
        };
        serve(&live);
        live.finish("ok");
        let tree = buf.find(bf_obs::TraceId(1)).unwrap();
        let commit: Vec<_> = tree
            .spans
            .iter()
            .filter(|s| s.stage == bf_obs::Stage::WalCommit)
            .collect();
        assert_eq!(commit.len(), 1);
        assert_eq!(commit[0].outcome, "durable");
        serve(&inert);
        assert_eq!(
            engine.store().unwrap().current_state().sessions["a"].spent,
            0.5
        );
        let lap = |s: &bf_obs::MetricSnapshot| s.name() == "span_stage_ns{stage=\"wal_commit\"}";
        let commits = engine.metrics_snapshot().into_iter().find(lap);
        assert!(
            matches!(commits, Some(bf_obs::MetricSnapshot::Histogram { summary, .. })
            if summary.count == 2)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Tagged waiters in a coalesced fan-out: each analyst is charged
    /// once per release, duplicate same-analyst tags still get their
    /// answer cached, and a later retry of any tag replays for free.
    #[test]
    fn tagged_coalesced_fanout_charges_once_and_caches_every_tag() {
        let engine = engine_with_line_policy(64, 2);
        for a in ["a", "b"] {
            engine.open_session(a, eps(1.0)).unwrap();
        }
        let req = Request::range("pol", "ds", eps(0.3), 10, 30);
        let groups = [(vec![("a", Some(1)), ("a", Some(2)), ("b", None)], &req)];
        let slots = serve_groups(&engine, &groups).slots;
        assert!(slots[0].iter().all(|s| s.is_ok()));
        // One release: everyone sees the same answer; "a" paid once for
        // two waiter slots.
        let bits: Vec<Vec<u8>> = slots[0]
            .iter()
            .map(|s| s.as_ref().unwrap().to_bytes())
            .collect();
        assert!(bits.windows(2).all(|w| w[0] == w[1]));
        assert!((engine.session_snapshot("a").unwrap().spent() - 0.3).abs() < 1e-12);
        assert!((engine.session_snapshot("b").unwrap().spent() - 0.3).abs() < 1e-12);
        assert!(engine.session_snapshot("b").unwrap().ledger()[0]
            .0
            .starts_with("coalesced:3x"));
        // Both of a's tags replay for free — including the zero-ε
        // duplicate.
        for rid in [1, 2] {
            assert_eq!(
                engine.serve_tagged("a", rid, &req).unwrap().to_bytes(),
                bits[0]
            );
        }
        assert!((engine.session_snapshot("a").unwrap().spent() - 0.3).abs() < 1e-12);
        assert_eq!(engine.obs().counter("replay_cache_hits").get(), 2);
        // Retrying through the fan-out path itself also hits the cache:
        // the whole group is replayed, nothing is charged, and no ledger
        // position is taken.
        let replayed = serve_groups(&engine, &[(vec![("a", Some(1)), ("a", Some(2))], &req)]).slots;
        assert!(replayed[0]
            .iter()
            .all(|s| s.as_ref().unwrap().to_bytes() == bits[0]));
        assert!((engine.session_snapshot("a").unwrap().spent() - 0.3).abs() < 1e-12);
    }

    /// Tagged range groups cache each waiter's **own** range answer —
    /// different endpoints, different payloads — while still charging
    /// each analyst once for the shared release.
    #[test]
    fn tagged_range_groups_cache_each_waiters_own_answer() {
        let engine = engine_with_line_policy(64, 2);
        engine.open_session("a", eps(1.0)).unwrap();
        let r1 = Request::range("pol", "ds", eps(0.5), 8, 24);
        let r2 = Request::range("pol", "ds", eps(0.5), 2, 30);
        let groups = [(vec![("a", Some(11))], &r1), (vec![("a", Some(12))], &r2)];
        let slots = serve_groups(&engine, &groups).slots;
        let a1 = slots[0][0].as_ref().unwrap().clone();
        let a2 = slots[1][0].as_ref().unwrap().clone();
        assert!((engine.session_snapshot("a").unwrap().spent() - 0.5).abs() < 1e-12);
        // Each tag replays its own group's answer.
        assert_eq!(engine.serve_tagged("a", 11, &r1).unwrap(), a1);
        assert_eq!(engine.serve_tagged("a", 12, &r2).unwrap(), a2);
        assert!((engine.session_snapshot("a").unwrap().spent() - 0.5).abs() < 1e-12);
    }
}
