//! The engine: registries, router, cache, sessions, batching,
//! durability.

use crate::cache::{CacheStats, SensitivityCache};
use crate::error::EngineError;
use crate::request::{admit, Data, Request, RequestKind, Response};
use crate::session::AnalystSession;
use crate::shard::ShardedMap;
use bf_constraints::policy_graph::PolicyGraph;
use bf_constraints::sparse::DEFAULT_SCAN_CAP;
use bf_core::{Epsilon, LaplaceMechanism, Policy, Predicate, QueryClass};
use bf_domain::{CumulativeHistogram, Dataset, Histogram, PointSet};
use bf_mechanisms::kmeans::{init_random, KmeansSecretSpec, PrivateKmeans};
use bf_mechanisms::{OrderedMechanism, RangeAnswerer};
use bf_obs::{
    merge_snapshots, next_link_id, Counter, Gauge, MetricSnapshot, Registry, Stage, TraceContext,
    TraceTimer,
};
use bf_store::{fnv1a, LedgerEntry, Record, RegistryKind, Store, REPLY_CACHE_PER_ANALYST};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One party owed an answer by [`Engine::serve_groups`].
#[derive(Debug, Clone, Copy)]
pub struct Waiter<'a> {
    /// Whose ledger pays for the release.
    pub analyst: &'a str,
    /// The client's idempotency key: `Some(request_id)` marks a retryable
    /// submission, whose answer is cached durably beside its charge.
    pub tag: Option<u64>,
    /// The request's trace context — inert unless the request carried a
    /// client trace id.
    pub trace: &'a TraceContext,
}

/// One coalesced group for [`Engine::serve_groups`]: a request and the
/// waiters who submitted it (identically) and share its answer.
#[derive(Debug, Clone, Copy)]
pub struct Group<'a> {
    /// The request every waiter of the group asked.
    pub request: &'a Request,
    /// Who is owed the answer, in arrival order.
    pub waiters: &'a [Waiter<'a>],
}

/// What [`Engine::serve_groups`] did with its groups.
#[derive(Debug)]
pub struct Served {
    /// One slot per waiter, mirroring the input shape.
    pub slots: Vec<Vec<Result<Response, EngineError>>>,
    /// The release plans in charge order, each listing the groups (by
    /// input index) one mechanism release answered; every group rides
    /// exactly one. A plan of two or more groups is a set of range
    /// groups folded into one Ordered release.
    pub releases: Vec<Vec<usize>>,
}

/// One waiter's answer while the pipeline runs; `None` until resolved.
type Slot = Option<Result<Response, EngineError>>;

/// How [`Engine::run`] books a call's frames before it acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Book {
    /// [`Store::commit`]: durable first. Every caller whose input lives
    /// nowhere else.
    Commit,
    /// [`Store::stage`]: in the store's state first, on disk with its
    /// next commit. Only [`Engine::apply_tagged`], whose input is a
    /// durable log entry that recovery runs again.
    Stage,
}

/// A registered dataset with its aggregates precomputed once: serving
/// reads histograms, never raw rows, so the O(n) aggregation pass and
/// the O(|T|) prefix sums happen at registration instead of per request.
#[derive(Debug, Clone)]
struct DatasetEntry {
    dataset: Arc<Dataset>,
    histogram: Arc<Histogram>,
    cumulative: Arc<CumulativeHistogram>,
}

/// The ledger summary of an evicted (or durably recovered, not yet
/// reattached) session. Spent ε lives here — and in the store when one
/// is attached — until the analyst reopens their session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParkedSession {
    /// Total ε the session opened with.
    pub total: f64,
    /// ε spent before parking.
    pub spent: f64,
    /// Requests served before parking.
    pub served: u64,
    /// Requests refused before parking (not durable; 0 after recovery).
    pub refused: u64,
}

/// A registered policy plus everything derived from it at registration.
///
/// For constrained policies the Theorem 8.2 policy-graph bound on
/// `S(h, P)` is computed **once** here — registration is where the
/// `O(|E|·|Q|)` scan and the exponential-in-`|Q|` cycle search are paid,
/// so the serve path never touches the constraint machinery.
#[derive(Debug, Clone)]
struct PolicyEntry {
    policy: Arc<Policy>,
    /// `Some(2·max{α(G_P), ξ(G_P)})` for constrained policies (a sound
    /// upper bound on the histogram L1 sensitivity under the aligned
    /// neighbor semantics of Section 8), `None` for constraint-free
    /// policies, which use the exact closed forms via the cache.
    constrained_bound: Option<f64>,
}

/// What a plan's mechanism runs on.
#[derive(Debug)]
enum Source {
    /// A dataset's precomputed aggregates and the calibrated `S(f, P)`.
    Table {
        entry: DatasetEntry,
        sensitivity: f64,
    },
    /// A k-means point set and the configured mechanism (its
    /// sensitivities come from the physical-unit spec).
    Points {
        points: Arc<PointSet>,
        mech: PrivateKmeans,
    },
}

/// A release plan resolved, admitted and calibrated — nothing charged
/// yet, no data touched.
#[derive(Debug)]
struct Calibrated {
    source: Source,
    /// Zero-sensitivity releases are exact, hence free (Section 5): the
    /// ledger records them at ε = 0.
    free: bool,
    /// The release identity its noise is derived from (see
    /// [`Engine::release_rng`]).
    fingerprint: u64,
}

/// A release plan that was resolved, admitted, calibrated and charged,
/// and holds the generator assigned to it: everything its mechanism
/// needs.
#[derive(Debug)]
struct Prepared<'a> {
    /// The groups riding the release (indices into the call's groups).
    plan: &'a [usize],
    calibrated: Calibrated,
    rng: StdRng,
    label: String,
    /// ε the release costs each charged analyst (0 when free).
    spent: f64,
    /// Per charged analyst, the slot of their first live waiter — the
    /// one whose frame carries their ε — in waiter order.
    carriers: Vec<usize>,
    /// Active trace contexts of the waiters the release will answer.
    traces: Vec<&'a TraceContext>,
    /// Shared-span link id when the release answers more than one
    /// waiter — every waiter's `Release` span carries it, so coalescing
    /// amplification is visible per-trace.
    link: Option<u64>,
}

/// A multi-tenant Blowfish query-serving engine.
///
/// The engine owns four registries — policies, tabular datasets, point
/// sets (for k-means), and analyst sessions — plus the shared
/// [`SensitivityCache`]. All methods take `&self`; internal state is
/// behind locks, so one `Arc<Engine>` can serve requests from many
/// threads concurrently.
///
/// Every request — a lone [`Engine::serve`], a tagged retry, a batch, a
/// server tick's worth of coalesced groups — goes through **one**
/// pipeline, in one order:
///
/// 1. **replay** — a tagged request that was already acknowledged is
///    answered from the reply cache at zero ε and goes no further,
/// 2. **resolve** — look up the named policy and data object and admit
///    the request through the admissible-value table,
/// 3. **calibrate** — fetch `S(f, P)` from the cache (computing the
///    closed form on first use),
/// 4. **charge** — draw the request's ε from the ledger of each distinct
///    analyst the release will answer (refusing *before* any data is
///    touched when a budget cannot cover it; zero-sensitivity releases
///    are recorded free),
/// 5. **execute** — run the mechanism the paper prescribes for the
///    request kind, on a generator derived from the release's identity
///    and its payer's ledger position,
/// 6. **commit** — with a store attached, every charge of the call (and
///    each tagged waiter's encoded answer) reaches the WAL in one group
///    commit,
/// 7. **acknowledge** — only then is any typed [`Response`] returned.
///
/// # Examples
///
/// ```
/// use bf_core::{Epsilon, Policy};
/// use bf_domain::{Dataset, Domain};
/// use bf_engine::{Engine, Request};
///
/// let engine = Engine::with_seed(7);
/// let domain = Domain::line(32)?;
/// engine.register_policy("salary", Policy::distance_threshold(domain.clone(), 4))?;
/// let rows: Vec<usize> = (0..200).map(|i| (i * 13) % 32).collect();
/// engine.register_dataset("payroll", Dataset::from_rows(domain, rows)?)?;
/// engine.open_session("alice", Epsilon::new(1.0)?)?;
///
/// let eps = Epsilon::new(0.25)?;
/// let answer = engine.serve("alice", &Request::range("salary", "payroll", eps, 4, 12))?;
/// assert!(answer.scalar().unwrap().is_finite());
/// assert!((engine.session_remaining("alice")? - 0.75).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    policies: ShardedMap<PolicyEntry>,
    datasets: ShardedMap<DatasetEntry>,
    points: ShardedMap<Arc<PointSet>>,
    sessions: ShardedMap<Arc<Mutex<AnalystSession>>>,
    /// Evicted / recovered-but-unattached session ledgers.
    parked: ShardedMap<ParkedSession>,
    /// Registration fingerprints recovered from the store for names not
    /// yet re-registered this generation: re-registration must match.
    expected: Mutex<HashMap<(RegistryKind, String), u64>>,
    /// The durable ledger, when attached: charges are acknowledged only
    /// after they are committed here.
    store: Option<Arc<Store>>,
    cache: SensitivityCache,
    /// Base seed for noise. Each release derives its own generator from
    /// `(seed, release fingerprint, ledger position)` — see
    /// [`Engine::release_rng`] — so no lock is held while mechanisms run,
    /// and the noise is a function of what the log records.
    seed: u64,
    /// The engine's metrics registry. Every instrument hanging off it is
    /// a pure side channel: nothing read from it feeds RNG derivation,
    /// charge ordering, or scheduling, so same-seed runs stay
    /// byte-identical whether metrics are enabled or not.
    obs: Arc<Registry>,
    /// In-memory mirror of the durable reply cache: per analyst, the
    /// encoded answers of their most recent **tagged** requests, keyed by
    /// client request id. A retried tagged request is answered from here
    /// with **zero** additional ε charge — the durable copy (a `Replied`
    /// WAL frame) reseeds this mirror on recovery, so the exactly-once
    /// guarantee survives a crash. Bounded to
    /// [`REPLY_CACHE_PER_ANALYST`] entries per analyst, evicting the
    /// smallest (oldest) request id — the same rule the store applies,
    /// so mirror and ledger agree on which retries are replayable.
    replies: Mutex<BTreeMap<String, BTreeMap<u64, Vec<u8>>>>,
    /// Tagged requests answered from the reply cache
    /// (`replay_cache_hits`) — each one is a retry that cost nothing.
    replay_cache_hits: Counter,
}

impl Default for Engine {
    fn default() -> Self {
        Self::with_seed(0xB10F_F15B)
    }
}

impl Engine {
    /// An engine whose noise stream is seeded for reproducible runs.
    pub fn with_seed(seed: u64) -> Self {
        let obs = Arc::new(Registry::new());
        let replay_cache_hits = obs.counter("replay_cache_hits");
        Self {
            policies: ShardedMap::new(),
            datasets: ShardedMap::new(),
            points: ShardedMap::new(),
            sessions: ShardedMap::new(),
            parked: ShardedMap::new(),
            expected: Mutex::new(HashMap::new()),
            store: None,
            cache: SensitivityCache::with_obs(&obs),
            seed,
            obs,
            replies: Mutex::new(BTreeMap::new()),
            replay_cache_hits,
        }
    }

    /// An engine backed by a durable [`Store`], resuming whatever the
    /// store recovered:
    ///
    /// * every recovered session is **parked** — its spent ε survives,
    ///   and the analyst reattaches by calling [`Engine::open_session`]
    ///   with the original total; so does its ledger position, so the
    ///   analyst's next release draws the noise an uninterrupted engine
    ///   would have drawn, whether the last generation crashed or not;
    /// * recovered registrations become **expectations** — registering
    ///   the name again requires the identical content fingerprint, so a
    ///   swapped policy or dataset cannot inherit the original's ledgers;
    /// * every subsequent charge is **acknowledge-after-durable**: the
    ///   release executes, then its charge is committed to the WAL —
    ///   a tagged request's charge and answer in one atomic `Replied`
    ///   frame — and only then is the answer acknowledged, so recovered
    ///   spent always covers every answer an analyst saw. The one
    ///   exception is [`Engine::apply_tagged`], a replica applying a
    ///   log entry that is already durable: it stages the frame and
    ///   answers, and recovery covers the answer by running the entry
    ///   again, at the same ledger position and so to the same charge.
    pub fn with_store(seed: u64, store: Arc<Store>) -> Self {
        let engine = Self::with_seed(seed);
        let recovered = store.recovered_state();
        for (analyst, s) in &recovered.sessions {
            engine.parked.insert_or_replace(
                analyst.clone(),
                ParkedSession {
                    total: s.total,
                    spent: s.spent,
                    served: s.served,
                    refused: 0,
                },
            );
        }
        *engine.expected.lock().expect("expectations poisoned") = recovered
            .registrations
            .iter()
            .map(|((kind, name), fp)| ((*kind, name.clone()), *fp))
            .collect();
        // Reseed the reply-cache mirror from the recovered ledger so a
        // request acknowledged by the previous generation can still be
        // retried for free against this one.
        *engine.replies.lock().expect("replies poisoned") = recovered
            .replies
            .iter()
            .map(|(analyst, cache)| {
                (
                    analyst.clone(),
                    cache
                        .iter()
                        .map(|(&rid, cached)| (rid, cached.payload.clone()))
                        .collect(),
                )
            })
            .collect();
        Self {
            store: Some(store),
            ..engine
        }
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Flushes and compacts the attached store (no-op without one) —
    /// the graceful-shutdown path, also safe to call periodically. Noise
    /// needs nothing written here: it is derived from ledger positions,
    /// which every `Charged` / `Replied` record already carries.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] when the store cannot flush or snapshot.
    pub fn compact(&self) -> Result<(), EngineError> {
        match &self.store {
            Some(store) => store.compact().map_err(EngineError::Store),
            None => Ok(()),
        }
    }

    /// The generator of one release: a pure function of the engine seed,
    /// the release's fingerprint and its **position** — the number of
    /// charges in its first charged analyst's ledger before this one.
    ///
    /// The position is replayed from the `Charged` / `Replied` records
    /// like the rest of the ledger, so a restarted engine or a replica
    /// draws exactly what an uninterrupted one would, crash or not, and
    /// other analysts' traffic cannot move it. Two releases first charged
    /// to one analyst never share a position, so what an analyst asks
    /// twice is drawn twice, independently. Two releases first charged to
    /// different analysts at equal positions draw the same bytes: one
    /// release that each of them paid for, as a coalesced group is, and
    /// republishing it reveals nothing new. A fingerprint names the query
    /// itself (a range's endpoints, a linear query's weights), so one
    /// draw never answers two different queries.
    fn release_rng(&self, fingerprint: u64, position: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix(
            self.seed ^ splitmix(fingerprint ^ splitmix(position)),
        ))
    }

    // ------------------------------------------------------------------
    // Registries
    // ------------------------------------------------------------------

    /// Registers a policy under a name.
    ///
    /// Constraint-free policies serve through the exact closed-form
    /// sensitivities. Policies **with** constraints are routed through
    /// the `bf-constraints` policy graph (Definition 8.3): registration
    /// requires the constraint set to be sparse (Definition 8.2) and
    /// computes the Theorem 8.2 bound `2·max{α(G_P), ξ(G_P)}` on the
    /// histogram sensitivity once, which then calibrates histogram,
    /// range and linear releases (see [`Engine::serve`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateName`] if the name is taken — cached
    /// sensitivities refer to the original object, so re-registration is
    /// refused rather than silently swapped.
    /// [`EngineError::Constraint`] when a constrained policy fails the
    /// Section 8 machinery (non-sparse constraints, over-budget edge
    /// scans): the general constrained-sensitivity problem is NP-hard
    /// (Theorem 8.1), so only the sparse case is servable.
    /// [`EngineError::RegistrationMismatch`] when a store recovered this
    /// name with a different content fingerprint.
    pub fn register_policy(
        &self,
        name: impl Into<String>,
        policy: Policy,
    ) -> Result<(), EngineError> {
        let name = name.into();
        let constrained_bound = if policy.has_constraints() {
            let queries: Vec<Predicate> = policy
                .constraints()
                .iter()
                .map(|c| c.predicate().clone())
                .collect();
            let graph =
                PolicyGraph::build(policy.domain(), policy.graph(), &queries, DEFAULT_SCAN_CAP)
                    .map_err(EngineError::Constraint)?;
            Some(graph.sensitivity_bound())
        } else {
            None
        };
        let fingerprint = fnv1a(policy.cache_key().as_bytes());
        let entry = PolicyEntry {
            policy: Arc::new(policy),
            constrained_bound,
        };
        self.check_expectation(RegistryKind::Policy, &name, fingerprint)?;
        self.policies
            .insert_if_absent(name.clone(), entry)
            .map_err(EngineError::DuplicateName)?;
        self.finish_registration(RegistryKind::Policy, &name, fingerprint)
            .inspect_err(|_| {
                self.policies.remove(&name);
            })
    }

    /// Registers a tabular dataset under a name.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateName`] if the name is taken;
    /// [`EngineError::RegistrationMismatch`] when a store recovered this
    /// name with a different content fingerprint.
    pub fn register_dataset(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
    ) -> Result<(), EngineError> {
        let name = name.into();
        let histogram = dataset.histogram();
        let cumulative = histogram.cumulative();
        let fingerprint = dataset_fingerprint(&dataset, &histogram);
        let entry = DatasetEntry {
            dataset: Arc::new(dataset),
            histogram: Arc::new(histogram),
            cumulative: Arc::new(cumulative),
        };
        self.check_expectation(RegistryKind::Dataset, &name, fingerprint)?;
        self.datasets
            .insert_if_absent(name.clone(), entry)
            .map_err(EngineError::DuplicateName)?;
        self.finish_registration(RegistryKind::Dataset, &name, fingerprint)
            .inspect_err(|_| {
                self.datasets.remove(&name);
            })
    }

    /// Registers a continuous point set (k-means input) under a name.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateName`] if the name is taken;
    /// [`EngineError::RegistrationMismatch`] when a store recovered this
    /// name with a different content fingerprint.
    pub fn register_points(
        &self,
        name: impl Into<String>,
        points: PointSet,
    ) -> Result<(), EngineError> {
        let name = name.into();
        let fingerprint = points_fingerprint(&points);
        self.check_expectation(RegistryKind::Points, &name, fingerprint)?;
        self.points
            .insert_if_absent(name.clone(), Arc::new(points))
            .map_err(EngineError::DuplicateName)?;
        self.finish_registration(RegistryKind::Points, &name, fingerprint)
            .inspect_err(|_| {
                self.points.remove(&name);
            })
    }

    /// Refuses a registration whose recovered fingerprint expectation
    /// does not match — BEFORE anything is inserted.
    fn check_expectation(
        &self,
        kind: RegistryKind,
        name: &str,
        fingerprint: u64,
    ) -> Result<(), EngineError> {
        let expected = self.expected.lock().expect("expectations poisoned");
        match expected.get(&(kind, name.to_owned())) {
            Some(&want) if want != fingerprint => Err(EngineError::RegistrationMismatch {
                kind: kind.as_str(),
                name: name.to_owned(),
            }),
            _ => Ok(()),
        }
    }

    /// After a successful insert: consume the expectation (the name was
    /// already durable — matching was verified) or, for a brand-new
    /// name, append the registration to the store. A store failure rolls
    /// the insert back in the caller.
    fn finish_registration(
        &self,
        kind: RegistryKind,
        name: &str,
        fingerprint: u64,
    ) -> Result<(), EngineError> {
        let was_expected = self
            .expected
            .lock()
            .expect("expectations poisoned")
            .remove(&(kind, name.to_owned()))
            .is_some();
        if was_expected {
            return Ok(());
        }
        if let Some(store) = &self.store {
            store
                .commit(&[Record::Registered {
                    kind,
                    name: name.to_owned(),
                    fingerprint,
                }])
                .map_err(EngineError::Store)?;
        }
        Ok(())
    }

    fn policy_entry(&self, name: &str) -> Result<PolicyEntry, EngineError> {
        self.policies
            .get(name)
            .ok_or_else(|| EngineError::UnknownPolicy(name.to_owned()))
    }

    /// The registered dataset, if any.
    pub fn dataset(&self, name: &str) -> Result<Arc<Dataset>, EngineError> {
        Ok(self.dataset_entry(name)?.dataset)
    }

    fn dataset_entry(&self, name: &str) -> Result<DatasetEntry, EngineError> {
        self.datasets
            .get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_owned()))
    }

    fn points_entry(&self, name: &str) -> Result<Arc<PointSet>, EngineError> {
        self.points
            .get(name)
            .ok_or_else(|| EngineError::UnknownPoints(name.to_owned()))
    }

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Opens an analyst session with a total ε budget — or **reattaches**
    /// one that was evicted or recovered from the store: the reattached
    /// session resumes with its spent ε intact (the "recovered" ledger
    /// entry), so neither eviction nor a crash ever resets a ledger.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionExists`] if the analyst already has a live
    /// session — a ledger must not be resettable by reopening.
    /// [`EngineError::InvalidRequest`] when reattaching with a total
    /// different from the original (a bigger total would mint budget).
    /// [`EngineError::Store`] when a fresh session cannot be made
    /// durable (nothing is opened in that case).
    pub fn open_session(
        &self,
        analyst: impl Into<String>,
        total: Epsilon,
    ) -> Result<(), EngineError> {
        let analyst = analyst.into();
        if self.sessions.get(&analyst).is_some() {
            return Err(EngineError::SessionExists(analyst));
        }
        if let Some(parked) = self.parked.get(&analyst) {
            if (parked.total - total.value()).abs() > 1e-12 {
                return Err(EngineError::InvalidRequest(format!(
                    "session for {analyst:?} reattaches with its original total ε={}, got {}",
                    parked.total,
                    total.value()
                )));
            }
            let mut session = AnalystSession::restore(
                analyst.clone(),
                total,
                parked.spent,
                parked.served,
                parked.refused,
            )?;
            session.attach_gauge(self.spent_gauge(&analyst));
            self.sessions
                .insert_if_absent(analyst.clone(), Arc::new(Mutex::new(session)))
                .map_err(EngineError::SessionExists)?;
            // The parked entry is deliberately NOT removed: a live
            // session supersedes it (lookups check `sessions` first, and
            // a later eviction overwrites it with the then-current
            // ledger), while removing it here could race a concurrent
            // eviction of the just-restored session and delete ITS fresh
            // park — forgetting spent ε. A stale park is harmless; a
            // missing one never is.
            return Ok(());
        }
        // Fresh session: durable before acknowledged. A crash after the
        // commit but before the insert leaves a no-op record (recovery
        // applies opens insert-if-absent), never a lost ledger.
        if let Some(store) = &self.store {
            store
                .commit(&[Record::session_opened(&analyst, total.value())])
                .map_err(EngineError::Store)?;
        }
        let mut session = AnalystSession::new(analyst.clone(), total);
        session.attach_gauge(self.spent_gauge(&analyst));
        self.sessions
            .insert_if_absent(analyst, Arc::new(Mutex::new(session)))
            .map_err(EngineError::SessionExists)
    }

    /// The per-analyst spent-ε gauge (`engine_epsilon_spent`), one
    /// labelled series per analyst name, shared across reopen cycles.
    fn spent_gauge(&self, analyst: &str) -> Gauge {
        self.obs
            .gauge(&format!("engine_epsilon_spent{{analyst={analyst:?}}}"))
    }

    /// Opens the analyst's session if absent, reattaches a parked
    /// (evicted or crash-recovered) one, or — unlike
    /// [`Engine::open_session`] — treats an already-**live** session with
    /// the same total as success. Returns the remaining ε in all three
    /// cases.
    ///
    /// This is the idempotent session lookup a reconnecting network
    /// client drives: whether the serving process restarted (session
    /// parked in the store), the connection alone dropped (session still
    /// live), or the client is brand new, one `attach_session` call
    /// lands the analyst on their authoritative ledger.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] when the analyst already has a
    /// ledger (live or parked) with a different total — a bigger total
    /// would mint budget; [`EngineError::Store`] when a fresh session
    /// cannot be made durable.
    pub fn attach_session(&self, analyst: &str, total: Epsilon) -> Result<f64, EngineError> {
        match self.open_session(analyst.to_owned(), total) {
            Ok(()) => self.session_remaining(analyst),
            Err(EngineError::SessionExists(_)) => {
                let snap = self.session_snapshot(analyst)?;
                if (snap.total().value() - total.value()).abs() > 1e-12 {
                    return Err(EngineError::InvalidRequest(format!(
                        "session for {analyst:?} reattaches with its original total ε={}, got {}",
                        snap.total().value(),
                        total.value()
                    )));
                }
                Ok(snap.remaining())
            }
            Err(e) => Err(e),
        }
    }

    fn session(&self, analyst: &str) -> Result<Arc<Mutex<AnalystSession>>, EngineError> {
        self.sessions.get(analyst).ok_or_else(|| {
            if self.parked.get(analyst).is_some() {
                EngineError::SessionEvicted(analyst.to_owned())
            } else {
                EngineError::UnknownAnalyst(analyst.to_owned())
            }
        })
    }

    /// [`AnalystSession::charge`] on the analyst's live session: the
    /// charge's ledger position, or the refusal.
    fn charge(
        &self,
        analyst: &str,
        label: &str,
        epsilon: Epsilon,
        free: bool,
    ) -> Result<u64, EngineError> {
        let session = self.session(analyst)?;
        let mut session = session.lock().expect("session poisoned");
        session.charge(label, epsilon, free)
    }

    /// Evicts one session: removes it from the live registry, marks the
    /// shared handle so in-flight charges refuse, and parks the ledger
    /// summary. With a store attached the spent ε is already durable
    /// (every charge was committed before acknowledgement), so eviction
    /// never forgets budget — the analyst reattaches via
    /// [`Engine::open_session`] with the original total.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownAnalyst`] when no live session exists
    /// ([`EngineError::SessionEvicted`] when it is already parked or
    /// being evicted by another thread).
    pub(crate) fn evict_session(&self, analyst: &str) -> Result<(), EngineError> {
        let arc = self.sessions.get(analyst).ok_or_else(|| {
            if self.parked.get(analyst).is_some() {
                EngineError::SessionEvicted(analyst.to_owned())
            } else {
                EngineError::UnknownAnalyst(analyst.to_owned())
            }
        })?;
        {
            let mut session = arc.lock().expect("session poisoned");
            if session.is_evicted() {
                // Another thread is mid-eviction of this very session.
                return Err(EngineError::SessionEvicted(analyst.to_owned()));
            }
            session.mark_evicted();
            // Park BEFORE removing from the live registry: at every
            // instant the analyst has a ledger in at least one of the
            // two maps, so a concurrent open_session can never slip
            // through the gap and mint a fresh (spent = 0) ledger. In
            // the brief both-present overlap, reattach is refused with
            // `SessionExists` — an error, never a reset.
            self.parked.insert_or_replace(
                analyst.to_owned(),
                ParkedSession {
                    total: session.total().value(),
                    spent: session.spent(),
                    served: session.served(),
                    refused: session.refused(),
                },
            );
        }
        self.sessions.remove(analyst);
        // Unregister the per-analyst ε gauge so scrapes stop carrying
        // a dead series (the parked ledger keeps the authoritative
        // numbers; reattach re-registers a fresh gauge). Without this a
        // long-lived process — and every federated scrape over it —
        // accumulates one frozen series per evicted analyst forever.
        self.obs
            .remove(&format!("engine_epsilon_spent{{analyst={analyst:?}}}"));
        Ok(())
    }

    /// Evicts every session idle for at least `max_idle`, returning the
    /// evicted analysts in name order; `Duration::ZERO` evicts every idle
    /// session. Analysts in `keep` are never evicted. The server's
    /// TTL sweep passes the analysts with queued or pending requests —
    /// idleness is judged by time since the last *charge*, so a
    /// backlogged analyst waiting behind a scheduler queue is not idle
    /// even though their session has not charged recently.
    pub fn evict_idle_sessions_except(&self, max_idle: Duration, keep: &[String]) -> Vec<String> {
        let mut evicted = Vec::new();
        for name in self.sessions.keys() {
            if keep.contains(&name) {
                continue;
            }
            let Some(arc) = self.sessions.get(&name) else {
                continue;
            };
            let idle = arc.lock().expect("session poisoned").idle_for();
            if idle >= max_idle && self.evict_session(&name).is_ok() {
                evicted.push(name);
            }
        }
        evicted.sort();
        evicted
    }

    /// The parked ledger summary for an evicted / recovered analyst
    /// **awaiting reattach** (`None` once a live session supersedes the
    /// park — the live ledger is then the authoritative one).
    pub fn parked_session(&self, analyst: &str) -> Option<ParkedSession> {
        if self.sessions.get(analyst).is_some() {
            return None;
        }
        self.parked.get(analyst)
    }

    /// Analysts currently parked (evicted or recovered) and awaiting
    /// reattach, in unspecified order.
    pub fn parked_analysts(&self) -> Vec<String> {
        self.parked
            .keys()
            .into_iter()
            .filter(|a| self.sessions.get(a).is_none())
            .collect()
    }

    /// The cached answer for a tagged request this engine — or a durable
    /// predecessor, via recovery — already acknowledged. A hit is a safe
    /// retry: it replays the identical bytes, charges **zero** additional
    /// ε, and counts on `replay_cache_hits`.
    pub fn cached_reply(&self, analyst: &str, request_id: u64) -> Option<Response> {
        let response = {
            let replies = self.replies.lock().expect("replies poisoned");
            Response::from_bytes(replies.get(analyst)?.get(&request_id)?)?
        };
        self.replay_cache_hits.inc();
        Some(response)
    }

    /// Inserts one encoded answer into the reply-cache mirror, applying
    /// the store's bound and eviction rule (oldest request id first).
    fn mirror_reply(&self, analyst: &str, request_id: u64, payload: Vec<u8>) {
        let mut replies = self.replies.lock().expect("replies poisoned");
        let cache = replies.entry(analyst.to_owned()).or_default();
        cache.insert(request_id, payload);
        while cache.len() > REPLY_CACHE_PER_ANALYST {
            let oldest = *cache.keys().next().expect("cache is non-empty");
            cache.remove(&oldest);
        }
    }

    /// ε remaining in an analyst's ledger.
    pub fn session_remaining(&self, analyst: &str) -> Result<f64, EngineError> {
        Ok(self
            .session(analyst)?
            .lock()
            .expect("session poisoned")
            .remaining())
    }

    /// A snapshot of an analyst's session (ledger, counters).
    pub fn session_snapshot(&self, analyst: &str) -> Result<AnalystSession, EngineError> {
        Ok(self
            .session(analyst)?
            .lock()
            .expect("session poisoned")
            .clone())
    }

    /// Cache counters (for benches and monitoring).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine's metrics registry. Layers above (server, net) register
    /// their instruments here so one snapshot covers the whole request
    /// path; the attached store keeps its own registry (`store_*` names)
    /// and [`Engine::metrics_snapshot`] merges both.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// A point-in-time snapshot of every metric the process exposes:
    /// the engine registry (which the server and net layers also write
    /// into) merged with the attached store's, sorted by name.
    pub fn metrics_snapshot(&self) -> Vec<MetricSnapshot> {
        let mut sets = vec![self.obs.snapshot()];
        if let Some(store) = &self.store {
            sets.push(store.obs().snapshot());
        }
        merge_snapshots(sets)
    }

    /// The ε-provenance audit: every durable charge booked for
    /// `analyst`, in WAL total order — [`Store::ledger_history`] lifted
    /// to the engine (and from there over the wire as
    /// `BudgetAudit`/`AuditReport`).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] when the engine runs without a
    /// store (a memory-only ledger has no durable history to audit);
    /// store errors as [`Store::ledger_history`] surfaces them.
    pub fn ledger_history(&self, analyst: &str) -> Result<Vec<LedgerEntry>, EngineError> {
        match &self.store {
            Some(store) => store.ledger_history(analyst).map_err(EngineError::Store),
            None => Err(EngineError::InvalidRequest(
                "budget audit requires a durable store".into(),
            )),
        }
    }

    /// Drops every cached sensitivity (counters keep accumulating).
    /// Correctness is unaffected — the next request per class recomputes
    /// the closed form. Used by benches to measure the cold path.
    pub fn clear_sensitivity_cache(&self) {
        self.cache.clear();
    }

    // ------------------------------------------------------------------
    // Serving
    // ------------------------------------------------------------------

    /// The policy-specific sensitivity calibrating `class` under a
    /// registered policy: the exact closed form (cached) for
    /// constraint-free policies, or a sound derivation from the
    /// Theorem 8.2 histogram bound for constrained ones.
    fn sensitivity_for(&self, entry: &PolicyEntry, class: &QueryClass) -> f64 {
        match entry.constrained_bound {
            None => self.cache.sensitivity(&entry.policy, class),
            Some(bound) => constrained_sensitivity(bound, class),
        }
    }

    /// Serves one request for one analyst.
    ///
    /// # Errors
    ///
    /// Unknown names, [`EngineError::InvalidRequest`] for malformed
    /// queries (including query kinds a constrained policy cannot
    /// calibrate),
    /// [`EngineError::BudgetRefused`] when the ledger cannot cover ε
    /// (nothing is released in that case), [`EngineError::Store`] when
    /// the charge cannot be made durable (the answer is withheld).
    pub fn serve(&self, analyst: &str, request: &Request) -> Result<Response, EngineError> {
        self.serve_one(analyst, None, request, Book::Commit)
    }

    /// [`Engine::serve`] for a request stamped with a durable idempotency
    /// key `(analyst, request_id)` — the exactly-once retry path.
    ///
    /// If the key was already acknowledged (by this engine or, after a
    /// crash, by a durable predecessor), the original answer is replayed
    /// **bit-identically** from the reply cache at **zero** additional ε
    /// charge. Otherwise one atomic `Replied` WAL frame carries both the
    /// charge and the encoded answer, and only after it lands is the
    /// answer returned. A crash at any point leaves the retry safe —
    /// before the frame, nothing durable was charged and nothing was
    /// acknowledged; after it, the retry hits the cache.
    ///
    /// # Errors
    ///
    /// As [`Engine::serve`].
    pub fn serve_tagged(
        &self,
        analyst: &str,
        request_id: u64,
        request: &Request,
    ) -> Result<Response, EngineError> {
        self.serve_one(analyst, Some(request_id), request, Book::Commit)
    }

    /// [`Engine::serve_tagged`] for a request whose input is already
    /// durable elsewhere — a replicated log entry, which every replica
    /// executes in log order and recovery executes again. The same
    /// charge, ledger position, noise and bytes; only the booking moves:
    /// the `Replied` frame is **staged** ([`Store::stage`]), in the
    /// store's state (and its digest) when this returns and on disk with
    /// the store's next commit, not committed before the answer.
    ///
    /// A crash before that commit loses the frame as a WAL suffix, with
    /// everything booked after it. Running the entry again then finds the
    /// payer at the same ledger position, so it draws the same noise and
    /// books the same charge: the answer already handed out is charged
    /// exactly once. That argument needs the durable input, so every
    /// other caller wants [`Engine::serve_tagged`].
    ///
    /// # Errors
    ///
    /// As [`Engine::serve`]; [`EngineError::Store`] only for a store
    /// poisoned by an earlier failure.
    pub fn apply_tagged(
        &self,
        analyst: &str,
        request_id: u64,
        request: &Request,
    ) -> Result<Response, EngineError> {
        self.serve_one(analyst, Some(request_id), request, Book::Stage)
    }

    /// A lone request is a plan of one group with one waiter.
    fn serve_one(
        &self,
        analyst: &str,
        tag: Option<u64>,
        request: &Request,
        book: Book,
    ) -> Result<Response, EngineError> {
        let trace = TraceContext::inert();
        let waiter = Waiter {
            analyst,
            tag,
            trace: &trace,
        };
        let group = Group {
            request,
            waiters: std::slice::from_ref(&waiter),
        };
        let mut slot = [None];
        self.run(std::slice::from_ref(&group), &[&[0]], &mut slot, book);
        let [slot] = slot;
        slot.expect("every slot filled")
    }

    /// Serves a batch for one analyst — one single-waiter group per
    /// request through [`Engine::serve_groups`] — so compatible range
    /// queries are answered from **one** noisy release: range requests
    /// that share `(policy, data, ε)` spend ε once on a single Ordered
    /// Mechanism release of the cumulative histogram (Section 7.1) and
    /// each reads its answer as two prefixes — N answers for one
    /// release's privacy cost and one release's noise, instead of N
    /// independent Laplace draws. All other requests are served with
    /// [`Engine::serve`] semantics unchanged.
    ///
    /// Results come back in request order; each slot carries its own
    /// `Result` so one refused request does not poison the batch.
    pub fn serve_batch(
        &self,
        analyst: &str,
        requests: &[Request],
    ) -> Vec<Result<Response, EngineError>> {
        let trace = TraceContext::inert();
        let waiter = [Waiter {
            analyst,
            tag: None,
            trace: &trace,
        }];
        let groups: Vec<Group<'_>> = requests
            .iter()
            .map(|request| Group {
                request,
                waiters: &waiter,
            })
            .collect();
        let slots = self.serve_groups(&groups).slots;
        slots.into_iter().flatten().collect()
    }

    /// The key under which requests from **different analysts** may share
    /// one release: `(policy cache key, dataset name, ε bits, query-class
    /// fingerprint)`. Two requests with equal keys resolve to policies
    /// with identical sensitivity closed forms, the same data object, the
    /// same spend and the same query — so a single mechanism release is a
    /// valid answer to all of them, and publishing it to N analysts costs
    /// each analyst exactly the ε they would have spent alone.
    ///
    /// `None` for k-means requests: their runs are iterative and seeded
    /// per release, so they are never coalesced.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownPolicy`] when the request names an
    /// unregistered policy (the cache key needs the policy object).
    pub fn coalesce_key(&self, request: &Request) -> Result<Option<String>, EngineError> {
        let Some(class) = request.query_class() else {
            return Ok(None);
        };
        let policy = self.policy_entry(&request.policy)?.policy;
        Ok(Some(release_key(&policy, request, &class)))
    }

    /// Serves coalesced groups — each a request and the waiters, from
    /// any analysts, who share its answer — with ONE WAL group commit for
    /// the whole call. This is the entry point the async server drains
    /// everything due into, once per tick.
    ///
    /// Every group is answered by one mechanism release fanned out to
    /// its waiters, and range groups that share `(policy, data, ε)` but
    /// differ in endpoints are folded further, into one Ordered release
    /// answered as two-prefix reads. Each **distinct** analyst a release
    /// answers is charged its ε once on their own ledger — exactly what
    /// they would pay alone, however many of their waiter slots it fills
    /// — and a refused charge (or unknown analyst) fails only that
    /// analyst's slots. A lone group with a lone untagged waiter is
    /// byte-identical to [`Engine::serve`] — same charge, same ledger
    /// position, same noise.
    ///
    /// Plans charge **sequentially**, folded plans first and otherwise in
    /// slice order, then the mechanism releases execute in plan order on
    /// the calling thread.
    pub fn serve_groups(&self, groups: &[Group<'_>]) -> Served {
        let releases = self.fold(groups);
        let plans: Vec<&[usize]> = releases.iter().map(Vec::as_slice).collect();
        let mut flat: Vec<Slot> = groups
            .iter()
            .flat_map(|g| g.waiters)
            .map(|_| None)
            .collect();
        self.run(groups, &plans, &mut flat, Book::Commit);
        let mut flat = flat
            .into_iter()
            .map(|slot| slot.expect("every slot filled"));
        let slots = groups
            .iter()
            .map(|g| flat.by_ref().take(g.waiters.len()).collect())
            .collect();
        Served { slots, releases }
    }

    /// Partitions groups into release plans: which range groups fold
    /// into one Ordered release, and the order plans charge in.
    ///
    /// Two or more range groups fold when they share `(policy cache key,
    /// dataset, ε bits)` — endpoints do not split a fold, and neither
    /// does naming two registrations of one structurally equal policy. A
    /// member the admissible-value table refuses is left OUT so it fails
    /// individually instead of poisoning its siblings' shared release;
    /// so is every range under an unknown policy, or a constrained one,
    /// whose bound does not calibrate the shared cumulative release.
    /// Those, every other kind, and a fold of one — a lone range is
    /// cheaper as a plain Laplace count — are plans of their own.
    ///
    /// Folded plans come first, the rest keep input order. The order is
    /// the charge order, so it fixes each analyst's ledger positions and
    /// with them the noise: any fixed order would do, and this one keeps
    /// released bytes.
    fn fold(&self, groups: &[Group<'_>]) -> Vec<Vec<usize>> {
        // Each distinct policy and dataset is looked up once per call,
        // not once per member: the policy with its cache key (`None` for
        // one that cannot fold) and the dataset (`None` when it is
        // unknown, so the members fail as a group).
        let mut policies: BTreeMap<&str, Option<(Arc<Policy>, String)>> = BTreeMap::new();
        let mut datasets: BTreeMap<&str, Option<Arc<Dataset>>> = BTreeMap::new();
        let mut folds: BTreeMap<(String, &str, u64), Vec<usize>> = BTreeMap::new();
        for (gi, request) in groups.iter().map(|g| g.request).enumerate() {
            if !matches!(request.kind, RequestKind::Range { .. }) {
                continue;
            }
            let policy = policies.entry(&request.policy).or_insert_with(|| {
                let entry = self.policies.get(&request.policy)?;
                let key = entry
                    .constrained_bound
                    .is_none()
                    .then(|| entry.policy.cache_key())?;
                Some((entry.policy, key))
            });
            let Some((policy, cache_key)) = policy else {
                continue;
            };
            let dataset = datasets.entry(&request.data).or_insert_with(|| {
                self.datasets
                    .get_with(&request.data, |e| Arc::clone(&e.dataset))
            });
            let admitted = dataset
                .as_ref()
                .is_none_or(|d| admit(request, policy, Data::Table(d, None)).is_ok());
            if admitted {
                let epsilon = request.epsilon.value().to_bits();
                let fold = folds.entry((cache_key.clone(), &request.data, epsilon));
                fold.or_default().push(gi);
            }
        }
        let mut plans: Vec<Vec<usize>> = folds.into_values().filter(|m| m.len() >= 2).collect();
        let mut folded = vec![false; groups.len()];
        for &gi in plans.iter().flatten() {
            folded[gi] = true;
        }
        plans.extend(
            (0..groups.len())
                .filter(|&gi| !folded[gi])
                .map(|gi| vec![gi]),
        );
        plans
    }

    /// THE serve pipeline — every public entry point above is a front-end
    /// to it, so what an analyst is charged and which release answers
    /// them is decided in exactly one place. `plans` partitions `groups`
    /// into releases (a plan of two or more groups is a fold of ranges,
    /// see [`Engine::fold`]); `slots` holds one slot per waiter, groups
    /// concatenated in order, and comes back with every slot filled.
    ///
    /// The one order, for every kind of traffic: **replay** cached
    /// tagged waiters → per plan, sequentially: **resolve, admit,
    /// calibrate** → **charge** each distinct analyst once, in memory →
    /// **draw** the release generator → **execute** all charged plans
    /// → one WAL **frame** per charged analyst and plan →
    /// ONE group **commit** → **mirror** the cached replies →
    /// **acknowledge**. Nothing is acknowledged before its charge is
    /// durable, and a charge is only ever lost to a failure, never
    /// resurrected. The one exception is `book`: [`Book::Stage`] stages
    /// the frames in place of the commit, for an input the log already
    /// holds durably ([`Engine::apply_tagged`]).
    fn run(&self, groups: &[Group<'_>], plans: &[&[usize]], slots: &mut [Slot], book: Book) {
        // Replay: a tagged waiter whose key is cached is a retry of an
        // acknowledged answer — valid however the rest of the call
        // fares, so its slot is filled now and it neither charges nor
        // joins a release. Nothing is allocated up to here, so a lone
        // retry costs two map lookups.
        let waiters = groups.iter().flat_map(|g| g.waiters);
        for (slot, w) in slots.iter_mut().zip(waiters) {
            *slot = w
                .tag
                .and_then(|rid| self.cached_reply(w.analyst, rid))
                .map(Ok);
        }
        if slots.iter().all(Option::is_some) {
            return;
        }
        let mut starts = Vec::with_capacity(groups.len());
        let mut end = 0;
        for g in groups {
            starts.push(end);
            end += g.waiters.len();
        }
        let slots_of = |gi: usize| starts[gi]..starts[gi] + groups[gi].waiters.len();

        // Prepare every plan before executing any: preparation is
        // microseconds of ledger math whose order is the WAL's order,
        // and a plan's generator is drawn here, at charge time.
        let mut prepared: Vec<Prepared<'_>> = Vec::new();
        for &plan in plans {
            // Every (slot index, waiter) riding the plan, in order.
            let riders = || {
                plan.iter()
                    .flat_map(|&gi| (starts[gi]..).zip(groups[gi].waiters))
            };
            let live = riders().filter(|(si, _)| slots[*si].is_none()).count();
            if live == 0 {
                continue; // every waiter was replayed from the cache
            }
            let request = groups[plan[0]].request;
            let calibrated = match self.calibrate(groups, plan) {
                Ok(calibrated) => calibrated,
                Err(e) => {
                    for &gi in plan {
                        fill(&mut slots[slots_of(gi)], Err(e.clone()));
                    }
                    continue;
                }
            };
            let free = calibrated.free;
            let label = if plan.len() > 1 {
                format!(
                    "batch:{}xrange@{}/{}",
                    plan.len(),
                    request.policy,
                    request.data
                )
            } else if live > 1 {
                format!("coalesced:{live}x{}", request.label())
            } else {
                request.label()
            };
            // Charge each DISTINCT analyst once on their own ledger —
            // publishing one release to an analyst costs them ε
            // regardless of how many waiter slots of theirs it answers
            // (reading a release twice is post-processing), so an
            // analyst's spend never depends on how unrelated traffic was
            // grouped around them. A refusal (or unknown analyst) fails
            // only that analyst's slots. Charges stay in waiter order.
            // A further *tagged* waiter of a paying analyst books its
            // answer in a zero-ε frame of its own, which recovery counts
            // as served, so it is charged free here: live and recovered
            // ledger positions must agree.
            let mut verdicts: HashMap<&str, Result<(), EngineError>> = HashMap::new();
            let mut carriers = Vec::new();
            let mut position = None;
            let mut traces = Vec::new();
            let mut answering = 0usize;
            for (si, w) in riders() {
                if slots[si].is_some() {
                    continue; // replayed — costs nothing
                }
                let charge = |free| self.charge(w.analyst, &label, request.epsilon, free);
                let verdict = match verdicts.get(w.analyst) {
                    Some(Ok(())) if w.tag.is_some() => charge(true).map(drop),
                    Some(verdict) => verdict.clone(),
                    None => {
                        let verdict = charge(free).map(|at| {
                            position.get_or_insert(at);
                            carriers.push(si);
                        });
                        verdicts.insert(w.analyst, verdict.clone());
                        verdict
                    }
                };
                match verdict {
                    // Slot stays None: filled by the release.
                    Ok(()) => {
                        answering += 1;
                        if w.trace.is_active() {
                            traces.push(w.trace);
                        }
                    }
                    Err(e) => slots[si] = Some(Err(e)),
                }
            }
            let Some(position) = position else {
                continue; // nobody could pay: no release
            };
            let rng = self.release_rng(calibrated.fingerprint, position);
            prepared.push(Prepared {
                plan,
                calibrated,
                rng,
                label,
                spent: if free { 0.0 } else { request.epsilon.value() },
                carriers,
                link: (answering > 1 && !traces.is_empty()).then(next_link_id),
                traces,
            });
        }

        // One release per prepared plan, one after another on the
        // caller's thread: the generators were drawn above, so the order
        // cannot change a byte, and on the serving path the caller is
        // the scheduler's driver, whose other core is serving sockets —
        // spawning and joining workers per call cost more than the
        // releases they overlapped. Every waiter's trace records the
        // same release region; with more than one waiter the spans share
        // `p.link`, making the fan-out legible from any single trace.
        let answers: Vec<Vec<Response>> = prepared
            .iter()
            .map(|p| {
                let timer = TraceTimer::any(p.traces.iter().copied());
                let mut span = self.obs.span();
                let answers = self.execute(groups, p);
                self.obs.span_mark(&mut span, Stage::Release);
                for t in &p.traces {
                    t.record_linked(Stage::Release, &timer, "ok", p.link);
                }
                answers
            })
            .collect();

        // Durable-before-acknowledge: every charge of the call reaches
        // the WAL in ONE group commit before any slot is acknowledged
        // (staged instead, under `Book::Stage`, behind a durable input).
        // Each charged analyst's spend rides exactly one frame per plan:
        // a `Replied` frame — the charge and that waiter's own answer in
        // one atomic frame, so a crash can never separate them and let a
        // retry double-charge — when their first live waiter is tagged,
        // a `Charged` frame otherwise; further tagged waiters of an
        // already-charged analyst cache their answer at zero ε.
        let durable = self.store.is_some();
        let mut records: Vec<Record> = Vec::new();
        let mut mirrors: Vec<(&str, u64, Vec<u8>)> = Vec::new();
        let mut commit_traces: Vec<&TraceContext> = Vec::new();
        for (p, answers) in prepared.iter().zip(&answers) {
            commit_traces.extend(&p.traces);
            let mut carriers = p.carriers.iter().peekable();
            for (&gi, answer) in p.plan.iter().zip(answers) {
                let mut payload: Option<Vec<u8>> = None;
                for (si, w) in slots_of(gi).zip(groups[gi].waiters) {
                    if slots[si].is_some() {
                        continue; // replayed or refused
                    }
                    let carries = carriers.next_if_eq(&&si).is_some();
                    let spent = if carries { p.spent } else { 0.0 };
                    match w.tag {
                        Some(rid) => {
                            let payload = payload.get_or_insert_with(|| answer.to_bytes());
                            if durable {
                                records.push(Record::replied(
                                    w.analyst,
                                    rid,
                                    &p.label,
                                    spent,
                                    payload.clone(),
                                ));
                            }
                            mirrors.push((w.analyst, rid, payload.clone()));
                        }
                        None if durable && carries => {
                            records.push(Record::charged(w.analyst, &p.label, spent));
                        }
                        None => {}
                    }
                }
            }
        }
        let booked = match &self.store {
            Some(store) if !records.is_empty() && book == Book::Stage => {
                store.stage(&records).map_err(EngineError::Store)
            }
            Some(store) if !records.is_empty() => {
                let mut span = self.obs.span();
                let committed = store
                    .commit_traced(&records, &commit_traces)
                    .map_err(EngineError::Store);
                self.obs.span_mark(&mut span, Stage::WalCommit);
                committed
            }
            _ => Ok(()),
        };
        if booked.is_ok() {
            for (analyst, rid, payload) in mirrors {
                self.mirror_reply(analyst, rid, payload);
            }
        }
        // On a store failure nothing is acknowledged: charged slots
        // surface the store error, refused slots keep their own, and the
        // in-memory charges stand (conservative — budget is lost to the
        // failure, never resurrected).
        for (p, answers) in prepared.iter().zip(answers) {
            for (&gi, answer) in p.plan.iter().zip(answers) {
                let answer = booked.clone().map(|()| answer);
                fill(&mut slots[slots_of(gi)], answer);
            }
        }
    }

    /// Resolves one plan and admits every member through the
    /// admissible-value table ([`ADMISSIBLE`](crate::request::ADMISSIBLE)),
    /// then calibrates it. Nothing is charged yet, and nothing about the
    /// release can fail after this.
    fn calibrate(&self, groups: &[Group<'_>], plan: &[usize]) -> Result<Calibrated, EngineError> {
        let request = groups[plan[0]].request;
        let policy_entry = self.policy_entry(&request.policy)?;
        let policy = &policy_entry.policy;
        if let RequestKind::KMeans {
            k,
            iterations,
            spec,
        } = request.kind
        {
            let points = self.points_entry(&request.data)?;
            admit(request, policy, Data::Points(&points))?;
            let mech = PrivateKmeans::new(k, iterations, request.epsilon, spec);
            // The request's identity; `{spec:?}` prints the finite θ
            // or diameter exactly (shortest round-trip form).
            let key = format!(
                "{}|{}|{:016x}|kmeans:{k}:{iterations}:{spec:?}",
                policy.cache_key(),
                request.data,
                request.epsilon.value().to_bits()
            );
            return Ok(Calibrated {
                free: matches!(spec, KmeansSecretSpec::Exact),
                source: Source::Points { points, mech },
                fingerprint: fnv1a(key.as_bytes()),
            });
        }
        let class = match request.query_class() {
            Some(class) if plan.len() == 1 => class,
            // A fold releases the cumulative histogram its ranges read.
            _ => QueryClass::CumulativeHistogram,
        };
        let entry = self.dataset_entry(&request.data)?;
        let sensitivity = OnceCell::new();
        let sensitivity =
            || *sensitivity.get_or_init(|| self.sensitivity_for(&policy_entry, &class));
        for &gi in plan {
            let data = Data::Table(&entry.dataset, Some(&sensitivity));
            admit(groups[gi].request, policy, data)?;
        }
        let key = release_key(policy, request, &class);
        Ok(Calibrated {
            free: sensitivity() == 0.0,
            source: Source::Table {
                sensitivity: sensitivity(),
                entry,
            },
            fingerprint: fnv1a(key.as_bytes()),
        })
    }

    /// Runs a prepared plan's mechanism with the generator assigned to
    /// it at charge time and returns one answer per group of the plan.
    fn execute(&self, groups: &[Group<'_>], p: &Prepared<'_>) -> Vec<Response> {
        let request = groups[p.plan[0]].request;
        let epsilon = request.epsilon;
        let mut rng = p.rng.clone();
        let (entry, sensitivity) = match &p.calibrated.source {
            Source::Points { points, mech } => {
                let init = init_random(points, mech.k, &mut rng);
                let centroids = mech.run(points, &init, &mut rng);
                return vec![Response::Centroids(centroids)];
            }
            Source::Table { entry, sensitivity } => (entry, *sensitivity),
        };
        let ordered = |rng: &mut StdRng| {
            let mech = OrderedMechanism {
                epsilon,
                sensitivity,
                constrained_inference: true,
                nonnegative: false,
            };
            mech.release(&entry.cumulative, rng).expect(ADMITTED)
        };
        if p.plan.len() > 1 {
            // The shared Ordered release of a fold: one noise draw, one
            // inference pass, one two-prefix read per range.
            let ranges: Vec<(usize, usize)> = p
                .plan
                .iter()
                .map(|&gi| match groups[gi].request.kind {
                    RequestKind::Range { lo, hi } => (lo, hi),
                    _ => unreachable!("only ranges fold"),
                })
                .collect();
            let answers = ordered(&mut rng).answer_batch(&ranges);
            return answers.into_iter().map(Response::Scalar).collect();
        }
        let laplace = LaplaceMechanism::new(epsilon, sensitivity).expect(ADMITTED);
        let response = match &request.kind {
            RequestKind::Histogram => {
                Response::Histogram(laplace.release(entry.histogram.counts(), &mut rng))
            }
            RequestKind::CumulativeHistogram => {
                Response::Prefixes(ordered(&mut rng).into_prefixes())
            }
            RequestKind::Range { lo, hi } => {
                let exact = entry.histogram.counts()[*lo..=*hi].iter().sum();
                Response::Scalar(laplace.release_scalar(exact, &mut rng))
            }
            RequestKind::Linear { weights } => {
                let exact: f64 = weights
                    .iter()
                    .zip(entry.histogram.counts())
                    .map(|(w, c)| w * c)
                    .sum();
                Response::Scalar(laplace.release_scalar(exact, &mut rng))
            }
            RequestKind::KMeans { .. } => unreachable!("k-means calibrates to a point set"),
        };
        vec![response]
    }
}

/// Why a calibrated scale cannot be refused by a mechanism's constructor.
const ADMITTED: &str = "the ε row admits S/ε only when it is finite";

/// Resolves every still-open slot to `value`, which moves into the last
/// of them (a whole-domain answer is copied only when it fans out).
fn fill(slots: &mut [Slot], value: Result<Response, EngineError>) {
    let mut open = slots.iter_mut().filter(|slot| slot.is_none()).peekable();
    while let Some(slot) = open.next() {
        if open.peek().is_none() {
            *slot = Some(value);
            return;
        }
        *slot = Some(value.clone());
    }
}

/// SplitMix64 finalizer: spreads structured u64s (small ordinals,
/// FNV fingerprints) into independent-looking seeds.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stable identity string of a release: policy closed-form key, data
/// name, exact ε bits, query-class fingerprint. Requests with equal keys
/// are answerable by one another's releases; this is both the coalescing
/// key and (hashed) the release fingerprint its noise is derived from.
fn release_key(policy: &Policy, request: &Request, class: &QueryClass) -> String {
    format!(
        "{}|{}|{:016x}|{:016x}",
        policy.cache_key(),
        request.data,
        request.epsilon.value().to_bits(),
        class.fingerprint()
    )
}

/// Content fingerprint of a dataset: domain size plus the exact bit
/// patterns of its histogram counts. Serving only ever reads the
/// histogram (and its prefix sums), so histogram-equal datasets are
/// serving-equivalent by construction.
fn dataset_fingerprint(dataset: &Dataset, histogram: &Histogram) -> u64 {
    let mut bytes = Vec::with_capacity(8 + histogram.len() * 8);
    bytes.extend_from_slice(&(dataset.domain().size() as u64).to_le_bytes());
    for c in histogram.counts() {
        bytes.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Content fingerprint of a point set: dimensionality, bounding box and
/// every coordinate's bit pattern.
fn points_fingerprint(points: &PointSet) -> u64 {
    let mut bytes = Vec::with_capacity(16 + points.len() * points.dim() * 8);
    bytes.extend_from_slice(&(points.dim() as u64).to_le_bytes());
    bytes.extend_from_slice(&(points.len() as u64).to_le_bytes());
    for v in points.bbox().lo.iter().chain(&points.bbox().hi) {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for p in points.iter() {
        for v in p {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Derives a sound per-class sensitivity from the Theorem 8.2 histogram
/// bound `B ≥ S(h, P)` of a constrained policy.
///
/// Every neighbor pair's histogram difference `d = h(D₁) − h(D₂)` has
/// `‖d‖₁ ≤ B`, so:
///
/// * **histogram** (and any partition coarsening): `‖d‖₁ ≤ B`,
/// * **range count** `q = Σ_{i∈R} dᵢ`: `|q| ≤ ‖d‖₁ ≤ B`,
/// * **linear query** `f_w`: `|Σ wᵢ dᵢ| ≤ max|w| · ‖d‖₁ ≤ max|w| · B`.
///
/// The cumulative histogram has no comparably tight derivation (its L1
/// norm sums `|T|` prefixes): the table's policy row refuses it, and an
/// infinite `S` here would fail its ε row.
fn constrained_sensitivity(bound: f64, class: &QueryClass) -> f64 {
    match class {
        QueryClass::Histogram | QueryClass::PartitionHistogram(_) | QueryClass::Range { .. } => {
            bound
        }
        QueryClass::Linear { weights } => {
            let max_abs = weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
            bound * max_abs
        }
        _ => f64::INFINITY,
    }
}
