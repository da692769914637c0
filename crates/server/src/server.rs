//! The server: submission, admission control, the tick loop, dispatch.

use crate::error::ServerError;
use crate::scheduler::{coalesce, AnalystQueue, SchedState, Submitted, EPOCH_MAX_REQUESTS};
use crate::ticket::Ticket;
use bf_engine::{Engine, Group, Request, Served, Waiter};
use bf_obs::{Counter, Histogram, Registry, Stage, TraceContext};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Tuning knobs for the front-end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-analyst submission-queue bound; a full queue refuses with
    /// [`ServerError::QueueFull`] (backpressure).
    pub queue_capacity: usize,
    /// The round-robin fairness weight unit: each round of an epoch
    /// hands every backlogged analyst `quantum × weight` requests. It
    /// is **not** a drain size — a tick takes rounds until the queues
    /// are empty or the epoch holds
    /// [`EPOCH_MAX_REQUESTS`](crate::EPOCH_MAX_REQUESTS) — so it only
    /// shows when that bound cuts an epoch short: the smaller the
    /// quantum, the finer the interleaving of analysts at the cut.
    pub quantum: u32,
    /// Refuse at submission when the request's ε exceeds the analyst's
    /// remaining budget ([`ServerError::BudgetExhausted`]). The charge
    /// is still re-validated at serve time; this just keeps doomed
    /// requests out of the queues. Disable to let zero-sensitivity
    /// (free) requests through an exhausted ledger.
    pub admission_control: bool,
    /// Load-shedding gate: refuse new submissions with
    /// [`ServerError::Overloaded`] once the **total** backlog (summed
    /// across every analyst queue) reaches this depth. Per-analyst
    /// `queue_capacity` bounds one flooding analyst; this bounds the
    /// aggregate so a thousand polite analysts cannot together push
    /// queueing delay past what any of them would tolerate — refusing
    /// at the door beats accepting work that will only expire in the
    /// queue. `None` disables shedding.
    pub shed_depth: Option<usize>,
    /// Evict engine sessions idle for at least this long (checked every
    /// `EVICT_CHECK_EVERY` ticks, and by an idle background driver
    /// once per `session_ttl`). Evicted ledgers park — spent ε is
    /// preserved (and durable when the engine has a store) — and
    /// reattach on the analyst's next `open_session`. `None` disables
    /// eviction.
    pub session_ttl: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 128,
            quantum: 8,
            admission_control: true,
            shed_depth: None,
            session_ttl: None,
        }
    }
}

/// How often (in ticks) the TTL sweep runs. The sweep scans every live
/// session, so it is amortized rather than per-tick; the first tick
/// also checks (`tick % EVICT_CHECK_EVERY == 1`) to keep short
/// deterministic tests honest.
pub(crate) const EVICT_CHECK_EVERY: u64 = 32;

/// The least an idle background driver waits between TTL sweeps: a
/// `session_ttl` of zero (evict at the next opportunity) must not turn
/// the driver's idle wait into a spin.
const MIN_SWEEP_WAIT: Duration = Duration::from_millis(1);

/// The server's counters, registered in the engine's `bf-obs` registry
/// as `server_*_total`; [`ServerStats`] stays a thin shim over them.
#[derive(Debug)]
struct Counters {
    submitted: Counter,
    answered: Counter,
    failed: Counter,
    refused_queue_full: Counter,
    refused_admission: Counter,
    releases: Counter,
    coalesced_answers: Counter,
    batched_range_answers: Counter,
    cancelled: Counter,
    deadline_refusals: Counter,
    shed_requests: Counter,
    retries: Counter,
    ticks: Counter,
    evicted_sessions: Counter,
}

impl Counters {
    fn new(obs: &Registry) -> Self {
        Self {
            submitted: obs.counter("server_submitted_total"),
            answered: obs.counter("server_answered_total"),
            failed: obs.counter("server_failed_total"),
            refused_queue_full: obs.counter("server_refused_queue_full_total"),
            refused_admission: obs.counter("server_refused_admission_total"),
            releases: obs.counter("server_releases_total"),
            coalesced_answers: obs.counter("server_coalesced_answers_total"),
            batched_range_answers: obs.counter("server_batched_range_answers_total"),
            cancelled: obs.counter("server_cancelled_total"),
            deadline_refusals: obs.counter("server_deadline_refusals_total"),
            shed_requests: obs.counter("server_shed_requests_total"),
            retries: obs.counter("server_retries_total"),
            ticks: obs.counter("server_ticks_total"),
            evicted_sessions: obs.counter("server_evicted_sessions_total"),
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Tickets issued (accepted submissions).
    pub submitted: u64,
    /// Tickets resolved with an answer.
    pub answered: u64,
    /// Tickets resolved with an error after acceptance.
    pub failed: u64,
    /// Submissions refused for a full queue.
    pub refused_queue_full: u64,
    /// Submissions refused by admission control.
    pub refused_admission: u64,
    /// Mechanism releases the engine performed on the server's behalf.
    pub releases: u64,
    /// Answers delivered from a release shared by ≥ 2 waiters.
    pub coalesced_answers: u64,
    /// Answers served from an Ordered release shared across **different
    /// endpoints** — range requests with equal `(policy, data, ε)` that
    /// arrived in one epoch and were folded into a single
    /// cumulative release (serve_batch's grouping, applied cross-analyst
    /// at dispatch).
    pub batched_range_answers: u64,
    /// Requests dropped before dispatch because their ticket's receiver
    /// was gone (client disconnected): no charge, no release, the queue
    /// slot simply freed.
    pub cancelled: u64,
    /// Requests refused — before any charge — because their deadline
    /// elapsed while they waited in the scheduler.
    pub deadline_refusals: u64,
    /// Submissions refused at the door by the total-backlog shed gate
    /// ([`ServerConfig::shed_depth`]).
    pub shed_requests: u64,
    /// Tagged resubmissions answered from the durable reply cache — a
    /// retry of work already charged, served again at zero ε.
    pub retries: u64,
    /// Scheduler ticks run.
    pub ticks: u64,
    /// Sessions evicted by the TTL sweep (their ledgers parked, spent ε
    /// preserved).
    pub evicted_sessions: u64,
}

impl ServerStats {
    /// Answers per release — the one-release-many-answers amplification
    /// (1.0 with no coalescing; 0.0 before any release).
    pub fn amplification(&self) -> f64 {
        if self.releases == 0 {
            0.0
        } else {
            self.answered as f64 / self.releases as f64
        }
    }
}

/// The asynchronous request-serving front-end over an [`Engine`].
///
/// ```text
///  submit() ──► per-analyst queues ──► epoch drain ──► group by key ──► engine releases + 1 commit ──► tickets
/// ```
///
/// Submissions return immediately with a [`Ticket`] future; a scheduler
/// *tick* (driven manually via [`Server::tick`] /
/// [`Server::pump_until_idle`], or by a background thread from
/// [`Server::start_driver`]) takes everything queued as one epoch and
/// serves it with one engine call. See the crate docs for the full
/// request lifecycle.
pub struct Server {
    engine: Arc<Engine>,
    config: ServerConfig,
    state: Mutex<SchedState>,
    /// Paired with `state`: submissions notify it after enqueueing, the
    /// background driver waits on it while nothing is queued.
    wake: Condvar,
    counters: Counters,
    /// The engine's metrics registry (shared handle — the server's
    /// instruments live alongside the engine's).
    obs: Arc<Registry>,
    /// Requests drained per epoch (`server_epoch_requests`): the width
    /// the commit-is-the-window clock actually reached.
    epoch_requests: Histogram,
    /// Set by [`Server::shutdown`]: submissions refuse, ticks continue
    /// until the queues drain.
    closed: AtomicBool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// A server over `engine` with the given configuration. A zero
    /// quantum is clamped to 1 — its rounds would drain nothing and an
    /// epoch would never end.
    pub fn new(engine: Arc<Engine>, mut config: ServerConfig) -> Self {
        config.quantum = config.quantum.max(1);
        let obs = Arc::clone(engine.obs());
        let counters = Counters::new(&obs);
        let epoch_requests = obs.histogram("server_epoch_requests");
        Self {
            engine,
            config,
            state: Mutex::new(SchedState::new()),
            wake: Condvar::new(),
            counters,
            obs,
            epoch_requests,
            closed: AtomicBool::new(false),
        }
    }

    /// A server with the default configuration.
    pub fn with_defaults(engine: Arc<Engine>) -> Self {
        Self::new(engine, ServerConfig::default())
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Sets an analyst's round-robin weight (default 1, minimum 1): an
    /// analyst with weight `w` is handed `w × quantum` requests per
    /// round of an epoch when backlogged.
    pub fn set_weight(&self, analyst: &str, weight: u32) {
        let mut state = self.state.lock().expect("scheduler state poisoned");
        state
            .queues
            .entry(analyst.to_owned())
            .or_insert_with(|| AnalystQueue::new(1, self.queue_depth_gauge(analyst)))
            .weight = weight.max(1);
    }

    /// Submits a request on behalf of an analyst, returning the answer
    /// [`Ticket`] immediately (submission never blocks on the engine —
    /// serving happens on scheduler ticks).
    ///
    /// Keep the ticket: dropping it before the request dispatches
    /// **cancels** the request (no release, no ε charge, the queue slot
    /// simply drains — see [`ServerStats::cancelled`]). This is how a
    /// disconnected network client's abandoned work is discarded
    /// without cost.
    ///
    /// # Errors
    ///
    /// * [`ServerError::ShutDown`] after [`Server::shutdown`] closed the
    ///   doors,
    /// * [`ServerError::Engine`] (`UnknownAnalyst`, or `SessionEvicted`
    ///   for a TTL-evicted session awaiting reattach) without an open
    ///   engine session,
    /// * [`ServerError::BudgetExhausted`] when admission control is on
    ///   and the request's ε exceeds the remaining budget,
    /// * [`ServerError::QueueFull`] when the analyst's queue is at
    ///   capacity (backpressure — drain some tickets first),
    /// * [`ServerError::Overloaded`] when the total-backlog shed gate
    ///   ([`ServerConfig::shed_depth`]) is at its limit.
    pub fn submit(&self, analyst: &str, request: Request) -> Result<Ticket, ServerError> {
        self.submit_tagged(analyst, request, None, None)
    }

    /// [`Server::submit`] with exactly-once retry support: `request_id`
    /// is the client's idempotency key for `(analyst, request_id)`, and
    /// `deadline` bounds how long the request may wait in the scheduler
    /// before it is refused — **before any charge** — with
    /// [`ServerError::DeadlineExceeded`].
    ///
    /// A tagged submission whose `(analyst, request_id)` already has a
    /// durable answer in the engine's reply cache resolves
    /// **immediately** from that cache — no queueing, no release, zero
    /// additional ε — so a client that lost a reply in flight can
    /// resubmit the same id and read back the identical bytes. The
    /// replay path deliberately skips admission control: the original
    /// request already paid, so an exhausted ledger must not block the
    /// retry. Tagged requests that do queue carry their tag into the
    /// engine, which persists the answer alongside its charge in one
    /// atomic WAL frame.
    pub fn submit_tagged(
        &self,
        analyst: &str,
        request: Request,
        request_id: Option<u64>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServerError> {
        self.submit_traced(
            analyst,
            request,
            request_id,
            deadline,
            TraceContext::inert(),
        )
    }

    /// [`Server::submit_tagged`] with a distributed-tracing context: the
    /// context rides the request through queue, schedule, coalesce and
    /// the engine's release/commit, each stage appending a span. An
    /// inert context (the other submit paths) costs one `Option` clone
    /// and nothing else — tracing is a pure side channel and never
    /// influences scheduling, charging, or noise.
    pub fn submit_traced(
        &self,
        analyst: &str,
        request: Request,
        request_id: Option<u64>,
        deadline: Option<Duration>,
        trace: TraceContext,
    ) -> Result<Ticket, ServerError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(ServerError::ShutDown);
        }
        if let Some(rid) = request_id {
            if let Some(cached) = self.engine.cached_reply(analyst, rid) {
                let (sub, ticket) = Submitted::tagged(analyst, request, request_id, None, trace);
                self.counters.submitted.inc();
                self.counters.answered.inc();
                self.counters.retries.inc();
                sub.tx.resolve(Ok(cached));
                return Ok(ticket);
            }
        }
        if deadline.is_some_and(|d| d.is_zero()) {
            self.counters.deadline_refusals.inc();
            return Err(ServerError::DeadlineExceeded {
                analyst: analyst.to_owned(),
            });
        }
        let deadline_at = deadline.map(|d| std::time::Instant::now() + d);
        let mut state = self.state.lock().expect("scheduler state poisoned");
        self.submit_locked(&mut state, analyst, request, request_id, deadline_at, trace)
    }

    /// [`Server::submit`] for each request under **one** hold of the
    /// scheduler lock: no tick can drain between them, so compatible
    /// members land in the same epoch however a driver's wake-up races
    /// the caller. A refused member fails only its slot.
    pub fn submit_many(
        &self,
        analyst: &str,
        requests: Vec<Request>,
    ) -> Vec<Result<Ticket, ServerError>> {
        let mut state = self.state.lock().expect("scheduler state poisoned");
        let inert = TraceContext::inert;
        requests
            .into_iter()
            .map(|r| self.submit_locked(&mut state, analyst, r, None, None, inert()))
            .collect()
    }

    /// Admission and enqueue, under the caller's hold of the scheduler
    /// lock; wakes the driver.
    fn submit_locked(
        &self,
        state: &mut SchedState,
        analyst: &str,
        request: Request,
        request_id: Option<u64>,
        deadline_at: Option<std::time::Instant>,
        trace: TraceContext,
    ) -> Result<Ticket, ServerError> {
        // Checked under the state lock: shutdown() sets the flag and
        // then takes this lock as a barrier before its final drain, so
        // an enqueue that saw `closed == false` here is guaranteed to
        // happen before that drain — no ticket can slip in after the
        // last tick and hang forever.
        if self.closed.load(Ordering::Acquire) {
            return Err(ServerError::ShutDown);
        }
        let remaining = self
            .engine
            .session_remaining(analyst)
            .map_err(ServerError::Engine)?;
        if self.config.admission_control && request.epsilon.value() > remaining {
            self.counters.refused_admission.inc();
            return Err(ServerError::BudgetExhausted {
                analyst: analyst.to_owned(),
                requested: request.epsilon.value(),
                remaining,
            });
        }
        // Shed gate on the AGGREGATE backlog, before the per-analyst
        // capacity check: under overload every queue may individually
        // look fine while their sum guarantees queueing delay no
        // deadline survives.
        if let Some(limit) = self.config.shed_depth {
            let depth = state.queued;
            if depth >= limit {
                self.counters.shed_requests.inc();
                return Err(ServerError::Overloaded { depth, limit });
            }
        }
        let queue = state
            .queues
            .entry(analyst.to_owned())
            .or_insert_with(|| AnalystQueue::new(1, self.queue_depth_gauge(analyst)));
        if queue.queue.len() >= self.config.queue_capacity {
            self.counters.refused_queue_full.inc();
            return Err(ServerError::QueueFull {
                analyst: analyst.to_owned(),
                capacity: self.config.queue_capacity,
            });
        }
        let (sub, ticket) = Submitted::tagged(analyst, request, request_id, deadline_at, trace);
        queue.queue.push_back(sub);
        queue.depth.set(queue.queue.len() as f64);
        state.queued += 1;
        self.counters.submitted.inc();
        // Under the state lock: a driver that found the queues empty is
        // already waiting when this fires.
        self.wake.notify_all();
        Ok(ticket)
    }

    /// The per-analyst submission-queue depth gauge
    /// (`server_queue_depth{analyst="..."}`).
    fn queue_depth_gauge(&self, analyst: &str) -> bf_obs::Gauge {
        self.obs
            .gauge(&format!("server_queue_depth{{analyst={analyst:?}}}"))
    }

    /// Runs one scheduler tick — one **epoch**: take everything queued
    /// (whole fair rounds, up to [`EPOCH_MAX_REQUESTS`]), group it by
    /// coalescing key, serve every group with one engine call and one
    /// WAL commit, and resolve every ticket taken. Nothing drained
    /// outlives the tick. Returns the number of tickets resolved.
    ///
    /// Only the drain holds the state lock, so submissions keep landing
    /// while an epoch is released and committed — they are the next
    /// epoch. Calling this from several threads is safe but pointless —
    /// use one driver.
    pub fn tick(&self) -> usize {
        // Phase 1 (under the state lock): advance time and drain the
        // epoch (`stage="schedule"`).
        let mut span = self.obs.span();
        let (drained, evict_now) = {
            let mut state = self.state.lock().expect("scheduler state poisoned");
            state.tick += 1;
            let drained = state.drain_epoch(self.config.quantum, EPOCH_MAX_REQUESTS);
            if self.obs.is_enabled() {
                // The post-drain depth of every queue. Setting gauges
                // here is a side channel: nothing below consults them.
                for q in state.queues.values() {
                    q.depth.set(q.queue.len() as f64);
                }
            }
            let evict_now =
                self.config.session_ttl.is_some() && state.tick % EVICT_CHECK_EVERY == 1;
            (drained, evict_now)
        };
        self.obs.span_mark(&mut span, Stage::Schedule);
        let sched_elapsed = span.elapsed().unwrap_or_default();
        self.counters.ticks.inc();
        if !drained.is_empty() {
            self.epoch_requests.record(drained.len() as u64);
        }
        for sub in &drained {
            // Queue-wait per drained request. Reading clocks here is a
            // side channel too.
            if self.obs.is_enabled() {
                self.obs
                    .record_stage(Stage::Queue, sub.submitted_at.elapsed());
            }
            if sub.trace.is_active() {
                sub.trace
                    .record_elapsed(Stage::Queue, sub.submitted_at.elapsed(), "drained");
                sub.trace
                    .record_elapsed(Stage::Schedule, sched_elapsed, "drained");
            }
        }

        // Phase 2 (no server lock): group by coalescing key
        // (`stage="coalesce"`; the lookups touch only engine-internal
        // locks), sweep out what must not be charged, then hand the
        // engine the whole epoch in ONE call — its charges happen
        // sequentially (deterministic ledger positions) and ride one WAL group
        // commit.
        let (mut groups, dead_letters) = coalesce(drained, |r| self.engine.coalesce_key(r));
        self.obs.span_mark(&mut span, Stage::Coalesce);
        let coalesce_elapsed = span.elapsed().unwrap_or_default() - sched_elapsed;
        for sub in groups.iter().flatten().filter(|s| s.trace.is_active()) {
            sub.trace
                .record_elapsed(Stage::Coalesce, coalesce_elapsed, "grouped");
        }
        let mut resolved = 0usize;
        // Unknown policy: the ticket fails without reaching the engine.
        for (sub, e) in dead_letters {
            self.counters.failed.inc();
            sub.tx.resolve(Err(e));
            resolved += 1;
        }

        // Cancellation sweep: a waiter whose ticket is gone
        // (disconnected client, dropped ticket) is unreachable — serving
        // it would charge ε for an answer nobody can read. Dropped here,
        // BEFORE any charge: the queue slot was already freed by the
        // drain, and the ledger is never touched.
        //
        // Deadline sweep, also BEFORE any charge: a request whose
        // deadline lapsed in the queue is refused with a typed error —
        // the client has (or will have) given up, and an answer nobody
        // trusts must not cost ε. This is graceful degradation's second
        // half: the shed gate refuses new work at the door, this refuses
        // stale work at dispatch, and between them an overloaded server
        // burns budget only on answers that are still wanted.
        let now_wall = std::time::Instant::now();
        let expired = |s: &Submitted| s.deadline.is_some_and(|d| d <= now_wall);
        let mut cancelled = 0u64;
        for group in &mut groups {
            if !group.iter().any(|s| s.tx.is_closed() || expired(s)) {
                continue; // the common case: nothing to sweep
            }
            for sub in std::mem::take(group) {
                if sub.tx.is_closed() {
                    cancelled += 1;
                } else if expired(&sub) {
                    self.counters.deadline_refusals.inc();
                    self.counters.failed.inc();
                    sub.tx.resolve(Err(ServerError::DeadlineExceeded {
                        analyst: sub.analyst,
                    }));
                    resolved += 1;
                } else {
                    group.push(sub);
                }
            }
        }
        if cancelled > 0 {
            self.counters.cancelled.add(cancelled);
        }
        groups.retain(|g| !g.is_empty());

        // The engine decides which release answers each group: one per
        // group, except that range groups sharing `(policy, data, ε)`
        // but differing in endpoints fold into one Ordered release.
        let waiters: Vec<Vec<Waiter<'_>>> = groups
            .iter()
            .map(|g| g.iter().map(Submitted::for_engine).collect())
            .collect();
        let engine_groups: Vec<Group<'_>> = groups
            .iter()
            .zip(&waiters)
            .map(|(g, waiters)| Group {
                request: &g[0].request,
                waiters,
            })
            .collect();
        let Served { slots, releases } = self.engine.serve_groups(&engine_groups);
        // What a group's answers count as: `folded` when its release
        // answered two or more range groups, `shared` when it answered
        // two or more waiters.
        let mut counts_as = vec![(false, false); groups.len()];
        for members in &releases {
            if members.iter().any(|&g| slots[g].iter().any(Result::is_ok)) {
                self.counters.releases.inc();
            }
            let riders: usize = members.iter().map(|&g| slots[g].len()).sum();
            for &g in members {
                counts_as[g] = (members.len() >= 2, riders >= 2);
            }
        }
        for ((group, slots), (folded, shared)) in groups.into_iter().zip(slots).zip(counts_as) {
            for (sub, slot) in group.into_iter().zip(slots) {
                match &slot {
                    Ok(_) => {
                        self.counters.answered.inc();
                        if folded {
                            self.counters.batched_range_answers.inc();
                        }
                        if shared {
                            self.counters.coalesced_answers.inc();
                        }
                    }
                    Err(_) => {
                        self.counters.failed.inc();
                    }
                }
                sub.tx.resolve(slot.map_err(ServerError::Engine));
                resolved += 1;
            }
        }

        // TTL sweep last, so requests served this tick count as
        // activity before idleness is judged.
        if evict_now {
            self.evict_idle_sessions();
        }
        resolved
    }

    /// The session-TTL sweep (no-op without [`ServerConfig::session_ttl`]).
    /// Analysts with queued work are exempt: idleness is time since last
    /// charge, and a backlogged analyst waiting out the scheduler is not
    /// idle — evicting them would fail their admitted tickets.
    fn evict_idle_sessions(&self) {
        let Some(ttl) = self.config.session_ttl else {
            return;
        };
        let busy: Vec<String> = {
            let state = self.state.lock().expect("scheduler state poisoned");
            state
                .queues
                .iter()
                .filter(|(_, q)| !q.queue.is_empty())
                .map(|(a, _)| a.clone())
                .collect()
        };
        let evicted = self.engine.evict_idle_sessions_except(ttl, &busy);
        self.counters.evicted_sessions.add(evicted.len() as u64);
        if !evicted.is_empty() {
            // Retire the evicted analysts' queue structures and
            // unregister their depth gauges, so scrapes stop carrying
            // dead `server_queue_depth{analyst=…}` series. Eviction
            // exempted busy analysts, so the queues being dropped are
            // empty.
            let mut state = self.state.lock().expect("scheduler state poisoned");
            for analyst in &evicted {
                state.queues.remove(analyst);
                self.obs
                    .remove(&format!("server_queue_depth{{analyst={analyst:?}}}"));
            }
        }
    }

    /// Graceful shutdown: closes the doors (new submissions refuse with
    /// [`ServerError::ShutDown`]), drains and answers everything already
    /// queued, then flushes and compacts the engine's store so a
    /// follow-up process recovers from a snapshot instead of replaying
    /// the whole log. Returns the final stats snapshot.
    ///
    /// Restart-reattach is the mirror image: build a `Store` on the same
    /// directory, an `Engine::with_store` over it, and a new `Server` —
    /// analysts reopen their sessions and continue from their durable
    /// ledgers.
    ///
    /// # Errors
    ///
    /// [`ServerError::Engine`] wrapping the store failure when the final
    /// flush cannot be made durable (queued work is still answered
    /// first).
    pub fn shutdown(&self) -> Result<ServerStats, ServerError> {
        self.closed.store(true, Ordering::Release);
        // Barrier: any submit() currently holding the state lock
        // finishes its enqueue before we proceed (and will be drained
        // below); any submit() that locks after us re-checks `closed`
        // under the lock and refuses. Either way, no stranded tickets.
        drop(self.state.lock().expect("scheduler state poisoned"));
        self.pump_until_idle();
        self.engine.compact().map_err(ServerError::Engine)?;
        Ok(self.stats())
    }

    /// Whether the server has no queued work — a drain probe for
    /// external drivers that tick on their own schedule (the same
    /// predicate [`Server::pump_until_idle`] loops on). An epoch a
    /// driver has drained but not yet acknowledged is not counted:
    /// stop the driver (or watch [`ServerStats`]) to know every accepted
    /// ticket has resolved.
    pub(crate) fn is_idle(&self) -> bool {
        !self
            .state
            .lock()
            .expect("scheduler state poisoned")
            .has_queued()
    }

    /// Ticks until nothing is queued, returning the total number of
    /// tickets resolved. This is the deterministic way to flush the
    /// server in tests and benches.
    pub fn pump_until_idle(&self) -> usize {
        let mut total = 0;
        while !self.is_idle() {
            total += self.tick();
        }
        total
    }

    /// Spawns a background driver thread, running until the returned
    /// handle is stopped (or dropped). The driver has one clock, the
    /// epoch: it sleeps on a condvar while nothing is queued (bounded by
    /// `session_ttl`, so idle sessions still get swept) and otherwise
    /// ticks back-to-back — each tick takes everything that arrived
    /// while the previous epoch was being released and committed.
    ///
    /// `_interval` is kept for source compatibility and **ignored**: it
    /// was the time unit of the coalescing window, and the commit is the
    /// window now.
    pub fn start_driver(self: &Arc<Self>, _interval: Duration) -> DriverHandle {
        let server = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let stopped = || stop_flag.load(Ordering::Acquire);
            let idle_wait = match server.config.session_ttl {
                Some(ttl) => ttl.max(MIN_SWEEP_WAIT),
                None => Duration::MAX,
            };
            loop {
                let state = server.state.lock().expect("scheduler state poisoned");
                let (state, waited) = server
                    .wake
                    .wait_timeout_while(state, idle_wait, |s| !stopped() && !s.has_queued())
                    .expect("scheduler state poisoned");
                drop(state);
                if stopped() {
                    break;
                }
                if waited.timed_out() {
                    server.evict_idle_sessions();
                } else {
                    server.tick();
                }
            }
            // Final flush so in-flight work is answered, not stranded.
            server.pump_until_idle();
        });
        DriverHandle {
            stop,
            server: Arc::clone(self),
            thread: Some(thread),
        }
    }

    /// Counter snapshot — a thin shim over the `server_*_total` registry
    /// handles, kept for existing tests and benches.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.counters.submitted.get(),
            answered: self.counters.answered.get(),
            failed: self.counters.failed.get(),
            refused_queue_full: self.counters.refused_queue_full.get(),
            refused_admission: self.counters.refused_admission.get(),
            releases: self.counters.releases.get(),
            coalesced_answers: self.counters.coalesced_answers.get(),
            batched_range_answers: self.counters.batched_range_answers.get(),
            cancelled: self.counters.cancelled.get(),
            deadline_refusals: self.counters.deadline_refusals.get(),
            shed_requests: self.counters.shed_requests.get(),
            retries: self.counters.retries.get(),
            ticks: self.counters.ticks.get(),
            evicted_sessions: self.counters.evicted_sessions.get(),
        }
    }
}

/// Stops the background driver thread on [`DriverHandle::stop`] or drop
/// (flushing remaining work first).
#[derive(Debug)]
pub struct DriverHandle {
    stop: Arc<AtomicBool>,
    server: Arc<Server>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DriverHandle {
    /// Signals the driver to stop, flushes remaining work, and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Taking the state lock orders the store against the driver's
        // check-then-wait, so the notification cannot be lost.
        drop(self.server.state.lock().expect("scheduler state poisoned"));
        self.server.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DriverHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
