//! Scheduler state: per-analyst queues under weighted deficit round
//! robin, plus the cross-analyst coalescing window.
//!
//! **Fairness.** Each analyst owns a bounded FIFO of submitted requests.
//! Every tick, each backlogged analyst's *deficit* grows by
//! `quantum × weight` and the scheduler drains one request per unit of
//! deficit, so over any window the served share converges to the weight
//! ratio no matter how hard one analyst floods: a chatty analyst fills
//! their own queue (and starts seeing `QueueFull` backpressure) while
//! everyone else keeps their `quantum × weight` per tick. Deficits reset
//! when a queue empties — an idle analyst cannot bank credit and burst
//! past the others later (classic DRR, Shreedhar & Varghese).
//!
//! **Coalescing.** Drained requests with equal engine coalescing keys
//! (`(policy cache key, dataset, ε, query class)`) join one pending
//! group; a group formed at tick `t` dispatches at `t + window`, so
//! identical requests from *different* analysts arriving within the
//! window share one mechanism release. Iteration is deterministic —
//! analyst queues drain in name order, groups dispatch in creation
//! order — so a same-seed engine behind a same-order submission stream
//! produces byte-identical answers.

use crate::error::ServerError;
use crate::Ticket;
use bf_engine::{Request, Response};
use bf_obs::{Gauge, TraceContext};
use futures_lite::oneshot;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// One queued request: who asked, what they asked, where the answer
/// goes, and when it arrived (for queue-wait and ticket-latency
/// histograms — the timestamp feeds metrics only, never scheduling).
/// Tagged submissions also carry the client's idempotency key
/// (`request_id`) — threaded to the engine so a retry replays the
/// original durable answer instead of drawing (and charging) a fresh
/// release — and an optional wall-clock deadline the scheduler checks
/// before dispatch.
pub(crate) struct Submitted {
    pub analyst: String,
    pub request: Request,
    /// The client's idempotency key, `None` for fire-and-forget work.
    pub request_id: Option<u64>,
    /// Refuse (never charge) if still undispatched past this instant.
    pub deadline: Option<Instant>,
    pub tx: oneshot::Sender<Result<Response, ServerError>>,
    pub submitted_at: Instant,
    /// The request's distributed-tracing context — inert for untraced
    /// submissions, so carrying it costs one `Option` clone.
    pub trace: TraceContext,
}

impl Submitted {
    pub(crate) fn tagged(
        analyst: &str,
        request: Request,
        request_id: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> (Self, Ticket) {
        let (tx, rx) = oneshot::channel();
        (
            Self {
                analyst: analyst.to_owned(),
                request,
                request_id,
                deadline,
                tx,
                submitted_at: Instant::now(),
                trace,
            },
            Ticket::new(rx),
        )
    }
}

/// One analyst's submission queue plus their DRR accounting.
pub(crate) struct AnalystQueue {
    pub weight: u32,
    pub deficit: u64,
    pub queue: VecDeque<Submitted>,
    /// The analyst's `server_queue_depth{...}` gauge, resolved once at
    /// queue creation so the hot paths never pay a registry lookup.
    pub depth: Gauge,
}

impl AnalystQueue {
    pub(crate) fn new(weight: u32, depth: Gauge) -> Self {
        Self {
            weight: weight.max(1),
            deficit: 0,
            queue: VecDeque::new(),
            depth,
        }
    }
}

/// One coalescing-group waiter: who is owed the answer, how to deliver
/// it, the idempotency tag and deadline carried from submission, and
/// when they submitted (feeds the ticket-latency histogram).
pub(crate) struct Waiter {
    pub analyst: String,
    pub request_id: Option<u64>,
    pub deadline: Option<Instant>,
    pub tx: oneshot::Sender<Result<Response, ServerError>>,
    pub submitted_at: Instant,
    /// The waiter's tracing context, carried from submission into the
    /// engine.
    pub trace: TraceContext,
}

impl Waiter {
    /// The engine's borrowed view of this waiter: who pays, the
    /// idempotency tag, the trace context.
    pub(crate) fn for_engine(&self) -> bf_engine::Waiter<'_> {
        bf_engine::Waiter {
            analyst: &self.analyst,
            tag: self.request_id,
            trace: &self.trace,
        }
    }

    fn from_submitted(sub: Submitted) -> Self {
        Self {
            analyst: sub.analyst,
            request_id: sub.request_id,
            deadline: sub.deadline,
            tx: sub.tx,
            submitted_at: sub.submitted_at,
            trace: sub.trace,
        }
    }
}

/// A pending coalescing group: identical requests waiting out the
/// window together.
pub(crate) struct CoalesceGroup {
    /// The engine coalescing key the group formed under.
    pub key: String,
    pub request: Request,
    /// Tick at which the group dispatches (formation tick + window).
    pub deadline: u64,
    /// When the group formed (feeds the coalesce-window histogram).
    pub formed_at: Instant,
    /// The group's waiters, in join order.
    pub waiters: Vec<Waiter>,
}

impl CoalesceGroup {
    /// A group of one, formed now around `sub`'s request.
    pub(crate) fn new(key: String, sub: Submitted, deadline: u64) -> Self {
        Self {
            key,
            request: sub.request.clone(),
            deadline,
            formed_at: Instant::now(),
            waiters: vec![Waiter::from_submitted(sub)],
        }
    }
}

/// Everything the scheduler mutates under the server's state lock.
pub(crate) struct SchedState {
    /// Per-analyst queues in **name order** — the deterministic drain
    /// order fairness and reproducibility both lean on.
    pub queues: BTreeMap<String, AnalystQueue>,
    /// Pending coalescing groups in creation order.
    pub pending: Vec<CoalesceGroup>,
    /// Coalescing key → index into `pending`.
    pub index: HashMap<String, usize>,
    pub tick: u64,
}

impl SchedState {
    pub(crate) fn new() -> Self {
        Self {
            queues: BTreeMap::new(),
            pending: Vec::new(),
            index: HashMap::new(),
            tick: 0,
        }
    }

    /// Drains up to `quantum × weight` fresh deficit worth of requests
    /// from every backlogged analyst, in name order.
    pub(crate) fn drain_round(&mut self, quantum: u32) -> Vec<Submitted> {
        let mut drained = Vec::new();
        for q in self.queues.values_mut() {
            if q.queue.is_empty() {
                q.deficit = 0; // no banking credit while idle
                continue;
            }
            q.deficit += u64::from(quantum) * u64::from(q.weight);
            while q.deficit >= 1 {
                let Some(sub) = q.queue.pop_front() else {
                    q.deficit = 0;
                    break;
                };
                q.deficit -= 1;
                drained.push(sub);
            }
        }
        drained
    }

    /// Joins `sub` to the pending group under `key`, forming a new group
    /// with the given deadline when none is open.
    pub(crate) fn join_group(&mut self, key: String, sub: Submitted, deadline: u64) {
        if let Some(&i) = self.index.get(&key) {
            self.pending[i].waiters.push(Waiter::from_submitted(sub));
        } else {
            self.index.insert(key.clone(), self.pending.len());
            self.pending.push(CoalesceGroup::new(key, sub, deadline));
        }
    }

    /// Removes and returns every group due at `now`, preserving creation
    /// order, and reindexes the remainder.
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<CoalesceGroup> {
        if self.pending.iter().all(|g| g.deadline > now) {
            return Vec::new();
        }
        let (due, remaining): (Vec<_>, Vec<_>) =
            self.pending.drain(..).partition(|g| g.deadline <= now);
        self.index.clear();
        for (i, g) in remaining.iter().enumerate() {
            self.index.insert(g.key.clone(), i);
        }
        self.pending = remaining;
        due
    }

    /// Whether any analyst queue holds an undrained request.
    pub(crate) fn has_queued(&self) -> bool {
        self.queues.values().any(|q| !q.queue.is_empty())
    }

    /// Whether any queued or pending work remains.
    pub(crate) fn is_busy(&self) -> bool {
        !self.pending.is_empty() || self.has_queued()
    }
}
