//! Scheduler state: per-analyst queues drained an **epoch** at a time
//! under weighted round robin, and the grouping of one epoch's requests
//! into shared releases.
//!
//! **Epochs.** A tick takes everything queued when it starts — whole
//! rounds over the analysts, in name order, until the queues are empty
//! or the epoch holds [`EPOCH_MAX_REQUESTS`] — and nothing drained ever
//! outlives its tick: there is no pending state between ticks. What
//! arrives while an epoch is being released and committed is the next
//! epoch, so the batch widens by itself under load and is one request
//! on an idle server.
//!
//! **Fairness.** Each analyst owns a bounded FIFO of submitted requests.
//! A round hands every backlogged analyst `quantum × weight` requests,
//! so within an epoch cut short by the bound — and over any run of such
//! epochs — the served share follows the weight ratio no matter how hard
//! one analyst floods: a chatty analyst fills their own queue (and
//! starts seeing `QueueFull` backpressure) while everyone else's work
//! rides the same epoch. Requests cost one unit each, so there is no
//! deficit to carry between rounds (Shreedhar & Varghese's DRR with unit
//! packets is weighted round robin).
//!
//! **Coalescing.** Within an epoch, requests with equal engine
//! coalescing keys (`(policy cache key, dataset, ε, query class)`) form
//! one group, so identical requests from *different* analysts share one
//! mechanism release. Iteration is deterministic — analyst queues drain
//! in name order, groups form in drain order — so a same-seed engine
//! behind a same-order submission stream produces byte-identical
//! answers.

use crate::error::ServerError;
use crate::Ticket;
use bf_engine::{EngineError, Request, Response};
use bf_obs::{Gauge, TraceContext};
use futures_lite::oneshot;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// The most requests one epoch takes before it stops starting rounds
/// (the round in progress completes, so an epoch can overshoot by less
/// than one round).
///
/// An epoch's requests are charged, released, committed and acknowledged
/// together, so its size is both the delay a flooder can impose on an
/// analyst who arrives just after it starts (one epoch, never more) and
/// the work at stake in one WAL commit. 256 is four connections' worth
/// of the wire layer's default in-flight window (`NetConfig::
/// max_in_flight`, 64) and twice the default `queue_capacity`, so every
/// `bfbench` workload — and any backlog the default configuration can
/// hold for one analyst — drains in one epoch. Measured on the 2-core
/// sandbox (release build, in-memory engine, 4 096-cell line domain, two
/// analysts): one 256-request epoch takes 468 µs when its ranges fold
/// into one Ordered release and 859 µs in the worst case for this
/// request mix — 256 distinct ε, so 256 lone releases — both under the
/// wire layer's 1.25 ms release period, so a light analyst queued
/// behind a flooder is late by less than the pacing they already pay.
pub const EPOCH_MAX_REQUESTS: usize = 256;

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

    /// The engine's borrowed view of this request's waiter: who pays,
    /// the idempotency tag, the trace context.
    pub(crate) fn for_engine(&self) -> bf_engine::Waiter<'_> {
        bf_engine::Waiter {
            analyst: &self.analyst,
            tag: self.request_id,
            trace: &self.trace,
        }
    }
}

/// One analyst's submission queue plus their round-robin weight.
pub(crate) struct AnalystQueue {
    pub weight: u32,
    pub queue: VecDeque<Submitted>,
    /// The analyst's `server_queue_depth{...}` gauge, resolved once at
    /// queue creation so the hot paths never pay a registry lookup.
    pub depth: Gauge,
}

impl AnalystQueue {
    pub(crate) fn new(weight: u32, depth: Gauge) -> Self {
        Self {
            weight: weight.max(1),
            queue: VecDeque::new(),
            depth,
        }
    }
}

/// Groups one epoch's requests by `key_of` (the engine's coalescing
/// key): equal keys share a group — its request is its first member's —
/// `None` (k-means) is a group of its own, and a request whose key
/// cannot be computed (unknown policy) is returned with its error
/// instead. Groups come back in the drain order of their first member.
pub(crate) fn coalesce(
    drained: Vec<Submitted>,
    key_of: impl Fn(&Request) -> Result<Option<String>, EngineError>,
) -> (Vec<Vec<Submitted>>, Vec<(Submitted, ServerError)>) {
    let mut groups: Vec<Vec<Submitted>> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut dead_letters = Vec::new();
    for sub in drained {
        match key_of(&sub.request) {
            Ok(Some(key)) => {
                let gi = *index.entry(key).or_insert(groups.len());
                if gi == groups.len() {
                    groups.push(Vec::new());
                }
                groups[gi].push(sub);
            }
            Ok(None) => groups.push(vec![sub]),
            Err(e) => dead_letters.push((sub, ServerError::Engine(e))),
        }
    }
    (groups, dead_letters)
}

/// Everything the scheduler mutates under the server's state lock.
pub(crate) struct SchedState {
    /// Per-analyst queues in **name order** — the deterministic drain
    /// order fairness and reproducibility both lean on.
    pub queues: BTreeMap<String, AnalystQueue>,
    /// Requests queued across every analyst: the shed gate's depth and
    /// the driver's "is there work" test, kept as a running total so
    /// neither walks the queues.
    pub queued: usize,
    pub tick: u64,
}

impl SchedState {
    pub(crate) fn new() -> Self {
        Self {
            queues: BTreeMap::new(),
            queued: 0,
            tick: 0,
        }
    }

    /// Drains one epoch: whole rounds — `quantum × weight` requests from
    /// every backlogged analyst, in name order — until nothing is queued
    /// or the epoch holds `bound` requests.
    pub(crate) fn drain_epoch(&mut self, quantum: u32, bound: usize) -> Vec<Submitted> {
        let mut drained = Vec::with_capacity(self.queued.min(bound));
        while self.queued > 0 && drained.len() < bound {
            for q in self.queues.values_mut() {
                let share = u64::from(quantum) * u64::from(q.weight);
                let take = q
                    .queue
                    .len()
                    .min(usize::try_from(share).unwrap_or(usize::MAX));
                drained.extend(q.queue.drain(..take));
                self.queued -= take;
            }
        }
        drained
    }

    /// Whether any analyst queue holds an undrained request.
    pub(crate) fn has_queued(&self) -> bool {
        self.queued > 0
    }
}
