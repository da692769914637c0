//! Request-scoped distributed tracing: trace contexts that travel with
//! one request through every layer, and the bounded exemplar buffer
//! finished traces land in.
//!
//! A trace begins when the wire layer decodes a `Submit` frame carrying
//! a client-assigned [`TraceId`]. The resulting [`TraceContext`] is
//! cloned into the scheduler's waiter, the engine's release path and the
//! store's group commit; each layer appends [`TraceSpan`] records
//! (stage, start offset, duration, outcome). When the reply frame is
//! flushed the context is [`finish`](TraceContext::finish)ed into a
//! [`TraceTree`] and pushed into the registry's [`TraceBuffer`].
//!
//! Tracing obeys the same discipline as every other instrument in this
//! crate:
//!
//! * **Pure side channel.** Contexts read clocks and push records but
//!   never feed anything back into RNG derivation, charge ordering or
//!   scheduling. With the registry disabled every context is inert and
//!   no clock is read.
//! * **Never blocking.** Span appends and buffer pushes use `try_lock`;
//!   a lost race drops the record instead of queueing a request thread
//!   behind the observer.
//! * **Bounded.** The buffer retains the slowest-N exemplars per stage
//!   (plus the most recent N), so a flood of fast traces can never
//!   evict the outliers worth debugging — nor grow without bound.
//!
//! Coalescing is visible per-trace: when one mechanism release answers
//! several waiters, every waiter's release span carries the same
//! [`link`](TraceSpan::link) id (minted by [`next_link_id`]), so
//! amplification can be read off any single trace.

use crate::span::Stage;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Slowest exemplars the buffer retains per stage (and, independently,
/// how many most-recent traces are always kept).
pub(crate) const TRACE_EXEMPLARS_PER_STAGE: usize = 8;

/// A client-assigned trace identifier, carried over the wire in `Submit`
/// frames and echoed on `Answer`/`Refused`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// One recorded span inside a trace: which stage, when it started
/// (offset from the trace's first observation), how long it took, and
/// how it went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The pipeline stage this span timed.
    pub stage: Stage,
    /// Nanoseconds from the trace's start to this span's start.
    pub start_ns: u64,
    /// The span's duration in nanoseconds.
    pub duration_ns: u64,
    /// What happened (`"ok"`, `"durable"`, `"refused"`, …).
    pub outcome: String,
    /// Shared-release link: spans produced by one coalesced mechanism
    /// release carry the same id across every waiter's trace, so
    /// amplification is visible from any single trace.
    pub link: Option<u64>,
}

/// A completed trace: every span one request produced, assembled in
/// recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// The client-assigned trace id.
    pub id: TraceId,
    /// The analyst the request belonged to.
    pub analyst: String,
    /// Wall time from the trace's start to its finish, in nanoseconds.
    pub total_ns: u64,
    /// How the request ended (`"ok"` or the refusal's name).
    pub outcome: String,
    /// The recorded spans, oldest first.
    pub spans: Vec<TraceSpan>,
}

impl TraceTree {
    /// The longest recorded duration for `stage`, if the trace has one.
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration_ns)
            .max()
    }

    /// Whether the trace recorded at least one span for every stage in
    /// `stages`.
    pub fn covers(&self, stages: &[Stage]) -> bool {
        stages.iter().all(|s| self.stage_ns(*s).is_some())
    }
}

/// Mints a process-unique id for a shared (coalesced) release span.
/// Purely observational — link ids never feed back into serving.
pub fn next_link_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug)]
struct TraceCore {
    id: TraceId,
    analyst: String,
    started: Instant,
    spans: Mutex<Vec<TraceSpan>>,
    buffer: TraceBuffer,
    finished: AtomicBool,
}

/// The per-request tracing handle. Cheap to clone (an `Option<Arc>`);
/// the inert form records nothing and reads no clocks, so untraced
/// requests pay one branch per would-be record.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    core: Option<Arc<TraceCore>>,
}

/// A started (or inert) clock for one [`TraceSpan`]. Obtain from
/// [`TraceTimer::any`] over the contexts sharing the measured region.
#[derive(Debug)]
pub struct TraceTimer(Option<Instant>);

impl TraceTimer {
    /// Starts a timer if **any** of `ctxs` is active — the group form
    /// used when one region (a shared release, a group commit) will be
    /// recorded into several traces. Reads the clock at most once.
    pub fn any<'a>(ctxs: impl IntoIterator<Item = &'a TraceContext>) -> Self {
        if ctxs.into_iter().any(TraceContext::is_active) {
            TraceTimer(Some(Instant::now()))
        } else {
            TraceTimer(None)
        }
    }

    /// Whether a clock was actually started.
    pub fn is_running(&self) -> bool {
        self.0.is_some()
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl TraceContext {
    /// A context that records nothing.
    pub fn inert() -> Self {
        TraceContext { core: None }
    }

    /// Whether this context is actually tracing.
    pub fn is_active(&self) -> bool {
        self.core.is_some()
    }

    /// Records one span measured by `timer` (a no-op when either side
    /// is inert). The span runs from the timer's start to now.
    pub fn record(&self, stage: Stage, timer: &TraceTimer, outcome: &str) {
        self.record_linked(stage, timer, outcome, None);
    }

    /// [`record`](Self::record) with a shared-release [`link`]
    /// (`TraceSpan::link`) id.
    ///
    /// [`link`]: TraceSpan::link
    pub fn record_linked(
        &self,
        stage: Stage,
        timer: &TraceTimer,
        outcome: &str,
        link: Option<u64>,
    ) {
        let (Some(core), Some(t0)) = (self.core.as_deref(), timer.0) else {
            return;
        };
        let start_ns = ns(t0.saturating_duration_since(core.started));
        let duration_ns = ns(t0.elapsed());
        self.push_span(
            core,
            TraceSpan {
                stage,
                start_ns,
                duration_ns,
                outcome: outcome.to_owned(),
                link,
            },
        );
    }

    /// Records a span whose duration was measured elsewhere and which
    /// ends now (used where an existing instrument already timed the
    /// region — e.g. queue wait measured from the waiter's submit
    /// instant).
    pub fn record_elapsed(&self, stage: Stage, duration: Duration, outcome: &str) {
        let Some(core) = self.core.as_deref() else {
            return;
        };
        let duration_ns = ns(duration);
        let end_ns = ns(core.started.elapsed());
        self.push_span(
            core,
            TraceSpan {
                stage,
                start_ns: end_ns.saturating_sub(duration_ns),
                duration_ns,
                outcome: outcome.to_owned(),
                link: None,
            },
        );
    }

    fn push_span(&self, core: &TraceCore, span: TraceSpan) {
        if let Ok(mut spans) = core.spans.try_lock() {
            spans.push(span);
        }
    }

    /// Completes the trace: assembles the recorded spans into a
    /// [`TraceTree`] and pushes it into the owning buffer. Idempotent —
    /// only the first call on any clone of the context publishes; spans
    /// recorded after that are lost by design.
    pub fn finish(&self, outcome: &str) {
        let Some(core) = self.core.as_deref() else {
            return;
        };
        if core.finished.swap(true, Ordering::Relaxed) {
            return;
        }
        let total_ns = ns(core.started.elapsed());
        let spans = std::mem::take(&mut *core.spans.lock().expect("trace spans poisoned"));
        core.buffer.push(TraceTree {
            id: core.id,
            analyst: core.analyst.clone(),
            total_ns,
            outcome: outcome.to_owned(),
            spans,
        });
    }
}

#[derive(Debug)]
struct TraceBufferCore {
    traces: Mutex<Vec<TraceTree>>,
    exemplars: usize,
    enabled: Arc<AtomicBool>,
}

/// The bounded, never-blocking store of completed traces.
///
/// Capacity is `(stage count + 1) × exemplars`: for every stage the
/// slowest `exemplars` traces (by that stage's longest span) survive
/// eviction, and the `exemplars` most recent traces always survive, so
/// both "what was just served" and "what was ever slow" stay
/// inspectable. Pushes that lose the lock race are dropped instead of
/// waited for.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    core: Arc<TraceBufferCore>,
}

impl TraceBuffer {
    pub(crate) fn with_switch(exemplars: usize, enabled: Arc<AtomicBool>) -> Self {
        TraceBuffer {
            core: Arc::new(TraceBufferCore {
                traces: Mutex::new(Vec::new()),
                exemplars,
                enabled,
            }),
        }
    }

    /// A buffer attached to no registry, always enabled — for tests and
    /// standalone use.
    pub fn detached(exemplars: usize) -> Self {
        Self::with_switch(exemplars, Arc::new(AtomicBool::new(true)))
    }

    /// Begins a trace for `id` on behalf of `analyst`. Returns an inert
    /// context (no allocation past the check, no clock read) when the
    /// owning registry is disabled.
    pub fn begin(&self, id: TraceId, analyst: &str) -> TraceContext {
        if !self.core.enabled.load(Ordering::Relaxed) {
            return TraceContext::inert();
        }
        TraceContext {
            core: Some(Arc::new(TraceCore {
                id,
                analyst: analyst.to_owned(),
                started: Instant::now(),
                spans: Mutex::new(Vec::new()),
                buffer: self.clone(),
                finished: AtomicBool::new(false),
            })),
        }
    }

    /// The hard bound on retained traces.
    pub fn capacity(&self) -> usize {
        (Stage::ALL.len() + 1) * self.core.exemplars
    }

    fn push(&self, tree: TraceTree) {
        if !self.core.enabled.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut traces) = self.core.traces.try_lock() else {
            return;
        };
        traces.push(tree);
        let cap = self.capacity();
        if traces.len() > cap {
            let n = self.core.exemplars;
            let mut keep = vec![false; traces.len()];
            // The n most recent always survive …
            for k in keep.iter_mut().rev().take(n) {
                *k = true;
            }
            // … plus, per stage, the n slowest by that stage's span.
            for stage in Stage::ALL {
                let mut by_stage: Vec<(usize, u64)> = traces
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| t.stage_ns(stage).map(|d| (i, d)))
                    .collect();
                by_stage.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
                for (i, _) in by_stage.into_iter().take(n) {
                    keep[i] = true;
                }
            }
            let mut it = keep.into_iter();
            traces.retain(|_| it.next().unwrap_or(false));
        }
    }

    /// The retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<TraceTree> {
        self.core
            .traces
            .lock()
            .expect("trace buffer poisoned")
            .clone()
    }

    /// The retained trace for `id`, if any.
    pub fn find(&self, id: TraceId) -> Option<TraceTree> {
        self.core
            .traces
            .lock()
            .expect("trace buffer poisoned")
            .iter()
            .rfind(|t| t.id == id)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_finish_assembles_a_tree() {
        let buf = TraceBuffer::detached(4);
        let ctx = buf.begin(TraceId(7), "alice");
        assert!(ctx.is_active());
        assert_eq!(ctx.core.as_deref().map(|c| c.id), Some(TraceId(7)));
        let t = TraceTimer::any([&ctx]);
        std::thread::sleep(Duration::from_millis(1));
        ctx.record(Stage::Decode, &t, "ok");
        ctx.record_elapsed(Stage::Queue, Duration::from_micros(5), "drained");
        let t = TraceTimer::any([&ctx]);
        ctx.record_linked(Stage::Release, &t, "ok", Some(99));
        ctx.finish("ok");
        let traces = buf.snapshot();
        assert_eq!(traces.len(), 1);
        let tree = &traces[0];
        assert_eq!(tree.id, TraceId(7));
        assert_eq!(tree.analyst, "alice");
        assert_eq!(tree.outcome, "ok");
        assert_eq!(tree.spans.len(), 3);
        assert!(tree.stage_ns(Stage::Decode).unwrap() >= 1_000_000);
        assert_eq!(tree.spans[1].duration_ns, 5_000);
        assert_eq!(tree.spans[2].link, Some(99));
        assert!(tree.covers(&[Stage::Decode, Stage::Queue, Stage::Release]));
        assert!(!tree.covers(&[Stage::WalCommit]));
        assert!(tree.total_ns >= tree.stage_ns(Stage::Decode).unwrap());
    }

    #[test]
    fn finish_is_idempotent_across_clones() {
        let buf = TraceBuffer::detached(4);
        let ctx = buf.begin(TraceId(1), "a");
        let clone = ctx.clone();
        ctx.finish("ok");
        clone.finish("late");
        assert_eq!(buf.snapshot().len(), 1);
        assert_eq!(buf.snapshot()[0].outcome, "ok");
    }

    #[test]
    fn disabled_buffer_mints_inert_contexts() {
        let switch = Arc::new(AtomicBool::new(false));
        let buf = TraceBuffer::with_switch(4, switch);
        let ctx = buf.begin(TraceId(1), "a");
        assert!(!ctx.is_active());
        assert!(ctx.core.as_deref().map(|c| c.id).is_none());
        assert!(!TraceTimer::any([&ctx]).is_running());
        ctx.record(Stage::Decode, &TraceTimer(None), "ok");
        ctx.finish("ok");
        assert!(buf.snapshot().is_empty());
    }

    #[test]
    fn timer_any_starts_only_when_some_context_is_active() {
        let buf = TraceBuffer::detached(2);
        let inert = TraceContext::inert();
        assert!(!TraceTimer::any([&inert, &inert]).is_running());
        let live = buf.begin(TraceId(3), "a");
        assert!(TraceTimer::any([&inert, &live]).is_running());
        // Recording through an inert context is a no-op even with a
        // running group timer.
        let t = TraceTimer::any([&live]);
        inert.record(Stage::Release, &t, "ok");
        live.record(Stage::Release, &t, "ok");
        live.finish("ok");
        assert_eq!(buf.snapshot()[0].spans.len(), 1);
    }

    #[test]
    fn eviction_keeps_slowest_per_stage_and_most_recent() {
        let buf = TraceBuffer::detached(2);
        let cap = buf.capacity();
        // One early outlier: a huge Release span.
        let slow = buf.begin(TraceId(1000), "slow");
        slow.record_elapsed(Stage::Release, Duration::from_secs(5), "ok");
        slow.finish("ok");
        // Then a flood of fast traces, each with a tiny Release span.
        for i in 0..(3 * cap as u64) {
            let ctx = buf.begin(TraceId(i), "fast");
            ctx.record_elapsed(Stage::Release, Duration::from_nanos(i), "ok");
            ctx.finish("ok");
        }
        let retained = buf.snapshot();
        assert!(retained.len() <= cap, "bounded: {} > {cap}", retained.len());
        // The outlier survived the flood …
        assert!(
            retained.iter().any(|t| t.id == TraceId(1000)),
            "slowest release exemplar was evicted"
        );
        // … and so did the most recent trace.
        let newest = TraceId(3 * cap as u64 - 1);
        assert!(retained.iter().any(|t| t.id == newest));
        assert_eq!(buf.find(TraceId(1000)).unwrap().analyst, "slow");
        assert!(buf.find(TraceId(999_999)).is_none());
    }

    #[test]
    fn link_ids_are_unique() {
        let a = next_link_id();
        let b = next_link_id();
        assert_ne!(a, b);
    }
}
