//! Request-lifecycle stages, spans, and the post-mortem journal.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The seven stages a request passes through on its way from socket to
/// socket. Each stage has a dedicated latency histogram in the
/// [`Registry`](crate::Registry) and a slot in the [`Journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wire frame parsed into a typed message (`bf-net`).
    Decode,
    /// Waiting in the analyst's submission queue (`bf-server`).
    Queue,
    /// The scheduler tick's locked phase: draining one epoch
    /// (`bf-server`).
    Schedule,
    /// Grouping the epoch's requests by coalescing key, outside the
    /// scheduler lock (`bf-server`).
    Coalesce,
    /// The charge's WAL group commit, fsync included (`bf-engine` →
    /// `bf-store`).
    WalCommit,
    /// The differentially private mechanism execution (`bf-engine`).
    Release,
    /// Response frames flushed back to the socket (`bf-net`).
    Reply,
}

impl Stage {
    /// Every stage, pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Decode,
        Stage::Queue,
        Stage::Schedule,
        Stage::Coalesce,
        Stage::WalCommit,
        Stage::Release,
        Stage::Reply,
    ];

    /// The stable label used in metric names and exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Queue => "queue",
            Stage::Schedule => "schedule",
            Stage::Coalesce => "coalesce",
            Stage::WalCommit => "wal_commit",
            Stage::Release => "release",
            Stage::Reply => "reply",
        }
    }

    /// The stage's pipeline position (0-based) — also its stable wire
    /// encoding in trace frames.
    pub fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::Queue => 1,
            Stage::Schedule => 2,
            Stage::Coalesce => 3,
            Stage::WalCommit => 4,
            Stage::Release => 5,
            Stage::Reply => 6,
        }
    }

    /// The inverse of [`index`](Self::index): decodes a wire stage byte.
    pub fn from_index(i: usize) -> Option<Stage> {
        Stage::ALL.get(i).copied()
    }
}

/// One journal entry: a stage observation, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (total events ever recorded, including
    /// those the ring has since dropped).
    pub seq: u64,
    /// Which pipeline stage the duration belongs to.
    pub stage: Stage,
    /// The stage's duration in nanoseconds.
    pub duration_ns: u64,
}

#[derive(Debug, Default)]
struct JournalInner {
    buf: VecDeque<Event>,
    seq: u64,
}

/// A bounded ring of the most recent stage [`Event`]s — the post-mortem
/// record of what the pipeline was doing just before a dump.
///
/// Appends **never block**: a push that loses the lock race drops the
/// event and bumps `Journal::dropped` instead. The ring is a debugging
/// aid; making request threads queue behind each other to feed it would
/// turn the observer into a participant.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<JournalInner>,
    capacity: usize,
    enabled: Arc<AtomicBool>,
    dropped: AtomicU64,
}

impl Journal {
    pub(crate) fn with_switch(capacity: usize, enabled: Arc<AtomicBool>) -> Self {
        Self {
            inner: Mutex::new(JournalInner::default()),
            capacity,
            enabled,
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one stage observation, evicting the oldest entry when
    /// full; a no-op when the owning registry is disabled. Under lock
    /// contention the event is counted as dropped rather than waited
    /// for — the stage *histogram* still sees every observation, only
    /// the ring entry is sacrificed.
    pub(crate) fn push(&self, stage: Stage, duration: Duration) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let duration_ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        let Ok(mut g) = self.inner.try_lock() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let seq = g.seq;
        g.seq += 1;
        if g.buf.len() == self.capacity {
            g.buf.pop_front();
        }
        g.buf.push_back(Event {
            seq,
            stage,
            duration_ns,
        });
    }

    /// Events lost to lock contention (never to the ring's eviction).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("journal poisoned")
            .buf
            .iter()
            .copied()
            .collect()
    }
}

/// A lightweight per-request lifecycle timer: created when the request
/// enters the pipeline, advanced at each stage boundary with
/// [`Registry::span_mark`](crate::Registry::span_mark). Inert (no clock
/// reads at all) when the registry is disabled.
#[derive(Debug)]
pub struct Span {
    pub(crate) started: Option<Instant>,
    pub(crate) last: Option<Instant>,
}

impl Span {
    /// An inert span that records nothing.
    pub(crate) fn inert() -> Self {
        Span {
            started: None,
            last: None,
        }
    }

    /// Total time since the span started (`None` when inert).
    pub fn elapsed(&self) -> Option<Duration> {
        self.started.map(|t0| t0.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_is_a_bounded_ring() {
        let j = Journal::with_switch(3, Arc::new(AtomicBool::new(true)));
        for i in 0..5u64 {
            j.push(Stage::Decode, Duration::from_nanos(i));
        }
        let events = j.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(j.inner.lock().unwrap().seq, 5);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::with_switch(3, Arc::new(AtomicBool::new(false)));
        j.push(Stage::Reply, Duration::from_nanos(1));
        assert!(j.events().is_empty());
        assert_eq!(j.inner.lock().unwrap().seq, 0);
    }

    #[test]
    fn stage_labels_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for s in Stage::ALL {
            assert!(seen.insert(s.as_str()));
            assert_eq!(Stage::ALL[s.index()], s);
            assert_eq!(Stage::from_index(s.index()), Some(s));
        }
        assert_eq!(Stage::from_index(Stage::ALL.len()), None);
    }
}
