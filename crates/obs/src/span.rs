//! Request-lifecycle stages and spans.

use std::time::{Duration, Instant};

/// The seven stages a request passes through on its way from socket to
/// socket. Each stage has a dedicated latency histogram in the
/// [`Registry`](crate::Registry).
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
