//! Request-lifecycle stages and the one clock that times them.

use crate::metrics::Histogram;
use crate::trace::TraceContext;
use std::time::Instant;

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

/// The one stage clock. Started by [`Registry::clock`] over the traces
/// its region will be recorded into, it reads the time once at the
/// start and once per [`lap`](Clock::lap) — and not at all when the
/// registry is disabled and none of those traces is active.
///
/// [`Registry::clock`]: crate::Registry::clock
#[derive(Debug)]
pub struct Clock<'r> {
    pub(crate) stages: &'r [Histogram],
    pub(crate) last: Option<Instant>,
}

impl Clock<'_> {
    /// Ends the current lap at a stage boundary: one clock read, one
    /// `span_stage_ns{stage}` sample, and the next lap starts at the
    /// same instant. The returned [`Lap`] is recorded into traces with
    /// [`Lap::record`], now or once the trace exists.
    #[inline]
    pub fn lap(&mut self, stage: Stage) -> Lap {
        let at = self.last.map(|start| {
            let end = Instant::now();
            self.stages[stage.index()].record_duration(end - start);
            self.last = Some(end);
            (start, end)
        });
        Lap {
            stage,
            at,
            link: None,
        }
    }
}

/// One stopped stage measurement: the interval a [`Clock`] lapped (none
/// when the clock was inert), and the shared-release link its trace
/// spans carry.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub(crate) stage: Stage,
    pub(crate) at: Option<(Instant, Instant)>,
    pub(crate) link: Option<u64>,
}

impl Lap {
    /// This lap with a shared-release [`link`](crate::TraceSpan::link)
    /// id on the spans it records.
    pub fn linked(self, link: Option<u64>) -> Lap {
        Lap { link, ..self }
    }

    /// Records the lap as one [`TraceSpan`](crate::TraceSpan) into
    /// every active trace in `traces` — the interval the stage's
    /// histogram sample measured, so the two cannot disagree.
    pub fn record<'a>(&self, traces: impl IntoIterator<Item = &'a TraceContext>, outcome: &str) {
        for t in traces {
            t.push(self, outcome);
        }
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
