//! Per-analyst budget sessions.
//!
//! Each analyst opens a session with a total ε; every answered request
//! draws its ε from that ledger under sequential composition
//! (Theorem 4.1), so whatever an analyst learns across all their queries
//! is `(total, P)`-Blowfish private. When a spend would overdraw the
//! ledger the engine refuses **before** running the mechanism — a refusal
//! releases nothing, so it costs nothing.
//!
//! Zero-sensitivity releases (e.g. a histogram over the policy partition,
//! Section 5) are exact and free: the mechanism's output is fully
//! determined by information the policy already declares public, so the
//! session records the query at ε = 0.
//!
//! Sessions have a **lifecycle**: an idle session can be *evicted* (its
//! ledger parked in memory and, when a store is attached, already
//! durable in the WAL), after which in-flight charges against the stale
//! handle refuse instead of landing in a ledger nobody tracks. A parked
//! session *reattaches* on the next `open_session` with the same total —
//! spent ε survives eviction, restarts, everything.

use crate::error::EngineError;
use bf_core::{BudgetAccountant, CoreError, Epsilon};
use bf_obs::Gauge;
use std::time::{Duration, Instant};

/// One analyst's ε-ledger plus serving statistics.
#[derive(Debug, Clone)]
pub struct AnalystSession {
    analyst: String,
    accountant: BudgetAccountant,
    served: u64,
    refused: u64,
    last_active: Instant,
    evicted: bool,
    /// `(spent, remaining)` gauges mirroring the ledger — attached by the
    /// engine, absent on standalone sessions.
    gauges: Option<(Gauge, Gauge)>,
}

impl AnalystSession {
    /// Opens a session with a total budget.
    pub(crate) fn new(analyst: impl Into<String>, total: Epsilon) -> Self {
        Self {
            analyst: analyst.into(),
            accountant: BudgetAccountant::new(total),
            served: 0,
            refused: 0,
            last_active: Instant::now(),
            evicted: false,
            gauges: None,
        }
    }

    /// Rebuilds a session from a parked or durably recovered ledger
    /// summary: the prior spend appears as one aggregate `"recovered"`
    /// ledger entry.
    ///
    /// # Errors
    ///
    /// [`EngineError::Core`] when the summary is malformed (negative or
    /// overspent ledgers cannot have come from a valid history).
    pub(crate) fn restore(
        analyst: impl Into<String>,
        total: Epsilon,
        spent: f64,
        served: u64,
        refused: u64,
    ) -> Result<Self, EngineError> {
        let accountant =
            BudgetAccountant::restore(total, spent, "recovered").map_err(EngineError::Core)?;
        Ok(Self {
            analyst: analyst.into(),
            accountant,
            served,
            refused,
            last_active: Instant::now(),
            evicted: false,
            gauges: None,
        })
    }

    /// Attaches `(spent, remaining)` gauges and publishes the current
    /// ledger into them; subsequent charges keep them in sync.
    pub(crate) fn attach_gauges(&mut self, spent: Gauge, remaining: Gauge) {
        spent.set(self.spent());
        remaining.set(self.remaining());
        self.gauges = Some((spent, remaining));
    }

    /// Re-publishes the ledger into the attached gauges, if any.
    fn publish_gauges(&self) {
        if let Some((spent, remaining)) = &self.gauges {
            spent.set(self.spent());
            remaining.set(self.remaining());
        }
    }

    /// Total budget the session opened with.
    pub fn total(&self) -> Epsilon {
        self.accountant.total()
    }

    /// ε spent so far.
    pub fn spent(&self) -> f64 {
        self.accountant.spent()
    }

    /// ε still available.
    pub fn remaining(&self) -> f64 {
        self.accountant.remaining()
    }

    /// Requests answered (including free zero-sensitivity ones).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests refused for budget.
    pub(crate) fn refused(&self) -> u64 {
        self.refused
    }

    /// The labelled spend history.
    pub fn ledger(&self) -> &[(String, f64)] {
        self.accountant.ledger()
    }

    /// Time since the last charge attempt (or since open/restore).
    pub(crate) fn idle_for(&self) -> Duration {
        self.last_active.elapsed()
    }

    /// Whether this session has been evicted (stale handles refuse).
    pub(crate) fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// Marks the session evicted. The engine's eviction path calls this
    /// under the session mutex **before** parking the ledger summary and
    /// before removing the session from the live registry: any charge
    /// serialized after the mark (including an in-flight serve that
    /// already resolved the `Arc`) refuses, so the parked snapshot taken
    /// in the same critical section can never miss a spend.
    pub(crate) fn mark_evicted(&mut self) {
        self.evicted = true;
    }

    /// Draws `epsilon` from the ledger for a release, or refuses. Pass
    /// `free = true` for zero-sensitivity releases: the query is recorded
    /// in the ledger at ε = 0 and always succeeds. Returns the charge's
    /// position in the ledger — [`AnalystSession::served`] before it —
    /// which the engine derives the release's noise from.
    ///
    /// # Errors
    ///
    /// [`EngineError::BudgetRefused`] when the spend would overdraw; the
    /// ledger is unchanged and the caller must not run the mechanism.
    /// [`EngineError::SessionEvicted`] when the session was evicted
    /// between resolution and charge; reattach and retry.
    pub(crate) fn charge(
        &mut self,
        label: impl Into<String>,
        epsilon: Epsilon,
        free: bool,
    ) -> Result<u64, EngineError> {
        if self.evicted {
            return Err(EngineError::SessionEvicted(self.analyst.clone()));
        }
        self.last_active = Instant::now();
        let position = self.served;
        if free {
            self.accountant.note_free(label);
            self.served += 1;
            self.publish_gauges();
            return Ok(position);
        }
        match self.accountant.spend(label, epsilon) {
            Ok(()) => {
                self.served += 1;
                self.publish_gauges();
                Ok(position)
            }
            Err(CoreError::BudgetExhausted {
                remaining,
                requested,
            }) => {
                self.refused += 1;
                Err(EngineError::BudgetRefused {
                    analyst: self.analyst.clone(),
                    requested,
                    remaining,
                })
            }
            Err(e) => Err(EngineError::Core(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn spends_draw_down_and_refuse() {
        let mut s = AnalystSession::new("alice", eps(1.0));
        s.charge("q1", eps(0.6), false).unwrap();
        assert!((s.remaining() - 0.4).abs() < 1e-12);
        let err = s.charge("q2", eps(0.5), false).unwrap_err();
        assert!(matches!(err, EngineError::BudgetRefused { .. }));
        // Refusal left the ledger untouched.
        assert!((s.remaining() - 0.4).abs() < 1e-12);
        let position = s.charge("q3", eps(0.4), false).unwrap();
        assert_eq!(position, 1, "the refusal took no ledger position");
        assert_eq!(s.served(), 2);
        assert_eq!(s.refused(), 1);
        assert_eq!(s.ledger().len(), 2);
    }

    #[test]
    fn free_queries_never_refuse() {
        let mut s = AnalystSession::new("bob", eps(0.1));
        s.charge("exact", eps(5.0), true).unwrap();
        assert_eq!(s.spent(), 0.0);
        assert_eq!(s.served(), 1);
        assert_eq!(s.ledger(), &[("exact".to_owned(), 0.0)]);
    }

    #[test]
    fn accessors() {
        let s = AnalystSession::new("carol", eps(2.0));
        assert_eq!(s.total().value(), 2.0);
        assert_eq!(s.spent(), 0.0);
        assert!(!s.is_evicted());
        assert!(s.idle_for() < Duration::from_secs(60));
    }

    #[test]
    fn restore_resumes_and_enforces() {
        let mut s = AnalystSession::restore("dave", eps(1.0), 0.75, 3, 1).unwrap();
        assert_eq!(s.served(), 3);
        assert_eq!(s.refused(), 1);
        assert!((s.remaining() - 0.25).abs() < 1e-12);
        assert!(matches!(
            s.charge("big", eps(0.5), false),
            Err(EngineError::BudgetRefused { .. })
        ));
        s.charge("fits", eps(0.25), false).unwrap();
        assert!(AnalystSession::restore("x", eps(1.0), 2.0, 0, 0).is_err());
    }

    #[test]
    fn evicted_sessions_refuse_charges() {
        let mut s = AnalystSession::new("eve", eps(1.0));
        s.mark_evicted();
        assert!(s.is_evicted());
        let err = s.charge("q", eps(0.1), false).unwrap_err();
        assert!(matches!(err, EngineError::SessionEvicted(_)));
        // Even free ones: the parked copy would miss the served count.
        assert!(matches!(
            s.charge("free", eps(0.1), true),
            Err(EngineError::SessionEvicted(_))
        ));
        assert_eq!(s.spent(), 0.0);
        assert_eq!(s.served(), 0);
    }
}
