//! Error type for the serving engine.

use bf_constraints::error::ConstraintError;
use bf_core::CoreError;
use bf_store::StoreError;
use std::fmt;

/// Errors raised by registration, session management and query serving.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// No policy registered under this name.
    UnknownPolicy(String),
    /// No dataset registered under this name.
    UnknownDataset(String),
    /// No point set registered under this name.
    UnknownPoints(String),
    /// No open session for this analyst.
    UnknownAnalyst(String),
    /// A policy, dataset or point set is already registered under this
    /// name — re-registration is refused because cached sensitivities and
    /// spent budgets refer to the original object.
    DuplicateName(String),
    /// A session is already open for this analyst; its budget cannot be
    /// reset by reopening.
    SessionExists(String),
    /// The analyst's ε-ledger cannot cover the request. The request was
    /// **not** executed.
    BudgetRefused {
        /// The analyst whose ledger refused the spend.
        analyst: String,
        /// ε requested by the query.
        requested: f64,
        /// ε remaining in the ledger.
        remaining: f64,
    },
    /// The request is malformed for its target (e.g. a range outside the
    /// domain, a weight vector of the wrong length, k > n for k-means).
    InvalidRequest(String),
    /// An error from the privacy core.
    Core(CoreError),
    /// A constrained policy failed the Section 8 machinery at
    /// registration (non-sparse constraints, over-budget edge scan).
    Constraint(ConstraintError),
    /// The durable store refused or failed. For charges this means the
    /// request was **not** answered: a charge is acknowledged only after
    /// it is durable, so a store failure refuses the release rather than
    /// risk answering from a ledger a crash could forget.
    Store(StoreError),
    /// The analyst's session was evicted for idleness; its spent ε is
    /// parked (and durable when a store is attached). Reopen the session
    /// with the original total to reattach and continue.
    SessionEvicted(String),
    /// Re-registration after recovery presented an object whose content
    /// fingerprint differs from the durably recorded one — a swapped
    /// object must not inherit the original's spent ledgers and cached
    /// sensitivities.
    RegistrationMismatch {
        /// `"policy"`, `"dataset"` or `"points"`.
        kind: &'static str,
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownPolicy(n) => write!(f, "unknown policy {n:?}"),
            EngineError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            EngineError::UnknownPoints(n) => write!(f, "unknown point set {n:?}"),
            EngineError::UnknownAnalyst(n) => write!(f, "no open session for analyst {n:?}"),
            EngineError::DuplicateName(n) => write!(f, "name {n:?} is already registered"),
            EngineError::SessionExists(n) => write!(f, "analyst {n:?} already has a session"),
            EngineError::BudgetRefused {
                analyst,
                requested,
                remaining,
            } => write!(
                f,
                "budget refused for {analyst:?}: requested ε={requested}, remaining ε={remaining}"
            ),
            EngineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            EngineError::Core(e) => write!(f, "core error: {e}"),
            EngineError::Constraint(e) => write!(f, "constraint error: {e}"),
            EngineError::Store(e) => write!(f, "store error: {e}"),
            EngineError::SessionEvicted(n) => write!(
                f,
                "session for {n:?} was evicted; reopen with the original total to reattach"
            ),
            EngineError::RegistrationMismatch { kind, name } => write!(
                f,
                "{kind} {name:?} does not match the durably recorded fingerprint; \
                 a swapped object cannot inherit the original's ledgers"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Constraint(e) => Some(e),
            EngineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(EngineError::UnknownPolicy("p".into())
            .to_string()
            .contains("\"p\""));
        let e = EngineError::BudgetRefused {
            analyst: "alice".into(),
            requested: 0.5,
            remaining: 0.1,
        };
        assert!(e.to_string().contains("alice"));
        assert!(e.to_string().contains("0.5"));
        let c = EngineError::Core(CoreError::InvalidEpsilon(-1.0));
        assert!(std::error::Error::source(&c).is_some());
        let s = EngineError::Store(StoreError::Poisoned("disk".into()));
        assert!(s.to_string().contains("disk"));
        assert!(std::error::Error::source(&s).is_some());
        let e = EngineError::SessionEvicted("idle-ana".into());
        assert!(e.to_string().contains("idle-ana"));
        let m = EngineError::RegistrationMismatch {
            kind: "dataset",
            name: "ds".into(),
        };
        assert!(m.to_string().contains("fingerprint"));
    }
}
