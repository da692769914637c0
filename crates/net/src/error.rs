//! The client-side error vocabulary.

use crate::proto::WireError;
use std::fmt;

/// Everything a network call can come back with.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed. The connection is dead; reconnect (the
    /// client's [`crate::Client::reconnect`] reattaches sessions).
    Io(std::io::Error),
    /// The peer broke the protocol: a corrupt frame, an undecodable
    /// message, a reply for an unknown correlation id, or a handshake
    /// out of order. The connection cannot be trusted and is closed.
    Protocol(String),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our version.
        ours: u16,
        /// The peer's version.
        theirs: u16,
    },
    /// The connection died with requests still in flight. Their answers
    /// are unknowable (some may have been served and charged); reconnect
    /// and query the budget before resubmitting.
    ConnectionLost {
        /// Correlation ids that were outstanding.
        in_flight: Vec<u64>,
    },
    /// The server refused the request with a typed error.
    Remote(WireError),
    /// No reply arrived within the client's configured timeout
    /// ([`crate::Client::set_timeout`]). The request may still be
    /// served and charged; retry with the same idempotency key
    /// ([`crate::Client::call_idempotent`]) to replay the durable
    /// answer rather than paying twice.
    TimedOut,
    /// A retry loop gave up: every attempt failed, `last` being the
    /// final failure. Raised by [`crate::Client::call_idempotent`] and
    /// `Client::reconnect_with` once their attempt budget is
    /// spent.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error from the final attempt.
        last: Box<NetError>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, theirs {theirs}")
            }
            NetError::ConnectionLost { in_flight } => write!(
                f,
                "connection lost with {} request(s) in flight",
                in_flight.len()
            ),
            NetError::Remote(e) => write!(f, "server refused: {e}"),
            NetError::TimedOut => write!(f, "timed out waiting for a reply"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Remote(e) => Some(e),
            NetError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = NetError::VersionMismatch { ours: 1, theirs: 2 };
        assert!(e.to_string().contains("ours 1"));
        let e = NetError::Remote(WireError::UnknownPolicy("p".into()));
        assert!(e.to_string().contains("\"p\""));
        assert!(std::error::Error::source(&e).is_some());
        let e = NetError::ConnectionLost {
            in_flight: vec![1, 2],
        };
        assert!(e.to_string().contains("2 request(s)"));
        let e = NetError::RetriesExhausted {
            attempts: 3,
            last: Box::new(NetError::TimedOut),
        };
        assert!(e.to_string().contains("3 attempt(s)"));
        assert!(e.to_string().contains("timed out"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
