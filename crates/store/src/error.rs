//! Typed errors for the persistence layer.
//!
//! Everything is `Clone + PartialEq` (I/O errors are captured as
//! strings) so store failures can ride inside `EngineError` and come
//! back through ticket futures unchanged.

use std::fmt;

/// Errors raised by opening, writing or recovering a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed. `op` names what the store was doing
    /// (e.g. `"append"`, `"fsync"`, `"rotate"`).
    Io {
        /// The operation that failed.
        op: String,
        /// The underlying error, stringified.
        message: String,
    },
    /// A snapshot file exists but fails its checksum or cannot be
    /// parsed. Recovery refuses to guess: the operator must remove or
    /// restore the snapshot (the WAL segments it compacted are gone, so
    /// silently starting empty would resurrect spent budget).
    CorruptSnapshot {
        /// Path of the offending snapshot.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A WAL segment holds frames sealed with the previous frame
    /// checksum (byte-wise FNV-1a; this build seals with
    /// `frame_sum`). Segments carry no version, so to this
    /// build's scanner such a segment looks damaged from its first
    /// frame; skipping it as a torn tail would open the directory with
    /// every ledger it recorded reset to unspent. Let the build that
    /// wrote the directory compact it — snapshots are sealed the same
    /// way by both builds — then open it with this one.
    OldFrameChecksum {
        /// Path of the segment.
        path: String,
        /// Byte offset of the first frame sealed the old way.
        offset: u64,
    },
    /// A previous write or fsync failed; the log refuses further
    /// appends so an un-durable suffix can never be acknowledged.
    Poisoned(String),
}

impl StoreError {
    pub(crate) fn io(op: &str, e: &std::io::Error) -> Self {
        StoreError::Io {
            op: op.to_owned(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, message } => write!(f, "store i/o error during {op}: {message}"),
            StoreError::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {path}: {detail}")
            }
            StoreError::OldFrameChecksum { path, offset } => write!(
                f,
                "WAL segment {path} was written with the previous frame checksum \
                 (byte-wise FNV-1a, first such frame at byte {offset}): compact the \
                 directory with the build that wrote it before opening it with this one"
            ),
            StoreError::Poisoned(msg) => {
                write!(f, "store poisoned by earlier write failure: {msg}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_operation() {
        let e = StoreError::io("fsync", &std::io::Error::other("disk gone"));
        assert!(e.to_string().contains("fsync"));
        assert!(e.to_string().contains("disk gone"));
        let c = StoreError::CorruptSnapshot {
            path: "snap".into(),
            detail: "bad checksum".into(),
        };
        assert!(c.to_string().contains("snap"));
        assert!(StoreError::Poisoned("x".into()).to_string().contains("x"));
    }
}
