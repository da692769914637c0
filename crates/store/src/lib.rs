//! # bf-store — a durable ε-budget ledger
//!
//! Blowfish's `(ε, P)` guarantee is an accounting claim: whatever an
//! analyst learns across all their queries costs at most their ledger's
//! total ε. That claim dies with the process unless the ledger does not
//! — a crash that forgets spent budget lets an analyst re-spend it and
//! breaks the guarantee outright. This crate is the persistence layer
//! that makes budgets survive anything short of disk loss, built on
//! `std::fs`/`std::io` alone:
//!
//! * **[`Record`]** — the durable event vocabulary: sessions opened,
//!   charges drawn (ε as exact `f64` bits), registrations with content
//!   fingerprints, deregistrations.
//! * **[`Store`]** — an append-only WAL of checksummed, length-prefixed
//!   frames with **group commit**: concurrent charges stack their
//!   frames and share one fsync ([`StoreStats::amortization`]).
//!   Periodic [`Store::compact`] folds the log into a snapshot and
//!   prunes replayed segments.
//! * **Recovery** — [`Store::open`] loads the newest snapshot, replays
//!   later segments, tolerates the torn tail of a crash mid-append
//!   (those records were never acknowledged), and refuses checksummed
//!   damage anywhere it could resurrect spent budget — a segment whose
//!   frames an older build sealed with byte-wise FNV-1a included
//!   ([`StoreError::OldFrameChecksum`]).
//!
//! The engine integration (in `bf-engine`) is
//! **acknowledge-after-durable**: a charge is committed here *before*
//! the mechanism release executes, so every answer an analyst ever saw
//! is covered by a durable ledger entry — recovered spent is always ≥
//! acknowledged spent, never less.

mod error;
mod record;
mod state;
mod store;

pub use error::StoreError;
pub use record::{
    fnv1a, frame_bytes, frame_into, frame_sum, has_intact_frame_after, put_bytes, put_str, put_u64,
    read_frame, scan_frames, FrameBuf, FrameRead, Reader, Record, RegistryKind, ScanEnd,
    FRAME_HEADER_LEN, MAX_RECORD_LEN,
};
pub use state::{CachedReply, PendingLogEntry, SessionState, StoreState, REPLY_CACHE_PER_ANALYST};
pub use store::{LedgerEntry, RecoveryReport, Store, StoreConfig, StoreStats};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory under the system temp dir — for tests,
/// benches and examples that need a throwaway store. The caller removes
/// it (or leaves it to the OS).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bf-store-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
