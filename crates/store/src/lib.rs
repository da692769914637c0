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
//!   fingerprints, and the replicated log's entries and marks.
//! * **[`Store`]** — an append-only WAL of checksummed, length-prefixed
//!   frames with **group commit**: concurrent charges stack their
//!   frames and share one fsync (`store_records_per_fsync`).
//!   Periodic [`Store::compact`] folds the log into a snapshot and
//!   prunes replayed segments.
//! * **Recovery** — [`Store::open`] loads the newest snapshot, replays
//!   later segments, tolerates the torn tail of a crash mid-append
//!   (those records were never acknowledged), and refuses checksummed
//!   damage anywhere it could resurrect spent budget — and a directory
//!   of an earlier on-disk format, by its file names
//!   ([`StoreError::OldFormat`]).
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
    fnv1a, frame_bytes, frame_into, put_str, put_u64, read_frame, scan_frames, FrameBuf, FrameRead,
    Reader, Record, RegistryKind, ScanEnd, FRAME_HEADER_LEN, MAX_RECORD_LEN,
};
pub use state::{CachedReply, PendingLogEntry, SessionState, StoreState, REPLY_CACHE_PER_ANALYST};
pub use store::{LedgerEntry, RecoveryReport, Store, StoreConfig, StoreStats};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, empty scratch directory under the system temp dir — for
/// tests, benches and examples that need a throwaway store. The caller
/// removes it (or leaves it to the OS).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bf-store-{tag}-{}-{n}", std::process::id()));
    // The name is unique among live processes only: a dead one whose pid
    // the OS handed out again may have left it behind, and a store opened
    // on what that run wrote would recover its ledger.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A WAL left at the name `scratch_dir` hands out next — by an
    /// earlier process with this pid — is gone when the name is handed
    /// out. Other tests draw names concurrently, so plant at "next" until
    /// a draw lands on the plant.
    #[test]
    fn scratch_dir_clears_what_a_dead_process_left_at_its_name() {
        for _ in 0..100 {
            let last = scratch_dir("stale");
            let name = last.file_name().unwrap().to_str().unwrap().to_owned();
            let (stem, n) = name.rsplit_once('-').unwrap();
            let planted = last.with_file_name(format!("{stem}-{}", n.parse::<u64>().unwrap() + 1));
            std::fs::remove_dir(&last).unwrap();
            let store = Store::open(&planted).unwrap();
            store
                .commit(&[Record::session_opened("ghost", 1.0)])
                .unwrap();
            drop(store);

            let dir = scratch_dir("stale");
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{dir:?}");
            assert!(Store::open(&dir)
                .unwrap()
                .recovered_state()
                .sessions
                .is_empty());
            std::fs::remove_dir_all(&dir).unwrap();
            if dir == planted {
                return;
            }
            std::fs::remove_dir_all(&planted).unwrap();
        }
        panic!("no draw landed on the planted name");
    }
}
