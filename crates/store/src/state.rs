//! The materialized ledger state a WAL replays into.
//!
//! [`StoreState`] is the store's in-memory mirror of everything durable:
//! it is updated on every append, serialized wholesale into snapshot
//! files at compaction, and rebuilt at startup by loading the newest
//! snapshot and replaying the WAL segments after it. A snapshot body is
//! the state's fields in the field codec ([`crate::codec`]): maps are
//! `BTreeMap`s, written in key order, and floats are carried as bit
//! patterns, so serializing the same state twice produces byte-identical
//! output — the property the recovery tests pin.

use crate::codec;
use crate::frame::fnv1a;
use crate::record::{Record, RegistryKind};
use std::collections::BTreeMap;

/// One analyst's durable ledger summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionState {
    /// Total ε the session opened with.
    pub total: f64,
    /// ε spent by acknowledged charges, in WAL order.
    pub spent: f64,
    /// Charges applied (including free zero-ε ones): the analyst's
    /// ledger position, which the engine derives release noise from.
    pub served: u64,
}

/// One cached answer in the idempotency reply cache: what a retry of
/// the same `(analyst, request_id)` must be told, byte for byte,
/// without touching the ledger again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedReply {
    /// ε the original serve charged, as `f64` bits (audit trail; a
    /// replayed reply charges nothing).
    pub eps_bits: u64,
    /// The encoded answer, returned verbatim.
    pub payload: Vec<u8>,
}

crate::wire_fields! { SessionState { total, spent, served } }
crate::wire_fields! { CachedReply { eps_bits, payload } }

/// Per-analyst bound on the reply cache. Client request ids increase
/// monotonically and a client retries only its most recent unacked
/// requests, so evicting the **smallest** ids keeps exactly the window
/// a live client could still retry. 128 comfortably exceeds any
/// client's in-flight window (the net default is 64).
pub const REPLY_CACHE_PER_ANALYST: usize = 128;

/// A replicated-log entry that is durable but not yet executed: the
/// payload of a [`Record::Replicated`] frame whose [`Record::LogApplied`]
/// mark has not been written. Recovery hands these back to the
/// replication layer (`bf-replica`) so it can finish replay exactly
/// where execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingLogEntry {
    /// The sequencing epoch the entry was stamped under.
    pub epoch: u64,
    /// The analyst the operation belongs to.
    pub analyst: String,
    /// The idempotency key execution will use.
    pub request_id: u64,
    /// The encoded log operation, opaque to the store.
    pub payload: Vec<u8>,
}

crate::wire_fields! { PendingLogEntry { epoch, analyst, request_id, payload } }

/// Everything the store knows durably.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreState {
    /// Ledger summaries by analyst.
    pub sessions: BTreeMap<String, SessionState>,
    /// Registered names and their content fingerprints.
    pub registrations: BTreeMap<(RegistryKind, String), u64>,
    /// The idempotency reply cache: per analyst, the most recent
    /// [`REPLY_CACHE_PER_ANALYST`] request ids and their answers.
    /// Rebuilt by replaying [`Record::Replied`] frames and persisted in
    /// snapshots, so retry safety survives compaction and restart.
    pub replies: BTreeMap<String, BTreeMap<u64, CachedReply>>,
    /// Highest sequencing epoch seen in replicated-log entries.
    pub log_epoch: u64,
    /// Durably-logged high-water mark of the replicated log (the largest
    /// [`Record::Replicated`] index on disk; 0 when unreplicated).
    pub log_index: u64,
    /// Execution high-water mark: every log entry at or below this index
    /// has been applied through the engine.
    pub log_applied: u64,
    /// Logged-but-unapplied entries by index — the replay frontier a
    /// recovering replica must execute to catch its ledger up to its log.
    pub log_pending: BTreeMap<u64, PendingLogEntry>,
}

crate::wire_fields! {
    StoreState {
        sessions,
        registrations,
        replies,
        log_epoch,
        log_index,
        log_applied,
        log_pending,
    }
}

impl StoreState {
    /// Applies one record. Replay calls this in WAL order; the live
    /// store calls it once per appended record.
    pub(crate) fn apply(&mut self, record: &Record) {
        match record {
            Record::SessionOpened {
                analyst,
                total_bits,
            } => {
                // Insert-if-absent: a duplicate open (possible when a
                // crash hit between the durable append and the in-memory
                // insert refusing a duplicate) must not reset a ledger.
                self.sessions
                    .entry(analyst.clone())
                    .or_insert(SessionState {
                        total: f64::from_bits(*total_bits),
                        spent: 0.0,
                        served: 0,
                    });
            }
            Record::Charged {
                analyst, eps_bits, ..
            } => {
                // A charge for an unknown analyst (its SessionOpened
                // lost to corruption) materializes a zero-total session:
                // the spend is remembered, nothing becomes spendable —
                // always the conservative direction.
                let s = self
                    .sessions
                    .entry(analyst.clone())
                    .or_insert(SessionState {
                        total: 0.0,
                        spent: 0.0,
                        served: 0,
                    });
                s.spent += f64::from_bits(*eps_bits);
                s.served += 1;
            }
            Record::Registered {
                kind,
                name,
                fingerprint,
            } => {
                self.registrations
                    .insert((*kind, name.clone()), *fingerprint);
            }
            Record::Replied {
                analyst,
                request_id,
                label: _,
                eps_bits,
                payload,
            } => {
                // The charge half: identical to `Charged` (orphans
                // materialize unspendable sessions, always the
                // conservative direction).
                let s = self
                    .sessions
                    .entry(analyst.clone())
                    .or_insert(SessionState {
                        total: 0.0,
                        spent: 0.0,
                        served: 0,
                    });
                s.spent += f64::from_bits(*eps_bits);
                s.served += 1;
                // The reply half: cache the answer under the analyst's
                // id, evicting the oldest (smallest) ids past the cap —
                // ids a client's retry window can no longer reach.
                let cache = self.replies.entry(analyst.clone()).or_default();
                cache.insert(
                    *request_id,
                    CachedReply {
                        eps_bits: *eps_bits,
                        payload: payload.clone(),
                    },
                );
                while cache.len() > REPLY_CACHE_PER_ANALYST {
                    let oldest = *cache.keys().next().expect("non-empty cache");
                    cache.remove(&oldest);
                }
            }
            Record::Replicated {
                epoch,
                index,
                analyst,
                request_id,
                payload,
            } => {
                self.log_epoch = self.log_epoch.max(*epoch);
                self.log_index = self.log_index.max(*index);
                // Entries already marked applied need no pending slot —
                // replay may revisit a Replicated frame whose LogApplied
                // mark lives in a later segment.
                if *index > self.log_applied {
                    self.log_pending.insert(
                        *index,
                        PendingLogEntry {
                            epoch: *epoch,
                            analyst: analyst.clone(),
                            request_id: *request_id,
                            payload: payload.clone(),
                        },
                    );
                }
            }
            Record::LogApplied { index } => {
                self.log_applied = self.log_applied.max(*index);
                self.log_pending = self.log_pending.split_off(&(self.log_applied + 1));
            }
            Record::LogTruncated { index } => {
                // Truncation never unwinds applied entries; a record that
                // claims to is clamped so replay cannot fork executed
                // state.
                let keep = (*index).max(self.log_applied);
                self.log_pending.split_off(&(keep + 1));
                self.log_index = self.log_index.min(keep).max(self.log_applied);
            }
        }
    }

    /// The cached answer for `(analyst, request_id)`, if the reply
    /// cache still holds it.
    pub fn cached_reply(&self, analyst: &str, request_id: u64) -> Option<&CachedReply> {
        self.replies.get(analyst)?.get(&request_id)
    }

    /// FNV-1a digest of the snapshot body — a cheap equality witness
    /// for "recovering twice yields the identical ledger".
    pub fn digest(&self) -> u64 {
        fnv1a(&codec::encode(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Arb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every section of a generated state — sessions, registrations, the
    /// reply cache and the log — survives a snapshot round trip to the
    /// same bytes and digest (floats are compared by their bits), and
    /// every strict prefix of its body is refused without a panic.
    #[test]
    fn generated_snapshot_bodies_round_trip_and_no_prefix_decodes() {
        let mut rng = StdRng::seed_from_u64(0x5AA7);
        for _ in 0..256 {
            let state = StoreState::arb(&mut rng);
            let body = codec::encode(&state);
            let back: StoreState = codec::decode(&body).expect("a written body decodes");
            assert_eq!(codec::encode(&back), body);
            assert_eq!(back.digest(), state.digest());
            for cut in 0..body.len() {
                assert_eq!(codec::decode::<StoreState>(&body[..cut]), None, "{cut}");
            }
        }
    }

    #[test]
    fn replay_accumulates() {
        let mut s = StoreState::default();
        s.apply(&Record::session_opened("alice", 1.0));
        s.apply(&Record::charged("alice", "q1", 0.25));
        s.apply(&Record::charged("alice", "q2", 0.0));
        s.apply(&Record::Registered {
            kind: RegistryKind::Policy,
            name: "pol".into(),
            fingerprint: 7,
        });
        let a = &s.sessions["alice"];
        assert_eq!(a.total, 1.0);
        assert_eq!(a.spent, 0.25);
        assert_eq!(a.served, 2);
        assert_eq!(s.registrations[&(RegistryKind::Policy, "pol".into())], 7);
    }

    #[test]
    fn replied_charges_once_and_caches_the_answer() {
        let mut s = StoreState::default();
        s.apply(&Record::session_opened("alice", 1.0));
        s.apply(&Record::replied(
            "alice",
            7,
            "range@pol/ds",
            0.25,
            vec![1, 2, 3],
        ));
        let a = &s.sessions["alice"];
        assert_eq!(a.spent, 0.25, "the Replied frame IS the charge");
        assert_eq!(a.served, 1);
        let cached = s.cached_reply("alice", 7).expect("cached");
        assert_eq!(cached.payload, vec![1, 2, 3]);
        assert_eq!(cached.eps_bits, 0.25f64.to_bits());
        assert_eq!(s.cached_reply("alice", 8), None);
        assert_eq!(s.cached_reply("bob", 7), None);
    }

    #[test]
    fn reply_cache_evicts_smallest_ids_past_the_cap() {
        let mut s = StoreState::default();
        s.apply(&Record::session_opened("a", 1e9));
        let n = REPLY_CACHE_PER_ANALYST as u64 + 10;
        for rid in 1..=n {
            s.apply(&Record::replied("a", rid, "q", 0.001, vec![rid as u8]));
        }
        assert_eq!(s.replies["a"].len(), REPLY_CACHE_PER_ANALYST);
        assert_eq!(s.cached_reply("a", 1), None, "oldest evicted");
        assert_eq!(s.cached_reply("a", 10), None);
        assert!(s.cached_reply("a", 11).is_some(), "window retained");
        assert!(s.cached_reply("a", n).is_some());
        // The *charges* all survive eviction — only answers age out.
        assert_eq!(s.sessions["a"].served, n);
        assert!((s.sessions["a"].spent - n as f64 * 0.001).abs() < 1e-9);
    }

    #[test]
    fn replicated_log_tracks_pending_and_applied() {
        let mut s = StoreState::default();
        let entry = |epoch: u64, index: u64| Record::Replicated {
            epoch,
            index,
            analyst: "alice".into(),
            request_id: 100 + index,
            payload: vec![index as u8],
        };
        s.apply(&entry(1, 1));
        s.apply(&entry(1, 2));
        s.apply(&entry(2, 3));
        assert_eq!(s.log_epoch, 2);
        assert_eq!(s.log_index, 3);
        assert_eq!(s.log_applied, 0);
        assert_eq!(s.log_pending.len(), 3);
        s.apply(&Record::LogApplied { index: 2 });
        assert_eq!(s.log_applied, 2);
        assert_eq!(
            s.log_pending.keys().copied().collect::<Vec<_>>(),
            vec![3],
            "applied entries leave the pending frontier"
        );
        // An already-applied entry replayed from an earlier segment does
        // not reopen the frontier.
        s.apply(&entry(1, 2));
        assert!(!s.log_pending.contains_key(&2));
        // A stale LogApplied mark never moves the high-water back.
        s.apply(&Record::LogApplied { index: 1 });
        assert_eq!(s.log_applied, 2);
    }

    #[test]
    fn log_truncation_discards_the_unapplied_tail_only() {
        let mut s = StoreState::default();
        let entry = |epoch: u64, index: u64| Record::Replicated {
            epoch,
            index,
            analyst: "alice".into(),
            request_id: 100 + index,
            payload: vec![index as u8],
        };
        for i in 1..=5 {
            s.apply(&entry(0, i));
        }
        s.apply(&Record::LogApplied { index: 2 });
        s.apply(&Record::LogTruncated { index: 3 });
        assert_eq!(s.log_index, 3, "the tail above 3 is gone");
        assert_eq!(
            s.log_pending.keys().copied().collect::<Vec<_>>(),
            vec![3],
            "only the surviving pending entry remains"
        );
        // Truncation claiming to unwind applied entries is clamped.
        s.apply(&Record::LogTruncated { index: 1 });
        assert_eq!(s.log_applied, 2);
        assert_eq!(s.log_index, 2);
        assert!(s.log_pending.is_empty());
        // Re-replication after truncation overwrites the old position.
        s.apply(&entry(1, 3));
        assert_eq!(s.log_index, 3);
        assert_eq!(s.log_pending[&3].epoch, 1);
    }

    #[test]
    fn duplicate_open_does_not_reset_a_ledger() {
        let mut s = StoreState::default();
        s.apply(&Record::session_opened("alice", 1.0));
        s.apply(&Record::charged("alice", "q", 0.4));
        s.apply(&Record::session_opened("alice", 99.0));
        assert_eq!(s.sessions["alice"].total, 1.0);
        assert_eq!(s.sessions["alice"].spent, 0.4);
    }

    #[test]
    fn orphan_charges_materialize_unspendable_sessions() {
        let mut s = StoreState::default();
        s.apply(&Record::charged("ghost", "q", 0.3));
        assert_eq!(s.sessions["ghost"].total, 0.0);
        assert_eq!(s.sessions["ghost"].spent, 0.3);
    }
}
