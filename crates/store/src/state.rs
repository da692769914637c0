//! The materialized ledger state a WAL replays into.
//!
//! [`StoreState`] is the store's in-memory mirror of everything durable:
//! it is updated on every append, serialized wholesale into snapshot
//! files at compaction, and rebuilt at startup by loading the newest
//! snapshot and replaying the WAL segments after it. Maps are `BTreeMap`s
//! and floats are carried as bit patterns, so serializing the same state
//! twice produces byte-identical output — the property the recovery
//! tests pin.

use crate::record::{fnv1a, Record, RegistryKind};
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

    /// Deterministic serialization (snapshot body).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        use crate::record::{put_str, put_u64};
        let mut out = Vec::new();
        out.extend_from_slice(&(self.sessions.len() as u32).to_le_bytes());
        for (analyst, s) in &self.sessions {
            put_str(&mut out, analyst);
            put_u64(&mut out, s.total.to_bits());
            put_u64(&mut out, s.spent.to_bits());
            put_u64(&mut out, s.served);
        }
        out.extend_from_slice(&(self.registrations.len() as u32).to_le_bytes());
        for ((kind, name), fp) in &self.registrations {
            out.push(kind.tag());
            put_str(&mut out, name);
            put_u64(&mut out, *fp);
        }
        out.extend_from_slice(&(self.replies.len() as u32).to_le_bytes());
        for (analyst, cache) in &self.replies {
            put_str(&mut out, analyst);
            out.extend_from_slice(&(cache.len() as u32).to_le_bytes());
            for (rid, reply) in cache {
                put_u64(&mut out, *rid);
                put_u64(&mut out, reply.eps_bits);
                crate::record::put_bytes(&mut out, &reply.payload);
            }
        }
        put_u64(&mut out, self.log_epoch);
        put_u64(&mut out, self.log_index);
        put_u64(&mut out, self.log_applied);
        out.extend_from_slice(&(self.log_pending.len() as u32).to_le_bytes());
        for (index, e) in &self.log_pending {
            put_u64(&mut out, *index);
            put_u64(&mut out, e.epoch);
            put_str(&mut out, &e.analyst);
            put_u64(&mut out, e.request_id);
            crate::record::put_bytes(&mut out, &e.payload);
        }
        out
    }

    /// Parses [`StoreState::to_bytes`] output. `None` on any structural
    /// damage (the snapshot loader reports that as a corrupt snapshot).
    pub(crate) fn from_bytes(bytes: &[u8]) -> Option<StoreState> {
        let mut r = crate::record::Reader::new(bytes);
        let mut state = StoreState::default();
        let n_sessions = r.u32()?;
        for _ in 0..n_sessions {
            let analyst = r.str()?;
            let total = f64::from_bits(r.u64()?);
            let spent = f64::from_bits(r.u64()?);
            let served = r.u64()?;
            state.sessions.insert(
                analyst,
                SessionState {
                    total,
                    spent,
                    served,
                },
            );
        }
        let n_regs = r.u32()?;
        for _ in 0..n_regs {
            let kind = RegistryKind::from_tag(r.u8()?)?;
            let name = r.str()?;
            let fp = r.u64()?;
            state.registrations.insert((kind, name), fp);
        }
        let n_analysts = r.u32()?;
        for _ in 0..n_analysts {
            let analyst = r.str()?;
            let n_replies = r.u32()?;
            let mut cache = BTreeMap::new();
            for _ in 0..n_replies {
                let rid = r.u64()?;
                let eps_bits = r.u64()?;
                let payload = r.bytes()?;
                cache.insert(rid, CachedReply { eps_bits, payload });
            }
            state.replies.insert(analyst, cache);
        }
        state.log_epoch = r.u64()?;
        state.log_index = r.u64()?;
        state.log_applied = r.u64()?;
        let n_pending = r.u32()?;
        for _ in 0..n_pending {
            let index = r.u64()?;
            let epoch = r.u64()?;
            let analyst = r.str()?;
            let request_id = r.u64()?;
            let payload = r.bytes()?;
            state.log_pending.insert(
                index,
                PendingLogEntry {
                    epoch,
                    analyst,
                    request_id,
                    payload,
                },
            );
        }
        r.done().then_some(state)
    }

    /// FNV-1a digest of the serialized state — a cheap equality witness
    /// for "recovering twice yields the identical ledger".
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_accumulates_and_roundtrips() {
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
        let bytes = s.to_bytes();
        assert_eq!(StoreState::from_bytes(&bytes), Some(s.clone()));
        assert_eq!(s.digest(), StoreState::from_bytes(&bytes).unwrap().digest());
        assert_eq!(StoreState::from_bytes(&bytes[..bytes.len() - 1]), None);
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
        // Roundtrip carries the cache.
        let bytes = s.to_bytes();
        let loaded = StoreState::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, s);
        assert_eq!(StoreState::from_bytes(&bytes[..bytes.len() - 1]), None);
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
        // Roundtrip carries the whole log section.
        let bytes = s.to_bytes();
        assert_eq!(StoreState::from_bytes(&bytes), Some(s.clone()));
        assert_eq!(StoreState::from_bytes(&bytes[..bytes.len() - 1]), None);
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
        // The truncated shape survives a snapshot round-trip.
        let bytes = s.to_bytes();
        assert_eq!(StoreState::from_bytes(&bytes), Some(s));
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
