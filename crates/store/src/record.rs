//! The WAL record vocabulary.
//!
//! Every durable event is one [`Record`], declared once below with each
//! variant's tag beside its fields; its bytes are derived by the field
//! codec ([`crate::codec`]), as every wire message's are, and framed by
//! [`frame_into`]. ε values and session totals are carried as `f64` bit
//! patterns, so a replayed ledger reproduces the in-memory floating-point
//! state **exactly** — same bits, same sums, same refusal decisions.

use crate::codec::{self, Put};
use crate::frame::{frame_into, read_frame, FrameRead, FRAME_HEADER_LEN};

crate::wire_enum! {
    /// Which registry a [`Record::Registered`] entry belongs to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum RegistryKind {
        /// A named policy.
        0 => Policy,
        /// A named tabular dataset.
        1 => Dataset,
        /// A named point set (k-means input).
        2 => Points,
    }
}

impl RegistryKind {
    /// The human-readable kind name (also used in error messages).
    pub fn as_str(self) -> &'static str {
        match self {
            RegistryKind::Policy => "policy",
            RegistryKind::Dataset => "dataset",
            RegistryKind::Points => "points",
        }
    }
}

impl std::fmt::Display for RegistryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

crate::wire_enum! {
    /// One durable event in the ε-budget ledger.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Record {
        /// An analyst opened a session with a total budget.
        1 => SessionOpened {
            /// The analyst's name.
            analyst: String,
            /// Total ε as `f64` bits.
            total_bits: u64,
        },
        /// A charge was drawn from an analyst's ledger. Free
        /// (zero-sensitivity) releases are logged with `eps_bits` of `0.0`
        /// so the served counter survives recovery too: it is the analyst's
        /// ledger position, which the engine derives release noise from.
        2 => Charged {
            /// The analyst who paid.
            analyst: String,
            /// The ledger label of the release.
            label: String,
            /// ε spent as `f64` bits.
            eps_bits: u64,
        },
        /// A named object was registered. The fingerprint binds the name to
        /// the object's content so a recovered engine can refuse a swapped
        /// policy or dataset inheriting the original's spent ledgers.
        3 => Registered {
            /// Which registry.
            kind: RegistryKind,
            /// The registered name.
            name: String,
            /// Content fingerprint (FNV-1a of the object's identity).
            fingerprint: u64,
        },
        /// A charge **and** its answer in one frame — the idempotency
        /// record behind exactly-once retries. The charge and the cached
        /// reply must be atomic with respect to recovery: two separate
        /// records could be cut apart by a torn tail, leaving a durable
        /// charge whose answer is lost (a retry would then double-charge).
        /// One frame is indivisible, so either the retry finds the cached
        /// answer (charged once, answered identically) or the whole event
        /// never happened (the retry re-executes and charges once).
        6 => Replied {
            /// The analyst who paid.
            analyst: String,
            /// The client-chosen idempotency key, unique per analyst.
            request_id: u64,
            /// The ledger label of the release.
            label: String,
            /// ε spent as `f64` bits (0.0 for a coalesced duplicate whose
            /// charge rode an earlier record).
            eps_bits: u64,
            /// The encoded answer returned to the analyst — the engine's
            /// `Response` in the codec, the bytes a wire `Answer` carries
            /// it as — replayed verbatim on retry.
            payload: Vec<u8>,
        },
        /// A replicated-log entry made durable *before* its acknowledgement
        /// counts toward a quorum (`bf-replica`). The payload is the opaque
        /// encoded log operation (an `OpenSession` or a `Submit`); the store
        /// only tracks its `(epoch, index)` position so recovery knows the
        /// logged high-water mark and which entries still await execution.
        7 => Replicated {
            /// The sequencing epoch the entry was stamped under.
            epoch: u64,
            /// The entry's monotone position in the replicated log (1-based).
            index: u64,
            /// The analyst the operation belongs to.
            analyst: String,
            /// The idempotency key execution will use (`Record::Replied`).
            request_id: u64,
            /// The encoded log operation, replayed verbatim on recovery.
            payload: Vec<u8>,
        },
        /// Execution high-water mark of the replicated log: every entry at
        /// or below `index` has been applied through the engine. Staged
        /// after each applied entry (durable with the store's next commit,
        /// see `Store::stage`) so recovery resumes execution where it
        /// stopped or a few entries short; a crash between an entry's
        /// `Replied` record and its `LogApplied` record is harmless —
        /// re-execution hits the reply cache at zero ε and re-writes the
        /// mark.
        8 => LogApplied {
            /// Highest applied log index.
            index: u64,
        },
        /// The replicated log was truncated back to `index`: every logged
        /// entry **above** it is discarded as if never written. A follower
        /// writes this when the cluster's new leader proves the follower's
        /// un-applied tail belongs to a deposed epoch (log reconciliation
        /// after failover). Truncation never reaches applied entries — the
        /// replication layer halts instead of unwinding executed state.
        9 => LogTruncated {
            /// Highest surviving log index.
            index: u64,
        },
    }
}

impl Record {
    /// The record as one frame, ready to append (see [`frame_into`]).
    pub fn frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 48);
        frame_into(&mut out, |out| self.put(out));
        out
    }

    /// Convenience constructor for a charge record.
    pub fn charged(analyst: &str, label: &str, epsilon: f64) -> Record {
        Record::Charged {
            analyst: analyst.to_owned(),
            label: label.to_owned(),
            eps_bits: epsilon.to_bits(),
        }
    }

    /// Convenience constructor for a session-open record.
    pub fn session_opened(analyst: &str, total: f64) -> Record {
        Record::SessionOpened {
            analyst: analyst.to_owned(),
            total_bits: total.to_bits(),
        }
    }

    /// Convenience constructor for an atomic charge + cached-reply
    /// record.
    pub fn replied(
        analyst: &str,
        request_id: u64,
        label: &str,
        epsilon: f64,
        payload: Vec<u8>,
    ) -> Record {
        Record::Replied {
            analyst: analyst.to_owned(),
            request_id,
            label: label.to_owned(),
            eps_bits: epsilon.to_bits(),
            payload,
        }
    }
}

/// Why a segment scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The segment ended exactly on a frame boundary.
    Clean,
    /// The tail held fewer bytes than the frame promised — the classic
    /// torn write of a crash mid-append.
    TornTail,
    /// A complete frame failed its checksum or would not decode.
    Corrupt,
}

/// Walks the framed records in `bytes`, calling `apply` for each intact
/// record in order, and reports how the scan ended plus the byte offset
/// of the first non-applied frame.
pub fn scan_frames(bytes: &[u8], mut apply: impl FnMut(Record)) -> (ScanEnd, usize) {
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        let end = match read_frame(rest) {
            FrameRead::Incomplete if rest.is_empty() => ScanEnd::Clean,
            FrameRead::Incomplete => ScanEnd::TornTail,
            FrameRead::Corrupt => ScanEnd::Corrupt,
            FrameRead::Complete { payload, consumed } => match codec::decode(payload) {
                Some(record) => {
                    apply(record);
                    pos += consumed;
                    continue;
                }
                None => ScanEnd::Corrupt,
            },
        };
        return (end, pos);
    }
}

/// Whether any byte offset in `bytes[from..]` starts an intact frame
/// (sane length, matching checksum, decodable payload).
///
/// Recovery uses this to tell a *tear* from *bit rot* when a segment's
/// scan stops on a corrupt frame: group commit fsyncs batch N before
/// batch N+1 is written, so an intact frame **after** the damage proves
/// the damaged region was once durable — acknowledged charges would be
/// silently dropped by skipping it, and recovery must refuse instead.
/// (A genuine crash tear has only never-synced garbage after it; a
/// false positive here costs an operator intervention, never ε.)
pub(crate) fn has_intact_frame_after(bytes: &[u8], from: usize) -> bool {
    (from..bytes.len()).any(|pos| {
        matches!(
            read_frame(&bytes[pos..]),
            FrameRead::Complete { payload, .. } if codec::decode::<Record>(payload).is_some()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Arb;
    use crate::frame::{frame_bytes, MAX_RECORD_LEN};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Generated records, every variant among them.
    fn samples() -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(0x5EC0);
        let records: Vec<Record> = (0..32).map(|_| Record::arb(&mut rng)).collect();
        for (name, tag) in Record::TAGS {
            assert!(
                records.iter().any(|r| r.frame()[FRAME_HEADER_LEN] == *tag),
                "{name}"
            );
        }
        records
    }

    #[test]
    fn every_variant_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x5EC1);
        for _ in 0..2_000 {
            let r = Record::arb(&mut rng);
            let payload = codec::encode(&r);
            assert_eq!(r.frame(), frame_bytes(&payload));
            assert_eq!(codec::decode(&payload), Some(r));
        }
    }

    /// One frame of every variant, byte for byte as the hand-written
    /// encoder before the derived one wrote it: the WAL's bytes did not
    /// move when its codec became the wire's.
    #[test]
    fn every_record_frames_to_its_pinned_bytes() {
        let hex = |digits: &str| -> Vec<u8> {
            (0..digits.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
                .collect()
        };
        let pinned = [
            (
                Record::session_opened("alice", 1.5),
                "120000003635ad69a4db17250105000000616c696365000000000000f83f",
            ),
            (
                Record::charged("alice", "range@pol/ds", 0.25),
                "220000000c7f35c67630712a0205000000616c6963650c00000072616e676540706f6c2f64\
                 73000000000000d03f",
            ),
            (
                Record::Registered {
                    kind: RegistryKind::Dataset,
                    name: "ds".into(),
                    fingerprint: 0xDEAD_BEEF,
                },
                "10000000d4ceada600335e670301020000006473efbeadde00000000",
            ),
            (
                Record::replied("alice", 7, "range@pol/ds", 0.25, vec![3, 0, 0, 0, 1, 2, 3]),
                "350000000a13c3bf2eb5bf100605000000616c69636507000000000000000c00000072616e\
                 676540706f6c2f6473000000000000d03f0700000003000000010203",
            ),
            (
                Record::Replicated {
                    epoch: 2,
                    index: 19,
                    analyst: "alice".into(),
                    request_id: 7,
                    payload: vec![2, 9, 9, 9],
                },
                "2a00000054b27d4dc85e1dec070200000000000000130000000000000005000000616c6963\
                 6507000000000000000400000002090909",
            ),
            (
                Record::LogApplied { index: 19 },
                "0900000060c4596fff2813bb081300000000000000",
            ),
            (
                Record::LogTruncated { index: 21 },
                "090000001175c291001f9258091500000000000000",
            ),
        ];
        assert_eq!(pinned.len(), Record::TAGS.len());
        for (record, frame) in pinned {
            assert_eq!(record.frame(), hex(frame), "{record:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = codec::encode(&Record::charged("a", "l", 0.1));
        payload.push(0);
        assert_eq!(codec::decode::<Record>(&payload), None);
        assert_eq!(codec::decode::<Record>(&[]), None);
        assert_eq!(codec::decode::<Record>(&[99]), None);
    }

    #[test]
    fn scan_applies_in_order_and_stops_clean() {
        let mut bytes = Vec::new();
        for r in samples() {
            bytes.extend_from_slice(&r.frame());
        }
        let mut seen = Vec::new();
        let (end, pos) = scan_frames(&bytes, |r| seen.push(r));
        assert_eq!(end, ScanEnd::Clean);
        assert_eq!(pos, bytes.len());
        assert_eq!(seen, samples());
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let mut bytes = Vec::new();
        for r in samples() {
            bytes.extend_from_slice(&r.frame());
        }
        let boundaries: Vec<usize> = {
            let mut b = vec![0];
            let mut seen = 0;
            scan_frames(&bytes, |_| seen += 1);
            assert_eq!(seen, samples().len());
            let mut pos = 0;
            while pos < bytes.len() {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += FRAME_HEADER_LEN + len;
                b.push(pos);
            }
            b
        };
        for cut in 0..bytes.len() {
            let mut applied = 0;
            let (end, stop) = scan_frames(&bytes[..cut], |_| applied += 1);
            // Exactly the records wholly before the cut are applied …
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(applied, expected, "cut at {cut}");
            // … and the scan stops at the last boundary, never clean
            // unless the cut IS a boundary.
            assert_eq!(stop, boundaries[expected]);
            if boundaries.contains(&cut) {
                assert_eq!(end, ScanEnd::Clean);
            } else {
                assert_eq!(end, ScanEnd::TornTail);
            }
        }
    }

    #[test]
    fn corrupt_frames_stop_the_scan() {
        let mut bytes = Vec::new();
        for r in samples() {
            bytes.extend_from_slice(&r.frame());
        }
        // Flip one payload byte in the second record.
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_start = FRAME_HEADER_LEN + first_len;
        let mut corrupt = bytes.clone();
        corrupt[second_start + FRAME_HEADER_LEN + 2] ^= 0xFF;
        let mut applied = 0;
        let (end, stop) = scan_frames(&corrupt, |_| applied += 1);
        assert_eq!(end, ScanEnd::Corrupt);
        assert_eq!(applied, 1, "only the intact prefix applies");
        assert_eq!(stop, second_start);
        // An absurd length is corrupt, not an allocation attempt.
        let mut huge = bytes;
        huge[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        let (end, _) = scan_frames(&huge, |_| {});
        assert_eq!(end, ScanEnd::Corrupt);
    }
}
