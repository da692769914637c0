//! The WAL record vocabulary and its wire encoding.
//!
//! Every durable event is one [`Record`]. On disk a record is framed as
//!
//! ```text
//! ┌───────────┬───────────────┬──────────────┐
//! │ len: u32  │ checksum: u64 │ payload      │   all little-endian
//! └───────────┴───────────────┴──────────────┘
//! ```
//!
//! where `checksum` is [`frame_sum`] — XXH64 — of the payload bytes. The
//! frame is what makes recovery safe against torn writes: a crash
//! mid-append leaves either a short header, a short payload, or a
//! payload whose checksum does not match — all three are detected and
//! replay stops *before* applying the damaged suffix, so a partially
//! written charge is never half-applied.
//!
//! ε values and session totals are carried as `f64` bit patterns, so a
//! replayed ledger reproduces the in-memory floating-point state
//! **exactly** — same bits, same sums, same refusal decisions.

/// Maximum payload size the decoder will believe. Real records are tens
/// of bytes; a length beyond this is a corrupt frame, not a huge record,
/// and replay must stop rather than attempt a gigabyte allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Bytes of framing before the payload (`u32` length + `u64` checksum).
pub const FRAME_HEADER_LEN: usize = 4 + 8;

/// Which registry a [`Record::Registered`] entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegistryKind {
    /// A named policy.
    Policy,
    /// A named tabular dataset.
    Dataset,
    /// A named point set (k-means input).
    Points,
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

    pub(crate) fn tag(self) -> u8 {
        match self {
            RegistryKind::Policy => 0,
            RegistryKind::Dataset => 1,
            RegistryKind::Points => 2,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(RegistryKind::Policy),
            1 => Some(RegistryKind::Dataset),
            2 => Some(RegistryKind::Points),
            _ => None,
        }
    }
}

impl std::fmt::Display for RegistryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One durable event in the ε-budget ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An analyst opened a session with a total budget.
    SessionOpened {
        /// The analyst's name.
        analyst: String,
        /// Total ε as `f64` bits.
        total_bits: u64,
    },
    /// A charge was drawn from an analyst's ledger. Free
    /// (zero-sensitivity) releases are logged with `eps_bits` of `0.0`
    /// so the served counter survives recovery too: it is the analyst's
    /// ledger position, which the engine derives release noise from.
    Charged {
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
    Registered {
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
    Replied {
        /// The analyst who paid.
        analyst: String,
        /// The client-chosen idempotency key, unique per analyst.
        request_id: u64,
        /// The ledger label of the release.
        label: String,
        /// ε spent as `f64` bits (0.0 for a coalesced duplicate whose
        /// charge rode an earlier record).
        eps_bits: u64,
        /// The encoded answer bytes returned to the analyst (the
        /// engine's `Response` wire encoding), replayed verbatim on
        /// retry.
        payload: Vec<u8>,
    },
    /// A replicated-log entry made durable *before* its acknowledgement
    /// counts toward a quorum (`bf-replica`). The payload is the opaque
    /// encoded log operation (an `OpenSession` or a `Submit`); the store
    /// only tracks its `(epoch, index)` position so recovery knows the
    /// logged high-water mark and which entries still await execution.
    Replicated {
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
    LogApplied {
        /// Highest applied log index.
        index: u64,
    },
    /// The replicated log was truncated back to `index`: every logged
    /// entry **above** it is discarded as if never written. A follower
    /// writes this when the cluster's new leader proves the follower's
    /// un-applied tail belongs to a deposed epoch (log reconciliation
    /// after failover). Truncation never reaches applied entries — the
    /// replication layer halts instead of unwinding executed state.
    LogTruncated {
        /// Highest surviving log index.
        index: u64,
    },
}

const TAG_SESSION_OPENED: u8 = 1;
const TAG_CHARGED: u8 = 2;
const TAG_REGISTERED: u8 = 3;
const TAG_REPLIED: u8 = 6;
const TAG_REPLICATED: u8 = 7;
const TAG_LOG_APPLIED: u8 = 8;
const TAG_LOG_TRUNCATED: u8 = 9;

/// FNV-1a over a byte slice — the stable hash that keys the release
/// RNG, picks shards and replica groups, fingerprints ledger labels and
/// seals snapshots. It sealed frames too until `frame_sum` replaced it
/// there.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

/// The frame checksum: XXH64 (seed 0) of the payload, so it can be
/// checked against any other implementation of that hash. A 32-byte
/// stripe feeds four independent 8-byte lanes per step — the four
/// multiplies overlap, where byte-wise [`fnv1a`] waits for one multiply
/// per byte — and the lanes merge in a fixed order with the payload's
/// length, so moving a word between lanes or between stripes, or
/// growing or shrinking the payload by zero bytes, changes the sum.
pub(crate) fn frame_sum(payload: &[u8]) -> u64 {
    let (stripes, rest) = payload.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        XXH_PRIME_5
    } else {
        let mut lanes = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            0u64.wrapping_sub(XXH_PRIME_1),
        ];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = xxh_round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [a, b, c, d] = lanes;
        let merged = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(merged, |h, &lane| {
            (h ^ xxh_round(0, lane))
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4)
        })
    };
    h = h.wrapping_add(payload.len() as u64);
    let (words, mut tail) = rest.as_chunks::<8>();
    for word in words {
        h = (h ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        tail = rest;
    }
    for &byte in tail {
        h = (h ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME_3);
    h ^ (h >> 32)
}

/// Appends one frame to `out` — `len: u32 | frame_sum(payload): u64 |
/// payload`, all little-endian — with the payload written in place by
/// `encode`: the header is reserved first and its length and checksum
/// filled in afterwards, so the payload's bytes are never copied. This is
/// the record-framing discipline shared by the WAL and the network wire
/// protocol (`bf-net`): every length-prefixed, checksummed byte stream in
/// the workspace parses — and fails — the same way. A peer that still
/// seals frames with byte-wise [`fnv1a`] fails at its first frame.
///
/// # Panics
///
/// When `encode` leaves `out` shorter than it found it, or writes a
/// payload of 4 GiB or more.
pub fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode(out);
    let (head, payload) = out[header..].split_at_mut(FRAME_HEADER_LEN);
    let len = u32::try_from(payload.len()).expect("a frame payload is under 4 GiB");
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&frame_sum(payload).to_le_bytes());
}

/// [`frame_into`] for a payload already encoded elsewhere, as a fresh
/// `Vec`.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame_into(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// How one attempt to take a frame off the front of a byte buffer went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// An intact frame: its payload, plus the total number of bytes the
    /// frame occupied (consume `consumed` bytes before reading again).
    Complete {
        /// The checksum-verified payload.
        payload: &'a [u8],
        /// Frame header + payload length.
        consumed: usize,
    },
    /// Not enough bytes yet — read more and retry.
    Incomplete,
    /// The header or checksum is wrong; the stream cannot be trusted
    /// past this point.
    Corrupt,
}

/// Attempts to read one [`frame_into`]-framed payload from the front of
/// `buf` without consuming it. A length beyond [`MAX_RECORD_LEN`] or a
/// checksum mismatch is [`FrameRead::Corrupt`] — a framing error is
/// never reported as "wait for more bytes", so a corrupted stream fails
/// fast instead of hanging a reader forever.
pub fn read_frame(buf: &[u8]) -> FrameRead<'_> {
    let Some((len, rest)) = buf.split_first_chunk::<4>() else {
        return FrameRead::Incomplete;
    };
    let len = u32::from_le_bytes(*len);
    let Some((checksum, rest)) = rest.split_first_chunk::<8>() else {
        return FrameRead::Incomplete;
    };
    if len > MAX_RECORD_LEN {
        return FrameRead::Corrupt;
    }
    let Some(payload) = rest.get(..len as usize) else {
        return FrameRead::Incomplete;
    };
    if frame_sum(payload) != u64::from_le_bytes(*checksum) {
        return FrameRead::Corrupt;
    }
    FrameRead::Complete {
        payload,
        consumed: FRAME_HEADER_LEN + payload.len(),
    }
}

/// Smallest room [`FrameBuf::fill`] offers one `read`.
const FILL_CHUNK: usize = 16 * 1024;

/// The receiving end of a framed byte stream: reads land directly in the
/// buffer the frames are parsed from, and verified payloads are handed
/// out by a cursor, so a received byte is written once (by the `read`)
/// and moved only when a partial frame is shifted to the front before the
/// next `read`.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Initialised throughout; `buf[head..tail]` is what was read and not
    /// yet handed out.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameBuf {
    /// An empty buffer; it allocates on the first [`FrameBuf::fill`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets everything buffered (a new connection starts clean).
    pub fn clear(&mut self) {
        (self.head, self.tail) = (0, 0);
    }

    /// Takes the next frame off the front, exactly as [`read_frame`]
    /// reports it. [`FrameRead::Corrupt`] is final: the cursor stays on
    /// the damaged frame, so no frame behind it is ever handed out.
    pub fn next_frame(&mut self) -> FrameRead<'_> {
        let read = read_frame(&self.buf[self.head..self.tail]);
        if let FrameRead::Complete { consumed, .. } = read {
            self.head += consumed;
        }
        read
    }

    /// One `read` from `stream` into the buffer's free space, returning
    /// its count (`Ok(0)` is end of stream). The space offered is the
    /// rest of the frame at the cursor once its header says how long it
    /// is, and never less than 16 KiB — a header's claim is honoured only
    /// up to [`MAX_RECORD_LEN`].
    ///
    /// # Errors
    ///
    /// Whatever the `read` returns, time-outs included; nothing buffered
    /// is lost.
    pub fn fill(&mut self, stream: &mut impl std::io::Read) -> std::io::Result<usize> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        let frame = match self.buf[..self.tail].first_chunk::<4>() {
            Some(len) => FRAME_HEADER_LEN + u32::from_le_bytes(*len).min(MAX_RECORD_LEN) as usize,
            None => 0,
        };
        let room = frame.saturating_sub(self.tail).max(FILL_CHUNK);
        if self.buf.len() < self.tail + room {
            self.buf.resize(self.tail + room, 0);
        }
        let n = stream.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

/// Appends a length-prefixed UTF-8 string to a wire payload (the
/// encoding [`Reader::str`] reverses).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a little-endian `u64` to a wire payload.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte slice to a wire payload (the encoding
/// [`Reader::bytes`] reverses).
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Cursor over the little-endian wire encoding, shared by record,
/// snapshot and network-message decoding. Every read is bounds-checked;
/// `None` means the bytes are not what the writer produced.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a [`put_str`]-encoded string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// Reads a [`put_bytes`]-encoded byte slice.
    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        Some(self.take(len)?.to_vec())
    }

    /// Takes the next `len` bytes as they are — `None`, and nothing
    /// consumed, when fewer remain, so a decoder that sizes a `Vec` from
    /// the slice it got can never allocate more than the bytes present.
    pub fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(bytes)
    }

    /// Whether the cursor consumed the buffer exactly — decoders require
    /// this so trailing garbage is rejected, not ignored.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl Record {
    /// The payload bytes (no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        self.encode_into(&mut out);
        out
    }

    /// Appends the payload bytes (no frame) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::SessionOpened {
                analyst,
                total_bits,
            } => {
                out.push(TAG_SESSION_OPENED);
                put_str(out, analyst);
                put_u64(out, *total_bits);
            }
            Record::Charged {
                analyst,
                label,
                eps_bits,
            } => {
                out.push(TAG_CHARGED);
                put_str(out, analyst);
                put_str(out, label);
                put_u64(out, *eps_bits);
            }
            Record::Registered {
                kind,
                name,
                fingerprint,
            } => {
                out.push(TAG_REGISTERED);
                out.push(kind.tag());
                put_str(out, name);
                put_u64(out, *fingerprint);
            }
            Record::Replied {
                analyst,
                request_id,
                label,
                eps_bits,
                payload,
            } => {
                out.push(TAG_REPLIED);
                put_str(out, analyst);
                put_u64(out, *request_id);
                put_str(out, label);
                put_u64(out, *eps_bits);
                put_bytes(out, payload);
            }
            Record::Replicated {
                epoch,
                index,
                analyst,
                request_id,
                payload,
            } => {
                out.push(TAG_REPLICATED);
                put_u64(out, *epoch);
                put_u64(out, *index);
                put_str(out, analyst);
                put_u64(out, *request_id);
                put_bytes(out, payload);
            }
            Record::LogApplied { index } => {
                out.push(TAG_LOG_APPLIED);
                put_u64(out, *index);
            }
            Record::LogTruncated { index } => {
                out.push(TAG_LOG_TRUNCATED);
                put_u64(out, *index);
            }
        }
    }

    /// Decodes a payload produced by [`Record::encode`]. `None` when the
    /// bytes are not a well-formed record (recovery treats this like a
    /// checksum failure: stop, do not guess).
    pub fn decode(payload: &[u8]) -> Option<Record> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_SESSION_OPENED => Record::SessionOpened {
                analyst: r.str()?,
                total_bits: r.u64()?,
            },
            TAG_CHARGED => Record::Charged {
                analyst: r.str()?,
                label: r.str()?,
                eps_bits: r.u64()?,
            },
            TAG_REGISTERED => Record::Registered {
                kind: RegistryKind::from_tag(r.u8()?)?,
                name: r.str()?,
                fingerprint: r.u64()?,
            },
            TAG_REPLIED => Record::Replied {
                analyst: r.str()?,
                request_id: r.u64()?,
                label: r.str()?,
                eps_bits: r.u64()?,
                payload: r.bytes()?,
            },
            TAG_REPLICATED => Record::Replicated {
                epoch: r.u64()?,
                index: r.u64()?,
                analyst: r.str()?,
                request_id: r.u64()?,
                payload: r.bytes()?,
            },
            TAG_LOG_APPLIED => Record::LogApplied { index: r.u64()? },
            TAG_LOG_TRUNCATED => Record::LogTruncated { index: r.u64()? },
            _ => return None,
        };
        r.done().then_some(record)
    }

    /// The record as one frame, ready to append (see [`frame_into`]).
    pub fn frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 48);
        frame_into(&mut out, |out| self.encode_into(out));
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
            FrameRead::Complete { payload, consumed } => match Record::decode(payload) {
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
            FrameRead::Complete { payload, .. } if Record::decode(payload).is_some()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::session_opened("alice", 1.5),
            Record::charged("alice", "range@pol/ds", 0.25),
            Record::Registered {
                kind: RegistryKind::Dataset,
                name: "ds".into(),
                fingerprint: 0xDEAD_BEEF,
            },
            Record::replied("alice", 7, "range@pol/ds", 0.25, vec![3, 0, 0, 0, 1, 2, 3]),
            Record::Replicated {
                epoch: 2,
                index: 19,
                analyst: "alice".into(),
                request_id: 7,
                payload: vec![2, 9, 9, 9],
            },
            Record::LogApplied { index: 19 },
            Record::LogTruncated { index: 21 },
        ]
    }

    #[test]
    fn read_frame_roundtrips_and_detects_damage() {
        let payload = b"arbitrary net payload";
        let framed = frame_bytes(payload);
        match read_frame(&framed) {
            FrameRead::Complete {
                payload: p,
                consumed,
            } => {
                assert_eq!(p, payload);
                assert_eq!(consumed, framed.len());
            }
            other => panic!("expected complete frame, got {other:?}"),
        }
        // Every strict prefix is incomplete, never corrupt: a partial
        // TCP read must wait, not kill the connection.
        for cut in 0..framed.len() {
            assert_eq!(read_frame(&framed[..cut]), FrameRead::Incomplete, "{cut}");
        }
        // A flipped payload byte is corrupt once the frame is whole.
        let mut bad = framed.clone();
        bad[FRAME_HEADER_LEN + 3] ^= 0x40;
        assert_eq!(read_frame(&bad), FrameRead::Corrupt);
        // An absurd length field is corrupt, not an allocation attempt.
        let mut huge = framed;
        huge[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        assert_eq!(read_frame(&huge), FrameRead::Corrupt);
        // Record::frame, frame_bytes and frame_into agree bit for bit,
        // wherever in a buffer the frame lands.
        let r = Record::charged("a", "l", 0.5);
        assert_eq!(r.frame(), frame_bytes(&r.encode()));
        for payload in [&b""[..], b"x", &[7u8; 31], &[9u8; 32], &[0u8; 40_000]] {
            let mut out = b"earlier frames".to_vec();
            frame_into(&mut out, |out| out.extend_from_slice(payload));
            assert_eq!(out[..14], b"earlier frames"[..]);
            assert_eq!(out[14..], frame_bytes(payload)[..], "{}", payload.len());
        }
    }

    /// `frame_sum` is XXH64 with seed 0: the reference implementation's
    /// published answers, one per code path (empty, bytes only, a 4-byte
    /// step, 8-byte steps, and a 32-byte stripe with every kind of tail).
    #[test]
    fn frame_sum_is_xxh64() {
        assert_eq!(frame_sum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(frame_sum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(frame_sum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            frame_sum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// A byte-distinct payload for the checksum tests (no two 8-byte
    /// words, and no two 32-byte blocks, of it are equal).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Where the lanes actually run: every single-bit flip of a framed
    /// 32 KiB vector answer is caught. (The sweep in `bf-net`'s `proto`
    /// tests flips bits of messages too short to fill one stripe.) All
    /// 262 560 flips when optimised, as CI's release-mode step runs it;
    /// an unoptimised build checks the header, both ends and every 61st
    /// byte between, which still visits every lane and byte position.
    #[test]
    fn every_bit_flip_of_a_32k_frame_is_caught() {
        // The shape of a framed `Answer { Histogram }` of 4 096 cells:
        // tag, id, response tag, count, the cells, a trace-id option.
        let mut payload = vec![67u8];
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&4096u64.to_le_bytes());
        payload.extend(noise(4096 * 8));
        payload.push(0);
        let mut framed = frame_bytes(&payload);
        assert!(matches!(read_frame(&framed), FrameRead::Complete { .. }));
        let (sparse, len) = (cfg!(debug_assertions), framed.len());
        let edge = |byte: usize| byte < 128 || byte + 128 >= len;
        for byte in (0..len).filter(|&b| !sparse || edge(b) || b % 61 == 0) {
            for bit in 0..8 {
                framed[byte] ^= 1 << bit;
                assert!(
                    !matches!(read_frame(&framed), FrameRead::Complete { .. }),
                    "flip of bit {bit} of byte {byte} went unnoticed"
                );
                framed[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn every_length_round_trips_and_zero_padding_changes_the_sum() {
        let lengths = (0..=72).chain((0..=40).map(|k| 32_768 + k));
        for len in lengths {
            let payload = noise(len);
            let framed = frame_bytes(&payload);
            assert_eq!(
                read_frame(&framed),
                FrameRead::Complete {
                    payload: &payload,
                    consumed: FRAME_HEADER_LEN + len
                },
                "{len}"
            );
            // Trailing zero bytes, added or removed, are not free.
            let mut zeros = payload.clone();
            zeros.extend_from_slice(&[0; 8]);
            for pad in 1..=8 {
                let padded = &zeros[..len + pad];
                assert_ne!(frame_sum(padded), frame_sum(&payload), "{len} + {pad}");
            }
            let mut ends_in_zeros = payload.clone();
            let keep = len.saturating_sub(8);
            ends_in_zeros[keep..].fill(0);
            for cut in keep..len {
                assert_ne!(
                    frame_sum(&ends_in_zeros[..cut]),
                    frame_sum(&ends_in_zeros),
                    "{len} cut to {cut}"
                );
            }
        }
    }

    /// The lanes are combined in order: the same words in another order
    /// are another sum (a plain xor of lanes would pass the bit-flip sweep
    /// and miss this).
    #[test]
    fn swapping_words_or_blocks_changes_the_sum() {
        let payload = noise(32_768 + 21);
        let sum = frame_sum(&payload);
        let swapped = |a: usize, b: usize, width: usize| {
            let mut p = payload.clone();
            for i in 0..width {
                p.swap(a + i, b + i);
            }
            frame_sum(&p)
        };
        for word in (0..4096).step_by(97) {
            // Within a stripe (lane to lane), one stripe on (same lane),
            // and far away.
            for other in [word ^ 1, word ^ 4, (word + 2048) % 4096] {
                assert_ne!(swapped(word * 8, other * 8, 8), sum, "{word} {other}");
            }
        }
        for block in (0..1024).step_by(37) {
            for other in [block ^ 1, (block + 512) % 1024] {
                assert_ne!(swapped(block * 32, other * 32, 32), sum, "{block} {other}");
            }
        }
        // The tail beyond the last whole stripe is order-sensitive too.
        assert_ne!(swapped(32_768, 32_768 + 8, 8), sum);
    }

    /// Printed, not asserted: `cargo test --release -p bf-store
    /// frame_sum_throughput -- --nocapture`. The lane loop only unrolls
    /// when optimised.
    #[test]
    fn frame_sum_throughput() {
        let payload = noise(32_808);
        let time = |sum: fn(&[u8]) -> u64| {
            let rounds = if cfg!(debug_assertions) { 20 } else { 2_000 };
            let started = std::time::Instant::now();
            let mut fold = 0u64;
            for _ in 0..rounds {
                fold ^= sum(std::hint::black_box(&payload));
            }
            std::hint::black_box(fold);
            (payload.len() * rounds) as f64 / started.elapsed().as_secs_f64() / 1e9
        };
        println!(
            "32 808-byte payload: frame_sum {:.2} GB/s, byte-wise fnv1a {:.2} GB/s",
            time(frame_sum),
            time(fnv1a)
        );
    }

    /// How `FrameBuf` sizes its reads (what it hands out, at any
    /// chunking and past a corrupt frame, is pinned by `bf-net`'s `proto`
    /// tests on real messages): a frame longer than one read is fetched
    /// in two — the first learns its length, the second has room for all
    /// the rest — and `clear` forgets a half-received frame.
    #[test]
    fn frame_buf_sizes_the_second_read_from_the_header() {
        let payloads = [noise(3), noise(40), noise(32_808), noise(12)];
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();
        let mut rest = &stream[..];
        let mut frames = FrameBuf::new();
        let (mut reads, mut handed) = (0, 0);
        while handed < 3 {
            match frames.next_frame() {
                FrameRead::Complete { payload, .. } => {
                    assert_eq!(payload, payloads[handed]);
                    handed += 1;
                }
                FrameRead::Incomplete => {
                    assert!(frames.fill(&mut rest).unwrap() > 0);
                    reads += 1;
                }
                FrameRead::Corrupt => panic!("corrupt"),
            }
        }
        assert_eq!(reads, 2, "16 KiB, then the rest of the 32 KiB frame");
        frames.clear();
        let mut fresh = &frame_bytes(b"a new connection")[..];
        frames.fill(&mut fresh).unwrap();
        assert!(matches!(
            frames.next_frame(),
            FrameRead::Complete { payload, .. } if payload == b"a new connection"
        ));
    }

    #[test]
    fn roundtrip_every_variant() {
        for r in samples() {
            assert_eq!(Record::decode(&r.encode()), Some(r.clone()));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = Record::charged("a", "l", 0.1).encode();
        payload.push(0);
        assert_eq!(Record::decode(&payload), None);
        assert_eq!(Record::decode(&[]), None);
        assert_eq!(Record::decode(&[99]), None);
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
