//! The frame every WAL record and wire message travels in:
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

/// Maximum payload size the decoder will believe. Real records are tens
/// of bytes; a length beyond this is a corrupt frame, not a huge record,
/// and replay must stop rather than attempt a gigabyte allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Bytes of framing before the payload (`u32` length + `u64` checksum).
pub const FRAME_HEADER_LEN: usize = 4 + 8;

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

#[cfg(test)]
mod tests {
    use super::*;

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
        // frame_bytes and frame_into agree bit for bit, wherever in a
        // buffer the frame lands.
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
}
