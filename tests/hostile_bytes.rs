//! Hostile bytes never panic: arbitrary payloads through every decoder,
//! an arbitrary byte stream through the frame reader, and mangled store
//! directories through recovery. Each decoder answers `None`, the frame
//! reader ends in `Corrupt` or end of stream, and a store opens with a
//! typed error or a ledger that still holds what the intact prefix did.

use blowfish::net::{ClientMessage, ServerMessage, WireLogOp};
use blowfish::store::{frame_bytes, FrameBuf, FrameRead, Record, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use std::path::Path;

/// First payload bytes to draw from: every message, log-op and record
/// tag (client 1–15, server 65–79, log ops and records below 16), plus
/// the values between and around them.
const FIRST_BYTES: std::ops::RangeInclusive<u8> = 0..=80;

fn random_bytes(rng: &mut StdRng, out: &mut Vec<u8>, len: usize) {
    while out.len() < len {
        let word = rng.random::<u64>().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
}

#[test]
fn a_million_random_payloads_decode_to_none_or_a_message() {
    let mut rng = StdRng::seed_from_u64(0xB10F_0001);
    let mut payload = Vec::with_capacity(64);
    for _ in 0..1_000_000 {
        payload.clear();
        payload.push(rng.random_range(FIRST_BYTES));
        let len = 1 + rng.random_range(0..48usize);
        random_bytes(&mut rng, &mut payload, len);
        let _ = ClientMessage::decode(&payload);
        let _ = ServerMessage::decode(&payload);
        let _ = WireLogOp::decode(&payload);
        let _ = Record::decode(&payload);
    }
}

/// A byte stream handed out in random-sized reads.
struct Chopped<'a> {
    data: &'a [u8],
    rng: StdRng,
}

impl Read for Chopped<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf
            .len()
            .min(self.data.len())
            .min(self.rng.random_range(1..=64usize));
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[test]
fn a_chopped_random_stream_ends_in_corrupt_or_eof() {
    let mut rng = StdRng::seed_from_u64(0xB10F_0002);
    let (mut corrupt, mut eof) = (0, 0);
    for seed in 0..2_000u64 {
        // Some intact frames, then one hostile tail: random bytes, a
        // frame with one bit flipped, a frame cut short, or nothing.
        let mut stream = Vec::new();
        let intact = rng.random_range(0..4usize);
        let mut payload = Vec::new();
        for _ in 0..intact {
            payload.clear();
            let len = rng.random_range(0..200usize);
            random_bytes(&mut rng, &mut payload, len);
            stream.extend_from_slice(&frame_bytes(&payload));
        }
        payload.clear();
        let len = rng.random_range(1..300usize);
        random_bytes(&mut rng, &mut payload, len);
        match seed % 4 {
            0 => stream.extend_from_slice(&payload),
            1 => {
                let mut frame = frame_bytes(&payload);
                let bit = rng.random_range(0..frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
                stream.extend_from_slice(&frame);
            }
            2 => {
                let frame = frame_bytes(&payload);
                let cut = rng.random_range(1..frame.len());
                stream.extend_from_slice(&frame[..cut]);
            }
            _ => {}
        }

        let mut reader = Chopped {
            data: &stream,
            rng: StdRng::seed_from_u64(seed),
        };
        let mut buf = FrameBuf::new();
        let (mut frames, mut steps) = (0, 0);
        let corrupted = loop {
            // Every step hands out a frame, reads at least one byte or
            // ends the stream, so a reader that loops is a bug.
            steps += 1;
            assert!(
                steps <= stream.len() + intact + 2,
                "seed {seed}: no progress"
            );
            match buf.next_frame() {
                FrameRead::Complete { .. } => frames += 1,
                FrameRead::Corrupt => break true,
                FrameRead::Incomplete => {
                    if buf.fill(&mut reader).expect("in-memory read") == 0 {
                        break false;
                    }
                }
            }
        };
        assert!(frames >= intact, "seed {seed}: lost an intact frame");
        if corrupted {
            corrupt += 1;
        } else {
            eof += 1;
        }
    }
    assert!(corrupt > 0 && eof > 0, "{corrupt} corrupt, {eof} eof");
}

/// A store directory's files (everything but the lock), by name.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list store dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_type().expect("file type").is_file() && e.file_name() != "LOCK")
        .map(|e| {
            let name = e.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(e.path()).expect("read store file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn mangled_store_directories_open_typed_or_still_hold_alice() {
    let base = blowfish::store::scratch_dir("hostile-store-base");
    {
        let store = Store::open(&base).unwrap();
        store
            .commit(&[
                Record::session_opened("alice", 4.0),
                Record::charged("alice", "q0", 0.25),
            ])
            .unwrap();
        store.commit(&[Record::session_opened("bob", 1.0)]).unwrap();
        // The snapshot holds alice's session; the live segment after it
        // holds more of her charges.
        store.compact().unwrap();
        store
            .commit(&[
                Record::charged("alice", "q1", 0.25),
                Record::charged("bob", "q2", 0.125),
            ])
            .unwrap();
    }
    let files = store_files(&base);
    assert!(files.iter().any(|(name, _)| name.ends_with(".snap")));
    assert!(files.iter().any(|(name, _)| name.ends_with(".log")));
    std::fs::remove_dir_all(&base).unwrap();

    let mut rng = StdRng::seed_from_u64(0xB10F_0003);
    let (mut opened, mut refused) = (0, 0);
    for case in 0..3_000 {
        let dir = blowfish::store::scratch_dir("hostile-store");
        let victim = rng.random_range(0..files.len());
        for (i, (name, bytes)) in files.iter().enumerate() {
            let mut bytes = bytes.clone();
            if i == victim && !bytes.is_empty() {
                let at = rng.random_range(0..bytes.len());
                match case % 3 {
                    0 => bytes[at] ^= 1 << rng.random_range(0..8),
                    1 => bytes.truncate(at),
                    _ => {
                        let smear = rng.random::<u64>().to_le_bytes();
                        for (b, s) in bytes.iter_mut().skip(at).zip(smear) {
                            *b = s;
                        }
                    }
                }
            }
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        match Store::open(&dir) {
            Ok(store) => {
                opened += 1;
                assert!(
                    store.recovered_state().sessions.contains_key("alice"),
                    "case {case}: {} mangled, and the store opened without alice",
                    files[victim].0
                );
                let _ = store.ledger_history("alice");
            }
            Err(_) => refused += 1,
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        opened > 0 && refused > 0,
        "{opened} opened, {refused} refused"
    );
}
