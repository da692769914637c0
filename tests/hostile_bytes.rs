//! Hostile bytes never panic: arbitrary payloads through every decoder,
//! an arbitrary byte stream through the frame reader, and mangled store
//! directories through recovery. Each decoder answers `None`, the frame
//! reader ends in `Corrupt` or end of stream, and a store opens with a
//! typed error or a ledger that still holds what the intact prefix did.
//! A well-formed request that names inadmissible values is refused
//! before it is charged, and the connection that sent it still serves.

use blowfish::net::{Client, ClientMessage, NetConfig, NetError, NetServer, WireError};
use blowfish::net::{ServerMessage, WireLogOp};
use blowfish::prelude::{BoundingBox, Dataset, Domain, Engine, Epsilon, KmeansSecretSpec};
use blowfish::prelude::{PointSet, Policy, Request, Server, ServerConfig};
use blowfish::store::{frame_bytes, FrameBuf, FrameRead, Record, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

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

/// The fields of README's "Admissible requests" table, which a test in
/// `bf-engine` holds to the engine's table, row for row.
fn admissible_fields() -> Vec<String> {
    let readme = include_str!("../README.md");
    readme
        .lines()
        .skip_while(|line| *line != "### Admissible requests")
        .skip_while(|line| !line.starts_with("| field |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| line.split(" | ").next().unwrap()[2..].to_owned())
        .collect()
}

/// One `Submit` per row of the admissible-value table, each well formed
/// and outside its row's set, through a real `NetServer`: each is
/// refused with `InvalidRequest` naming its row, the analyst's budget
/// does not move, and the same connection then serves an admissible
/// request.
#[test]
fn inadmissible_submits_are_refused_before_the_charge() {
    use KmeansSecretSpec::{Full, L1Threshold, PartitionMaxDiameter};
    let eps = |v: f64| Epsilon::new(v).unwrap();
    let engine = Engine::with_seed(13);
    let line = Domain::line(64).unwrap();
    engine
        .register_policy("pol", Policy::differential_privacy(line.clone()))
        .unwrap();
    let fenced = blowfish::core::CountConstraint::new(
        blowfish::core::Predicate::of_values(64, &[0, 1, 2, 3]),
        2,
    );
    let graph = blowfish::graph::SecretGraph::Full;
    let constrained = Policy::with_constraints(line.clone(), graph, vec![fenced]).unwrap();
    engine.register_policy("cpol", constrained).unwrap();
    let rows: Vec<usize> = (0..1_000).map(|i| (i * 7) % 64).collect();
    let grid = Domain::from_cardinalities(&[8, 8]).unwrap();
    for (name, domain, rows) in [
        ("ds", line.clone(), rows),
        ("one", line, vec![3]),
        ("grid", grid, vec![0]),
    ] {
        let dataset = Dataset::from_rows(domain, rows).unwrap();
        engine.register_dataset(name, dataset).unwrap();
    }
    for (name, hi) in [("pts", 10.0), ("huge", 1e308)] {
        let points = vec![vec![1.0, 1.0], vec![1.2, 0.8], vec![9.0, 9.0]];
        let bbox = BoundingBox::new(vec![-hi, -hi], vec![hi, hi]);
        engine
            .register_points(name, PointSet::new(points, bbox))
            .unwrap();
    }
    let server = Arc::new(Server::new(Arc::new(engine), ServerConfig::default()));
    let net = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).unwrap();
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.open_session("eve", 1e9).unwrap();

    let e = eps(0.5);
    let mut span = vec![0.0; 64];
    (span[0], span[1]) = (1e308, -1e308);
    let kmeans = |k, iterations, spec| Request::kmeans("pol", "pts", e, k, iterations, spec);
    let bad = [
        ("policy", Request::cumulative_histogram("cpol", "ds", e)),
        ("policy", Request::kmeans("cpol", "pts", e, 2, 3, Full)),
        ("data", Request::histogram("pol", "grid", e)),
        ("lo, hi", Request::range("pol", "ds", e, 9, 8)),
        ("lo, hi", Request::range("pol", "ds", e, 0, 64)),
        ("weights", Request::linear("pol", "ds", e, vec![1.0; 65])),
        (
            "weights",
            Request::linear("pol", "ds", e, vec![f64::NAN; 64]),
        ),
        ("weights", Request::linear("pol", "ds", e, vec![1e307; 64])),
        ("k", kmeans(0, 3, Full)),
        ("k", kmeans(4, 3, Full)),
        ("iterations", kmeans(2, 0, Full)),
        ("iterations", kmeans(2, 1 << 40, Full)),
        ("spec", kmeans(2, 3, L1Threshold(f64::NAN))),
        ("spec", kmeans(2, 3, PartitionMaxDiameter(f64::INFINITY))),
        ("epsilon", Request::range("pol", "ds", eps(5e-324), 3, 40)),
        ("epsilon", Request::histogram("pol", "ds", eps(1e-320))),
        (
            "epsilon",
            Request::cumulative_histogram("pol", "ds", eps(1e-310)),
        ),
        ("epsilon", Request::linear("pol", "one", e, span)),
        ("epsilon", Request::kmeans("pol", "huge", e, 2, 3, Full)),
        (
            "epsilon",
            Request::kmeans("pol", "pts", eps(1e-320), 2, 1_000, Full),
        ),
    ];
    let admissible = Request::range("pol", "ds", eps(0.5), 1, 2);
    for (field, request) in &bad {
        let before = client.budget("eve").unwrap();
        match client.call("eve", request) {
            Err(NetError::Remote(WireError::InvalidRequest(message))) => assert!(
                message.contains(&format!("({field}: admissible ")),
                "{request:?} refused by the wrong row: {message}"
            ),
            other => panic!("{request:?}: expected InvalidRequest, got {other:?}"),
        }
        let after = client.budget("eve").unwrap();
        assert_eq!(after.spent.to_bits(), before.spent.to_bits(), "{request:?}");
        assert_eq!(after.served, before.served, "{request:?}");
        let answer = client.call("eve", &admissible).unwrap();
        assert!(answer.scalar().unwrap().is_finite());
    }
    let fields = admissible_fields();
    assert!(fields.len() >= 8, "README's table: {fields:?}");
    for field in fields {
        assert!(
            bad.iter().any(|(f, _)| *f == field),
            "no inadmissible submit for the {field:?} row"
        );
    }
    net.shutdown().unwrap();
}
