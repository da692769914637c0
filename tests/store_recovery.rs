//! Kill-and-restart integration tests for the durable ε-budget ledger:
//! the acceptance gate for the persistence subsystem.
//!
//! The privacy claim under test: **no ε resurrection**. Whatever subset
//! of the WAL survives a crash, the recovered ledger's spent ε covers
//! every charge that was ever acknowledged — a restarted engine refuses
//! exactly what the pre-crash engine would have refused (or more, never
//! less).

use blowfish::engine::{Engine, EngineError, Request, Response, Store};
use blowfish::prelude::*;
use blowfish::server::Server;
use blowfish::store::{scan_frames, scratch_dir, Record, ScanEnd, REPLY_CACHE_PER_ANALYST};
use std::sync::Arc;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// The first segment of a store directory.
const FIRST_SEGMENT: &str = "ledger-0000000000000000.log";

fn build_engine(seed: u64, store: Arc<Store>) -> Engine {
    let engine = Engine::with_store(seed, store);
    let domain = Domain::line(64).unwrap();
    engine
        .register_policy("pol", Policy::distance_threshold(domain.clone(), 3))
        .unwrap();
    let rows: Vec<usize> = (0..640).map(|i| (i * 13) % 64).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
    engine
}

/// [`build_engine`] on a store at `dir`, plus the k-means point set
/// `pts`, with `alice` holding a session of `total` ε.
fn engine_at(dir: &std::path::Path, seed: u64, total: f64) -> Engine {
    let engine = build_engine(seed, Arc::new(Store::open(dir).unwrap()));
    let points = PointSet::new(
        (0..40)
            .map(|i| vec![f64::from(i % 8), f64::from(i / 8)])
            .collect(),
        BoundingBox::new(vec![0.0, 0.0], vec![8.0, 8.0]),
    );
    engine.register_points("pts", points).unwrap();
    engine.open_session("alice", eps(total)).unwrap();
    engine
}

/// The acceptance scenario: serve, die without ceremony, restart,
/// reattach — the restarted engine refuses a charge that would exceed
/// the pre-crash remaining budget, and a same-seed engine replays the
/// acknowledged charges byte-identically.
#[test]
fn killed_engine_restarts_with_its_ledger_and_noise_stream() {
    let dir = scratch_dir("kill-restart");
    let requests = [
        Request::range("pol", "ds", eps(0.3), 4, 20),
        Request::histogram("pol", "ds", eps(0.25)),
        Request::range("pol", "ds", eps(0.15), 10, 50),
    ];

    // Generation 1: acknowledge three charges, then "die" (drop with no
    // shutdown, no compaction — the WAL alone carries the ledger).
    let first_run: Vec<Response> = {
        let store = Arc::new(Store::open(&dir).unwrap());
        let engine = build_engine(1234, store);
        engine.open_session("alice", eps(1.0)).unwrap();
        requests
            .iter()
            .map(|r| engine.serve("alice", r).unwrap())
            .collect()
    };

    // Generation 2: recover.
    let store = Arc::new(Store::open(&dir).unwrap());
    let report = store.recovery_report();
    assert_eq!(report.records_applied, 3 + 1 + 2, "charges + open + regs");
    let engine = build_engine(1234, store);
    engine.open_session("alice", eps(1.0)).unwrap();
    // Pre-crash remaining was 1.0 − 0.7 = 0.3: a 0.5 charge must refuse…
    let err = engine
        .serve("alice", &Request::range("pol", "ds", eps(0.5), 0, 9))
        .unwrap_err();
    assert!(
        matches!(err, EngineError::BudgetRefused { remaining, .. }
            if (remaining - 0.3).abs() < 1e-12),
        "got {err}"
    );
    // …while 0.3 still fits.
    engine
        .serve("alice", &Request::range("pol", "ds", eps(0.3), 0, 9))
        .unwrap();

    // Same-seed replay of the acknowledged charges is byte-identical:
    // a fresh engine with the same seed serving the same sequence
    // reproduces generation 1's answers bit for bit.
    let replay: Vec<Response> = {
        let replay_dir = scratch_dir("kill-restart-replay");
        let store = Arc::new(Store::open(&replay_dir).unwrap());
        let engine = build_engine(1234, store);
        engine.open_session("alice", eps(1.0)).unwrap();
        let out = requests
            .iter()
            .map(|r| engine.serve("alice", r).unwrap())
            .collect();
        std::fs::remove_dir_all(&replay_dir).unwrap();
        out
    };
    assert_eq!(first_run, replay, "same seed, same charges, same bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Eight analysts charge concurrently, one thread each, through group
/// commit: every acknowledged charge is an appended record, recovery
/// finds exactly the acknowledged ledgers, and recovering the same
/// directory twice yields byte-identical ledgers.
#[test]
fn recovery_is_deterministic() {
    const ANALYSTS: usize = 8;
    const CHARGES: usize = 16;
    let dir = scratch_dir("recover-twice");
    {
        let store = Arc::new(Store::open(&dir).unwrap());
        let engine = build_engine(7, Arc::clone(&store));
        std::thread::scope(|s| {
            for i in 0..ANALYSTS {
                let engine = &engine;
                s.spawn(move || {
                    let analyst = format!("a{i}");
                    engine.open_session(&analyst, eps(1.0)).unwrap();
                    for k in 0..CHARGES {
                        let lo = (i + 3 * k) % 40;
                        let range = Request::range("pol", "ds", eps(1.0 / 64.0), lo, lo + 9);
                        engine.serve(&analyst, &range).unwrap();
                    }
                });
            }
        });
        let registrations = 2;
        assert_eq!(
            store.stats().appended_records,
            (registrations + ANALYSTS + ANALYSTS * CHARGES) as u64,
            "every acknowledged charge is a durable record"
        );
    }
    let store = Store::open(&dir).unwrap();
    for i in 0..ANALYSTS {
        let s = &store.recovered_state().sessions[&format!("a{i}")];
        assert_eq!((s.served, s.spent), (CHARGES as u64, 0.25), "a{i}");
    }
    let a = store.recovered_state().digest();
    drop(store);
    let b = Store::open(&dir).unwrap().recovered_state().digest();
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The server round trip: graceful shutdown compacts, restart-reattach
/// continues serving under the recovered ledgers.
#[test]
fn server_shutdown_and_restart_reattach() {
    let dir = scratch_dir("server-restart");
    {
        let store = Arc::new(Store::open(&dir).unwrap());
        let engine = Arc::new(build_engine(55, store));
        for i in 0..4 {
            engine.open_session(format!("a{i}"), eps(1.0)).unwrap();
        }
        let server = Server::with_defaults(Arc::clone(&engine));
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                server
                    .submit(
                        &format!("a{i}"),
                        Request::range("pol", "ds", eps(0.4), 8, 24),
                    )
                    .unwrap()
            })
            .collect();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.answered, 4);
        for t in tickets {
            t.wait().unwrap();
        }
    }
    // Restart: snapshot recovery (the shutdown compacted), reattach,
    // continue — with the spent 0.4 intact per analyst.
    let store = Arc::new(Store::open(&dir).unwrap());
    assert!(store.recovery_report().snapshot_segment.is_some());
    let engine = Arc::new(build_engine(55, store));
    let server = Server::with_defaults(Arc::clone(&engine));
    // Tickets must stay alive until served: a dropped ticket is an
    // unreachable waiter and the scheduler cancels it before charging.
    let mut tickets = Vec::new();
    for i in 0..4 {
        let analyst = format!("a{i}");
        // Parked until reattach; the server refuses at the door.
        assert!(matches!(
            server.submit(&analyst, Request::range("pol", "ds", eps(0.1), 0, 5)),
            Err(blowfish::server::ServerError::Engine(
                EngineError::SessionEvicted(_)
            ))
        ));
        engine.open_session(&analyst, eps(1.0)).unwrap();
        assert!((engine.session_remaining(&analyst).unwrap() - 0.6).abs() < 1e-12);
        // Over-budget refuses at admission; a fitting request serves.
        assert!(server
            .submit(&analyst, Request::range("pol", "ds", eps(0.7), 0, 5))
            .is_err());
        tickets.push(
            server
                .submit(&analyst, Request::range("pol", "ds", eps(0.5), 0, 5))
                .unwrap(),
        );
    }
    server.pump_until_idle();
    for t in tickets {
        t.wait().unwrap();
    }
    for i in 0..4 {
        assert!((engine.session_remaining(&format!("a{i}")).unwrap() - 0.1).abs() < 1e-12);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One tick is one engine call and therefore one WAL group commit,
/// whatever mix is due: a fold of two ranges, a histogram and a k-means
/// run — three releases — cost exactly one fsync between them.
#[test]
fn one_tick_is_one_wal_commit() {
    let dir = scratch_dir("one-tick-one-fsync");
    let engine = engine_at(&dir, 31, 4.0);
    let store = Arc::clone(engine.store().unwrap());
    engine.open_session("bob", eps(4.0)).unwrap();
    let server = Server::with_defaults(Arc::new(engine));
    let tickets = [
        ("alice", Request::range("pol", "ds", eps(0.25), 3, 20)),
        ("bob", Request::range("pol", "ds", eps(0.25), 5, 30)),
        ("alice", Request::histogram("pol", "ds", eps(0.25))),
        (
            "bob",
            Request::kmeans("pol", "pts", eps(1.0), 2, 3, KmeansSecretSpec::Full),
        ),
    ]
    .map(|(analyst, request)| server.submit(analyst, request).unwrap());
    let syncs_before = store.stats().syncs;
    assert_eq!(
        server.tick(),
        4,
        "an idle server dispatches the tick work arrives"
    );
    assert_eq!(store.stats().syncs - syncs_before, 1, "one tick, one fsync");
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let stats = server.stats();
    assert_eq!((stats.releases, stats.batched_range_answers), (3, 2));
    drop(server);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Builds one WAL of `n` charges with exactly representable ε values
/// and returns (wal bytes, per-charge ε).
fn charged_wal(tag: &str, n: usize) -> (Vec<u8>, Vec<f64>) {
    let dir = scratch_dir(tag);
    let spends: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / 1024.0).collect();
    {
        let store = Store::open(&dir).unwrap();
        store
            .commit(&[Record::session_opened("alice", 1e6)])
            .unwrap();
        for (i, &e) in spends.iter().enumerate() {
            store
                .commit(&[Record::charged("alice", &format!("q{i}"), e)])
                .unwrap();
        }
    }
    let bytes = std::fs::read(dir.join(FIRST_SEGMENT)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (bytes, spends)
}

/// Writes `bytes` as the sole WAL segment of a fresh store dir and
/// tries to recover it, returning (recovered spent, recovered served,
/// report), or the recovery refusal.
fn try_recover_bytes(
    tag: &str,
    bytes: &[u8],
) -> Result<(f64, u64, blowfish::store::RecoveryReport), blowfish::store::StoreError> {
    let dir = scratch_dir(tag);
    std::fs::write(dir.join(FIRST_SEGMENT), bytes).unwrap();
    let result = Store::open(&dir).map(|store| {
        let report = store.recovery_report();
        let (spent, served) = store
            .recovered_state()
            .sessions
            .get("alice")
            .map_or((0.0, 0), |s| (s.spent, s.served));
        (spent, served, report)
    });
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

/// As [`try_recover_bytes`], for inputs recovery must accept.
fn recover_bytes(tag: &str, bytes: &[u8]) -> (f64, u64, blowfish::store::RecoveryReport) {
    try_recover_bytes(tag, bytes).expect("recovery must accept this input")
}

/// Property: truncating the WAL at **any** byte offset yields a
/// recovered spend equal to some prefix of the charge sequence —
/// monotone in the cut, never an invented value, and equal to the full
/// spend at the full length. This is the no-ε-resurrection guarantee
/// under arbitrary crash points.
#[test]
fn truncation_at_any_offset_recovers_a_monotone_prefix() {
    let (bytes, spends) = charged_wal("truncate", 12);
    let mut prefix_sums = vec![0.0f64];
    for &e in &spends {
        prefix_sums.push(prefix_sums.last().unwrap() + e);
    }
    let full_spent = *prefix_sums.last().unwrap();
    let mut last_spent = 0.0f64;
    // Every cut: coarse stride through record bodies plus every offset
    // near the tail, so both header and payload tears are exercised.
    let cuts: Vec<usize> = (0..bytes.len())
        .filter(|c| c % 7 == 0 || *c + 64 >= bytes.len())
        .chain([bytes.len()])
        .collect();
    for cut in cuts {
        let (spent, served, report) = recover_bytes("truncate-cut", &bytes[..cut]);
        assert!(
            prefix_sums.iter().any(|p| (p - spent).abs() < 1e-12),
            "cut {cut}: spent {spent} is not a prefix sum"
        );
        assert!(
            spent >= last_spent - 1e-12,
            "cut {cut}: spent went backwards ({last_spent} → {spent})"
        );
        assert!(spent <= full_spent + 1e-12, "cut {cut}: invented budget");
        // served tracks the same prefix: spends are distinct so the
        // prefix index is recoverable from the spent sum.
        let k = prefix_sums
            .iter()
            .position(|p| (p - spent).abs() < 1e-12)
            .unwrap();
        assert_eq!(served, k as u64, "cut {cut}");
        if cut < bytes.len() {
            assert!(report.tail_skipped || (spent - full_spent).abs() < 1e-12 || k < spends.len());
        }
        last_spent = spent;
    }
    // The uncut WAL recovers everything.
    let (spent, served, report) = recover_bytes("truncate-full", &bytes);
    assert!((spent - full_spent).abs() < 1e-12);
    assert_eq!(served, spends.len() as u64);
    assert!(!report.tail_skipped);
}

/// The same sweep over a replica's segment, where each commit carries
/// the staged `LogApplied` mark of the entry before it (`Store::stage`):
/// `Replicated i` · `Replied i` · mark `i`, the mark reaching disk with
/// `Replicated i + 1`. Cut anywhere, recovery yields a prefix — spent
/// monotone in the cut and never invented — whose execution mark never
/// runs ahead of the charges: entry `k` reads as applied only if its
/// `Replied` record (charge and answer, one frame) was recovered too.
#[test]
fn truncation_inside_commits_carrying_staged_marks_recovers_a_monotone_prefix() {
    const ENTRIES: u64 = 8;
    let dir = scratch_dir("truncate-staged");
    {
        let store = Store::open(&dir).unwrap();
        store
            .commit(&[Record::session_opened("alice", 1e6)])
            .unwrap();
        for i in 1..=ENTRIES {
            store
                .commit(&[Record::Replicated {
                    epoch: 0,
                    index: i,
                    analyst: "alice".into(),
                    request_id: i,
                    payload: vec![i as u8; 9],
                }])
                .unwrap();
            let spend = i as f64 / 1024.0;
            store
                .commit(&[Record::replied("alice", i, "q", spend, vec![i as u8])])
                .unwrap();
            store.stage(&[Record::LogApplied { index: i }]).unwrap();
        }
        assert_eq!(store.stats().syncs, 1 + 2 * ENTRIES, "no sync for a mark");
    } // the last mark dies with the process
    let bytes = std::fs::read(dir.join(FIRST_SEGMENT)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let mut last = (0u64, 0u64, 0u64); // served, applied, logged
    for cut in 0..=bytes.len() {
        let dir = scratch_dir("truncate-staged-cut");
        std::fs::write(dir.join(FIRST_SEGMENT), &bytes[..cut]).unwrap();
        let store = Store::open(&dir).unwrap();
        let state = store.recovered_state();
        let (spent, served) = state
            .sessions
            .get("alice")
            .map_or((0.0, 0), |s| (s.spent, s.served));
        // Spends are distinct, so the prefix sum names the prefix.
        let expected = (1..=served).fold(0.0, |sum, i| sum + i as f64 / 1024.0);
        assert_eq!(spent.to_bits(), expected.to_bits(), "cut {cut}");
        assert!(
            state.log_applied <= served,
            "cut {cut}: entry {} marked applied, {served} charges recovered",
            state.log_applied
        );
        for k in 1..=served {
            assert!(state.cached_reply("alice", k).is_some(), "cut {cut}");
        }
        // An entry is logged before it is charged, and the pending
        // entries are exactly those between the mark and the log's end.
        assert!(served <= state.log_index, "cut {cut}");
        assert!(
            state
                .log_pending
                .keys()
                .copied()
                .eq(state.log_applied + 1..=state.log_index),
            "cut {cut}"
        );
        let now = (served, state.log_applied, state.log_index);
        assert!(
            last.0 <= now.0 && last.1 <= now.1 && last.2 <= now.2,
            "cut {cut}: {last:?} → {now:?} went backwards"
        );
        last = now;
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // Whole, the segment holds every charge and every mark but the last.
    assert_eq!(last, (ENTRIES, ENTRIES - 1, ENTRIES));
}

/// Property: flipping any single byte makes the checksum reject that
/// record. A flip in the **final** record looks like a crash tear
/// (nothing durable follows), so recovery accepts exactly the intact
/// prefix; a flip anywhere earlier is followed by intact, provably
/// acknowledged frames, so recovery **refuses** rather than silently
/// dropping them. Either way, no spend is ever invented.
#[test]
fn corruption_at_any_offset_is_rejected_by_checksum() {
    let (bytes, spends) = charged_wal("corrupt", 10);
    let mut prefix_sums = vec![0.0f64];
    for &e in &spends {
        prefix_sums.push(prefix_sums.last().unwrap() + e);
    }
    let full_spent = *prefix_sums.last().unwrap();
    // Frame boundaries, so each flip maps to a known record index.
    let mut boundaries = vec![0usize];
    {
        let mut pos = 0usize;
        let (end, _) = scan_frames(&bytes, |_| {});
        assert_eq!(end, ScanEnd::Clean);
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += blowfish::store::FRAME_HEADER_LEN + len;
            boundaries.push(pos);
        }
    }
    let records = boundaries.len() - 1; // 1 open + 10 charges
    for flip in (0..bytes.len()).step_by(5) {
        let mut damaged = bytes.clone();
        damaged[flip] ^= 0x40;
        // The flipped byte lives in record `r` (0 = the session open).
        let r = boundaries.iter().filter(|&&b| b <= flip).count() - 1;
        match try_recover_bytes("corrupt-flip", &damaged) {
            Ok((spent, _, report)) => {
                // Acceptance is only sound when nothing durable follows
                // the damage — the damaged-final-record case.
                assert_eq!(
                    r,
                    records - 1,
                    "flip at {flip}: mid-history damage must refuse, not skip"
                );
                let expected = prefix_sums[records - 2]; // all charges but the last
                assert!(
                    (spent - expected).abs() < 1e-12,
                    "flip at {flip}: spent {spent}, expected {expected}"
                );
                assert!(spent <= full_spent + 1e-12, "no resurrection");
                assert!(report.tail_skipped);
            }
            Err(e) => {
                // Refusal is always sound; for mid-history damage it is
                // required (intact acknowledged frames follow the flip).
                assert!(
                    r < records - 1,
                    "flip at {flip} in the final record should be tolerated, got {e}"
                );
            }
        }
    }
}

/// Builds before the word-wise `frame_sum` sealed every frame with
/// byte-wise FNV-1a, in segments named `wal-N.log`. To this build such a
/// frame fails its checksum at byte 0 with nothing intact after it —
/// exactly what a torn tail looks like — so read, the directory would
/// open **empty**: every analyst's spent ε silently reset. The name
/// refuses it before a byte is read; a genuinely torn tail of this
/// build's own frames still recovers.
#[test]
fn a_wal_from_before_the_frame_checksum_changed_is_refused_not_read_as_empty() {
    use blowfish::store::fnv1a;
    let old_frame = |record: &Record| {
        let payload = record.encode();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    };
    let records = [
        Record::session_opened("alice", 1.0),
        Record::charged("alice", "q0", 0.75),
    ];
    let old: Vec<u8> = records.iter().flat_map(old_frame).collect();
    let dir = scratch_dir("old-framing");
    std::fs::write(dir.join("wal-0000000000000000.log"), &old).unwrap();
    match Store::open(&dir) {
        Err(StoreError::OldFormat { path }) => {
            assert!(path.ends_with("wal-0000000000000000.log"), "{path}");
        }
        Ok(store) => panic!("opened as {:?}", store.recovered_state().sessions),
        Err(other) => panic!("refused, but not by name: {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
    // Half a frame of the current framing is still just a torn tail.
    let mut torn = records[0].frame();
    let second = records[1].frame();
    torn.extend_from_slice(&second[..second.len() / 2]);
    let (spent, served, report) = recover_bytes("new-framing-torn", &torn);
    assert_eq!(
        (spent, served),
        (0.0, 0),
        "the open survives, the torn charge does not"
    );
    assert!(report.tail_skipped);
    assert_eq!(report.records_applied, 1);
}

/// The parent format named its files `wal-N.log` and `snapshot-N.snap`,
/// and its snapshot bodies carry a release-ordinal section between the
/// registrations and the reply cache: read as this format, every later
/// field would be misplaced. Such a directory is refused by name with
/// the typed error before a byte is read — shown on this format's own
/// files under the parent's names — and is left exactly as it was.
#[test]
fn a_parent_format_directory_is_refused_by_name_and_left_untouched() {
    let dir = scratch_dir("parent-format");
    {
        let engine = engine_at(&dir, 3, 1.0);
        let histogram = Request::histogram("pol", "ds", eps(0.25));
        engine.serve("alice", &histogram).unwrap();
        engine.compact().unwrap();
        engine.serve("alice", &histogram).unwrap();
    }
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name != "LOCK")
            .collect();
        names.sort();
        names
    };
    for name in listing() {
        let rest = name.strip_prefix("ledger-").unwrap();
        let kind = if rest.ends_with(".snap") {
            "snapshot"
        } else {
            "wal"
        };
        std::fs::rename(dir.join(&name), dir.join(format!("{kind}-{rest}"))).unwrap();
    }
    let before = listing();
    assert_eq!(
        before,
        ["snapshot-0000000000000001.snap", "wal-0000000000000001.log"]
    );
    match Store::open(&dir) {
        Err(StoreError::OldFormat { path }) => {
            assert!(before.iter().any(|name| path.ends_with(name)), "{path}");
        }
        other => panic!("expected the old-format refusal, got {other:?}"),
    }
    assert_eq!(listing(), before, "nothing created, pruned or renamed");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash forgets nothing release noise depends on. Generation 1 serves
/// one range twice and dies without compacting; generation 2's next
/// answer to it is the **third** answer of an uninterrupted same-seed
/// engine, because noise follows the analyst's ledger position and the
/// WAL's charges replay it.
#[test]
fn a_crash_resumes_noise_at_the_ledger_position() {
    let range = Request::range("pol", "ds", eps(0.125), 3, 17);
    let reference: Vec<Response> = {
        let dir = scratch_dir("crash-position-reference");
        let engine = engine_at(&dir, 42, 1.0);
        let answers = (0..3).map(|_| engine.serve("alice", &range).unwrap());
        let answers = answers.collect();
        std::fs::remove_dir_all(&dir).unwrap();
        answers
    };
    let dir = scratch_dir("crash-position");
    {
        let engine = engine_at(&dir, 42, 1.0);
        assert_eq!(engine.serve("alice", &range).unwrap(), reference[0]);
        assert_eq!(engine.serve("alice", &range).unwrap(), reference[1]);
    } // die without ceremony
    let engine = engine_at(&dir, 42, 1.0);
    assert_eq!(engine.serve("alice", &range).unwrap(), reference[2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// k-means noise follows the ledger like every other release: after a
/// graceful (compacted) restart the same request draws fresh centroids
/// — the answer an uninterrupted engine gives the second time.
#[test]
fn kmeans_draws_fresh_centroids_after_a_compacted_restart() {
    let kmeans = Request::kmeans("pol", "pts", eps(0.5), 2, 3, KmeansSecretSpec::Full);
    let dir = scratch_dir("kmeans-restart");
    let first = {
        let engine = engine_at(&dir, 9, 2.0);
        let first = engine.serve("alice", &kmeans).unwrap();
        engine.compact().unwrap();
        first
    };
    let engine = engine_at(&dir, 9, 2.0);
    let second = engine.serve("alice", &kmeans).unwrap();
    assert_ne!(second, first, "a second payment is owed a second draw");
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = scratch_dir("kmeans-uninterrupted");
    let engine = engine_at(&dir, 9, 2.0);
    assert_eq!(engine.serve("alice", &kmeans).unwrap(), first);
    assert_eq!(engine.serve("alice", &kmeans).unwrap(), second);
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Live and recovered ledger positions agree, which is what a restarted
/// engine's noise rests on. Two tagged waiters of one analyst share one
/// release: the analyst pays once, and the second waiter's answer is
/// booked in a zero-ε `Replied` frame of its own, which recovery counts
/// as served — so the live ledger counts it too, and the next release
/// draws the same noise live as after a crash.
#[test]
fn tagged_duplicates_count_alike_live_and_recovered() {
    let histogram = Request::histogram("pol", "ds", eps(0.25));
    let range = Request::range("pol", "ds", eps(0.25), 5, 25);
    let two_tagged = |engine: &Engine| {
        let trace = TraceContext::inert();
        let waiter = |tag| blowfish::engine::Waiter {
            analyst: "alice",
            tag: Some(tag),
            trace: &trace,
        };
        let waiters = [waiter(1), waiter(2)];
        let group = blowfish::engine::Group {
            request: &histogram,
            waiters: &waiters,
        };
        let served = engine.serve_groups(&[group]);
        assert!(served.slots[0].iter().all(Result::is_ok));
        engine.session_snapshot("alice").unwrap()
    };
    let dir = scratch_dir("served-live");
    let (live_served, next) = {
        let engine = engine_at(&dir, 13, 2.0);
        let session = two_tagged(&engine);
        assert_eq!(session.spent(), 0.25, "one release, one charge");
        (session.served(), engine.serve("alice", &range).unwrap())
    };
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = scratch_dir("served-recovered");
    two_tagged(&engine_at(&dir, 13, 2.0)); // then die without ceremony
    let engine = engine_at(&dir, 13, 2.0);
    assert_eq!(
        engine.session_snapshot("alice").unwrap().served(),
        live_served
    );
    assert_eq!(engine.serve("alice", &range).unwrap(), next);
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store whose `op`-th WAL write (1-based) fails before any byte
/// reaches the file, with the plan that says whether it fired.
fn store_failing_write(
    dir: &std::path::Path,
    op: u64,
) -> (Arc<Store>, Arc<blowfish::chaos::StorePlan>) {
    store_with_faults(dir, [(op, blowfish::chaos::StoreFault::FailWrite)])
}

/// A store with `faults` scripted on its WAL op clock, and the plan.
fn store_with_faults(
    dir: &std::path::Path,
    faults: impl IntoIterator<Item = (u64, blowfish::chaos::StoreFault)>,
) -> (Arc<Store>, Arc<blowfish::chaos::StorePlan>) {
    use blowfish::store::StoreConfig;
    let plan = Arc::new(blowfish::chaos::StorePlan::scripted(faults));
    let config = StoreConfig {
        fault_plan: Some(Arc::clone(&plan)),
        ..StoreConfig::default()
    };
    (Arc::new(Store::open_with(dir, config).unwrap()), plan)
}

/// Dry run with a plan that never fires: the WAL writes a clean
/// [`build_engine`] plus alice's `open_session` perform, so a scripted
/// fault at the next op lands exactly on the first serve's commit no
/// matter how registration batching evolves.
fn ops_before_first_serve(seed: u64) -> u64 {
    let dir = scratch_dir("ops-dry");
    let (store, plan) = store_failing_write(&dir, u64::MAX);
    let engine = build_engine(seed, store);
    engine.open_session("alice", eps(4.0)).unwrap();
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
    plan.ops()
}

/// Crash point 1 of the exactly-once story: the fault kills the very
/// commit carrying the charge, so nothing durable was charged and
/// nothing was acknowledged. A restart-and-retry under the same
/// idempotency key performs the work — and charges — exactly once.
#[test]
fn retry_after_precommit_crash_charges_exactly_once() {
    let request = Request::range("pol", "ds", eps(0.4), 4, 20);
    let dir = scratch_dir("precommit");
    {
        let (store, plan) = store_failing_write(&dir, ops_before_first_serve(99) + 1);
        let engine = build_engine(99, store);
        engine.open_session("alice", eps(1.0)).unwrap();
        let denied = engine.serve_tagged("alice", 7, &request);
        assert!(
            matches!(denied, Err(EngineError::Store(_))),
            "got {denied:?}"
        );
        assert_eq!(plan.injected(), 1, "the scripted fault must have fired");
    } // die without ceremony

    // Restart: the failed commit left no durable charge; the retry under
    // the same key serves once, then replays free and bit-identically.
    let store = Arc::new(Store::open(&dir).unwrap());
    let engine = build_engine(99, store);
    engine.open_session("alice", eps(1.0)).unwrap();
    assert!(
        (engine.session_remaining("alice").unwrap() - 1.0).abs() < 1e-12,
        "a failed commit must not charge"
    );
    let first = engine.serve_tagged("alice", 7, &request).unwrap();
    assert!((engine.session_remaining("alice").unwrap() - 0.6).abs() < 1e-12);
    let replay = engine.serve_tagged("alice", 7, &request).unwrap();
    assert_eq!(first, replay, "replays must be bit-identical");
    assert!(
        (engine.session_remaining("alice").unwrap() - 0.6).abs() < 1e-12,
        "the replay must cost zero ε"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The untagged paths run the order all wire traffic runs — charge in
/// memory → execute → commit → acknowledge — so a store failure on the
/// charge's commit withholds the answer: `serve`, and every charged
/// slot of a `serve_batch`, surface the store error; nothing is cached
/// for a retry; the in-memory spend stands; and recovery finds no more
/// than that spend (budget is lost to the failure, never resurrected).
#[test]
fn failed_charge_commit_withholds_untagged_answers_and_resurrects_nothing() {
    let dir = scratch_dir("untagged-fault");
    let in_memory_spent = {
        let (store, plan) = store_failing_write(&dir, ops_before_first_serve(77) + 1);
        let engine = build_engine(77, store);
        engine.open_session("alice", eps(4.0)).unwrap();
        let denied = engine.serve("alice", &Request::range("pol", "ds", eps(0.5), 4, 20));
        assert!(
            matches!(denied, Err(EngineError::Store(_))),
            "got {denied:?}"
        );
        assert_eq!(plan.injected(), 1, "the scripted fault must have fired");
        // The failed write poisoned the store, so the batch's one group
        // commit fails too: a fold of three ranges, a histogram beside
        // it, and a range that was never charged.
        let batch = [
            Request::range("pol", "ds", eps(0.25), 0, 9),
            Request::range("pol", "ds", eps(0.25), 10, 19),
            Request::range("pol", "ds", eps(0.25), 20, 29),
            Request::histogram("pol", "ds", eps(0.125)),
            Request::range("pol", "ds", eps(0.25), 60, 99),
        ];
        let slots = engine.serve_batch("alice", &batch);
        for slot in &slots[..4] {
            assert!(matches!(slot, Err(EngineError::Store(_))), "got {slot:?}");
        }
        assert!(
            matches!(slots[4], Err(EngineError::InvalidRequest(_))),
            "an uncharged slot keeps its own error: {:?}",
            slots[4]
        );
        // A tagged request is withheld the same way, and its answer is
        // not mirrored into the reply cache ahead of its frame.
        let tagged = engine.serve_tagged("alice", 7, &Request::histogram("pol", "ds", eps(0.125)));
        assert!(matches!(tagged, Err(EngineError::Store(_))));
        assert!(engine.cached_reply("alice", 7).is_none());
        // serve 0.5 + fold 0.25 + histogram 0.125 + tagged 0.125.
        let spent = engine.session_snapshot("alice").unwrap().spent();
        assert_eq!(spent, 1.0, "the in-memory spend stands");
        spent
    }; // die without ceremony

    let store = Store::open(&dir).unwrap();
    let recovered = store.recovered_state().sessions["alice"].spent;
    assert!(recovered <= in_memory_spent, "recovery resurrected budget");
    assert_eq!(recovered, 0.0, "no failed commit left a durable charge");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An acknowledgement never precedes its epoch's commit, and a failed
/// commit fails its own epoch only. Epoch 1's commit is slow: its
/// tickets stay unresolved for as long as the sync is in flight, and
/// resolve once it lands. Epoch 2's fsync fails: exactly its tickets
/// surface the store error, epoch 1's acknowledged answer stands (and
/// still replays), and the scheduler lives on — epoch 3's tickets
/// resolve, refused by the now fail-stop store rather than hung — until
/// a restart over the same directory serves again on a ledger that
/// holds everything ever acknowledged.
#[test]
fn an_epoch_acknowledges_after_its_commit_and_fails_alone() {
    use blowfish::chaos::StoreFault;
    let dir = scratch_dir("epoch-ack-order");
    let hold = std::time::Duration::from_millis(150);
    let first_serve = ops_before_first_serve(61) + 1;
    let (store, plan) = store_with_faults(
        &dir,
        [
            (
                first_serve,
                StoreFault::DelaySyncMicros(hold.as_micros() as u64),
            ),
            (first_serve + 1, StoreFault::FailSync),
        ],
    );
    let engine = Arc::new(build_engine(61, Arc::clone(&store)));
    engine.open_session("alice", eps(4.0)).unwrap();
    let server = Arc::new(Server::with_defaults(Arc::clone(&engine)));
    let range = |lo| Request::range("pol", "ds", eps(0.25), lo, lo + 20);
    let store_error = |r: Result<Response, ServerError>| {
        matches!(r, Err(ServerError::Engine(EngineError::Store(_))))
    };

    // Epoch 1: drained, released, and stuck in its slow commit.
    let tagged = server
        .submit_tagged("alice", range(1), Some(7), None)
        .unwrap();
    let plain = server.submit("alice", range(2)).unwrap();
    let syncs = store.stats().syncs;
    let ticking = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.tick())
    };
    while server.stats().ticks == 0 {
        std::thread::yield_now();
    }
    assert!(
        tagged.try_take().is_none() && plain.try_take().is_none(),
        "no acknowledgement while the epoch's commit is in flight"
    );
    assert_eq!(store.stats().syncs, syncs);
    assert_eq!(ticking.join().unwrap(), 2);
    assert_eq!(store.stats().syncs, syncs + 1);
    let first = tagged.try_take().unwrap().unwrap();
    assert!(plain.try_take().unwrap().is_ok());

    // Epoch 2: the fsync fails, and only this epoch's tickets with it.
    let doomed = [
        server.submit("alice", range(3)).unwrap(),
        server.submit("alice", range(4)).unwrap(),
    ];
    assert_eq!(server.tick(), 2);
    assert_eq!(plan.injected(), 2, "both scripted faults must have fired");
    for t in doomed {
        assert!(store_error(t.try_take().unwrap()));
    }

    // Epoch 3: the scheduler still turns. The store is fail-stop, so
    // fresh charges are refused, typed — but nothing hangs, and the
    // retry of epoch 1's acknowledged answer still replays.
    let refused = server.submit("alice", range(5)).unwrap();
    assert_eq!(server.tick(), 1);
    assert!(store_error(refused.try_take().unwrap()));
    let replay = server
        .submit_tagged("alice", range(1), Some(7), None)
        .unwrap();
    assert_eq!(replay.wait().unwrap(), first);
    drop((server, engine, store));

    // Restart: the directory serves again, and holds epoch 1's
    // acknowledged charge (one fold, one ε) plus epoch 2's (written
    // whole, never acknowledged: budget lost to the failure, never
    // resurrected). Epoch 3's never reached the file.
    let store = Arc::new(Store::open(&dir).unwrap());
    let engine = Arc::new(build_engine(61, store));
    engine.open_session("alice", eps(4.0)).unwrap();
    assert_eq!(engine.session_snapshot("alice").unwrap().spent(), 0.5);
    let server = Server::with_defaults(Arc::clone(&engine));
    let served = server.submit("alice", range(6)).unwrap();
    server.pump_until_idle();
    assert!(served.wait().is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash point 2: the combined charge+answer frame is durable but the
/// process dies before anyone saw the answer. The retried key replays
/// the recovered answer — from a **different-seed** engine, proving the
/// bytes come from the WAL's reply cache, not from noise regeneration.
#[test]
fn retry_after_postcommit_crash_replays_the_durable_answer() {
    let dir = scratch_dir("postcommit");
    let request = Request::range("pol", "ds", eps(0.4), 4, 20);
    let first = {
        let store = Arc::new(Store::open(&dir).unwrap());
        let engine = build_engine(99, store);
        engine.open_session("alice", eps(1.0)).unwrap();
        engine.serve_tagged("alice", 7, &request).unwrap()
    }; // the Replied frame landed; the reply itself never left the box

    let store = Arc::new(Store::open(&dir).unwrap());
    let engine = build_engine(4242, store); // different noise stream
    engine.open_session("alice", eps(1.0)).unwrap();
    assert!(
        (engine.session_remaining("alice").unwrap() - 0.6).abs() < 1e-12,
        "the pre-crash charge must survive recovery"
    );
    let replay = engine.serve_tagged("alice", 7, &request).unwrap();
    assert_eq!(first, replay, "the recovered reply must be bit-identical");
    assert!(
        (engine.session_remaining("alice").unwrap() - 0.6).abs() < 1e-12,
        "the replay must cost zero ε"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A replay pass over a whole reply cache of tagged requests — every key
/// the per-analyst bound keeps — answers each from the cache bit for bit
/// and charges nothing: each request is charged once, however often it
/// is retried.
#[test]
fn a_full_cache_of_retries_replays_at_zero_epsilon() {
    let dir = scratch_dir("retry-pass");
    let engine = build_engine(7, Arc::new(Store::open(&dir).unwrap()));
    engine.open_session("alice", eps(1e6)).unwrap();
    let request = |key: u64| {
        let lo = (key as usize * 5) % 48;
        Request::range("pol", "ds", eps(0.5), lo, lo + 12)
    };
    let keys = REPLY_CACHE_PER_ANALYST as u64;
    let first: Vec<Response> = (0..keys)
        .map(|key| engine.serve_tagged("alice", key, &request(key)).unwrap())
        .collect();
    let remaining = engine.session_remaining("alice").unwrap();
    assert_eq!(remaining, 1e6 - 0.5 * keys as f64, "one charge per key");
    for (key, answer) in (0..keys).zip(&first) {
        let replay = engine.serve_tagged("alice", key, &request(key)).unwrap();
        assert_eq!(&replay, answer, "key {key} must replay bit-identically");
    }
    assert_eq!(
        engine.session_remaining("alice").unwrap().to_bits(),
        remaining.to_bits(),
        "the replay pass must charge zero ε"
    );
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One seeded chaos run: a fault schedule derived from `seed` is
/// injected into a tagged serve stream; the run returns the
/// acknowledged answers, the recovered spent bits and the recovered
/// state digest.
fn chaos_run(seed: u64, generation: u32) -> (Vec<Response>, u64, u64) {
    use blowfish::chaos::{ChaosRng, StoreFault, StorePlan};
    use blowfish::store::StoreConfig;
    let mut rng = ChaosRng::new(seed);
    let fault = match rng.next_below(3) {
        0 => StoreFault::FailWrite,
        1 => StoreFault::TornWrite,
        _ => StoreFault::FailSync,
    };
    let op = 4 + rng.next_below(9); // lands somewhere in the serve stream
    let dir = scratch_dir(&format!("chaos-sweep-{seed}-{generation}"));
    let mut acked = Vec::new();
    {
        let plan = Arc::new(StorePlan::scripted([(op, fault)]));
        let store = Store::open_with(
            &dir,
            StoreConfig {
                fault_plan: Some(Arc::clone(&plan)),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let engine = build_engine(1000 + seed, Arc::new(store));
        engine.open_session("alice", eps(8.0)).unwrap();
        for i in 0..10u64 {
            let lo = (i as usize * 3) % 40;
            let request = Request::range("pol", "ds", eps(0.25), lo, lo + 12);
            match engine.serve_tagged("alice", i, &request) {
                Ok(response) => acked.push(response),
                Err(_) => break, // the store poisoned — the process "dies"
            }
        }
    }
    // Recovery: every acknowledged charge is covered — and since each
    // charge is exactly 0.25, the recovered spend is the acked sum plus
    // at most the one in-flight frame a FailSync left durable but
    // unacknowledged. Both candidates are exactly representable, so the
    // comparison is bit-for-bit, not approximate.
    let store = Store::open(&dir).unwrap();
    let spent = store
        .recovered_state()
        .sessions
        .get("alice")
        .map_or(0.0, |s| s.spent);
    let acked_sum = 0.25 * acked.len() as f64;
    let with_in_flight = 0.25 * (acked.len() + 1) as f64;
    assert!(
        spent.to_bits() == acked_sum.to_bits() || spent.to_bits() == with_in_flight.to_bits(),
        "seed {seed}: recovered spent {spent} must be the acked sum {acked_sum} \
         or that plus the single in-flight charge"
    );

    // Generation 2 retries every key. Acked answers replay from the
    // recovered cache bit-identically; the faulted one either replays
    // (its frame survived) or serves fresh — in both cases each key
    // ends up charged exactly once: 10 × 0.25 on the nose.
    let engine = build_engine(1000 + seed, Arc::new(store));
    engine.open_session("alice", eps(8.0)).unwrap();
    let retried: Vec<Response> = (0..10u64)
        .map(|i| {
            let lo = (i as usize * 3) % 40;
            let request = Request::range("pol", "ds", eps(0.25), lo, lo + 12);
            engine.serve_tagged("alice", i, &request).unwrap()
        })
        .collect();
    for (i, answer) in acked.iter().enumerate() {
        assert_eq!(
            answer, &retried[i],
            "seed {seed}: acknowledged answer {i} must replay bit-identically"
        );
    }
    let final_spent = 8.0 - engine.session_remaining("alice").unwrap();
    assert_eq!(
        final_spent.to_bits(),
        2.5f64.to_bits(),
        "seed {seed}: after retries every request is charged exactly once"
    );
    let digest = {
        drop(engine);
        let store = Store::open(&dir).unwrap();
        let d = store.recovered_state().digest();
        drop(store);
        d
    };
    std::fs::remove_dir_all(&dir).unwrap();
    (retried, final_spent.to_bits(), digest)
}

/// The acceptance sweep: across seeds, every run recovers with spent ε
/// equal to the acknowledged sum bit-for-bit, and the **same seed**
/// (hence the same fault schedule) reproduces byte-identical answers
/// and a byte-identical recovered ledger.
#[test]
fn chaos_sweep_never_resurrects_and_replays_deterministically() {
    for seed in 0..6u64 {
        let a = chaos_run(seed, 0);
        let b = chaos_run(seed, 1);
        assert_eq!(
            a, b,
            "seed {seed}: same fault schedule must replay byte-identically"
        );
    }
}

/// An acknowledged charge always survives: whatever prefix of commits
/// completed, recovery covers all of them (torn bytes can only eat the
/// *unacknowledged* suffix).
#[test]
fn acknowledged_charges_always_survive_recovery() {
    let dir = scratch_dir("acked");
    let store = Store::open(&dir).unwrap();
    store
        .commit(&[Record::session_opened("alice", 100.0)])
        .unwrap();
    let mut acked = 0.0f64;
    for i in 0..20 {
        let e = (i + 1) as f64 / 256.0;
        store
            .commit(&[Record::charged("alice", &format!("q{i}"), e)])
            .unwrap();
        acked += e;
        // Crash after any prefix of acknowledgements: reopen a parallel
        // store on the same directory contents.
        if i % 5 == 4 {
            let copy = scratch_dir("acked-copy");
            for entry in std::fs::read_dir(&dir).unwrap() {
                let p = entry.unwrap().path();
                std::fs::copy(&p, copy.join(p.file_name().unwrap())).unwrap();
            }
            let recovered = Store::open(&copy).unwrap();
            let s = &recovered.recovered_state().sessions["alice"];
            assert!(
                s.spent >= acked - 1e-12,
                "after {} acks: recovered {} < acknowledged {acked}",
                i + 1,
                s.spent
            );
            std::fs::remove_dir_all(&copy).unwrap();
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
