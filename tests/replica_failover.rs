//! Replicated-serving integration suite: byte-identical replicas,
//! ε-lossless failover under a scripted mid-burst leader kill, and
//! same-seed cluster determinism.
//!
//! The guarantees under test (see `bf-replica`'s crate docs):
//!
//! 1. Every replica that applied index *i* has **byte-identical**
//!    per-analyst ledgers, reply caches and answers at *i* — replication
//!    is deterministic replay, not answer shipping.
//! 2. Killing the leader at an arbitrary log index loses **zero acked
//!    ε**: a promoted follower serves every client-acked charge exactly
//!    once, and retried requests replay their durable answers at zero
//!    additional ε.
//! 3. Two clusters with the same seed and the same submission order
//!    produce byte-identical answers and ledgers — the property that
//!    makes cross-datacenter divergence detectable by digest comparison.

use blowfish::chaos::{ReplicaFault, ReplicaPlan};
use blowfish::prelude::*;
use blowfish::replica::{Replica, ReplicaConfig};
use blowfish::store::scratch_dir;
use blowfish::store::StoreState;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Identical on every replica, like the seed — the deterministic-replay
/// precondition.
fn setup(engine: &Engine) {
    let domain = Domain::line(48).unwrap();
    engine
        .register_policy("pol", Policy::distance_threshold(domain.clone(), 3))
        .unwrap();
    let rows: Vec<usize> = (0..480).map(|i| (i * 13) % 48).collect();
    engine
        .register_dataset("ds", Dataset::from_rows(domain, rows).unwrap())
        .unwrap();
}

fn spawn(tag: &str, seed: u64, quorum: usize, plan: Option<Arc<ReplicaPlan>>) -> Replica {
    Replica::start(
        scratch_dir(tag),
        "127.0.0.1:0",
        "127.0.0.1:0",
        ReplicaConfig {
            seed,
            quorum,
            fault_plan: plan,
            ..ReplicaConfig::default()
        },
        setup,
    )
    .unwrap()
}

/// A quorum-2 leader with two followers streaming from it.
fn trio(tag: &str, seed: u64) -> (Replica, Replica, Replica) {
    let leader = spawn(&format!("{tag}-l"), seed, 2, None);
    let f1 = spawn(&format!("{tag}-f1"), seed, 2, None);
    let f2 = spawn(&format!("{tag}-f2"), seed, 2, None);
    leader.lead();
    let hint = leader.client_addr().to_string();
    f1.follow(leader.peer_addr(), &hint);
    f2.follow(leader.peer_addr(), &hint);
    (leader, f1, f2)
}

/// The disk image a crash at this instant would leave: a copy of the
/// live node's WAL directory, taken while it runs. What the node has
/// only staged — its newest `LogApplied` marks — is in memory and so not
/// in the image. (`LOCK` belongs to the process that died.)
fn crash_image(r: &Replica, tag: &str) -> PathBuf {
    let image = scratch_dir(tag);
    for entry in std::fs::read_dir(r.engine().store().unwrap().dir()).unwrap() {
        let entry = entry.unwrap();
        if entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
        }
    }
    image
}

/// A fresh process on a crash image.
fn restart(image: &Path, seed: u64, quorum: usize) -> Replica {
    let cfg = ReplicaConfig {
        seed,
        quorum,
        ..ReplicaConfig::default()
    };
    Replica::start(image, "127.0.0.1:0", "127.0.0.1:0", cfg, setup).unwrap()
}

/// Everything the node's store knows, staged records included.
fn state(r: &Replica) -> StoreState {
    r.engine().store().unwrap().current_state()
}

fn spent_bits(r: &Replica, analyst: &str) -> u64 {
    state(r).sessions[analyst].spent.to_bits()
}

fn await_applied(r: &Replica, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while r.status().applied < target {
        assert!(
            Instant::now() < deadline,
            "replica stuck at applied={} waiting for {target}",
            r.status().applied
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The cross-replica comparable ledger signature: `(label, exact ε
/// bits)` in charge order. WAL sequence numbers are local bookkeeping
/// (replication records interleave differently per replica) and are
/// deliberately excluded.
fn ledger_sig(r: &Replica, analyst: &str) -> Vec<(String, u64)> {
    r.engine()
        .ledger_history(analyst)
        .unwrap()
        .iter()
        .map(|e| (e.label.clone(), e.eps_bits))
        .collect()
}

/// Submits `request` under the idempotency key `rid` and waits for it.
fn submit(
    client: &mut Client,
    analyst: &str,
    rid: u64,
    request: &Request,
) -> Result<Response, NetError> {
    let id = client.submit_tagged(analyst, request, Some(rid), None)?;
    client.wait(id)
}

fn call(client: &mut Client, analyst: &str, rid: u64) -> Result<Response, NetError> {
    // Vary the query with the rid so answers are distinguishable.
    let lo = (rid % 16) as usize;
    let request = Request::range("pol", "ds", eps(0.125), lo, lo + 24);
    submit(client, analyst, rid, &request)
}

#[test]
fn three_replicas_converge_to_byte_identical_state() {
    let leader = spawn("failover-conv-l", 71, 2, None);
    let f1 = spawn("failover-conv-f1", 71, 2, None);
    let f2 = spawn("failover-conv-f2", 71, 2, None);
    leader.lead();
    let hint = leader.client_addr().to_string();
    f1.follow(leader.peer_addr(), &hint);
    f2.follow(leader.peer_addr(), &hint);

    let mut client = Client::connect(leader.client_addr()).unwrap();
    assert_eq!(client.open_session("alice", 4.0).unwrap(), 4.0);
    let answers: Vec<Response> = (1..=12)
        .map(|rid| call(&mut client, "alice", rid).unwrap())
        .collect();

    // 1 open + 12 submissions; quorum 2 acked every one, now let both
    // followers finish replay.
    await_applied(&leader, 13);
    await_applied(&f1, 13);
    await_applied(&f2, 13);

    let sig = ledger_sig(&leader, "alice");
    assert_eq!(sig.len(), 12);
    assert_eq!(sig, ledger_sig(&f1, "alice"), "f1 ledger diverged");
    assert_eq!(sig, ledger_sig(&f2, "alice"), "f2 ledger diverged");

    // Every replica's durable reply cache holds the exact answer the
    // client saw — same bits, derived independently by local replay.
    for (i, answer) in answers.iter().enumerate() {
        let rid = (i + 1) as u64;
        for r in [&leader, &f1, &f2] {
            assert_eq!(
                r.engine().cached_reply("alice", rid).as_ref(),
                Some(answer),
                "replica answer diverged at rid {rid}"
            );
        }
    }

    // Followers serve reads locally (the scale-out path).
    let mut fc = Client::connect(f2.client_addr()).unwrap();
    let budget = fc.budget("alice").unwrap();
    assert_eq!(budget.served, 12);
    assert_eq!(budget.spent.to_bits(), (12.0 * 0.125f64).to_bits());

    client.goodbye().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();
}

#[test]
fn leader_kill_mid_burst_loses_no_acked_epsilon_and_double_charges_nothing() {
    // The chaos plan kills the leader at its 8th sequenced entry:
    // 1 session open + 6 answered submissions, then the 7th submission
    // hits the fault mid-burst.
    let plan = Arc::new(ReplicaPlan::scripted([(8, ReplicaFault::KillLeader)]));
    let leader = spawn("failover-kill-l", 72, 2, Some(plan));
    let f1 = spawn("failover-kill-f1", 72, 2, None);
    let f2 = spawn("failover-kill-f2", 72, 2, None);
    leader.lead();
    let hint = leader.client_addr().to_string();
    f1.follow(leader.peer_addr(), &hint);
    f2.follow(leader.peer_addr(), &hint);

    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("alice", 4.0).unwrap();
    let mut acked: Vec<(u64, Response)> = Vec::new();
    let mut burst_error = None;
    for rid in 1..=20 {
        match call(&mut client, "alice", rid) {
            Ok(resp) => acked.push((rid, resp)),
            Err(e) => {
                burst_error = Some(e);
                break;
            }
        }
    }
    assert_eq!(acked.len(), 6, "the scripted kill fires on the 7th query");
    assert!(
        matches!(
            burst_error,
            Some(NetError::Remote(WireError::NotLeader { .. }))
        ),
        "the killed leader must refuse, got {burst_error:?}"
    );
    assert!(leader.status().dead);

    // Operator failover: `promote_over` probes the survivors and only
    // promotes the candidate holding the longest durable log — try one,
    // and its refusal names the peer to promote instead.
    let (promoted, other) = match f1.promote_over(&[f2.peer_addr(), leader.peer_addr()]) {
        Ok(()) => (&f1, &f2),
        Err(e) => {
            assert!(matches!(e, blowfish::replica::ReplicaError::Behind { .. }));
            f2.promote_over(&[f1.peer_addr(), leader.peer_addr()])
                .unwrap();
            (&f2, &f1)
        }
    };
    other.follow(promoted.peer_addr(), &promoted.client_addr().to_string());
    let st = promoted.status();
    assert!(st.leader);
    assert_eq!(st.epoch, 1, "promotion fences the old epoch");
    assert_eq!(st.applied, st.commit_index, "promotion finishes replay");

    // The client reconnects (cluster-aware: it only needs *a* member;
    // NotLeader redirects hop to the promoted node) and resubmits the
    // whole burst under the same idempotency keys.
    let mut c2 =
        Client::connect_cluster([other.client_addr(), promoted.client_addr()].as_slice()).unwrap();
    if let Err(e) = c2.open_session("alice", 4.0) {
        // Landed on the follower: it refuses the write with the
        // promoted leader's address, and the client hops there.
        let NetError::Remote(WireError::NotLeader { leader }) = e else {
            panic!("expected NotLeader from the follower, got {e:?}");
        };
        assert_eq!(leader, promoted.client_addr().to_string());
        c2.reconnect_to(promoted.client_addr()).unwrap();
        c2.open_session("alice", 4.0).unwrap();
    }
    for rid in 1..=20u64 {
        let resp = match call(&mut c2, "alice", rid) {
            Ok(resp) => resp,
            Err(NetError::Remote(WireError::NotLeader { .. })) => {
                // First hop landed on the follower: hop to the hinted
                // leader (reattaching the session) and resubmit.
                c2.reconnect_to(promoted.client_addr()).unwrap();
                call(&mut c2, "alice", rid).unwrap()
            }
            Err(e) => panic!("resubmit of rid {rid} failed: {e:?}"),
        };
        if let Some((_, first)) = acked.iter().find(|(r, _)| *r == rid) {
            assert_eq!(
                &resp, first,
                "acked rid {rid} must replay byte-identically after failover"
            );
        }
    }

    // Exactly-once accounting: 20 distinct keys, one 0.125 charge each —
    // replays and the failover added nothing.
    let snap = promoted.engine().session_snapshot("alice").unwrap();
    assert_eq!(snap.spent().to_bits(), (20.0 * 0.125f64).to_bits());
    let sig = ledger_sig(promoted, "alice");
    assert_eq!(sig.len(), 20, "each key charged exactly once");

    // The re-following peer converges to the promoted leader's state.
    await_applied(other, promoted.status().applied);
    assert_eq!(sig, ledger_sig(other, "alice"));

    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();
}

#[test]
fn same_seed_clusters_agree_byte_for_byte() {
    let run = |tag: &str| -> (Vec<Response>, Vec<(String, u64)>) {
        let leader = spawn(&format!("{tag}-l"), 99, 2, None);
        let follower = spawn(&format!("{tag}-f"), 99, 2, None);
        leader.lead();
        follower.follow(leader.peer_addr(), &leader.client_addr().to_string());

        let mut client = Client::connect(leader.client_addr()).unwrap();
        client.open_session("alice", 4.0).unwrap();
        client.open_session("bob", 2.0).unwrap();
        let mut answers = Vec::new();
        for rid in 1..=8 {
            answers.push(call(&mut client, "alice", rid).unwrap());
            answers.push(call(&mut client, "bob", 100 + rid).unwrap());
        }
        let mut sig = ledger_sig(&leader, "alice");
        sig.extend(ledger_sig(&leader, "bob"));

        // Both replicas in the cluster agree before we compare across
        // clusters.
        await_applied(&follower, leader.status().applied);
        let mut fsig = ledger_sig(&follower, "alice");
        fsig.extend(ledger_sig(&follower, "bob"));
        assert_eq!(sig, fsig, "intra-cluster divergence in {tag}");

        client.goodbye().unwrap();
        follower.shutdown().unwrap();
        leader.shutdown().unwrap();
        (answers, sig)
    };

    let (answers_a, sig_a) = run("failover-twin-a");
    let (answers_b, sig_b) = run("failover-twin-b");
    assert_eq!(answers_a, answers_b, "same-seed clusters must agree");
    assert_eq!(sig_a, sig_b);
}

/// The ship loop is wake-up driven: a serial writer on a quorum-2
/// cluster gets an answer once a quorum holds the entry and its charge
/// commits, not after a chain of poll intervals (which used to make
/// this 8 ms a write), and the replicas still end byte-identical.
#[test]
fn serial_replicated_writes_never_wait_on_a_poll() {
    let (leader, f1, f2) = trio("failover-serial", 74);

    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("serial", 100.0).unwrap();
    let started = Instant::now();
    for rid in 1..=200 {
        call(&mut client, "serial", rid).unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "200 serial replicated writes took {:?}",
        started.elapsed()
    );

    let digest = |r: &Replica| r.engine().store().unwrap().current_state().digest();
    for r in [&leader, &f1, &f2] {
        await_applied(r, 201);
        assert_eq!(digest(r), digest(&leader), "replica state diverged");
    }
    client.goodbye().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();
}

/// The lifecycle is wake-up driven too: a follower hears `follow()` on
/// the node condvar, a re-point cuts its old link, and `shutdown` joins
/// threads that are waiting on something it just ended — so forming a
/// cluster, failing it over and stopping it cost their work, not a share
/// of a 25 ms heartbeat (under which formation read ≈ 24 ms here and
/// shutdown ≈ 60 ms; the re-point was already quick, the follower having
/// spun on its dead link). Medians over 30 formations, so one
/// descheduled thread on a busy host moves nothing; the bounds sit 5–6×
/// over what a quiet host reads (≈ 1–2, ≈ 1 and ≈ 6.5 ms) because this
/// box has phases in which every test here runs 4–5× slower, and still
/// under what one nap costs.
#[test]
fn the_lifecycle_has_no_timer_on_it() {
    const FORMATIONS: usize = 30;
    let digest = |r: &Replica| state(r).digest();
    let (mut formed, mut repointed, mut stopped) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..FORMATIONS {
        let leader = spawn(&format!("failover-life-{i}-l"), 76, 2, None);
        let f1 = spawn(&format!("failover-life-{i}-f1"), 76, 2, None);
        let f2 = spawn(&format!("failover-life-{i}-f2"), 76, 2, None);
        leader.lead();
        let mut client = Client::connect(leader.client_addr()).unwrap();

        // Formation: `follow()` to the first write a follower acked.
        let start = Instant::now();
        let hint = leader.client_addr().to_string();
        f1.follow(leader.peer_addr(), &hint);
        f2.follow(leader.peer_addr(), &hint);
        client.open_session("alice", 4.0).unwrap();
        formed.push(start.elapsed());
        call(&mut client, "alice", 1).unwrap();
        for r in [&leader, &f1, &f2] {
            await_applied(r, 2);
            assert_eq!(digest(r), digest(&leader), "formation {i} diverged");
        }

        // Fail-over: the survivor's re-point to its first acked write on
        // the new leader (quorum 2 of the two left, so it must ack).
        leader.kill();
        let (promoted, other) = match f1.promote_over(&[f2.peer_addr(), leader.peer_addr()]) {
            Ok(()) => (&f1, &f2),
            Err(_) => {
                f2.promote_over(&[f1.peer_addr(), leader.peer_addr()])
                    .unwrap();
                (&f2, &f1)
            }
        };
        let mut c2 = Client::connect(promoted.client_addr()).unwrap();
        let start = Instant::now();
        other.follow(promoted.peer_addr(), &promoted.client_addr().to_string());
        c2.open_session("alice", 4.0).unwrap();
        repointed.push(start.elapsed());
        call(&mut c2, "alice", 2).unwrap();
        await_applied(other, promoted.status().applied);
        assert_eq!(digest(other), digest(promoted), "fail-over {i} diverged");

        let start = Instant::now();
        f2.shutdown().unwrap();
        f1.shutdown().unwrap();
        leader.shutdown().unwrap();
        stopped.push(start.elapsed());
    }
    let median = |v: &mut Vec<Duration>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (formed, repointed, stopped) = (
        median(&mut formed),
        median(&mut repointed),
        median(&mut stopped),
    );
    assert!(
        formed < Duration::from_millis(10),
        "follow() to the first quorum-acked write: median {formed:?}"
    );
    assert!(
        repointed < Duration::from_millis(10),
        "re-point to the first acked write on the new leader: median {repointed:?}"
    );
    assert!(
        stopped < Duration::from_millis(40),
        "three-replica shutdown: median {stopped:?}"
    );
}

/// Per applied entry a node syncs once — the entry's `Replicated`
/// append. Its charge and its execution mark are staged and ride the
/// next of those instead of paying syncs of their own.
#[test]
fn an_applied_entry_costs_each_node_one_sync() {
    let (leader, f1, f2) = trio("failover-syncs", 75);
    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("alice", 100.0).unwrap();
    for r in [&leader, &f1, &f2] {
        await_applied(r, 1);
    }
    let syncs = |r: &Replica| r.engine().store().unwrap().stats().syncs;
    let before = [&leader, &f1, &f2].map(syncs);
    const WRITES: u64 = 50;
    for rid in 1..=WRITES {
        call(&mut client, "alice", rid).unwrap();
    }
    for (r, before) in [&leader, &f1, &f2].into_iter().zip(before) {
        await_applied(r, 1 + WRITES);
        // One append per write — a serial client's entries reach a
        // follower one `Replicate` frame each — and nothing else.
        let paid = syncs(r) - before;
        assert!(
            paid <= WRITES + 2,
            "{paid} syncs for {WRITES} applied entries"
        );
    }
    client.goodbye().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();
}

/// Crash point (a): the leader dies holding the client's last answer.
/// The entry is durable — the acknowledgement waited for its append —
/// but its charge, reply and execution mark were staged, so the image
/// is one charge short; the restarted node finds the entry pending,
/// runs it again at the same ledger position to the same charge and
/// bytes, and ends where the live leader stood.
#[test]
fn a_leader_crash_image_replays_the_marks_it_lost_at_zero_epsilon() {
    let (leader, f1, f2) = trio("image-leader", 81);
    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("alice", 4.0).unwrap();
    let answers: Vec<Response> = (1..=5)
        .map(|rid| call(&mut client, "alice", rid).unwrap())
        .collect();
    // The client holds answer 5 (entry 6); nothing commits after it.
    let image = crash_image(&leader, "image-leader-copy");
    assert_eq!(leader.status().applied, 6);
    let live = state(&leader);

    let restarted = restart(&image, 81, 1);
    let st = restarted.status();
    assert_eq!(st.log_index, 6);
    assert_eq!(st.applied, 5, "entry 6's mark was staged, never durable");
    assert_eq!(
        spent_bits(&restarted, "alice"),
        (live.sessions["alice"].spent - 0.125).to_bits(),
        "entry 6's charge was staged beside its mark"
    );
    restarted.lead();
    await_applied(&restarted, 6);
    let replayed = state(&restarted);
    assert_eq!(replayed.sessions, live.sessions, "replay charged something");
    assert_eq!(replayed.replies, live.replies);
    assert_eq!(replayed.digest(), live.digest());

    // The acknowledged request id replays the bytes the client holds.
    let mut c2 = Client::connect(restarted.client_addr()).unwrap();
    assert_eq!(c2.open_session("alice", 4.0).unwrap(), 4.0 - 5.0 * 0.125);
    assert_eq!(call(&mut c2, "alice", 5).unwrap(), answers[4]);
    assert_eq!(
        spent_bits(&restarted, "alice"),
        live.sessions["alice"].spent.to_bits()
    );

    c2.goodbye().unwrap();
    client.goodbye().unwrap();
    restarted.shutdown().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();
}

/// Crash point (b): the same instant on a follower. The restarted
/// follower resubscribes past its durable log, learns the commit point,
/// replays the entries whose charges and marks it lost, and is
/// digest-equal again — then keeps following.
#[test]
fn a_follower_crash_image_refollows_to_a_digest_equal_state() {
    let (leader, f1, f2) = trio("image-follower", 82);
    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("alice", 4.0).unwrap();
    for rid in 1..=5 {
        call(&mut client, "alice", rid).unwrap();
    }
    await_applied(&f1, 6);
    let image = crash_image(&f1, "image-follower-copy");
    f1.shutdown().unwrap();

    let restarted = restart(&image, 82, 2);
    let st = restarted.status();
    // A follower's staged frames ride its next append, and its last was
    // entry 6's: entry 6's charge is never in the image. Entry 5's is,
    // with its mark, unless that append overtook the applier's run of
    // entry 5. Either way the image is at least one charge short, every
    // durable mark has its charge, and at most one charge is ahead of
    // the marks (entry 1 opened the session).
    assert_eq!(st.log_index, 6);
    let recovered = state(&restarted);
    let image = &recovered.sessions["alice"];
    assert!(
        image.served < 5,
        "entry 6's charge was staged, never durable"
    );
    assert!(
        image.served + 1 == st.applied || image.served == st.applied,
        "{} charges beside {} marks",
        image.served,
        st.applied
    );
    assert_eq!(image.spent, image.served as f64 * 0.125);
    restarted.follow(leader.peer_addr(), &leader.client_addr().to_string());
    await_applied(&restarted, 6);
    assert_eq!(state(&restarted).digest(), state(&leader).digest());
    assert_eq!(
        ledger_sig(&restarted, "alice"),
        ledger_sig(&leader, "alice")
    );

    // The leader's client never reopened its session: the restarted
    // node serves it from the ledger it recovered — rid 1's range again,
    // under a fresh id. Noise follows alice's ledger position, which the
    // image replays, so the crashed node draws what the leader draws.
    call(&mut client, "alice", 17).unwrap();
    await_applied(&restarted, 7);
    await_applied(&leader, 7);
    assert_eq!(state(&restarted).digest(), state(&leader).digest());

    client.goodbye().unwrap();
    restarted.shutdown().unwrap();
    f2.shutdown().unwrap();
    leader.shutdown().unwrap();
}

/// Crash point (c): the entry whose mark is lost committed nothing of
/// its own — an idempotent replay of an acknowledged request id, then a
/// submit the budget refuses — so no `Replied` record stands in for the
/// mark. Running each again changes no ledger bit.
#[test]
fn rerunning_an_entry_that_committed_nothing_changes_no_ledger_bit() {
    let solo = spawn("image-idle", 83, 1, None);
    solo.lead();
    let mut client = Client::connect(solo.client_addr()).unwrap();
    client.open_session("alice", 0.25).unwrap(); // entry 1
    let first = call(&mut client, "alice", 1).unwrap(); // 2
    call(&mut client, "alice", 2).unwrap(); // 3: the budget is spent

    let check = |n: u64, tag: &str| {
        let image = crash_image(&solo, tag);
        let live = state(&solo);
        let restarted = restart(&image, 83, 1);
        let st = restarted.status();
        assert_eq!((st.log_index, st.applied), (n, n - 1), "{tag}");
        let recovered = state(&restarted);
        let ledger = ledger_sig(&restarted, "alice");
        restarted.lead();
        await_applied(&restarted, n);
        let rerun = state(&restarted);
        assert_eq!(rerun.sessions, recovered.sessions, "{tag}");
        assert_eq!(rerun.replies, recovered.replies, "{tag}");
        assert_eq!(ledger_sig(&restarted, "alice"), ledger, "{tag}");
        assert_eq!(rerun.sessions, live.sessions, "{tag}");
        assert_eq!(rerun.digest(), live.digest(), "{tag}");
        restarted.shutdown().unwrap();
    };

    assert_eq!(call(&mut client, "alice", 1).unwrap(), first); // 4
    check(4, "image-idle-replay");
    let refused = call(&mut client, "alice", 3); // 5
    assert!(
        matches!(
            refused,
            Err(NetError::Remote(WireError::BudgetRefused { .. }))
        ),
        "got {refused:?}"
    );
    check(5, "image-idle-refused");
    assert_eq!(spent_bits(&solo, "alice"), 0.25f64.to_bits());

    client.goodbye().unwrap();
    solo.shutdown().unwrap();
}

/// Crash point (d): the next write's append carries the previous
/// entry's mark to disk, so an image taken one write later recovers
/// that entry applied, with nothing to replay for it.
#[test]
fn the_next_write_makes_the_previous_mark_durable() {
    let solo = spawn("image-next", 84, 1, None);
    solo.lead();
    let mut client = Client::connect(solo.client_addr()).unwrap();
    client.open_session("alice", 4.0).unwrap(); // entry 1
    call(&mut client, "alice", 1).unwrap(); // 2
    let early = restart(&crash_image(&solo, "image-next-a"), 84, 1);
    assert_eq!(early.status().applied, 1);
    call(&mut client, "alice", 2).unwrap(); // 3
    let late = restart(&crash_image(&solo, "image-next-b"), 84, 1);
    let st = late.status();
    assert_eq!((st.log_index, st.applied), (3, 2));
    // Entry 2's charge rode entry 3's append beside its mark; entry 3's
    // is staged.
    assert_eq!(spent_bits(&late, "alice"), 0.125f64.to_bits());
    late.lead();
    await_applied(&late, 3);
    assert_eq!(state(&late).digest(), state(&solo).digest());

    client.goodbye().unwrap();
    late.shutdown().unwrap();
    early.shutdown().unwrap();
    solo.shutdown().unwrap();
}

/// Twelve tagged writes for a 1 ε session: ranges and histograms, one
/// budget refusal (rid 6) and one idempotent retry (rid 2 again).
fn mixed_writes() -> Vec<(u64, Request)> {
    let range = |e, lo| Request::range("pol", "ds", eps(e), lo, lo + 20);
    let histogram = |e| Request::histogram("pol", "ds", eps(e));
    vec![
        (1, range(0.125, 0)),
        (2, histogram(0.125)),
        (3, range(0.125, 7)),
        (2, histogram(0.125)),
        (5, histogram(0.0625)),
        (6, range(4.0, 3)),
        (7, range(0.0625, 11)),
        (8, histogram(0.0625)),
        (9, range(0.0625, 1)),
        (10, range(0.0625, 19)),
        (11, histogram(0.0625)),
        (12, range(0.0625, 5)),
    ]
}

/// Drives [`mixed_writes`] through `leader` and, after each answer,
/// crashes it on paper: a crash image of its WAL, restarted at quorum 1
/// and leading, must replay to the live digest and ledger, answer every
/// acknowledged rid with the bytes the client holds, and charge nothing
/// for those retries.
fn crash_after_every_write(leader: &Replica, seed: u64, tag: &str) {
    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("alice", 1.0).unwrap();
    let mut acked: Vec<(u64, Request, Response)> = Vec::new();
    for (n, (rid, request)) in mixed_writes().into_iter().enumerate() {
        match submit(&mut client, "alice", rid, &request) {
            Ok(answer) => acked.push((rid, request, answer)),
            Err(NetError::Remote(WireError::BudgetRefused { .. })) => assert_eq!(rid, 6),
            Err(e) => panic!("write {n} (rid {rid}) failed: {e:?}"),
        }
        let live = state(leader);
        let live_sig = ledger_sig(leader, "alice");
        let restarted = restart(&crash_image(leader, &format!("{tag}-{n}")), seed, 1);
        restarted.lead();
        await_applied(&restarted, leader.status().applied);
        assert_eq!(state(&restarted).digest(), live.digest(), "after write {n}");
        assert_eq!(ledger_sig(&restarted, "alice"), live_sig, "after write {n}");

        let spent = spent_bits(&restarted, "alice");
        assert_eq!(spent, live.sessions["alice"].spent.to_bits());
        let mut retry = Client::connect(restarted.client_addr()).unwrap();
        retry.open_session("alice", 1.0).unwrap();
        for (rid, request, answer) in &acked {
            let again = submit(&mut retry, "alice", *rid, request).unwrap();
            assert_eq!(&again, answer, "rid {rid} after write {n}");
        }
        assert_eq!(spent_bits(&restarted, "alice"), spent, "after write {n}");
        retry.goodbye().unwrap();
        restarted.shutdown().unwrap();
    }
    assert_eq!(acked.len(), 11, "every write but the refusal answered");
    client.goodbye().unwrap();
}

/// A crash after any acknowledged write — the charge of which was only
/// staged when the client got its answer — loses no acknowledged ε and
/// double-charges nothing, on a lone node and on a quorum-2 leader.
#[test]
fn a_crash_after_every_acknowledged_write_replays_to_the_live_state() {
    let solo = spawn("every-write-solo", 87, 1, None);
    solo.lead();
    crash_after_every_write(&solo, 87, "every-write-solo-image");
    solo.shutdown().unwrap();

    let (leader, f1, f2) = trio("every-write-trio", 88);
    crash_after_every_write(&leader, 88, "every-write-trio-image");
    let digest = state(&leader).digest();
    for r in [&f1, &f2] {
        await_applied(r, leader.status().applied);
        assert_eq!(state(r).digest(), digest, "replica state diverged");
    }
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();
}

/// An entry two followers acknowledged survives the leader's crash
/// before the leader's own append of it is durable. The leader ships an
/// entry before its fsync and, at quorum 2 of 3, the followers commit it
/// alone; the leader applies nothing past its durable index. A crash
/// image taken then lacks the entry, so it must not lead from that log.
/// It follows the follower that holds the entry instead, and replays to
/// the same state, and the entry's request id answers with the
/// followers' bytes at zero ε.
#[test]
fn an_entry_two_followers_hold_survives_the_leaders_crash_before_its_append() {
    use blowfish::chaos::{StoreFault, StorePlan};
    use blowfish::replica::ReplicaError;
    let seed = 89;
    // Every one of the leader's fsyncs first sleeps 400 ms.
    let slow = StorePlan::every_kth(1, StoreFault::DelaySyncMicros(400_000));
    let config = StoreConfig {
        fault_plan: Some(Arc::new(slow)),
        ..StoreConfig::default()
    };
    let store = Store::open_with(scratch_dir("ahead-l"), config).unwrap();
    let cfg = ReplicaConfig {
        seed,
        quorum: 2,
        ..ReplicaConfig::default()
    };
    let leader =
        Replica::start_on(Arc::new(store), "127.0.0.1:0", "127.0.0.1:0", cfg, setup).unwrap();
    let f1 = spawn("ahead-f1", seed, 2, None);
    let f2 = spawn("ahead-f2", seed, 2, None);
    leader.lead();
    let hint = leader.client_addr().to_string();
    f1.follow(leader.peer_addr(), &hint);
    f2.follow(leader.peer_addr(), &hint);
    let mut client = Client::connect(leader.client_addr()).unwrap();
    client.open_session("alice", 4.0).unwrap(); // entry 1
    call(&mut client, "alice", 1).unwrap(); // 2

    // Entry 3: its client waits on the leader's delayed fsync.
    let writer = std::thread::spawn(move || {
        let outcome = call(&mut client, "alice", 2);
        (client, outcome)
    });
    await_applied(&f1, 3);
    await_applied(&f2, 3);
    let status = leader.status();
    assert_eq!(
        (status.log_index, status.applied),
        (2, 2),
        "entry 3 is not durable here"
    );
    let image = crash_image(&leader, "ahead-l-image");
    leader.kill();
    let (client, _) = writer.join().unwrap();
    drop(client);

    let crashed = restart(&image, seed, 2);
    assert_eq!(crashed.status().log_index, 2, "the image lacks entry 3");
    match crashed.promote_over(&[f1.peer_addr(), f2.peer_addr()]) {
        Err(ReplicaError::Behind {
            peer_high_water: 3,
            local_high_water: 2,
            ..
        }) => {}
        other => panic!("the short log must not lead: {other:?}"),
    }
    assert!(!crashed.status().leader);

    f1.promote_over(&[f2.peer_addr(), crashed.peer_addr(), leader.peer_addr()])
        .unwrap();
    let hint = f1.client_addr().to_string();
    f2.follow(f1.peer_addr(), &hint);
    crashed.follow(f1.peer_addr(), &hint);
    await_applied(&crashed, 3);
    assert_eq!(state(&crashed).digest(), state(&f1).digest());
    assert_eq!(ledger_sig(&crashed, "alice"), ledger_sig(&f1, "alice"));

    // Entry 3's request id replays the bytes the followers booked.
    let booked = state(&f2).cached_reply("alice", 2).unwrap().payload.clone();
    let spent = spent_bits(&f1, "alice");
    let mut retry = Client::connect(f1.client_addr()).unwrap();
    retry.open_session("alice", 4.0).unwrap();
    assert_eq!(call(&mut retry, "alice", 2).unwrap().to_bytes(), booked);
    assert_eq!(spent_bits(&f1, "alice"), spent, "the replay charged ε");
    let head = f1.status().applied;
    await_applied(&crashed, head);
    assert_eq!(state(&crashed).digest(), state(&f1).digest());

    retry.goodbye().unwrap();
    crashed.shutdown().unwrap();
    f2.shutdown().unwrap();
    f1.shutdown().unwrap();
    leader.shutdown().unwrap();
}
