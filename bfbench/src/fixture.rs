//! Seeded inputs and the stacks the workloads run against: data,
//! request streams, the store-backed wire stack, the replica cluster,
//! and the run directory every WAL lives in.

use bf_core::{Epsilon, Policy};
use bf_data::{seeded_rng, synthetic_clusters, zipf_histogram_dataset};
use bf_domain::{Dataset, Domain, PointSet};
use bf_engine::{Engine, Request, Store};
use bf_mechanisms::kmeans::KmeansSecretSpec;
use bf_net::{Client, NetConfig, NetServer};
use bf_replica::{Replica, ReplicaConfig};
use bf_server::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// ε of every request. Dyadic, so `n` sequential ledger additions equal
/// `n × ε` bit for bit and the ledger checks can demand exact equality.
pub const EPS: f64 = 1.0 / 1024.0;
/// Session budget: large enough that no run exhausts it.
pub const BUDGET: f64 = 1e9;
/// Width of every range query, `[lo, lo + RANGE_SPAN]`.
pub const RANGE_SPAN: usize = 100;
/// Requests served before timing starts, per incarnation.
pub const WARMUP: u64 = 20;

/// The analyst of every single-analyst stream.
pub const ANALYST: &str = "analyst-0";
pub const POLICY: &str = "pol";
pub const DATASET: &str = "ds";
pub const POINTS: &str = "pts";

pub fn eps() -> Epsilon {
    Epsilon::new(EPS).expect("EPS is a valid epsilon")
}

pub fn budget() -> Epsilon {
    Epsilon::new(BUDGET).expect("BUDGET is a valid epsilon")
}

/// SplitMix64 finaliser: the request streams and derived seeds are pure
/// functions of `(seed, stream, i)` through this.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th draw of stream `stream` under `seed`.
pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ i)
}

/// The engine seed the benchmark derives from its own seed; the engine
/// never sees the workload seed itself.
pub fn engine_seed(seed: u64) -> u64 {
    draw(seed, 0xE6, 0)
}

/// The shape of an ordered-domain fixture: a Zipf histogram over a line
/// under a distance-threshold policy.
pub struct Shape {
    size: usize,
    support: usize,
    records: usize,
    theta: u64,
}

/// The wire workloads' fixture.
pub const WIRE: Shape = Shape {
    size: 4096,
    support: 400,
    records: 100_000,
    theta: 4,
};

/// The in-process workload's larger fixture.
pub const BATCH: Shape = Shape {
    size: 65_536,
    support: 2_000,
    records: 500_000,
    theta: 8,
};

impl Shape {
    pub fn policy(&self) -> Policy {
        let domain = Domain::line(self.size).expect("non-empty line domain");
        Policy::distance_threshold(domain, self.theta)
    }
}

/// One ordered-domain dataset with its policy and the exact prefix
/// counts the benchmark checks answers against.
pub struct LineData {
    pub policy: Policy,
    pub dataset: Dataset,
    /// `prefix[i]` = records with value `< i`, so a range count is
    /// `prefix[hi + 1] − prefix[lo]`.
    prefix: Vec<f64>,
}

impl LineData {
    pub fn generate(seed: u64, shape: &Shape) -> Self {
        let dataset = zipf_histogram_dataset(
            shape.size,
            shape.support,
            1.1,
            shape.records,
            &mut seeded_rng(draw(seed, 0xDA, 0)),
        );
        let mut prefix = vec![0.0; shape.size + 1];
        for &row in dataset.rows() {
            prefix[row + 1] += 1.0;
        }
        for i in 0..shape.size {
            prefix[i + 1] += prefix[i];
        }
        LineData {
            policy: shape.policy(),
            dataset,
            prefix,
        }
    }

    pub fn size(&self) -> usize {
        self.prefix.len() - 1
    }

    pub fn true_count(&self, x: usize) -> f64 {
        self.prefix[x + 1] - self.prefix[x]
    }

    /// Records with value `<= x`.
    pub fn true_prefix(&self, x: usize) -> f64 {
        self.prefix[x + 1]
    }

    pub fn true_range(&self, lo: usize, hi: usize) -> f64 {
        self.prefix[hi + 1] - self.prefix[lo]
    }

    pub fn register(&self, engine: &Engine) {
        engine
            .register_policy(POLICY, self.policy.clone())
            .expect("register policy");
        engine
            .register_dataset(DATASET, self.dataset.clone())
            .expect("register dataset");
    }

    /// Range request `i` of `stream`.
    pub fn range(&self, seed: u64, stream: u64, i: u64) -> (usize, Request) {
        let lo = (draw(seed, stream, i) % (self.size() - RANGE_SPAN) as u64) as usize;
        (lo, range_request(lo))
    }
}

pub fn range_request(lo: usize) -> Request {
    Request::range(POLICY, DATASET, eps(), lo, lo + RANGE_SPAN)
}

pub fn histogram_request() -> Request {
    Request::histogram(POLICY, DATASET, eps())
}

pub fn cumulative_request() -> Request {
    Request::cumulative_histogram(POLICY, DATASET, eps())
}

pub fn kmeans_request() -> Request {
    Request::kmeans(
        POLICY,
        POINTS,
        eps(),
        4,
        10,
        KmeansSecretSpec::L1Threshold(0.1),
    )
}

pub fn cluster_points(seed: u64) -> PointSet {
    synthetic_clusters(20_000, 4, 4, 0.2, &mut seeded_rng(draw(seed, 0xC1, 0)))
}

/// The directory every WAL of this process lives under, inside the
/// current directory (the checkout); removed again on drop.
pub struct RunDir {
    root: PathBuf,
    next: AtomicU64,
}

impl RunDir {
    pub const PARENT: &'static str = ".bfbench_run";

    pub fn create() -> std::io::Result<RunDir> {
        let root = Path::new(Self::PARENT).join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(RunDir {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh empty directory for one store.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).expect("create store directory");
        dir
    }

    /// Where this run's `trace.json` goes: beside the per-process
    /// directories, so it outlives them.
    pub fn trace_path() -> PathBuf {
        Path::new(Self::PARENT).join("trace.json")
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The store-backed single-node wire stack at the code's defaults.
pub struct WireStack {
    pub store: Arc<Store>,
    pub engine: Arc<Engine>,
    pub net: NetServer,
    pub dir: PathBuf,
}

impl WireStack {
    pub fn start(data: &LineData, seed: u64, dir: PathBuf) -> WireStack {
        let store = Arc::new(Store::open(&dir).expect("open store"));
        let engine = Arc::new(Engine::with_store(engine_seed(seed), Arc::clone(&store)));
        data.register(&engine);
        let server = Arc::new(Server::new(Arc::clone(&engine), ServerConfig::default()));
        let net = NetServer::bind("127.0.0.1:0", server, wire_net_config()).expect("bind loopback");
        WireStack {
            store,
            engine,
            net,
            dir,
        }
    }

    /// A connected client with `analyst`'s session open.
    pub fn client(&self, analyst: &str) -> Client {
        let mut client = Client::connect(self.net.local_addr()).expect("connect");
        client.open_session(analyst, BUDGET).expect("open session");
        client
    }
}

/// Defaults are what users run; the in-flight window is pinned to 64 so
/// a change of default shows as a refusal, not as a silent resize.
pub fn wire_net_config() -> NetConfig {
    NetConfig {
        max_in_flight: 64,
        ..NetConfig::default()
    }
}

/// One replica of the quorum-2 cluster on `dir`, at the code's defaults.
pub fn start_replica(data: &LineData, seed: u64, dir: PathBuf) -> Replica {
    Replica::start(
        dir,
        "127.0.0.1:0",
        "127.0.0.1:0",
        ReplicaConfig {
            seed: engine_seed(seed),
            quorum: 2,
            net: wire_net_config(),
            ..ReplicaConfig::default()
        },
        |engine| data.register(engine),
    )
    .expect("start replica")
}

/// fsyncs a replica's store has performed since it opened.
pub fn replica_syncs(replica: &Replica) -> u64 {
    replica
        .engine()
        .store()
        .expect("replicas are store-backed")
        .stats()
        .syncs
}

/// Three in-process replicas, quorum 2, leader first.
pub struct Cluster {
    pub leader: Replica,
    pub followers: [Replica; 2],
}

impl Cluster {
    pub fn start(data: &LineData, seed: u64, run: &RunDir) -> Cluster {
        let leader = start_replica(data, seed, run.fresh("leader"));
        let followers = [
            start_replica(data, seed, run.fresh("follower-a")),
            start_replica(data, seed, run.fresh("follower-b")),
        ];
        leader.lead();
        let hint = leader.client_addr().to_string();
        for f in &followers {
            f.follow(leader.peer_addr(), &hint);
        }
        Cluster { leader, followers }
    }

    pub fn replicas(&self) -> [&Replica; 3] {
        [&self.leader, &self.followers[0], &self.followers[1]]
    }

    /// fsyncs across the three stores since start.
    pub fn syncs(&self) -> u64 {
        self.replicas().into_iter().map(replica_syncs).sum()
    }

    pub fn shutdown(self) {
        let [a, b] = self.followers;
        b.shutdown().expect("follower shutdown");
        a.shutdown().expect("follower shutdown");
        self.leader.shutdown().expect("leader shutdown");
    }
}
