//! The store: group-committed WAL appends, snapshot compaction,
//! startup recovery.
//!
//! ## On-disk layout
//!
//! A store directory holds numbered WAL segments and at most one live
//! snapshot:
//!
//! ```text
//! budget-0000000000000000.log   ← appended records, framed + checksummed
//! budget-0000000000000001.log   ← one segment per process generation / compaction
//! budget-0000000000000001.snap  ← full StoreState; covers segments < 1
//! ```
//!
//! The invariant is **snapshot `N` covers exactly the records in
//! segments `< N`**; recovery loads the newest snapshot and replays the
//! segments `≥ N` in order. Compaction preserves the invariant by
//! rotating to segment `N` *before* writing snapshot `N`, so a crash
//! between the two steps merely leaves an extra segment to replay —
//! never a record covered twice or not at all.
//!
//! The names are the format's version. A directory written by an
//! earlier format names its files `ledger-N.log` / `ledger-N.snap` (its
//! snapshot sections counted in `u32`s and its cached answers tagged
//! 0–3), or `wal-N.log` / `snapshot-N.snap` before that; its bytes are
//! not this format's, and [`Store::open`] refuses it by those names
//! ([`StoreError::OldFormat`]) rather than misread it.
//!
//! ## Group commit
//!
//! [`Store::commit`] appends records and returns only once they are
//! fsync-durable — but concurrent committers share fsyncs: every caller
//! stacks its frames into a pending buffer, one caller becomes the
//! *leader*, writes the whole buffer and fsyncs once, and every caller
//! whose records rode along returns. Under N concurrent charges the
//! store performs ~1 fsync for the batch instead of N
//! (`store_appended_records_total` over `store_syncs_total`).
//! [`Store::stage`] puts frames
//! in the same buffer and returns at once: they ride the next fsync
//! anyone pays for.

use crate::codec::{self, Put};
use crate::error::StoreError;
use crate::frame::{fnv1a, frame_into};
use crate::record::{has_intact_frame_after, scan_frames, Record, ScanEnd};
use crate::state::StoreState;
use bf_obs::{Counter, Gauge, Registry};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Compaction normally deletes the WAL segments (and superseded
    /// snapshots) a fresh snapshot covers. With this set they are moved
    /// to an `archive/` subdirectory of the store instead, preserving
    /// the full record-by-record ε-ledger history for point-in-time
    /// audit and off-box backup. Archived files never participate in
    /// recovery — only top-level segments do — so the flag changes
    /// retention, never the recovered state.
    pub archive_replayed_segments: bool,
    /// Fault-injection plan consulted before every WAL write+fsync
    /// (group-commit batches and compaction flushes alike). `None` —
    /// the production default — writes straight through. See
    /// [`bf_chaos::StorePlan`] for what can be injected; any injected
    /// failure poisons the store exactly like a real disk error.
    pub fault_plan: Option<Arc<bf_chaos::StorePlan>>,
}

/// How recovery went: what was loaded, what was replayed, what was
/// tolerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segment number of the snapshot loaded, if any.
    pub snapshot_segment: Option<u64>,
    /// WAL segments replayed after the snapshot.
    pub segments_replayed: u64,
    /// Records applied from those segments.
    pub records_applied: u64,
    /// Whether a torn or damaged tail was skipped (the crash signature:
    /// an append that never finished and was never acknowledged).
    pub tail_skipped: bool,
}

/// The store's registry-backed counters. [`StoreStats`] is a thin
/// snapshot of these handles, so bench greps and tests keep their
/// numbers while dashboards read the same values off the registry.
#[derive(Debug, Clone)]
struct Counters {
    appended: Counter,
    commits: Counter,
    syncs: Counter,
    compactions: Counter,
    /// Store-layer faults actually injected by the configured
    /// [`StoreConfig::fault_plan`] (0 in production).
    faults_injected: Counter,
    /// Top-level segments (the ones recovery would replay).
    live_wal_segments: Gauge,
    /// Segments preserved under `archive/` by
    /// [`StoreConfig::archive_replayed_segments`].
    archived_wal_segments: Gauge,
}

impl Counters {
    fn new(obs: &Registry) -> Self {
        Self {
            appended: obs.counter("store_appended_records_total"),
            commits: obs.counter("store_commits_total"),
            syncs: obs.counter("store_syncs_total"),
            compactions: obs.counter("store_compactions_total"),
            faults_injected: obs.counter("faults_injected{layer=\"store\"}"),
            live_wal_segments: obs.gauge("store_live_wal_segments"),
            archived_wal_segments: obs.gauge("store_archived_wal_segments"),
        }
    }

    /// Recounts the segment gauges from what is actually on disk, so
    /// compaction behavior is observable without shelling into the
    /// data directory.
    fn refresh_segment_gauges(&self, dir: &Path) {
        self.live_wal_segments.set(count_wal_segments(dir));
        self.archived_wal_segments
            .set(count_wal_segments(&dir.join("archive")));
    }
}

/// One ε charge distilled from the WAL total order — the unit of the
/// audit API. `seq` is the record's 0-based position in the full
/// replayed order (archived segments first, then live ones), so two
/// audits over the same history agree on positions bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Position in the WAL total order (counting every record kind,
    /// not just charges — positions are stable under filtering).
    pub seq: u64,
    /// The exact ε charged, as IEEE-754 bits (lossless round-trip).
    pub eps_bits: u64,
    /// The ledger label the charge was booked under (the release key).
    pub label: String,
    /// FNV-1a fingerprint of the label bytes — a content-derived
    /// release identity any reader of the same WAL recomputes
    /// identically (the on-disk records carry no fingerprint, so the
    /// binding cannot drift between writer and auditor).
    pub fingerprint: u64,
}

crate::wire_fields! { LedgerEntry { seq, eps_bits, label, fingerprint } }

impl LedgerEntry {
    /// The charge as an `f64`.
    pub fn epsilon(&self) -> f64 {
        f64::from_bits(self.eps_bits)
    }
}

/// Counter snapshot for benches and monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended since open.
    pub appended_records: u64,
    /// `commit` calls since open.
    pub commits: u64,
    /// fsyncs performed since open.
    pub syncs: u64,
    /// Compactions since open.
    pub compactions: u64,
    /// The segment currently appended to.
    pub segment: u64,
}

struct Inner {
    file: Arc<File>,
    segment: u64,
    /// Live mirror of everything appended (not necessarily durable yet;
    /// snapshots are only written after a flush, and a poisoned store
    /// refuses to snapshot).
    state: StoreState,
    /// Encoded frames appended but not yet written + fsynced.
    pending: Vec<u8>,
    /// Sequence number the next non-empty `commit` or `stage` takes.
    next_seq: u64,
    /// Highest sequence number known durable.
    durable_seq: u64,
    /// Whether a leader is currently inside write+fsync.
    syncing: bool,
    counters: Counters,
    poisoned: Option<String>,
}

impl Inner {
    /// Applies `records` to the mirror and frames them, in order, into
    /// the pending buffer — what [`Store::commit`] and [`Store::stage`]
    /// share. A poisoned store appends nothing.
    fn append(&mut self, records: &[Record]) -> Result<(), StoreError> {
        if let Some(msg) = &self.poisoned {
            return Err(StoreError::Poisoned(msg.clone()));
        }
        for r in records {
            self.state.apply(r);
            frame_into(&mut self.pending, |out| r.put(out));
        }
        self.next_seq += u64::from(!records.is_empty());
        self.counters.appended.add(records.len() as u64);
        Ok(())
    }
}

/// A durable ε-budget ledger: WAL + snapshots in one directory.
///
/// All methods take `&self`; the store is meant to be shared behind an
/// `Arc` by every thread that charges budgets.
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    inner: Mutex<Inner>,
    commit_cv: Condvar,
    recovered: StoreState,
    report: RecoveryReport,
    /// The store's own metric registry (`store_*` names). A store can
    /// outlive or predate any engine, so it does not share the engine's
    /// registry; exposition merges the two snapshot sets.
    obs: Arc<Registry>,
    /// Advisory exclusive lock on `LOCK` in the store directory, held
    /// for the store's lifetime: two live stores appending to one
    /// directory would interleave frames and diverge their mirrors, so
    /// the second open fails fast instead. Released by the OS on drop
    /// *or* process death — a crash never wedges the directory.
    _dir_lock: File,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// A numbered file name's `(prefix, suffix)` around 16 hex digits.
type Naming = (&'static str, &'static str);
const SEGMENT: Naming = ("budget-", ".log");
const SNAPSHOT: Naming = ("budget-", ".snap");
/// The names earlier on-disk formats gave their segments and snapshots.
const EARLIER_FORMAT: [Naming; 4] = [
    ("wal-", ".log"),
    ("snapshot-", ".snap"),
    ("ledger-", ".log"),
    ("ledger-", ".snap"),
];

fn numbered_path(dir: &Path, (prefix, suffix): Naming, n: u64) -> PathBuf {
    dir.join(format!("{prefix}{n:016x}{suffix}"))
}

fn segment_path(dir: &Path, n: u64) -> PathBuf {
    numbered_path(dir, SEGMENT, n)
}

fn snapshot_path(dir: &Path, n: u64) -> PathBuf {
    numbered_path(dir, SNAPSHOT, n)
}

/// Parses `prefix-XXXXXXXXXXXXXXXX.suffix` names back to numbers.
fn parse_numbered(name: &str, (prefix, suffix): Naming) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    (rest.len() == 16)
        .then(|| u64::from_str_radix(rest, 16).ok())
        .flatten()
}

/// Counts the segments in `dir` (0 when the directory does not exist —
/// e.g. `archive/` before the first archiving compaction).
fn count_wal_segments(dir: &Path) -> f64 {
    sorted_wal_segments(dir).len() as f64
}

/// Numerically-sorted segment paths in `dir` (empty when the directory
/// does not exist).
fn sorted_wal_segments(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut segs: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let n = parse_numbered(name.to_str()?, SEGMENT)?;
            Some((n, e.path()))
        })
        .collect();
    segs.sort();
    segs
}

/// Best-effort directory fsync so file creations and renames survive a
/// crash (no-op on platforms where directories cannot be opened).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The single choke point every WAL byte passes through: write the
/// batch, then fsync — with the fault plan consulted first, so injected
/// failures exercise exactly the code paths a real ENOSPC or dying disk
/// would. A torn write persists (and syncs) half the batch before
/// failing, which is the crash signature recovery's torn-tail logic
/// must absorb; a delayed sync stalls, then writes and syncs in full.
fn write_and_sync(
    file: &File,
    batch: &[u8],
    plan: Option<&bf_chaos::StorePlan>,
    faults: &Counter,
) -> std::io::Result<()> {
    use bf_chaos::StoreFault;
    let injected = |what: &str| std::io::Error::other(format!("injected: {what}"));
    if let Some(plan) = plan {
        match plan.next() {
            Some(StoreFault::FailWrite) => {
                faults.inc();
                return Err(injected("write failure before any byte reached disk"));
            }
            Some(StoreFault::TornWrite) => {
                faults.inc();
                let torn = batch.len() / 2;
                (&*file).write_all(&batch[..torn])?;
                let _ = file.sync_data();
                return Err(injected("torn write (half the batch persisted)"));
            }
            Some(StoreFault::FailSync) => {
                faults.inc();
                (&*file).write_all(batch)?;
                return Err(injected("fsync failure after a complete write"));
            }
            Some(StoreFault::DelaySyncMicros(micros)) => {
                faults.inc();
                std::thread::sleep(std::time::Duration::from_micros(micros));
            }
            None => {}
        }
    }
    (&*file).write_all(batch).and_then(|()| file.sync_data())
}

impl Store {
    /// Opens (and recovers) the store at `dir`, creating it when absent.
    ///
    /// Recovery loads the newest snapshot, replays every later WAL
    /// segment record-by-record, tolerates a torn or damaged tail in the
    /// final segment (a crash mid-append — by construction nothing after
    /// the tear was ever acknowledged), and then starts a **fresh**
    /// segment for this process generation, so damaged tails are never
    /// appended after.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] (op `"lock dir"`) when another live store
    /// holds the directory;
    /// [`StoreError::CorruptSnapshot`] when the newest snapshot fails
    /// its checksum (starting empty instead would resurrect spent ε), or
    /// when mid-history corruption is followed by intact frames (skipping
    /// it would silently drop acknowledged charges);
    /// [`StoreError::OldFormat`] when the directory holds a segment or
    /// snapshot named by an earlier on-disk format (see the module
    /// docs), before anything is read or created;
    /// [`StoreError::Io`] when a segment cannot be read mid-stream or
    /// the new segment cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// [`Store::open`] with explicit [`StoreConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As for [`Store::open`].
    pub fn open_with(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io("create dir", &e))?;
        let dir_lock = File::options()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join("LOCK"))
            .map_err(|e| StoreError::io("lock dir", &e))?;
        dir_lock.try_lock().map_err(|e| StoreError::Io {
            op: "lock dir".into(),
            message: format!("{} (another store holds this directory)", e),
        })?;

        let mut segments: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let mut snapshots: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::io("read dir", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("read dir", &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = parse_numbered(name, SEGMENT) {
                segments.insert(n, entry.path());
            } else if let Some(n) = parse_numbered(name, SNAPSHOT) {
                snapshots.insert(n, entry.path());
            } else if EARLIER_FORMAT
                .iter()
                .any(|&f| parse_numbered(name, f).is_some())
            {
                return Err(StoreError::OldFormat {
                    path: entry.path().display().to_string(),
                });
            }
        }

        let mut report = RecoveryReport::default();
        let mut state = StoreState::default();
        let mut base = 0u64;
        if let Some((&n, path)) = snapshots.last_key_value() {
            let bytes = std::fs::read(path).map_err(|e| StoreError::io("read snapshot", &e))?;
            state = load_snapshot(path, &bytes)?;
            base = n;
            report.snapshot_segment = Some(n);
        }

        let obs = Arc::new(Registry::new());
        let replay: Vec<(u64, &PathBuf)> = segments.range(base..).map(|(&n, p)| (n, p)).collect();
        for (n, path) in replay.iter() {
            let bytes = std::fs::read(path).map_err(|e| StoreError::io("read segment", &e))?;
            let mut applied = 0u64;
            let (end, offset) = scan_frames(&bytes, |r| {
                state.apply(&r);
                applied += 1;
            });
            report.segments_replayed += 1;
            report.records_applied += applied;
            if end != ScanEnd::Clean {
                refuse_durable_damage(path, *n, &bytes, offset)?;
                report.tail_skipped = true;
            }
        }

        let next = segments.keys().next_back().map_or(base, |&m| m + 1);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&dir, next))
            .map_err(|e| StoreError::io("create segment", &e))?;
        sync_dir(&dir);

        let counters = Counters::new(&obs);
        counters.refresh_segment_gauges(&dir);

        Ok(Store {
            dir,
            config,
            _dir_lock: dir_lock,
            inner: Mutex::new(Inner {
                file: Arc::new(file),
                segment: next,
                state: state.clone(),
                pending: Vec::new(),
                next_seq: 1,
                durable_seq: 0,
                syncing: false,
                counters,
                poisoned: None,
            }),
            commit_cv: Condvar::new(),
            recovered: state,
            report,
            obs,
        })
    }

    /// The store's metric registry (`store_*` metrics: appends, commits,
    /// syncs, compactions, WAL segments).
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The ledger state recovered at open (frozen; the live mirror moves
    /// on with every commit).
    pub fn recovered_state(&self) -> &StoreState {
        &self.recovered
    }

    /// How recovery went at open.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.report
    }

    /// A clone of the live mirror (recovered state + every committed
    /// record since open).
    pub fn current_state(&self) -> StoreState {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .state
            .clone()
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends `records` and returns once they are fsync-durable.
    ///
    /// Concurrent callers share fsyncs (group commit): one leader writes
    /// and syncs the whole pending batch, everyone whose records rode
    /// along returns without issuing their own sync. Records from one
    /// call are made durable **atomically with respect to recovery** in
    /// the sense that they are applied to the mirror and written in call
    /// order; a crash can cut the suffix but never reorder.
    ///
    /// An empty `records` waits for everything staged so far
    /// ([`Store::stage`]), at no fsync if it is durable already.
    ///
    /// # Errors
    ///
    /// [`StoreError::Poisoned`] after any earlier write failure (the
    /// store stops acknowledging rather than risk acknowledging an
    /// un-durable charge); [`StoreError::Io`] for the failure itself.
    pub fn commit(&self, records: &[Record]) -> Result<(), StoreError> {
        let mut g = self.inner.lock().expect("store lock poisoned");
        g.append(records)?;
        g.counters.commits.inc();
        let my_seq = g.next_seq - 1;

        loop {
            if g.durable_seq >= my_seq {
                return Ok(());
            }
            if let Some(msg) = &g.poisoned {
                // The batch carrying our records failed to reach disk.
                return Err(StoreError::Poisoned(msg.clone()));
            }
            if g.syncing {
                g = self.commit_cv.wait(g).expect("store lock poisoned");
                continue;
            }
            // Become the leader: take everything pending (ours and any
            // frames stacked since the last sync), write + fsync outside
            // the lock so followers can keep stacking.
            g.syncing = true;
            let batch = std::mem::take(&mut g.pending);
            let high = g.next_seq - 1;
            let file = Arc::clone(&g.file);
            let faults = g.counters.faults_injected.clone();
            drop(g);
            let result = write_and_sync(&file, &batch, self.config.fault_plan.as_deref(), &faults);
            g = self.inner.lock().expect("store lock poisoned");
            g.syncing = false;
            match result {
                Ok(()) => {
                    g.durable_seq = g.durable_seq.max(high);
                    g.counters.syncs.inc();
                }
                Err(e) => {
                    g.poisoned = Some(e.to_string());
                }
            }
            self.commit_cv.notify_all();
        }
    }

    /// Appends `records` **without** waiting for durability: they are in
    /// the mirror ([`Store::current_state`], its digest) when this
    /// returns, and reach disk with whatever this store makes durable
    /// next — a [`Store::commit`] (ahead of that call's own records), a
    /// [`Store::compact`] — in call order like everything else. A crash
    /// before then loses them, always as a suffix of the WAL.
    ///
    /// Nothing staged may be acknowledged as durable, save once a later
    /// `commit(&[])` returns: so `bf-replica` appends a log entry's
    /// `Replicated` record, staged in log order and awaited. Otherwise
    /// only for a record whose loss recovery repairs by itself: an
    /// effect of a log entry whose input is already durable, that is the
    /// `LogApplied` mark and the `Replied` / `Charged` frames the applier
    /// books through `Engine::apply_tagged`. A crash that loses them
    /// loses the mark with them or after them, so recovery finds the
    /// entry pending and runs it again: from the reply cache at zero ε
    /// if its `Replied` survived, otherwise at the payer's same ledger
    /// position, which draws the same noise and books the same charge.
    ///
    /// # Errors
    ///
    /// [`StoreError::Poisoned`] after any earlier write failure.
    pub fn stage(&self, records: &[Record]) -> Result<(), StoreError> {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .append(records)
    }

    /// Compacts the log: flushes anything pending, rotates to a fresh
    /// segment, writes a snapshot of the mirror covering everything
    /// before the rotation, and prunes the old segments and snapshots.
    ///
    /// Appends block for the duration (the snapshot must capture a
    /// consistent cut). Crash-safe at every step: the segment rotates
    /// *before* the snapshot is written, so an ill-timed crash leaves at
    /// worst an extra segment to replay, never a covered-twice record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Poisoned`] / [`StoreError::Io`] as for
    /// [`Store::commit`].
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut g = self.inner.lock().expect("store lock poisoned");
        while g.syncing {
            g = self.commit_cv.wait(g).expect("store lock poisoned");
        }
        if let Some(msg) = &g.poisoned {
            return Err(StoreError::Poisoned(msg.clone()));
        }
        // Flush any frames stacked since the last sync.
        if !g.pending.is_empty() {
            let batch = std::mem::take(&mut g.pending);
            let high = g.next_seq - 1;
            if let Err(e) = write_and_sync(
                &g.file,
                &batch,
                self.config.fault_plan.as_deref(),
                &g.counters.faults_injected,
            ) {
                g.poisoned = Some(e.to_string());
                self.commit_cv.notify_all();
                return Err(StoreError::io("flush", &e));
            }
            g.durable_seq = g.durable_seq.max(high);
            g.counters.syncs.inc();
            self.commit_cv.notify_all();
        }

        // Rotate first: from here on new appends land in segment `next`,
        // which the snapshot (covering `< next`) does not claim. A
        // failed rotation poisons: the mirror may already disagree with
        // what a future append could make durable, and serving on is
        // exactly the ambiguity poisoning exists to refuse.
        let next = g.segment + 1;
        let file = match OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, next))
        {
            Ok(f) => f,
            Err(e) => {
                g.poisoned = Some(format!("segment rotation failed: {e}"));
                self.commit_cv.notify_all();
                return Err(StoreError::io("rotate", &e));
            }
        };
        sync_dir(&self.dir);
        g.file = Arc::new(file);
        let old_segment = g.segment;
        g.segment = next;

        // Snapshot the mirror (== all records in segments < next).
        let body = codec::encode(&g.state);
        let mut bytes = Vec::with_capacity(8 + body.len());
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        let tmp = self.dir.join("snapshot.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, snapshot_path(&self.dir, next))?;
            Ok(())
        };
        if let Err(e) = write() {
            // The rotation above already happened: recovery would
            // replay the old segments (no snapshot claims them), so
            // nothing is lost — but this store's view of "which files
            // exist" is now unreliable, and pruning below could delete
            // history no snapshot covers. Fail stop.
            g.poisoned = Some(format!("snapshot write failed: {e}"));
            self.commit_cv.notify_all();
            return Err(StoreError::io("write snapshot", &e));
        }
        sync_dir(&self.dir);
        g.counters.compactions.inc();

        // Prune everything the snapshot covers — by listing what
        // actually exists, not by counting segment numbers since 0
        // (which would cost O(lifetime compactions) of ENOENT unlinks
        // under the store lock). With
        // [`StoreConfig::archive_replayed_segments`] the covered files
        // move to `archive/` instead of being unlinked: the snapshot
        // makes them redundant for recovery, but their record-by-record
        // history stays auditable (and a rename is as cheap as an
        // unlink). Archived files sit in a subdirectory, which the
        // top-level scan in [`Store::open_with`] never visits.
        let archive = self.dir.join("archive");
        if self.config.archive_replayed_segments {
            let _ = std::fs::create_dir_all(&archive);
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let covered = [SEGMENT, SNAPSHOT]
                    .iter()
                    .any(|&f| parse_numbered(name, f).is_some_and(|m| m <= old_segment));
                if covered {
                    if self.config.archive_replayed_segments {
                        let _ = std::fs::rename(entry.path(), archive.join(name));
                    } else {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        if self.config.archive_replayed_segments {
            sync_dir(&archive);
        }
        sync_dir(&self.dir);
        g.counters.refresh_segment_gauges(&self.dir);
        Ok(())
    }

    /// The ε-provenance audit API: every `Charged` and `Replied` record
    /// booked for `analyst`, in WAL total order, with the release
    /// fingerprint each charge is bound to. Archived segments (see
    /// [`StoreConfig::archive_replayed_segments`]) are read first, then
    /// the live top-level segments, so with archiving enabled the
    /// result is the complete record-by-record charge history since the
    /// directory was created — bit-for-bit reproducible across calls
    /// and across processes reading the same files.
    ///
    /// Without archiving, charges whose segments a compaction has
    /// already deleted are absent (their *sums* survive in the
    /// snapshot, but per-charge provenance is gone — that is exactly
    /// the retention trade the flag exists for).
    ///
    /// The store lock is held for the duration so compaction cannot
    /// rename segments mid-scan, and an in-flight sync is waited out
    /// first, so every record is either whole in a segment or still
    /// pending. Pending frames — staged ones, and those of commits not
    /// yet synced — are scanned last: they are in the mirror already,
    /// and they are the next records on disk, in this order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a segment cannot be read;
    /// [`StoreError::CorruptSnapshot`] when damage is followed by
    /// intact frames (the same refuse-to-guess rule recovery applies —
    /// a plain torn tail ends only that segment's scan and the audit
    /// continues with the next segment, exactly like recovery, so a
    /// crash-torn mid-history segment never hides later charges).
    pub fn ledger_history(&self, analyst: &str) -> Result<Vec<LedgerEntry>, StoreError> {
        let mut g = self.inner.lock().expect("store lock poisoned");
        // A batch in flight is in neither a segment nor `pending`.
        while g.syncing {
            g = self.commit_cv.wait(g).expect("store lock poisoned");
        }
        let mut paths = sorted_wal_segments(&self.dir.join("archive"));
        paths.extend(sorted_wal_segments(&self.dir));
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut visit = |r: Record| {
            match &r {
                Record::Charged {
                    analyst: a,
                    label,
                    eps_bits,
                }
                | Record::Replied {
                    analyst: a,
                    label,
                    eps_bits,
                    ..
                } if a == analyst => {
                    out.push(LedgerEntry {
                        seq,
                        eps_bits: *eps_bits,
                        label: label.clone(),
                        fingerprint: fnv1a(label.as_bytes()),
                    });
                }
                _ => {}
            }
            seq += 1;
        };
        for (n, path) in paths {
            let bytes = std::fs::read(&path).map_err(|e| StoreError::io("read segment", &e))?;
            let (end, offset) = scan_frames(&bytes, &mut visit);
            if end != ScanEnd::Clean {
                // A torn tail was never acknowledged; the audit skips
                // it and keeps scanning later segments exactly like
                // recovery does — post-crash stores rotate to a fresh
                // segment, and every durable charge booked there must
                // still appear in the report.
                refuse_durable_damage(&path, n, &bytes, offset)?;
            }
        }
        scan_frames(&g.pending, &mut visit);
        Ok(out)
    }

    /// Counter snapshot — a thin shim over the registry handles, kept
    /// for existing tests and bench greps.
    pub fn stats(&self) -> StoreStats {
        let g = self.inner.lock().expect("store lock poisoned");
        StoreStats {
            appended_records: g.counters.appended.get(),
            commits: g.counters.commits.get(),
            syncs: g.counters.syncs.get(),
            compactions: g.counters.compactions.get(),
            segment: g.segment,
        }
    }
}

/// Decides what a segment scan that stopped at `offset`, short of the
/// end of `bytes`, may do next. `Ok` means the stop is a crash tear
/// (torn header or payload, or a checksum mismatch on never-synced
/// garbage): nothing past it was ever acknowledged, and skipping it is
/// sound. Damage *inside* durable history is refused instead. Group
/// commit fsyncs batch N before batch N+1 is written, so an **intact
/// frame after the stop** proves the stopped-on region was once durable
/// (a corrupted length field can even fabricate a fake "torn tail" that
/// swallows acknowledged records). Skipping would silently drop
/// acknowledged charges — the operator decides.
fn refuse_durable_damage(
    path: &Path,
    segment: u64,
    bytes: &[u8],
    offset: usize,
) -> Result<(), StoreError> {
    if has_intact_frame_after(bytes, offset) {
        return Err(StoreError::CorruptSnapshot {
            path: path.display().to_string(),
            detail: format!(
                "damaged record at byte {offset} of segment {segment:#x} \
                 with durable records after it"
            ),
        });
    }
    Ok(())
}

fn load_snapshot(path: &Path, bytes: &[u8]) -> Result<StoreState, StoreError> {
    let corrupt = |detail: &str| StoreError::CorruptSnapshot {
        path: path.display().to_string(),
        detail: detail.to_owned(),
    };
    if bytes.len() < 8 {
        return Err(corrupt("shorter than its checksum"));
    }
    let checksum = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let body = &bytes[8..];
    if fnv1a(body) != checksum {
        return Err(corrupt("checksum mismatch"));
    }
    codec::decode(body).ok_or_else(|| corrupt("undecodable state"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_HEADER_LEN;
    use crate::record::RegistryKind;
    use crate::scratch_dir;

    impl Store {
        /// The message of the write failure that poisoned the store, if
        /// any.
        fn poison_reason(&self) -> Option<String> {
            self.inner
                .lock()
                .expect("store lock poisoned")
                .poisoned
                .clone()
        }
    }

    #[test]
    fn compaction_prunes_and_preserves_state() {
        let dir = scratch_dir("compact");
        let live;
        {
            let store = Store::open(&dir).unwrap();
            store
                .commit(&[
                    Record::session_opened("a", 2.0),
                    Record::charged("a", "q", 0.5),
                    Record::Registered {
                        kind: RegistryKind::Policy,
                        name: "pol".into(),
                        fingerprint: 42,
                    },
                ])
                .unwrap();
            let before = store.current_state().digest();
            store.compact().unwrap();
            assert_eq!(store.current_state().digest(), before);
            // Post-compaction commits land in the new segment.
            store.commit(&[Record::charged("a", "q2", 0.25)]).unwrap();
            let stats = store.stats();
            assert_eq!(stats.compactions, 1);
            assert_eq!(stats.segment, 1);
            live = store.current_state().digest();
        }
        // Only the new segment and the snapshot remain: by default a
        // covered segment is deleted, not archived.
        assert!(snapshot_path(&dir, 1).exists());
        assert!(!segment_path(&dir, 0).exists());
        assert!(!dir.join("archive").exists());

        let store = Store::open(&dir).unwrap();
        // Snapshot plus the replayed tail is the ledger bit for bit.
        assert_eq!(store.recovered_state().digest(), live);
        let report = store.recovery_report();
        assert_eq!(report.snapshot_segment, Some(1));
        assert_eq!(report.records_applied, 1, "only the post-snapshot charge");
        let s = &store.recovered_state().sessions["a"];
        assert_eq!(s.spent, 0.75);
        assert_eq!(s.served, 2);
        assert_eq!(
            store.recovered_state().registrations[&(RegistryKind::Policy, "pol".into())],
            42
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_live_open_is_refused_by_the_directory_lock() {
        let dir = scratch_dir("dirlock");
        let store = Store::open(&dir).unwrap();
        match Store::open(&dir) {
            Err(StoreError::Io { op, .. }) => assert_eq!(op, "lock dir"),
            other => panic!("expected lock refusal, got {other:?}"),
        }
        drop(store);
        Store::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_refuses_to_open() {
        let dir = scratch_dir("corrupt-snap");
        {
            let store = Store::open(&dir).unwrap();
            store.commit(&[Record::session_opened("a", 1.0)]).unwrap();
            store.compact().unwrap();
        }
        let snap = snapshot_path(&dir, 1);
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::CorruptSnapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn archive_flag_moves_replayed_segments_instead_of_deleting() {
        let dir = scratch_dir("archive");
        {
            let store = Store::open_with(
                &dir,
                StoreConfig {
                    archive_replayed_segments: true,
                    ..StoreConfig::default()
                },
            )
            .unwrap();
            store
                .commit(&[
                    Record::session_opened("a", 2.0),
                    Record::charged("a", "q1", 0.5),
                ])
                .unwrap();
            store.compact().unwrap();
            store.commit(&[Record::charged("a", "q2", 0.25)]).unwrap();
            store.compact().unwrap();
        }
        // Every pre-compaction segment survives under archive/ …
        let archive = dir.join("archive");
        let archived: Vec<u64> = sorted_wal_segments(&archive)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(archived, [0, 1], "both segments archived");
        // … and replaying the archived segments record-by-record
        // reconstructs the full pre-snapshot ledger history (the
        // point-in-time-audit use case).
        let mut state = crate::state::StoreState::default();
        let mut records = 0;
        for n in archived {
            let bytes = std::fs::read(segment_path(&archive, n)).unwrap();
            let (end, _) = scan_frames(&bytes, |r| {
                state.apply(&r);
                records += 1;
            });
            assert_eq!(end, ScanEnd::Clean);
        }
        assert_eq!(records, 3);
        assert_eq!(state.sessions["a"].spent, 0.75);
        // Recovery itself is unaffected: archived files are invisible.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovered_state().sessions["a"].spent, 0.75);
        assert_eq!(store.recovery_report().snapshot_segment, Some(2));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn chaos_config(plan: bf_chaos::StorePlan) -> StoreConfig {
        StoreConfig {
            fault_plan: Some(Arc::new(plan)),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn injected_write_failure_poisons_and_recovery_keeps_the_prefix() {
        use bf_chaos::{StoreFault, StorePlan};
        let dir = scratch_dir("chaos-failwrite");
        {
            let store = Store::open_with(
                &dir,
                chaos_config(StorePlan::scripted([(2, StoreFault::FailWrite)])),
            )
            .unwrap();
            store.commit(&[Record::session_opened("a", 1.0)]).unwrap();
            // The second write+fsync fails before any byte lands.
            let err = store.commit(&[Record::charged("a", "q", 0.5)]).unwrap_err();
            assert!(matches!(err, StoreError::Poisoned(_)), "got {err:?}");
            assert!(store.poison_reason().is_some());
            assert!(store.poison_reason().unwrap().contains("injected"));
            // Every further commit AND compaction refuses fail-stop.
            assert!(matches!(
                store.commit(&[Record::charged("a", "q2", 0.1)]),
                Err(StoreError::Poisoned(_))
            ));
            assert!(matches!(store.compact(), Err(StoreError::Poisoned(_))));
            assert_eq!(
                store
                    .obs()
                    .counter("faults_injected{layer=\"store\"}")
                    .get(),
                1
            );
        }
        // A fresh process recovers exactly the acknowledged prefix.
        let store = Store::open(&dir).unwrap();
        let s = &store.recovered_state().sessions["a"];
        assert_eq!(s.total, 1.0);
        assert_eq!(s.spent, 0.0, "the failed charge was never acknowledged");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fsync_failure_poisons_even_though_bytes_reached_disk() {
        use bf_chaos::{StoreFault, StorePlan};
        let dir = scratch_dir("chaos-failsync");
        {
            let store = Store::open_with(
                &dir,
                chaos_config(StorePlan::scripted([(2, StoreFault::FailSync)])),
            )
            .unwrap();
            store.commit(&[Record::session_opened("a", 1.0)]).unwrap();
            // The write completes, the fsync "fails": durability is
            // unknown, so the store must NOT acknowledge.
            assert!(matches!(
                store.commit(&[Record::charged("a", "q", 0.5)]),
                Err(StoreError::Poisoned(_))
            ));
        }
        // Here the bytes did survive — an unacknowledged-but-durable
        // charge. That is the conservative direction: budget can be
        // lost to a failed ack, never resurrected.
        let store = Store::open(&dir).unwrap();
        let s = &store.recovered_state().sessions["a"];
        assert_eq!(s.spent, 0.5);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_sync_delay_is_late_but_durable_and_counted() {
        use bf_chaos::{StoreFault, StorePlan};
        let dir = scratch_dir("chaos-delaysync");
        let delay = std::time::Duration::from_millis(30);
        {
            let fault = StoreFault::DelaySyncMicros(delay.as_micros() as u64);
            let store =
                Store::open_with(&dir, chaos_config(StorePlan::scripted([(2, fault)]))).unwrap();
            store.commit(&[Record::session_opened("a", 1.0)]).unwrap();
            let started = std::time::Instant::now();
            store.commit(&[Record::charged("a", "q", 0.5)]).unwrap();
            assert!(started.elapsed() >= delay, "the commit returns late");
            assert!(store.poison_reason().is_none(), "late is not lost");
            assert_eq!(store.stats().syncs, 2);
            assert_eq!(
                store
                    .obs()
                    .counter("faults_injected{layer=\"store\"}")
                    .get(),
                1
            );
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovered_state().sessions["a"].spent, 0.5);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What a crash right now would leave: the records of every live
    /// segment, read off disk while the store stays open.
    fn records_on_disk(dir: &Path) -> Vec<Record> {
        let mut out = Vec::new();
        for (_, path) in sorted_wal_segments(dir) {
            let (end, _) = scan_frames(&std::fs::read(path).unwrap(), |r| out.push(r));
            assert_eq!(end, ScanEnd::Clean);
        }
        out
    }

    #[test]
    fn staged_records_are_mirrored_at_once_and_ride_the_next_commit_in_call_order() {
        let dir = scratch_dir("stage-order");
        let store = Store::open(&dir).unwrap();
        let entry = |index| Record::Replicated {
            epoch: 0,
            index,
            analyst: "a".into(),
            request_id: index,
            payload: vec![1],
        };
        store.commit(&[entry(1), entry(2)]).unwrap();
        let before = store.stats();

        store.stage(&[Record::LogApplied { index: 1 }]).unwrap();
        store.stage(&[Record::LogApplied { index: 2 }]).unwrap();
        // Counted in the mirror (and so in its digest) at once …
        assert_eq!(store.current_state().log_applied, 2);
        // … at no fsync, and in no segment.
        let after = store.stats();
        assert_eq!(after.syncs, before.syncs);
        assert_eq!(after.commits, before.commits);
        assert_eq!(after.appended_records, before.appended_records + 2);
        assert_eq!(records_on_disk(&dir), [entry(1), entry(2)]);

        // The next commit carries them, ahead of its own record and in
        // the order they were staged: WAL order is call order.
        store.commit(&[entry(3)]).unwrap();
        assert_eq!(store.stats().syncs, before.syncs + 1);
        assert_eq!(
            records_on_disk(&dir),
            [
                entry(1),
                entry(2),
                Record::LogApplied { index: 1 },
                Record::LogApplied { index: 2 },
                entry(3),
            ]
        );
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovered_state().log_applied, 2);
        assert_eq!(store.recovered_state().log_pending.len(), 1);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A commit that arrives while another's sync is in flight returns
    /// only once a sync that covers its own records has: then they are
    /// on disk.
    #[test]
    fn a_commit_joining_a_sync_in_flight_returns_once_its_records_are_on_disk() {
        use bf_chaos::{StoreFault, StorePlan};
        let dir = scratch_dir("commit-joins-sync");
        let slow = StorePlan::every_kth(1, StoreFault::DelaySyncMicros(100_000));
        let store = Arc::new(Store::open_with(&dir, chaos_config(slow)).unwrap());
        let first = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.commit(&[Record::session_opened("a", 1.0)]))
        };
        while !store.inner.lock().unwrap().syncing {
            std::thread::yield_now();
        }
        store.commit(&[Record::charged("a", "q", 0.5)]).unwrap();
        assert_eq!(records_on_disk(&dir).len(), 2);
        first.join().unwrap().unwrap();
        assert_eq!(store.stats().commits, 2, "both commits are counted");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `commit(&[])` is the wait half of an append staged earlier: one
    /// fsync for everything staged so far, none when nothing is.
    #[test]
    fn an_empty_commit_makes_what_was_staged_durable_and_nothing_else_syncs() {
        let dir = scratch_dir("stage-await");
        let store = Store::open(&dir).unwrap();
        store.commit(&[]).unwrap();
        assert_eq!(store.stats().syncs, 0, "nothing staged, nothing synced");
        store.stage(&[Record::session_opened("a", 1.0)]).unwrap();
        store.stage(&[Record::LogApplied { index: 1 }]).unwrap();
        assert!(records_on_disk(&dir).is_empty());
        store.commit(&[]).unwrap();
        assert_eq!(store.stats().syncs, 1);
        assert_eq!(
            records_on_disk(&dir),
            [
                Record::session_opened("a", 1.0),
                Record::LogApplied { index: 1 }
            ]
        );
        store.commit(&[]).unwrap();
        assert_eq!(store.stats().syncs, 1, "already durable");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_loses_staged_records_and_compaction_flushes_them() {
        let dir = scratch_dir("stage-flush");
        {
            let store = Store::open(&dir).unwrap();
            store.commit(&[Record::session_opened("a", 1.0)]).unwrap();
            store.stage(&[Record::LogApplied { index: 7 }]).unwrap();
        } // dropped with the mark still staged: the crash case
        {
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.recovered_state().log_applied, 0, "never durable");
            assert_eq!(store.recovered_state().sessions["a"].total, 1.0);
            store.stage(&[Record::LogApplied { index: 7 }]).unwrap();
            // `compact` is what a clean shutdown ends with.
            store.compact().unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovered_state().log_applied, 7);
        assert_eq!(
            store.recovery_report().records_applied,
            0,
            "in the snapshot"
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_poisoned_store_refuses_to_stage() {
        use bf_chaos::{StoreFault, StorePlan};
        let dir = scratch_dir("stage-poisoned");
        let store = Store::open_with(
            &dir,
            chaos_config(StorePlan::scripted([(1, StoreFault::FailWrite)])),
        )
        .unwrap();
        store
            .commit(&[Record::session_opened("a", 1.0)])
            .unwrap_err();
        assert!(matches!(
            store.stage(&[Record::LogApplied { index: 1 }]),
            Err(StoreError::Poisoned(_))
        ));
        assert_eq!(store.current_state().log_applied, 0, "nothing appended");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replied_records_commit_recover_and_compact() {
        let dir = scratch_dir("replied");
        {
            let store = Store::open(&dir).unwrap();
            store.commit(&[Record::session_opened("a", 1.0)]).unwrap();
            store
                .commit(&[Record::replied("a", 1, "q", 0.25, vec![9, 9])])
                .unwrap();
            store.compact().unwrap();
            store
                .commit(&[Record::replied("a", 2, "q", 0.25, vec![8])])
                .unwrap();
        }
        // Recovery sees both replies: one through the snapshot, one
        // through post-snapshot replay.
        let store = Store::open(&dir).unwrap();
        let state = store.recovered_state();
        assert_eq!(state.sessions["a"].spent, 0.5);
        assert_eq!(state.sessions["a"].served, 2);
        assert_eq!(state.cached_reply("a", 1).unwrap().payload, vec![9, 9]);
        assert_eq!(state.cached_reply("a", 2).unwrap().payload, vec![8]);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_history_spans_archived_and_live_segments_in_order() {
        let dir = scratch_dir("ledger-history");
        let config = StoreConfig {
            archive_replayed_segments: true,
            ..StoreConfig::default()
        };
        {
            let store = Store::open_with(&dir, config.clone()).unwrap();
            store
                .commit(&[
                    Record::session_opened("a", 2.0),
                    Record::charged("a", "q1", 0.5),
                    Record::session_opened("b", 1.0),
                    Record::charged("b", "q1", 0.25),
                ])
                .unwrap();
            store.compact().unwrap();
            store
                .commit(&[Record::replied("a", 7, "q2", 0.125, vec![3])])
                .unwrap();

            let hist = store.ledger_history("a").unwrap();
            assert_eq!(hist.len(), 2);
            // seq counts every record in total order: a's charge is the
            // second record overall, the reply the fifth.
            assert_eq!(hist[0].seq, 1);
            assert_eq!(hist[0].label, "q1");
            assert_eq!(hist[0].epsilon(), 0.5);
            assert_eq!(hist[0].fingerprint, fnv1a(b"q1"));
            assert_eq!(hist[1].seq, 4);
            assert_eq!(hist[1].label, "q2");
            assert_eq!(hist[1].eps_bits, 0.125f64.to_bits());
            // b sees only its own charge; a stranger sees nothing.
            assert_eq!(store.ledger_history("b").unwrap().len(), 1);
            assert!(store.ledger_history("nobody").unwrap().is_empty());
        }
        // A fresh process reads the identical history off the same
        // files — the bit-for-bit reproducibility the audit API
        // promises.
        let store = Store::open_with(&dir, config).unwrap();
        let again = store.ledger_history("a").unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again[0].seq, 1);
        assert_eq!(again[1].eps_bits, 0.125f64.to_bits());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A staged charge is in the mirror, so the audit reports it too: at
    /// its place in WAL order while it waits in memory, and at the same
    /// place once the next commit has written it.
    #[test]
    fn ledger_history_reports_a_staged_charge_in_order_before_and_after_the_next_commit() {
        let dir = scratch_dir("ledger-staged");
        let store = Store::open(&dir).unwrap();
        store
            .commit(&[
                Record::session_opened("a", 1.0),
                Record::charged("a", "durable", 0.25),
            ])
            .unwrap();
        store
            .stage(&[
                Record::replied("a", 3, "staged", 0.125, vec![1]),
                Record::LogApplied { index: 3 },
                Record::charged("a", "staged-too", 0.0625),
            ])
            .unwrap();
        let history = |store: &Store| -> Vec<(u64, String)> {
            let hist = store.ledger_history("a").unwrap();
            hist.into_iter().map(|e| (e.seq, e.label)).collect()
        };
        let expected = [
            (1, "durable".to_string()),
            (2, "staged".to_string()),
            (4, "staged-too".to_string()),
        ];
        assert_eq!(history(&store), expected, "staged, still in memory");
        assert_eq!(records_on_disk(&dir).len(), 2);

        store.commit(&[Record::session_opened("b", 1.0)]).unwrap();
        assert_eq!(records_on_disk(&dir).len(), 6);
        assert_eq!(history(&store), expected, "written by the next commit");
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(history(&store), expected, "and recovered");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_history_without_archiving_loses_compacted_charges() {
        let dir = scratch_dir("ledger-noarch");
        let store = Store::open(&dir).unwrap();
        store
            .commit(&[
                Record::session_opened("a", 1.0),
                Record::charged("a", "old", 0.5),
            ])
            .unwrap();
        store.compact().unwrap();
        store.commit(&[Record::charged("a", "new", 0.25)]).unwrap();
        let hist = store.ledger_history("a").unwrap();
        assert_eq!(hist.len(), 1, "the compacted charge is gone");
        assert_eq!(hist[0].label, "new");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_history_scans_past_a_torn_mid_history_segment() {
        let dir = scratch_dir("ledger-torn-mid");
        {
            let store = Store::open(&dir).unwrap();
            store
                .commit(&[
                    Record::session_opened("a", 2.0),
                    Record::charged("a", "before", 0.5),
                ])
                .unwrap();
            store.commit(&[Record::charged("a", "torn", 0.25)]).unwrap();
        }
        // Tear the last 3 bytes off segment 0 — the crash signature.
        let seg = segment_path(&dir, 0);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        // The post-crash process tolerates the tear and books new
        // durable charges into the fresh segment recovery rotated to.
        let store = Store::open(&dir).unwrap();
        assert!(store.recovery_report().tail_skipped);
        store
            .commit(&[Record::charged("a", "after", 0.125)])
            .unwrap();
        // The audit must skip the torn tail and keep scanning: every
        // durable charge before AND after the tear appears; only the
        // never-acknowledged torn charge is absent.
        let hist = store.ledger_history("a").unwrap();
        let labels: Vec<&str> = hist.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["before", "after"]);
        // Damage *inside* durable history is still refused outright.
        let bytes = std::fs::read(&seg).unwrap();
        let mut flipped = bytes.clone();
        flipped[FRAME_HEADER_LEN] ^= 0xFF;
        std::fs::write(&seg, &flipped).unwrap();
        assert!(matches!(
            store.ledger_history("a"),
            Err(StoreError::CorruptSnapshot { .. })
        ));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_gauges_track_compaction_and_archiving() {
        let dir = scratch_dir("seg-gauges");
        let store = Store::open_with(
            &dir,
            StoreConfig {
                archive_replayed_segments: true,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let live = || store.obs().gauge("store_live_wal_segments").get();
        let archived = || store.obs().gauge("store_archived_wal_segments").get();
        assert_eq!(live(), 1.0);
        assert_eq!(archived(), 0.0);
        store.commit(&[Record::session_opened("a", 1.0)]).unwrap();
        store.compact().unwrap();
        assert_eq!(live(), 1.0, "old segment rotated out, new one in");
        assert_eq!(archived(), 1.0);
        store.commit(&[Record::charged("a", "q", 0.5)]).unwrap();
        store.compact().unwrap();
        assert_eq!(archived(), 2.0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn numbered_name_parsing() {
        assert_eq!(
            parse_numbered("budget-0000000000000003.log", SEGMENT),
            Some(3)
        );
        assert_eq!(parse_numbered("budget-3.log", SEGMENT), None);
        assert_eq!(
            parse_numbered("budget-00000000000000ff.snap", SNAPSHOT),
            Some(255)
        );
        assert_eq!(
            parse_numbered("budget-00000000000000ff.snap", SEGMENT),
            None
        );
        assert_eq!(parse_numbered("other.txt", SEGMENT), None);
        // The parent format's names are an earlier format's, not this one's.
        for name in [
            "ledger-0000000000000003.log",
            "ledger-00000000000000ff.snap",
        ] {
            assert_eq!(parse_numbered(name, SEGMENT), None);
            assert_eq!(parse_numbered(name, SNAPSHOT), None);
            assert!(EARLIER_FORMAT
                .iter()
                .any(|&f| parse_numbered(name, f).is_some()));
        }
    }
}
