//! The on-disk snapshot store: persistent, delta-encoded world snapshots
//! with a bounded replay-distance guarantee.
//!
//! A store is a directory next to (and named after) its trace artifact:
//!
//! ```text
//! trace.jsonl.snapshots/
//! ├── store.json            index: version, retention policy, snapshot table
//! ├── snaps/<id>.json       one SnapshotManifest per stored snapshot
//! └── logs/<name>.jsonl     one append-only file per history log, one
//!                           encoded element per line
//! ```
//!
//! A run's history logs only grow, so each snapshot's logs are a prefix of
//! the next one's. Saving a snapshot appends only the elements logged since
//! the previous save, then writes a manifest with the live state and, per
//! log, the element count `len`, the byte length `end` of the file prefix
//! holding those elements, and an FNV-1a checksum of that prefix (see
//! [`dd_sim::encode_manifest`]). The `bytes` column of the index records
//! exactly those fresh bytes — the marginal cost of each snapshot, which
//! is what `BENCH_snapshot_store.json` plots against standalone snapshot
//! sizes. Loading a snapshot reads each log's first `end` bytes, checks the
//! checksum and parses `len` lines; the world digest covers history
//! lengths only, so the checksum is what catches garbled history.
//!
//! # The availability bound
//!
//! The store's [`RetentionPolicy`] maintains the invariant that **every
//! decision index in the checkpointed region is within `bound` decisions of
//! a restorable starting point at or before it** (decision 0 — replay from
//! scratch — is an implicit starting point). Capacity pressure
//! (`max_snapshots`) evicts the snapshot whose removal opens the *smallest*
//! merged gap, and refuses to evict at all when every candidate would open
//! a gap wider than `bound`: the bound beats the capacity cap. The
//! invariant is property-tested in this module under random run lengths,
//! checkpoint cadences and eviction pressure. Eviction deletes only the
//! evicted manifest: the log files are the run's history prefix, which the
//! newest snapshot always references.
//!
//! One store holds snapshots of **one** recorded run, offered in decision
//! order.

use crate::persist::{load_json, save_json};
use dd_sim::{
    decode_snapshot, encode_log_range, encode_manifest, LogManifest, SchedulePolicy,
    SnapshotManifest, SnapshotSink, WorldSnapshot, SNAPSHOT_FORMAT_VERSION,
};
use serde::{Content, Deserialize, Serialize};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Version tag of the `store.json` index format.
///
/// v2 replaced the content-addressed `chunks/` directory with one
/// append-only file per history log under `logs/`, and dropped the
/// per-snapshot chunk references from the index.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Placement/eviction policy of a [`SnapshotStore`]: how many snapshots it
/// may hold and how far apart restorable points are allowed to drift.
///
/// The policy itself is pure (no I/O): [`RetentionPolicy::evictions`] maps
/// a sorted set of stored decision indices to the indices to drop, which is
/// what the availability proptest exercises directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Maximum allowed distance (in decisions) from any decision in the
    /// checkpointed region back to the nearest restorable point at or
    /// before it. Decision 0 is an implicit restorable point.
    pub bound: u64,
    /// Soft capacity: eviction starts above this count, but never at the
    /// price of violating `bound`.
    pub max_snapshots: u64,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            bound: 64,
            max_snapshots: 8,
        }
    }
}

impl RetentionPolicy {
    /// A policy with both knobs clamped to at least 1.
    pub fn new(bound: u64, max_snapshots: u64) -> Self {
        RetentionPolicy {
            bound: bound.max(1),
            max_snapshots: max_snapshots.max(1),
        }
    }

    /// The position in `kept` (sorted stored decisions) whose eviction
    /// opens the smallest merged gap, provided that gap stays within
    /// `bound`. The newest snapshot is never a victim — it is the frontier
    /// the next offers extend from. Returns `None` when no snapshot can be
    /// evicted without breaking the availability bound.
    fn victim(&self, kept: &[u64]) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..kept.len().saturating_sub(1) {
            let prev = if i == 0 { 0 } else { kept[i - 1] };
            let merged = kept[i + 1] - prev;
            if merged <= self.bound && best.is_none_or(|(g, _)| merged < g) {
                best = Some((merged, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Shrinks `kept` (sorted stored decisions) towards `max_snapshots`,
    /// returning the evicted decisions. Stops early — possibly above
    /// capacity — when further eviction would break the availability
    /// bound.
    pub fn evictions(&self, kept: &mut Vec<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        while kept.len() as u64 > self.max_snapshots {
            match self.victim(kept) {
                Some(i) => out.push(kept.remove(i)),
                None => break,
            }
        }
        out
    }

    /// The worst-case replay distance over decisions `0..=run_len` given
    /// stored points `kept` (sorted): the largest gap between consecutive
    /// restorable points, counting the implicit point at 0 and the distance
    /// from the last point to the end of the run.
    pub fn max_gap(kept: &[u64], run_len: u64) -> u64 {
        let mut prev = 0u64;
        let mut worst = 0u64;
        for &k in kept {
            worst = worst.max(k.saturating_sub(prev));
            prev = k;
        }
        worst.max(run_len.saturating_sub(prev))
    }
}

/// Index row of one stored snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapEntry {
    /// Store-assigned id (monotonic; what [`crate::EpochMark::snapshot`]
    /// references).
    pub id: u64,
    /// Decision index the snapshot restores to.
    pub decision: u64,
    /// Kernel steps at the snapshot point.
    pub step: u64,
    /// Execution-clock value at the snapshot point.
    pub time: u64,
    /// Bytes newly written when this snapshot was saved (its manifest plus
    /// the log elements appended since the previous save) — the
    /// snapshot's marginal on-disk cost.
    pub bytes: u64,
    /// The previously stored snapshot this one delta-encodes against
    /// (`None` for the first snapshot of the run).
    pub parent: Option<u64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreIndex {
    version: u32,
    policy: RetentionPolicy,
    next_id: u64,
    snaps: Vec<SnapEntry>,
}

/// A [`SnapshotStore`] failure. Every variant names the file involved, so
/// the CLI can report *which* artifact is corrupt before exiting.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error on the named file or directory.
    Io {
        /// The path the operation failed on.
        file: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The named file exists but does not decode to a valid artifact
    /// (truncated, garbled, wrong version, or failing the snapshot digest
    /// check).
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io { file, source } => {
                write!(f, "snapshot store: {}: {source}", file.display())
            }
            StoreError::Corrupt { file, detail } => {
                write!(
                    f,
                    "snapshot store: corrupt artifact {}: {detail}",
                    file.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn corrupt(file: &Path, detail: String) -> StoreError {
    StoreError::Corrupt {
        file: file.to_owned(),
        detail,
    }
}

/// Reads a versioned JSON artifact, rejecting any other version by name
/// before decoding its fields: another version's fields need not parse as
/// this one's, and its digests cannot be checked by this build.
fn load_versioned<T: Deserialize>(path: &Path, what: &str, current: u32) -> Result<T, StoreError> {
    let content: Content = load_json(path)?;
    let version = content
        .as_map()
        .and_then(|m| serde::field(m, "version", what).ok())
        .and_then(|v| u32::from_content(v).ok());
    match version {
        Some(v) if v != current => Err(corrupt(
            path,
            format!(
                "{what} format v{v} is not readable by this build (v{current}); \
                 re-record the trace"
            ),
        )),
        _ => T::from_content(&content).map_err(|e| corrupt(path, e.to_string())),
    }
}

/// FNV-1a offset basis: the checksum of an empty log prefix.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends the FNV-1a checksum `h` of a log prefix over `bytes`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A directory of persistent, delta-encoded snapshots of one recorded run
/// (see the [module docs](self) for layout and guarantees).
///
/// The store implements [`dd_sim::SnapshotSink`], so it plugs straight into
/// [`dd_sim::RunConfig::snapshot_sink`](dd_sim::RunConfig): the kernel
/// offers every planned checkpoint, the store persists it and applies its
/// retention policy, and the run's `RunOutput::spilled` marks (and from
/// them the trace footer's [`EpochMark`](crate::EpochMark)s) carry the
/// store ids back to replay tooling.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    index: StoreIndex,
    /// The logs of the manifest this handle saved last: how far each log
    /// file has been appended. Empty until the first save, so the first
    /// save of a reopened store rewrites each log whole (the same run
    /// writes the same prefix).
    appended: Vec<LogManifest>,
}

impl SnapshotStore {
    /// Creates an empty store at `dir` (the directory and its
    /// substructure are created; an existing index is overwritten — a
    /// store describes exactly one recording).
    pub fn create(dir: impl Into<PathBuf>, policy: RetentionPolicy) -> Result<Self, StoreError> {
        let dir = dir.into();
        for sub in ["logs", "snaps"] {
            let p = dir.join(sub);
            std::fs::create_dir_all(&p).map_err(|source| StoreError::Io { file: p, source })?;
        }
        let store = SnapshotStore {
            dir,
            index: StoreIndex {
                version: STORE_FORMAT_VERSION,
                policy,
                next_id: 0,
                snaps: Vec::new(),
            },
            appended: Vec::new(),
        };
        store.persist_index()?;
        Ok(store)
    }

    /// Opens an existing store, validating the index format. A store of
    /// another format version (such as the v1 `chunks/` layout) is refused
    /// by name.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        let index = load_versioned(&dir.join("store.json"), "store", STORE_FORMAT_VERSION)?;
        Ok(SnapshotStore {
            dir,
            index,
            appended: Vec::new(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's retention policy.
    pub fn policy(&self) -> RetentionPolicy {
        self.index.policy
    }

    /// Stored snapshots, in increasing decision order.
    pub fn list(&self) -> &[SnapEntry] {
        &self.index.snaps
    }

    /// The deepest stored snapshot at or before `decision`, if any.
    pub fn nearest_at_or_before(&self, decision: u64) -> Option<&SnapEntry> {
        self.index
            .snaps
            .iter()
            .take_while(|s| s.decision <= decision)
            .last()
    }

    /// The worst-case replay distance anywhere in `0..=run_len` given the
    /// currently stored snapshots (see [`RetentionPolicy::max_gap`]).
    pub fn max_gap(&self, run_len: u64) -> u64 {
        let kept: Vec<u64> = self.index.snaps.iter().map(|s| s.decision).collect();
        RetentionPolicy::max_gap(&kept, run_len)
    }

    /// Total bytes currently on disk (index, manifests and log files).
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| {
                    let p = e.path();
                    if p.is_dir() {
                        walk(&p)
                    } else {
                        e.metadata().map(|m| m.len()).unwrap_or(0)
                    }
                })
                .sum()
        }
        walk(&self.dir)
    }

    /// Bytes the stored snapshots would occupy *without* delta encoding:
    /// every snapshot counted as a standalone artifact (its manifest plus
    /// the log prefix it references, `end` bytes per log), so history
    /// shared between snapshots is counted once per referencing snapshot.
    /// Comparing this against [`disk_bytes`](Self::disk_bytes) measures
    /// what sharing the append-only logs saves (the ABL-12 sweep). A
    /// manifest that cannot be read counts as its file size alone.
    pub fn standalone_bytes(&self) -> u64 {
        self.index
            .snaps
            .iter()
            .map(|e| {
                let path = self.manifest_path(e.id);
                let file = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let logs = load_json::<SnapshotManifest>(&path)
                    .map(|m| m.logs.iter().map(|l| l.end).sum::<u64>())
                    .unwrap_or(0);
                file + logs
            })
            .sum()
    }

    fn log_path(&self, log: &str) -> PathBuf {
        self.dir.join("logs").join(format!("{log}.jsonl"))
    }

    fn manifest_path(&self, id: u64) -> PathBuf {
        self.dir.join("snaps").join(format!("{id}.json"))
    }

    fn persist_index(&self) -> Result<(), StoreError> {
        let ipath = self.dir.join("store.json");
        save_json(&self.index, &ipath)
    }

    /// Persists one snapshot: appends each log's elements logged since the
    /// previous save, writes the manifest, then re-applies the retention
    /// policy and the index. Returns the store id the snapshot is
    /// retrievable under.
    ///
    /// Snapshots must be offered in increasing decision order (they are, by
    /// construction, when the store is a run's
    /// [`snapshot_sink`](dd_sim::RunConfig)); a snapshot whose log is
    /// shorter than what the store already holds is refused.
    pub fn save(&mut self, snap: &WorldSnapshot) -> Result<u64, StoreError> {
        let mut manifest = encode_manifest(snap);
        let mut fresh = 0u64;
        for log in &mut manifest.logs {
            let path = self.log_path(&log.name);
            let (len, end, hash) = self
                .appended
                .iter()
                .find(|p| p.name == log.name)
                .map_or((0, 0, FNV_OFFSET), |p| (p.len, p.end, p.hash));
            if log.len < len {
                return Err(corrupt(
                    &path,
                    format!(
                        "the snapshot at decision {} holds {} elements, the file already {len}; \
                         a store takes one run's snapshots in decision order",
                        manifest.decision, log.len
                    ),
                ));
            }
            let elements = encode_log_range(snap, &log.name, len..log.len)
                .ok_or_else(|| corrupt(&path, format!("the snapshot has no log {:?}", log.name)))?;
            let mut lines = String::new();
            for element in elements {
                let line =
                    serde_json::to_string(&element).map_err(|e| corrupt(&path, e.to_string()))?;
                lines.push_str(&line);
                lines.push('\n');
            }
            if !lines.is_empty() {
                append_at(&path, end, lines.as_bytes())
                    .map_err(|source| StoreError::Io { file: path, source })?;
            }
            log.end = end + lines.len() as u64;
            log.hash = fnv1a(hash, lines.as_bytes());
            fresh += lines.len() as u64;
        }
        let id = self.index.next_id;
        self.index.next_id += 1;
        let mpath = self.manifest_path(id);
        let text = serde_json::to_string(&manifest).map_err(|e| corrupt(&mpath, e.to_string()))?;
        std::fs::write(&mpath, &text).map_err(|source| StoreError::Io {
            file: mpath,
            source,
        })?;
        fresh += text.len() as u64;
        let parent = self.index.snaps.last().map(|s| s.id);
        self.index.snaps.push(SnapEntry {
            id,
            decision: manifest.decision,
            step: manifest.step,
            time: manifest.time,
            bytes: fresh,
            parent,
        });
        self.appended = manifest.logs;

        let mut kept: Vec<u64> = self.index.snaps.iter().map(|s| s.decision).collect();
        for decision in self.index.policy.evictions(&mut kept) {
            if let Some(pos) = self.index.snaps.iter().position(|s| s.decision == decision) {
                let gone = self.index.snaps.remove(pos);
                std::fs::remove_file(self.manifest_path(gone.id)).ok();
            }
        }
        self.persist_index()?;
        Ok(id)
    }

    /// The first `m.len` elements of a log, read from the first `m.end`
    /// bytes of its file and checked against the checksum `manifest`
    /// recorded. Errors name the log file (and the manifest, when the
    /// two disagree).
    fn read_log(&self, m: &LogManifest, manifest: &Path) -> Result<Vec<Content>, StoreError> {
        if m.name.is_empty()
            || !m
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(corrupt(
                manifest,
                format!("log name {:?} is not a plain file name", m.name),
            ));
        }
        let path = self.log_path(&m.name);
        // A log nothing was ever appended to has no file.
        let mut bytes = Vec::new();
        if m.end > 0 {
            std::fs::File::open(&path)
                .and_then(|f| f.take(m.end).read_to_end(&mut bytes))
                .map_err(|source| StoreError::Io {
                    file: path.clone(),
                    source,
                })?;
        }
        if (bytes.len() as u64) < m.end {
            return Err(corrupt(
                &path,
                format!(
                    "file holds {} bytes, {} says its prefix ends at {}",
                    bytes.len(),
                    manifest.display(),
                    m.end
                ),
            ));
        }
        if fnv1a(FNV_OFFSET, &bytes) != m.hash {
            return Err(corrupt(
                &path,
                format!(
                    "the first {} bytes do not match the checksum in {}",
                    m.end,
                    manifest.display()
                ),
            ));
        }
        let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(&path, e.to_string()))?;
        text.split_terminator('\n')
            .enumerate()
            .map(|(i, line)| {
                serde_json::from_str(line)
                    .map_err(|e| corrupt(&path, format!("line {}: {e}", i + 1)))
            })
            .collect()
    }

    /// Restores the snapshot stored under `id`, attaching `policy` as the
    /// resumed world's scheduler. Fails — naming the offending file —
    /// when the manifest or any log prefix it references is missing,
    /// garbled, of another format version, or fails the world-digest
    /// integrity check.
    pub fn load(
        &self,
        id: u64,
        policy: Box<dyn SchedulePolicy>,
    ) -> Result<WorldSnapshot, StoreError> {
        let mpath = self.manifest_path(id);
        let manifest: SnapshotManifest =
            load_versioned(&mpath, "snapshot", SNAPSHOT_FORMAT_VERSION)?;
        let mut failed: Option<StoreError> = None;
        let mut fetch = |m: &LogManifest| {
            self.read_log(m, &mpath).map_err(|e| {
                let detail = e.to_string();
                failed = Some(e);
                detail
            })
        };
        decode_snapshot(&manifest, &mut fetch, policy)
            .map_err(|detail| failed.take().unwrap_or_else(|| corrupt(&mpath, detail)))
    }
}

/// Writes `bytes` into the log file at `path` at byte offset `at`, where
/// the previous save's prefix ends. A fresh log (`at == 0`) truncates
/// whatever file was there; anything past `at` left by a failed save is
/// overwritten or lies beyond every manifest's `end`.
fn append_at(path: &Path, at: u64, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(at == 0)
        .open(path)?;
    file.seek(SeekFrom::Start(at))?;
    file.write_all(bytes)
}

impl SnapshotSink for SnapshotStore {
    /// Keeps every offer at a decision the store has not seen yet; a
    /// repeated offer at an already-stored decision is declined rather
    /// than duplicated. Write failures surface as `Err` (the run records
    /// them in `RunOutput::spill_errors` and continues).
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String> {
        if self
            .index
            .snaps
            .iter()
            .any(|s| s.decision == snap.at_decision())
        {
            return Ok(None);
        }
        self.save(snap).map(Some).map_err(|e| e.to_string())
    }

    /// Retention may have evicted a snapshot an earlier offer kept.
    fn holds(&self, id: u64) -> bool {
        self.index.snaps.iter().any(|s| s.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::{
        run_program, Builder, ChanClass, CheckpointPlan, Program, RandomPolicy, ReplayPolicy,
        RunConfig,
    };
    use proptest::prelude::*;

    /// Three adders race on a shared total; a reporter drains their done
    /// messages and publishes the result. Enough contention to generate a
    /// long multi-candidate decision stream.
    struct Racer;

    impl Program for Racer {
        fn name(&self) -> &'static str {
            "racer"
        }

        fn setup(&self, b: &mut Builder<'_>) {
            let total = b.var("total", 0i64);
            let done = b.channel::<i64>("done", ChanClass::Local);
            let out = b.out_port("result");
            for i in 0..3 {
                b.spawn("adder", "adders", move |mut ctx| async move {
                    for _ in 0..40 {
                        let v: i64 = ctx.read(&total, "racer::load").await?;
                        ctx.write(&total, v + 1, "racer::store").await?;
                    }
                    ctx.send(&done, i, "racer::done").await?;
                    Ok(())
                });
            }
            b.spawn("reporter", "report", move |mut ctx| async move {
                for _ in 0..3 {
                    let _: i64 = ctx.recv(&done, "racer::join").await?;
                }
                let v: i64 = ctx.read(&total, "racer::final").await?;
                ctx.output(out, v, "racer::out").await
            });
        }
    }

    fn checkpointed_cfg(max_decision: u64) -> RunConfig {
        RunConfig {
            seed: 11,
            checkpoints: Some(CheckpointPlan::new(4, max_decision)),
            hash_decisions: true,
            ..RunConfig::default()
        }
    }

    fn spill_cfg(store: SnapshotStore) -> RunConfig {
        RunConfig {
            snapshot_sink: Some(Box::new(store)),
            ..checkpointed_cfg(400)
        }
    }

    fn tmp_store_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dd-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn spilled_run_restores_and_resumes_identically() {
        let dir = tmp_store_dir("roundtrip");
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(16, 64)).unwrap();
        let recorded = run_program(
            &Racer,
            spill_cfg(store),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        assert!(
            recorded.spill_errors.is_empty(),
            "{:?}",
            recorded.spill_errors
        );
        assert!(
            recorded.spilled.len() >= 3,
            "deep run spills several snapshots, got {:?}",
            recorded.spilled
        );
        assert!(
            recorded.snapshots.is_empty(),
            "a sink-backed run keeps no snapshots in memory"
        );

        // Cold restart: reopen the store from disk only.
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.list().len(), recorded.spilled.len());
        // Delta encoding: with no eviction, each snapshot names the
        // previous one as its delta parent.
        assert!(store.list()[0].parent.is_none());
        for w in store.list().windows(2) {
            assert_eq!(w[1].parent, Some(w[0].id));
        }
        let mid = &recorded.spilled[recorded.spilled.len() / 2];
        let entry = store.nearest_at_or_before(mid.decision).unwrap();
        assert_eq!(entry.decision, mid.decision);
        let replay = ReplayPolicy::resuming_at(
            recorded
                .decisions
                .iter()
                .map(|d| dd_sim::RecordedDecision {
                    kind: d.kind,
                    chosen: d.chosen,
                })
                .collect::<Vec<_>>(),
            entry.decision as usize,
        );
        let snap = store.load(entry.id, Box::new(replay)).unwrap();
        assert_eq!(snap.at_decision(), mid.decision);
        let resumed = dd_sim::resume_program(
            &Racer,
            RunConfig {
                seed: 11,
                hash_decisions: true,
                ..RunConfig::default()
            },
            &snap,
            None,
            vec![],
        );
        assert_eq!(resumed.final_state_hash, recorded.final_state_hash);
        assert_eq!(resumed.io, recorded.io);
        assert_eq!(
            resumed.decision_hashes, recorded.decision_hashes,
            "prefix hashes come from the snapshot, tail hashes from re-execution"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_respects_bound_and_reports_deltas() {
        let dir = tmp_store_dir("evict");
        // Tight capacity: far fewer slots than the run has checkpoints.
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(20, 3)).unwrap();
        let out = run_program(
            &Racer,
            spill_cfg(store),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let store = SnapshotStore::open(&dir).unwrap();
        let run_len = out.decisions.len() as u64;
        assert!(
            store.max_gap(run_len.min(400)) <= 20,
            "availability bound holds under eviction: gap {} with {:?}",
            store.max_gap(run_len.min(400)),
            store.list().iter().map(|s| s.decision).collect::<Vec<_>>()
        );
        // Parent pointers record the delta parent at save time; an evicted
        // parent does not break loading (eviction never touches the logs).
        let list = store.list();
        assert!(list.len() >= 2);
        for e in list {
            assert!(e.parent.is_none_or(|p| p < e.id));
        }
        // Each stored snapshot remains loadable.
        for entry in list {
            let snap = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap();
            assert_eq!(snap.at_decision(), entry.decision);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifacts_are_rejected_with_the_file_named() {
        let dir = tmp_store_dir("corrupt");
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(16, 64)).unwrap();
        run_program(
            &Racer,
            spill_cfg(store),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let store = SnapshotStore::open(&dir).unwrap();
        let entry = store.list().last().unwrap().clone();

        // Garble a middle line of a log, then cut the log short of the
        // newest manifest's `end`: both must fail naming the log file.
        let victim = dir.join("logs").join("decisions.jsonl");
        let original = std::fs::read_to_string(&victim).unwrap();
        let lines: Vec<&str> = original.lines().collect();
        assert!(lines.len() > 2, "a deep run logs many decisions");
        let mid = lines.len() / 2;
        let garbled = original.replacen(lines[mid], "{garbled", 1);
        let cut = &original[..original.len() - 1];
        for (how, body) in [("garbled", garbled.as_str()), ("truncated", cut)] {
            std::fs::write(&victim, body).unwrap();
            let err = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap_err();
            assert!(
                err.to_string().contains("logs/decisions.jsonl"),
                "{how}: error names the corrupt log file: {err}"
            );
        }
        std::fs::write(&victim, &original).unwrap();
        store
            .load(entry.id, Box::new(RandomPolicy::new(1)))
            .expect("the restored log loads again");

        // Truncate the manifest: same contract.
        let mpath = dir.join("snaps").join(format!("{}.json", entry.id));
        let manifest_bytes = std::fs::read(&mpath).unwrap();
        std::fs::write(&mpath, &manifest_bytes[..manifest_bytes.len() / 2]).unwrap();
        let err = store
            .load(entry.id, Box::new(RandomPolicy::new(1)))
            .unwrap_err();
        assert!(
            err.to_string().contains(&format!("{}.json", entry.id)),
            "error names the truncated manifest: {err}"
        );

        // A missing store directory is an I/O error naming the index.
        std::fs::remove_dir_all(&dir).ok();
        let err = SnapshotStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("store.json"), "{err}");
    }

    #[test]
    fn a_reopened_store_saves_and_keeps_every_snapshot_loadable() {
        let dir = tmp_store_dir("reopen");
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(16, 64)).unwrap();
        let short = RunConfig {
            snapshot_sink: Some(Box::new(store)),
            ..checkpointed_cfg(100)
        };
        run_program(&Racer, short, Box::new(RandomPolicy::new(7)), vec![]);
        // The same run, checkpointed further and kept in memory.
        let long = run_program(
            &Racer,
            checkpointed_cfg(400),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let mut store = SnapshotStore::open(&dir).unwrap();
        let newest = store.list().last().unwrap().decision;
        let later = long
            .snapshots
            .iter()
            .find(|s| s.at_decision() > newest)
            .expect("the longer plan checkpoints past the short one");
        let id = store.save(later).unwrap();
        for entry in SnapshotStore::open(&dir).unwrap().list() {
            let snap = store
                .load(entry.id, Box::new(RandomPolicy::new(1)))
                .unwrap();
            assert_eq!(snap.at_decision(), entry.decision);
        }
        let back = store.load(id, Box::new(RandomPolicy::new(1))).unwrap();
        assert_eq!(encode_manifest(&back).digest, encode_manifest(later).digest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn other_format_versions_are_refused_asking_for_a_re_record() {
        let dir = tmp_store_dir("versions");
        let store = SnapshotStore::create(&dir, RetentionPolicy::new(16, 64)).unwrap();
        run_program(
            &Racer,
            spill_cfg(store),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let store = SnapshotStore::open(&dir).unwrap();
        let id = store.list()[0].id;

        // A v3 manifest (sealed-chunk counts and inline tails) is refused
        // by version, before its v3-only fields fail to parse.
        let mpath = dir.join("snaps").join(format!("{id}.json"));
        let v3 = r#"{"version":3,"decision":4,"step":9,"time":9,"digest":1,"live":{},
            "logs":[{"name":"decisions","chunk_len":256,"sealed":0,"tail":[]}]}"#;
        std::fs::write(&mpath, v3).unwrap();
        let err = store
            .load(id, Box::new(RandomPolicy::new(1)))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("{id}.json"))
                && err.contains("snapshot format v3")
                && err.contains("re-record the trace"),
            "{err}"
        );

        // A v1 store: the `chunks/` layout, with chunk references in the
        // index rows.
        let v1 = r#"{"version":1,"policy":{"bound":16,"max_snapshots":64},"next_id":1,
            "snaps":[{"id":0,"decision":4,"step":9,"time":9,"bytes":10,"parent":null,
            "logs":[{"name":"decisions","sealed":1}]}]}"#;
        std::fs::write(dir.join("store.json"), v1).unwrap();
        let err = SnapshotStore::open(&dir).unwrap_err().to_string();
        assert!(
            err.contains("store.json")
                && err.contains("store format v1")
                && err.contains("re-record the trace"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        /// The availability invariant, as an invariant rather than an
        /// example: for any run length, checkpoint cadence no coarser than
        /// the bound, and any (possibly severe) capacity pressure, every
        /// decision index in the checkpointed region stays within `bound`
        /// of a restorable point at or before it — after every single
        /// offer, not just at the end.
        #[test]
        fn availability_bound_survives_eviction_pressure(
            bound in 1u64..40,
            cadence_frac in 1u64..101,
            max_snapshots in 1u64..10,
            run_len in 1u64..2_000,
        ) {
            // Cadence in 1..=bound: offers can never arrive farther apart
            // than the bound itself (a plan coarser than the bound makes
            // the invariant unsatisfiable by construction).
            let cadence = (cadence_frac * bound).div_ceil(100).clamp(1, bound);
            let policy = RetentionPolicy::new(bound, max_snapshots);
            let mut kept: Vec<u64> = Vec::new();
            let mut frontier = 0u64;
            let mut d = cadence;
            while d <= run_len {
                kept.push(d);
                frontier = d;
                let _ = policy.evictions(&mut kept);
                prop_assert!(
                    RetentionPolicy::max_gap(&kept, frontier) <= bound,
                    "gap {} > bound {bound} after offer at {d} (kept {kept:?})",
                    RetentionPolicy::max_gap(&kept, frontier),
                );
                d += cadence;
            }
            // The whole checkpointed region keeps the bound, and capacity
            // pressure was real: we never hold more than max_snapshots
            // unless the bound forced us to.
            prop_assert!(RetentionPolicy::max_gap(&kept, frontier) <= bound);
            if kept.len() as u64 > max_snapshots {
                // Over capacity only because every eviction would break
                // the bound: check that no victim exists.
                let mut probe = kept.clone();
                prop_assert!(policy.evictions(&mut probe).is_empty());
            }
        }
    }
}
