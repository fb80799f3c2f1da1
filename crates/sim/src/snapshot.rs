//! The on-disk snapshot codec and the spill hook.
//!
//! A [`WorldSnapshot`] splits into two very
//! different kinds of state:
//!
//! - *live* machine state (tasks, variables, locks, channels, ports,
//!   clocks, RNG, pending environment events) — small, different at every
//!   snapshot; and
//! - *history* logs ([`ChunkedLog`]s) — large and append-only.
//!
//! A history log only grows, so each snapshot's logs are a prefix of every
//! later snapshot's logs of the same run. The on-disk format exploits
//! exactly that: a snapshot *manifest* carries the live state and, for each
//! log, only its geometry and element count `len`. The elements live in one
//! append-only file per log, shared by every snapshot of the run, so a later
//! snapshot is a *delta*: its manifest plus the elements logged since the
//! previous save ([`encode_log_range`]).
//!
//! This module owns the *codec* (world ⇄ serializable manifest + log
//! elements) and the [`SnapshotSink`] hook the driver offers snapshots
//! through; the store that appends the log files, records where each
//! snapshot's prefix ends (and enforces the replay-starting-point
//! availability bound) lives in `dd-trace`, which has the file-format
//! dependencies.
//!
//! Integrity: the manifest embeds the world's state digest, computed from
//! scratch at encode time, and [`decode_snapshot`] recomputes it from
//! scratch after reassembly (rebuilding the world's incremental digest
//! cache on the way) — a truncated or garbled artifact fails decode with an
//! error naming the mismatch instead of resuming from a corrupt world. The
//! digest covers history *lengths*, not history contents, so the store
//! checksums each log prefix itself ([`LogManifest::hash`]).

use crate::error::StopReason;
use crate::history::ChunkedLog;
use crate::kernel::{
    ChanRec, CvarRec, LockRec, PendingInput, PortRec, TaskRec, VarRec, WorldSnapshot, WorldState,
};
use crate::policy::SchedulePolicy;
use crate::rng::DetRng;
use serde::{Content, Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::ops::Range;

/// Version tag of the snapshot manifest format.
///
/// - v2 added the fault-plane runtime state (partition schedule status,
///   restart queue, per-group crash/restart counters) to the live state.
/// - v3 changed the manifest's integrity digest to the word-hashed
///   per-object construction of the incremental state digest (the live
///   state layout is unchanged).
/// - v4 moved the history logs out of the manifest: it records each log's
///   element count and the end and checksum of its on-disk prefix, and no
///   longer carries sealed-chunk counts or inline tails.
///
/// Only the current version decodes: an older manifest's digest cannot be
/// checked against this build's digest, so its store must be re-recorded.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 4;

/// One history log's entry in a [`SnapshotManifest`]: the chunking
/// geometry, how many elements the snapshot holds (the log's first `len`),
/// and where the on-disk prefix holding them ends.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogManifest {
    /// Canonical log name (`"trace"`, `"decisions"`, `"syslog-3"`, …).
    pub name: String,
    /// Elements per sealed chunk.
    pub chunk_len: u64,
    /// Number of elements: the snapshot holds elements `0..len`.
    pub len: u64,
    /// Byte length of the on-disk prefix holding elements `0..len`.
    /// [`encode_manifest`] leaves it 0; the store that writes the log
    /// fills it in.
    pub end: u64,
    /// Checksum of that prefix, filled in by the store like `end`.
    pub hash: u64,
}

/// The serializable form of one [`WorldSnapshot`] minus the history log
/// elements (see the [module docs](self) for the delta layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotManifest {
    /// Format version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub version: u32,
    /// Decision index the snapshot was taken at.
    pub decision: u64,
    /// Successful operations executed up to the snapshot point.
    pub step: u64,
    /// Execution-clock value at the snapshot point.
    pub time: u64,
    /// State digest of the world at encode time; decode recomputes it from
    /// scratch and compares to reject corrupt or truncated artifacts.
    pub digest: u64,
    /// The live (non-log) machine state, encoded.
    pub live: Content,
    /// One entry per history log present in the world.
    pub logs: Vec<LogManifest>,
}

/// Identifies one spilled snapshot in a [`RunOutput`](crate::driver::RunOutput):
/// where in the run it was taken and the sink-assigned id it is retrievable
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotMark {
    /// Decision index the snapshot was taken at.
    pub decision: u64,
    /// Operation count at the snapshot point.
    pub step: u64,
    /// Execution-clock value at the snapshot point.
    pub time: u64,
    /// Sink-assigned retrieval id.
    pub id: u64,
}

/// Destination for spilled snapshots (see
/// [`RunConfig::snapshot_sink`](crate::config::RunConfig)).
///
/// When a sink is configured, the driver *offers* it every snapshot the
/// run's [`CheckpointPlan`](crate::config::CheckpointPlan) calls for
/// instead of accumulating them in memory. The sink decides whether to keep the offer (its placement and
/// eviction policy is its own business — `dd-trace`'s store maintains a
/// bounded distance-to-nearest-checkpoint guarantee) and returns the id the
/// kept snapshot is retrievable under.
pub trait SnapshotSink: Send {
    /// Offers one snapshot. Returns `Ok(Some(id))` if the sink kept it,
    /// `Ok(None)` if it declined, and `Err` on a write failure (the run
    /// continues; errors are surfaced in
    /// [`RunOutput::spill_errors`](crate::driver::RunOutput)).
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String>;

    /// Whether the sink still holds snapshot `id`, which an earlier
    /// [`offer`](Self::offer) kept. A sink with a retention policy may
    /// evict it later; the run reports only the snapshots the sink still
    /// holds when it ends. Defaults to `true`.
    fn holds(&self, _id: u64) -> bool {
        true
    }
}

/// The live (non-log) half of a [`WorldState`], in a serializable mirror.
#[derive(Serialize, Deserialize)]
struct LiveState {
    tasks: Vec<TaskRec>,
    vars: Vec<VarRec>,
    locks: Vec<LockRec>,
    cvars: Vec<CvarRec>,
    chans: Vec<ChanRec>,
    ports: Vec<PortRec>,
    time: u64,
    wall_extra: u64,
    steps: u64,
    events: u64,
    rng: DetRng,
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    pending_inputs: VecDeque<PendingInput>,
    pending_crashes: VecDeque<(u64, String)>,
    pending_partitions: VecDeque<(u64, String, String)>,
    pending_heals: VecDeque<(u64, String, String)>,
    active_partitions: BTreeSet<(String, String)>,
    pending_restarts: VecDeque<(u64, String)>,
    restarts_due: Vec<String>,
    restarts_fired: Vec<(String, u32)>,
    crash_counts: BTreeMap<String, u64>,
    restart_counts: BTreeMap<String, u64>,
    counters: BTreeMap<String, i64>,
    cancelling: bool,
    stop: Option<StopReason>,
    decision_seq: u64,
    net_sends: u64,
    record_syslog: bool,
    hash_decisions: bool,
}

impl LiveState {
    fn of(w: &WorldState) -> LiveState {
        LiveState {
            tasks: w.tasks.clone(),
            vars: w.vars.clone(),
            locks: w.locks.clone(),
            cvars: w.cvars.clone(),
            chans: w.chans.clone(),
            ports: w.ports.clone(),
            time: w.time,
            wall_extra: w.wall_extra,
            steps: w.steps,
            events: w.events,
            rng: w.rng.clone(),
            timers: w.timers.clone(),
            pending_inputs: w.pending_inputs.clone(),
            pending_crashes: w.pending_crashes.clone(),
            pending_partitions: w.pending_partitions.clone(),
            pending_heals: w.pending_heals.clone(),
            active_partitions: w.active_partitions.clone(),
            pending_restarts: w.pending_restarts.clone(),
            restarts_due: w.restarts_due.clone(),
            restarts_fired: w.restarts_fired.clone(),
            crash_counts: w.crash_counts.clone(),
            restart_counts: w.restart_counts.clone(),
            counters: w.counters.clone(),
            cancelling: w.cancelling,
            stop: w.stop.clone(),
            decision_seq: w.decision_seq,
            net_sends: w.net_sends,
            record_syslog: w.record_syslog,
            hash_decisions: w.hash_decisions,
        }
    }
}

fn log_manifest<T>(name: &str, log: &ChunkedLog<T>) -> LogManifest {
    LogManifest {
        name: name.to_owned(),
        chunk_len: log.chunk_len() as u64,
        len: log.len() as u64,
        end: 0,
        hash: 0,
    }
}

/// Encodes a snapshot's manifest: live state, log geometry and lengths, and
/// the integrity digest. Log elements are encoded separately via
/// [`encode_log_range`].
///
/// The scheduling policy is *not* part of the manifest — the two consumers
/// supply their own (exact replay rebuilds a
/// [`ReplayPolicy`](crate::policy::ReplayPolicy) from the schedule
/// artifact's decisions; exploration forks with a search policy).
pub fn encode_manifest(snap: &WorldSnapshot) -> SnapshotManifest {
    let w = &snap.world;
    let mut logs = Vec::new();
    if let Some(trace) = &w.trace {
        logs.push(log_manifest("trace", trace));
    }
    logs.push(log_manifest("outputs", &w.outputs));
    logs.push(log_manifest("inputs_seen", &w.inputs_seen));
    logs.push(log_manifest("crashes", &w.crashes));
    logs.push(log_manifest("decisions", &w.decisions));
    logs.push(log_manifest("decision_enabled", &w.decision_enabled));
    logs.push(log_manifest("decision_hashes", &w.decision_hashes));
    for (i, log) in w.sys_log.iter().enumerate() {
        logs.push(log_manifest(&format!("syslog-{i}"), log));
    }
    SnapshotManifest {
        version: SNAPSHOT_FORMAT_VERSION,
        decision: w.decision_seq,
        step: w.steps,
        time: w.time,
        digest: w.full_digest(),
        live: LiveState::of(w).to_content(),
        logs,
    }
}

/// Encodes elements `range` of the named log, one [`Content`] per element,
/// or `None` if the log does not exist in this snapshot or is shorter than
/// `range.end`. Logged elements never change: element `i` encodes
/// identically in every later snapshot of the same run, which is what lets
/// a store append each element exactly once.
pub fn encode_log_range(
    snap: &WorldSnapshot,
    log: &str,
    range: Range<u64>,
) -> Option<Vec<Content>> {
    fn encode<T: Serialize>(log: &ChunkedLog<T>, range: Range<u64>) -> Option<Vec<Content>> {
        let from = usize::try_from(range.start).ok()?;
        let to = usize::try_from(range.end).ok()?;
        (from..to).map(|i| log.get(i).map(T::to_content)).collect()
    }
    let w = &snap.world;
    match log {
        "trace" => encode(w.trace.as_ref()?, range),
        "outputs" => encode(&w.outputs, range),
        "inputs_seen" => encode(&w.inputs_seen, range),
        "crashes" => encode(&w.crashes, range),
        "decisions" => encode(&w.decisions, range),
        "decision_enabled" => encode(&w.decision_enabled, range),
        "decision_hashes" => encode(&w.decision_hashes, range),
        _ => {
            let task = log.strip_prefix("syslog-")?.parse::<usize>().ok()?;
            encode(w.sys_log.get(task)?, range)
        }
    }
}

/// Rebuilds one log from the fetcher's elements, sealing chunks at the
/// manifest's `chunk_len` exactly as the recording run did.
fn decode_log<T: Deserialize>(
    m: &LogManifest,
    fetch: &mut dyn FnMut(&LogManifest) -> Result<Vec<Content>, String>,
) -> Result<ChunkedLog<T>, String> {
    let elements = fetch(m)?;
    if elements.len() as u64 != m.len {
        return Err(format!(
            "log `{}` holds {} elements, manifest says {}",
            m.name,
            elements.len(),
            m.len
        ));
    }
    let chunk_len = usize::try_from(m.chunk_len).unwrap_or(usize::MAX).max(1);
    let decode = |run: &[Content], first: usize| -> Result<Vec<T>, String> {
        let mut values = Vec::with_capacity(run.len());
        for (j, e) in run.iter().enumerate() {
            let value = T::from_content(e)
                .map_err(|e| format!("log `{}` element {}: {e}", m.name, first + j))?;
            values.push(value);
        }
        Ok(values)
    };
    let (sealed, tail) = elements.split_at(elements.len() / chunk_len * chunk_len);
    let sealed = sealed
        .chunks(chunk_len)
        .enumerate()
        .map(|(c, run)| decode(run, c * chunk_len))
        .collect::<Result<Vec<_>, _>>()?;
    let tail = decode(tail, sealed.len() * chunk_len)?;
    ChunkedLog::from_parts(chunk_len, sealed, tail).map_err(|e| format!("log `{}`: {e}", m.name))
}

fn find<'a>(logs: &'a [LogManifest], name: &str) -> Result<&'a LogManifest, String> {
    logs.iter()
        .find(|l| l.name == name)
        .ok_or_else(|| format!("manifest is missing log `{name}`"))
}

/// Reassembles a [`WorldSnapshot`] from a manifest, a log fetcher (called
/// once per log the manifest lists, returning that log's first `len`
/// elements; its errors pass through unchanged), and the scheduling policy
/// to attach.
///
/// Fails — never panics — on version mismatch, missing or malformed logs,
/// and on any digest mismatch between the manifest and the reassembled
/// world (truncated or garbled artifacts).
pub fn decode_snapshot(
    manifest: &SnapshotManifest,
    fetch: &mut dyn FnMut(&LogManifest) -> Result<Vec<Content>, String>,
    policy: Box<dyn SchedulePolicy>,
) -> Result<WorldSnapshot, String> {
    if manifest.version != SNAPSHOT_FORMAT_VERSION {
        return Err(format!(
            "snapshot format v{} is not readable by this build (v{SNAPSHOT_FORMAT_VERSION}); \
             re-record the trace",
            manifest.version
        ));
    }
    let live = LiveState::from_content(&manifest.live).map_err(|e| format!("live state: {e}"))?;
    let trace = match manifest.logs.iter().find(|l| l.name == "trace") {
        Some(m) => Some(decode_log(m, fetch)?),
        None => None,
    };
    let outputs = decode_log(find(&manifest.logs, "outputs")?, fetch)?;
    let inputs_seen = decode_log(find(&manifest.logs, "inputs_seen")?, fetch)?;
    let crashes = decode_log(find(&manifest.logs, "crashes")?, fetch)?;
    let decisions = decode_log(find(&manifest.logs, "decisions")?, fetch)?;
    let decision_enabled = decode_log(find(&manifest.logs, "decision_enabled")?, fetch)?;
    let decision_hashes = decode_log(find(&manifest.logs, "decision_hashes")?, fetch)?;
    let mut sys_log = Vec::with_capacity(live.tasks.len());
    for i in 0..live.tasks.len() {
        sys_log.push(decode_log(
            find(&manifest.logs, &format!("syslog-{i}"))?,
            fetch,
        )?);
    }
    let mut world = WorldState {
        tasks: live.tasks,
        vars: live.vars,
        locks: live.locks,
        cvars: live.cvars,
        chans: live.chans,
        ports: live.ports,
        time: live.time,
        wall_extra: live.wall_extra,
        steps: live.steps,
        events: live.events,
        rng: live.rng,
        timers: live.timers,
        pending_inputs: live.pending_inputs,
        pending_crashes: live.pending_crashes,
        pending_partitions: live.pending_partitions,
        pending_heals: live.pending_heals,
        active_partitions: live.active_partitions,
        pending_restarts: live.pending_restarts,
        restarts_due: live.restarts_due,
        restarts_fired: live.restarts_fired,
        crash_counts: live.crash_counts,
        restart_counts: live.restart_counts,
        trace,
        outputs,
        inputs_seen,
        counters: live.counters,
        crashes,
        decisions,
        decision_enabled,
        cancelling: live.cancelling,
        stop: live.stop,
        decision_seq: live.decision_seq,
        net_sends: live.net_sends,
        sys_log,
        record_syslog: live.record_syslog,
        decision_hashes,
        hash_decisions: live.hash_decisions,
        digest_cache: Default::default(),
    };
    let digest = world.rebuild_digest();
    if digest != manifest.digest {
        return Err(format!(
            "snapshot digest mismatch: manifest says {:016x}, reassembled world is {digest:016x} \
             (corrupt or truncated artifact)",
            manifest.digest
        ));
    }
    Ok(WorldSnapshot { world, policy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckpointPlan, EnvConfig, PartitionEvent, RestartEvent, RunConfig};
    use crate::driver::{resume_program, run_program};
    use crate::policy::RandomPolicy;
    use crate::program::{Builder, Program};

    struct Racer;

    impl Program for Racer {
        fn name(&self) -> &'static str {
            "racer"
        }
        fn setup(&self, b: &mut Builder<'_>) {
            let total = b.var("total", 0i64);
            let out = b.out_port("result");
            let done = b.channel::<i64>("done", crate::config::ChanClass::Local);
            for i in 0..3 {
                b.spawn(&format!("adder{i}"), "workers", move |mut ctx| async move {
                    for _ in 0..8 {
                        let v = ctx.read(&total, "adder::read").await?;
                        ctx.write(&total, v + 1, "adder::write").await?;
                    }
                    ctx.send(&done, 1, "adder::done").await
                });
            }
            b.spawn("reporter", "main", move |mut ctx| async move {
                for _ in 0..3 {
                    ctx.recv(&done, "reporter::recv").await?;
                }
                let v = ctx.read(&total, "reporter::read").await?;
                ctx.output(out, v, "reporter::out").await
            });
        }
    }

    fn checkpointed_cfg() -> RunConfig {
        RunConfig {
            seed: 11,
            checkpoints: Some(CheckpointPlan::new(4, 200)),
            hash_decisions: true,
            ..Default::default()
        }
    }

    /// The fetcher of an in-memory snapshot: the log's first `len` elements.
    fn elements_of(snap: &WorldSnapshot, m: &LogManifest) -> Result<Vec<Content>, String> {
        encode_log_range(snap, &m.name, 0..m.len).ok_or_else(|| format!("missing log {}", m.name))
    }

    #[test]
    fn encode_decode_roundtrip_resumes_identically() {
        let out = run_program(
            &Racer,
            checkpointed_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        assert!(!out.snapshots.is_empty(), "run took no snapshots");
        let snap = &out.snapshots[out.snapshots.len() / 2];

        let manifest = encode_manifest(snap);
        let decoded = decode_snapshot(
            &manifest,
            &mut |m| elements_of(snap, m),
            snap.policy.clone_box(),
        )
        .expect("roundtrip decodes");
        assert_eq!(decoded.at_decision(), snap.at_decision());
        assert_eq!(decoded.world.full_digest(), snap.world.full_digest());

        // The restored world resumes to the same behaviour as the original.
        let a = resume_program(&Racer, checkpointed_cfg(), snap, None, vec![]);
        let b = resume_program(&Racer, checkpointed_cfg(), &decoded, None, vec![]);
        assert_eq!(a.final_state_hash, b.final_state_hash);
        assert_eq!(a.io, b.io);
    }

    /// Like [`checkpointed_cfg`] but with a fault schedule arranged so every
    /// mid-run snapshot carries non-empty fault-plane state: an immediately
    /// active partition whose heal is far in the future, a second partition
    /// that stays pending forever, and a restart that fires before the first
    /// decision. The partitioned pair never exchanges `Network` messages in
    /// `Racer`, so outputs are unaffected.
    fn faulted_cfg() -> RunConfig {
        RunConfig {
            env: EnvConfig {
                partitions: vec![
                    PartitionEvent {
                        start: 0,
                        heal: 1 << 40,
                        a: "workers".to_owned(),
                        b: "main".to_owned(),
                    },
                    PartitionEvent {
                        start: 1 << 41,
                        heal: (1 << 41) + 1,
                        a: "east".to_owned(),
                        b: "west".to_owned(),
                    },
                ],
                restarts: vec![RestartEvent {
                    time: 0,
                    group: "workers".to_owned(),
                }],
                ..EnvConfig::default()
            },
            ..checkpointed_cfg()
        }
    }

    #[test]
    fn fault_state_roundtrips_and_resumes_identically() {
        let out = run_program(
            &Racer,
            faulted_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        assert!(!out.snapshots.is_empty(), "run took no snapshots");
        let snap = &out.snapshots[out.snapshots.len() / 2];
        let w = &snap.world;
        assert!(
            !w.active_partitions.is_empty(),
            "partition should still be active at the snapshot"
        );
        assert!(!w.pending_heals.is_empty());
        assert!(!w.pending_partitions.is_empty());
        assert_eq!(w.restart_counts.get("workers"), Some(&1));
        assert!(!w.restarts_fired.is_empty());

        let manifest = encode_manifest(snap);
        let decoded = decode_snapshot(
            &manifest,
            &mut |m| elements_of(snap, m),
            snap.policy.clone_box(),
        )
        .expect("fault-state roundtrip decodes");
        assert_eq!(decoded.world.active_partitions, w.active_partitions);
        assert_eq!(decoded.world.restarts_fired, w.restarts_fired);
        assert_eq!(decoded.world.full_digest(), w.full_digest());

        let a = resume_program(&Racer, faulted_cfg(), snap, None, vec![]);
        let b = resume_program(&Racer, faulted_cfg(), &decoded, None, vec![]);
        assert_eq!(a.final_state_hash, b.final_state_hash);
        assert_eq!(a.io, b.io);
        assert_eq!(a.io.group_restarts.get("workers"), Some(&1));
    }

    #[test]
    fn truncated_fault_state_is_rejected_naming_the_live_state() {
        let out = run_program(
            &Racer,
            faulted_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = &out.snapshots[out.snapshots.len() / 2];
        let mut manifest = encode_manifest(snap);
        // Drop the fault-plane fields from the live-state map — the shape a
        // manifest truncated at the version-1 field boundary would have.
        let Content::Map(fields) = &mut manifest.live else {
            panic!("live state encodes as a map");
        };
        fields.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                Some("pending_partitions" | "active_partitions" | "restart_counts")
            )
        });
        let err = decode_snapshot(
            &manifest,
            &mut |m| elements_of(snap, m),
            snap.policy.clone_box(),
        )
        .expect_err("truncated live state must fail decode");
        assert!(
            err.contains("live state") && err.contains("pending_partitions"),
            "{err}"
        );
    }

    #[test]
    fn garbled_crash_log_tail_is_rejected_naming_the_log() {
        let out = run_program(
            &Racer,
            faulted_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = &out.snapshots[out.snapshots.len() / 2];
        let mut manifest = encode_manifest(snap);
        // Append a garbled element to the crash log; it lands in the log's
        // mutable tail.
        let crashes = manifest
            .logs
            .iter_mut()
            .find(|l| l.name == "crashes")
            .expect("manifest carries the crash log");
        crashes.len += 1;
        let err = decode_snapshot(
            &manifest,
            &mut |m| {
                if m.name != "crashes" {
                    return elements_of(snap, m);
                }
                let mut elements = elements_of(
                    snap,
                    &LogManifest {
                        len: m.len - 1,
                        ..m.clone()
                    },
                )?;
                elements.push(Content::Null);
                Ok(elements)
            },
            snap.policy.clone_box(),
        )
        .expect_err("garbled crash-log tail must fail decode");
        assert!(err.contains("log `crashes` element"), "{err}");
    }

    #[test]
    fn garbled_manifest_digest_is_rejected() {
        let out = run_program(
            &Racer,
            checkpointed_cfg(),
            Box::new(RandomPolicy::new(7)),
            vec![],
        );
        let snap = out.snapshots.first().expect("run took snapshots");
        let mut manifest = encode_manifest(snap);
        manifest.digest ^= 1;
        let err = decode_snapshot(
            &manifest,
            &mut |m| elements_of(snap, m),
            snap.policy.clone_box(),
        )
        .expect_err("digest mismatch must fail decode");
        assert!(err.contains("digest mismatch"), "{err}");
    }
}
