//! The four workloads. Each is a closed loop with one caller: a pass runs
//! every item of the workload's fixed mix once, and the next operation
//! starts when the previous one returns. Every operation's output is
//! checked; a failed check counts as a failed operation.

use crate::incidents::{self, Incident, FAILOVER, HS63, MSG_DROPS, MSG_WIDE};
use crate::tracer::{self, span};
use dd_replay::{
    enumerate_failures, Artifact, DivergenceReport, InferenceBudget, InferenceStats, ModelKind,
    Scenario, SearchStrategy,
};
use dd_sim::{CheckpointPlan, RandomPolicy, SnapshotSink, WorldSnapshot};
use dd_trace::{JsonlTrace, RetentionPolicy, SnapshotStore};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Operations attempted and failed, per-item latency samples, and exact
/// counts that must repeat on every pass.
#[derive(Default)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub samples: BTreeMap<String, Vec<f64>>,
    pub counts: BTreeMap<String, f64>,
    /// Timed milliseconds and reference units of the current pass, per
    /// schedule set.
    pass_ms: Vec<f64>,
    pass_ref: Vec<f64>,
    set: usize,
    reference: crate::calib::Reference,
}

impl OpLog {
    /// Times `run` as one operation of item `key`, then checks its output.
    /// An error, a panic or a failed check counts as a failed operation.
    pub fn op<T>(
        &mut self,
        key: &str,
        run: impl FnOnce() -> Result<T, String>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.attempted += 1;
        self.begin_set(self.set);
        let before = self.reference.before();
        tracer::begin_op();
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| span("op", key, run)));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let reference = self.reference.after(ms, before);
        self.pass_ms[self.set] += ms;
        self.pass_ref[self.set] += ms / reference;
        let res = match res {
            Ok(r) => r,
            Err(p) => Err(p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_owned())),
        }
        .and_then(|v| check(&v).map(|()| v));
        match res {
            Ok(v) => {
                self.samples.entry(key.to_owned()).or_default().push(ms);
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{key}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }

    /// Records an exact count; a different value on a later pass is a
    /// determinism failure, charged to the operation that produced it.
    pub fn exact(&mut self, key: String, value: f64) {
        match self.counts.get(&key) {
            Some(&old) if old != value => {
                self.fail(format!("{key}: {value} on this pass, {old} before"))
            }
            _ => {
                self.counts.insert(key, value);
            }
        }
    }

    /// Charges the following operations to schedule set `set`: a mix that
    /// covers several production schedules per incident times each set's
    /// share of a pass apart.
    pub fn begin_set(&mut self, set: usize) {
        self.set = set;
        if self.pass_ms.len() <= set {
            self.pass_ms.resize(set + 1, 0.0);
            self.pass_ref.resize(set + 1, 0.0);
        }
    }

    /// Runs one pass of `mix` and returns, per schedule set, its timed
    /// milliseconds and the same time in units of the reference
    /// computation.
    pub fn pass(&mut self, mix: &mut dyn Mix) -> Vec<(f64, f64)> {
        self.pass_ms = vec![0.0];
        self.pass_ref = vec![0.0];
        self.set = 0;
        mix.pass(self);
        self.pass_ms
            .iter()
            .copied()
            .zip(self.pass_ref.iter().copied())
            .collect()
    }
}

pub trait Mix {
    fn pass(&mut self, log: &mut OpLog);
    fn incidents(&self) -> Vec<&Incident>;
}

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["incident", "search", "spill", "models"];

/// Builds a workload's mix; everything here counts as set-up.
pub fn build(workload: &str, seed: u64, scratch: &std::path::Path) -> Result<Box<dyn Mix>, String> {
    Ok(match workload {
        "incident" => Box::new(IncidentMix::new(seed)?),
        "search" => Box::new(SearchMix::new(seed)?),
        "spill" => Box::new(SpillMix::new(seed, scratch)?),
        "models" => Box::new(ModelsMix::new(seed)?),
        other => return Err(format!("unknown workload {other:?} (known: {WORKLOADS:?})")),
    })
}

// ---- incident -------------------------------------------------------------

pub struct IncidentMix {
    pub incidents: Vec<Incident>,
}

impl IncidentMix {
    pub(crate) fn new(seed: u64) -> Result<Self, String> {
        let incidents = [MSG_DROPS, MSG_WIDE, HS63, FAILOVER]
            .into_iter()
            .map(|n| incidents::build(n, seed))
            .collect::<Result<_, _>>()?;
        Ok(IncidentMix { incidents })
    }
}

/// Parses a rendered trace and replays it strictly: the `incident`
/// workload's replay operation. Checks that the parsed trace renders back
/// to the same bytes and that the replay is identical.
pub fn replay_text(log: &mut OpLog, inc: &Incident, text: &str) -> Option<DivergenceReport> {
    let name = inc.name;
    log.op(
        &format!("replay/{name}"),
        || {
            let t =
                span("jsonl.parse", name, || JsonlTrace::parse(text)).map_err(|e| e.to_string())?;
            let rep = span("session.replay", name, || inc.session.replay(&t));
            Ok((t, rep))
        },
        |(t, rep)| {
            if t.render() != text {
                return Err("parsed trace does not render back to the same bytes".into());
            }
            match &rep.divergence {
                None => Ok(()),
                Some(d) => Err(format!(
                    "replay diverged at decision {}: {}",
                    d.decision, d.detail
                )),
            }
        },
    )
    .map(|(_, rep)| rep)
}

impl Mix for IncidentMix {
    fn pass(&mut self, log: &mut OpLog) {
        for inc in &self.incidents {
            let name = inc.name;
            let Some((text, decisions)) = log.op(
                &format!("record/{name}"),
                || {
                    let t = span("session.record", name, || inc.session.record())
                        .map_err(|e| e.to_string())?;
                    let text = span("jsonl.render", name, || t.render());
                    Ok((text, t.footer.decisions))
                },
                |_| Ok(()),
            ) else {
                continue;
            };
            log.exact(format!("incident.trace_bytes/{name}"), text.len() as f64);
            log.exact(format!("incident.decisions/{name}"), decisions as f64);
            if let Some(rep) = replay_text(log, inc, &text) {
                log.exact(
                    format!("incident.replay_steps/{name}"),
                    rep.out.stats.steps as f64,
                );
            }
        }
    }

    fn incidents(&self) -> Vec<&Incident> {
        self.incidents.iter().collect()
    }
}

// ---- search ---------------------------------------------------------------

pub const TREE_D4: &str = "msgserver-drops.d4";
pub const TREE_DEEP: &str = "msgserver-drops.deep";
pub const TREE_DEEP_W2: &str = "msgserver-drops.deep-w2";
pub const TREE_HS_D4: &str = "hyperstore-issue63.d4";
pub const TREES: [&str; 4] = [TREE_D4, TREE_DEEP, TREE_DEEP_W2, TREE_HS_D4];

struct Tree {
    label: &'static str,
    incident: usize,
    budget: InferenceBudget,
    strategy: SearchStrategy,
}

pub struct SearchMix {
    incidents: Vec<Incident>,
    scenarios: Vec<Scenario>,
    trees: Vec<Tree>,
}

impl SearchMix {
    fn new(seed: u64) -> Result<Self, String> {
        let incidents: Vec<Incident> = [MSG_DROPS, HS63]
            .into_iter()
            .map(|n| incidents::build(n, seed))
            .collect::<Result<_, _>>()?;
        let scenarios = incidents.iter().map(|i| i.session.scenario()).collect();
        let deep = InferenceBudget::executions(150)
            .with_checkpoints(InferenceBudget::DEFAULT_CHECKPOINT_INTERVAL);
        let trees = vec![
            Tree {
                label: TREE_D4,
                incident: 0,
                budget: InferenceBudget::executions(1_000),
                strategy: SearchStrategy::Dpor { max_depth: 4 },
            },
            Tree {
                label: TREE_DEEP,
                incident: 0,
                budget: deep,
                strategy: SearchStrategy::Dpor { max_depth: 256 },
            },
            Tree {
                label: TREE_DEEP_W2,
                incident: 0,
                budget: deep.with_workers(2),
                strategy: SearchStrategy::DporParallel {
                    max_depth: 256,
                    workers: 2,
                },
            },
            Tree {
                label: TREE_HS_D4,
                incident: 1,
                budget: InferenceBudget::executions(1_000),
                strategy: SearchStrategy::Dpor { max_depth: 4 },
            },
        ];
        Ok(SearchMix {
            incidents,
            scenarios,
            trees,
        })
    }
}

impl Mix for SearchMix {
    fn pass(&mut self, log: &mut OpLog) {
        let mut deep_w1: Option<(BTreeSet<String>, InferenceStats)> = None;
        for tree in &self.trees {
            let scenario = &self.scenarios[tree.incident];
            let res = log.op(
                &format!("tree/{}", tree.label),
                || {
                    Ok(span("enumerate_failures", tree.label, || {
                        enumerate_failures(scenario, &tree.budget, tree.strategy)
                    }))
                },
                |(failures, stats)| match (&deep_w1, tree.label == TREE_DEEP_W2) {
                    (_, false) => Ok(()),
                    (Some((f1, s1)), true) if f1 == failures && s1 == stats => Ok(()),
                    (Some(_), true) => Err("2-worker tree differs from the 1-worker tree".into()),
                    (None, true) => Err("1-worker deep tree did not complete".into()),
                },
            );
            let Some((failures, stats)) = res else {
                continue;
            };
            let l = tree.label;
            log.exact(format!("explore.executed/{l}"), stats.explored as f64);
            log.exact(format!("explore.pruned/{l}"), stats.pruned as f64);
            log.exact(
                format!("explore.steps_executed/{l}"),
                stats.steps_executed as f64,
            );
            log.exact(
                format!("explore.steps_skipped/{l}"),
                stats.steps_skipped as f64,
            );
            log.exact(format!("explore.failures/{l}"), failures.len() as f64);
            // A bounded tree walked from a seed-chosen schedule may miss the
            // incident's own failure; whether it found it is a count that
            // must repeat, not a check that must hold.
            let found = failures.contains(&self.incidents[tree.incident].failure_id);
            log.exact(
                format!("explore.found_incident_failure/{l}"),
                f64::from(u8::from(found)),
            );
            if tree.label == TREE_DEEP {
                deep_w1 = Some((failures, stats));
            }
        }
    }

    fn incidents(&self) -> Vec<&Incident> {
        self.incidents.iter().collect()
    }
}

// ---- spill ----------------------------------------------------------------

/// The `dd record --spill` retention and checkpoint configuration.
const SPILL_BOUND: u64 = 64;
const SPILL_KEEP: u64 = 8;
const SPILL_EVERY: u64 = 8;

/// Wraps the store so each snapshot it is offered is timed as a span.
struct TimedSink {
    store: SnapshotStore,
    item: &'static str,
}

impl SnapshotSink for TimedSink {
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String> {
        span("store.offer", self.item, || self.store.offer(snap))
    }
}

struct SpillIncident {
    incident: Incident,
    dir: PathBuf,
    /// The plain record of the same run, with its checkpoint marks removed.
    plain: String,
    scratch_matched: u64,
    decisions: u64,
}

pub struct SpillMix {
    items: Vec<SpillIncident>,
}

/// The trace without its checkpoint marks: a spilled record's marks carry
/// store ids a plain record's do not, and everything else must match.
fn without_epochs(t: &JsonlTrace) -> String {
    let mut t = t.clone();
    t.footer.epochs.clear();
    t.render()
}

pub const QUARTERS: [&str; 4] = ["q1", "q2", "q3", "end"];

impl SpillMix {
    fn new(seed: u64, scratch: &std::path::Path) -> Result<Self, String> {
        let mut items = Vec::new();
        for name in [MSG_DROPS, FAILOVER] {
            let mut incident = incidents::build(name, seed)?;
            incident.session = incident
                .session
                .with_checkpoint_plan(CheckpointPlan::new(SPILL_EVERY, u64::MAX));
            let plain = incident.session.record().map_err(|e| e.to_string())?;
            let scratch_matched = incident.session.replay(&plain).matched;
            items.push(SpillIncident {
                dir: scratch.join(format!("{name}.snapshots")),
                plain: without_epochs(&plain),
                scratch_matched,
                decisions: plain.footer.decisions,
                incident,
            });
        }
        Ok(SpillMix { items })
    }
}

impl Mix for SpillMix {
    fn pass(&mut self, log: &mut OpLog) {
        for it in &self.items {
            let name = it.incident.name;
            let session = &it.incident.session;
            match std::fs::remove_dir_all(&it.dir) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    log.fail(format!("{}: {e}", it.dir.display()));
                    continue;
                }
            }
            let Some((trace, _)) = log.op(
                &format!("spill-write/{name}"),
                || {
                    let store = span("store.create", name, || {
                        SnapshotStore::create(
                            &it.dir,
                            RetentionPolicy::new(SPILL_BOUND, SPILL_KEEP),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                    let sink = TimedSink { store, item: name };
                    span("session.record_spilled", name, || {
                        session.record_spilled(Box::new(sink))
                    })
                    .map_err(|e| e.to_string())
                },
                |(trace, errors)| {
                    if !errors.is_empty() {
                        return Err(format!("spill errors: {errors:?}"));
                    }
                    if without_epochs(trace) != it.plain {
                        return Err("spilled trace differs from the plain record".into());
                    }
                    Ok(())
                },
            ) else {
                continue;
            };
            for (q, label) in QUARTERS.iter().enumerate() {
                let at = it.decisions * (q as u64 + 1) / 4;
                let item = format!("{name}/{label}");
                log.op(
                    &format!("spill-read/{item}"),
                    || {
                        let store = span("store.open", &item, || SnapshotStore::open(&it.dir))
                            .map_err(|e| e.to_string())?;
                        let entry = span("store.nearest_at_or_before", &item, || {
                            store.nearest_at_or_before(at).cloned()
                        })
                        .ok_or_else(|| format!("no stored snapshot at or before decision {at}"))?;
                        let snap = span("store.load", &item, || {
                            store.load(entry.id, Box::new(RandomPolicy::new(0)))
                        })
                        .map_err(|e| e.to_string())?;
                        Ok(span("session.replay_from", &item, || {
                            session.replay_from(&trace, &snap)
                        }))
                    },
                    |rep| match &rep.divergence {
                        Some(d) => Err(format!("diverged at decision {}", d.decision)),
                        None if rep.matched != it.scratch_matched => Err(format!(
                            "matched {} comparison points, the scratch replay {}",
                            rep.matched, it.scratch_matched
                        )),
                        None => Ok(()),
                    },
                );
            }
            match SnapshotStore::open(&it.dir) {
                Ok(store) => {
                    log.exact(
                        format!("store.disk_bytes/{name}"),
                        store.disk_bytes() as f64,
                    );
                    log.exact(
                        format!("store.standalone_bytes/{name}"),
                        store.standalone_bytes() as f64,
                    );
                    log.exact(format!("store.snapshots/{name}"), store.list().len() as f64);
                }
                Err(e) => log.fail(format!("{name}: {e}")),
            }
        }
    }

    fn incidents(&self) -> Vec<&Incident> {
        self.items.iter().map(|i| &i.incident).collect()
    }
}

// ---- models ---------------------------------------------------------------

/// All eight determinism models, with a name fit for a metric.
pub const KINDS: [(ModelKind, &str); 8] = [
    (ModelKind::Perfect, "perfect"),
    (ModelKind::Value, "value"),
    (ModelKind::OutputLite, "output-lite"),
    (ModelKind::OutputHeavy, "output-heavy"),
    (ModelKind::Failure, "failure"),
    (ModelKind::Debug, "debug"),
    (ModelKind::MsgOrder, "msg-order"),
    (ModelKind::RaceComplete, "race-complete"),
];

/// Production schedules per incident in the models workload. One seed-chosen
/// schedule can make a model's inference search run to its budget (on one
/// seed race-complete replay of hyperstore-issue63 ran 202 executions where
/// other seeds need 1), so the workload covers several and reports the
/// median schedule set.
pub const MODEL_SCHEDULES: usize = 5;

struct Pair {
    kind: ModelKind,
    slug: &'static str,
    incident: usize,
    set: usize,
    /// `artifact_satisfied` and `reproduced_failure` of the in-memory
    /// recording's replay, computed untimed on first use.
    expected: Option<(bool, bool)>,
}

pub struct ModelsMix {
    pub incidents: Vec<Incident>,
    pairs: Vec<Pair>,
}

impl ModelsMix {
    fn new(seed: u64) -> Result<Self, String> {
        let mut per_incident = [MSG_DROPS, HS63]
            .into_iter()
            .map(|n| incidents::build_k(n, seed, MODEL_SCHEDULES).map(Vec::into_iter))
            .collect::<Result<Vec<_>, _>>()?;
        let mut incidents = Vec::new();
        let mut pairs = Vec::new();
        for set in 0..MODEL_SCHEDULES {
            for schedules in &mut per_incident {
                incidents.push(
                    schedules
                        .next()
                        .expect("build_k returns MODEL_SCHEDULES schedules"),
                );
                for (kind, slug) in KINDS {
                    pairs.push(Pair {
                        kind,
                        slug,
                        incident: incidents.len() - 1,
                        set,
                        expected: None,
                    });
                }
            }
        }
        Ok(ModelsMix { incidents, pairs })
    }
}

impl Mix for ModelsMix {
    fn pass(&mut self, log: &mut OpLog) {
        for p in &mut self.pairs {
            let inc = &self.incidents[p.incident];
            log.begin_set(p.set);
            let expected = *p.expected.get_or_insert_with(|| {
                let res = inc.session.replay_model(&inc.session.record_model(p.kind));
                (res.artifact_satisfied, res.reproduced_failure)
            });
            let item = format!("{}/{}#{}", p.slug, inc.name, p.set);
            let Some(rec) = log.op(
                &format!("model-record/{item}"),
                || {
                    Ok(span("session.record_model", &item, || {
                        inc.session.record_model(p.kind)
                    }))
                },
                |_| Ok(()),
            ) else {
                continue;
            };
            log.exact(
                format!("model.modeled_log_bytes/{item}"),
                rec.log.bytes as f64,
            );
            let kind = p.kind;
            let replayed = log.op(
                &format!("model-replay/{item}"),
                || {
                    let mut rec = rec;
                    let (json, back) = span("serde_json.round_trip", &item, || {
                        let json = serde_json::to_string(&rec.artifact).map_err(|e| e.to_string())?;
                        let back: Artifact = serde_json::from_str(&json).map_err(|e| e.to_string())?;
                        Ok::<_, String>((json, back))
                    })?;
                    if back != rec.artifact {
                        return Err("artifact changed in the JSON round trip".into());
                    }
                    rec.artifact = back;
                    let res = span("session.replay_model", &item, || inc.session.replay_model(&rec));
                    Ok((res, json.len()))
                },
                |(res, _)| {
                    let got = (res.artifact_satisfied, res.reproduced_failure);
                    if got != expected {
                        return Err(format!(
                            "(satisfied, reproduced) = {got:?} after the round trip, {expected:?} in memory"
                        ));
                    }
                    if kind == ModelKind::Value && res.artifact_satisfied {
                        return Err("value model's artifact is satisfied; Fig. 1 has it unsatisfied".into());
                    }
                    Ok(())
                },
            );
            if let Some((res, bytes)) = replayed {
                log.exact(format!("model.log_bytes/{item}"), bytes as f64);
                log.exact(
                    format!("model.inference_executed/{item}"),
                    res.inference.explored as f64,
                );
            }
        }
    }

    fn incidents(&self) -> Vec<&Incident> {
        self.incidents.iter().collect()
    }
}
