//! The on-disk snapshot store under the `dd record --spill` configuration
//! (a checkpoint every 8 decisions, restore-distance bound 64, 8 kept):
//!
//! - `--from` ≡ full replay at *every* stored snapshot of a spilled
//!   recording, on msgserver-drops and on hyperstore-failover with a crash,
//!   a restart and a partition, so fault-plane state is restored mid-run;
//! - byte-level mutations (flip, truncate, insert) of any store file make
//!   `open`/`load` fail naming that file, or load a world with the
//!   unmutated store's digest and history — never panic or hang.

use debug_determinism::core::driver::Session;
use debug_determinism::core::Workload;
use debug_determinism::hyperstore::{HyperConfig, HyperstoreFailoverWorkload};
use debug_determinism::sim::{
    encode_log_range, encode_manifest, CheckpointPlan, PartitionEvent, RandomPolicy, RestartEvent,
    WorldSnapshot,
};
use debug_determinism::trace::{JsonlTrace, RetentionPolicy, SnapshotStore};
use debug_determinism::workloads::{MsgServerConfig, MsgServerWorkload};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dd-store-props-{}-{tag}", std::process::id()))
}

/// Records `session`'s production run spilled to a fresh store at `dir`.
fn record_spilled(session: &Session, dir: &Path) -> JsonlTrace {
    std::fs::remove_dir_all(dir).ok();
    let store = SnapshotStore::create(dir, RetentionPolicy::new(64, 8)).expect("store creatable");
    let (trace, errors) = session
        .record_spilled(Box::new(store))
        .expect("spilled record seals");
    assert!(errors.is_empty(), "spill errors: {errors:?}");
    trace
}

fn msgserver() -> Session {
    let w = MsgServerWorkload::discover(MsgServerConfig::default(), 64).expect("failing seed");
    Session::new(Arc::new(w)).with_checkpoint_plan(CheckpointPlan::new(8, u64::MAX))
}

/// Failover's production crash of server1, plus its restart and an early
/// partition.
fn failover() -> Session {
    let w = HyperstoreFailoverWorkload::discover(HyperConfig::default(), 200)
        .expect("failover failing seed");
    let mut setup = w.production();
    setup.env.restarts.push(RestartEvent {
        time: 400,
        group: "server1".into(),
    });
    setup.env.partitions.push(PartitionEvent {
        start: 40,
        heal: 200,
        a: "server0".into(),
        b: "server2".into(),
    });
    Session::new(Arc::new(w))
        .with_production(setup)
        .with_checkpoint_plan(CheckpointPlan::new(8, u64::MAX))
}

#[test]
fn replay_from_every_stored_snapshot_equals_full_replay() {
    for (name, session) in [("msgserver-drops", msgserver()), ("failover", failover())] {
        let dir = store_dir(name);
        let trace = record_spilled(&session, &dir);
        let scratch = session.replay(&trace);
        assert!(scratch.divergence.is_none(), "{name}: scratch replay");
        let store = SnapshotStore::open(&dir).expect("store reopens");
        let mut times = Vec::new();
        for entry in store.list() {
            let snap = store
                .load(entry.id, Box::new(RandomPolicy::new(0)))
                .expect("stored snapshot loads");
            assert_eq!(snap.at_decision(), entry.decision, "{name}");
            let report = session.replay_from(&trace, &snap);
            let at = format!("{name} --from {}", entry.decision);
            assert!(report.divergence.is_none(), "{at}: {:?}", report.divergence);
            assert_eq!(report.matched, scratch.matched, "{at}: matched");
            times.push(snap.time());
        }
        if name == "failover" {
            // Stored snapshots fall inside the partition, between the crash
            // and the restart, and after the restart.
            let env = &trace.header.env;
            let crash = env.crashes[0].time;
            let windows = [(40, 200), (crash, 400), (400, u64::MAX)];
            for (from, to) in windows {
                assert!(
                    times.iter().any(|&t| from < t && t < to),
                    "no stored snapshot in ({from}, {to}): {times:?}"
                );
            }
            assert!(crash < 400, "the crash precedes the restart");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// What a load must get right: the world digest, which covers the live
/// state's values (not object names), and every history log's elements,
/// which the digest covers only by length.
fn fingerprint(snap: &WorldSnapshot) -> String {
    let m = encode_manifest(snap);
    let logs: Vec<_> = m
        .logs
        .iter()
        .map(|l| (&l.name, encode_log_range(snap, &l.name, 0..l.len)))
        .collect();
    serde_json::to_string(&(m.digest, logs)).expect("fingerprint encodes")
}

/// A spilled msgserver store, the fingerprint of each stored snapshot, and
/// the store's files.
struct Pristine {
    dir: PathBuf,
    fingerprints: BTreeMap<u64, String>,
    files: Vec<PathBuf>,
}

fn pristine() -> &'static Pristine {
    static P: OnceLock<Pristine> = OnceLock::new();
    P.get_or_init(|| {
        let dir = store_dir("mutations");
        record_spilled(&msgserver(), &dir);
        let store = SnapshotStore::open(&dir).expect("store reopens");
        let fingerprints = store
            .list()
            .iter()
            .map(|e| {
                let snap = store.load(e.id, Box::new(RandomPolicy::new(0))).unwrap();
                (e.id, fingerprint(&snap))
            })
            .collect();
        let mut files = vec![dir.join("store.json")];
        for sub in ["snaps", "logs"] {
            let mut in_sub: Vec<PathBuf> = std::fs::read_dir(dir.join(sub))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            in_sub.sort();
            files.extend(in_sub);
        }
        Pristine {
            dir,
            fingerprints,
            files,
        }
    })
}

/// Applies one byte-level mutation: 0 flips a bit, 1 truncates, 2 inserts.
fn mutate(body: &[u8], kind: u32, at: usize, byte: u8) -> Vec<u8> {
    let at = at % (body.len() + 1);
    let mut out = body.to_vec();
    match kind {
        0 if !out.is_empty() => out[at.min(body.len() - 1)] ^= 1 << (byte % 8),
        1 => out.truncate(at),
        _ => out.insert(at, byte),
    }
    out
}

/// Opens the store and loads the snapshots a mutation of `victim` can
/// reach, checking each outcome: an error naming `victim`, or the world
/// the unmutated store loads. A mutated index can only redirect a load to
/// another manifest, which the error then names.
fn check_store(p: &Pristine, victim: &Path) -> Result<(), String> {
    let named = victim.display().to_string();
    let is_index = victim.ends_with("store.json");
    let store = match SnapshotStore::open(&p.dir) {
        Err(e) if is_index && e.to_string().contains(&named) => return Ok(()),
        Err(e) => return Err(format!("open: {e}")),
        Ok(store) => store,
    };
    // The newest snapshot's log prefixes span the whole log files.
    let manifest_id = victim
        .strip_prefix(p.dir.join("snaps"))
        .ok()
        .and_then(|f| f.file_stem()?.to_str()?.parse::<u64>().ok());
    let reached: Vec<u64> = match manifest_id {
        _ if is_index => store.list().iter().map(|e| e.id).collect(),
        Some(id) => vec![id],
        None => store.list().last().map(|e| e.id).into_iter().collect(),
    };
    for id in reached {
        match store.load(id, Box::new(RandomPolicy::new(0))) {
            Ok(snap) if p.fingerprints.get(&id) == Some(&fingerprint(&snap)) => {}
            Ok(_) => return Err(format!("snapshot {id} loaded a changed world")),
            Err(e) if e.to_string().contains(&named) => {}
            Err(e) if is_index && e.to_string().contains("snaps/") => {}
            Err(e) => return Err(format!("load {id}: {e}")),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_store_files_fail_by_name_or_load_intact(
        file in 0usize..1_000,
        kind in 0u32..3,
        at in 0usize..1_000_000,
        byte in any::<u8>(),
    ) {
        let p = pristine();
        let victim = &p.files[file % p.files.len()];
        let original = std::fs::read(victim).unwrap();
        std::fs::write(victim, mutate(&original, kind, at, byte)).unwrap();
        let outcome = check_store(p, victim);
        std::fs::write(victim, &original).unwrap();
        prop_assert!(
            outcome.is_ok(),
            "{}, mutation {kind} at {at}: {outcome:?}",
            victim.display()
        );
    }
}
