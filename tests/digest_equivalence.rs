//! The incremental state digest equals the from-scratch digest.
//!
//! A hash-enabled run keeps a cache of per-object hashes and re-hashes only
//! what changed before each decision. These tests recompute the digest from
//! scratch — the snapshot manifest's integrity digest, which the snapshot
//! store checks on every load — at every checkpointable decision of every
//! workload (including
//! the failover incident under a crash, restart and partition schedule) and
//! after both kinds of restore: an in-memory snapshot resume and a decode
//! of the on-disk snapshot encoding. Debug builds additionally cross-check
//! every digest inside the kernel, the final one included — the only one
//! `sum` has, since its single task never makes a multi-candidate decision.

use debug_determinism::core::{RunSetup, Workload};
use debug_determinism::hyperstore::{HyperConfig, HyperstoreFailoverWorkload, HyperstoreWorkload};
use debug_determinism::sim::{
    decode_snapshot, encode_log_range, encode_manifest, resume_program, run_program,
    CheckpointPlan, PartitionEvent, RandomPolicy, RecordedDecision, ReplayPolicy, RestartEvent,
    RunConfig, RunOutput, SnapshotSink, WorldSnapshot,
};
use debug_determinism::workloads::{
    BufOverflowWorkload, MsgServerConfig, MsgServerWorkload, SumWorkload,
};
use std::sync::{Arc, Mutex};

struct Case {
    name: &'static str,
    workload: Box<dyn Workload>,
    setup: RunSetup,
}

fn case(name: &'static str, workload: Box<dyn Workload>) -> Case {
    let setup = workload.production();
    Case {
        name,
        workload,
        setup,
    }
}

fn cases() -> Vec<Case> {
    let wide = MsgServerConfig {
        n_producers: 8,
        msgs_per_producer: 48,
        end_time: 3_200,
        ..MsgServerConfig::default()
    };
    let failover = HyperstoreFailoverWorkload::discover(HyperConfig::default(), 200)
        .expect("failover failing seed");
    // The production crash of server1, plus its restart and a partition.
    let mut faulted = case("failover", Box::new(failover));
    faulted.setup.env.restarts.push(RestartEvent {
        time: 400,
        group: "server1".into(),
    });
    faulted.setup.env.partitions.push(PartitionEvent {
        start: 40,
        heal: 200,
        a: "server0".into(),
        b: "server2".into(),
    });
    assert!(!faulted.setup.env.crashes.is_empty(), "failover crashes");
    vec![
        case("sum", Box::new(SumWorkload)),
        case(
            "msgserver-drops",
            Box::new(
                MsgServerWorkload::discover(MsgServerConfig::default(), 64)
                    .expect("msgserver failing seed"),
            ),
        ),
        case(
            "msgserver-wide",
            Box::new(MsgServerWorkload::discover(wide, 256).expect("wide failing seed")),
        ),
        case("bufoverflow", Box::new(BufOverflowWorkload)),
        case(
            "hyperstore-issue63",
            Box::new(
                HyperstoreWorkload::discover(HyperConfig::default(), 200)
                    .expect("hyperstore failing seed"),
            ),
        ),
        faulted,
    ]
}

fn cfg(c: &Case, hash: bool, plan: Option<CheckpointPlan>) -> RunConfig {
    RunConfig {
        seed: c.setup.seed,
        max_steps: c.setup.max_steps,
        inputs: c.setup.inputs.clone(),
        env: c.setup.env.clone(),
        hash_decisions: hash,
        checkpoints: plan,
        ..RunConfig::default()
    }
}

fn run(c: &Case, config: RunConfig) -> RunOutput {
    run_program(
        c.workload.program().as_ref(),
        config,
        Box::new(RandomPolicy::new(c.setup.sched_seed)),
        vec![],
    )
}

/// Records each offered snapshot's from-scratch digest and keeps none.
struct FromScratch(Arc<Mutex<Vec<(u64, u64)>>>);

impl SnapshotSink for FromScratch {
    fn offer(&mut self, snap: &WorldSnapshot) -> Result<Option<u64>, String> {
        let digest = encode_manifest(snap).digest;
        self.0.lock().unwrap().push((snap.at_decision(), digest));
        Ok(None)
    }
}

/// A strict replay of `recorded` picking up at decision `d`.
fn replay_from(recorded: &RunOutput, d: usize) -> Box<ReplayPolicy> {
    let decisions: Vec<RecordedDecision> = recorded
        .decisions
        .iter()
        .map(|r| RecordedDecision {
            kind: r.kind,
            chosen: r.chosen,
        })
        .collect();
    Box::new(ReplayPolicy::resuming_at(decisions, d))
}

/// The decode of a snapshot's on-disk encoding.
fn through_disk(snap: &WorldSnapshot, recorded: &RunOutput) -> WorldSnapshot {
    let manifest = encode_manifest(snap);
    decode_snapshot(
        &manifest,
        &mut |m| {
            encode_log_range(snap, &m.name, 0..m.len).ok_or_else(|| format!("no log {}", m.name))
        },
        replay_from(recorded, snap.at_decision() as usize),
    )
    .expect("snapshot decodes")
}

#[test]
fn incremental_digest_equals_from_scratch_at_every_decision() {
    for c in cases() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut config = cfg(&c, true, Some(CheckpointPlan::new(1, u64::MAX)));
        config.snapshot_sink = Some(Box::new(FromScratch(seen.clone())));
        let out = run(&c, config);
        let hashes: Vec<u64> = out.decision_hashes.iter().copied().collect();
        let seen = seen.lock().unwrap();
        assert!(
            seen.len() * 2 >= hashes.len(),
            "{}: only {} of {} decisions checkpointed",
            c.name,
            seen.len(),
            hashes.len()
        );
        for &(d, digest) in seen.iter() {
            assert_eq!(
                hashes[d as usize], digest,
                "{}: incremental digest differs from scratch at decision {d}",
                c.name
            );
        }
        if c.name == "failover" {
            assert_eq!(out.io.group_crashes.get("server1"), Some(&1));
            assert_eq!(out.io.group_restarts.get("server1"), Some(&1));
        }
    }
}

#[test]
fn resumed_and_decoded_worlds_continue_the_recorded_digest_stream() {
    for c in cases() {
        let recorded = run(&c, cfg(&c, true, None));
        let want: Vec<u64> = recorded.decision_hashes.iter().copied().collect();
        let every = (want.len() as u64 / 3).max(1);
        let program = c.workload.program();
        // Snapshots taken with digests on (the cache travels with the
        // world) and off (resuming with digests on rebuilds the cache).
        for hashed in [true, false] {
            let source = run(
                &c,
                cfg(&c, hashed, Some(CheckpointPlan::new(every, u64::MAX))),
            );
            assert_eq!(source.snapshots.is_empty(), want.is_empty(), "{}", c.name);
            for snap in &source.snapshots {
                let d = snap.at_decision() as usize;
                assert_eq!(encode_manifest(snap).digest, want[d], "{} @{d}", c.name);
                let decoded = through_disk(snap, &recorded);
                assert_eq!(
                    encode_manifest(&decoded).digest,
                    want[d],
                    "{} @{d} decoded",
                    c.name
                );
                for (how, from) in [("in-memory", snap), ("decoded", &decoded)] {
                    let out = resume_program(
                        program.as_ref(),
                        cfg(&c, true, None),
                        from,
                        Some(replay_from(&recorded, d)),
                        vec![],
                    );
                    let got: Vec<u64> = out.decision_hashes.iter().copied().collect();
                    let label = format!("{} {how} resume @{d} (hashed={hashed})", c.name);
                    // An unhashed snapshot carries no digest prefix.
                    let expect = if hashed { &want[..] } else { &want[d..] };
                    assert_eq!(got, expect, "{label}: digest stream");
                    assert_eq!(
                        out.final_state_hash, recorded.final_state_hash,
                        "{label}: final digest"
                    );
                }
            }
        }
    }
}
