//! First-divergence replay: hash-compared re-execution of a recorded run.
//!
//! A recorded trace carries, for every scheduling decision, a digest of the
//! machine state *before* that decision was applied (see
//! [`dd_sim::RunConfig::hash_decisions`]), plus a final digest one past the
//! last decision. Replaying the schedule with hashing enabled yields a second
//! digest stream; the first index where the streams differ localises the
//! first diverging decision:
//!
//! - digest `i` covers the world after decisions `0..i` were applied, so a
//!   mismatch at stream index `i` implicates decision `i - 1`;
//! - a mismatch at index `0` means the initial worlds already differ (wrong
//!   seed, inputs or environment — not a scheduling divergence);
//! - a strict-replay stop ([`StopReason::ReplayDivergence`]) names the
//!   diverging decision index directly (the recorded choice was infeasible);
//! - a final-digest mismatch with identical streams implicates the last
//!   decision (the runs agreed at every decision point but drifted after).

use dd_sim::{Observer, RunConfig, RunOutput, StopReason};
use dd_trace::JsonlTrace;
use serde::{Deserialize, Serialize};

use crate::scenario::{PolicyChoice, RunSpec, Scenario};

/// Where and why a replay first left the recorded execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// 0-based index of the first diverging decision in the recorded trace.
    pub decision: u64,
    /// Recorded state digest at the comparison point that failed, when the
    /// divergence was found by digest comparison (absent for policy stops).
    pub recorded_hash: Option<u64>,
    /// Replayed state digest at the same comparison point.
    pub replayed_hash: Option<u64>,
    /// Human-readable account of what went wrong.
    pub detail: String,
}

/// Outcome of a hash-compared replay of a recorded trace.
#[derive(Debug)]
pub struct DivergenceReport {
    /// The first divergence, or `None` if the replay matched the recording
    /// at every comparison point including the final digest.
    pub divergence: Option<Divergence>,
    /// How many digest comparison points agreed before the replay ended
    /// (including the final digest when it was reached and matched).
    pub matched: u64,
    /// Decisions the replay actually executed.
    pub replayed_decisions: u64,
    /// The replayed run, for oracle checks and state inspection.
    pub out: RunOutput,
}

impl DivergenceReport {
    /// True when the replay reproduced the recording exactly.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Replays `trace` against `scenario` under the strict schedule policy with
/// state hashing enabled, and reports the first divergence (if any).
///
/// The scenario must describe the same program the trace was recorded from;
/// seed, inputs and environment are taken from `spec` (normally
/// [`Scenario::original_spec`] with the policy replaced — use
/// [`replay_trace`] for the common case).
pub fn replay_trace_with(
    scenario: &Scenario,
    spec: &RunSpec,
    trace: &JsonlTrace,
    observers: Vec<Box<dyn Observer>>,
) -> DivergenceReport {
    let cfg = RunConfig {
        hash_decisions: true,
        ..scenario.config(spec)
    };
    let out = dd_sim::run_program(
        scenario.program.as_ref(),
        cfg,
        spec.policy.build(),
        observers,
    );
    let recorded = trace.hashes();
    let report = compare_streams(
        &recorded,
        trace.footer.final_hash,
        &out.decision_hashes.iter().copied().collect::<Vec<u64>>(),
        out.final_state_hash,
        &out.stop,
    );
    DivergenceReport {
        divergence: report.0,
        matched: report.1,
        replayed_decisions: out.decisions.len() as u64,
        out,
    }
}

/// Replays `trace` against `scenario` starting from a mid-run world
/// snapshot (typically restored from the trace's on-disk
/// [`SnapshotStore`](dd_trace::SnapshotStore)) instead of from scratch —
/// the `dd replay --from` fast path.
///
/// The restored world already contains the effects of the first
/// `snapshot.at_decision()` recorded decisions, so the strict replay policy
/// resumes at the next one. The report still covers the *whole* run: a
/// resumed run's digest stream is cumulative (the snapshot carries the
/// recorded prefix's digests; re-execution appends the tail), so the
/// comparison against the trace is index-for-index identical to a scratch
/// [`replay_trace`].
pub fn replay_trace_from(
    scenario: &Scenario,
    trace: &JsonlTrace,
    snapshot: &dd_sim::WorldSnapshot,
) -> DivergenceReport {
    let spec = scenario.original_spec();
    let consumed = snapshot.at_decision() as usize;
    let policy = dd_sim::ReplayPolicy::resuming_at(trace.schedule_log().decisions, consumed);
    // Digests on, no further snapshots: the snapshot carries the recorded
    // prefix's digests, so `decision_hashes` covers the whole run.
    let cfg = RunConfig {
        hash_decisions: true,
        ..scenario.config(&spec)
    };
    let out = dd_sim::resume_program(
        scenario.program.as_ref(),
        cfg,
        snapshot,
        Some(Box::new(policy)),
        vec![],
    );
    let recorded = trace.hashes();
    let report = compare_streams(
        &recorded,
        trace.footer.final_hash,
        &out.decision_hashes.iter().copied().collect::<Vec<u64>>(),
        out.final_state_hash,
        &out.stop,
    );
    DivergenceReport {
        divergence: report.0,
        matched: report.1,
        replayed_decisions: out.decisions.len() as u64,
        out,
    }
}

/// Replays `trace` against `scenario` using the scenario's own seed, inputs
/// and environment, driving the scheduler from the trace's schedule log.
pub fn replay_trace(
    scenario: &Scenario,
    trace: &JsonlTrace,
    observers: Vec<Box<dyn Observer>>,
) -> DivergenceReport {
    let spec = RunSpec {
        policy: PolicyChoice::Replay(trace.schedule_log()),
        ..scenario.original_spec()
    };
    replay_trace_with(scenario, &spec, trace, observers)
}

/// Compares a recorded digest stream against a replayed one and localises
/// the first divergence. Pure stream logic, exposed for testing.
///
/// Returns the divergence (if any) and the number of comparison points that
/// matched before it.
pub fn compare_streams(
    recorded: &[u64],
    recorded_final: u64,
    replayed: &[u64],
    replayed_final: Option<u64>,
    stop: &StopReason,
) -> (Option<Divergence>, u64) {
    let common = recorded.len().min(replayed.len());
    for i in 0..common {
        if recorded[i] != replayed[i] {
            let (decision, detail) = if i == 0 {
                (
                    0,
                    "initial state digest mismatch: the replay started from a \
                     different world (seed, inputs or environment differ)"
                        .to_string(),
                )
            } else {
                (
                    (i - 1) as u64,
                    format!(
                        "state digest mismatch before decision {i}: decision {} \
                         produced a different machine state than recorded",
                        i - 1
                    ),
                )
            };
            return (
                Some(Divergence {
                    decision,
                    recorded_hash: Some(recorded[i]),
                    replayed_hash: Some(replayed[i]),
                    detail,
                }),
                i as u64,
            );
        }
    }

    // Every shared digest agreed. A strict-policy stop now names the
    // diverging decision directly: the recorded choice was not feasible.
    if let StopReason::ReplayDivergence { step, detail } = stop {
        return (
            Some(Divergence {
                decision: *step,
                recorded_hash: None,
                replayed_hash: None,
                detail: format!("replay policy stop at decision {step}: {detail}"),
            }),
            common as u64,
        );
    }

    // Same prefix, different lengths: the replay ran out of (or past) the
    // recorded decisions without the strict policy objecting.
    if replayed.len() != recorded.len() {
        let detail = format!(
            "replay made {} decisions but the recording holds {}",
            replayed.len(),
            recorded.len()
        );
        return (
            Some(Divergence {
                decision: common as u64,
                recorded_hash: recorded.get(common).copied(),
                replayed_hash: replayed.get(common).copied(),
                detail,
            }),
            common as u64,
        );
    }

    // Streams identical; the final digest covers drift after the last
    // decision point.
    match replayed_final {
        Some(f) if f == recorded_final => (None, recorded.len() as u64 + 1),
        Some(f) => (
            Some(Divergence {
                decision: (recorded.len() as u64).saturating_sub(1),
                recorded_hash: Some(recorded_final),
                replayed_hash: Some(f),
                detail: "final state digest mismatch: the runs agreed at every \
                         decision point but diverged after the last one"
                    .to_string(),
            }),
            recorded.len() as u64,
        ),
        None => (
            Some(Divergence {
                decision: (recorded.len() as u64).saturating_sub(1),
                recorded_hash: Some(recorded_final),
                replayed_hash: None,
                detail: "replay produced no final state digest (hashing was \
                         not enabled on the replay run)"
                    .to_string(),
            }),
            recorded.len() as u64,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STOP: StopReason = StopReason::Quiescent;

    #[test]
    fn identical_streams_report_no_divergence() {
        let (d, matched) = compare_streams(&[1, 2, 3], 9, &[1, 2, 3], Some(9), &STOP);
        assert!(d.is_none());
        assert_eq!(matched, 4);
    }

    #[test]
    fn mismatch_implicates_previous_decision() {
        let (d, matched) = compare_streams(&[1, 2, 3], 9, &[1, 2, 4], Some(9), &STOP);
        let d = d.expect("divergence");
        assert_eq!(d.decision, 1);
        assert_eq!(d.recorded_hash, Some(3));
        assert_eq!(d.replayed_hash, Some(4));
        assert_eq!(matched, 2);
    }

    #[test]
    fn mismatch_at_index_zero_blames_setup() {
        let (d, _) = compare_streams(&[1, 2], 9, &[7, 2], Some(9), &STOP);
        let d = d.expect("divergence");
        assert_eq!(d.decision, 0);
        assert!(d.detail.contains("initial state"));
    }

    #[test]
    fn policy_stop_names_decision_directly() {
        let stop = StopReason::ReplayDivergence {
            step: 2,
            detail: "recorded task not runnable".into(),
        };
        let (d, _) = compare_streams(&[1, 2, 3], 9, &[1, 2], None, &stop);
        let d = d.expect("divergence");
        assert_eq!(d.decision, 2);
        assert!(d.recorded_hash.is_none());
    }

    #[test]
    fn short_replay_diverges_at_first_missing_decision() {
        let (d, _) = compare_streams(&[1, 2, 3], 9, &[1, 2], Some(5), &STOP);
        let d = d.expect("divergence");
        assert_eq!(d.decision, 2);
        assert_eq!(d.recorded_hash, Some(3));
    }

    #[test]
    fn final_hash_mismatch_implicates_last_decision() {
        let (d, matched) = compare_streams(&[1, 2, 3], 9, &[1, 2, 3], Some(8), &STOP);
        let d = d.expect("divergence");
        assert_eq!(d.decision, 2);
        assert_eq!(d.recorded_hash, Some(9));
        assert_eq!(d.replayed_hash, Some(8));
        assert_eq!(matched, 3);
    }

    #[test]
    fn empty_recording_matches_on_final_hash_alone() {
        let (d, matched) = compare_streams(&[], 42, &[], Some(42), &STOP);
        assert!(d.is_none());
        assert_eq!(matched, 1);
    }
}
