//! Layer probes measured from outside: the `dd-sim` kernel under a stack of
//! `RunConfig`s (kernel only, then adding trace collection, decision
//! digests and recording checkpoints), the `dd-detect` race analysis over
//! each incident's run, and RCSE training.

use crate::incidents::Incident;
use crate::tracer::{self, span};
use dd_detect::HbRaceDetector;
use dd_replay::RECORDING_CHECKPOINTS;
use dd_sim::{run_program, RunConfig};
use dd_trace::Trace;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `RunConfig` stack, one layer added per step.
pub const STACK: [&str; 4] = ["kernel", "trace", "digest", "checkpoint"];

const MIN_REPS: u32 = 5;
const MAX_REPS: u32 = 400;

/// Runs each incident's production schedule under every stack level,
/// round-robin, for about `budget` per incident. Spans carry
/// `<incident>/<level>`; counts carry the kernel's step and decision
/// totals and the cost model's overhead factor of the full stack.
pub fn probe_sim(incidents: &[&Incident], budget: Duration, counts: &mut BTreeMap<String, f64>) {
    for inc in incidents {
        let scenario = inc.session.scenario();
        let spec = scenario.original_spec();
        let items: Vec<String> = STACK.iter().map(|l| format!("{}/{l}", inc.name)).collect();
        let t0 = Instant::now();
        let mut reps = 0;
        while reps < MIN_REPS || (t0.elapsed() < budget && reps < MAX_REPS) {
            for (level, item) in items.iter().enumerate() {
                tracer::begin_op();
                let cfg = RunConfig {
                    seed: scenario.seed,
                    max_steps: scenario.max_steps,
                    inputs: scenario.inputs.clone(),
                    env: scenario.env.clone(),
                    collect_trace: level >= 1,
                    hash_decisions: level >= 2,
                    checkpoints: (level >= 3).then_some(RECORDING_CHECKPOINTS),
                    ..RunConfig::default()
                };
                let policy = spec.policy.build();
                let out = span("sim.run_program", item, || {
                    run_program(scenario.program.as_ref(), cfg, policy, vec![])
                });
                let name = inc.name;
                match level {
                    0 => {
                        counts.insert(format!("sim.steps/{name}"), out.stats.steps as f64);
                        counts.insert(format!("sim.decisions/{name}"), out.stats.decisions as f64);
                    }
                    1 => {
                        let trace = Trace::from_run(&out);
                        span("detect.race_analyze", name, || {
                            HbRaceDetector::analyze(&trace)
                        });
                    }
                    3 => {
                        counts.insert(
                            format!("sim.overhead_modeled_x/{name}"),
                            out.stats.overhead_factor(),
                        );
                    }
                    _ => {}
                }
            }
            reps += 1;
        }
    }
}

/// Times `Session::train` (plane classification, site profiling and
/// invariant inference) on each incident's passing configurations.
pub fn probe_train(incidents: &[&Incident], reps: u32) {
    for inc in incidents {
        for _ in 0..reps {
            span("session.train", inc.name, || inc.session.train());
        }
    }
}
