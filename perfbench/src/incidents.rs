//! The four production incidents every workload draws from, and how the
//! benchmark seed picks each one's failing schedule.

use crate::tracer;
use dd_core::driver::Session;
use dd_core::workload::{RunSetup, Workload};
use dd_hyperstore::{HyperConfig, HyperstoreFailoverWorkload, HyperstoreWorkload};
use dd_workloads::{MsgServerConfig, MsgServerWorkload};
use std::sync::Arc;

pub const MSG_DROPS: &str = "msgserver-drops";
pub const MSG_WIDE: &str = "msgserver-wide";
pub const HS63: &str = "hyperstore-issue63";
pub const FAILOVER: &str = "hyperstore-failover";
pub const ALL: [&str; 4] = [MSG_DROPS, MSG_WIDE, HS63, FAILOVER];

/// Schedule seeds tried past the offset before giving up.
const SCAN_LIMIT: u64 = 4_096;

/// A production incident: a session pinned to a failing schedule.
pub struct Incident {
    pub name: &'static str,
    pub session: Session,
    pub sched_seed: u64,
    pub failure_id: String,
}

fn workload(name: &str) -> Result<Arc<dyn Workload>, String> {
    let missing = || format!("{name}: the workload's own discovery found no failing seed");
    Ok(match name {
        MSG_DROPS => Arc::new(
            MsgServerWorkload::discover(MsgServerConfig::default(), 64).ok_or_else(missing)?,
        ),
        MSG_WIDE => Arc::new(
            MsgServerWorkload::discover(
                MsgServerConfig {
                    n_producers: 8,
                    msgs_per_producer: 48,
                    end_time: 3_200,
                    ..MsgServerConfig::default()
                },
                256,
            )
            .ok_or_else(missing)?,
        ),
        HS63 => {
            Arc::new(HyperstoreWorkload::discover(HyperConfig::default(), 200).ok_or_else(missing)?)
        }
        FAILOVER => Arc::new(
            HyperstoreFailoverWorkload::discover(HyperConfig::default(), 200)
                .ok_or_else(missing)?,
        ),
        other => return Err(format!("unknown incident {other}")),
    })
}

/// First schedule seed the scan tries for a benchmark seed (SplitMix64,
/// so neighbouring benchmark seeds land far apart).
pub fn scan_offset(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000
}

/// Builds one incident: constructs its workload, then scans schedule
/// seeds upward from the seed's offset until the production run fails —
/// the scan `Session::discover_failing_schedule` makes from 0.
pub fn build(name: &'static str, seed: u64) -> Result<Incident, String> {
    Ok(build_k(name, seed, 1)?.remove(0))
}

/// [`build`], continuing the scan until `k` failing schedules are found.
pub fn build_k(name: &'static str, seed: u64, k: usize) -> Result<Vec<Incident>, String> {
    tracer::span("setup.incident", name, || {
        let w = workload(name)?;
        let base = w.production();
        let from = scan_offset(seed);
        let mut found = Vec::new();
        for sched_seed in from..from + SCAN_LIMIT {
            let setup = RunSetup {
                sched_seed,
                ..base.clone()
            };
            let scenario = w.scenario_for(&setup);
            let out = scenario.execute(&scenario.original_spec(), vec![]);
            if let Some(f) = (scenario.failure_of)(&out.io) {
                found.push(Incident {
                    name,
                    session: Session::new(w.clone()).with_production(setup),
                    sched_seed,
                    failure_id: f.failure_id,
                });
                if found.len() == k {
                    return Ok(found);
                }
            }
        }
        Err(format!(
            "{name}: {} of {k} failing schedules in {from}..{}",
            found.len(),
            from + SCAN_LIMIT
        ))
    })
}
