//! Round-trip property tests for the artifact log formats: serialize →
//! deserialize of arbitrary generated traces and logs is the identity, and
//! the JSON is byte-stable across repeated serialisations (replay artifacts
//! are content-addressed by hash in downstream tooling, so nondeterministic
//! encodings would corrupt them).

use dd_sim::{DecisionKind, Event, EventMeta, RecordedDecision, TaskId, Value, VarId};
use dd_trace::{InputEntry, InputLog, ScheduleLog, Trace, ValueLog};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Generates one arbitrary [`Value`], covering every variant.
fn value_from(rng: &mut TestRng) -> Value {
    match rng.below(6) {
        0 => Value::Unit,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::Str(".{0,12}".gen_value(rng)),
        4 => Value::Bytes((0..rng.below(16)).map(|_| rng.next_u64() as u8).collect()),
        _ => Value::List(
            (0..rng.below(4))
                .map(|_| Value::Int(rng.next_u64() as i64))
                .collect(),
        ),
    }
}

/// Generates one arbitrary task-attributed event with a value payload.
fn event_from(rng: &mut TestRng) -> Event {
    let task = TaskId(rng.below(5) as u32);
    match rng.below(5) {
        0 => Event::Read {
            task,
            var: VarId(rng.below(4) as u32),
            value: value_from(rng),
            site: ".{1,10}".gen_value(rng).into(),
        },
        1 => Event::Write {
            task,
            var: VarId(rng.below(4) as u32),
            value: value_from(rng),
            site: ".{1,10}".gen_value(rng).into(),
        },
        2 => Event::Recv {
            task,
            chan: dd_sim::ChanId(rng.below(3) as u32),
            value: value_from(rng),
            site: ".{1,10}".gen_value(rng).into(),
        },
        3 => Event::RngDraw {
            task,
            value: rng.next_u64(),
            site: ".{1,10}".gen_value(rng).into(),
        },
        _ => Event::InputRead {
            task,
            port: dd_sim::PortId(rng.below(3) as u32),
            value: value_from(rng),
            site: ".{1,10}".gen_value(rng).into(),
        },
    }
}

fn trace_from(rng: &mut TestRng, len: u64) -> Trace {
    Trace::from_events(
        (0..len)
            .map(|step| {
                (
                    EventMeta {
                        step,
                        time: step * 3,
                    },
                    event_from(rng),
                )
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary traces survive the JSON round trip unchanged, and two
    /// serialisations of the same trace are byte-identical.
    #[test]
    fn trace_roundtrip_is_identity_and_stable(len in 0u64..24, case in 0u64..10_000) {
        let mut rng = TestRng::for_case("trace_gen", case);
        let trace = trace_from(&mut rng, len);

        let a = serde_json::to_string(&trace).expect("serializes");
        let b = serde_json::to_string(&trace).expect("serializes");
        prop_assert_eq!(&a, &b);
        let back: Trace = serde_json::from_str(&a).expect("deserializes");
        prop_assert_eq!(&trace, &back);
    }

    /// Arbitrary schedule logs round-trip exactly; replaying a reparsed
    /// artifact must follow the same decisions as the in-memory log.
    #[test]
    fn schedule_log_roundtrip_is_identity_and_stable(len in 0usize..40, case in 0u64..10_000) {
        let mut rng = TestRng::for_case("sched_gen", case);
        let log = ScheduleLog {
            decisions: (0..len)
                .map(|_| RecordedDecision {
                    kind: if rng.below(4) == 0 {
                        DecisionKind::WakeOne(dd_sim::CondvarId(rng.below(3) as u32))
                    } else {
                        DecisionKind::NextTask
                    },
                    chosen: TaskId(rng.below(6) as u32),
                })
                .collect(),
        };

        let a = serde_json::to_string(&log).expect("serializes");
        prop_assert_eq!(a.clone(), serde_json::to_string(&log).expect("serializes"));
        let back: ScheduleLog = serde_json::from_str(&a).expect("deserializes");
        prop_assert_eq!(&log, &back);
    }

    /// Arbitrary input logs round-trip exactly, and the rebuilt input
    /// script preserves every entry.
    #[test]
    fn input_log_roundtrip_is_identity_and_stable(len in 0usize..24, case in 0u64..10_000) {
        let mut rng = TestRng::for_case("input_gen", case);
        let log = InputLog {
            entries: (0..len)
                .map(|i| InputEntry {
                    port: format!("port{}", rng.below(3)),
                    time: i as u64 * 7 + rng.below(5),
                    value: value_from(&mut rng),
                })
                .collect(),
        };

        let a = serde_json::to_string(&log).expect("serializes");
        prop_assert_eq!(a.clone(), serde_json::to_string(&log).expect("serializes"));
        let back: InputLog = serde_json::from_str(&a).expect("deserializes");
        prop_assert_eq!(&log, &back);
        prop_assert_eq!(log.to_script().len(), log.entries.len());
    }

    /// Value logs extracted from arbitrary traces round-trip exactly.
    #[test]
    fn value_log_roundtrip_is_identity_and_stable(len in 0u64..24, case in 0u64..10_000) {
        let mut rng = TestRng::for_case("value_gen", case);
        let log = ValueLog::from_trace(&trace_from(&mut rng, len));

        let a = serde_json::to_string(&log).expect("serializes");
        prop_assert_eq!(a.clone(), serde_json::to_string(&log).expect("serializes"));
        let back: ValueLog = serde_json::from_str(&a).expect("deserializes");
        prop_assert_eq!(&log, &back);
    }
}
