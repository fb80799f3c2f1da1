//! Self-tests: short runs on one seed. Run them optimised
//! (`cargo test --release --manifest-path perfbench/Cargo.toml`); the search
//! workload's trees take seconds each in a debug build.

use super::*;
use crate::mixes::{replay_text, IncidentMix};

fn short(workload: &str, trace: bool) -> Outcome {
    let cfg = Config {
        workload: workload.to_owned(),
        seed: 1,
        seconds: if trace { 1.0 } else { 0.2 },
        trace,
    };
    let dir = PathBuf::from(".perfbench").join(format!("test-{workload}-{trace}"));
    let out = run(&cfg, &dir).expect("run completes");
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_prints(out: &Outcome, declared: &[(String, &str)]) {
    assert_eq!(out.failed, 0, "failed operations: {:?}", out.errors);
    assert!(out.attempted > 0);
    let printed: Vec<(String, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    assert_eq!(
        printed, declared,
        "printed metrics differ from the declared ones"
    );
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let line = metrics::result_json(out);
    for (name, unit) in declared {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":"))
                && line.contains(&format!("\"unit\":\"{unit}\"")),
            "{name} [{unit}] missing from {line}"
        );
    }
}

fn e2e_declared() -> Vec<(String, &'static str)> {
    metrics::END_TO_END
        .iter()
        .map(|(n, u, _, _)| (n.to_string(), *u))
        .collect()
}

fn layers_declared() -> Vec<(String, &'static str)> {
    metrics::per_layer(&[], &Default::default(), f64::NAN)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<String> = e2e_declared().into_iter().map(|(n, _)| n).collect();
    let layers = layers_declared();
    assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
    names.extend(layers.into_iter().map(|(n, _)| n));
    for n in &names {
        assert!(valid_name(n), "bad metric name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate metric names");
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    assert!(
        squash(&text).contains(&squash(&metrics::spec_json())),
        "BENCHMARK.json's metric lists differ from `perfbench --list-metrics`"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in mixes::WORKLOADS {
        assert_prints(&short(w, false), &e2e_declared());
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_spans_nest() {
    let out = short("incident", true);
    assert_prints(&out, &layers_declared());
    assert!(!out.spans.is_empty());
    tracer::check_nesting(&out.spans).expect("every parent is an open span of the same op");
    let layer_calls = out.spans.iter().filter(|s| s.parent.is_some()).count();
    assert!(
        layer_calls > 0,
        "no layer call was traced inside an operation"
    );
}

#[test]
fn truncated_trace_is_a_failed_operation_not_a_panic() {
    let mix = IncidentMix::new(1).expect("incidents build");
    let inc = &mix.incidents[0];
    let text = inc.session.record().expect("record").render();
    let mut log = OpLog::default();
    assert!(replay_text(&mut log, inc, &text).is_some());
    assert_eq!((log.attempted, log.failed), (1, 0));
    let cut = &text[..text.len() / 2];
    assert!(replay_text(&mut log, inc, cut).is_none());
    assert_eq!((log.attempted, log.failed), (2, 1));
}

#[test]
fn args_are_validated() {
    let a = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(a(&[
        "--workload",
        "incident",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "0"
    ])
    .is_ok());
    assert!(a(&[
        "--workload",
        "nope",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(a(&[
        "--workload",
        "incident",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "2"
    ])
    .is_err());
    assert!(a(&["--workload", "incident", "--seed", "3"]).is_err());
}
