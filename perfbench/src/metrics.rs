//! Metric definitions, their derivation from spans and counts, and the
//! benchmark's JSON output.

use crate::incidents::{ALL as INCIDENTS, FAILOVER, HS63, MSG_DROPS};
use crate::layers::STACK;
use crate::mixes::{KINDS, MODEL_SCHEDULES, QUARTERS, TREES, TREE_DEEP, TREE_DEEP_W2, WORKLOADS};
use crate::stats::{median, quartiles, set_median, set_tail, tail};
use crate::tracer::Span;
use crate::{Config, Outcome};
use std::collections::BTreeMap;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        value,
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. `ref` is the time of the reference computation measured
/// beside each operation (see `calib.rs`).
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_ref.p50", "ref", "lower", 0.25),
    ("pass_ref.tail", "ref", "lower", 0.25),
];

/// `passes[set][pass]`: each pass's reference units, per schedule set.
pub fn end_to_end(setup_s: &[f64], passes: &[Vec<f64>]) -> Vec<Metric> {
    let values = [median(setup_s), set_median(passes), set_tail(passes)];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, better, _), v)| m(name, unit, better, v))
        .collect()
}

/// Span durations in milliseconds, by (name, item).
struct Spans(BTreeMap<(&'static str, String), Vec<f64>>);

impl Spans {
    fn new(spans: &[Span]) -> Self {
        let mut by: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
        for s in spans {
            by.entry((s.name, s.item.clone()))
                .or_default()
                .push(s.dur_ms());
        }
        Spans(by)
    }

    /// Median duration of the spans of `name` on `item` (NaN if none).
    fn med(&self, name: &'static str, item: &str) -> f64 {
        self.0
            .get(&(name, item.to_owned()))
            .map_or(f64::NAN, |v| median(v))
    }

    fn all(&self, name: &'static str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

fn sum(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().sum()
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Reads an exact count (NaN if it was never recorded).
fn c(counts: &BTreeMap<String, f64>, key: &str) -> f64 {
    counts.get(key).copied().unwrap_or(f64::NAN)
}

const SPILLED: [&str; 2] = [MSG_DROPS, FAILOVER];
const MODELLED: [&str; 2] = [MSG_DROPS, HS63];

fn spill_reads() -> Vec<String> {
    SPILLED
        .iter()
        .flat_map(|i| QUARTERS.iter().map(move |q| format!("{i}/{q}")))
        .collect()
}

/// Derives every per-layer metric from the traced run's spans and exact
/// counts. Pass empty inputs to get the names and units alone.
pub fn per_layer(spans: &[Span], counts: &BTreeMap<String, f64>, overhead_pct: f64) -> Vec<Metric> {
    let s = Spans::new(spans);
    let mut out = Vec::new();
    let us = 1e3;

    // dd-sim: the RunConfig stack, per incident program.
    let mut sim_base = BTreeMap::new();
    for inc in INCIDENTS {
        let lvl: Vec<f64> = STACK
            .iter()
            .map(|l| s.med("sim.run_program", &format!("{inc}/{l}")))
            .collect();
        let steps = c(counts, &format!("sim.steps/{inc}"));
        let per_step = |ms: f64| ms * us / steps;
        sim_base.insert(inc, per_step(lvl[1]));
        out.push(m(
            format!("sim.step_us.{inc}"),
            "us",
            "lower",
            per_step(lvl[0]),
        ));
        out.push(m(
            format!("sim.trace_us_per_step.{inc}"),
            "us",
            "lower",
            per_step(lvl[1] - lvl[0]),
        ));
        out.push(m(
            format!("sim.digest_us_per_step.{inc}"),
            "us",
            "lower",
            per_step(lvl[2] - lvl[1]),
        ));
        out.push(m(
            format!("sim.checkpoint_us_per_step.{inc}"),
            "us",
            "lower",
            per_step(lvl[3] - lvl[2]),
        ));
        out.push(m(format!("sim.steps.{inc}"), "count", "lower", steps));
        out.push(m(
            format!("sim.decisions.{inc}"),
            "count",
            "lower",
            c(counts, &format!("sim.decisions/{inc}")),
        ));
        out.push(m(
            format!("sim.overhead_measured_x.{inc}"),
            "x",
            "lower",
            lvl[3] / lvl[0],
        ));
        out.push(m(
            format!("sim.overhead_modeled_x.{inc}"),
            // Virtual ticks over virtual ticks: the cost model, not a clock.
            "tick/tick",
            "lower",
            c(counts, &format!("sim.overhead_modeled_x/{inc}")),
        ));
    }

    // dd-trace::jsonl and the incident workload's two stages.
    out.push(m(
        "trace.render_us",
        "us",
        "lower",
        sum(INCIDENTS.map(|i| s.med("jsonl.render", i) * us)),
    ));
    out.push(m(
        "trace.parse_us",
        "us",
        "lower",
        sum(INCIDENTS.map(|i| s.med("jsonl.parse", i) * us)),
    ));
    out.push(m(
        "incident.record_ms",
        "ms",
        "lower",
        sum(INCIDENTS.map(|i| s.med("op", &format!("record/{i}")))),
    ));
    out.push(m(
        "incident.replay_ms",
        "ms",
        "lower",
        sum(INCIDENTS.map(|i| s.med("op", &format!("replay/{i}")))),
    ));
    let bytes = sum(INCIDENTS.map(|i| c(counts, &format!("incident.trace_bytes/{i}"))));
    let decisions = sum(INCIDENTS.map(|i| c(counts, &format!("incident.decisions/{i}"))));
    out.push(m(
        "incident.trace_bytes_per_decision",
        "B",
        "lower",
        bytes / decisions,
    ));

    // dd-trace::store and the spill workload's two stages.
    let reads = spill_reads();
    let disk = sum(SPILLED.map(|i| c(counts, &format!("store.disk_bytes/{i}"))));
    let standalone = sum(SPILLED.map(|i| c(counts, &format!("store.standalone_bytes/{i}"))));
    let snapshots = sum(SPILLED.map(|i| c(counts, &format!("store.snapshots/{i}"))));
    out.push(m(
        "store.save_ms",
        "ms",
        "lower",
        median(&s.all("store.offer")),
    ));
    out.push(m(
        "store.load_ms",
        "ms",
        "lower",
        mean(reads.iter().map(|r| s.med("store.load", r))),
    ));
    out.push(m("store.snapshots", "count", "lower", snapshots));
    out.push(m(
        "store.bytes_per_snapshot",
        "B",
        "lower",
        disk / snapshots,
    ));
    out.push(m("store.delta_ratio", "x", "higher", standalone / disk));
    out.push(m(
        "spill.record_ms",
        "ms",
        "lower",
        sum(SPILLED.map(|i| s.med("op", &format!("spill-write/{i}")))),
    ));
    out.push(m(
        "spill.replay_from_ms",
        "ms",
        "lower",
        mean(
            reads
                .iter()
                .map(|r| s.med("op", &format!("spill-read/{r}"))),
        ),
    ));
    out.push(m("spill.store_kb", "KB", "lower", disk / 1024.0));

    // dd-replay::divergence.
    let replay_steps = sum(INCIDENTS.map(|i| c(counts, &format!("incident.replay_steps/{i}"))));
    out.push(m(
        "replay.strict_us_per_step",
        "us",
        "lower",
        sum(INCIDENTS.map(|i| s.med("session.replay", i))) * us / replay_steps,
    ));
    out.push(m(
        "replay.resume_ms",
        "ms",
        "lower",
        mean(reads.iter().map(|r| s.med("session.replay_from", r))),
    ));
    let scratch = sum(SPILLED.map(|i| s.med("session.replay", i)));
    let restored = sum(SPILLED.map(|i| {
        mean(QUARTERS.map(|q| {
            let r = format!("{i}/{q}");
            s.med("store.load", &r) + s.med("session.replay_from", &r)
        }))
    }));
    out.push(m(
        "replay.from_vs_scratch_x",
        "x",
        "higher",
        scratch / restored,
    ));

    // dd-replay::dpor / explorer, per tree.
    for tree in TREES {
        let k = |what: &str| c(counts, &format!("explore.{what}/{tree}"));
        let (executed, pruned, steps) = (k("executed"), k("pruned"), k("steps_executed"));
        let us_per_step = s.med("enumerate_failures", tree) * us / steps;
        let program = tree
            .split('.')
            .next()
            .expect("tree labels name their incident");
        out.push(m(
            format!("explore.executed.{tree}"),
            "count",
            "lower",
            executed,
        ));
        out.push(m(
            format!("explore.pruned.{tree}"),
            "count",
            "higher",
            pruned,
        ));
        out.push(m(
            format!("explore.prune_ratio.{tree}"),
            "ratio",
            "higher",
            pruned / (executed + pruned),
        ));
        out.push(m(
            format!("explore.steps_executed.{tree}"),
            "count",
            "lower",
            steps,
        ));
        // Depth-4 trees run without snapshots, so they never skip a step.
        if !tree.ends_with(".d4") {
            out.push(m(
                format!("explore.steps_skipped.{tree}"),
                "count",
                "higher",
                k("steps_skipped"),
            ));
        }
        out.push(m(
            format!("explore.us_per_step.{tree}"),
            "us",
            "lower",
            us_per_step,
        ));
        let base = sim_base.get(program).copied().unwrap_or(f64::NAN);
        out.push(m(
            format!("explore.overhead_us_per_step.{tree}"),
            "us",
            "lower",
            us_per_step - base,
        ));
    }
    out.push(m(
        "search.pass_s",
        "s",
        "lower",
        sum(TREES.map(|t| s.med("op", &format!("tree/{t}")))) / 1e3,
    ));

    // dd-replay::parallel, on the deep tree.
    let (w1, w2) = (
        s.med("enumerate_failures", TREE_DEEP),
        s.med("enumerate_failures", TREE_DEEP_W2),
    );
    out.push(m("parallel.w1_ms", "ms", "lower", w1));
    out.push(m("parallel.w2_ms", "ms", "lower", w2));
    out.push(m("parallel.speedup", "x", "higher", w1 / w2));

    // dd-core::rcse / dd-classify, dd-detect.
    out.push(m(
        "rcse.train_ms",
        "ms",
        "lower",
        sum(MODELLED.map(|i| s.med("session.train", i))),
    ));
    out.push(m(
        "detect.race_analyze_us",
        "us",
        "lower",
        sum(INCIDENTS.map(|i| s.med("detect.race_analyze", i) * us)),
    ));

    // dd-replay::models, per kind, summed over both incidents.
    let mut log_bytes = 0.0;
    let sets = 0..MODEL_SCHEDULES;
    for (_, kind) in KINDS {
        // Per incident, the median over schedule sets; summed over incidents.
        let per_incident = |name: &'static str, item: &dyn Fn(&str) -> String| {
            sum(MODELLED.map(|i| {
                median(
                    &sets
                        .clone()
                        .map(|k| s.med(name, &item(&format!("{kind}/{i}#{k}"))))
                        .collect::<Vec<_>>(),
                )
            }))
        };
        let k = |what: &str| {
            sum(MODELLED.iter().flat_map(|i| {
                sets.clone()
                    .map(move |k| c(counts, &format!("model.{what}/{kind}/{i}#{k}")))
            }))
        };
        let bytes = k("log_bytes");
        log_bytes += bytes;
        out.push(m(
            format!("model.{kind}.record_ms"),
            "ms",
            "lower",
            per_incident("session.record_model", &|it| it.to_owned()),
        ));
        out.push(m(
            format!("model.{kind}.replay_ms"),
            "ms",
            "lower",
            per_incident("op", &|it| format!("model-replay/{it}")),
        ));
        out.push(m(
            format!("model.{kind}.inference_executed"),
            "count",
            "lower",
            k("inference_executed"),
        ));
        out.push(m(format!("model.{kind}.log_bytes"), "B", "lower", bytes));
        out.push(m(
            format!("model.{kind}.modeled_log_bytes"),
            "B",
            "lower",
            k("modeled_log_bytes"),
        ));
    }
    out.push(m("models.log_kb", "KB", "lower", log_bytes / 1024.0));

    out.push(m(
        "setup.discover_ms",
        "ms",
        "lower",
        sum(INCIDENTS.map(|i| s.med("setup.incident", i))),
    ));
    for w in WORKLOADS {
        out.push(m(
            format!("rss.peak_mb.{w}"),
            "MB",
            "lower",
            c(counts, &format!("rss.peak_mb/{w}")),
        ));
    }
    out.push(m("trace.overhead_pct", "%", "lower", overhead_pct));
    out
}

/// Measured next to modeled: the sim layer's wall-clock overhead beside
/// the cost model's tick ratio, and each model's artifact bytes beside
/// Fig. 1's modeled log bytes.
pub fn side_by_side(metrics: &[Metric]) -> Vec<String> {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut lines = vec!["incident              measured_x  modeled_x (ticks)".to_owned()];
    for inc in INCIDENTS {
        lines.push(format!(
            "{inc:<22}{:>10.2}  {:>9.2}",
            get(&format!("sim.overhead_measured_x.{inc}")),
            get(&format!("sim.overhead_modeled_x.{inc}"))
        ));
    }
    lines.push("model            artifact_B  fig1_log_B".to_owned());
    for (_, kind) in KINDS {
        lines.push(format!(
            "{kind:<17}{:>10}  {:>10}",
            get(&format!("model.{kind}.log_bytes")),
            get(&format!("model.{kind}.modeled_log_bytes"))
        ));
    }
    lines
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

/// The benchmark's last stdout line.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// Provenance and the spread of every sample set behind the metrics.
pub fn meta_json(
    cfg: &Config,
    attempted: u64,
    incidents: &str,
    samples: &[(String, Vec<f64>)],
    counts: &BTreeMap<String, f64>,
) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rows: Vec<String> = samples
        .iter()
        .map(|(k, v)| {
            let (q1, q3) = quartiles(v);
            let (t, p) = tail(v);
            format!(
                "\"{k}\":{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"tail\":{},\"tail_pct\":{}}}",
                v.len(),
                num(median(v)),
                num(q1),
                num(q3),
                num(t),
                num(p)
            )
        })
        .collect();
    let counts: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{commit}\",\"source_fnv\":\"{:016x}\",\"nproc\":{nproc},\"runs\":1,\"ops\":{attempted},\"incidents\":{incidents},\"counts\":{{{}}},\"samples\":{{{}}}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        source_fnv(&root),
        counts.join(","),
        rows.join(",")
    )
}

/// FNV-1a over the benchmark's and the library crates' sources, so a
/// result names the code it measured even outside a git checkout.
fn source_fnv(root: &std::path::Path) -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The metric lists `BENCHMARK.json` declares, as this binary defines
/// them (`--list-metrics`).
pub fn spec_json() -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}")
        })
        .collect();
    let layers: Vec<String> = per_layer(&[], &BTreeMap::new(), f64::NAN)
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n",
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
