//! One benchmark for the record → replay → explore pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload incident|search|spill|models --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs untraced in a closed loop for `S`
//! seconds and the last stdout line carries the end-to-end metrics. With
//! `--trace 1` the run builds all four workloads, runs the layer probes,
//! then runs each workload's mix with a span around each call into a
//! layer's public function; the last line carries the per-layer metrics,
//! including the tracing overhead measured on the chosen workload. Spans
//! are kept in memory and written to `.perfbench/spans-<workload>-<seed>.jsonl`
//! at exit. See `DESIGN.md`.

mod calib;
mod incidents;
mod layers;
mod metrics;
mod mixes;
mod stats;
mod tracer;

use mixes::{Mix, OpLog};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !mixes::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {:?})",
            mixes::WORKLOADS
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < S <= 600"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<metrics::Metric>,
    pub spans: Vec<tracer::Span>,
    pub report: Vec<String>,
    pub meta: String,
}

/// Pass samples, `[schedule set][pass]`, in milliseconds and in reference
/// units.
#[derive(Default)]
struct Passes {
    ms: Vec<Vec<f64>>,
    units: Vec<Vec<f64>>,
}

/// Runs passes of `mix` until `budget` has elapsed (at least `min` passes).
fn drive(mix: &mut dyn Mix, log: &mut OpLog, budget: Duration, min: usize) -> Passes {
    let t0 = Instant::now();
    let mut p = Passes::default();
    let mut n = 0;
    while n < min || t0.elapsed() < budget {
        for (set, (ms, units)) in log.pass(mix).into_iter().enumerate() {
            if p.ms.len() <= set {
                p.ms.resize(set + 1, Vec::new());
                p.units.resize(set + 1, Vec::new());
            }
            p.ms[set].push(ms);
            p.units[set].push(units);
        }
        n += 1;
    }
    p
}

/// Peak resident memory since start or since the last [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

pub fn run(cfg: &Config, scratch: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut logs: Vec<OpLog> = Vec::new();
    let mut report = Vec::new();
    let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
    let incidents_json;
    let metrics;
    let mut spans = Vec::new();

    if !cfg.trace {
        let mut setup_s = Vec::new();
        let mut setup_raw_s = Vec::new();
        let mut mix = None;
        calib::reference_ms(); // first call fills the reference's buffers
        for _ in 0..SETUP_REPS {
            drop(mix.take());
            let before = calib::reference_ms();
            let t0 = Instant::now();
            mix = Some(mixes::build(&cfg.workload, cfg.seed, scratch)?);
            let s = t0.elapsed().as_secs_f64();
            setup_raw_s.push(s);
            setup_s.push(calib::at_nominal_speed(
                s,
                (before + calib::reference_ms()) / 2.0,
            ));
        }
        let mut mix = mix.expect("SETUP_REPS > 0");
        incidents_json = incidents_json_of(mix.as_ref());
        let mut log = OpLog::default();
        log.pass(mix.as_mut()); // warm-up: caches and lazy set-up
        let passes = drive(mix.as_mut(), &mut log, secs(cfg.seconds), 3);
        metrics = metrics::end_to_end(&setup_s, &passes.units);
        report.push(format!(
            "{}: {} passes over {} schedule set(s), pass_ms median {:.3} (reference units {:.2}), peak RSS {:.1} MB",
            cfg.workload,
            passes.ms[0].len(),
            passes.ms.len(),
            stats::set_median(&passes.ms),
            stats::set_median(&passes.units),
            peak_rss_mb()
        ));
        samples.push(("setup_s".to_owned(), setup_s));
        samples.push(("setup_raw_s".to_owned(), setup_raw_s));
        samples.push(("pass_ms".to_owned(), passes.ms.concat()));
        samples.push(("pass_ref".to_owned(), passes.units.concat()));
        samples.extend(log.samples.iter().map(|(k, v)| (k.clone(), v.clone())));
        logs.push(log);
    } else {
        tracer::set_enabled(true);
        let mut built: Vec<(&str, Box<dyn Mix>)> = Vec::new();
        for w in mixes::WORKLOADS {
            built.push((w, mixes::build(w, cfg.seed, scratch)?));
        }
        incidents_json = incidents_json_of(
            built
                .iter()
                .find(|(w, _)| *w == cfg.workload)
                .expect("the workload was built")
                .1
                .as_ref(),
        );
        let mut counts = std::collections::BTreeMap::new();
        {
            let all = built[0].1.incidents();
            layers::probe_sim(
                &all,
                secs(cfg.seconds * 0.15 / all.len() as f64),
                &mut counts,
            );
            let models = built[3].1.incidents();
            layers::probe_train(&models[..2], 3);
        }
        let mut overhead = (f64::NAN, f64::NAN);
        for (w, mix) in built.iter_mut() {
            let mut log = OpLog::default();
            tracer::set_enabled(false);
            if let Err(e) = reset_peak_rss() {
                log.errors.push(e);
                log.failed += 1;
            }
            log.pass(mix.as_mut()); // warm-up
            if *w == cfg.workload {
                let untraced = drive(mix.as_mut(), &mut log, secs(cfg.seconds * 0.2), 2);
                overhead.0 = stats::set_median(&untraced.units);
            }
            tracer::set_enabled(true);
            let traced = drive(mix.as_mut(), &mut log, secs(cfg.seconds * 0.15), 1);
            tracer::set_enabled(false);
            if *w == cfg.workload {
                overhead.1 = stats::set_median(&traced.units);
            }
            counts.insert(format!("rss.peak_mb/{w}"), peak_rss_mb());
            samples.push((format!("{w}/pass_ref"), traced.units.concat()));
            counts.extend(log.counts.iter().map(|(k, v)| (k.clone(), *v)));
            logs.push(log);
        }
        spans = tracer::take();
        let overhead_pct = 100.0 * (overhead.1 / overhead.0 - 1.0);
        metrics = metrics::per_layer(&spans, &counts, overhead_pct);
        report.extend(metrics::side_by_side(&metrics));
        if let Err(e) = tracer::check_nesting(&spans) {
            logs[0].errors.push(format!("span nesting: {e}"));
            logs[0].failed += 1;
        }
    }

    let attempted = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mut errors: Vec<String> = logs.iter().flat_map(|l| l.errors.clone()).collect();
    for m in &metrics {
        if !m.value.is_finite() {
            failed += 1;
            errors.push(format!("metric {} was not measured", m.name));
        }
    }
    let counts: std::collections::BTreeMap<String, f64> = logs
        .iter()
        .flat_map(|l| l.counts.iter().map(|(k, v)| (k.clone(), *v)))
        .collect();
    let meta = metrics::meta_json(cfg, attempted, &incidents_json, &samples, &counts);
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
        spans,
        report,
        meta,
    })
}

fn incidents_json_of(mix: &dyn Mix) -> String {
    let rows: Vec<String> = mix
        .incidents()
        .iter()
        .map(|i| {
            format!(
                "{{\"name\":\"{}\",\"sched_seed\":{},\"failure\":\"{}\"}}",
                i.name, i.sched_seed, i.failure_id
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn scratch_dir(cfg: &Config) -> PathBuf {
    PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        cfg.workload,
        cfg.seed,
        std::process::id()
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--list-metrics") {
        print!("{}", metrics::spec_json());
        return;
    }
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = scratch_dir(&cfg);
    let result = run(&cfg, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    if !cfg.trace {
        // Removes `.perfbench` only when no span files live there.
        std::fs::remove_dir(".perfbench").ok();
    }
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if cfg.trace {
        let path =
            PathBuf::from(".perfbench").join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = std::fs::write(&path, tracer::to_jsonl(&out.spans)) {
            eprintln!("perfbench: {}: {e}", path.display());
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: failed: {e}");
    }
    for line in &out.report {
        println!("{line}");
    }
    println!("{}", out.meta);
    println!("{}", metrics::result_json(&out));
}

#[cfg(test)]
mod tests;
