//! The persistent snapshot store, end to end through the real `dd` binary:
//!
//! - `dd record --spill` writes a `<trace>.snapshots/` store whose trace
//!   artifact is byte-stable across invocations;
//! - a spilled record differs from a plain one only in the footer's
//!   marks, which name exactly the snapshots the store holds;
//! - `dd replay --from N` restores the nearest stored snapshot in a *fresh
//!   process* (every `dd` invocation here is its own process, cold from
//!   on-disk artifacts) and reproduces the recorded digest stream for all
//!   four workloads — including the scratch fallback when the run is too
//!   short to have stored anything;
//! - corrupt store artifacts (garbled log file, garbled log line, log cut
//!   short, truncated manifest, garbled index) exit `4` and name the
//!   offending file, never panic;
//! - `dd snapshots` lists the store.

use debug_determinism::trace::{JsonlTrace, SnapshotStore};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dd"))
        .args(args)
        .output()
        .expect("spawn dd")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("dd exited with a code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch file under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dd-snapstore-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn record_spilled(workload: &str, path: &Path) {
    let out = dd(&[
        "record",
        workload,
        "--out",
        path.to_str().unwrap(),
        "--spill",
        "--spill-every",
        "4",
    ]);
    assert_eq!(code(&out), 0, "record --spill failed: {}", stderr(&out));
}

/// The recorded decision count, parsed from the trace artifact.
fn decisions_of(path: &Path) -> u64 {
    JsonlTrace::load(path)
        .expect("spilled trace parses")
        .footer
        .decisions
}

#[test]
fn plain_and_spilled_records_differ_only_in_the_footer_marks() {
    let plain = scratch("contract-plain.jsonl");
    let out = dd(&["record", "msgserver", "--out", plain.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "record failed: {}", stderr(&out));
    let spilled = scratch("contract-spilled.jsonl");
    record_spilled("msgserver", &spilled);

    // A plain record captures no snapshots, so it marks none.
    let plain = JsonlTrace::load(&plain).expect("plain trace parses");
    assert!(plain.footer.epochs.is_empty(), "{:?}", plain.footer.epochs);

    // Spilling does not perturb the run: only the footer's marks differ.
    let mut trace = JsonlTrace::load(&spilled).expect("spilled trace parses");
    let marks = std::mem::take(&mut trace.footer.epochs);
    assert!(trace == plain, "spilled trace differs beyond its marks");

    // The marks are exactly the snapshots the store holds: none for a
    // snapshot retention evicted.
    let store =
        SnapshotStore::open(format!("{}.snapshots", spilled.display())).expect("store opens");
    let stored: Vec<(u64, u64)> = store.list().iter().map(|e| (e.decision, e.id)).collect();
    let marked: Vec<(u64, u64)> = marks
        .iter()
        .map(|m| {
            (
                m.decision,
                m.snapshot.expect("a spilled mark carries its id"),
            )
        })
        .collect();
    assert!(!stored.is_empty());
    assert_eq!(marked, stored);
}

#[test]
fn replay_from_reproduces_all_four_workloads_from_cold_artifacts() {
    for workload in ["msgserver", "sum", "bufoverflow", "hyperstore"] {
        let trace = scratch(&format!("grid-{workload}.jsonl"));
        record_spilled(workload, &trace);
        let mid = decisions_of(&trace) / 2;
        let out = dd(&[
            "replay",
            trace.to_str().unwrap(),
            "--from",
            &mid.to_string(),
        ]);
        assert_eq!(
            code(&out),
            0,
            "{workload}: replay --from {mid} failed: {}{}",
            stdout(&out),
            stderr(&out)
        );
        assert!(
            stdout(&out).contains("replay identical"),
            "{workload}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn spilled_recording_is_byte_stable_across_invocations() {
    let a = scratch("stable-a.jsonl");
    let b = scratch("stable-b.jsonl");
    record_spilled("msgserver", &a);
    record_spilled("msgserver", &b);
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "dd record --spill must be deterministic"
    );
}

#[test]
fn replay_from_restores_a_mid_run_snapshot_not_scratch() {
    let trace = scratch("midrun.jsonl");
    record_spilled("msgserver", &trace);
    let mid = decisions_of(&trace) / 2;
    let out = dd(&[
        "replay",
        trace.to_str().unwrap(),
        "--from",
        &mid.to_string(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("restored snapshot"),
        "deep spilled run must restore from the store, got: {text}"
    );
}

/// The store's `logs/` directory next to a spilled trace.
fn logs_dir(trace: &Path) -> PathBuf {
    PathBuf::from(format!("{}.snapshots", trace.display())).join("logs")
}

/// `dd replay --from <decision>` on `trace`, asserting exit 4 with an error
/// naming `logs/<file>`.
fn assert_replay_from_names(trace: &Path, from: u64, file: &str) {
    let out = dd(&[
        "replay",
        trace.to_str().unwrap(),
        "--from",
        &from.to_string(),
    ]);
    assert_eq!(
        code(&out),
        4,
        "stdout: {} stderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains(&format!("logs/{file}")),
        "error must name logs/{file}: {err}"
    );
}

#[test]
fn corrupt_log_file_exits_four_and_names_the_file() {
    let trace = scratch("corrupt-log.jsonl");
    record_spilled("msgserver", &trace);
    let mut files: Vec<PathBuf> = std::fs::read_dir(logs_dir(&trace))
        .expect("logs dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "spilled store has log files");
    // Garble them all: the restore must fail on whichever it reads first,
    // and the error must name that file.
    for victim in &files {
        std::fs::write(victim, "{ not json").unwrap();
    }

    let mid = decisions_of(&trace) / 2;
    let out = dd(&[
        "replay",
        trace.to_str().unwrap(),
        "--from",
        &mid.to_string(),
    ]);
    assert_eq!(
        code(&out),
        4,
        "stdout: {} stderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        files
            .iter()
            .any(|f| err.contains(f.file_name().unwrap().to_str().unwrap())),
        "error must name the corrupt log file: {err}"
    );
}

#[test]
fn garbled_middle_log_line_exits_four_and_names_the_file() {
    let trace = scratch("garbled-line.jsonl");
    record_spilled("msgserver", &trace);
    let victim = logs_dir(&trace).join("decisions.jsonl");
    let text = std::fs::read_to_string(&victim).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mid = lines[lines.len() / 2];
    std::fs::write(&victim, text.replacen(mid, "{\"garbled\":", 1)).unwrap();
    // The newest snapshot's prefix spans the whole file.
    assert_replay_from_names(&trace, decisions_of(&trace), "decisions.jsonl");
}

#[test]
fn log_cut_short_of_the_manifest_end_exits_four_and_names_the_file() {
    let trace = scratch("short-log.jsonl");
    record_spilled("msgserver", &trace);
    let victim = logs_dir(&trace).join("decisions.jsonl");
    let body = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &body[..body.len() - body.len() / 4]).unwrap();
    assert_replay_from_names(&trace, decisions_of(&trace), "decisions.jsonl");
}

#[test]
fn truncated_manifest_exits_four_and_names_the_file() {
    let trace = scratch("corrupt-manifest.jsonl");
    record_spilled("msgserver", &trace);
    let snaps = PathBuf::from(format!("{}.snapshots", trace.display())).join("snaps");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&snaps)
        .expect("snaps dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for victim in &files {
        let body = std::fs::read(victim).unwrap();
        std::fs::write(victim, &body[..body.len() / 2]).unwrap();
    }
    let mid = decisions_of(&trace) / 2;
    let out = dd(&[
        "replay",
        trace.to_str().unwrap(),
        "--from",
        &mid.to_string(),
    ]);
    assert_eq!(
        code(&out),
        4,
        "stdout: {} stderr: {}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stderr(&out).contains(".json"),
        "error must name a manifest file: {}",
        stderr(&out)
    );
}

#[test]
fn garbled_index_exits_four_and_names_store_json() {
    let trace = scratch("corrupt-index.jsonl");
    record_spilled("msgserver", &trace);
    let index = PathBuf::from(format!("{}.snapshots", trace.display())).join("store.json");
    std::fs::write(&index, "]]]").unwrap();
    let out = dd(&["replay", trace.to_str().unwrap(), "--from", "10"]);
    assert_eq!(code(&out), 4, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("store.json"), "{}", stderr(&out));
}

#[test]
fn snapshots_verb_lists_the_store_and_missing_store_exits_four() {
    let trace = scratch("listing.jsonl");
    record_spilled("msgserver", &trace);
    let out = dd(&["snapshots", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("restore-distance bound"), "{text}");
    assert!(text.contains("delta-bytes"), "{text}");
    assert!(text.contains("snapshots,"), "{text}");

    let bare = scratch("no-store.jsonl");
    let out = dd(&["record", "msgserver", "--out", bare.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let out = dd(&["snapshots", bare.to_str().unwrap()]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no snapshot store"),
        "{}",
        stderr(&out)
    );
}
