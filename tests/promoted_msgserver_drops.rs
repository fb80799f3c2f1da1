//! Promoted replay fixture for `msgserver-drops` — generated by
//! `dd promote --emit-test`; regenerate rather than editing by hand.
//!
//! The fixture seals 454 scheduling decisions with per-decision
//! state digests. Replaying it must reproduce every digest and the final
//! state digest (0x3d85d3c6b20b176e); any divergence names the first
//! differing decision.

use dd_cli::workload_by_name;
use debug_determinism::core::Session;
use debug_determinism::trace::JsonlTrace;

const FIXTURE: &str = include_str!("fixtures/promoted_msgserver_drops.jsonl");

#[test]
fn fixture_parses_and_is_sealed() {
    let trace = JsonlTrace::parse(FIXTURE).expect("committed fixture parses");
    assert_eq!(trace.header.workload, "msgserver-drops");
    assert_eq!(trace.footer.decisions, 454);
}

#[test]
fn fixture_replays_without_divergence() {
    let trace = JsonlTrace::parse(FIXTURE).expect("committed fixture parses");
    let workload = workload_by_name(&trace.header.workload).expect("workload registered");
    let report = Session::new(workload).replay(&trace);
    assert!(
        report.identical(),
        "replay diverged: {:?}",
        report.divergence
    );
    assert_eq!(report.replayed_decisions, trace.footer.decisions);
}
