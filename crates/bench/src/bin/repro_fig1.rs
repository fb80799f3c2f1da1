//! Regenerates Fig. 1: the relaxation trend across the workload suite.
//!
//! Usage: `cargo run --release --bin repro-fig1 [-- --json]`

use dd_bench::{emit_bench, fig1, render_fig1};
use dd_core::InferenceBudget;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let budget = InferenceBudget::executions(64);
    let points = fig1(&budget);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&points).expect("serialise fig1")
        );
    } else {
        print!("{}", render_fig1(&points));
        emit_bench("fig1", &points);
    }
}
