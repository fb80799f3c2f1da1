//! Regenerates Fig. 2: the Hypertable issue-63 case study.
//!
//! Usage: `cargo run --release --bin repro-fig2 [-- --json]`

use dd_bench::{emit_bench, fig2, render_fig2};
use dd_core::InferenceBudget;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let budget = InferenceBudget::executions(96);
    let result = fig2(&budget);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serialise fig2")
        );
    } else {
        print!("{}", render_fig2(&result));
        emit_bench("fig2", &result.rows);
    }
}
