//! # dd-bench — the experiment harness
//!
//! Regenerates every figure in the paper's evaluation, plus the ablations
//! DESIGN.md calls out:
//!
//! - [`fig1()`](fig1::fig1): the relaxation trend (Fig. 1) — recording overhead vs
//!   debugging utility for every determinism model across the workload
//!   suite.
//! - [`fig2()`](fig2::fig2): the Hypertable issue-63 case study (Fig. 2) — recording
//!   overhead and debugging fidelity for value determinism, failure
//!   determinism and RCSE, plus the in-text §4 numbers (n = 3 root causes,
//!   DF = 1/3).
//! - [`ablations`]: classifier-threshold sweep, trigger quiet-window sweep,
//!   inference-budget sweep, invariant-training sweep.
//!
//! Binaries `repro-fig1`, `repro-fig2` and `repro-ablations` print the
//! series. The host wall-clock cost of recording and replay is measured by
//! `perfbench/` (`model.<kind>.record_ms`, `model.<kind>.replay_ms`,
//! `trace.overhead_pct`).

pub mod ablations;
pub mod emit;
pub mod fig1;
pub mod fig2;
pub mod snapshot_cost;
pub mod snapshot_store;

pub use ablations::{
    budget_sweep, checkpoint_sweep, fault_sweep, fidelity_sweep, invariant_sweep, scale_sweep,
    scaling_sweep, strategy_sweep, task_scale_sweep, threshold_sweep, window_sweep, BudgetPoint,
    CheckpointPoint, FaultPoint, FidelityPoint, InvariantPoint, ScalePoint, ScalingPoint,
    StrategyPoint, TaskScalePoint, ThresholdPoint, WindowPoint,
    THREAD_ENGINE_DEEP_MSGSERVER_WALL_MS,
};
pub use emit::{emit_bench, write_bench_json};
pub use fig1::{fig1, render_fig1, Fig1Point};
pub use fig2::{fig2, render_fig2, Fig2Result, Fig2Row};
pub use snapshot_cost::{deep_msgserver_point, snapshot_cost_sweep, SnapshotCostPoint};
pub use snapshot_store::{snapshot_store_sweep, SnapshotStorePoint};
