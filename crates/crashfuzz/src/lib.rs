//! # bbb-crashfuzz — crash-point sweep harness
//!
//! The paper's central claim is a *correctness* claim: with battery-backed
//! buffers next to each L1D, the point of visibility equals the point of
//! persistency, so unmodified lock-free code recovers from a power failure
//! at **any** cycle. One hand-picked crash point per test cannot carry
//! that claim; this crate sweeps crashes across entire executions.
//!
//! Every crash loop in the workspace runs on one engine,
//! [`engine::CrashSweep`]: this crate's sweep, the litmus-schedule sweeps
//! in [`conform`], and through them `bbb-check`'s conformance and litmus
//! tables. Pipeline, per `(workload, mode)` pair:
//!
//! 1. [`sweep::reference_run`] replays the (deterministic) execution op by
//!    op, recording its length and the cycles of ordering events —
//!    epoch barriers, forced bbPB drains, WPQ backpressure stalls.
//! 2. [`grid::plan_points`] turns that into a crash plan: a dense stride,
//!    SplitMix64-seeded random points, and boundary points straddling
//!    every event (`e-1`, `e`, `e+1`).
//! 3. [`sweep::plan_shards`] splits the plan into contiguous chunks;
//!    [`sweep::sweep_shard`] replays the run once per shard, pausing at
//!    each planned cycle to take the engine's non-destructive crash image
//!    (zero machine clones) and verify it with the workload's structure
//!    checker; [`sweep::merge_shards`] folds shard outcomes back in plan
//!    order. [`sweep::sweep`] is the serial single-shard composition.
//! 4. Differential negative oracles keep the checkers honest: a
//!    battery-dropped crash of a battery-backed mode, PMEM without
//!    flushes, and BEP without barriers must each exhibit lost-update
//!    signatures — a sweep that cannot catch a machine *designed* to lose
//!    data proves nothing about one designed not to.
//! 5. On failure, [`shrink::shrink`] halves the workload and walks back
//!    to the minimal failing cycle, emitting a ready-to-paste `#[test]`
//!    regression reproducer.
//!
//! The `crashfuzz` binary sweeps every pair in parallel on the
//! experiment-runner worker pool (`bbb_runner::Runner::map`) and reports
//! through the shared ASCII/JSON report layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conform;
pub mod engine;
pub mod grid;
pub mod shrink;
pub mod sweep;

pub use conform::{schedule_images, visit_prefix_images, visit_schedule_images};
pub use engine::{CrashSweep, Point, Reference, SweepPerf};
pub use grid::{plan_points, GridSpec, CRASHFUZZ_SEED};
pub use shrink::{shrink, test_source, Reproducer};
pub use sweep::{
    first_failure_at, lost_updates_observable, merge_shards, plan_shards, reference_run, sweep,
    sweep_shard, CrashFailure, ShardOutcome, SweepConfig, SweepOutcome, SweepShard,
};
