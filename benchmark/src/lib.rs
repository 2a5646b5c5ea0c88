//! `bbb-perf`: the host-time benchmark of the BBB simulator.
//!
//! Four workloads, each run single-process with the load coming from one
//! runner worker: an untimed warm-up rep (which also runs the correctness
//! checks), then the workload's fixed number of timed reps. Host-time
//! metrics are medians over reps. The traced run (`--trace`) instead replays one rep with a
//! span around every public call into a layer and reports the per-layer
//! metrics; see `README.md` for the metric → layer table.
//!
//! Every layer is measured from outside, by timing calls into the
//! repository's public functions: nothing in the program under test is
//! instrumented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod compare;
pub mod conform;
pub mod crash;
pub mod kvwal;
pub mod metrics;
pub mod micro;
pub mod sim;
pub mod summary;

use std::num::NonZeroUsize;

use crate::clock::{peak_rss_mb, Tracer};
use crate::metrics::{per_layer, Checks, Metric, RunReport};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `kv` binary's 15 points: million-key YCSB A/B/C × 5 modes.
    Kv,
    /// The WAL × 5 modes at 20 000 appends per core.
    Wal,
    /// The non-smoke `crashfuzz` grid: 41 Table IV pairs.
    Crash,
    /// `bbb-check conform --full`: 1152 litmus shapes × 5 modes.
    Conform,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Kv,
        Workload::Wal,
        Workload::Crash,
        Workload::Conform,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kv => "kv",
            Workload::Wal => "wal",
            Workload::Crash => "crash",
            Workload::Conform => "conform",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed reps R of a full-size run: about 15 s of measurement on a
    /// 2-vCPU host, so that the whole run, warm-up and checks included,
    /// stays under 30 s even when neighbours slow the host by a third.
    /// kv's reps are the longest (≈3 s, plus ≈1.2 s of final-image checks
    /// each).
    fn reps(self) -> usize {
        match self {
            Workload::Kv => 3,
            Workload::Wal => 15,
            Workload::Crash => 5,
            Workload::Conform => 30,
        }
    }
}

/// Input size: the benchmark's, or a tiny one that exercises every code
/// path in well under a second (tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Tiny inputs for tests.
    Tiny,
}

/// What one `bbb-perf run` measures.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed (replaces `PAPER_SEED`, the crashfuzz workload seed and
    /// its grid seed; `conform` is an enumeration and ignores it).
    pub seed: u64,
    /// The traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

impl RunOpts {
    fn reps(&self) -> usize {
        match self.size {
            Size::Full => self.workload.reps(),
            Size::Tiny => 2,
        }
    }
}

/// One timed rep's end-to-end samples.
#[derive(Debug, Clone, Copy)]
pub struct RepSample {
    /// Host seconds for the whole rep.
    pub wall_s: f64,
    /// Host seconds of set-up inside the rep.
    pub setup_s: f64,
    /// Committed simulated ops per host second of the run phase.
    pub sim_ops_per_s: f64,
    /// Crash images examined per host second of examining them.
    pub crash_points_per_s: f64,
}

/// The correctness checks' verdicts, plus the simulated ratios the warm-up
/// measured (the timed reps must reproduce them exactly).
#[derive(Debug, Default)]
pub struct Baseline {
    /// Check outcomes (warm-up, plus one determinism check per rep).
    pub checks: Checks,
    /// Metrics measured once per run: the simulated ratios.
    pub metrics: Vec<Metric>,
}

/// Runs the workload's fixed number of timed reps.
fn timed_reps(opts: &RunOpts, rep: impl FnMut() -> RepSample) -> Vec<RepSample> {
    std::iter::repeat_with(rep).take(opts.reps()).collect()
}

/// Assembles an untimed run's end-to-end metrics.
fn end_to_end_report(
    opts: &RunOpts,
    reps: &[RepSample],
    baseline: Baseline,
) -> Result<RunReport, String> {
    let col = |f: fn(&RepSample) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let mut metrics = vec![
        Metric::reps("wall_s", "s", col(|r| r.wall_s)),
        Metric::reps("setup_s", "s", col(|r| r.setup_s)),
        Metric::reps("sim_ops_per_s", "ops/s", col(|r| r.sim_ops_per_s)),
        Metric::reps(
            "crash_points_per_s",
            "points/s",
            col(|r| r.crash_points_per_s),
        ),
        Metric::one("peak_rss_mb", "MiB", peak_rss_mb()?),
    ];
    metrics.extend(baseline.metrics);
    Ok(report(opts, reps.len(), metrics, baseline.checks))
}

/// Completes a traced run's metrics: every catalogue metric the workload
/// does not exercise reads 0.
fn per_layer_report(opts: &RunOpts, mut metrics: Vec<Metric>, checks: Checks) -> RunReport {
    for d in per_layer() {
        if !metrics.iter().any(|m| m.name == d.name) {
            metrics.push(Metric::one(&d.name, d.unit, 0.0));
        }
    }
    report(opts, 1, metrics, checks)
}

fn report(opts: &RunOpts, reps: usize, metrics: Vec<Metric>, checks: Checks) -> RunReport {
    RunReport {
        workload: opts.workload.name().to_owned(),
        seed: opts.seed,
        trace: opts.trace,
        reps,
        metrics,
        checks,
    }
}

/// Host threads available, for the parallel-efficiency diagnostic.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The traced run's shared diagnostics: tracing overhead against an
/// untraced rep, runner speedup at every host thread, the microbenches.
fn traced_common(traced_s: f64, serial_s: f64, parallel_s: f64) -> Vec<Metric> {
    let speedup = serial_s / parallel_s;
    let mut out = vec![
        Metric::one("trace.overhead_frac", "ratio", traced_s / serial_s - 1.0),
        Metric::one("runner.speedup", "x", speedup),
        Metric::one(
            "runner.parallel_eff",
            "ratio",
            speedup / host_threads() as f64,
        ),
    ];
    out.extend(micro::run());
    out
}

/// Unattributed share: time inside `span` spans that neither a child span
/// nor `timed_s` of per-call timers covers.
fn unattributed(tr: &Tracer, span: &str, timed_s: f64) -> Metric {
    let total = tr.total_s(span);
    let share = if total > 0.0 {
        (tr.self_s(span) - timed_s) / total
    } else {
        0.0
    };
    Metric::one("unattributed", "ratio", share)
}

/// Runs one workload: the timed run, or the traced one.
///
/// # Errors
///
/// Fails when a measurement or a fidelity guard cannot be completed: the
/// traced replay disagreeing with the program, or the host lacking what a
/// metric needs.
pub fn run(opts: &RunOpts) -> Result<(RunReport, Option<Tracer>), String> {
    match opts.workload {
        Workload::Kv | Workload::Wal => kvwal::run(opts),
        Workload::Crash => crash::run(opts),
        Workload::Conform => conform::run(opts),
    }
}
