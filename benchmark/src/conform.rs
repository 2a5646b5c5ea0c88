//! The `conform` workload: `bbb-check conform --full`.
//!
//! 1152 generated litmus shapes, each evaluated by the axiomatic model
//! under every mode and crash-swept on the simulator two ways
//! (`run_shape_conform`). It is an enumeration: the seed changes nothing.
//! The traced rep times `run_shape_conform` per shape, and beside it the
//! two parts it is made of that are public — `evaluate` per mode and
//! `schedule_images` per swept schedule — so the model's share of a shape
//! can be measured from outside.

use bbb_check::conform::{conform_config, conform_grid, GEN_OFFSETS, MAX_SCHEDULES};
use bbb_check::enumerate::{generate_suite, interleavings, GenBounds};
use bbb_check::{evaluate, run_shape_conform, Prog, ShapeConform};
use bbb_core::{PersistencyMode, RunSummary, System};
use bbb_crashfuzz::schedule_images;
use bbb_runner::{RunResult, Runner};
use bbb_sim::{AddressMap, LatencyHistogram};

use crate::clock::{now, secs_since, Tracer};
use crate::metrics::{Metric, RunReport};
use crate::sim::{self, SimPoint};
use crate::{
    end_to_end_report, host_threads, per_layer_report, timed_reps, traced_common, unattributed,
    Baseline, RepSample, RunOpts, Size,
};

/// The generator bounds.
fn suite(size: Size) -> Vec<GenBounds> {
    match size {
        Size::Full => GenBounds::full_suite(),
        Size::Tiny => vec![GenBounds {
            cores: 2,
            locs: 2,
            max_insts: 2,
            max_shapes: 8,
        }],
    }
}

/// The schedules `run_shape_conform` sweeps: every interleaving, or an
/// even stride of [`MAX_SCHEDULES`] of them.
fn picked_schedules(prog: &Prog) -> Vec<Vec<usize>> {
    let all = interleavings(&prog.lens());
    if all.len() <= MAX_SCHEDULES {
        all
    } else {
        (0..MAX_SCHEDULES)
            .map(|i| all[i * all.len() / MAX_SCHEDULES].clone())
            .collect()
    }
}

/// Compiled ops of every swept schedule of `prog`.
fn compiled(prog: &Prog) -> Vec<Vec<(usize, bbb_core::Op)>> {
    let base = AddressMap::new(&conform_config(prog.num_cores())).persistent_base();
    picked_schedules(prog)
        .iter()
        .map(|s| prog.compile(s, &GEN_OFFSETS, base))
        .collect()
}

/// Simulated ops one shape costs: per mode and schedule, the op-boundary
/// sweep steps every op once and `schedule_images` runs the schedule
/// twice (reference and forward pass).
fn sim_ops(prog: &Prog) -> u64 {
    let per_mode: usize = compiled(prog).iter().map(Vec::len).sum();
    (3 * per_mode * PersistencyMode::ALL.len()) as u64
}

/// What must repeat exactly between two runs over the suite.
fn fingerprint(results: &[ShapeConform]) -> Vec<[usize; 9]> {
    results
        .iter()
        .flat_map(|r| &r.per_mode)
        .map(|m| {
            [
                m.executions,
                m.allowed,
                m.forbidden,
                m.witnessed,
                m.universal,
                m.observed,
                m.covered,
                m.crash_points,
                m.violations.len(),
            ]
        })
        .collect()
}

/// Every shape's first schedule run to completion under each mode: the
/// source of the simulated ratios and per-mode metrics.
fn sim_points(progs: &[Prog]) -> Vec<SimPoint> {
    let mut out = Vec::new();
    for (mix, prog) in progs.iter().enumerate() {
        let cfg = conform_config(prog.num_cores());
        let ops = compiled(prog).swap_remove(0);
        for mode in PersistencyMode::ALL {
            let mut sys = System::new(cfg.clone(), mode).expect("conform config");
            for (core, op) in &ops {
                sys.step_op(*core, op);
            }
            sys.drain_all_store_buffers();
            out.push(SimPoint {
                mix,
                mode,
                result: RunResult {
                    summary: RunSummary {
                        cycles: sys.cycle(),
                        ops: ops.len() as u64,
                        completed: true,
                    },
                    stats: sys.stats(),
                },
            });
        }
    }
    out
}

/// One rep as `bbb-check conform` runs it, on `runner`.
fn conform_rep(size: Size, runner: Runner) -> (Vec<Prog>, Vec<ShapeConform>, f64, f64) {
    let t0 = now();
    let progs = generate_suite(&suite(size));
    let generate_s = secs_since(t0);
    let t1 = now();
    let results = runner.map(&progs, run_shape_conform);
    (progs, results, generate_s, secs_since(t1))
}

/// Histogram of span durations, read at `permille` rank in ns.
fn span_percentile_ns(tr: &Tracer, name: &str, permille: u32) -> f64 {
    let mut h = LatencyHistogram::new();
    for ns in tr.durations_ns(name) {
        h.record(ns);
    }
    h.percentile_permille(permille) as f64
}

/// Runs conform, timed or traced.
pub(crate) fn run(opts: &RunOpts) -> Result<(RunReport, Option<Tracer>), String> {
    let serial = Runner::with_threads(1);
    let (progs, warm, _, _) = conform_rep(opts.size, serial);
    let mut base = Baseline::default();
    for r in &warm {
        for m in &r.per_mode {
            base.checks.check(
                m.violations.is_empty() && m.witnessed == m.forbidden,
                || {
                    format!(
                        "{} under {:?}: {} violations, {} of {} forbidden witnessed",
                        r.shape,
                        m.mode,
                        m.violations.len(),
                        m.witnessed,
                        m.forbidden
                    )
                },
            );
        }
    }
    let expected = fingerprint(&warm);
    let points = sim_points(&progs);
    let suite_ops: u64 = progs.iter().map(sim_ops).sum();
    let images: usize = warm
        .iter()
        .flat_map(|r| &r.per_mode)
        .map(|m| m.crash_points)
        .sum();

    if !opts.trace {
        base.metrics = sim::ratios(&points)?;
        let reps = timed_reps(opts, || {
            let t = now();
            let (_, results, generate_s, sweep_s) = conform_rep(opts.size, serial);
            let wall_s = secs_since(t);
            base.checks.check(fingerprint(&results) == expected, || {
                "a timed rep's conformance cells differ from the warm-up's".to_owned()
            });
            // Both rates divide a fixed count by the same `sweep_s`: one
            // measurement, reported in two units.
            RepSample {
                wall_s,
                setup_s: generate_s,
                sim_ops_per_s: suite_ops as f64 / sweep_s,
                crash_points_per_s: images as f64 / sweep_s,
            }
        });
        return Ok((end_to_end_report(opts, &reps, base)?, None));
    }

    let t = now();
    let (_, reference, _, _) = conform_rep(opts.size, serial);
    let serial_s = secs_since(t);
    if fingerprint(&reference) != expected {
        return Err("fidelity guard: two serial conform runs differ".to_owned());
    }

    let mut tr = Tracer::new();
    let grid = conform_grid();
    let traced: Vec<ShapeConform> = tr.span("rep", |tr| {
        let progs = tr.span("check.generate", |_| generate_suite(&suite(opts.size)));
        progs
            .iter()
            .enumerate()
            .map(|(i, prog)| {
                tr.point_span("check.point", Some(i), |tr| {
                    let r = tr.span("check.shape", |_| run_shape_conform(prog));
                    for mode in PersistencyMode::ALL {
                        tr.span("check.evaluate", |_| evaluate(prog, mode));
                    }
                    let cfg = conform_config(prog.num_cores());
                    let schedules = compiled(prog);
                    for mode in PersistencyMode::ALL {
                        for ops in &schedules {
                            tr.span("check.schedule_images", |_| {
                                schedule_images(&cfg, mode, ops, &grid)
                            });
                        }
                    }
                    r
                })
            })
            .collect()
    });
    if fingerprint(&traced) != expected {
        return Err("fidelity guard: the traced rep's cells differ from run_suite's".to_owned());
    }

    let t = now();
    let (_, parallel, _, _) = conform_rep(opts.size, Runner::with_threads(host_threads()));
    let parallel_s = secs_since(t);
    if fingerprint(&parallel) != expected {
        return Err("fidelity guard: the parallel conform run differs".to_owned());
    }

    let executions: usize = warm
        .iter()
        .flat_map(|r| &r.per_mode)
        .map(|m| m.executions)
        .sum();
    let shape_s = tr.total_s("check.shape");
    // Only the program's own calls count towards tracing overhead: the
    // separately timed `evaluate`/`schedule_images` are extra work.
    let traced_s = tr.total_s("check.generate") + shape_s;
    let mut metrics = vec![
        Metric::one("check.generate_s", "s", tr.total_s("check.generate")),
        Metric::one(
            "check.evaluate_us.p50",
            "us",
            span_percentile_ns(&tr, "check.evaluate", 500) * 1e-3,
        ),
        Metric::one(
            "check.evaluate_us.p99",
            "us",
            span_percentile_ns(&tr, "check.evaluate", 990) * 1e-3,
        ),
        Metric::one(
            "check.model_share",
            "ratio",
            tr.total_s("check.evaluate") / shape_s,
        ),
        Metric::one("check.executions", "count", executions as f64),
        Metric::one(
            "check.schedule_images_ms.p50",
            "ms",
            span_percentile_ns(&tr, "check.schedule_images", 500) * 1e-6,
        ),
        Metric::one(
            "check.shape_ms.p50",
            "ms",
            span_percentile_ns(&tr, "check.shape", 500) * 1e-6,
        ),
        Metric::one(
            "check.shape_ms.p99",
            "ms",
            span_percentile_ns(&tr, "check.shape", 990) * 1e-6,
        ),
        unattributed(&tr, "check.point", 0.0),
    ];
    metrics.extend(traced_common(traced_s, serial_s, parallel_s));
    metrics.extend(sim::per_mode(&points));
    Ok((per_layer_report(opts, metrics, base.checks), Some(tr)))
}
