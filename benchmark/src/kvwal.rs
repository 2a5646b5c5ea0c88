//! The `kv` and `wal` workloads: streaming server points, one runner
//! worker.
//!
//! Each point follows `bbb_runner::execute_spec`'s public sequence
//! (`make_stream` → `System::new` → `OpStream::setup` →
//! `sync_media_from_arch` → `run_stream` → `drain_all_store_buffers` →
//! `stats`). The timed reps add two clock reads per point to split set-up
//! from the run phase; the traced rep puts a span on every call and times
//! each `next_op` through [`TimedStream`].

use bbb_core::{ByteStore, Op, OpStream, PersistencyMode, System};
use bbb_runner::{paper_config, ExperimentSpec, RunResult, Runner, Scale};
use bbb_workloads::{make_stream, verify_recovery_report, WorkloadKind};

use crate::clock::{now, secs_since, CallTimer, Tracer};
use crate::metrics::{Checks, Metric, RunReport};
use crate::sim::{self, SimPoint, MODES};
use crate::{
    end_to_end_report, host_threads, per_layer_report, timed_reps, traced_common, unattributed,
    Baseline, RepSample, RunOpts, Size, Workload,
};

/// The `kv` binary's mixes, in its table order.
const MIXES: [WorkloadKind; 3] = [WorkloadKind::KvA, WorkloadKind::KvB, WorkloadKind::KvC];

/// The points of `workload` (kv or wal): `(mix index, spec)` pairs, with
/// `seed` in place of `PAPER_SEED`.
#[must_use]
pub fn specs(workload: Workload, size: Size, seed: u64) -> Vec<(usize, ExperimentSpec)> {
    let (kinds, scale): (&[WorkloadKind], Scale) = match (workload, size) {
        (Workload::Kv, Size::Full) => (
            &MIXES,
            Scale {
                initial: 1_000_000,
                per_core_ops: 2_000,
            },
        ),
        (Workload::Kv, Size::Tiny) => (
            &MIXES,
            Scale {
                initial: 4_000,
                per_core_ops: 40,
            },
        ),
        // A 20 000-append run makes the WAL run-loop bound: set-up is a
        // few ms against ≈1.25 s in `run_stream` per rep.
        (Workload::Wal, Size::Full) => (
            &[WorkloadKind::Wal],
            Scale {
                initial: 8_192,
                per_core_ops: 20_000,
            },
        ),
        (Workload::Wal, Size::Tiny) => (
            &[WorkloadKind::Wal],
            Scale {
                initial: 512,
                per_core_ops: 80,
            },
        ),
        _ => unreachable!("kvwal serves only kv and wal"),
    };
    let cfg = paper_config(scale);
    let mut out = Vec::new();
    for (mix, &kind) in kinds.iter().enumerate() {
        for mode in MODES {
            let mut spec = ExperimentSpec::new(kind, mode, &cfg, scale);
            spec.params.seed = seed;
            out.push((mix, spec));
        }
    }
    out
}

/// One point of a timed rep.
struct Point {
    result: RunResult,
    setup_s: f64,
    run_s: f64,
    /// The final crash image's recovery verdict.
    verdict: Result<(), String>,
    /// Seconds spent imaging and checking it.
    check_s: f64,
}

/// `execute_spec`, with the set-up/run split timed, then the final crash
/// image checked by the workload's recovery oracle.
fn execute_point(spec: &ExperimentSpec) -> Point {
    let t0 = now();
    let mut stream = make_stream(spec.workload, &spec.cfg, spec.params, spec.epoch_barriers)
        .expect("kv and wal are stream workloads");
    let mut sys = System::new(spec.cfg.clone(), spec.mode).expect("valid config");
    sys.prepare_stream(stream.as_mut());
    let setup_s = secs_since(t0);
    let t1 = now();
    let summary = sys.run_stream(stream.as_mut(), spec.op_budget);
    if spec.op_budget == u64::MAX {
        sys.drain_all_store_buffers();
    }
    let result = RunResult {
        summary,
        stats: sys.stats(),
    };
    let run_s = secs_since(t1);
    let t2 = now();
    let verdict = {
        let image = sys.crash_image(true);
        let report = verify_recovery_report(spec.workload, &image, &spec.cfg, spec.params);
        report.failure.map_or(Ok(()), Err)
    };
    Point {
        result,
        setup_s,
        run_s,
        verdict,
        check_s: secs_since(t2),
    }
}

/// One rep of every point on one worker, its final images checked.
fn rep(specs: &[ExperimentSpec], checks: &mut Checks) -> (Vec<Point>, f64) {
    let t = now();
    let points = Runner::with_threads(1).map(specs, execute_point);
    let wall_s = secs_since(t);
    for (spec, p) in specs.iter().zip(&points) {
        checks.check(p.verdict.is_ok(), || {
            format!(
                "{}: final image fails recovery: {:?}",
                spec.label, p.verdict
            )
        });
    }
    (points, wall_s)
}

/// The warm-up: every point once, with every check. Returns the results,
/// the checks and ratios, and the seconds the final-image checks took.
fn warm_up(specs: &[(usize, ExperimentSpec)]) -> Result<(Vec<RunResult>, Baseline, f64), String> {
    let just_specs: Vec<ExperimentSpec> = specs.iter().map(|(_, s)| s.clone()).collect();
    let mut base = Baseline::default();
    let (points, _) = rep(&just_specs, &mut base.checks);
    for (spec, p) in just_specs.iter().zip(&points) {
        if matches!(
            spec.mode,
            PersistencyMode::Eadr
                | PersistencyMode::BbbMemorySide
                | PersistencyMode::BbbProcessorSide
        ) {
            let s = &p.result.stats;
            base.checks.check(s.get("cores.fences") == 0, || {
                format!("{}: battery mode issued fences", spec.label)
            });
            base.checks.check(s.get("persist.latency.p999") == 0, || {
                format!(
                    "{}: battery mode has non-zero p999 persist latency",
                    spec.label
                )
            });
        }
    }
    let recovery_s: f64 = points.iter().map(|p| p.check_s).sum();
    let results: Vec<RunResult> = points.into_iter().map(|p| p.result).collect();
    base.metrics = sim::ratios(&sim_points(specs, &results))?;
    Ok((results, base, recovery_s))
}

fn sim_points(specs: &[(usize, ExperimentSpec)], results: &[RunResult]) -> Vec<SimPoint> {
    specs
        .iter()
        .zip(results)
        .map(|((mix, spec), r)| SimPoint {
            mix: *mix,
            mode: spec.mode,
            result: r.clone(),
        })
        .collect()
}

/// An [`OpStream`] that times every `next_op` of the stream it wraps.
pub struct TimedStream<'a> {
    inner: &'a mut dyn OpStream,
    calls: &'a mut CallTimer,
}

impl OpStream for TimedStream<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.inner.setup(arch);
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        let inner = &mut self.inner;
        self.calls.time(|| inner.next_op(core, arch))
    }
}

/// Per-layer tallies the traced rep keeps beside its spans.
#[derive(Default)]
struct Tally {
    next_op: CallTimer,
    arch_pages: u64,
    ops: u64,
}

/// One point of the traced rep, with a span around every call.
fn traced_point(tr: &mut Tracer, i: usize, spec: &ExperimentSpec, tally: &mut Tally) -> RunResult {
    tr.point_span("point", Some(i), |tr| {
        let mut stream = tr.span("workloads.build", |_| {
            make_stream(spec.workload, &spec.cfg, spec.params, spec.epoch_barriers)
                .expect("kv and wal are stream workloads")
        });
        let mut sys = tr.span("core.new", |_| {
            System::new(spec.cfg.clone(), spec.mode).expect("valid config")
        });
        tr.span("workloads.setup", |_| stream.setup(sys.arch_mem_mut()));
        tr.span("core.sync_media", |_| sys.sync_media_from_arch());
        tally.arch_pages += sys.arch_mem().iter_pages().count() as u64;
        let summary = tr.span("core.run", |_| {
            let mut timed = TimedStream {
                inner: stream.as_mut(),
                calls: &mut tally.next_op,
            };
            sys.run_stream(&mut timed, spec.op_budget)
        });
        tally.ops += summary.ops;
        if spec.op_budget == u64::MAX {
            tr.span("core.drain", |_| sys.drain_all_store_buffers());
        }
        let stats = tr.span("core.stats", |_| sys.stats());
        tr.span("core.drop", |_| drop((sys, stream)));
        RunResult { summary, stats }
    })
}

/// Fails unless two runs of the same specs agree bit for bit.
fn guard(what: &str, expected: &[RunResult], got: &[RunResult]) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "fidelity guard: {what} differs from Runner::run on the same specs"
        ))
    }
}

/// Runs kv or wal, timed or traced.
pub(crate) fn run(opts: &RunOpts) -> Result<(RunReport, Option<Tracer>), String> {
    let specs = specs(opts.workload, opts.size, opts.seed);
    let just_specs: Vec<ExperimentSpec> = specs.iter().map(|(_, s)| s.clone()).collect();
    let (baseline_results, mut base, recovery_s) = warm_up(&specs)?;

    if !opts.trace {
        let reps = timed_reps(opts, || {
            let (points, wall_s) = rep(&just_specs, &mut base.checks);
            let same = points
                .iter()
                .zip(&baseline_results)
                .all(|(p, r)| p.result == *r);
            base.checks.check(same, || {
                "a timed rep's results differ from the warm-up's".to_owned()
            });
            let ops: u64 = points.iter().map(|p| p.result.summary.ops).sum();
            let run_s: f64 = points.iter().map(|p| p.run_s).sum();
            let check_s: f64 = points.iter().map(|p| p.check_s).sum();
            RepSample {
                // The checks are the benchmark's, not the workload's.
                wall_s: wall_s - check_s,
                setup_s: points.iter().map(|p| p.setup_s).sum(),
                sim_ops_per_s: ops as f64 / run_s,
                // kv and wal sweep no crash points: this rate is the final-image
                // checks above, the repository's oracle timed on 15 (kv) or 5
                // (wal) images.
                crash_points_per_s: points.len() as f64 / check_s,
            }
        });
        return Ok((end_to_end_report(opts, &reps, base)?, None));
    }

    let t = now();
    let reference = Runner::with_threads(1).run(&just_specs);
    let serial_s = secs_since(t);
    guard("the warm-up", &reference, &baseline_results)?;

    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let traced: Vec<RunResult> = tr.span("rep", |tr| {
        just_specs
            .iter()
            .enumerate()
            .map(|(i, s)| traced_point(tr, i, s, &mut tally))
            .collect()
    });
    guard("the traced replay", &reference, &traced)?;

    let t = now();
    let parallel = Runner::with_threads(host_threads()).run(&just_specs);
    let parallel_s = secs_since(t);
    guard("the parallel run", &reference, &parallel)?;

    let run_s = tr.total_s("core.run");
    let gen_s = tally.next_op.total_s();
    let run_self_s = run_s - gen_s;
    let mut metrics = vec![Metric::one("workloads.recovery_s", "s", recovery_s)];
    for (name, span) in [
        ("workloads.build_s", "workloads.build"),
        ("workloads.setup_s", "workloads.setup"),
        ("core.new_s", "core.new"),
        ("core.sync_media_s", "core.sync_media"),
        ("core.drain_s", "core.drain"),
        ("core.stats_s", "core.stats"),
        ("core.drop_s", "core.drop"),
    ] {
        metrics.push(Metric::one(name, "s", tr.total_s(span)));
    }
    metrics.extend([
        Metric::one("workloads.arch_pages", "pages", tally.arch_pages as f64),
        Metric::one(
            "workloads.next_op_ns.p50",
            "ns",
            tally.next_op.percentile_ns(500),
        ),
        Metric::one(
            "workloads.next_op_ns.p99",
            "ns",
            tally.next_op.percentile_ns(990),
        ),
        Metric::one("workloads.gen_share", "ratio", gen_s / run_s),
        Metric::one("core.run_self_s", "s", run_self_s),
        Metric::one(
            "core.ns_per_op",
            "ns",
            run_self_s * 1e9 / tally.ops.max(1) as f64,
        ),
        unattributed(&tr, "point", 0.0),
    ]);
    metrics.extend(traced_common(tr.total_s("rep"), serial_s, parallel_s));
    metrics.extend(sim::per_mode(&sim_points(&specs, &reference)));
    Ok((per_layer_report(opts, metrics, base.checks), Some(tr)))
}
