//! The `crash` workload: the non-smoke `crashfuzz` grid.
//!
//! 41 sweep configurations (every Table IV workload under every mode's
//! paper discipline, plus the lossy PMEM/BEP oracles where lost updates
//! are observable), each planned by `plan_shards` (a reference run) and
//! swept by `sweep_shard` (a batch-fed forward run stopped at every crash
//! point for a non-destructive `crash_image` and a recovery oracle). The
//! traced rep replays each shard call by call and must reproduce
//! `sweep_shard`'s points and snapshot counts exactly.

use bbb_core::{PersistencyMode, RunCursor, StopAt, System, Workload as _};
use bbb_crashfuzz::{
    lost_updates_observable, merge_shards, plan_shards, sweep_shard, GridSpec, ShardOutcome,
    SweepConfig, SweepOutcome, SweepPerf, SweepShard,
};
use bbb_runner::{ExperimentSpec, RunResult, Runner, Scale};
use bbb_sim::SimConfig;
use bbb_workloads::suite::with_epoch_barriers;
use bbb_workloads::{
    make_workload, verify_recovery_report, RecoveryReport, WorkloadKind, WorkloadParams,
};

use crate::clock::{now, secs_since, CallTimer, Tracer};
use crate::metrics::{Metric, RunReport};
use crate::sim::{self, SimPoint};
use crate::{
    end_to_end_report, host_threads, per_layer_report, timed_reps, traced_common, unattributed,
    Baseline, RepSample, RunOpts, Size,
};

/// The sweep configurations, in `crashfuzz`'s order.
#[must_use]
pub fn configs(size: Size, seed: u64) -> Vec<SweepConfig> {
    let cfg = SimConfig::default();
    let (kinds, initial, per_core_ops, grid): (&[WorkloadKind], u64, u64, GridSpec) = match size {
        Size::Full => (
            &WorkloadKind::ALL,
            2048,
            256,
            GridSpec::bounded(512, 128, seed),
        ),
        Size::Tiny => (
            &[WorkloadKind::Hashmap, WorkloadKind::SwapC],
            256,
            64,
            GridSpec::bounded(24, 8, seed),
        ),
    };
    let params = WorkloadParams {
        initial,
        per_core_ops,
        seed,
        instrument: false,
    };
    let mut out = Vec::new();
    for &kind in kinds {
        for mode in PersistencyMode::ALL {
            out.push(SweepConfig::paper_discipline(
                kind, mode, &cfg, params, grid,
            ));
        }
        if lost_updates_observable(kind) {
            for mode in [PersistencyMode::Pmem, PersistencyMode::Bep] {
                out.push(SweepConfig::lossy(kind, mode, &cfg, params, grid));
            }
        }
    }
    out
}

/// One full sweep, as `crashfuzz` runs it, on `runner`.
struct Sweep {
    shards: Vec<Vec<SweepShard>>,
    partials: Vec<ShardOutcome>,
    outcomes: Vec<SweepOutcome>,
    plan_s: f64,
    sweep_s: f64,
}

fn sweep(configs: &[SweepConfig], runner: Runner) -> Sweep {
    let t0 = now();
    let shards: Vec<Vec<SweepShard>> = runner.map(configs, |c| plan_shards(c, runner.threads()));
    let plan_s = secs_since(t0);
    let t1 = now();
    let flat: Vec<SweepShard> = shards.iter().flatten().cloned().collect();
    let partials = runner.map(&flat, sweep_shard);
    let mut rest = partials.iter();
    let outcomes = configs
        .iter()
        .zip(&shards)
        .map(|(c, set)| {
            let parts: Vec<ShardOutcome> = rest.by_ref().take(set.len()).cloned().collect();
            merge_shards(c, &parts)
        })
        .collect();
    Sweep {
        shards,
        partials,
        outcomes,
        plan_s,
        sweep_s: secs_since(t1),
    }
}

/// Each pair's verdict: points, failures, negative points and signatures.
fn verdicts(outcomes: &[SweepOutcome]) -> Vec<[usize; 4]> {
    outcomes
        .iter()
        .map(|o| {
            [
                o.points,
                o.failures.len(),
                o.negative_points,
                o.negative_signatures,
            ]
        })
        .collect()
}

/// What must repeat exactly between two equally sharded sweeps: the
/// verdicts and every snapshot counter.
fn fingerprint(outcomes: &[SweepOutcome]) -> (Vec<[usize; 4]>, Vec<SweepPerf>) {
    (
        verdicts(outcomes),
        outcomes.iter().map(|o| o.perf).collect(),
    )
}

/// Input seeds the simulated ratios are averaged over: the swept seed and
/// `RATIO_SEEDS - 1` more derived from it. One input runs only 256 ops a
/// core, so its cycle ratios move by up to 7 % between seeds; over eight
/// inputs they move by about 2 %.
const RATIO_SEEDS: u64 = 8;

fn ratio_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..RATIO_SEEDS).map(move |k| seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The paper-discipline pairs of the grid on each of `seeds`, run to
/// completion as [`ExperimentSpec`]s: the source of the simulated ratios
/// and per-mode metrics. The lossy oracles lose data on purpose and are
/// left out.
fn sim_points(size: Size, seeds: impl Iterator<Item = u64>) -> Vec<SimPoint> {
    let mut specs = Vec::new();
    let mut groups = Vec::new();
    for (k, seed) in seeds.enumerate() {
        for c in configs(size, seed)
            .into_iter()
            .filter(SweepConfig::expects_consistent)
        {
            let scale = Scale {
                initial: c.params.initial,
                per_core_ops: c.params.per_core_ops,
            };
            let mut spec = ExperimentSpec::new(c.workload, c.mode, &c.cfg, scale);
            spec.params = c.params;
            spec.epoch_barriers = c.epoch_barriers;
            specs.push(spec);
            let kind = WorkloadKind::ALL
                .iter()
                .position(|&w| w == c.workload)
                .expect("Table IV workload");
            groups.push((k * WorkloadKind::ALL.len() + kind, c.mode));
        }
    }
    let results: Vec<RunResult> = Runner::with_threads(1).run(&specs);
    groups
        .into_iter()
        .zip(results)
        .map(|((mix, mode), result)| SimPoint { mix, mode, result })
        .collect()
}

/// Runs crash, timed or traced.
pub(crate) fn run(opts: &RunOpts) -> Result<(RunReport, Option<Tracer>), String> {
    let configs = configs(opts.size, opts.seed);
    let serial = Runner::with_threads(1);
    let warm = sweep(&configs, serial);
    let mut base = Baseline::default();
    for o in &warm.outcomes {
        base.checks.check(o.passed(), || {
            format!(
                "{}: {} failures, toothless: {}",
                o.label,
                o.failures.len(),
                o.toothless()
            )
        });
    }
    let expected = fingerprint(&warm.outcomes);

    if !opts.trace {
        base.metrics = sim::ratios(&sim_points(opts.size, ratio_seeds(opts.seed)))?;
        let reps = timed_reps(opts, || {
            let t = now();
            let s = sweep(&configs, serial);
            let wall_s = secs_since(t);
            base.checks.check(fingerprint(&s.outcomes) == expected, || {
                "a timed rep's sweep differs from the warm-up's".to_owned()
            });
            let swept: usize = s.outcomes.iter().map(|o| o.points).sum();
            // One scheduler event per op the swept machines committed.
            let stepped: u64 = s.outcomes.iter().map(|o| o.perf.sched.total_events()).sum();
            // Both rates divide a fixed count by the same `sweep_s`: one
            // measurement, reported in two units.
            RepSample {
                wall_s,
                setup_s: s.plan_s,
                sim_ops_per_s: stepped as f64 / s.sweep_s,
                crash_points_per_s: swept as f64 / s.sweep_s,
            }
        });
        return Ok((end_to_end_report(opts, &reps, base)?, None));
    }

    let t = now();
    let reference = sweep(&configs, serial);
    let serial_s = secs_since(t);
    if fingerprint(&reference.outcomes) != expected {
        return Err("fidelity guard: two serial sweeps of the same grid differ".to_owned());
    }

    let mut tr = Tracer::new();
    let mut calls = Calls::default();
    tr.span("rep", |tr| -> Result<(), String> {
        for (ci, c) in configs.iter().enumerate() {
            let shards = tr.point_span("crashfuzz.plan", Some(ci), |_| plan_shards(c, 1));
            if shards.len() != warm.shards[ci].len() {
                return Err(format!("fidelity guard: {} plans differently", c.label()));
            }
            for (shard, planned) in shards.iter().zip(&warm.shards[ci]) {
                if shard.points != planned.points {
                    return Err(format!("fidelity guard: {} plans differently", c.label()));
                }
            }
        }
        let flat = warm.shards.iter().flatten();
        let owners = warm
            .shards
            .iter()
            .enumerate()
            .flat_map(|(ci, set)| std::iter::repeat_n(ci, set.len()));
        for ((shard, ci), want) in flat.zip(owners).zip(&warm.partials) {
            let got = replay_shard(tr, ci, shard, &mut calls);
            let exact = got.points == want.points
                && got.snapshots == want.perf.snapshots
                && got.reused == want.perf.snapshots_reused;
            if !exact {
                return Err(format!(
                    "fidelity guard: replay of {} saw {got:?}, sweep_shard {} points, \
                     {} snapshots, {} reused",
                    shard.cfg.label(),
                    want.points,
                    want.perf.snapshots,
                    want.perf.snapshots_reused
                ));
            }
        }
        Ok(())
    })?;

    let t = now();
    let parallel = sweep(&configs, Runner::with_threads(host_threads()));
    let parallel_s = secs_since(t);
    // Sharding changes the snapshot counters (each shard keeps its own
    // epoch memo), never the verdicts.
    if verdicts(&parallel.outcomes) != expected.0 {
        return Err("fidelity guard: the parallel sweep differs from the serial one".to_owned());
    }

    let mut perf = SweepPerf::default();
    for o in &warm.outcomes {
        perf.absorb(&o.perf);
    }
    let timed_s = calls.run.total_s()
        + calls.epoch.total_s()
        + calls.image.total_s()
        + calls.recovery.total_s();
    let snapshots = perf.snapshots.max(1) as f64;
    let mut metrics = vec![
        Metric::one("crashfuzz.plan_s", "s", tr.total_s("crashfuzz.plan")),
        Metric::one("crashfuzz.sweep_s", "s", tr.total_s("crashfuzz.shard")),
        Metric::one("workloads.build_s", "s", tr.total_s("workloads.build")),
        Metric::one("workloads.setup_s", "s", tr.total_s("workloads.setup")),
        Metric::one("core.new_s", "s", tr.total_s("core.new")),
        Metric::one("core.sync_media_s", "s", tr.total_s("core.sync_media")),
        Metric::one("workloads.arch_pages", "pages", calls.arch_pages as f64),
        Metric::one("core.run_self_s", "s", calls.run.total_s()),
        Metric::one(
            "core.ns_per_op",
            "ns",
            calls.run.total_ns as f64 / calls.ops.max(1) as f64,
        ),
        Metric::one(
            "core.crash_epoch_ns.p50",
            "ns",
            calls.epoch.percentile_ns(500),
        ),
        Metric::one(
            "core.crash_image_us.p50",
            "us",
            calls.image.percentile_ns(500) * 1e-3,
        ),
        Metric::one(
            "core.crash_image_us.p99",
            "us",
            calls.image.percentile_ns(990) * 1e-3,
        ),
        Metric::one(
            "crashfuzz.recovery_us.p50",
            "us",
            calls.recovery.percentile_ns(500) * 1e-3,
        ),
        Metric::one(
            "crashfuzz.recovery_us.p99",
            "us",
            calls.recovery.percentile_ns(990) * 1e-3,
        ),
        Metric::one("crashfuzz.snapshots", "count", perf.snapshots as f64),
        Metric::one(
            "crashfuzz.snapshots_reused_frac",
            "ratio",
            perf.snapshots_reused as f64 / (perf.snapshots + perf.snapshots_reused).max(1) as f64,
        ),
        Metric::one(
            "crashfuzz.pages_copied_per_snapshot",
            "pages",
            perf.pages_copied as f64 / snapshots,
        ),
        unattributed(&tr, "crashfuzz.shard", timed_s),
    ];
    metrics.extend(traced_common(tr.total_s("rep"), serial_s, parallel_s));
    metrics.extend(sim::per_mode(&sim_points(
        opts.size,
        std::iter::once(opts.seed),
    )));
    Ok((per_layer_report(opts, metrics, base.checks), Some(tr)))
}

/// Per-call timers and tallies of the traced replay.
#[derive(Default)]
struct Calls {
    run: CallTimer,
    epoch: CallTimer,
    image: CallTimer,
    recovery: CallTimer,
    arch_pages: u64,
    ops: u64,
}

/// What a replayed shard must share with `sweep_shard`'s outcome.
#[derive(Debug, Default, PartialEq, Eq)]
struct Replayed {
    points: usize,
    snapshots: u64,
    reused: u64,
}

/// `sweep_shard`'s build step, one span per call.
fn traced_build(
    tr: &mut Tracer,
    cfg: &SweepConfig,
    calls: &mut Calls,
) -> (Box<dyn bbb_core::Workload>, System) {
    let mut w = tr.span("workloads.build", |_| {
        let w = make_workload(cfg.workload, &cfg.cfg, cfg.params);
        if cfg.epoch_barriers {
            with_epoch_barriers(w)
        } else {
            w
        }
    });
    let mut sys = tr.span("core.new", |_| {
        System::new(cfg.cfg.clone(), cfg.mode).expect("valid sweep config")
    });
    tr.span("workloads.setup", |_| w.setup(sys.arch_mem_mut()));
    tr.span("core.sync_media", |_| sys.sync_media_from_arch());
    calls.arch_pages += sys.arch_mem().iter_pages().count() as u64;
    (w, sys)
}

/// Checks the image at one crash point through the epoch memo, as
/// `sweep_shard` does.
fn examine(
    sys: &System,
    cfg: &SweepConfig,
    battery_ok: bool,
    memo: &mut Option<(u64, RecoveryReport)>,
    calls: &mut Calls,
    seen: &mut Replayed,
) {
    let epoch = calls.epoch.time(|| sys.crash_image_epoch(battery_ok));
    if matches!(memo, Some((e, _)) if *e == epoch) {
        seen.reused += 1;
        return;
    }
    let image = calls.image.time(|| sys.crash_image(battery_ok));
    seen.snapshots += 1;
    let report = calls
        .recovery
        .time(|| verify_recovery_report(cfg.workload, &image, &cfg.cfg, cfg.params));
    *memo = Some((epoch, report));
}

/// Replays one shard call by call: `run_until` each point, then the
/// memoized healthy (and, for battery modes, battery-dropped) image.
fn replay_shard(tr: &mut Tracer, ci: usize, shard: &SweepShard, calls: &mut Calls) -> Replayed {
    tr.point_span("crashfuzz.shard", Some(ci), |tr| {
        let cfg = &shard.cfg;
        let (mut w, mut sys) = traced_build(tr, cfg, calls);
        let mut cursor = RunCursor::new(cfg.cfg.cores);
        let mut seen = Replayed {
            points: shard.points.len(),
            ..Replayed::default()
        };
        let (mut memo, mut memo_dropped) = (None, None);
        for &p in &shard.points {
            calls
                .run
                .time(|| sys.run_until(w.as_mut(), &mut cursor, StopAt::Cycle(p)));
            examine(&sys, cfg, true, &mut memo, calls, &mut seen);
            if cfg.battery_oracle() {
                examine(&sys, cfg, false, &mut memo_dropped, calls, &mut seen);
            }
        }
        if shard.lossy_final {
            // The final differential: the lossy machine run to completion
            // against its consistent twin.
            calls
                .run
                .time(|| sys.run_until(w.as_mut(), &mut cursor, StopAt::End));
            let image = calls.image.time(|| sys.crash_image(true));
            seen.snapshots += 1;
            calls
                .recovery
                .time(|| verify_recovery_report(cfg.workload, &image, &cfg.cfg, cfg.params));
            let twin = cfg.consistent_twin();
            let (mut tw, mut tsys) = traced_build(tr, &twin, calls);
            let mut tcursor = RunCursor::new(twin.cfg.cores);
            calls
                .run
                .time(|| tsys.run_until(tw.as_mut(), &mut tcursor, StopAt::End));
            let image = calls.image.time(|| tsys.crash_image(true));
            calls
                .recovery
                .time(|| verify_recovery_report(twin.workload, &image, &twin.cfg, twin.params));
            calls.ops += tcursor.ops();
        }
        calls.ops += cursor.ops();
        seen
    })
}
