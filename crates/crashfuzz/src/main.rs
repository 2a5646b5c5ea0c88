//! `crashfuzz` — sweep power failures across every (workload, mode) pair.
//!
//! ```text
//! crashfuzz [--smoke] [--json] [--seed N] [--pstore]
//!
//!   --smoke   CI grid: smoke-sized workloads, ~300 planned points/pair
//!   --json    also write BENCH_crashfuzz.json (or set BBB_JSON=1)
//!   --seed N  random-point seed (default 0xBBB5EED)
//!   --pstore  sweep the bbb-pstore ring protocol instead of the Table IV
//!             suite: every mode under the paper's discipline with crash
//!             points planned on persisting-store boundaries, plus the
//!             lossy PMEM/BEP differential oracles (report: crashfuzz-pstore)
//! ```
//!
//! Exit status is non-zero when any pair fails: a consistency violation
//! under a mode that guarantees consistency (the reproducer test is
//! printed, shrunk), or a negative oracle that drew no blood.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use bbb_core::PersistencyMode;
use bbb_crashfuzz::{
    lost_updates_observable, merge_shards, plan_shards, shrink, sweep_shard, GridSpec, SweepConfig,
    SweepOutcome, SweepPerf, SweepShard, CRASHFUZZ_SEED,
};
use bbb_runner::{json_requested, Report, Runner};
use bbb_sim::{EventKind, SimConfig, Table};
use bbb_workloads::{WorkloadKind, WorkloadParams};

fn usage() -> ! {
    eprintln!("usage: crashfuzz [--smoke] [--json] [--seed N] [--pstore]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut pstore = false;
    let mut seed = CRASHFUZZ_SEED;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--pstore" => pstore = true,
            "--json" => {} // consumed by json_requested()
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => usage(),
            },
            _ => usage(),
        }
    }

    let cfg = SimConfig::default();
    let params = if smoke {
        WorkloadParams::smoke()
    } else {
        WorkloadParams {
            initial: 2048,
            per_core_ops: 256,
            seed: 0xB0B,
            instrument: false,
        }
    };
    let grid = if smoke {
        GridSpec {
            seed,
            ..GridSpec::smoke()
        }
    } else {
        GridSpec::bounded(512, 128, seed)
    };

    // Every pair under the paper's discipline, plus — for workloads
    // whose lost updates the checker can observe — the two lossy
    // differential oracles. `--pstore` swaps in the ring-protocol sweep:
    // same shape, but crash points land on persisting-store boundaries
    // (the protocol is fence-free under BBB, so ordering events would
    // plan nothing) and the report is kept separate so the committed
    // Table IV artifact stays byte-stable.
    let suite: &[WorkloadKind] = if pstore {
        &[WorkloadKind::PstoreLog]
    } else {
        &WorkloadKind::ALL
    };
    let mut configs = Vec::new();
    for &kind in suite {
        for mode in PersistencyMode::ALL {
            configs.push(SweepConfig::paper_discipline(
                kind, mode, &cfg, params, grid,
            ));
        }
        if lost_updates_observable(kind) {
            for mode in [PersistencyMode::Pmem, PersistencyMode::Bep] {
                configs.push(SweepConfig::lossy(kind, mode, &cfg, params, grid));
            }
        }
    }
    for sc in &mut configs {
        sc.store_boundaries = pstore;
    }

    // Two-phase parallel sweep. Phase 1 plans each pair's crash grid
    // (one reference run per pair) and shards the points so every worker
    // thread gets a contiguous chunk; phase 2 flattens the shards of all
    // pairs into one work list for the pool. Shard outcomes merge back
    // in plan order, so the table below is bit-identical to a serial
    // sweep at any `BBB_THREADS`.
    let runner = Runner::from_env();
    // Perf-timing site: wall time is reported, never fed back into the sim.
    #[allow(clippy::disallowed_methods)]
    let wall = Instant::now();
    let shards_per_pair = runner.threads();
    let shard_sets: Vec<Vec<SweepShard>> =
        runner.map(&configs, |c| plan_shards(c, shards_per_pair));
    let flat: Vec<SweepShard> = shard_sets.iter().flatten().cloned().collect();
    let mut partials = runner.map(&flat, sweep_shard).into_iter();
    let outcomes: Vec<SweepOutcome> = configs
        .iter()
        .zip(&shard_sets)
        .map(|(cfg, set)| {
            let parts: Vec<_> = partials.by_ref().take(set.len()).collect();
            merge_shards(cfg, &parts)
        })
        .collect();
    let wall_secs = wall.elapsed().as_secs_f64();

    let mut perf = SweepPerf::default();
    for out in &outcomes {
        perf.absorb(&out.perf);
    }

    let report_name = if pstore {
        "crashfuzz-pstore"
    } else {
        "crashfuzz"
    };
    let mut report = Report::with_json(report_name, json_requested());
    report.meta_scale_name(if smoke { "smoke" } else { "full" });
    report.meta("seed", seed);
    report.meta("grid", if smoke { "smoke" } else { "full" });
    report.meta("pairs", configs.len());
    let mut table = Table::new(
        "Crash-point sweep",
        &[
            "pair",
            "points",
            "failures",
            "neg points",
            "signatures",
            "status",
        ],
    );
    let mut total_points = 0usize;
    let mut total_failures = 0usize;
    for out in &outcomes {
        total_points += out.points;
        total_failures += out.failures.len();
        table.row_owned(vec![
            out.label.clone(),
            out.points.to_string(),
            out.failures.len().to_string(),
            out.negative_points.to_string(),
            out.negative_signatures.to_string(),
            status(out).to_owned(),
        ]);
    }
    report.table(table);
    report.note(format!(
        "{} pairs, {} crash points swept, {} consistency failures",
        outcomes.len(),
        total_points,
        total_failures
    ));
    report.meta("total_points", total_points);
    report.meta("total_failures", total_failures);
    report.meta("threads", runner.threads());
    report.meta("wall_seconds", wall_secs);
    report.meta("points_per_sec", total_points as f64 / wall_secs.max(1e-9));
    report.meta(
        "sim_cycles_per_sec",
        perf.sim_cycles as f64 / wall_secs.max(1e-9),
    );
    report.emit().expect("report written");

    emit_perf_report(
        &runner,
        &flat,
        total_points,
        wall_secs,
        &perf,
        smoke,
        pstore,
    );

    let mut failed = false;
    for (cfg, out) in configs.iter().zip(&outcomes) {
        if out.passed() {
            continue;
        }
        failed = true;
        if let Some(first) = out.failures.first() {
            eprintln!(
                "\n{}: {} crash point(s) failed recovery; shrinking the first…",
                out.label,
                out.failures.len()
            );
            let rep = shrink(cfg, first);
            eprintln!(
                "minimal reproducer (cycle {} of a {}-op run):\n\n{}\n",
                rep.failure.cycle, rep.config.params.per_core_ops, rep.test_source
            );
        }
        if out.toothless() {
            eprintln!(
                "\n{}: negative oracle swept {} points without one lost-update \
                 signature — the recovery checker has no teeth here",
                out.label, out.negative_points
            );
        }
    }
    std::process::exit(i32::from(failed));
}

/// Writes the `perf` wall-time report (and `BENCH_perf.json` when JSON
/// output is requested): sweep throughput, the copy-on-write snapshot
/// economics of the clone-free crash imaging path, and the scheduler's
/// per-component simulated-cycle attribution. CI's perf-smoke job
/// archives this file and alarms on >1.5× wall-time regression against
/// the recorded budget. The ASCII form goes to stderr: it carries
/// wall-clock numbers, and stdout must stay byte-identical across
/// `BBB_THREADS` settings.
fn emit_perf_report(
    runner: &Runner,
    shards: &[SweepShard],
    total_points: usize,
    wall_secs: f64,
    perf: &SweepPerf,
    smoke: bool,
    pstore: bool,
) {
    // The pstore sweep keeps its own perf artifact: BENCH_perf.json is a
    // committed Table IV artifact the CI perf job alarms on.
    let name = if pstore { "perf-pstore" } else { "perf" };
    let mut report = Report::with_json(name, json_requested());
    report.meta_scale_name(if smoke { "smoke" } else { "full" });
    report.meta("threads", runner.threads());
    report.meta("shards", shards.len());
    let points_per_sec = total_points as f64 / wall_secs.max(1e-9);
    let sim_cycles_per_sec = perf.sim_cycles as f64 / wall_secs.max(1e-9);
    report.meta("wall_seconds", wall_secs);
    report.meta("points", total_points);
    report.meta("points_per_sec", points_per_sec);
    report.meta("sim_cycles_per_sec", sim_cycles_per_sec);
    for kind in EventKind::ALL {
        report.meta(
            &format!("sched.events.{}", kind.name()),
            perf.sched.count(kind),
        );
        report.meta(
            &format!("sched.cycles.{}", kind.name()),
            perf.sched.cycles(kind),
        );
    }
    let mut table = Table::new("Crash-sweep wall time", &["metric", "value"]);
    for (metric, value) in [
        ("wall_seconds", format!("{wall_secs:.3}")),
        ("points_per_sec", format!("{points_per_sec:.1}")),
        ("sim_cycles_per_sec", format!("{sim_cycles_per_sec:.0}")),
        ("snapshots", perf.snapshots.to_string()),
        ("snapshots_reused", perf.snapshots_reused.to_string()),
        ("snapshot_pages_shared", perf.pages_shared.to_string()),
        ("snapshot_pages_copied", perf.pages_copied.to_string()),
        ("clone_bytes_avoided", perf.clone_bytes_avoided.to_string()),
    ] {
        table.row_owned(vec![metric.into(), value]);
    }
    report.table(table);
    // Where simulated time went, per scheduler event kind: the profile the
    // event-driven interpreter attributes as each op completes.
    let mut sched = Table::new(
        "Simulated-cycle attribution",
        &["component", "events", "cycles", "share"],
    );
    let total = perf.sched.total_cycles().max(1);
    for kind in EventKind::ALL {
        sched.row_owned(vec![
            kind.name().into(),
            perf.sched.count(kind).to_string(),
            perf.sched.cycles(kind).to_string(),
            format!(
                "{:.1}%",
                100.0 * perf.sched.cycles(kind) as f64 / total as f64
            ),
        ]);
    }
    report.table(sched);
    report.note(format!(
        "{} snapshots: {} pages shared, {} copied ({} clone bytes avoided)",
        perf.snapshots, perf.pages_shared, perf.pages_copied, perf.clone_bytes_avoided
    ));
    report.emit_to_stderr().expect("perf report written");
}

fn status(out: &SweepOutcome) -> &'static str {
    if out.passed() {
        "ok"
    } else if out.toothless() {
        "TOOTHLESS"
    } else {
        "FAILED"
    }
}
