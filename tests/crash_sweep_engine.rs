//! Pinned output of every crash sweep in the workspace.
//!
//! Four loops crash one execution point by point: the crashfuzz shard
//! sweep (with its lossy-final and consistent-twin runs, and the
//! shrinker's `first_failure_at`), the cycle-granular `schedule_images`
//! of a litmus schedule, the op-boundary sweep inside
//! `run_shape_conform`, and the per-prefix sweep of `litmus::run_shape`.
//! Each renders to a golden under `tests/golden/crash_sweep_engine_*.txt`:
//!
//! * `sweeps` — the full `SweepOutcome` of seven configurations (ordering
//!   and store-boundary grids, battery, instrumented and lossy modes),
//!   swept serially and in three merged shards, snapshot counters
//!   included, plus the first failing point of each lossy and
//!   battery-dropped run;
//! * `schedules` — per mode, the image count and the digest of every
//!   image `schedule_images` returns for two schedules;
//! * `conform` — per mode, `crash_points`, `observed` and `covered` of a
//!   handful of generated shapes;
//! * `litmus` — every row of the litmus table.
//!
//! Run with `BBB_REGEN_GOLDEN=1` to rewrite the goldens after an
//! intended change.

use std::fmt::Write as _;
use std::path::PathBuf;

use bbb::check::conform::{conform_config, conform_grid, run_shape_conform, GEN_OFFSETS};
use bbb::check::enumerate::interleavings;
use bbb::check::litmus::{mode_label, run_all};
use bbb::check::{generate, GenBounds, Inst, Prog};
use bbb::core::PersistencyMode;
use bbb::crashfuzz::{
    first_failure_at, merge_shards, plan_points, plan_shards, reference_run, schedule_images,
    sweep, sweep_shard, GridSpec, SweepConfig, CRASHFUZZ_SEED,
};
use bbb::mem::NvmImage;
use bbb::sim::{AddressMap, SimConfig};
use bbb::workloads::{WorkloadKind, WorkloadParams};

/// FNV-1a digest of every materialized page (address, then bytes), in
/// ascending address order.
fn image_digest(image: &NvmImage) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (base, page) in image.as_store().iter_pages() {
        for &b in base.to_le_bytes().iter().chain(page.iter()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn sweep_configs() -> Vec<SweepConfig> {
    let cfg = SimConfig::small_for_tests();
    let params = WorkloadParams::smoke();
    let grid = GridSpec::bounded(48, 16, CRASHFUZZ_SEED);
    let disciplined = |kind, mode| SweepConfig::paper_discipline(kind, mode, &cfg, params, grid);
    vec![
        disciplined(WorkloadKind::Hashmap, PersistencyMode::BbbMemorySide),
        disciplined(WorkloadKind::Ctree, PersistencyMode::Pmem),
        disciplined(WorkloadKind::Btree, PersistencyMode::Bep),
        disciplined(WorkloadKind::SwapC, PersistencyMode::Eadr),
        disciplined(WorkloadKind::PstoreLog, PersistencyMode::BbbProcessorSide)
            .with_store_boundaries(),
        SweepConfig::lossy(
            WorkloadKind::PstoreLog,
            PersistencyMode::Bep,
            &cfg,
            params,
            grid,
        )
        .with_store_boundaries(),
        SweepConfig::lossy(
            WorkloadKind::Hashmap,
            PersistencyMode::Pmem,
            &cfg,
            params,
            grid,
        ),
    ]
}

fn render_sweeps() -> String {
    let mut out = String::new();
    for sc in sweep_configs() {
        // Every shard replays the run from cycle zero, so the simulated
        // cycle counters (and the snapshot memo) depend on the shard count:
        // pin both the serial sweep and a three-shard one.
        let _ = writeln!(out, "serial {:#?}", sweep(&sc));
        let partials: Vec<_> = plan_shards(&sc, 3).iter().map(sweep_shard).collect();
        let _ = writeln!(out, "shards=3 {:#?}", merge_shards(&sc, &partials));
        let reference = reference_run(&sc);
        let points = plan_points(reference.total_cycles, &reference.event_cycles, &sc.grid);
        let _ = writeln!(
            out,
            "reference cycles={} ops={} events={} points={}",
            reference.total_cycles,
            reference.total_ops,
            reference.event_cycles.len(),
            points.len()
        );
        for battery_dropped in [false, true] {
            if battery_dropped && !sc.battery_oracle() {
                continue;
            }
            if !battery_dropped && sc.expects_consistent() {
                continue;
            }
            let found = first_failure_at(&sc, battery_dropped, &points);
            let _ = writeln!(out, "first_failure dropped={battery_dropped}: {found:?}");
        }
    }
    out
}

/// Two schedules on the conform machine: a two-core store/fence mix, and
/// one interleaving of a generated shape with a flush.
fn schedules() -> Vec<Prog> {
    vec![
        Prog {
            cores: vec![
                vec![
                    Inst::St { loc: 0, val: 1 },
                    Inst::St { loc: 2, val: 3 },
                    Inst::Fence,
                ],
                vec![Inst::St { loc: 1, val: 2 }, Inst::St { loc: 3, val: 4 }],
            ],
        },
        Prog {
            cores: vec![
                vec![
                    Inst::St { loc: 0, val: 1 },
                    Inst::Fl { loc: 0 },
                    Inst::Fence,
                    Inst::St { loc: 1, val: 1 },
                ],
                vec![Inst::Ld { loc: 1 }, Inst::St { loc: 0, val: 2 }],
            ],
        },
    ]
}

fn render_schedules() -> String {
    let mut out = String::new();
    let grid = conform_grid();
    for prog in schedules() {
        let cfg = conform_config(prog.num_cores());
        let base = AddressMap::new(&cfg).persistent_base();
        let all = interleavings(&prog.lens());
        let schedule = &all[all.len() / 2];
        let ops = prog.compile(schedule, &GEN_OFFSETS, base);
        let _ = writeln!(out, "shape {} schedule {schedule:?}", prog.display());
        for mode in PersistencyMode::ALL {
            let images = schedule_images(&cfg, mode, &ops, &grid);
            let digests: Vec<String> = images
                .iter()
                .map(|img| format!("{:016x}", image_digest(img)))
                .collect();
            let _ = writeln!(
                out,
                "{} images={} {}",
                mode_label(mode),
                images.len(),
                digests.join(" ")
            );
        }
    }
    out
}

fn render_conform() -> String {
    let mut out = String::new();
    let bounds = [
        GenBounds {
            cores: 2,
            locs: 2,
            max_insts: 2,
            max_shapes: 8,
        },
        GenBounds {
            cores: 1,
            locs: 2,
            max_insts: 4,
            max_shapes: 4,
        },
    ];
    for prog in bounds.iter().flat_map(generate) {
        let r = run_shape_conform(&prog);
        let _ = writeln!(out, "shape {}", r.shape);
        for m in &r.per_mode {
            let _ = writeln!(
                out,
                "  {} crash_points={} observed={} covered={} violations={}",
                mode_label(m.mode),
                m.crash_points,
                m.observed,
                m.covered,
                m.violations.len()
            );
        }
    }
    out
}

fn render_litmus() -> String {
    let mut out = String::new();
    for row in run_all() {
        let _ = writeln!(
            out,
            "{} {} crash_points={} observed={} first={:?} violations={} pass={}",
            row.shape,
            mode_label(row.mode),
            row.crash_points,
            row.observed,
            row.first_observed,
            row.report.violations(),
            row.pass()
        );
    }
    out
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("crash_sweep_engine_{name}.txt"));
    if std::env::var_os("BBB_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BBB_REGEN_GOLDEN=1 to create",
            path.display()
        )
    });
    if let Some(line) = expected
        .lines()
        .zip(actual.lines())
        .position(|(a, b)| a != b)
    {
        panic!(
            "{name}: golden differs at line {}:\n  expected: {}\n  actual:   {}",
            line + 1,
            expected.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "{name}: golden length differs"
    );
}

#[test]
fn crashfuzz_sweeps_golden() {
    check_golden("sweeps", &render_sweeps());
}

#[test]
fn schedule_images_golden() {
    check_golden("schedules", &render_schedules());
}

#[test]
fn conform_op_boundary_golden() {
    check_golden("conform", &render_conform());
}

#[test]
fn litmus_rows_golden() {
    check_golden("litmus", &render_litmus());
}
