//! Design-space autoexplorer (`bbb-explore`): the sweep grid, per-config
//! metrics, and Pareto-frontier extraction behind the ROADMAP's
//! design-space explorer.
//!
//! The paper evaluates one design point (32-entry bbPB, 75% drain
//! threshold, 8 cores). The explorer sweeps **bbPB entries × drain
//! threshold × battery capacity × WPQ depth × core count** over the
//! server-scale KV and WAL workloads, prices each point's battery with
//! `bbb-energy`, and extracts the Pareto frontier over
//! (performance, battery volume, endurance).
//!
//! Determinism contract: the grid is enumerated in a fixed nested-loop
//! order, every simulation runs under the memoizing [`Runner`] (results
//! in spec order at any `BBB_THREADS`), and the frontier is sorted
//! canonically — so sharded output is bit-identical to serial and the
//! frontier is invariant to config enumeration order (both are tested).

use bbb_core::PersistencyMode;
use bbb_energy::{volume_mm3, BatteryTech, DrainModel, EnergyCosts, Platform};
use bbb_sim::{DrainPolicy, SimConfig};
use bbb_workloads::WorkloadKind;

use crate::{ExperimentSpec, RunResult, Runner, Scale};

/// bbPB sizes swept (entries per core; the paper's point is 32).
pub const ENTRIES: [usize; 8] = [4, 8, 16, 32, 64, 128, 256, 1024];
/// Drain thresholds swept (percent of capacity a burst empties down to).
pub const THRESHOLDS: [u8; 3] = [50, 75, 100];
/// Write-pending-queue depths swept (the paper's machine uses 64).
pub const WPQ_DEPTHS: [usize; 3] = [16, 64, 256];
/// Core counts swept (the paper evaluates 8).
pub const CORE_COUNTS: [usize; 4] = [8, 16, 32, 64];
/// Battery capacity tiers in joules: a swept design is *feasible* under a
/// tier when its provisioned bbPB drain energy fits. The largest tier
/// (1 J) admits every grid point; the smallest only small buffers on few
/// cores.
pub const CAPACITY_TIERS_J: [f64; 4] = [1e-3, 1e-2, 1e-1, 1.0];
/// Sweep subjects: the server-scale KV service (YCSB mix A) and the
/// group-commit WAL — the workload PR 9 showed saturates the 32-entry
/// bbPB.
pub const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::KvA, WorkloadKind::Wal];

/// Overhead bound defining "desaturated": the bbPB size is large enough
/// once bbb-mem runs within 5% of eADR.
pub const DESAT_BOUND: f64 = 1.05;

/// Explorer sizing per preset. Smoke matches the WAL benchmark's smoke
/// sizing: 400 appends/core is the smallest load that drives the
/// 32-entry bbPB into its saturated steady state (bbb-mem ≈1.3× eADR),
/// so the desaturation question stays answerable in CI. Larger presets
/// multiply by up to 64 cores across ~600 unique sims — keep per-core
/// ops modest.
#[must_use]
pub fn explore_scale(preset: &str) -> Scale {
    match preset {
        "smoke" => Scale {
            initial: 2_048,
            per_core_ops: 400,
        },
        "paper" => Scale {
            initial: 8_192,
            per_core_ops: 4_000,
        },
        _ => Scale {
            initial: 8_192,
            per_core_ops: 1_000,
        },
    }
}

/// One simulated grid point (the capacity axis is analytic: it gates
/// feasibility but does not change the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimPoint {
    /// Sweep subject.
    pub workload: WorkloadKind,
    /// bbPB entries per core.
    pub entries: usize,
    /// Drain threshold percent.
    pub threshold_pct: u8,
    /// WPQ depth.
    pub wpq: usize,
    /// Core count.
    pub cores: usize,
}

/// The full simulated grid in canonical (workload, entries, threshold,
/// wpq, cores) nested-loop order.
#[must_use]
pub fn sim_points() -> Vec<SimPoint> {
    let mut out = Vec::new();
    for &workload in &WORKLOADS {
        for &entries in &ENTRIES {
            for &threshold_pct in &THRESHOLDS {
                for &wpq in &WPQ_DEPTHS {
                    for &cores in &CORE_COUNTS {
                        out.push(SimPoint {
                            workload,
                            entries,
                            threshold_pct,
                            wpq,
                            cores,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Swept configs = simulated grid × battery capacity tiers (the number
/// the registry pins).
#[must_use]
pub fn config_count() -> usize {
    sim_points().len() * CAPACITY_TIERS_J.len()
}

/// The machine for one grid point: the paper's Table III machine with
/// the swept knobs applied and the persistent heap sized for
/// `cores × per_core_ops` (the shared [`crate::paper_config`] assumes
/// the default 8 cores).
#[must_use]
pub fn explore_config(scale: Scale, cores: usize, wpq: usize) -> SimConfig {
    let mut cfg = SimConfig {
        cores,
        ..SimConfig::default()
    };
    cfg.mem.wpq_entries = wpq;
    let need = (scale.initial + cores as u64 * scale.per_core_ops) * 512;
    cfg.persistent_heap_bytes = need.next_power_of_two().max(64 * 1024 * 1024);
    cfg
}

/// The bbb-mem spec for one grid point.
#[must_use]
pub fn spec_for(p: &SimPoint, scale: Scale) -> ExperimentSpec {
    let cfg = explore_config(scale, p.cores, p.wpq);
    ExperimentSpec::new(p.workload, PersistencyMode::BbbMemorySide, &cfg, scale)
        .with_entries(p.entries)
        .with_drain_policy(DrainPolicy::Threshold {
            threshold_pct: p.threshold_pct,
        })
        .labeled(format!(
            "{}/e{}/t{}/q{}/c{}",
            p.workload.name(),
            p.entries,
            p.threshold_pct,
            p.wpq,
            p.cores
        ))
}

/// The eADR baseline spec a grid point normalizes against: same
/// workload, WPQ depth, and core count; bbPB knobs pinned to the paper
/// defaults so every (entries, threshold) variant shares one baseline
/// through the runner's memo cache.
#[must_use]
pub fn baseline_for(p: &SimPoint, scale: Scale) -> ExperimentSpec {
    let cfg = explore_config(scale, p.cores, p.wpq);
    ExperimentSpec::new(p.workload, PersistencyMode::Eadr, &cfg, scale).labeled(format!(
        "{}/eadr/q{}/c{}",
        p.workload.name(),
        p.wpq,
        p.cores
    ))
}

/// Everything recorded for one simulated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The grid point.
    pub point: SimPoint,
    /// Execution cycles.
    pub cycles: u64,
    /// Matched eADR baseline cycles.
    pub base_cycles: u64,
    /// cycles / baseline cycles (performance objective; 1.0 = eADR).
    pub slowdown: f64,
    /// Steady-state NVMM media writes.
    pub nvmm_writes: u64,
    /// nvmm writes / baseline nvmm writes (endurance objective).
    pub endurance: f64,
    /// Write amplification: media bytes per persisting store byte.
    pub write_amp: f64,
    /// Fences executed (battery modes pin this to 0).
    pub fences: u64,
    /// p999 store persist latency in cycles.
    pub p999: u64,
    /// Provisioned battery energy for the bbPBs, joules.
    pub battery_j: f64,
    /// SuperCap active-material volume for that energy, mm³.
    pub volume_mm3: f64,
    /// Smallest feasible capacity tier (J), if any tier fits.
    pub min_tier_j: Option<f64>,
}

/// Prices the bbPB battery for a grid point: worst-case full buffers on
/// a server-class platform scaled to the point's core count.
#[must_use]
pub fn battery_energy_j(cores: usize, entries: usize) -> f64 {
    let model = DrainModel::new(Platform::server_scaled(cores), EnergyCosts::default());
    model.bbb_battery_energy_j(entries)
}

/// The full spec list the explorer hands the runner: each grid point's
/// bbb-mem spec followed by its eADR baseline (duplicate baselines fold
/// away in the runner's memo cache).
#[must_use]
pub fn all_specs(points: &[SimPoint], scale: Scale) -> Vec<ExperimentSpec> {
    let mut specs: Vec<ExperimentSpec> = Vec::with_capacity(points.len() * 2);
    for p in points {
        specs.push(spec_for(p, scale));
        specs.push(baseline_for(p, scale));
    }
    specs
}

/// Runs the whole grid through the runner (memoized, sharded across
/// `BBB_THREADS`, results in grid order) and derives every metric.
#[must_use]
pub fn measure(points: &[SimPoint], scale: Scale, runner: &Runner) -> Vec<Measurement> {
    let specs = all_specs(points, scale);
    let results = runner.run(&specs);
    points
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(p, pair)| measurement(p, &pair[0], &pair[1]))
        .collect()
}

fn measurement(p: &SimPoint, r: &RunResult, base: &RunResult) -> Measurement {
    let battery_j = battery_energy_j(p.cores, p.entries);
    let persisted = r.stats.get("cores.persisting_store_bytes").max(1);
    Measurement {
        point: *p,
        cycles: r.cycles(),
        base_cycles: base.cycles(),
        slowdown: r.cycles() as f64 / base.cycles().max(1) as f64,
        nvmm_writes: r.nvmm_writes_steady(),
        endurance: r.nvmm_writes_steady() as f64 / base.nvmm_writes_steady().max(1) as f64,
        write_amp: (r.nvmm_writes_steady() * 64) as f64 / persisted as f64,
        fences: r.stats.get("cores.fences"),
        p999: r.stats.get("persist.latency.p999"),
        battery_j,
        volume_mm3: volume_mm3(battery_j, BatteryTech::SuperCap),
        min_tier_j: CAPACITY_TIERS_J
            .iter()
            .copied()
            .find(|&tier| battery_j <= tier),
    }
}

/// True when `a` Pareto-dominates `b` over (performance, battery
/// volume, endurance): no worse on every objective, strictly better on
/// at least one.
#[must_use]
pub fn dominates(a: &Measurement, b: &Measurement) -> bool {
    a.slowdown <= b.slowdown
        && a.volume_mm3 <= b.volume_mm3
        && a.endurance <= b.endurance
        && (a.slowdown < b.slowdown || a.volume_mm3 < b.volume_mm3 || a.endurance < b.endurance)
}

/// Extracts the Pareto frontier over the battery-feasible measurements
/// (per workload: a KV point cannot dominate a WAL point), sorted
/// canonically so the result is invariant to input order.
#[must_use]
pub fn pareto_frontier(ms: &[Measurement]) -> Vec<Measurement> {
    let feasible: Vec<&Measurement> = ms.iter().filter(|m| m.min_tier_j.is_some()).collect();
    let mut out: Vec<Measurement> = feasible
        .iter()
        .filter(|a| {
            !feasible
                .iter()
                .any(|b| b.point.workload == a.point.workload && dominates(b, a))
        })
        .map(|m| (*m).clone())
        .collect();
    out.sort_by(|a, b| {
        a.point
            .workload
            .name()
            .cmp(b.point.workload.name())
            .then(a.slowdown.total_cmp(&b.slowdown))
            .then(a.volume_mm3.total_cmp(&b.volume_mm3))
            .then(a.endurance.total_cmp(&b.endurance))
            .then(a.point.cmp(&b.point))
    });
    out.dedup();
    out
}

/// Question (a): the smallest swept bbPB size at which the WAL under
/// bbb-mem runs within [`DESAT_BOUND`] of eADR, at the paper's other
/// knobs (75% threshold, 64-deep WPQ, 8 cores).
#[must_use]
pub fn wal_desaturation_entries(ms: &[Measurement]) -> Option<usize> {
    let mut candidates: Vec<&Measurement> = ms
        .iter()
        .filter(|m| {
            m.point.workload == WorkloadKind::Wal
                && m.point.threshold_pct == 75
                && m.point.wpq == 64
                && m.point.cores == 8
        })
        .collect();
    candidates.sort_by_key(|m| m.point.entries);
    candidates
        .iter()
        .find(|m| m.slowdown <= DESAT_BOUND)
        .map(|m| m.point.entries)
}

/// Question (b): per core count, the geomean bbb-mem slowdown at the
/// paper's design point (32 entries, 75% threshold, 64-deep WPQ) across
/// the sweep subjects — where this curve leaves [`DESAT_BOUND`], the
/// memory-side bbPB has stopped paying off.
#[must_use]
pub fn core_scaling(ms: &[Measurement]) -> Vec<(usize, f64)> {
    CORE_COUNTS
        .iter()
        .map(|&cores| {
            let ratios: Vec<f64> = ms
                .iter()
                .filter(|m| {
                    m.point.cores == cores
                        && m.point.entries == 32
                        && m.point.threshold_pct == 75
                        && m.point.wpq == 64
                })
                .map(|m| m.slowdown)
                .collect();
            (cores, crate::geomean(&ratios))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(workload: WorkloadKind, slowdown: f64, volume: f64, endurance: f64) -> Measurement {
        Measurement {
            point: SimPoint {
                workload,
                entries: 32,
                threshold_pct: 75,
                wpq: 64,
                cores: 8,
            },
            cycles: 100,
            base_cycles: 100,
            slowdown,
            nvmm_writes: 10,
            endurance,
            write_amp: 1.0,
            fences: 0,
            p999: 0,
            battery_j: 1e-3,
            volume_mm3: volume,
            min_tier_j: Some(1e-3),
        }
    }

    #[test]
    fn grid_covers_at_least_one_thousand_configs() {
        assert_eq!(
            sim_points().len(),
            WORKLOADS.len()
                * ENTRIES.len()
                * THRESHOLDS.len()
                * WPQ_DEPTHS.len()
                * CORE_COUNTS.len()
        );
        assert!(config_count() >= 1000, "swept configs: {}", config_count());
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        let a = m(WorkloadKind::Wal, 1.0, 1.0, 1.0);
        let b = m(WorkloadKind::Wal, 1.1, 1.0, 1.0);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a), "equal points do not dominate");
    }

    #[test]
    fn frontier_keeps_nondominated_and_filters_infeasible() {
        let mut infeasible = m(WorkloadKind::Wal, 0.5, 0.5, 0.5);
        infeasible.min_tier_j = None;
        let ms = vec![
            m(WorkloadKind::Wal, 1.0, 2.0, 1.0),
            m(WorkloadKind::Wal, 2.0, 1.0, 1.0),
            m(WorkloadKind::Wal, 2.0, 2.0, 2.0), // dominated by both
            infeasible,
        ];
        let f = pareto_frontier(&ms);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.min_tier_j.is_some()));
    }

    #[test]
    fn frontier_is_per_workload() {
        // A strictly-better KV point must not evict a WAL point.
        let ms = vec![
            m(WorkloadKind::KvA, 1.0, 1.0, 1.0),
            m(WorkloadKind::Wal, 2.0, 2.0, 2.0),
        ];
        assert_eq!(pareto_frontier(&ms).len(), 2);
    }

    #[test]
    fn battery_energy_grows_with_both_axes() {
        assert!(battery_energy_j(16, 32) > battery_energy_j(8, 32));
        assert!(battery_energy_j(8, 64) > battery_energy_j(8, 32));
        // The paper's server point: 32 cores × 32 entries ≈ 7.9 mJ
        // provisioned — feasible at the 10 mJ tier but not 1 mJ.
        let e = battery_energy_j(32, 32);
        assert!(e > 1e-3 && e < 1e-2, "measured {e}");
    }

    /// ISSUE satellite: with the fixed paper seed, the explorer's sharded
    /// output is bit-identical to serial. Exercises the real sweep path
    /// (`all_specs` → `Runner::run` → `measure`) on a grid corner small
    /// enough for CI, comparing both the raw `RunResult`s and the derived
    /// `Measurement`s at 1 vs 4 threads.
    #[test]
    fn sharded_matches_serial_bit_for_bit() {
        let scale = Scale {
            initial: 256,
            per_core_ops: 16,
        };
        let points: Vec<SimPoint> = sim_points()
            .into_iter()
            .filter(|p| {
                p.cores == 8 && p.wpq == 64 && p.threshold_pct == 75 && [4, 32].contains(&p.entries)
            })
            .collect();
        assert_eq!(points.len(), 4, "two workloads x two bbPB sizes");

        let specs = all_specs(&points, scale);
        let serial = Runner::with_threads(1);
        let sharded = Runner::with_threads(4);
        assert_eq!(serial.run(&specs), sharded.run(&specs));
        assert_eq!(
            measure(&points, scale, &serial),
            measure(&points, scale, &sharded)
        );
    }

    /// ISSUE satellite: the Pareto frontier is invariant to the order the
    /// configs were enumerated in. Property-tested over seeded random
    /// measurement sets and Fisher–Yates shuffles (deterministic
    /// `SplitMix64`; no wall-clock or OS randomness).
    #[test]
    fn frontier_is_invariant_to_enumeration_order() {
        use bbb_sim::SplitMix64;

        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xBBB_5EED ^ seed);
            let mut coord = |max: f64| 0.5 + (rng.next_u64() % 64) as f64 * max / 64.0;
            let mut ms: Vec<Measurement> = (0..50)
                .map(|i| {
                    let wl = WORKLOADS[i % WORKLOADS.len()];
                    let mut x = m(wl, coord(3.0), coord(40.0), coord(5.0));
                    // Vary the point too, so ties in the objectives still
                    // have a total canonical order to resolve against.
                    x.point.entries = ENTRIES[i % ENTRIES.len()];
                    x.point.cores = CORE_COUNTS[i % CORE_COUNTS.len()];
                    if i % 7 == 0 {
                        x.min_tier_j = None; // infeasible stragglers
                    }
                    x
                })
                .collect();

            let reference = pareto_frontier(&ms);
            for _ in 0..4 {
                for i in (1..ms.len()).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    ms.swap(i, j);
                }
                assert_eq!(
                    pareto_frontier(&ms),
                    reference,
                    "frontier changed under permutation (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn capacity_tiers_gate_feasibility() {
        let points = [
            SimPoint {
                workload: WorkloadKind::Wal,
                entries: 4,
                threshold_pct: 75,
                wpq: 64,
                cores: 8,
            },
            SimPoint {
                workload: WorkloadKind::Wal,
                entries: 1024,
                threshold_pct: 75,
                wpq: 64,
                cores: 64,
            },
        ];
        let small = battery_energy_j(points[0].cores, points[0].entries);
        let big = battery_energy_j(points[1].cores, points[1].entries);
        assert!(small <= CAPACITY_TIERS_J[0], "4×8 fits the 1 mJ tier");
        assert!(big > CAPACITY_TIERS_J[2], "1024×64 needs the largest tier");
        assert!(big <= CAPACITY_TIERS_J[3], "every grid point fits 1 J");
    }
}
