//! Simulated (not host-time) metrics, derived from the exact counters of
//! `System::stats()` at the end of each simulated point.
//!
//! They repeat bit for bit for a seed, so a change that only speeds the
//! simulator up must leave every one of them identical.

use bbb_core::PersistencyMode;
use bbb_runner::{geomean, norm, RunResult};
use bbb_sim::{EventKind, Stats};

use crate::metrics::{Metric, MODE_TAGS, PER_MODE};

/// The modes in [`MODE_TAGS`] order: the column order of the `kv` and
/// `wal` binaries.
pub const MODES: [PersistencyMode; 5] = [
    PersistencyMode::Eadr,
    PersistencyMode::BbbMemorySide,
    PersistencyMode::BbbProcessorSide,
    PersistencyMode::Bep,
    PersistencyMode::Pmem,
];

/// Short tag of a mode, as used in metric names.
#[must_use]
pub fn mode_tag(mode: PersistencyMode) -> &'static str {
    let i = MODES
        .iter()
        .position(|&m| m == mode)
        .expect("every mode is listed");
    MODE_TAGS[i]
}

/// One simulated point: the mix (or workload kind, or litmus shape) it
/// belongs to, its mode, and its result.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Index of the group of points run on identical inputs across modes.
    pub mix: usize,
    /// Persistency mode.
    pub mode: PersistencyMode,
    /// Final summary and statistics.
    pub result: RunResult,
}

/// The four end-to-end simulated ratios: cycles against eADR (geomean over
/// mixes) and steady NVMM writes against eADR (ratio of sums, because a
/// read-only mix writes nothing in any mode).
///
/// # Errors
///
/// Fails when no mix has an eADR point to compare against.
pub fn ratios(points: &[SimPoint]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for mode in [
        PersistencyMode::BbbMemorySide,
        PersistencyMode::BbbProcessorSide,
    ] {
        let mut cycle_ratios = Vec::new();
        let (mut writes, mut base_writes) = (0, 0);
        for p in points.iter().filter(|p| p.mode == mode) {
            let Some(base) = points
                .iter()
                .find(|b| b.mix == p.mix && b.mode == PersistencyMode::Eadr)
            else {
                continue;
            };
            if p.result.cycles() > 0 && base.result.cycles() > 0 {
                cycle_ratios.push(norm(p.result.cycles(), base.result.cycles()));
            }
            writes += p.result.nvmm_writes_steady();
            base_writes += base.result.nvmm_writes_steady();
        }
        if cycle_ratios.is_empty() {
            return Err(format!("no eADR baseline for {}", mode_tag(mode)));
        }
        let tag = mode_tag(mode);
        out.push(Metric::one(
            &format!("sim_cycles_vs_eadr.{tag}"),
            "ratio",
            geomean(&cycle_ratios),
        ));
        out.push(Metric::one(
            &format!("nvmm_writes_vs_eadr.{tag}"),
            "ratio",
            norm(writes, base_writes),
        ));
    }
    Ok(out)
}

/// The per-mode simulated component metrics, over every point of each
/// mode (counters summed across points; p999 persist latency is the
/// worst point's).
#[must_use]
pub fn per_mode(points: &[SimPoint]) -> Vec<Metric> {
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut by_stem: Vec<Vec<Metric>> = vec![Vec::new(); PER_MODE.len()];
    let mut p999 = Vec::new();
    for mode in MODES {
        let tag = mode_tag(mode);
        let mine: Vec<&SimPoint> = points.iter().filter(|p| p.mode == mode).collect();
        let s = Stats::merged(mine.iter().map(|p| p.result.stats.clone()));
        let ops = s.get("cores.committed");
        let per_kop = |n: u64| share(n * 1000, ops);
        let core_cycles: u64 = mine
            .iter()
            .map(|p| p.result.cycles() * cores_of(&p.result.stats))
            .sum();
        let sched_total: u64 = EventKind::ALL
            .iter()
            .map(|k| s.get(&format!("sched.cycles.{}", k.name())))
            .sum();
        let sched = |k: &str| share(s.get(&format!("sched.cycles.{k}")), sched_total);
        let values = [
            share(
                s.get("cache.l1_misses"),
                s.get("cache.l1_hits") + s.get("cache.l1_misses"),
            ),
            share(
                s.get("cache.l2_misses"),
                s.get("cache.l2_hits") + s.get("cache.l2_misses"),
            ),
            per_kop(s.get("bbpb.rejections")),
            share(
                s.get("bbpb.coalesces"),
                s.get("bbpb.coalesces") + s.get("bbpb.allocations"),
            ),
            share(s.get("bbpb.occupancy_sum"), s.get("bbpb.occupancy_samples")),
            per_kop(s.get("wpq.backpressure_events")),
            per_kop(s.get("nvmm.writes") + s.get("sim.residual_persist_blocks")),
            per_kop(s.get("cores.sb_full_stalls")),
            share(s.get("cores.fence_stall_cycles"), core_cycles),
            sched("pipeline"),
            sched("store_buffer"),
            sched("wpq"),
            sched("bbpb"),
            sched("nvmm"),
        ];
        for ((stem, unit, _), (slot, value)) in PER_MODE.iter().zip(by_stem.iter_mut().zip(values))
        {
            slot.push(Metric::one(&format!("{stem}.{tag}"), unit, value));
        }
        if matches!(mode, PersistencyMode::Pmem | PersistencyMode::Bep) {
            let worst = mine
                .iter()
                .map(|p| p.result.stats.get("persist.latency.p999"))
                .max()
                .unwrap_or(0);
            p999.push(Metric::one(
                &format!("persist.latency.p999.{tag}"),
                "cycles",
                worst as f64,
            ));
        }
    }
    by_stem.into_iter().flatten().chain(p999).collect()
}

/// Core count of a point, from its per-core counters.
fn cores_of(stats: &Stats) -> u64 {
    stats
        .iter()
        .filter(|(k, _)| {
            k.starts_with("core") && k.ends_with(".committed") && !k.starts_with("cores")
        })
        .count() as u64
}
