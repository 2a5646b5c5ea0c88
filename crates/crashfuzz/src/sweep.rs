//! The crashfuzz sweep of one `(workload, mode)` pair: two deterministic
//! passes of the [`CrashSweep`] engine over the *same* execution.
//!
//! 1. **Reference pass** — run the workload to completion op by op,
//!    learning the run length and the cycles of every ordering event
//!    (or, for store-granular protocols, every persisting store).
//! 2. **Forward crash pass** — replay the execution, pausing at each
//!    planned crash cycle (ascending, so the pass costs one run), and
//!    check each new crash image with the workload's structure checker.
//!
//! The forward pass shards: [`plan_shards`] splits the planned points
//! into contiguous chunks, and each [`sweep_shard`] forward-runs its own
//! fresh cursor from cycle zero to its chunk (the simulation is
//! deterministic, so every shard replays the identical execution).
//! Shards of many configurations can then fill a worker pool; merging
//! the per-shard outcomes in plan order ([`merge_shards`]) reproduces
//! the serial sweep's output bit for bit at any thread count.
//!
//! For configurations whose mode *guarantees* consistency (BBB, eADR,
//! instrumented PMEM, BEP with epoch barriers) any checker failure is a
//! bug — it is recorded and later shrunk to a minimal reproducer. For
//! deliberately lossy configurations (PMEM without flushes, BEP without
//! barriers) and for battery-dropped crashes of battery-backed modes, the
//! sweep instead *requires* lost-update signatures: a checker that never
//! flags a machine designed to lose data has no teeth.

use bbb_core::{PersistencyMode, ProbeKind};
use bbb_sim::{Cycle, SimConfig};
use bbb_workloads::suite::with_epoch_barriers;
use bbb_workloads::{
    make_workload, verify_recovery_report, RecoveryReport, WorkloadKind, WorkloadParams,
};

use crate::engine::{CrashSweep, Point, Reference, SweepPerf};
use crate::grid::GridSpec;

/// One `(workload, mode, machine, discipline, grid)` sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Structure workload under test.
    pub workload: WorkloadKind,
    /// Persistency mode of the simulated machine.
    pub mode: PersistencyMode,
    /// Machine configuration.
    pub cfg: SimConfig,
    /// Workload sizing and seed.
    pub params: WorkloadParams,
    /// Insert an epoch barrier after every high-level operation (the
    /// discipline BEP requires for durability).
    pub epoch_barriers: bool,
    /// Plan crash points on *persisting-store* boundaries instead of
    /// ordering events. Store-granular protocols (the pstore ring: plain
    /// stores, no fences under BBB) have their interesting crash points
    /// between stores, where the ordering probe sees nothing.
    pub store_boundaries: bool,
    /// Crash-point plan.
    pub grid: GridSpec,
}

impl SweepConfig {
    /// A configuration following the paper's correct programming
    /// discipline for `mode`: `clwb`/`sfence` instrumentation under PMEM,
    /// per-operation epoch barriers under BEP, unmodified code elsewhere.
    /// Such a configuration must recover consistently from *every* crash
    /// point.
    #[must_use]
    pub fn paper_discipline(
        workload: WorkloadKind,
        mode: PersistencyMode,
        cfg: &SimConfig,
        mut params: WorkloadParams,
        grid: GridSpec,
    ) -> Self {
        params.instrument = mode.requires_flushes();
        Self {
            workload,
            mode,
            cfg: cfg.clone(),
            params,
            epoch_barriers: mode.requires_epoch_barriers(),
            store_boundaries: false,
            grid,
        }
    }

    /// The same configuration planning its crash grid on persisting-store
    /// boundaries (see [`SweepConfig::store_boundaries`]).
    #[must_use]
    pub fn with_store_boundaries(mut self) -> Self {
        self.store_boundaries = true;
        self
    }

    /// A deliberately lossy configuration: the same mode with its required
    /// discipline *removed* (PMEM without flushes, BEP without barriers).
    /// The sweep uses these as differential negative oracles.
    #[must_use]
    pub fn lossy(
        workload: WorkloadKind,
        mode: PersistencyMode,
        cfg: &SimConfig,
        params: WorkloadParams,
        grid: GridSpec,
    ) -> Self {
        let mut sc = Self::paper_discipline(workload, mode, cfg, params, grid);
        sc.params.instrument = false;
        sc.epoch_barriers = false;
        sc
    }

    /// True when this configuration's mode + discipline guarantee that
    /// every crash point recovers consistently.
    #[must_use]
    pub fn expects_consistent(&self) -> bool {
        match self.mode {
            PersistencyMode::Pmem => self.params.instrument,
            PersistencyMode::Eadr
            | PersistencyMode::BbbMemorySide
            | PersistencyMode::BbbProcessorSide => true,
            PersistencyMode::Bep => self.epoch_barriers,
        }
    }

    /// True when the mode's durability depends on a battery above the
    /// memory controller — exactly the modes whose battery-dropped crash
    /// must show lost updates.
    #[must_use]
    pub fn battery_oracle(&self) -> bool {
        self.mode.has_bbpb() || matches!(self.mode, PersistencyMode::Eadr)
    }

    /// Human-readable pair label, e.g. `hashmap/bbb-mem` or
    /// `swapC/pmem (lossy)`.
    #[must_use]
    pub fn label(&self) -> String {
        let suffix = if self.expects_consistent() {
            ""
        } else {
            " (lossy)"
        };
        format!("{}/{}{}", self.workload.name(), mode_tag(self.mode), suffix)
    }

    /// The same pair under the mode's correct discipline — the partner a
    /// lossy configuration's final recovery count is compared against.
    #[must_use]
    pub fn consistent_twin(&self) -> Self {
        let mut twin =
            Self::paper_discipline(self.workload, self.mode, &self.cfg, self.params, self.grid);
        twin.store_boundaries = self.store_boundaries;
        twin
    }

    /// A crash-sweep engine at cycle zero of this configuration's run.
    fn engine(&self) -> CrashSweep {
        let mut w = make_workload(self.workload, &self.cfg, self.params);
        if self.epoch_barriers {
            w = with_epoch_barriers(w);
        }
        CrashSweep::new(&self.cfg, self.mode, w)
    }

    /// The recovery verdict of the engine's crash image, battery healthy or
    /// dropped. `last` is that battery state's previous verdict, which an
    /// unchanged image repeats; a fresh image is checked and memoized.
    fn verdict(
        &self,
        engine: &mut CrashSweep,
        battery_ok: bool,
        last: &mut Option<RecoveryReport>,
    ) -> RecoveryReport {
        if let Some(image) = engine.crash(battery_ok) {
            let report = verify_recovery_report(self.workload, &image, &self.cfg, self.params);
            *last = Some(report);
        }
        last.clone()
            .expect("the first crash of each battery state is imaged")
    }
}

/// Short mode tag for labels and generated test names, e.g. `bbb-mem`.
#[must_use]
pub const fn mode_tag(mode: PersistencyMode) -> &'static str {
    match mode {
        PersistencyMode::Pmem => "pmem",
        PersistencyMode::Eadr => "eadr",
        PersistencyMode::BbbMemorySide => "bbb-mem",
        PersistencyMode::BbbProcessorSide => "bbb-proc",
        PersistencyMode::Bep => "bep",
    }
}

/// True when `kind`'s recovery checker can observe a lost update.
/// Growth-tracking structures (trees, hashmap) record every successful
/// insert in the image, so a lost one shows up as a smaller recovered
/// count or a dangling pointer. In-place array updates (`Mutate*`,
/// `Swap*`) are unobservable: losing one restores an older but still
/// structurally valid value, which no integrity checker can flag. The
/// sweep only *requires* negative-oracle signatures where they are
/// observable.
#[must_use]
pub fn lost_updates_observable(kind: WorkloadKind) -> bool {
    matches!(
        kind,
        WorkloadKind::Rtree
            | WorkloadKind::Ctree
            | WorkloadKind::Hashmap
            | WorkloadKind::Btree
            // The ring's committed-sequence watermark counts every append,
            // so a lost commit is a smaller recovered count (or a torn
            // window).
            | WorkloadKind::PstoreLog
    )
}

/// Pass 1: runs the workload to completion op by op, recording run length
/// and the cycles of ordering events (or of persisting stores, with
/// [`SweepConfig::store_boundaries`]). Deterministic: the forward crash
/// pass replays exactly this execution.
#[must_use]
pub fn reference_run(cfg: &SweepConfig) -> Reference {
    let kind = if cfg.store_boundaries {
        ProbeKind::PersistingStores
    } else {
        ProbeKind::Ordering
    };
    cfg.engine().reference(kind)
}

/// One crash point whose recovered image failed verification.
#[derive(Debug, Clone)]
pub struct CrashFailure {
    /// Crash cycle.
    pub cycle: Cycle,
    /// True when the failing crash was the battery-dropped variant.
    pub battery_dropped: bool,
    /// The checker's verdict.
    pub report: RecoveryReport,
}

/// The result of sweeping one configuration.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Pair label (see [`SweepConfig::label`]).
    pub label: String,
    /// Swept workload.
    pub workload: WorkloadKind,
    /// Swept mode.
    pub mode: PersistencyMode,
    /// Whether the configuration promised consistency at every point.
    pub expects_consistent: bool,
    /// Whether the negative oracles are *required* to draw blood — true
    /// only for workloads whose lost updates are observable (see
    /// [`lost_updates_observable`]).
    pub oracle_required: bool,
    /// Distinct crash points swept.
    pub points: usize,
    /// Consistency violations (only possible when `expects_consistent`).
    pub failures: Vec<CrashFailure>,
    /// Crash points probed by a negative oracle (battery-dropped forks,
    /// or every point of a lossy configuration).
    pub negative_points: usize,
    /// Lost-update signatures the negative oracles observed.
    pub negative_signatures: usize,
    /// Snapshot-cost and throughput counters.
    pub perf: SweepPerf,
}

impl SweepOutcome {
    /// True when a negative oracle that *should* have seen lost updates
    /// ran but never saw one — the recovery checker failed to flag a
    /// machine designed to lose data.
    #[must_use]
    pub fn toothless(&self) -> bool {
        self.oracle_required && self.negative_points > 0 && self.negative_signatures == 0
    }

    /// Overall verdict: no consistency violations and every negative
    /// oracle drew blood.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && !self.toothless()
    }
}

/// One worker's slice of a configuration's sweep: a contiguous chunk of
/// the planned crash points, replayed on the worker's own forward cursor.
#[derive(Debug, Clone)]
pub struct SweepShard {
    /// Configuration being swept.
    pub cfg: SweepConfig,
    /// Contiguous ascending slice of the planned crash cycles.
    pub points: Vec<Cycle>,
    /// True on the last shard of a lossy configuration: after its final
    /// point it runs the machine to completion and performs the
    /// final-recovery differential against the consistent twin.
    pub lossy_final: bool,
}

/// The partial outcome one shard contributes (merge with
/// [`merge_shards`] in plan order to recover the serial sweep's output).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Points this shard swept.
    pub points: usize,
    /// Consistency violations, in ascending crash-cycle order.
    pub failures: Vec<CrashFailure>,
    /// Negative-oracle probes this shard ran.
    pub negative_points: usize,
    /// Lost-update signatures this shard observed.
    pub negative_signatures: usize,
    /// Snapshot-cost and throughput counters.
    pub perf: SweepPerf,
}

/// Pass 1 plus planning: learns the run, plans the crash grid, and splits
/// it into at most `shards` contiguous chunks (fewer when there are fewer
/// points). With `shards == 1` the single shard is the serial sweep.
///
/// The simulation is deterministic, so the concatenated per-shard
/// verdicts are identical for every shard count — only wall-clock
/// parallelism changes.
#[must_use]
pub fn plan_shards(cfg: &SweepConfig, shards: usize) -> Vec<SweepShard> {
    let points = reference_run(cfg).plan(&cfg.grid);
    let shards = shards.clamp(1, points.len().max(1));
    let chunk = points.len().div_ceil(shards).max(1);
    let mut out: Vec<SweepShard> = points
        .chunks(chunk)
        .map(<[Cycle]>::to_vec)
        .chain(points.is_empty().then(Vec::new))
        .map(|points| SweepShard {
            cfg: cfg.clone(),
            points,
            lossy_final: false,
        })
        .collect();
    if !cfg.expects_consistent() {
        out.last_mut().expect("at least one shard").lossy_final = true;
    }
    out
}

/// Runs one shard: forward-runs a fresh machine to each of its points
/// (ascending) and checks the crash image there, healthy and — for
/// battery-backed modes — battery-dropped.
#[must_use]
pub fn sweep_shard(shard: &SweepShard) -> ShardOutcome {
    let cfg = &shard.cfg;
    let mut engine = cfg.engine();
    let mut out = ShardOutcome {
        points: shard.points.len(),
        failures: Vec::new(),
        negative_points: 0,
        negative_signatures: 0,
        perf: SweepPerf::default(),
    };
    let (mut last_healthy, mut last_dropped) = (None, None);
    for &p in &shard.points {
        engine.advance(Point::Cycle(p));
        let report = cfg.verdict(&mut engine, true, &mut last_healthy);
        if !cfg.expects_consistent() {
            out.oracle(!report.ok());
        } else if !report.ok() {
            out.failures.push(CrashFailure {
                cycle: p,
                battery_dropped: false,
                report: report.clone(),
            });
        }
        if cfg.battery_oracle() {
            // A dead battery must lose updates relative to the healthy
            // crash at the same cycle: either the image is torn, or fewer
            // elements survive.
            let dropped = cfg.verdict(&mut engine, false, &mut last_dropped);
            out.oracle(!dropped.ok() || dropped.recovered < report.recovered);
        }
    }

    if shard.lossy_final {
        // Final differential: run the lossy machine to completion and
        // compare its recovered count against the same pair under the
        // mode's correct discipline. A machine that skips the required
        // flushes/barriers must come up short (or torn).
        engine.advance(Point::End);
        let lossy_final = cfg.verdict(&mut engine, true, &mut last_healthy);
        let twin = cfg.consistent_twin();
        let mut twin_engine = twin.engine();
        twin_engine.advance(Point::End);
        let twin_final = twin.verdict(&mut twin_engine, true, &mut None);
        out.oracle(!lossy_final.ok() || lossy_final.recovered < twin_final.recovered);
    }
    out.perf = engine.finish();
    out
}

impl ShardOutcome {
    /// Counts one negative-oracle probe, and its lost-update signature.
    fn oracle(&mut self, signature: bool) {
        self.negative_points += 1;
        self.negative_signatures += usize::from(signature);
    }
}

/// Folds per-shard outcomes (in plan order) into the configuration's
/// [`SweepOutcome`] — identical to what a 1-shard serial sweep produces.
#[must_use]
pub fn merge_shards(cfg: &SweepConfig, shards: &[ShardOutcome]) -> SweepOutcome {
    let mut out = SweepOutcome {
        label: cfg.label(),
        workload: cfg.workload,
        mode: cfg.mode,
        expects_consistent: cfg.expects_consistent(),
        oracle_required: lost_updates_observable(cfg.workload),
        points: 0,
        failures: Vec::new(),
        negative_points: 0,
        negative_signatures: 0,
        perf: SweepPerf::default(),
    };
    for s in shards {
        out.points += s.points;
        out.failures.extend(s.failures.iter().cloned());
        out.negative_points += s.negative_points;
        out.negative_signatures += s.negative_signatures;
        out.perf.absorb(&s.perf);
    }
    out
}

/// Runs the full two-pass sweep for one configuration, serially (the
/// single-shard case of [`plan_shards`] + [`sweep_shard`]).
#[must_use]
pub fn sweep(cfg: &SweepConfig) -> SweepOutcome {
    let partials: Vec<ShardOutcome> = plan_shards(cfg, 1).iter().map(sweep_shard).collect();
    merge_shards(cfg, &partials)
}

/// Crashes one deterministic execution at each of `points` (ascending),
/// returning the first failing point. `battery_dropped` selects the crash
/// variant. The shrinker's workhorse.
#[must_use]
pub fn first_failure_at(
    cfg: &SweepConfig,
    battery_dropped: bool,
    points: &[Cycle],
) -> Option<CrashFailure> {
    let mut engine = cfg.engine();
    points.iter().find_map(|&p| {
        engine.advance(Point::Cycle(p));
        // No image: unchanged since the previous point, which passed.
        let image = engine.crash(!battery_dropped)?;
        let report = verify_recovery_report(cfg.workload, &image, &cfg.cfg, cfg.params);
        (!report.ok()).then_some(CrashFailure {
            cycle: p,
            battery_dropped,
            report,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CRASHFUZZ_SEED;

    fn small() -> (SimConfig, WorkloadParams) {
        (SimConfig::small_for_tests(), WorkloadParams::smoke())
    }

    #[test]
    fn reference_pass_sees_the_whole_run() {
        let (cfg, params) = small();
        let sc = SweepConfig::paper_discipline(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            params,
            GridSpec::bounded(16, 4, CRASHFUZZ_SEED),
        );
        let r = reference_run(&sc);
        assert!(r.total_cycles > 0);
        assert!(r.total_ops > 0);
        // The reference pass is deterministic.
        let r2 = reference_run(&sc);
        assert_eq!(r.total_cycles, r2.total_cycles);
        assert_eq!(r.total_ops, r2.total_ops);
        assert_eq!(r.event_cycles, r2.event_cycles);
    }

    #[test]
    fn bbb_sweep_has_no_failures_and_battery_oracle_bites() {
        let (cfg, params) = small();
        let sc = SweepConfig::paper_discipline(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            params,
            GridSpec::bounded(48, 16, CRASHFUZZ_SEED),
        );
        let out = sweep(&sc);
        assert!(out.expects_consistent);
        assert!(
            out.failures.is_empty(),
            "BBB must survive every crash point"
        );
        assert!(
            out.negative_signatures > 0,
            "dead battery must lose updates"
        );
        assert!(out.passed());
    }

    #[test]
    fn lossy_pmem_sweep_shows_lost_updates() {
        let (cfg, params) = small();
        let sc = SweepConfig::lossy(
            WorkloadKind::Hashmap,
            PersistencyMode::Pmem,
            &cfg,
            params,
            GridSpec::bounded(32, 8, CRASHFUZZ_SEED),
        );
        let out = sweep(&sc);
        assert!(!out.expects_consistent);
        assert!(out.failures.is_empty(), "lossy configs record no failures");
        assert!(!out.toothless(), "unflushed PMEM must exhibit a signature");
        assert!(out.passed());
    }

    #[test]
    fn array_workloads_do_not_require_oracle_signatures() {
        // In-place array updates, when lost, restore older but still
        // structurally valid values, so the checkers cannot observe them;
        // the sweep must not demand signatures there.
        assert!(!lost_updates_observable(WorkloadKind::SwapC));
        assert!(lost_updates_observable(WorkloadKind::Hashmap));
        let (cfg, params) = small();
        let sc = SweepConfig::paper_discipline(
            WorkloadKind::SwapC,
            PersistencyMode::Eadr,
            &cfg,
            params,
            GridSpec::bounded(16, 4, CRASHFUZZ_SEED),
        );
        let out = sweep(&sc);
        assert!(!out.oracle_required);
        assert!(!out.toothless());
        assert!(out.passed());
    }

    #[test]
    fn paper_discipline_sets_mode_requirements() {
        let (cfg, params) = small();
        let pmem = SweepConfig::paper_discipline(
            WorkloadKind::Ctree,
            PersistencyMode::Pmem,
            &cfg,
            params,
            GridSpec::smoke(),
        );
        assert!(pmem.params.instrument && !pmem.epoch_barriers);
        assert!(pmem.expects_consistent());
        let bep = SweepConfig::paper_discipline(
            WorkloadKind::Ctree,
            PersistencyMode::Bep,
            &cfg,
            params,
            GridSpec::smoke(),
        );
        assert!(bep.epoch_barriers && !bep.params.instrument);
        assert!(bep.expects_consistent());
        let lossy = SweepConfig::lossy(
            WorkloadKind::Ctree,
            PersistencyMode::Bep,
            &cfg,
            params,
            GridSpec::smoke(),
        );
        assert!(!lossy.expects_consistent());
        assert_eq!(lossy.consistent_twin().label(), bep.label());
    }
}
