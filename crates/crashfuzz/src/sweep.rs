//! The crash-injection sweep engine.
//!
//! A sweep validates one `(workload, mode)` pair in two deterministic
//! passes over the *same* simulated execution:
//!
//! 1. **Reference pass** — run the workload to completion one op at a
//!    time, sampling [`System::probe_events`] between ops to learn the
//!    run length and the cycles of every ordering event (epoch barriers,
//!    forced bbPB drains, WPQ backpressure stalls).
//! 2. **Forward crash pass** — replay the identical execution, pausing at
//!    each planned crash cycle (ascending, so the whole pass costs one
//!    run); at each point take a non-destructive [`System::crash_image`]
//!    — persist-domain contents overlaid on a copy-on-write snapshot of
//!    NVMM media, zero clones of the machine — and check the recovered
//!    image with the workload's structure checker.
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

use bbb_core::{PersistencyMode, ProbeKind, RunCursor, StopAt, System, Workload, PAGE_BYTES};
use bbb_sim::{Cycle, SchedProfile, SimConfig};
use bbb_workloads::suite::with_epoch_barriers;
use bbb_workloads::{
    make_workload, verify_recovery_report, RecoveryReport, WorkloadKind, WorkloadParams,
};

use crate::grid::{plan_points, GridSpec};

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
        mut params: WorkloadParams,
        grid: GridSpec,
    ) -> Self {
        params.instrument = false;
        Self {
            workload,
            mode,
            cfg: cfg.clone(),
            params,
            epoch_barriers: false,
            store_boundaries: false,
            grid,
        }
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

    /// Short mode tag for labels and generated test names.
    #[must_use]
    pub fn mode_tag(&self) -> &'static str {
        match self.mode {
            PersistencyMode::Pmem => "pmem",
            PersistencyMode::Eadr => "eadr",
            PersistencyMode::BbbMemorySide => "bbb-mem",
            PersistencyMode::BbbProcessorSide => "bbb-proc",
            PersistencyMode::Bep => "bep",
        }
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
        format!("{}/{}{}", self.workload.name(), self.mode_tag(), suffix)
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

/// What the reference pass learned about the execution.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Total run length in cycles.
    pub total_cycles: Cycle,
    /// Ops committed over the whole run.
    pub total_ops: u64,
    /// Cycles at which an ordering event (fence, forced drain, WPQ
    /// backpressure stall) was first observed.
    pub event_cycles: Vec<Cycle>,
}

fn build(cfg: &SweepConfig) -> (Box<dyn Workload>, System) {
    let mut w = make_workload(cfg.workload, &cfg.cfg, cfg.params);
    if cfg.epoch_barriers {
        w = with_epoch_barriers(w);
    }
    let mut sys = System::new(cfg.cfg.clone(), cfg.mode).expect("valid sweep config");
    sys.prepare(w.as_mut());
    (w, sys)
}

/// Pass 1: runs the workload to completion op by op, recording run length
/// and ordering-event cycles. Deterministic: the forward crash pass
/// replays exactly this execution.
#[must_use]
pub fn reference_run(cfg: &SweepConfig) -> Reference {
    let (mut w, mut sys) = build(cfg);
    let mut cursor = RunCursor::new(cfg.cfg.cores);
    let mut event_cycles = Vec::new();
    let kind = if cfg.store_boundaries {
        ProbeKind::PersistingStores
    } else {
        ProbeKind::Ordering
    };
    sys.run_probed(w.as_mut(), &mut cursor, &mut event_cycles, kind);
    Reference {
        total_cycles: sys.cycle(),
        total_ops: cursor.ops(),
        event_cycles,
    }
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

/// Snapshot-cost and throughput accounting for one sweep (or shard).
///
/// The pre-COW sweep deep-cloned the whole `System` once or twice per
/// crash point; these counters quantify what the copy-on-write
/// [`System::crash_image`] path avoids. All counters are exact and
/// deterministic, so they merge additively across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepPerf {
    /// Crash images taken (healthy + battery-dropped + lossy finals).
    pub snapshots: u64,
    /// Media pages shared between a crash image and the live run —
    /// pages a deep clone would have copied and COW did not.
    pub pages_shared: u64,
    /// Media pages the overlay actually deep-copied (persist-domain
    /// contents landing on pages still shared with the live run).
    pub pages_copied: u64,
    /// Bytes of media never copied thanks to COW snapshots
    /// (`pages_shared * PAGE_BYTES`).
    pub clone_bytes_avoided: u64,
    /// Crash points whose image provably matched the previous point's
    /// ([`System::crash_image_epoch`] unchanged), so the snapshot and
    /// recovery check were skipped and the prior verdict reused.
    pub snapshots_reused: u64,
    /// Simulated cycles executed by the forward crash pass(es).
    pub sim_cycles: u64,
    /// Per-component completion-event attribution of the forward crash
    /// pass(es): which component (pipeline, store buffer, WPQ, persist
    /// buffer, memory system) dominated each committed op's wait. Covers
    /// the same runs as `sim_cycles`.
    pub sched: SchedProfile,
}

impl SweepPerf {
    /// Adds another shard's counters into this one.
    pub fn absorb(&mut self, other: &SweepPerf) {
        self.snapshots += other.snapshots;
        self.pages_shared += other.pages_shared;
        self.pages_copied += other.pages_copied;
        self.clone_bytes_avoided += other.clone_bytes_avoided;
        self.snapshots_reused += other.snapshots_reused;
        self.sim_cycles += other.sim_cycles;
        self.sched.absorb(&other.sched);
    }

    /// Records one crash image against the live system's media stats
    /// (taken just before the image): every resident page starts shared;
    /// the image's COW counter delta says how many the overlay copied.
    fn record_snapshot(&mut self, resident_before: usize, copies_before: u64, copies_after: u64) {
        let copied = copies_after - copies_before;
        let shared = (resident_before as u64).saturating_sub(copied);
        self.snapshots += 1;
        self.pages_shared += shared;
        self.pages_copied += copied;
        self.clone_bytes_avoided += shared * PAGE_BYTES as u64;
    }
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
    let reference = reference_run(cfg);
    let points = plan_points(reference.total_cycles, &reference.event_cycles, &cfg.grid);
    let shards = shards.clamp(1, points.len().max(1));
    let chunk = points.len().div_ceil(shards).max(1);
    let mut out: Vec<SweepShard> = points
        .chunks(chunk)
        .map(|c| SweepShard {
            cfg: cfg.clone(),
            points: c.to_vec(),
            lossy_final: false,
        })
        .collect();
    if out.is_empty() {
        out.push(SweepShard {
            cfg: cfg.clone(),
            points: Vec::new(),
            lossy_final: false,
        });
    }
    if !cfg.expects_consistent() {
        out.last_mut().expect("at least one shard").lossy_final = true;
    }
    out
}

/// Runs one shard: forward-runs a fresh machine to each of its points
/// (ascending), taking a non-destructive [`System::crash_image`] at each
/// — no system clones anywhere on this path.
#[must_use]
pub fn sweep_shard(shard: &SweepShard) -> ShardOutcome {
    let cfg = &shard.cfg;
    let expects_consistent = cfg.expects_consistent();
    let (mut w, mut sys) = build(cfg);
    let mut cursor = RunCursor::new(cfg.cfg.cores);
    let mut failures = Vec::new();
    let mut negative_points = 0;
    let mut negative_signatures = 0;
    let mut perf = SweepPerf::default();
    // Verdict memo per battery state: consecutive points frequently step
    // zero ops (boundary triples) or touch nothing the image reads, and
    // an unchanged epoch *proves* the image is byte-identical to the
    // previous point's, so the snapshot and checker run are skipped.
    let mut memo: Option<(u64, RecoveryReport)> = None;
    let mut memo_dropped: Option<(u64, RecoveryReport)> = None;
    for &p in &shard.points {
        sys.run_until(w.as_mut(), &mut cursor, StopAt::Cycle(p));
        let report = examine_crash(&sys, cfg, true, &mut memo, &mut perf);
        if expects_consistent {
            if !report.ok() {
                failures.push(CrashFailure {
                    cycle: p,
                    battery_dropped: false,
                    report: report.clone(),
                });
            }
        } else {
            negative_points += 1;
            if !report.ok() {
                negative_signatures += 1;
            }
        }
        if cfg.battery_oracle() {
            negative_points += 1;
            let dropped = examine_crash(&sys, cfg, false, &mut memo_dropped, &mut perf);
            // A dead battery must lose updates relative to the healthy
            // crash at the same cycle: either the image is torn, or fewer
            // elements survive.
            if !dropped.ok() || dropped.recovered < report.recovered {
                negative_signatures += 1;
            }
        }
    }

    if shard.lossy_final {
        // Final differential: run the lossy machine to completion and
        // compare its recovered count against the same pair under the
        // mode's correct discipline. A machine that skips the required
        // flushes/barriers must come up short (or torn).
        negative_points += 1;
        sys.run_until(w.as_mut(), &mut cursor, StopAt::End);
        let lossy_final = examine_crash(&sys, cfg, true, &mut None, &mut perf);
        let twin_final = {
            let twin = cfg.consistent_twin();
            let (mut tw, mut tsys) = build(&twin);
            let mut tcursor = RunCursor::new(twin.cfg.cores);
            tsys.run_until(tw.as_mut(), &mut tcursor, StopAt::End);
            let image = tsys.crash_image(true);
            verify_recovery_report(twin.workload, &image, &twin.cfg, twin.params)
        };
        if !lossy_final.ok() || lossy_final.recovered < twin_final.recovered {
            negative_signatures += 1;
        }
    }

    perf.sim_cycles += sys.cycle();
    perf.sched.absorb(sys.sched_profile());
    ShardOutcome {
        points: shard.points.len(),
        failures,
        negative_points,
        negative_signatures,
        perf,
    }
}

/// The recovery verdict for a crash at `sys`'s current cycle, with the
/// battery healthy or dropped. `memo` holds the last verdict for this
/// battery state and the image epoch it was taken at: an unchanged epoch
/// proves the image byte-identical, so the verdict is reused without a
/// snapshot; otherwise the image is snapshotted, checked and memoized.
fn examine_crash(
    sys: &System,
    cfg: &SweepConfig,
    battery_ok: bool,
    memo: &mut Option<(u64, RecoveryReport)>,
    perf: &mut SweepPerf,
) -> RecoveryReport {
    let epoch = sys.crash_image_epoch(battery_ok);
    if let Some((e, r)) = memo {
        if *e == epoch {
            perf.snapshots_reused += 1;
            return r.clone();
        }
    }
    let (resident, copies_before) = sys.media_cow_stats();
    let image = sys.crash_image(battery_ok);
    perf.record_snapshot(resident, copies_before, image.as_store().cow_page_copies());
    let r = verify_recovery_report(cfg.workload, &image, &cfg.cfg, cfg.params);
    *memo = Some((epoch, r.clone()));
    r
}

/// Folds per-shard outcomes (in plan order) into the configuration's
/// [`SweepOutcome`] — identical to what a 1-shard serial sweep produces.
#[must_use]
pub fn merge_shards(cfg: &SweepConfig, shards: &[ShardOutcome]) -> SweepOutcome {
    let mut points = 0;
    let mut failures = Vec::new();
    let mut negative_points = 0;
    let mut negative_signatures = 0;
    let mut perf = SweepPerf::default();
    for s in shards {
        points += s.points;
        failures.extend(s.failures.iter().cloned());
        negative_points += s.negative_points;
        negative_signatures += s.negative_signatures;
        perf.absorb(&s.perf);
    }
    SweepOutcome {
        label: cfg.label(),
        workload: cfg.workload,
        mode: cfg.mode,
        expects_consistent: cfg.expects_consistent(),
        oracle_required: lost_updates_observable(cfg.workload),
        points,
        failures,
        negative_points,
        negative_signatures,
        perf,
    }
}

/// Runs the full two-pass sweep for one configuration, serially (the
/// single-shard case of [`plan_shards`] + [`sweep_shard`]).
#[must_use]
pub fn sweep(cfg: &SweepConfig) -> SweepOutcome {
    let shards = plan_shards(cfg, 1);
    let partials: Vec<ShardOutcome> = shards.iter().map(sweep_shard).collect();
    merge_shards(cfg, &partials)
}

/// Crashes one deterministic execution at each of `points` (ascending)
/// via non-destructive [`System::crash_image`], returning the first
/// failing point. `battery_dropped` selects the crash variant. The
/// shrinker's workhorse.
#[must_use]
pub fn first_failure_at(
    cfg: &SweepConfig,
    battery_dropped: bool,
    points: &[Cycle],
) -> Option<CrashFailure> {
    let (mut w, mut sys) = build(cfg);
    let mut cursor = RunCursor::new(cfg.cfg.cores);
    for &p in points {
        sys.run_until(w.as_mut(), &mut cursor, StopAt::Cycle(p));
        let image = sys.crash_image(!battery_dropped);
        let report = verify_recovery_report(cfg.workload, &image, &cfg.cfg, cfg.params);
        if !report.ok() {
            return Some(CrashFailure {
                cycle: p,
                battery_dropped,
                report,
            });
        }
    }
    None
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
