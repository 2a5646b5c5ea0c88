//! Declarative experiment points.
//!
//! An [`ExperimentSpec`] captures everything that determines a simulation
//! point's result: the workload, the persistency mode, the full machine
//! configuration, the workload sizing, whether epoch barriers are
//! inserted, and the op budget. Two specs that agree on all of those are
//! the *same point* — the [`Runner`](crate::Runner) runs such duplicates
//! once and shares the result. The `label` is display-only and excluded
//! from point identity.

use bbb_core::PersistencyMode;
use bbb_sim::{DrainPolicy, SimConfig};
use bbb_workloads::{WorkloadKind, WorkloadParams};

use crate::Scale;

/// The master seed every paper experiment uses, so results are
/// reproducible across runs, machines, and thread counts.
pub const PAPER_SEED: u64 = 0xBBB_5EED;

/// One declarative simulation point of an experiment sweep.
///
/// Construct with [`ExperimentSpec::new`] and refine with the builder
/// methods:
///
/// ```
/// use bbb_core::PersistencyMode;
/// use bbb_runner::{ExperimentSpec, Scale};
/// use bbb_sim::SimConfig;
/// use bbb_workloads::WorkloadKind;
///
/// let scale = Scale { initial: 100, per_core_ops: 10 };
/// let cfg = SimConfig::small_for_tests();
/// let spec = ExperimentSpec::new(WorkloadKind::Ctree, PersistencyMode::BbbMemorySide, &cfg, scale)
///     .with_entries(1024)
///     .labeled("BBB (1024)");
/// assert_eq!(spec.cfg.bbpb.entries, 1024);
/// assert_eq!(spec.label, "BBB (1024)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Display label for progress and reports (not part of point identity).
    pub label: String,
    /// Which Table IV workload to run.
    pub workload: WorkloadKind,
    /// Which persistency machine to run it on.
    pub mode: PersistencyMode,
    /// The complete simulated-machine configuration.
    pub cfg: SimConfig,
    /// Workload sizing and seeding.
    pub params: WorkloadParams,
    /// Insert an epoch barrier after every high-level operation (set
    /// automatically for modes that require it, e.g. BEP).
    pub epoch_barriers: bool,
    /// Total committed-op budget (`u64::MAX` = run to completion).
    pub op_budget: u64,
}

impl ExperimentSpec {
    /// A run-to-completion point at the given scale, seeded with
    /// [`PAPER_SEED`], instrumented with `clwb`/`sfence` exactly when the
    /// mode requires software flushes, and with epoch barriers exactly
    /// when the mode requires them.
    #[must_use]
    pub fn new(
        workload: WorkloadKind,
        mode: PersistencyMode,
        cfg: &SimConfig,
        scale: Scale,
    ) -> Self {
        Self {
            label: format!("{}/{mode}", workload.name()),
            workload,
            mode,
            cfg: cfg.clone(),
            params: WorkloadParams {
                initial: scale.initial,
                per_core_ops: scale.per_core_ops,
                seed: PAPER_SEED,
                instrument: mode.requires_flushes(),
            },
            epoch_barriers: mode.requires_epoch_barriers(),
            op_budget: u64::MAX,
        }
    }

    /// Replaces the display label.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Overrides the bbPB entry count.
    #[must_use]
    pub fn with_entries(mut self, entries: usize) -> Self {
        self.cfg.bbpb.entries = entries;
        self
    }

    /// Overrides the bbPB drain policy.
    #[must_use]
    pub fn with_drain_policy(mut self, policy: DrainPolicy) -> Self {
        self.cfg.bbpb.drain_policy = policy;
        self
    }

    /// Overrides the simulated core count (exploration drivers sweep
    /// 8–64).
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cfg.cores = cores;
        self
    }

    /// Overrides the memory controller's write-pending-queue depth.
    #[must_use]
    pub fn with_wpq_entries(mut self, entries: usize) -> Self {
        self.cfg.mem.wpq_entries = entries;
        self
    }

    /// Turns the persistent-writeback-suppression endurance optimization
    /// on or off.
    #[must_use]
    pub fn with_writeback_suppression(mut self, on: bool) -> Self {
        self.cfg.suppress_persistent_writebacks = on;
        self
    }

    /// Forces epoch barriers on or off (BEP always runs with them on,
    /// regardless of this override).
    #[must_use]
    pub fn with_epoch_barriers(mut self, on: bool) -> Self {
        self.epoch_barriers = on || self.mode.requires_epoch_barriers();
        self
    }

    /// Replaces the workload sizing/seeding wholesale (exploration
    /// drivers). `instrument` is forced back to the mode's requirement.
    #[must_use]
    pub fn with_params(mut self, params: WorkloadParams) -> Self {
        self.params = WorkloadParams {
            instrument: self.mode.requires_flushes(),
            ..params
        };
        self
    }

    /// Caps the run at `ops` committed operations.
    #[must_use]
    pub fn with_op_budget(mut self, ops: u64) -> Self {
        self.op_budget = ops;
        self
    }

    /// True when `other` denotes the identical simulation point (labels
    /// are display-only and ignored).
    #[must_use]
    pub fn same_point(&self, other: &Self) -> bool {
        self.workload == other.workload
            && self.mode == other.mode
            && self.cfg == other.cfg
            && self.params == other.params
            && self.epoch_barriers == other.epoch_barriers
            && self.op_budget == other.op_budget
    }
}

// The runner moves specs across worker threads; keep that property
// checked at compile time (no Rc/RefCell may creep into the spec graph).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExperimentSpec>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale {
            initial: 64,
            per_core_ops: 8,
        }
    }

    #[test]
    fn new_spec_matches_mode_requirements() {
        let cfg = SimConfig::small_for_tests();
        let pmem = ExperimentSpec::new(WorkloadKind::Ctree, PersistencyMode::Pmem, &cfg, scale());
        assert!(pmem.params.instrument, "PMEM needs clwb/sfence");
        assert!(!pmem.epoch_barriers);

        let bep = ExperimentSpec::new(WorkloadKind::Ctree, PersistencyMode::Bep, &cfg, scale());
        assert!(!bep.params.instrument);
        assert!(bep.epoch_barriers, "BEP needs epoch barriers");

        let bbb = ExperimentSpec::new(
            WorkloadKind::Ctree,
            PersistencyMode::BbbMemorySide,
            &cfg,
            scale(),
        );
        assert!(!bbb.params.instrument);
        assert!(!bbb.epoch_barriers);
        assert_eq!(bbb.params.seed, PAPER_SEED);
        assert_eq!(bbb.op_budget, u64::MAX);
    }

    #[test]
    fn labels_do_not_affect_point_identity() {
        let cfg = SimConfig::small_for_tests();
        let a = ExperimentSpec::new(WorkloadKind::Hashmap, PersistencyMode::Eadr, &cfg, scale());
        let b = a.clone().labeled("baseline");
        assert_ne!(a.label, b.label);
        assert!(a.same_point(&b));
    }

    #[test]
    fn overrides_change_point_identity() {
        let cfg = SimConfig::small_for_tests();
        let a = ExperimentSpec::new(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            scale(),
        );
        assert!(!a.same_point(&a.clone().with_entries(a.cfg.bbpb.entries * 2)));
        assert!(!a.same_point(&a.clone().with_cores(a.cfg.cores + 1)));
        assert!(!a.same_point(&a.clone().with_wpq_entries(a.cfg.mem.wpq_entries * 2)));
        assert!(!a.same_point(&a.clone().with_drain_policy(DrainPolicy::Eager)));
        assert!(!a.same_point(&a.clone().with_writeback_suppression(false)));
        assert!(!a.same_point(&a.clone().with_epoch_barriers(true)));
        assert!(!a.same_point(&a.clone().with_op_budget(10)));
        assert!(a.same_point(&a.clone()));
    }

    #[test]
    fn single_field_changes_never_alias_memo_entries() {
        use bbb_sim::{BbpbConfig, CacheConfig, CoreConfig, MemTiming};

        let cfg = SimConfig::small_for_tests();
        let base = ExperimentSpec::new(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            scale(),
        );

        // Compile-time exhaustiveness guard: destructure every struct the
        // memo key must cover, with no `..` rest pattern. A field added to
        // any of them fails this binding, forcing the variant list below
        // (and `same_point`) to be revisited.
        {
            let SimConfig {
                cores: _,
                core,
                l1d,
                l2: _,
                mem,
                bbpb,
                dram_bytes: _,
                nvmm_bytes: _,
                persistent_heap_bytes: _,
                noc_hop: _,
                battery_backed_sb: _,
                relaxed_sb_drain: _,
                suppress_persistent_writebacks: _,
            } = base.cfg.clone();
            let CoreConfig {
                store_buffer_entries: _,
            } = core;
            let CacheConfig {
                capacity_bytes: _,
                ways: _,
                latency: _,
            } = l1d;
            let MemTiming {
                dram_access: _,
                nvmm_read: _,
                nvmm_write: _,
                wpq_entries: _,
                nvmm_channels: _,
            } = mem;
            let BbpbConfig {
                entries: _,
                drain_policy: _,
                drain_latency: _,
            } = bbpb;
            let WorkloadParams {
                initial: _,
                per_core_ops: _,
                seed: _,
                instrument: _,
            } = base.params;
            let ExperimentSpec {
                label: _,
                workload: _,
                mode: _,
                cfg: _,
                params: _,
                epoch_barriers: _,
                op_budget: _,
            } = base.clone();
        }

        // One variant per public field (`label` excluded by design).
        type FieldMut = (&'static str, fn(&mut ExperimentSpec));
        let muts: Vec<FieldMut> = vec![
            ("workload", |s| s.workload = WorkloadKind::Ctree),
            ("mode", |s| s.mode = PersistencyMode::Eadr),
            ("epoch_barriers", |s| s.epoch_barriers = true),
            ("op_budget", |s| s.op_budget = 17),
            ("params.initial", |s| s.params.initial += 1),
            ("params.per_core_ops", |s| s.params.per_core_ops += 1),
            ("params.seed", |s| s.params.seed += 1),
            ("params.instrument", |s| s.params.instrument = true),
            ("cfg.cores", |s| s.cfg.cores += 1),
            ("cfg.core.store_buffer_entries", |s| {
                s.cfg.core.store_buffer_entries += 1;
            }),
            ("cfg.l1d.capacity_bytes", |s| {
                s.cfg.l1d.capacity_bytes *= 2;
            }),
            ("cfg.l1d.ways", |s| s.cfg.l1d.ways *= 2),
            ("cfg.l1d.latency", |s| s.cfg.l1d.latency += 1),
            ("cfg.l2.capacity_bytes", |s| s.cfg.l2.capacity_bytes *= 2),
            ("cfg.l2.ways", |s| s.cfg.l2.ways *= 2),
            ("cfg.l2.latency", |s| s.cfg.l2.latency += 1),
            ("cfg.mem.dram_access", |s| s.cfg.mem.dram_access += 1),
            ("cfg.mem.nvmm_read", |s| s.cfg.mem.nvmm_read += 1),
            ("cfg.mem.nvmm_write", |s| s.cfg.mem.nvmm_write += 1),
            ("cfg.mem.wpq_entries", |s| s.cfg.mem.wpq_entries *= 2),
            ("cfg.mem.nvmm_channels", |s| s.cfg.mem.nvmm_channels *= 2),
            ("cfg.bbpb.entries", |s| s.cfg.bbpb.entries *= 2),
            ("cfg.bbpb.drain_policy", |s| {
                s.cfg.bbpb.drain_policy = DrainPolicy::Eager;
            }),
            ("cfg.bbpb.drain_latency", |s| {
                s.cfg.bbpb.drain_latency += 1;
            }),
            ("cfg.dram_bytes", |s| s.cfg.dram_bytes *= 2),
            ("cfg.nvmm_bytes", |s| s.cfg.nvmm_bytes *= 2),
            ("cfg.persistent_heap_bytes", |s| {
                s.cfg.persistent_heap_bytes *= 2;
            }),
            ("cfg.noc_hop", |s| s.cfg.noc_hop += 1),
            ("cfg.battery_backed_sb", |s| {
                s.cfg.battery_backed_sb = !s.cfg.battery_backed_sb;
            }),
            ("cfg.relaxed_sb_drain", |s| {
                s.cfg.relaxed_sb_drain = !s.cfg.relaxed_sb_drain;
            }),
            ("cfg.suppress_persistent_writebacks", |s| {
                s.cfg.suppress_persistent_writebacks = !s.cfg.suppress_persistent_writebacks;
            }),
        ];

        let mut specs = vec![base.clone()];
        for (field, f) in muts {
            let mut v = base.clone();
            f(&mut v);
            assert!(
                !base.same_point(&v),
                "a spec differing only in {field} would alias the base's memo entry"
            );
            specs.push(v);
        }
        // The runner's memo cache must see every variant as its own point…
        assert_eq!(crate::unique_points(&specs), specs.len());
        // …while true duplicates still share one.
        specs.push(base.clone());
        assert_eq!(crate::unique_points(&specs), specs.len() - 1);
    }

    #[test]
    fn bep_keeps_barriers_even_when_disabled() {
        let cfg = SimConfig::small_for_tests();
        let bep = ExperimentSpec::new(WorkloadKind::Ctree, PersistencyMode::Bep, &cfg, scale())
            .with_epoch_barriers(false);
        assert!(bep.epoch_barriers);
    }

    #[test]
    fn with_params_preserves_instrumentation_requirement() {
        let cfg = SimConfig::small_for_tests();
        let spec = ExperimentSpec::new(WorkloadKind::Ctree, PersistencyMode::Pmem, &cfg, scale())
            .with_params(WorkloadParams {
                initial: 10,
                per_core_ops: 5,
                seed: 7,
                instrument: false,
            });
        assert!(spec.params.instrument, "mode requirement wins");
        assert_eq!(spec.params.seed, 7);
    }
}
