//! Differential conformance driver: the axiomatic model vs. the
//! simulator, shape by shape.
//!
//! For every generated litmus shape and every [`PersistencyMode`]:
//!
//! 1. [`evaluate`] computes the model's allowed/forbidden outcome
//!    partition (with a witness per forbidden outcome).
//! 2. The shape is compiled onto the simulator under several
//!    interleavings and crash-swept two ways by the crashfuzz engine,
//!    which images a point only when its crash image changed since the
//!    last: at every op boundary ([`prefix_images`]), and at planned
//!    cycles *inside* ops, where drains are in flight
//!    ([`schedule_images`]).
//! 3. Observed post-crash outcomes are diffed against the model in both
//!    directions: an observed outcome the model forbids is a **soundness
//!    violation** (sim bug or model bug — either way a finding); an
//!    allowed outcome never observed is recorded as *coverage*, not
//!    failure (the sim's fixed timing cannot reach every cut the axioms
//!    admit).

use std::collections::BTreeMap;

use bbb_core::{NvmImage, PersistencyMode};
use bbb_crashfuzz::{prefix_images, schedule_images, GridSpec, CRASHFUZZ_SEED};
use bbb_runner::Runner;
use bbb_sim::{AddressMap, SimConfig};

use crate::enumerate::interleavings;
use crate::model::{evaluate, loc_name, Outcome, Prog};

/// Byte offsets (from the persistent heap base) of generated-shape
/// locations: distinct cache blocks in distinct L1/L2 sets, so capacity
/// conflicts between litmus locations cannot mask orderings.
pub const GEN_OFFSETS: [u64; 4] = [0x0000, 0x1040, 0x2080, 0x30C0];

/// Schedules swept per (shape, mode) — an even stride over the full
/// interleaving enumeration when there are more.
pub const MAX_SCHEDULES: usize = 4;

/// The conformance sweep's cycle grid (dense + random + store-boundary
/// points, planned per schedule).
#[must_use]
pub fn conform_grid() -> GridSpec {
    GridSpec::bounded(12, 4, CRASHFUZZ_SEED)
}

/// The machine generated shapes run on: the small test machine widened
/// to the shape's core count.
///
/// # Panics
///
/// Panics if the widened configuration fails validation.
#[must_use]
pub fn conform_config(cores: usize) -> SimConfig {
    let cfg = SimConfig {
        cores,
        ..SimConfig::small_for_tests()
    };
    cfg.validate().expect("conform config");
    cfg
}

/// One sim-shows-forbidden disagreement.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The observed outcome the model forbids.
    pub outcome: Outcome,
    /// Human-readable outcome, e.g. `x=1 y=0`.
    pub outcome_str: String,
    /// Where the sim produced it (schedule index and crash point).
    pub provenance: String,
    /// The model witness explaining why it is forbidden.
    pub witness: String,
}

/// Conformance result of one (shape, mode) cell.
#[derive(Debug, Clone)]
pub struct ModeConform {
    /// Mode under test.
    pub mode: PersistencyMode,
    /// Deduplicated model executions.
    pub executions: usize,
    /// Model-allowed outcomes.
    pub allowed: usize,
    /// Model-forbidden outcomes.
    pub forbidden: usize,
    /// Forbidden outcomes carrying a non-empty witness path (the model
    /// guarantees this equals `forbidden`; reported so the gate can check).
    pub witnessed: usize,
    /// Forbidden outcomes whose witness path holds in every execution.
    pub universal: usize,
    /// Distinct outcomes the sim produced across all sweeps.
    pub observed: usize,
    /// Allowed outcomes the sim actually exhibited (coverage).
    pub covered: usize,
    /// Crash images examined.
    pub crash_points: usize,
    /// Observed-but-forbidden outcomes (must be empty).
    pub violations: Vec<Violation>,
    /// One forbidden outcome's witness, for reporting.
    pub sample_witness: Option<String>,
}

/// Conformance results of one shape across every mode.
#[derive(Debug, Clone)]
pub struct ShapeConform {
    /// Compact litmus notation of the shape.
    pub shape: String,
    /// Core count.
    pub cores: usize,
    /// Store count.
    pub stores: usize,
    /// Per-mode results, in [`PersistencyMode::ALL`] order.
    pub per_mode: Vec<ModeConform>,
}

impl ShapeConform {
    /// Total sim-shows-forbidden disagreements across modes.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.per_mode.iter().map(|m| m.violations.len()).sum()
    }
}

/// Projects a crash image to the shape's outcome vector.
fn project(img: &NvmImage, base: u64, locs: usize) -> Outcome {
    (0..locs)
        .map(|l| img.read_u64(base + GEN_OFFSETS[l]))
        .collect()
}

/// Runs the full differential for one shape: model evaluation plus both
/// sim sweeps, per mode.
///
/// # Panics
///
/// Panics if the shape violates the model's structural limits (store
/// count, duplicate values) or the sim configuration is invalid.
#[must_use]
pub fn run_shape_conform(prog: &Prog) -> ShapeConform {
    let cfg = conform_config(prog.num_cores());
    let base = AddressMap::new(&cfg).persistent_base();
    let locs = prog.num_locs();
    let grid = conform_grid();

    let all_schedules = interleavings(&prog.lens());
    let picked = all_schedules.len().min(MAX_SCHEDULES);
    let picked: Vec<&Vec<usize>> = (0..picked)
        .map(|i| &all_schedules[i * all_schedules.len() / picked])
        .collect();

    let per_mode = PersistencyMode::ALL
        .into_iter()
        .map(|mode| {
            let verdicts = evaluate(prog, mode);
            let mut observed: BTreeMap<Outcome, String> = BTreeMap::new();
            let mut crash_points = 0usize;

            for (si, schedule) in picked.iter().enumerate() {
                let ops = prog.compile(schedule, &GEN_OFFSETS, base);
                // Op-boundary sweep: one machine stepped op by op.
                for (k, img) in prefix_images(&cfg, mode, &ops).iter().enumerate() {
                    let Some(img) = img else { continue };
                    crash_points += 1;
                    observed
                        .entry(project(img, base, locs))
                        .or_insert_with(|| format!("schedule {si}, after op {k}"));
                }
                // Cycle-granular sweep through the workload bridge: the
                // crashfuzz planner straddles every persisting-store
                // boundary and crashes mid-op.
                for (pi, img) in schedule_images(&cfg, mode, &ops, &grid).iter().enumerate() {
                    crash_points += 1;
                    observed
                        .entry(project(img, base, locs))
                        .or_insert_with(|| format!("schedule {si}, cycle point {pi}"));
                }
            }

            let covered = observed
                .keys()
                .filter(|o| verdicts.allowed.contains(*o))
                .count();
            let violations: Vec<Violation> = observed
                .iter()
                .filter(|(o, _)| !verdicts.allowed.contains(*o))
                .map(|(o, provenance)| {
                    let outcome_str = outcome_str(o);
                    let witness = verdicts.forbidden.get(o).map_or_else(
                        || "outcome outside the model universe".to_owned(),
                        |w| w.to_string(),
                    );
                    Violation {
                        outcome: o.clone(),
                        outcome_str,
                        provenance: provenance.clone(),
                        witness,
                    }
                })
                .collect();
            let sample_witness = verdicts
                .forbidden
                .iter()
                .next()
                .map(|(o, w)| format!("{} forbidden — {w}", outcome_str(o)));

            ModeConform {
                mode,
                executions: verdicts.executions,
                allowed: verdicts.allowed.len(),
                forbidden: verdicts.forbidden.len(),
                witnessed: verdicts
                    .forbidden
                    .values()
                    .filter(|w| !w.path.is_empty())
                    .count(),
                universal: verdicts.forbidden.values().filter(|w| w.universal).count(),
                observed: observed.len(),
                covered,
                crash_points,
                violations,
                sample_witness,
            }
        })
        .collect();

    ShapeConform {
        shape: prog.display(),
        cores: prog.num_cores(),
        stores: prog.stores().len(),
        per_mode,
    }
}

/// Human-readable outcome, e.g. `x=1 y=0`.
#[must_use]
pub fn outcome_str(outcome: &Outcome) -> String {
    outcome
        .iter()
        .enumerate()
        .map(|(l, v)| format!("{}={v}", loc_name(l)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs the differential over a whole suite on the experiment-runner
/// worker pool, in suite order.
#[must_use]
pub fn run_suite(progs: &[Prog]) -> Vec<ShapeConform> {
    Runner::from_env().map(progs, run_shape_conform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{generate, GenBounds};
    use crate::model::Inst;

    #[test]
    fn small_generated_suite_has_zero_violations() {
        let bounds = GenBounds {
            cores: 2,
            locs: 2,
            max_insts: 2,
            max_shapes: 12,
        };
        for (i, prog) in generate(&bounds).iter().enumerate() {
            let r = run_shape_conform(prog);
            for m in &r.per_mode {
                assert!(
                    m.violations.is_empty(),
                    "shape {i} ({}) under {:?}: {:?}",
                    r.shape,
                    m.mode,
                    m.violations[0].outcome_str
                );
                assert_eq!(
                    m.witnessed, m.forbidden,
                    "every forbidden outcome witnessed"
                );
                assert!(m.observed >= 1, "at least the empty image is observed");
                assert!(m.covered >= 1);
            }
        }
    }

    #[test]
    fn model_evaluation_is_pure_across_parallel_workers() {
        // The same shape evaluated on every worker of the pool must
        // yield the identical verdict partition.
        let prog = Prog {
            cores: vec![
                vec![
                    Inst::St { loc: 0, val: 1 },
                    Inst::Fence,
                    Inst::St { loc: 1, val: 1 },
                ],
                vec![Inst::Ld { loc: 1 }],
            ],
        };
        let cells: Vec<(Prog, PersistencyMode)> = PersistencyMode::ALL
            .into_iter()
            .flat_map(|m| std::iter::repeat_n((prog.clone(), m), 4))
            .collect();
        let results = Runner::from_env().map(&cells, |(p, m)| evaluate(p, *m));
        for chunk in results.chunks(4) {
            for r in &chunk[1..] {
                assert_eq!(*r, chunk[0]);
            }
        }
    }

    #[test]
    fn sim_covers_every_prefix_under_battery_modes() {
        // Wx1;Wy1 single core: the op-boundary sweep must observe all
        // three prefixes under pov-pop modes — full coverage.
        let prog = Prog {
            cores: vec![vec![
                Inst::St { loc: 0, val: 1 },
                Inst::St { loc: 1, val: 1 },
            ]],
        };
        let r = run_shape_conform(&prog);
        for m in &r.per_mode {
            if matches!(
                m.mode,
                PersistencyMode::Eadr
                    | PersistencyMode::BbbMemorySide
                    | PersistencyMode::BbbProcessorSide
            ) {
                assert_eq!(m.allowed, 3);
                assert_eq!(m.forbidden, 1);
                assert_eq!(m.covered, 3, "every τ-prefix is reachable");
                assert!(m.violations.is_empty());
            }
        }
    }
}
