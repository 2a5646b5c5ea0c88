//! Persistency litmus shapes and the crash-sweep engine that evaluates
//! them.
//!
//! Each [`Shape`] is a tiny Px86-style program in the declarative litmus
//! IR ([`Prog`]) plus a pinned global schedule and a *forbidden* outcome
//! (the lost-causality result the shape probes for). The engine runs
//! every shape against every [`PersistencyMode`] twice:
//!
//! 1. **Crash sweep** — one machine stepped through the compiled op
//!    sequence and crashed non-destructively after every prefix
//!    ([`prefix_images`]); the forbidden outcome is checked against every
//!    image. An observation decides the *allowed/forbidden* verdict
//!    empirically.
//! 2. **Checker pass** — one traced full run through
//!    [`PersistOrderChecker`], which must report zero violations for the
//!    battery modes and at least one witness where the shape deliberately
//!    breaks a software discipline (flush-stripped PMEM, barrier-stripped
//!    BEP).
//!
//! The same [`Prog`] also feeds the axiomatic side ([`crate::model`]):
//! the single-core shapes must reproduce this table's verdicts exactly,
//! and every swept image must be model-allowed. The cross-core `mp`
//! shapes are the one deliberate divergence: their verdicts here are
//! *schedule-pinned* (the producer's store is scheduled first), while
//! the model quantifies over every interleaving and so allows what the
//! pinned schedule forbids — see DESIGN.md's ambiguity ledger.

use bbb_core::{PersistencyMode, System};
use bbb_crashfuzz::prefix_images;
use bbb_mem::NvmImage;
use bbb_sim::{AddressMap, SimConfig};

use crate::checker::{CheckReport, PersistOrderChecker};
use crate::model::{Inst, Loc, Prog};

/// Short mode label for table rows: the crashfuzz mode tag.
pub use bbb_crashfuzz::mode_tag as mode_label;

/// Byte offsets (from the persistent heap base) of the locations the
/// shapes use. All in distinct cache blocks.
const X: u64 = 0x0000;
const Y: u64 = 0x1000;
const DATA: u64 = 0x2000;
const FLAG: u64 = 0x3000;
const PAD2: u64 = 0x4000;
const PAD3: u64 = 0x5000;
/// Deliberately NOT another 0x1000 stride: the small config's L2 maps
/// 0x1000-strided blocks to one set, and a fifth way-conflicting line
/// would evict DATA's dirty line to media, masking the mp anomaly.
const PAD4: u64 = 0x6040;

/// Whether the forbidden outcome may legally appear in some crash image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The outcome is reachable under this mode's persistency model.
    Allowed,
    /// The mode's guarantee rules the outcome out; observing it is a bug.
    Forbidden,
}

impl Verdict {
    /// Table label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Verdict::Allowed => "allowed",
            Verdict::Forbidden => "forbidden",
        }
    }
}

/// Expected behavior of one (shape, mode) cell.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Whether the forbidden outcome may appear.
    pub verdict: Verdict,
    /// Whether the checker must produce at least one ordering witness
    /// (true exactly for the deliberately-broken discipline cells).
    pub witness: bool,
}

const fn allowed(witness: bool) -> Expect {
    Expect {
        verdict: Verdict::Allowed,
        witness,
    }
}

const fn forbidden() -> Expect {
    Expect {
        verdict: Verdict::Forbidden,
        witness: false,
    }
}

/// One litmus cell: a declarative IR program, the pinned global schedule
/// it is swept under (per-core local clocks make any interleaving legal),
/// the loc→offset map, the forbidden outcome, and the per-mode
/// expectation.
pub struct Shape {
    /// Short name (table row key).
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// The program, in the shared litmus IR.
    pub prog: Prog,
    /// Global schedule: core ids, each consuming that core's next
    /// instruction. Pinned so the empirical verdicts are reproducible.
    pub schedule: Vec<usize>,
    /// Byte offset of each location from the persistent heap base.
    pub offsets: &'static [u64],
    /// The forbidden outcome, as `(loc, value)` conjuncts over the crash
    /// image (0 = never persisted).
    pub forbidden_outcome: &'static [(Loc, u64)],
    /// Expected verdict and witness requirement under `mode`.
    pub expect: fn(PersistencyMode) -> Expect,
}

impl Shape {
    /// True when `img` shows the forbidden outcome.
    #[must_use]
    pub fn shows_forbidden(&self, img: &NvmImage, base: u64) -> bool {
        self.forbidden_outcome
            .iter()
            .all(|&(loc, val)| img.read_u64(base + self.offsets[loc]) == val)
    }
}

/// `x`/`y` locations of the same-core store-pair shapes.
const XY_OFFSETS: &[u64] = &[X, Y];
/// The younger store persisted, the older lost.
const XY_FORBIDDEN: &[(Loc, u64)] = &[(1, 1), (0, 0)];

/// `data`/`flag`/pad locations of the message-passing shapes.
const MP_OFFSETS: &[u64] = &[DATA, FLAG, PAD2, PAD3, PAD4];
/// The flag persisted but the data it published was lost.
const MP_FORBIDDEN: &[(Loc, u64)] = &[(1, 1), (0, 0)];

/// Consumer core of the message-passing shapes: wait, read the data,
/// publish a flag, then pad with enough stores to fill a small persist
/// buffer so its capacity drain burst pushes the flag to NVMM.
fn mp_consumer() -> Vec<Inst> {
    vec![
        Inst::Delay { cycles: 3000 },
        Inst::Ld { loc: 0 },
        Inst::St { loc: 1, val: 1 },
        Inst::St { loc: 2, val: 1 },
        Inst::St { loc: 3, val: 1 },
        Inst::St { loc: 4, val: 1 },
        Inst::Delay { cycles: 6000 },
        Inst::Delay { cycles: 2000 },
        Inst::Delay { cycles: 2000 },
        Inst::Delay { cycles: 2000 },
    ]
}

/// The producer-first schedule both mp shapes pin: every producer op,
/// then every consumer op (the sim's per-core clocks and the delays
/// provide the actual concurrency).
fn mp_schedule(producer_len: usize) -> Vec<usize> {
    let mut s = vec![0; producer_len];
    s.extend(std::iter::repeat_n(1, mp_consumer().len()));
    s
}

/// A single-core program under the sequential schedule.
fn single(insts: Vec<Inst>) -> (Prog, Vec<usize>) {
    let schedule = vec![0; insts.len()];
    (Prog { cores: vec![insts] }, schedule)
}

/// The canonical shape set: same-core store pairs under the three software
/// disciplines, plus cross-core publish with and without the epoch
/// barrier.
#[must_use]
pub fn shapes() -> Vec<Shape> {
    let (ss, ss_sched) = single(vec![
        Inst::St { loc: 0, val: 1 },
        Inst::St { loc: 1, val: 1 },
    ]);
    let (ss_clwb, ss_clwb_sched) = single(vec![
        Inst::St { loc: 0, val: 1 },
        Inst::St { loc: 1, val: 1 },
        Inst::Fl { loc: 1 },
        Inst::Fence,
    ]);
    let (sfs, sfs_sched) = single(vec![
        Inst::St { loc: 0, val: 1 },
        Inst::Fl { loc: 0 },
        Inst::Fence,
        Inst::St { loc: 1, val: 1 },
        Inst::Fl { loc: 1 },
        Inst::Fence,
    ]);
    let (epoch, epoch_sched) = single(vec![
        Inst::St { loc: 0, val: 1 },
        Inst::Fence,
        Inst::St { loc: 1, val: 1 },
    ]);
    let mp = Prog {
        cores: vec![
            vec![
                Inst::St {
                    loc: 0,
                    val: 0xD0_0D,
                },
                Inst::Delay { cycles: 9000 },
            ],
            mp_consumer(),
        ],
    };
    let mp_barrier = Prog {
        cores: vec![
            vec![
                Inst::St {
                    loc: 0,
                    val: 0xD0_0D,
                },
                Inst::Fence,
                Inst::Delay { cycles: 9000 },
            ],
            mp_consumer(),
        ],
    };
    vec![
        Shape {
            name: "ss",
            desc: "st x; st y (no flushes)",
            prog: ss,
            schedule: ss_sched,
            offsets: XY_OFFSETS,
            forbidden_outcome: XY_FORBIDDEN,
            expect: |m| match m {
                PersistencyMode::Pmem | PersistencyMode::Bep => allowed(false),
                _ => forbidden(),
            },
        },
        Shape {
            name: "ss+clwb_y",
            desc: "st x; st y; clwb y; sfence (flush-stripped PMEM, paper Fig. 2)",
            prog: ss_clwb,
            schedule: ss_clwb_sched,
            offsets: XY_OFFSETS,
            forbidden_outcome: XY_FORBIDDEN,
            expect: |m| match m {
                // The younger store is flushed, the older is not: strict
                // PMEM must flag the persist-order inversion.
                PersistencyMode::Pmem => allowed(true),
                // BEP allows the intra-epoch reorder without a witness.
                PersistencyMode::Bep => allowed(false),
                _ => forbidden(),
            },
        },
        Shape {
            name: "s+f+s",
            desc: "st x; clwb x; sfence; st y; clwb y; sfence (full discipline)",
            prog: sfs,
            schedule: sfs_sched,
            offsets: XY_OFFSETS,
            forbidden_outcome: XY_FORBIDDEN,
            expect: |_| forbidden(),
        },
        Shape {
            name: "epoch",
            desc: "st x; sfence; st y (epoch barrier, no flushes)",
            prog: epoch,
            schedule: epoch_sched,
            offsets: XY_OFFSETS,
            forbidden_outcome: XY_FORBIDDEN,
            expect: |m| match m {
                PersistencyMode::Pmem => allowed(false),
                _ => forbidden(),
            },
        },
        Shape {
            name: "mp",
            desc: "c0: st data | c1: ld data; st flag; pads (barrier-stripped BEP)",
            schedule: mp_schedule(mp.cores[0].len()),
            prog: mp,
            offsets: MP_OFFSETS,
            forbidden_outcome: MP_FORBIDDEN,
            expect: |m| match m {
                PersistencyMode::Pmem => allowed(false),
                // The flag reaches NVMM through the volatile buffer's
                // capacity drain while the observed data does not: the
                // checker must produce a cross-core witness.
                PersistencyMode::Bep => allowed(true),
                _ => forbidden(),
            },
        },
        Shape {
            name: "mp+barrier",
            desc: "c0: st data; sfence | c1: ld data; st flag; pads (proper BEP)",
            schedule: mp_schedule(mp_barrier.cores[0].len()),
            prog: mp_barrier,
            offsets: MP_OFFSETS,
            forbidden_outcome: MP_FORBIDDEN,
            expect: |m| match m {
                PersistencyMode::Pmem => allowed(false),
                _ => forbidden(),
            },
        },
    ]
}

/// Outcome of one (shape, mode) cell.
#[derive(Debug)]
pub struct LitmusRow {
    /// Shape name.
    pub shape: &'static str,
    /// Mode under test.
    pub mode: PersistencyMode,
    /// Expected behavior.
    pub expect: Expect,
    /// Crash points swept (op-sequence prefixes).
    pub crash_points: usize,
    /// Crash points whose image showed the forbidden outcome.
    pub observed: usize,
    /// First crash point (prefix length) that showed it, if any.
    pub first_observed: Option<usize>,
    /// Checker report from the traced full run.
    pub report: CheckReport,
}

impl LitmusRow {
    /// True when the observation matches the verdict and the checker
    /// produced exactly the witnesses the cell requires.
    #[must_use]
    pub fn pass(&self) -> bool {
        let verdict_ok = match self.expect.verdict {
            Verdict::Forbidden => self.observed == 0,
            Verdict::Allowed => true,
        };
        let witness_ok = if self.expect.witness {
            self.report.violations() >= 1
        } else {
            self.report.ok()
        };
        verdict_ok && witness_ok
    }

    /// Compact observed-behavior label for the verdict table.
    #[must_use]
    pub fn observed_label(&self) -> String {
        if self.observed > 0 {
            format!("hit @{}", self.first_observed.unwrap_or(0))
        } else {
            "never".to_owned()
        }
    }
}

/// The machine the litmus programs run on: the small two-core
/// configuration, whose four-entry persist buffers make capacity-threshold
/// drains reachable by a handful of stores.
#[must_use]
pub fn litmus_config() -> SimConfig {
    SimConfig::small_for_tests()
}

/// Runs one shape under one mode: the crash sweep plus the traced checker
/// pass.
///
/// # Panics
///
/// Panics if the configuration is rejected by [`System::new`].
#[must_use]
pub fn run_shape(shape: &Shape, mode: PersistencyMode) -> LitmusRow {
    let cfg = litmus_config();
    let base = AddressMap::new(&cfg).persistent_base();
    let ops = shape.prog.compile(&shape.schedule, shape.offsets, base);

    let mut observed = 0usize;
    let mut first_observed = None;
    let mut shows = false;
    for (k, img) in prefix_images(&cfg, mode, &ops).iter().enumerate() {
        // No image: the prefix crashes to the previous prefix's image.
        if let Some(img) = img {
            shows = shape.shows_forbidden(img, base);
        }
        if shows {
            observed += 1;
            first_observed.get_or_insert(k);
        }
    }

    let mut sys = System::new(cfg.clone(), mode).expect("litmus config");
    sys.set_tracing(true);
    for (core, op) in &ops {
        sys.step_op(*core, op);
    }
    sys.crash_now();
    let events = sys.take_events();
    let report = PersistOrderChecker::run(mode, cfg.cores, &events);

    LitmusRow {
        shape: shape.name,
        mode,
        expect: (shape.expect)(mode),
        crash_points: ops.len() + 1,
        observed,
        first_observed,
        report,
    }
}

/// Every shape against every persistency mode, in table order.
#[must_use]
pub fn run_all() -> Vec<LitmusRow> {
    let mut rows = Vec::new();
    for shape in &shapes() {
        for mode in PersistencyMode::ALL {
            rows.push(run_shape(shape, mode));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_meets_its_expectation() {
        for row in run_all() {
            assert!(
                row.pass(),
                "{} under {}: expected {} (witness: {}), observed {} with {} violations",
                row.shape,
                mode_label(row.mode),
                row.expect.verdict.label(),
                row.expect.witness,
                row.observed_label(),
                row.report.violations()
            );
        }
    }

    #[test]
    fn flush_stripped_pmem_yields_a_strict_order_witness() {
        let shapes = shapes();
        let shape = shapes.iter().find(|s| s.name == "ss+clwb_y").unwrap();
        let row = run_shape(shape, PersistencyMode::Pmem);
        assert!(row.report.violations() >= 1);
        assert_eq!(row.report.witnesses[0].rule, "strict-order");
        assert!(
            !row.report.witnesses[0].path.is_empty(),
            "witness has a path"
        );
    }

    #[test]
    fn barrier_stripped_bep_yields_a_cross_core_witness() {
        let shapes = shapes();
        let shape = shapes.iter().find(|s| s.name == "mp").unwrap();
        let row = run_shape(shape, PersistencyMode::Bep);
        assert!(row.report.violations() >= 1, "volatile-buffer hazard found");
        let w = &row.report.witnesses[0];
        assert_eq!(w.rule, "cross-core-hb");
        assert!(
            w.path.len() >= 2,
            "witness carries the happens-before path: {:?}",
            w.path
        );
    }

    #[test]
    fn single_core_shapes_reproduce_the_model_verdicts() {
        // The four same-core shapes' PR-3 verdict table must fall out of
        // the axiomatic model exactly: single-core τ order is program
        // order in every interleaving, so the empirical schedule loses
        // no generality.
        for shape in shapes().iter().filter(|s| s.prog.num_cores() == 1) {
            for mode in PersistencyMode::ALL {
                let verdicts = crate::model::evaluate(&shape.prog, mode);
                let mut outcome = vec![0u64; shape.prog.num_locs()];
                for &(loc, val) in shape.forbidden_outcome {
                    outcome[loc] = val;
                }
                let model_forbids = verdicts.forbidden.contains_key(&outcome);
                let table_forbids = (shape.expect)(mode).verdict == Verdict::Forbidden;
                assert_eq!(
                    model_forbids,
                    table_forbids,
                    "{} under {}: model and verdict table disagree",
                    shape.name,
                    mode_label(mode)
                );
            }
        }
    }

    #[test]
    fn every_swept_image_is_model_allowed() {
        // Soundness over the legacy shapes, mp included: each image of
        // the pinned-schedule sweep must land in the model's allowed set
        // (the converse does not hold — the model quantifies over every
        // interleaving, the sweep pins one).
        let cfg = litmus_config();
        let base = AddressMap::new(&cfg).persistent_base();
        for shape in &shapes() {
            let ops = shape.prog.compile(&shape.schedule, shape.offsets, base);
            for mode in PersistencyMode::ALL {
                let verdicts = crate::model::evaluate(&shape.prog, mode);
                for k in 0..=ops.len() {
                    let mut sys = System::new(cfg.clone(), mode).expect("litmus config");
                    for (core, op) in &ops[..k] {
                        sys.step_op(*core, op);
                    }
                    let img = sys.crash_now();
                    let outcome: Vec<u64> = (0..shape.prog.num_locs())
                        .map(|l| img.read_u64(base + shape.offsets[l]))
                        .collect();
                    assert!(
                        verdicts.allowed.contains(&outcome),
                        "{} under {} after {k} ops: sim outcome {outcome:?} is model-forbidden",
                        shape.name,
                        mode_label(mode)
                    );
                }
            }
        }
    }

    #[test]
    fn battery_modes_satisfy_pov_pop_on_every_shape() {
        for shape in &shapes() {
            for mode in [
                PersistencyMode::Eadr,
                PersistencyMode::BbbMemorySide,
                PersistencyMode::BbbProcessorSide,
            ] {
                let row = run_shape(shape, mode);
                assert!(
                    row.report.ok(),
                    "{} under {}: {:?}",
                    shape.name,
                    mode_label(mode),
                    row.report.witnesses
                );
            }
        }
    }
}
