//! Axiomatic Px86-TSO persistency model over a declarative litmus IR.
//!
//! A litmus program is a tiny per-core instruction sequence ([`Prog`])
//! over abstract locations. The model answers, *statically*, which
//! post-crash NVMM images ([`Outcome`]s) each [`PersistencyMode`] allows:
//!
//! 1. [`crate::enumerate::interleavings`] enumerates every candidate
//!    execution — all merges of the per-core program orders (the
//!    simulator commits architectural state in `step_op` call order, so
//!    schedule order *is* the TSO store order; see DESIGN.md §9 for why
//!    this is the sound direction). [`Executions`] does this once per
//!    shape; nothing in it depends on the mode.
//! 2. Per execution, the mode's axioms induce a *persist-order* relation
//!    over the stores, evaluated once per [`PersistAxiom`]:
//!    * **coherence** (all modes): τ-consecutive stores to the same
//!      location persist in order — a single NVMM line never travels
//!      backwards.
//!    * **pov-pop** (eADR, both BBB organizations): *every* pair of
//!      τ-consecutive stores persists in order — the paper's "point of
//!      visibility = point of persistency". Crash images are exactly
//!      τ-prefixes.
//!    * **flush-fence** (strict PMEM): a store that is covered by a
//!      same-core `clwb` to its line followed by an `sfence` persists
//!      before everything ordered after that fence (Px86-TSO's
//!      `fo; sfence ⊆ pf` lifted to crash cuts).
//!    * **epoch-barrier** (BEP): a fence is an epoch boundary — every
//!      same-core store before it persists before anything after it;
//!      within an epoch, persists are free to reorder.
//! 3. A crash may cut the execution anywhere: allowed images are the
//!    downward-closed subsets of the stores under the persist-order
//!    edges, projected to a per-location value vector.
//!
//! Everything not allowed by *some* execution is **forbidden**, and every
//! forbidden outcome carries a [`ModelWitness`]: a persist-order path
//! from a store the outcome proves unpersisted to a store it proves
//! persisted — the minimal axiom violation a simulator run exhibiting
//! that image would commit.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bbb_core::{Op, PersistencyMode};

use crate::enumerate::interleavings;

/// Abstract location index (each maps to its own cache block).
pub type Loc = usize;

/// Hard cap on stores per program (cut enumeration is `2^stores`).
pub const MAX_STORES: usize = 12;

/// One IR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Inst {
    /// Store `val` to `loc`.
    St {
        /// Destination location.
        loc: Loc,
        /// Value written (unique per location within a program).
        val: u64,
    },
    /// Load from `loc` (exercises the simulator's read paths; invisible
    /// to the model, which judges crash images only).
    Ld {
        /// Source location.
        loc: Loc,
    },
    /// `clwb` of `loc`'s cache line.
    Fl {
        /// Flushed location.
        loc: Loc,
    },
    /// `sfence` — under BEP this is the epoch barrier.
    Fence,
    /// Pipeline delay (timing only; invisible to the model).
    Delay {
        /// Stall length in cycles.
        cycles: u32,
    },
}

/// A litmus program: one instruction sequence per core.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Prog {
    /// Per-core program-order instruction sequences.
    pub cores: Vec<Vec<Inst>>,
}

/// Identity of one static store: core and program-order index, plus its
/// location and value for convenience. The identity is stable across
/// executions (only the interleaving varies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StoreRef {
    /// Issuing core.
    pub core: usize,
    /// Program-order index within that core.
    pub po: usize,
    /// Stored-to location.
    pub loc: Loc,
    /// Stored value.
    pub val: u64,
}

impl fmt::Display for StoreRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}:W{}={} (po {})",
            self.core,
            loc_name(self.loc),
            self.val,
            self.po
        )
    }
}

/// A post-crash image projected to the program's locations: `outcome[l]`
/// is the NVMM value of location `l` (0 = never persisted).
pub type Outcome = Vec<u64>;

/// Why an outcome is forbidden: a persist-order path from a store the
/// outcome proves *unpersisted* (`path[0]`) to a store it proves
/// *persisted* (`path.last()`), labeled with the axiom of each edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelWitness {
    /// Persist-order path, oldest first.
    pub path: Vec<StoreRef>,
    /// Axiom labels of the edges along `path` (`path.len() - 1` entries).
    pub axioms: Vec<&'static str>,
    /// True when the path exists in *every* enumerated execution (the
    /// outcome is forbidden regardless of interleaving); false when the
    /// path is from the canonical (first) execution only.
    pub universal: bool,
}

impl fmt::Display for ModelWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} persist path: ",
            if self.universal {
                "universal"
            } else {
                "canonical-execution"
            }
        )?;
        for (i, s) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, " -[{}]-> ", self.axioms[i - 1])?;
            }
            write!(f, "{s}")?;
        }
        write!(f, " ; image persists the newest store but not the oldest")
    }
}

/// The model's verdict set for one (program, mode) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelVerdicts {
    /// Number of locations in the outcome vector.
    pub locs: usize,
    /// Distinct model-relevant executions enumerated (interleavings
    /// deduplicated by their store/flush/fence projection).
    pub executions: usize,
    /// Outcomes reachable as a downward-closed crash cut of some
    /// execution.
    pub allowed: BTreeSet<Outcome>,
    /// Everything else in the outcome universe, each with its minimal
    /// axiom-violation witness.
    pub forbidden: BTreeMap<Outcome, ModelWitness>,
}

impl ModelVerdicts {
    /// Size of the outcome universe (allowed + forbidden).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.allowed.len() + self.forbidden.len()
    }
}

/// Display name of a location (`x`, `y`, `z`, `w`, then `l4`, ...).
#[must_use]
pub fn loc_name(loc: Loc) -> String {
    match loc {
        0 => "x".into(),
        1 => "y".into(),
        2 => "z".into(),
        3 => "w".into(),
        n => format!("l{n}"),
    }
}

impl Prog {
    /// Number of cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of locations (max referenced index + 1).
    #[must_use]
    pub fn num_locs(&self) -> usize {
        self.cores
            .iter()
            .flatten()
            .filter_map(|i| match *i {
                Inst::St { loc, .. } | Inst::Ld { loc } | Inst::Fl { loc } => Some(loc + 1),
                Inst::Fence | Inst::Delay { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// All static stores in (core, program-order) order.
    #[must_use]
    pub fn stores(&self) -> Vec<StoreRef> {
        let mut out = Vec::new();
        for (core, insts) in self.cores.iter().enumerate() {
            for (po, inst) in insts.iter().enumerate() {
                if let Inst::St { loc, val } = *inst {
                    out.push(StoreRef { core, po, loc, val });
                }
            }
        }
        out
    }

    /// Compact litmus notation, e.g. `Wx1;Wy1 || Rx;F`.
    #[must_use]
    pub fn display(&self) -> String {
        let core_str = |insts: &[Inst]| {
            insts
                .iter()
                .map(|i| match *i {
                    Inst::St { loc, val } => format!("W{}{}", loc_name(loc), val),
                    Inst::Ld { loc } => format!("R{}", loc_name(loc)),
                    Inst::Fl { loc } => format!("C{}", loc_name(loc)),
                    Inst::Fence => "F".to_owned(),
                    Inst::Delay { cycles } => format!("D{cycles}"),
                })
                .collect::<Vec<_>>()
                .join(";")
        };
        self.cores
            .iter()
            .map(|c| core_str(c))
            .collect::<Vec<_>>()
            .join(" || ")
    }

    /// Compiles the program under a global schedule (a sequence of core
    /// ids, each consuming that core's next instruction) into simulator
    /// ops. `offsets[loc]` is the byte offset of `loc` from `base`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not consume every core's program
    /// exactly, or if a location has no offset.
    #[must_use]
    pub fn compile(&self, schedule: &[usize], offsets: &[u64], base: u64) -> Vec<(usize, Op)> {
        let mut next = vec![0usize; self.cores.len()];
        let mut ops = Vec::with_capacity(schedule.len());
        for &core in schedule {
            let inst = self.cores[core][next[core]];
            next[core] += 1;
            let op = match inst {
                Inst::St { loc, val } => Op::store_u64(base + offsets[loc], val),
                Inst::Ld { loc } => Op::load_u64(base + offsets[loc]),
                Inst::Fl { loc } => Op::Clwb {
                    addr: base + offsets[loc],
                },
                Inst::Fence => Op::Fence,
                Inst::Delay { cycles } => Op::Compute { cycles },
            };
            ops.push((core, op));
        }
        for (core, n) in next.iter().enumerate() {
            assert_eq!(
                *n,
                self.cores[core].len(),
                "schedule must consume core {core} exactly"
            );
        }
        ops
    }

    /// The per-core program lengths (interleaving enumeration input).
    #[must_use]
    pub fn lens(&self) -> Vec<usize> {
        self.cores.iter().map(Vec::len).collect()
    }
}

/// One model-relevant event of an execution: `(core, po, inst)`.
type Event = (usize, usize, Inst);

/// Per-execution derived data: persist-order edges over canonical store
/// indices and the τ-position of each store.
struct Execution {
    /// Edges `(older, newer, axiom)` over indices into `Prog::stores()`.
    /// Every edge points forward in τ order.
    edges: Vec<(usize, usize, &'static str)>,
    /// `tau_pos[i]` = position of store `i` in this execution's τ order.
    tau_pos: Vec<usize>,
    /// Transitive reachability: bit `j` of `reach[i]` set iff a
    /// persist-order path `i -> j` exists.
    reach: Vec<u32>,
}

/// The persist axiom a mode adds on top of coherence (DESIGN.md §9.2).
/// Modes that share an axiom share their verdicts: eADR and both BBB
/// organizations are one pov-pop evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistAxiom {
    /// eADR, BBB-mem, BBB-proc: every τ-consecutive store pair persists
    /// in order.
    PovPop,
    /// Strict PMEM: a `clwb` then same-core `sfence` orders the flushed
    /// store before everything after the fence.
    FlushFence,
    /// BEP: a fence orders every same-core prior store before everything
    /// after it.
    EpochBarrier,
}

impl PersistAxiom {
    /// Every axiom, in declaration order (so `axiom as usize` indexes
    /// arrays built over it).
    pub const ALL: [PersistAxiom; 3] = [Self::PovPop, Self::FlushFence, Self::EpochBarrier];

    /// The axiom `mode` persists under.
    #[must_use]
    pub const fn of(mode: PersistencyMode) -> Self {
        match mode {
            PersistencyMode::Eadr
            | PersistencyMode::BbbMemorySide
            | PersistencyMode::BbbProcessorSide => Self::PovPop,
            PersistencyMode::Pmem => Self::FlushFence,
            PersistencyMode::Bep => Self::EpochBarrier,
        }
    }
}

/// A shape's model-relevant executions, enumerated once: its
/// interleavings deduplicated by their store/flush/fence projection
/// (Ld/Delay placement cannot change persist edges), with the outcome
/// universe they are judged against. None of it depends on the mode, so
/// every [`PersistAxiom`] is evaluated over the same set.
#[derive(Debug)]
pub struct Executions<'p> {
    prog: &'p Prog,
    stores: Vec<StoreRef>,
    /// Distinct projections in sorted order; the first is the canonical
    /// execution that non-universal witnesses come from.
    projections: Vec<Vec<Event>>,
    /// Every outcome: per location, 0 or any stored value.
    universe: Vec<Outcome>,
}

impl<'p> Executions<'p> {
    /// Projects `schedules`, which must be every interleaving of `prog`
    /// ([`interleavings`] of [`Prog::lens`]).
    ///
    /// # Panics
    ///
    /// Panics if the program has more than [`MAX_STORES`] stores or
    /// stores the same value twice to one location (outcomes would be
    /// ambiguous).
    #[must_use]
    pub fn new(prog: &'p Prog, schedules: &[Vec<usize>]) -> Self {
        let stores = prog.stores();
        assert!(
            stores.len() <= MAX_STORES,
            "too many stores for cut enumeration"
        );
        // Distinct values per location keep image -> cut projection unambiguous.
        let mut seen = BTreeSet::new();
        for s in &stores {
            assert!(
                seen.insert((s.loc, s.val)),
                "duplicate value {} at location {}",
                s.val,
                s.loc
            );
        }

        let mut projections: BTreeSet<Vec<Event>> = BTreeSet::new();
        for schedule in schedules {
            let mut next = vec![0usize; prog.cores.len()];
            let mut proj = Vec::new();
            for &core in schedule {
                let po = next[core];
                next[core] += 1;
                let inst = prog.cores[core][po];
                match inst {
                    Inst::St { .. } | Inst::Fl { .. } | Inst::Fence => proj.push((core, po, inst)),
                    Inst::Ld { .. } | Inst::Delay { .. } => {}
                }
            }
            projections.insert(proj);
        }

        let mut per_loc: Vec<Vec<u64>> = vec![vec![0]; prog.num_locs()];
        for s in &stores {
            per_loc[s.loc].push(s.val);
        }
        let mut universe = vec![Vec::new()];
        for vals in &per_loc {
            let mut next_universe = Vec::with_capacity(universe.len() * vals.len());
            for prefix in &universe {
                for &v in vals {
                    let mut o: Outcome = prefix.clone();
                    o.push(v);
                    next_universe.push(o);
                }
            }
            universe = next_universe;
        }

        Self {
            prog,
            stores,
            projections: projections.into_iter().collect(),
            universe,
        }
    }

    /// Evaluates `axiom` (plus coherence) over every execution, returning
    /// the allowed/forbidden outcome partition with witnesses.
    ///
    /// # Panics
    ///
    /// Panics, defensively, if a forbidden outcome admits no witness
    /// (impossible by construction; see DESIGN.md §9).
    #[must_use]
    pub fn verdicts(&self, axiom: PersistAxiom) -> ModelVerdicts {
        let stores = &self.stores;
        let n = stores.len();
        let locs = self.prog.num_locs();
        let executions: Vec<Execution> = self
            .projections
            .iter()
            .map(|proj| build_execution(proj, stores, axiom))
            .collect();

        // Allowed outcomes: downward-closed cuts of each execution, each
        // projected to its outcome under the execution's τ order (per
        // location, the τ-latest store in the cut) in one reused buffer,
        // cloned into the set only when it is new.
        let mut allowed: BTreeSet<Outcome> = BTreeSet::new();
        let mut outcome: Outcome = vec![0; locs];
        let mut latest: Vec<Option<usize>> = vec![None; locs];
        for exec in &executions {
            'mask: for mask in 0u32..(1 << n) {
                for &(a, b, _) in &exec.edges {
                    if mask & (1 << b) != 0 && mask & (1 << a) == 0 {
                        continue 'mask;
                    }
                }
                outcome.fill(0);
                latest.fill(None);
                for (i, s) in stores.iter().enumerate() {
                    if mask & (1 << i) != 0 && latest[s.loc].is_none_or(|t| exec.tau_pos[i] > t) {
                        latest[s.loc] = Some(exec.tau_pos[i]);
                        outcome[s.loc] = s.val;
                    }
                }
                if !allowed.contains(outcome.as_slice()) {
                    allowed.insert(outcome.clone());
                }
            }
        }

        // Reachability common to all executions, for universal witnesses.
        let mut common_reach = vec![u32::MAX; n];
        for exec in &executions {
            for (c, r) in common_reach.iter_mut().zip(&exec.reach) {
                *c &= *r;
            }
        }

        let mut forbidden = BTreeMap::new();
        for outcome in &self.universe {
            if allowed.contains(outcome) {
                continue;
            }
            let witness =
                find_witness(outcome, stores, &executions, &common_reach).unwrap_or_else(|| {
                    panic!(
                        "forbidden outcome {:?} of {} has no witness",
                        outcome,
                        self.prog.display()
                    )
                });
            forbidden.insert(outcome.clone(), witness);
        }

        ModelVerdicts {
            locs,
            executions: executions.len(),
            allowed,
            forbidden,
        }
    }
}

/// Evaluates the mode's axioms over every execution of `prog`, returning
/// the allowed/forbidden outcome partition with witnesses. A caller that
/// needs several modes of one shape shares one [`Executions`] and one
/// evaluation per [`PersistAxiom`] instead.
///
/// # Panics
///
/// Panics if the program has more than [`MAX_STORES`] stores, stores the
/// same value twice to one location (outcomes would be ambiguous), or —
/// defensively — if a forbidden outcome admits no witness (impossible by
/// construction; see DESIGN.md §9).
#[must_use]
pub fn evaluate(prog: &Prog, mode: PersistencyMode) -> ModelVerdicts {
    Executions::new(prog, &interleavings(&prog.lens())).verdicts(PersistAxiom::of(mode))
}

/// Builds one execution's persist-order edges from its model-relevant
/// event projection.
fn build_execution(proj: &[Event], stores: &[StoreRef], axiom: PersistAxiom) -> Execution {
    let n = stores.len();
    let store_idx = |core: usize, po: usize| {
        stores
            .iter()
            .position(|s| s.core == core && s.po == po)
            .expect("event store is a program store")
    };
    // τ positions of the stores, in projection order.
    let mut tau_pos = vec![0usize; n];
    let mut tau_stores: Vec<usize> = Vec::with_capacity(n);
    for &(core, po, inst) in proj {
        if let Inst::St { .. } = inst {
            let i = store_idx(core, po);
            tau_pos[i] = tau_stores.len();
            tau_stores.push(i);
        }
    }

    let mut edges: Vec<(usize, usize, &'static str)> = Vec::new();
    // coherence: τ-consecutive same-location stores (all modes).
    let mut last_to: BTreeMap<Loc, usize> = BTreeMap::new();
    for &i in &tau_stores {
        if let Some(&prev) = last_to.get(&stores[i].loc) {
            edges.push((prev, i, "coherence"));
        }
        last_to.insert(stores[i].loc, i);
    }
    match axiom {
        PersistAxiom::PovPop => {
            // pov-pop: the persist order is the visibility order.
            for pair in tau_stores.windows(2) {
                edges.push((pair[0], pair[1], "pov-pop"));
            }
        }
        PersistAxiom::FlushFence => {
            // flush-fence: clwb(loc) @ core k, then the next same-core
            // fence, orders k's last prior store to loc before every
            // τ-later store.
            for (p, &(core, _, inst)) in proj.iter().enumerate() {
                let Inst::Fl { loc } = inst else { continue };
                let flushed = proj[..p].iter().rev().find_map(|&(c, po, i)| match i {
                    Inst::St { loc: l, .. } if c == core && l == loc => Some(store_idx(c, po)),
                    _ => None,
                });
                let Some(s) = flushed else { continue };
                let fence_pos = proj[p + 1..]
                    .iter()
                    .position(|&(c, _, i)| c == core && i == Inst::Fence)
                    .map(|off| p + 1 + off);
                let Some(f) = fence_pos else { continue };
                for &(c, po, i) in &proj[f + 1..] {
                    if let Inst::St { .. } = i {
                        edges.push((s, store_idx(c, po), "flush-fence"));
                    }
                }
            }
        }
        PersistAxiom::EpochBarrier => {
            // epoch-barrier: a fence orders every same-core prior store
            // before every τ-later store.
            for (p, &(core, _, inst)) in proj.iter().enumerate() {
                if inst != Inst::Fence {
                    continue;
                }
                let before: Vec<usize> = proj[..p]
                    .iter()
                    .filter_map(|&(c, po, i)| match i {
                        Inst::St { .. } if c == core => Some(store_idx(c, po)),
                        _ => None,
                    })
                    .collect();
                for &(c, po, i) in &proj[p + 1..] {
                    if let Inst::St { .. } = i {
                        let w = store_idx(c, po);
                        for &s in &before {
                            edges.push((s, w, "epoch-barrier"));
                        }
                    }
                }
            }
        }
    }

    // Transitive reachability. Every edge points forward in τ order, so a
    // single reverse-τ pass reaches a fixpoint.
    let mut reach = vec![0u32; n];
    for &i in tau_stores.iter().rev() {
        for &(a, b, _) in &edges {
            if a == i {
                reach[i] |= (1 << b) | reach[b];
            }
        }
    }

    Execution {
        edges,
        tau_pos,
        reach,
    }
}

/// Finds the minimal axiom-violation witness for a forbidden outcome:
/// a persist path from a store the outcome excludes to a store it
/// includes — universal (holds in every execution) when one exists,
/// otherwise from the canonical execution.
fn find_witness(
    outcome: &Outcome,
    stores: &[StoreRef],
    executions: &[Execution],
    common_reach: &[u32],
) -> Option<ModelWitness> {
    let n = stores.len();
    // Stores the outcome proves persisted: the producer of each nonzero
    // location value.
    let included: Vec<usize> = (0..n)
        .filter(|&i| outcome[stores[i].loc] == stores[i].val)
        .collect();
    // Execution-independent exclusion: the location reads 0, or it reads
    // the value of a same-core program-order-earlier store (so this store
    // would have overwritten it in every execution).
    let excluded_universal = |i: usize| {
        let s = stores[i];
        outcome[s.loc] == 0
            || stores.iter().any(|a| {
                a.core == s.core && a.loc == s.loc && a.po < s.po && outcome[s.loc] == a.val
            })
    };

    let canonical = executions.first()?;
    let mut best: Option<(usize, Vec<StoreRef>, Vec<&'static str>, bool)> = None;
    for universal_pass in [true, false] {
        for &b in &included {
            for (a, &common) in common_reach.iter().enumerate().take(n) {
                if a == b {
                    continue;
                }
                let (reachable, excluded) = if universal_pass {
                    (common & (1 << b) != 0, excluded_universal(a))
                } else {
                    (
                        canonical.reach[a] & (1 << b) != 0,
                        excluded_universal(a) || excluded_in(a, outcome, stores, canonical),
                    )
                };
                if !reachable || !excluded {
                    continue;
                }
                let (path, axioms) = shortest_path(a, b, canonical, stores);
                let better = best.as_ref().is_none_or(|(len, p, _, _)| {
                    path.len() < *len || (path.len() == *len && path < *p)
                });
                if better {
                    best = Some((path.len(), path, axioms, universal_pass));
                }
            }
        }
        if best.is_some() {
            break;
        }
    }
    best.map(|(_, path, axioms, universal)| ModelWitness {
        path,
        axioms,
        universal,
    })
}

/// Canonical-execution-specific exclusion: the outcome's value for this
/// store's location was produced by a τ-earlier store, so including this
/// store would overwrite it.
fn excluded_in(i: usize, outcome: &Outcome, stores: &[StoreRef], exec: &Execution) -> bool {
    let s = stores[i];
    stores.iter().enumerate().any(|(j, a)| {
        a.loc == s.loc && outcome[s.loc] == a.val && exec.tau_pos[j] < exec.tau_pos[i]
    })
}

/// BFS shortest persist path `a -> b` in one execution's edge graph.
fn shortest_path(
    a: usize,
    b: usize,
    exec: &Execution,
    stores: &[StoreRef],
) -> (Vec<StoreRef>, Vec<&'static str>) {
    let n = stores.len();
    let mut prev: Vec<Option<(usize, &'static str)>> = vec![None; n];
    let mut queue = std::collections::VecDeque::from([a]);
    let mut seen = vec![false; n];
    seen[a] = true;
    while let Some(u) = queue.pop_front() {
        if u == b {
            break;
        }
        for &(x, y, label) in &exec.edges {
            if x == u && !seen[y] {
                seen[y] = true;
                prev[y] = Some((u, label));
                queue.push_back(y);
            }
        }
    }
    let mut path = vec![stores[b]];
    let mut axioms = Vec::new();
    let mut cur = b;
    while let Some((p, label)) = prev[cur] {
        path.push(stores[p]);
        axioms.push(label);
        cur = p;
    }
    assert_eq!(cur, a, "witness path must reach its source");
    path.reverse();
    axioms.reverse();
    (path, axioms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(loc: Loc, val: u64) -> Inst {
        Inst::St { loc, val }
    }

    /// `Wx1; Wy1` on one core.
    fn ss() -> Prog {
        Prog {
            cores: vec![vec![st(0, 1), st(1, 1)]],
        }
    }

    #[test]
    fn battery_modes_forbid_the_store_reorder() {
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let v = evaluate(&ss(), mode);
            assert!(v.allowed.contains(&vec![0, 0]));
            assert!(v.allowed.contains(&vec![1, 0]));
            assert!(v.allowed.contains(&vec![1, 1]));
            let w = v.forbidden.get(&vec![0, 1]).expect("y-without-x forbidden");
            assert!(w.universal, "single interleaving: witness is universal");
            assert!(w
                .axioms
                .iter()
                .all(|a| *a == "pov-pop" || *a == "coherence"));
        }
    }

    #[test]
    fn pmem_allows_the_reorder_without_flushes() {
        let v = evaluate(&ss(), PersistencyMode::Pmem);
        assert_eq!(v.universe(), 4);
        assert!(v.forbidden.is_empty(), "no flush: any subset persists");
    }

    #[test]
    fn pmem_flush_fence_orders_across_the_fence() {
        // Wx1; Cx; F; Wy1 — strict discipline orders x before y.
        let prog = Prog {
            cores: vec![vec![st(0, 1), Inst::Fl { loc: 0 }, Inst::Fence, st(1, 1)]],
        };
        let v = evaluate(&prog, PersistencyMode::Pmem);
        let w = v.forbidden.get(&vec![0, 1]).expect("y-without-x forbidden");
        assert_eq!(w.axioms, vec!["flush-fence"]);
        assert_eq!(w.path.len(), 2);
        assert!(w.universal);
    }

    #[test]
    fn bep_fence_is_an_epoch_barrier() {
        // Wx1; F; Wy1: cross-epoch order enforced...
        let prog = Prog {
            cores: vec![vec![st(0, 1), Inst::Fence, st(1, 1)]],
        };
        let v = evaluate(&prog, PersistencyMode::Bep);
        assert_eq!(
            v.forbidden.get(&vec![0, 1]).expect("cross-epoch").axioms,
            vec!["epoch-barrier"]
        );
        // ...but intra-epoch reordering is free.
        let v = evaluate(&ss(), PersistencyMode::Bep);
        assert!(v.forbidden.is_empty());
    }

    #[test]
    fn cross_core_outcomes_depend_on_the_interleaving() {
        // c0: Wx1 || c1: Wy1 — either may persist alone even under
        // battery modes (some interleaving puts it first).
        let prog = Prog {
            cores: vec![vec![st(0, 1)], vec![st(1, 1)]],
        };
        for mode in PersistencyMode::ALL {
            let v = evaluate(&prog, mode);
            assert_eq!(v.executions, 2);
            assert!(v.forbidden.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn same_location_coherence_holds_in_every_mode() {
        // Wx1; Wx2 on one core: x=2 without... x can only be 0, 1 or 2,
        // and the image can never skip to 2 while "losing" 1 — coherence
        // forbids nothing *observable* here, so check the universe only.
        let prog = Prog {
            cores: vec![vec![st(0, 1), st(0, 2)]],
        };
        for mode in PersistencyMode::ALL {
            let v = evaluate(&prog, mode);
            assert_eq!(v.universe(), 3);
            assert!(v.allowed.contains(&vec![0]));
            assert!(v.allowed.contains(&vec![1]));
            assert!(v.allowed.contains(&vec![2]));
        }
    }

    #[test]
    fn every_forbidden_outcome_carries_a_witness_path() {
        let prog = Prog {
            cores: vec![
                vec![st(0, 1), Inst::Fence, st(1, 1)],
                vec![st(2, 1), Inst::Fl { loc: 2 }, Inst::Fence, st(0, 2)],
            ],
        };
        for mode in PersistencyMode::ALL {
            let v = evaluate(&prog, mode);
            for (outcome, w) in &v.forbidden {
                assert!(!w.path.is_empty(), "{mode:?} {outcome:?}");
                assert_eq!(w.axioms.len(), w.path.len() - 1);
            }
        }
    }

    #[test]
    fn evaluation_is_pure() {
        let prog = Prog {
            cores: vec![
                vec![st(0, 1), st(1, 1), Inst::Fl { loc: 1 }],
                vec![Inst::Ld { loc: 1 }, st(2, 1), Inst::Fence],
            ],
        };
        for mode in PersistencyMode::ALL {
            let a = evaluate(&prog, mode);
            let b = evaluate(&prog, mode);
            assert_eq!(a, b);
        }
    }
}
