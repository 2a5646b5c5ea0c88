//! The online persist-order checker.
//!
//! [`PersistOrderChecker`] consumes the cycle-ordered [`TraceEvent`]
//! stream a traced [`bbb_core::System`] produces and maintains, per
//! store, its commit/visibility/persist cycles plus a vector clock
//! snapshotted at commit. Happens-before is built from program order
//! (per-core clock bumps), coherence order (writers join the block's
//! clock before writing it), and reads-from (readers join the block's
//! clock at load retire).
//!
//! The theorem checked depends on the machine under test:
//!
//! * **BBB (both organizations)** — `PoV = PoP`: every non-rejected
//!   persisting store's bbPB allocation cycle equals its L1D-visibility
//!   cycle (the paper's central claim), and per-core persists never
//!   reorder against program order.
//! * **eADR** — the point of persistency is the point of visibility by
//!   construction; the checker additionally demands crash completeness.
//! * **eADR/BBB after a battery-backed crash** — every committed
//!   persisting store must be durable (crash completeness).
//! * **Strict PMEM** — persists must follow per-core program order at
//!   block granularity; an uninstrumented run violates this as soon as
//!   LRU eviction order diverges from store order.
//! * **BEP** — intra-epoch reorders are allowed; a persist that
//!   overtakes an unpersisted store from an *older epoch* of the same
//!   core, or an unpersisted *happens-before-earlier* store of another
//!   core, is a violation and yields a minimal witness (the two stores
//!   plus the happens-before path connecting them).

use std::collections::HashMap;

use bbb_core::PersistencyMode;
use bbb_sim::{BlockAddr, Cycle, TraceEvent};

use crate::clock::VectorClock;

/// Witness cap: the first few violations are kept verbatim, the rest are
/// only counted (`suppressed`), so a badly broken run stays readable.
pub const MAX_WITNESSES: usize = 8;

/// A store's identity in the stream: (committing core, per-core sequence).
type StoreKey = (usize, u64);

#[derive(Debug, Clone)]
struct StoreRec {
    block: BlockAddr,
    commit: Cycle,
    epoch: u64,
    vc: VectorClock,
    visible: Option<Cycle>,
    persist: Option<Cycle>,
    rejected: bool,
}

impl StoreRec {
    fn describe(&self, key: StoreKey) -> String {
        format!(
            "c{} store s{} -> b{:#x} (commit @{}, epoch {})",
            key.0,
            key.1,
            self.block.index(),
            self.commit,
            self.epoch
        )
    }
}

/// A minimal ordering-violation witness: the rule broken, the two stores
/// involved, and the happens-before path that orders them.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Which theorem the pair violates (`pov-pop`, `strict-order`,
    /// `inter-epoch`, `cross-core-hb`, `crash-durability`,
    /// `battery-drain-order`).
    pub rule: &'static str,
    /// The happens-before-earlier store (rendered).
    pub earlier: String,
    /// The event that jumped ahead of it (rendered).
    pub later: String,
    /// The happens-before path from `earlier` to `later`, one edge per
    /// line.
    pub path: Vec<String>,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] {}, overtaking {}",
            self.rule, self.later, self.earlier
        )?;
        for step in &self.path {
            writeln!(f, "    {step}")?;
        }
        Ok(())
    }
}

/// Aggregate result of replaying one trace through the checker.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Mode the trace was produced under (selects the theorem).
    pub mode: PersistencyMode,
    /// Events consumed.
    pub events: u64,
    /// Stores committed (persistent and volatile).
    pub stores: u64,
    /// Persisting stores tracked.
    pub persistent_stores: u64,
    /// Persisting stores that reached durability.
    pub persisted: u64,
    /// Stores whose buffer allocation stalled on a full buffer.
    pub rejected: u64,
    /// Stores for which the `PoV = PoP` equality was checked.
    pub pov_pop_checked: u64,
    /// Committed persisting stores still volatile when the trace ended
    /// (a violation only for battery modes after a battery-backed crash).
    pub unpersisted_at_end: u64,
    /// Ordering/durability violations, capped at [`MAX_WITNESSES`].
    pub witnesses: Vec<Witness>,
    /// Violations beyond the witness cap.
    pub suppressed: u64,
}

impl CheckReport {
    /// Total violations found (kept witnesses plus suppressed overflow).
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.witnesses.len() as u64 + self.suppressed
    }

    /// True when the trace satisfied the mode's theorem everywhere.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations() == 0
    }
}

/// Online vector-clock analysis over one trace. Feed events in stream
/// order with [`PersistOrderChecker::observe`], then call
/// [`PersistOrderChecker::finish`].
#[derive(Debug)]
pub struct PersistOrderChecker {
    mode: PersistencyMode,
    clocks: Vec<VectorClock>,
    epochs: Vec<u64>,
    block_vc: HashMap<BlockAddr, VectorClock>,
    stores: HashMap<StoreKey, StoreRec>,
    /// Unpersisted persisting stores per block, for persist attribution.
    pending_by_block: HashMap<BlockAddr, Vec<StoreKey>>,
    /// Unpersisted persisting stores per core, in commit order.
    pending_by_core: Vec<Vec<StoreKey>>,
    /// Per-core history of clock joins (cycle, block read/written, clock
    /// after the join) — recorded only under BEP, where cross-core
    /// witnesses need the observation edge reconstructed.
    provenance: Vec<Vec<(Cycle, BlockAddr, VectorClock)>>,
    crashed: Option<bool>,
    events: u64,
    store_count: u64,
    persistent_stores: u64,
    persisted: u64,
    rejected: u64,
    pov_pop_checked: u64,
    witnesses: Vec<Witness>,
    suppressed: u64,
}

impl PersistOrderChecker {
    /// A checker for a `cores`-core trace produced under `mode`.
    #[must_use]
    pub fn new(mode: PersistencyMode, cores: usize) -> Self {
        Self {
            mode,
            clocks: (0..cores).map(|_| VectorClock::new(cores)).collect(),
            epochs: vec![0; cores],
            block_vc: HashMap::new(),
            stores: HashMap::new(),
            pending_by_block: HashMap::new(),
            pending_by_core: vec![Vec::new(); cores],
            provenance: vec![Vec::new(); cores],
            crashed: None,
            events: 0,
            store_count: 0,
            persistent_stores: 0,
            persisted: 0,
            rejected: 0,
            pov_pop_checked: 0,
            witnesses: Vec::new(),
            suppressed: 0,
        }
    }

    /// Replays a whole trace and returns the report.
    #[must_use]
    pub fn run(mode: PersistencyMode, cores: usize, trace: &[TraceEvent]) -> CheckReport {
        let mut ck = Self::new(mode, cores);
        for e in trace {
            ck.observe(e);
        }
        ck.finish()
    }

    fn record(&mut self, w: Witness) {
        if self.witnesses.len() < MAX_WITNESSES {
            self.witnesses.push(w);
        } else {
            self.suppressed += 1;
        }
    }

    fn join_core(&mut self, core: usize, block: BlockAddr, cycle: Cycle) {
        if let Some(bvc) = self.block_vc.get(&block) {
            let changed = self.clocks[core].join(bvc);
            if changed && self.mode == PersistencyMode::Bep {
                self.provenance[core].push((cycle, block, self.clocks[core].clone()));
            }
        }
    }

    /// True when the battery keeps the persist buffers (and the point of
    /// persistency sits at the point of visibility).
    fn battery_mode(&self) -> bool {
        self.mode.battery_backed()
    }

    /// Marks `key` durable at `cycle` and removes it from the pending
    /// indices. Returns the record for subsequent order checks.
    fn mark_persisted(&mut self, key: StoreKey, cycle: Cycle) -> Option<StoreRec> {
        let rec = self.stores.get_mut(&key)?;
        if rec.persist.is_some() {
            return None;
        }
        rec.persist = Some(cycle);
        self.persisted += 1;
        let block = rec.block;
        let snapshot = rec.clone();
        self.pending_by_core[key.0].retain(|k| *k != key);
        if let Some(list) = self.pending_by_block.get_mut(&block) {
            list.retain(|k| *k != key);
        }
        Some(snapshot)
    }

    /// Order theorems applied when `s2` persists while other stores are
    /// still volatile.
    fn check_order_on_persist(&mut self, key: StoreKey, s2: &StoreRec, cycle: Cycle) {
        match self.mode {
            PersistencyMode::Pmem => {
                // Strict persistency: per-core program order at block
                // granularity. The oldest pending store of this core must
                // not predate the one that just persisted.
                if let Some(&front) = self.pending_by_core[key.0].first() {
                    if front.1 < key.1 {
                        let s1 = self.stores[&front].clone();
                        self.record(Witness {
                            rule: "strict-order",
                            earlier: s1.describe(front),
                            later: format!("{} persisted @{cycle}", s2.describe(key)),
                            path: vec![format!(
                                "program order on c{}: s{} precedes s{}, yet s{} is still volatile",
                                key.0, front.1, key.1, front.1
                            )],
                        });
                    }
                }
            }
            PersistencyMode::Bep => {
                // (a) Same core: persists may reorder freely inside an
                // epoch but never across a barrier.
                if let Some(&front) = self.pending_by_core[key.0].first() {
                    let s1 = &self.stores[&front];
                    if s1.epoch < s2.epoch {
                        let s1 = s1.clone();
                        self.record(Witness {
                            rule: "inter-epoch",
                            earlier: s1.describe(front),
                            later: format!("{} persisted @{cycle}", s2.describe(key)),
                            path: vec![format!(
                                "c{}: s{} (epoch {}) -- persist barrier x{} --> s{} (epoch {})",
                                key.0,
                                front.1,
                                s1.epoch,
                                s2.epoch - s1.epoch,
                                key.1,
                                s2.epoch
                            )],
                        });
                    }
                }
                // (b) Cross core: an unpersisted store that happens-before
                // s2 (observed through coherence or a read) must not be
                // overtaken.
                let mut hit: Option<(StoreKey, StoreRec)> = None;
                for (c, pend) in self.pending_by_core.iter().enumerate() {
                    if c == key.0 {
                        continue;
                    }
                    for k in pend {
                        let s1 = &self.stores[k];
                        if s1.vc.get(c) <= s2.vc.get(c) {
                            hit = Some((*k, s1.clone()));
                            break;
                        }
                    }
                    if hit.is_some() {
                        break;
                    }
                }
                if let Some((k1, s1)) = hit {
                    let mut path = vec![format!(
                        "c{} store s{} advances c{}'s history to {}",
                        k1.0, k1.1, k1.0, s1.vc
                    )];
                    // The observation edge: the earliest join on s2's core
                    // that absorbed s1's component.
                    if let Some((cy, blk, vc)) = self.provenance[key.0]
                        .iter()
                        .find(|(_, _, vc)| s1.vc.get(k1.0) <= vc.get(k1.0))
                    {
                        path.push(format!(
                            "c{} observed b{:#x} @{cy} and joined to {vc}",
                            key.0,
                            blk.index()
                        ));
                    }
                    path.push(format!(
                        "c{} store s{} carries {} >= the observed history",
                        key.0, key.1, s2.vc
                    ));
                    self.record(Witness {
                        rule: "cross-core-hb",
                        earlier: s1.describe(k1),
                        later: format!("{} persisted @{cycle}", s2.describe(key)),
                        path,
                    });
                }
            }
            _ => {}
        }
    }

    /// Consumes one event of the cycle-ordered stream.
    pub fn observe(&mut self, e: &TraceEvent) {
        self.events += 1;
        match *e {
            TraceEvent::StoreCommit {
                core,
                block,
                seq,
                persistent,
                cycle,
            } => {
                self.store_count += 1;
                // Coherence edge: writing a block orders this store after
                // every prior write to it.
                self.join_core(core, block, cycle);
                self.clocks[core].bump(core);
                let vc = self.clocks[core].clone();
                self.block_vc
                    .entry(block)
                    .or_insert_with(|| VectorClock::new(vc.len()))
                    .join(&vc);
                if persistent {
                    self.persistent_stores += 1;
                    let key = (core, seq);
                    self.stores.insert(
                        key,
                        StoreRec {
                            block,
                            commit: cycle,
                            epoch: self.epochs[core],
                            vc,
                            visible: None,
                            persist: None,
                            rejected: false,
                        },
                    );
                    self.pending_by_core[core].push(key);
                    self.pending_by_block.entry(block).or_default().push(key);
                }
            }
            TraceEvent::LoadCommit { core, block, cycle } => {
                // Reads-from edge.
                self.join_core(core, block, cycle);
            }
            TraceEvent::EpochBarrier { core, .. } => {
                self.epochs[core] += 1;
            }
            TraceEvent::StoreVisible {
                core, seq, cycle, ..
            } => {
                let key = (core, seq);
                if let Some(rec) = self.stores.get_mut(&key) {
                    rec.visible = Some(cycle);
                }
                // Under eADR the whole hierarchy is in the persistence
                // domain: visibility is persistency.
                if self.mode == PersistencyMode::Eadr && self.stores.contains_key(&key) {
                    self.pov_pop_checked += 1;
                    self.mark_persisted(key, cycle);
                }
            }
            TraceEvent::PersistAlloc {
                core,
                seq,
                cycle,
                rejected,
                battery,
                ..
            } => {
                let key = (core, seq);
                if rejected {
                    self.rejected += 1;
                    if let Some(rec) = self.stores.get_mut(&key) {
                        rec.rejected = true;
                    }
                }
                if !battery {
                    // BEP's buffer is volatile: allocation is not a
                    // persist point.
                    return;
                }
                // The PoV = PoP theorem: a battery-backed allocation
                // happens at the visibility cycle unless the buffer was
                // full.
                let visible = self.stores.get(&key).and_then(|r| r.visible);
                if !rejected {
                    self.pov_pop_checked += 1;
                    if visible != Some(cycle) {
                        let desc = self
                            .stores
                            .get(&key)
                            .map_or_else(|| format!("c{core} s{seq}"), |r| r.describe(key));
                        self.record(Witness {
                            rule: "pov-pop",
                            earlier: format!("{desc} visible @{visible:?}"),
                            later: format!("bbPB allocation @{cycle}"),
                            path: vec![
                                "battery modes persist at the point of visibility".to_owned()
                            ],
                        });
                    }
                }
                // Battery drains follow store-buffer FIFO order: nothing
                // older on this core may still be volatile.
                if let Some(&front) = self.pending_by_core[core].first() {
                    if front.1 < seq {
                        let s1 = self.stores[&front].clone();
                        self.record(Witness {
                            rule: "battery-drain-order",
                            earlier: s1.describe(front),
                            later: format!("c{core} s{seq} allocated @{cycle}"),
                            path: vec![format!(
                                "store-buffer FIFO on c{core}: s{} drains before s{seq}",
                                front.1
                            )],
                        });
                    }
                }
                self.mark_persisted(key, cycle);
            }
            TraceEvent::NvmmWrite { block, cycle, .. } => {
                let after_battery_crash = self.crashed == Some(true);
                let keys: Vec<StoreKey> = self
                    .pending_by_block
                    .get(&block)
                    .map(|v| {
                        v.iter()
                            .copied()
                            .filter(|k| {
                                after_battery_crash
                                    || self.stores[k].visible.is_some_and(|vis| vis <= cycle)
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                // Mark the whole batch durable first (stores persisting
                // together in one block write never violate each other),
                // then apply the order theorems against what is left.
                let mut batch = Vec::with_capacity(keys.len());
                for k in keys {
                    if let Some(rec) = self.mark_persisted(k, cycle) {
                        batch.push((k, rec));
                    }
                }
                if !after_battery_crash {
                    for (k, rec) in &batch {
                        self.check_order_on_persist(*k, rec, cycle);
                    }
                }
            }
            TraceEvent::Crash { battery_ok, .. } => {
                self.crashed = Some(battery_ok);
            }
            TraceEvent::PbDrain { .. }
            | TraceEvent::PbMove { .. }
            | TraceEvent::L1Evict { .. }
            | TraceEvent::LlcEvict { .. }
            | TraceEvent::Flush { .. } => {}
        }
    }

    /// Ends the stream: applies the crash-completeness theorem and
    /// returns the report.
    #[must_use]
    pub fn finish(mut self) -> CheckReport {
        let pending: Vec<StoreKey> = self.pending_by_core.iter().flatten().copied().collect();
        let unpersisted = pending.len() as u64;
        // After a crash with the battery intact, every committed
        // persisting store must be durable under eADR and both BBB
        // organizations (Table I's "persistency guarantee" row). PMEM and
        // BEP are expected to lose volatile stores.
        if self.crashed == Some(true) && self.battery_mode() {
            for key in pending {
                let rec = self.stores[&key].clone();
                self.record(Witness {
                    rule: "crash-durability",
                    earlier: rec.describe(key),
                    later: "battery-backed crash drain completed".to_owned(),
                    path: vec![
                        "committed persisting stores are inside the battery persistence domain"
                            .to_owned(),
                    ],
                });
            }
        }
        CheckReport {
            mode: self.mode,
            events: self.events,
            stores: self.store_count,
            persistent_stores: self.persistent_stores,
            persisted: self.persisted,
            rejected: self.rejected,
            pov_pop_checked: self.pov_pop_checked,
            unpersisted_at_end: unpersisted,
            witnesses: self.witnesses,
            suppressed: self.suppressed,
        }
    }
}
