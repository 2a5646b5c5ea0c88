//! The persistence domain's view of the coherence protocol.
//!
//! [`PersistState`] owns every core's persist buffer and implements
//! [`CoherenceHooks`], realizing the paper's Table II:
//!
//! | event                    | memory-side bbPB action                    |
//! |--------------------------|--------------------------------------------|
//! | remote invalidation      | move entry to requester's bbPB (no drain)  |
//! | remote intervention M→S  | entry stays; memory writeback skipped      |
//! | dirty LLC eviction       | forced drain (inclusion), then writeback suppressed for persistent blocks |
//!
//! The processor-side organization instead drains through the invalidated
//! block in FIFO order (its entries cannot migrate without breaking store
//! order), and never suppresses writebacks.

use bbb_cache::{CoherenceHooks, WritebackDecision};
use bbb_sim::{
    BlockAddr, Counter, Cycle, FxHashMap, MemoryPort, SimConfig, Stats, TraceEvent, TraceLog,
    BLOCK_BYTES,
};

use crate::bbpb::{AllocOutcome, Bbpb};
use crate::mode::PersistencyMode;
use crate::procside::ProcSidePb;

/// Per-core persist buffers plus the mode-dependent coherence behavior.
#[derive(Debug, Clone)]
pub struct PersistState {
    mode: PersistencyMode,
    bbpbs: Vec<Bbpb>,
    procpbs: Vec<ProcSidePb>,
    suppress_writebacks: bool,
    /// Last known holder per block — the O(1) fast path for
    /// [`PersistState::holder_of`]. Entries go stale when a buffer drains
    /// on its own (threshold drains, migrations made through `bbpb_mut`),
    /// so a hit is always validated against the buffer before use.
    holder_index: FxHashMap<BlockAddr, usize>,
    entry_moves: Counter,
    downgrades_kept: Counter,
    /// Recorder for coherence-driven persistence events (entry moves,
    /// cache evictions); per-buffer drains live in each buffer's own log.
    trace: TraceLog,
}

impl PersistState {
    /// Builds the persistence state for a machine configuration and mode.
    /// Buffers are instantiated only for the BBB modes.
    #[must_use]
    pub fn new(cfg: &SimConfig, mode: PersistencyMode) -> Self {
        let (bbpbs, procpbs) = match mode {
            PersistencyMode::BbbMemorySide => (
                (0..cfg.cores)
                    .map(|c| {
                        let mut pb = Bbpb::new(&cfg.bbpb);
                        pb.core_id = c;
                        pb
                    })
                    .collect(),
                Vec::new(),
            ),
            // BEP's volatile persist buffers share the processor-side
            // implementation: ordered per-store entries. The difference is
            // crash behavior (dropped, not drained) and the epoch-barrier
            // drain, both handled by the system.
            PersistencyMode::BbbProcessorSide | PersistencyMode::Bep => (
                Vec::new(),
                (0..cfg.cores)
                    .map(|c| {
                        let mut pb = ProcSidePb::new(&cfg.bbpb);
                        pb.core_id = c;
                        pb
                    })
                    .collect(),
            ),
            PersistencyMode::Pmem | PersistencyMode::Eadr => (Vec::new(), Vec::new()),
        };
        Self {
            mode,
            bbpbs,
            procpbs,
            suppress_writebacks: cfg.suppress_persistent_writebacks,
            holder_index: FxHashMap::default(),
            entry_moves: Counter::new(),
            downgrades_kept: Counter::new(),
            trace: TraceLog::default(),
        }
    }

    /// Enables or disables event recording in this state and every persist
    /// buffer it owns.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
        for pb in &mut self.bbpbs {
            pb.trace.set_enabled(on);
        }
        for pb in &mut self.procpbs {
            pb.trace.set_enabled(on);
        }
    }

    /// Drains the recorded event logs: this state's own, then each core's
    /// buffer log in core order (the stable-merge tie order).
    pub fn take_trace_logs(&mut self) -> Vec<Vec<TraceEvent>> {
        let mut logs = vec![self.trace.take()];
        for pb in &mut self.bbpbs {
            logs.push(pb.trace.take());
        }
        for pb in &mut self.procpbs {
            logs.push(pb.trace.take());
        }
        logs
    }

    /// Allocates a persisting store's block into `core`'s bbPB, keeping
    /// the holder index in sync. The system's store-drain path goes
    /// through here rather than `bbpb_mut().allocate(..)` directly.
    ///
    /// If another core's bbPB still holds the block — possible once the
    /// previous writer's L1 copy is gone, so no coherence message
    /// announces the new write to the old holder — the entry migrates
    /// here without draining (paper Fig. 6(a)), preserving invariant 4
    /// and the coalescing the drain would forfeit.
    ///
    /// # Panics
    ///
    /// Panics as [`PersistState::bbpb`] does.
    pub fn allocate_block(
        &mut self,
        core: usize,
        now: Cycle,
        block: BlockAddr,
        data: [u8; BLOCK_BYTES],
        mem: &mut dyn MemoryPort,
    ) -> AllocOutcome {
        if let Some(holder) = self.holder_of(block) {
            if holder != core {
                // Late entry migration: `data` is the full post-store block
                // payload, so the stale entry's bytes are superseded.
                let _ = self.bbpbs[holder].take_for_move(block);
                self.entry_moves.inc();
                self.trace.push(TraceEvent::PbMove {
                    from: holder,
                    to: core,
                    block,
                    cycle: now,
                });
                self.bbpbs[core].insert_moved(now, block, data, mem);
                self.holder_index.insert(block, core);
                return AllocOutcome {
                    done: now,
                    coalesced: true,
                    rejected: false,
                };
            }
        }
        let out = self.bbpbs[core].allocate(now, block, data, mem);
        self.holder_index.insert(block, core);
        out
    }

    /// The active persistency mode.
    #[must_use]
    pub fn mode(&self) -> PersistencyMode {
        self.mode
    }

    /// One core's memory-side bbPB.
    ///
    /// # Panics
    ///
    /// Panics if the mode is not [`PersistencyMode::BbbMemorySide`] or
    /// `core` is out of range.
    #[must_use]
    pub fn bbpb(&self, core: usize) -> &Bbpb {
        &self.bbpbs[core]
    }

    /// Mutable access to one core's memory-side bbPB.
    ///
    /// # Panics
    ///
    /// Panics as [`PersistState::bbpb`] does.
    pub fn bbpb_mut(&mut self, core: usize) -> &mut Bbpb {
        &mut self.bbpbs[core]
    }

    /// One core's processor-side buffer.
    ///
    /// # Panics
    ///
    /// Panics if the mode is not [`PersistencyMode::BbbProcessorSide`] or
    /// `core` is out of range.
    #[must_use]
    pub fn procpb(&self, core: usize) -> &ProcSidePb {
        &self.procpbs[core]
    }

    /// Mutable access to one core's processor-side buffer.
    ///
    /// # Panics
    ///
    /// Panics as [`PersistState::procpb`] does.
    pub fn procpb_mut(&mut self, core: usize) -> &mut ProcSidePb {
        &mut self.procpbs[core]
    }

    /// Empties every persist buffer without writing anything: the last
    /// step of a crash, after the system has written whatever of their
    /// contents the persistence domain covers.
    pub(crate) fn crash_discard(&mut self) {
        for pb in &mut self.bbpbs {
            pb.crash_discard();
        }
        for pb in &mut self.procpbs {
            pb.crash_discard();
        }
    }

    /// The core whose bbPB currently holds `block`, if any. Invariant 4
    /// (paper §III-D) requires at most one.
    ///
    /// Release builds answer from the block→core index in O(1) — this is
    /// on the hot path of every LLC eviction — falling back to a scan when
    /// the indexed buffer no longer holds the block. Debug builds always
    /// scan every buffer so invariant-4 violations are caught no matter
    /// how the buffers were mutated.
    #[must_use]
    pub fn holder_of(&self, block: BlockAddr) -> Option<usize> {
        #[cfg(debug_assertions)]
        {
            self.holder_of_scan(block)
        }
        #[cfg(not(debug_assertions))]
        {
            self.holder_of_indexed(block)
        }
    }

    /// The release-build answer: the block→core index in O(1), validated
    /// against the indexed buffer, with a scan fallback for stale entries.
    /// Always compiled so debug builds can audit it against the scan.
    fn holder_of_indexed(&self, block: BlockAddr) -> Option<usize> {
        if let Some(&c) = self.holder_index.get(&block) {
            if self.bbpbs.get(c).is_some_and(|pb| pb.contains(block)) {
                return Some(c);
            }
        }
        self.bbpbs.iter().position(|pb| pb.contains(block))
    }

    /// The ground truth: an exhaustive scan of every buffer, asserting
    /// invariant 4 (at most one holder) along the way.
    fn holder_of_scan(&self, block: BlockAddr) -> Option<usize> {
        let mut holder = None;
        for (c, pb) in self.bbpbs.iter().enumerate() {
            if pb.contains(block) {
                assert!(
                    holder.is_none(),
                    "invariant 4 violated: {block} in multiple bbPBs"
                );
                holder = Some(c);
            }
        }
        holder
    }

    /// Audits the holder index against the exhaustive scan: for every
    /// block resident in any bbPB and for every indexed block, the O(1)
    /// release-build path must return the same holder the scan finds.
    ///
    /// # Panics
    ///
    /// Panics on the first disagreement (or on an invariant-4 violation
    /// found by the scan). Called from `System::check_invariants`, which
    /// the debug audit runs periodically.
    pub fn check_holder_index(&self) {
        let check = |block: BlockAddr| {
            let indexed = self.holder_of_indexed(block);
            let scanned = self.holder_of_scan(block);
            assert_eq!(
                indexed, scanned,
                "holder index diverged from scan for {block}"
            );
        };
        for pb in &self.bbpbs {
            for (block, _) in pb.drain_set() {
                check(block);
            }
        }
        // Sorted so a divergence always reports the lowest block — the
        // hash map's iteration order must never leak into a panic message
        // (or any other output).
        let mut indexed: Vec<BlockAddr> = self.holder_index.keys().copied().collect();
        indexed.sort_unstable();
        for block in indexed {
            check(block);
        }
    }

    /// Coherence/inclusion-forced drains across memory-side buffers, plus
    /// every ordered drain of the processor-side buffers — the drain
    /// events a crash-point planner places boundary points around.
    #[must_use]
    pub fn forced_drains(&self) -> u64 {
        let mem: u64 = self.bbpbs.iter().map(Bbpb::forced_drain_count).sum();
        let proc: u64 = self.procpbs.iter().map(ProcSidePb::drain_count).sum();
        mem + proc
    }

    /// Sum of every owned persist buffer's monotone mutation counter.
    /// Buffers only exist for the buffered modes, so this covers whichever
    /// organization is active; both counters are monotone, so an unchanged
    /// sum proves every buffer individually unchanged.
    #[must_use]
    pub fn buffers_version(&self) -> u64 {
        let mem: u64 = self.bbpbs.iter().map(Bbpb::version).sum();
        let proc: u64 = self.procpbs.iter().map(ProcSidePb::version).sum();
        mem + proc
    }

    /// Resident entries across all bbPBs (crash-cost accounting).
    #[must_use]
    pub fn total_resident_entries(&self) -> u64 {
        let mem: u64 = self.bbpbs.iter().map(|p| p.drain_set().len() as u64).sum();
        let proc: u64 = self.procpbs.iter().map(|p| p.iter().count() as u64).sum();
        mem + proc
    }

    /// Aggregated buffer counters plus the persist-state's own, all under
    /// the `bbpb.` prefix.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        for pb in &self.bbpbs {
            s.merge(&pb.stats());
        }
        for pb in &self.procpbs {
            s.merge(&pb.stats());
        }
        s.set("bbpb.entry_moves", self.entry_moves.get());
        s.set("bbpb.downgrades_kept", self.downgrades_kept.get());
        s
    }
}

impl CoherenceHooks for PersistState {
    fn on_remote_invalidate(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        victim: usize,
        requester: usize,
        mem: &mut dyn MemoryPort,
    ) {
        match self.mode {
            PersistencyMode::BbbMemorySide => {
                if let Some(data) = self.bbpbs[victim].take_for_move(block) {
                    self.entry_moves.inc();
                    self.trace.push(TraceEvent::PbMove {
                        from: victim,
                        to: requester,
                        block,
                        cycle: now,
                    });
                    self.bbpbs[requester].insert_moved(now, block, data, mem);
                    self.holder_index.insert(block, requester);
                    debug_assert_eq!(self.holder_of(block), Some(requester));
                }
            }
            PersistencyMode::BbbProcessorSide | PersistencyMode::Bep => {
                // Ordered entries cannot migrate: drain through the block
                // so the new owner starts from durable state.
                self.procpbs[victim].drain_through_block(now, block, mem);
            }
            PersistencyMode::Pmem | PersistencyMode::Eadr => {}
        }
    }

    fn on_remote_downgrade(&mut self, _now: Cycle, block: BlockAddr, owner: usize) {
        if self.mode == PersistencyMode::BbbMemorySide && self.bbpbs[owner].contains(block) {
            // Fig. 6(c): the entry stays put; the owner remains responsible
            // for draining it. Nothing moves, nothing drains.
            self.downgrades_kept.inc();
        }
    }

    fn on_llc_dirty_evict(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        _data: &[u8; BLOCK_BYTES],
        persistent: bool,
        mem: &mut dyn MemoryPort,
    ) -> WritebackDecision {
        let decision = match self.mode {
            PersistencyMode::BbbMemorySide => {
                // Dirty-inclusion: drain the bbPB entry (if one exists)
                // before the LLC line disappears, so an LLC miss never has
                // to search bbPBs.
                if let Some(holder) = self.holder_of(block) {
                    self.bbpbs[holder].force_drain(now, block, mem);
                    self.holder_index.remove(&block);
                }
                if persistent && self.suppress_writebacks {
                    // The bbPB has or had the line: memory already holds
                    // the latest value; skip the redundant writeback
                    // (endurance optimization, paper §III-B).
                    WritebackDecision::Suppress
                } else {
                    WritebackDecision::WriteBack
                }
            }
            PersistencyMode::BbbProcessorSide
            | PersistencyMode::Bep
            | PersistencyMode::Pmem
            | PersistencyMode::Eadr => WritebackDecision::WriteBack,
        };
        self.trace.push(TraceEvent::LlcEvict {
            block,
            cycle: now,
            dirty: true,
            suppressed: decision == WritebackDecision::Suppress,
        });
        decision
    }

    fn on_llc_clean_evict(&mut self, now: Cycle, block: BlockAddr, mem: &mut dyn MemoryPort) {
        self.trace.push(TraceEvent::LlcEvict {
            block,
            cycle: now,
            dirty: false,
            suppressed: false,
        });
        if self.mode == PersistencyMode::BbbMemorySide {
            if let Some(holder) = self.holder_of(block) {
                self.bbpbs[holder].force_drain(now, block, mem);
                self.holder_index.remove(&block);
            }
        }
    }

    fn on_l1_evict(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        core: usize,
        _mem: &mut dyn MemoryPort,
    ) {
        self.trace.push(TraceEvent::L1Evict {
            core,
            block,
            cycle: now,
        });
        // Table II lists no memory-side bbPB action for an L1→L2 writeback:
        // it is an on-chip event, invisible at the memory side. The entry
        // stays put; if another core writes the block while no L1 copy
        // exists (so no invalidation reaches us), `allocate_block` migrates
        // the entry at allocation time instead (Fig. 6(a)).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_mem::NvmmController;
    use bbb_sim::MemTiming;

    fn state(mode: PersistencyMode) -> PersistState {
        PersistState::new(&SimConfig::small_for_tests(), mode)
    }

    fn nvmm() -> NvmmController {
        NvmmController::new(MemTiming::default())
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn buffers_exist_only_for_bbb_modes() {
        assert_eq!(state(PersistencyMode::Pmem).bbpbs.len(), 0);
        assert_eq!(state(PersistencyMode::Eadr).bbpbs.len(), 0);
        assert_eq!(state(PersistencyMode::BbbMemorySide).bbpbs.len(), 2);
        assert_eq!(state(PersistencyMode::BbbProcessorSide).procpbs.len(), 2);
    }

    #[test]
    fn remote_invalidate_moves_entry_between_bbpbs() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.bbpb_mut(0).allocate(0, b(5), [0xAA; 64], &mut n);
        assert_eq!(s.holder_of(b(5)), Some(0));
        s.on_remote_invalidate(10, b(5), 0, 1, &mut n);
        assert_eq!(s.holder_of(b(5)), Some(1));
        assert_eq!(s.stats().get("bbpb.entry_moves"), 1);
        // The move itself wrote nothing to NVMM (paper Fig. 6(a)).
        assert_eq!(n.endurance().total_writes(), 0);
    }

    #[test]
    fn remote_invalidate_without_entry_is_noop() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.on_remote_invalidate(10, b(5), 0, 1, &mut n);
        assert_eq!(s.holder_of(b(5)), None);
        assert_eq!(s.stats().get("bbpb.entry_moves"), 0);
    }

    #[test]
    fn downgrade_keeps_entry_in_place() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.bbpb_mut(0).allocate(0, b(7), [1; 64], &mut n);
        s.on_remote_downgrade(10, b(7), 0);
        assert_eq!(s.holder_of(b(7)), Some(0), "entry stayed put");
        assert_eq!(s.stats().get("bbpb.downgrades_kept"), 1);
        assert_eq!(n.endurance().total_writes(), 0);
    }

    #[test]
    fn dirty_evict_forces_drain_and_suppresses_persistent_writeback() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.bbpb_mut(1).allocate(0, b(9), [0x42; 64], &mut n);
        let d = s.on_llc_dirty_evict(5, b(9), &[0x42; 64], true, &mut n);
        assert_eq!(d, WritebackDecision::Suppress);
        assert_eq!(s.holder_of(b(9)), None, "forced drain removed the entry");
        assert_eq!(n.endurance().writes_to(b(9)), 1, "drained exactly once");
    }

    #[test]
    fn dirty_evict_of_nonpersistent_block_writes_back() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        let d = s.on_llc_dirty_evict(5, b(3), &[0; 64], false, &mut n);
        assert_eq!(d, WritebackDecision::WriteBack);
    }

    #[test]
    fn persistent_evict_suppressed_even_after_drain() {
        // "has or had": the entry already drained, memory is current, so
        // the writeback is still redundant.
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        let d = s.on_llc_dirty_evict(5, b(9), &[0; 64], true, &mut n);
        assert_eq!(d, WritebackDecision::Suppress);
    }

    #[test]
    fn eadr_and_pmem_always_write_back() {
        for mode in [PersistencyMode::Eadr, PersistencyMode::Pmem] {
            let mut s = state(mode);
            let mut n = nvmm();
            let d = s.on_llc_dirty_evict(0, b(1), &[0; 64], true, &mut n);
            assert_eq!(d, WritebackDecision::WriteBack, "{mode}");
        }
    }

    #[test]
    fn procside_invalidation_drains_in_order() {
        let mut s = state(PersistencyMode::BbbProcessorSide);
        let mut n = nvmm();
        s.procpb_mut(0)
            .push(0, b(1), 0, &1u64.to_le_bytes(), 0, 0, &mut n);
        s.procpb_mut(0)
            .push(0, b(2), 0, &2u64.to_le_bytes(), 0, 1, &mut n);
        s.on_remote_invalidate(5, b(2), 0, 1, &mut n);
        // Both entries drained (FIFO through block 2).
        assert_eq!(n.endurance().total_writes(), 2);
        assert_eq!(s.total_resident_entries(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invariant 4 violated")]
    fn holder_of_catches_duplicate_holders_in_debug() {
        // Two bbPBs holding the same block is exactly the invariant-4
        // violation the debug-build exhaustive scan must still catch now
        // that release builds answer from the index.
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.bbpb_mut(0).allocate(0, b(5), [1; 64], &mut n);
        s.bbpb_mut(1).allocate(0, b(5), [2; 64], &mut n);
        let _ = s.holder_of(b(5));
    }

    #[test]
    fn holder_index_tracks_allocations_moves_and_drains() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.allocate_block(0, 0, b(5), [1; 64], &mut n);
        assert_eq!(s.holder_of(b(5)), Some(0));
        s.on_remote_invalidate(5, b(5), 0, 1, &mut n);
        assert_eq!(s.holder_of(b(5)), Some(1));
        s.on_llc_dirty_evict(10, b(5), &[1; 64], true, &mut n);
        assert_eq!(s.holder_of(b(5)), None);
        // A stale index entry (the buffer drained behind the index's back)
        // must not resurrect the block.
        s.allocate_block(1, 20, b(6), [2; 64], &mut n);
        s.bbpb_mut(1).force_drain(21, b(6), &mut n);
        assert_eq!(s.holder_of(b(6)), None);
    }

    #[test]
    fn allocate_migrates_entry_held_by_another_core() {
        // A new writer whose L1 miss raised no coherence message to the
        // old holder (its copy was silently evicted) still finds the
        // block in the other core's bbPB: the entry migrates without a
        // drain, and the new payload supersedes the stale bytes.
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.allocate_block(1, 0, b(5), [1; 64], &mut n);
        let out = s.allocate_block(0, 10, b(5), [2; 64], &mut n);
        assert!(out.coalesced, "migration counts as a coalesce, not a miss");
        assert_eq!(s.holder_of(b(5)), Some(0));
        assert_eq!(s.stats().get("bbpb.entry_moves"), 1);
        assert_eq!(s.stats().get("bbpb.drains"), 0);
        assert_eq!(n.endurance().total_writes(), 0, "no NVMM traffic");
    }

    #[test]
    fn holder_index_and_scan_agree_after_coalesce_and_forced_drain() {
        // Satellite fix coverage: the O(1) index path (`holder_of_indexed`)
        // must match the exhaustive scan after the two operations that
        // historically let it go stale — a coalescing re-allocation on a
        // different core's path, and a forced drain behind the index's back.
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.allocate_block(0, 0, b(11), [1; 64], &mut n);
        s.allocate_block(0, 1, b(11), [2; 64], &mut n); // coalesce
        s.check_holder_index();
        assert_eq!(s.holder_of_indexed(b(11)), s.holder_of_scan(b(11)));
        // Migrate, then force-drain via the buffer directly so the index
        // still maps the block to core 1.
        s.on_remote_invalidate(5, b(11), 0, 1, &mut n);
        s.check_holder_index();
        s.bbpb_mut(1).force_drain(10, b(11), &mut n);
        assert_eq!(
            s.holder_index.get(&b(11)),
            Some(&1),
            "index entry is stale by construction"
        );
        s.check_holder_index();
        assert_eq!(s.holder_of_indexed(b(11)), None, "validated fast path");
        assert_eq!(s.holder_of_scan(b(11)), None);
    }

    #[test]
    fn tracing_cascades_to_buffers_and_records_moves() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.set_tracing(true);
        s.allocate_block(0, 0, b(3), [1; 64], &mut n);
        s.on_remote_invalidate(5, b(3), 0, 1, &mut n);
        s.on_llc_dirty_evict(9, b(3), &[1; 64], true, &mut n);
        let logs = s.take_trace_logs();
        let all: Vec<TraceEvent> = logs.into_iter().flatten().collect();
        assert!(
            all.iter()
                .any(|e| matches!(e, TraceEvent::PbMove { from: 0, to: 1, .. })),
            "move recorded: {all:?}"
        );
        assert!(
            all.iter().any(|e| matches!(
                e,
                TraceEvent::PbDrain {
                    core: 1,
                    forced: true,
                    ..
                }
            )),
            "forced drain recorded in core 1's buffer log: {all:?}"
        );
        assert!(
            all.iter().any(|e| matches!(
                e,
                TraceEvent::LlcEvict {
                    dirty: true,
                    suppressed: true,
                    ..
                }
            )),
            "eviction recorded: {all:?}"
        );
    }

    #[test]
    fn clean_evict_enforces_inclusion() {
        let mut s = state(PersistencyMode::BbbMemorySide);
        let mut n = nvmm();
        s.bbpb_mut(0).allocate(0, b(4), [7; 64], &mut n);
        s.on_llc_clean_evict(5, b(4), &mut n);
        assert_eq!(s.holder_of(b(4)), None);
        assert_eq!(n.endurance().writes_to(b(4)), 1);
    }
}
